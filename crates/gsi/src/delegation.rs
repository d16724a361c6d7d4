//! Credential delegation over an established secure context.
//!
//! Three sealed messages implement GSI delegation: the acceptor generates
//! a key pair locally and sends a CSR; the initiator signs a proxy
//! certificate with its credential; the acceptor assembles the delegated
//! credential. The private key never leaves the acceptor.
//!
//! This is the mechanism behind two paper behaviours:
//! * third-party DCAU: "the server performs a delegation, and both ends
//!   of the authentication must present the user's proxy certificate"
//!   (§IIC);
//! * Globus Online restart: GO holds a delegated/short-term credential it
//!   can use to "re-authenticate with the endpoints on the user's behalf
//!   and restart the transfer from the last checkpoint" (§VI-B).
//!
//! GridFTP-Lite's SSH authentication cannot do this — "since SSH does not
//! support delegation, users cannot hand off SSH-based GridFTP transfers
//! to transfer agents such as Globus Online" (§III-B) — which experiment
//! E8 records as a capability column.

use crate::error::{GsiError, Result};
use ig_pki::proxy::{issue_proxy, ProxyOptions};
use ig_pki::{Certificate, CertificateSigningRequest, Credential, DistinguishedName};
use rand::Rng;
use ig_obs::json::{from_slice, to_vec};

/// Message 1: acceptor → initiator (a CSR for a freshly generated key).
pub struct DelegationRequest {
    /// CSR carrying the acceptor-generated public key.
    pub csr: CertificateSigningRequest,
}

ig_obs::json_codec!(struct DelegationRequest { csr });

/// Message 2: initiator → acceptor (signed proxy + issuer chain).
pub struct DelegationGrant {
    /// Chain for the delegated credential: proxy first, then the
    /// initiator's own chain.
    pub chain: Vec<Certificate>,
}

ig_obs::json_codec!(struct DelegationGrant { chain });

/// Acceptor state between offer and completion (holds the private key).
pub struct PendingDelegation {
    keys: ig_crypto::RsaKeyPair,
}

/// Acceptor: generate a key pair and produce the CSR message bytes.
pub fn offer<R: Rng + ?Sized>(rng: &mut R, key_bits: usize) -> Result<(Vec<u8>, PendingDelegation)> {
    let keys = ig_crypto::RsaKeyPair::generate(rng, key_bits)?;
    // The CSR subject is advisory; the initiator names the proxy itself.
    let csr = CertificateSigningRequest::create(
        DistinguishedName::from_pairs([("CN", "delegation-request")]),
        &keys.private,
    )?;
    Ok((to_vec(&DelegationRequest { csr }), PendingDelegation { keys }))
}

/// Initiator: sign a proxy for the CSR's key using `credential`.
pub fn grant<R: Rng + ?Sized>(
    rng: &mut R,
    credential: &Credential,
    request_bytes: &[u8],
    now: u64,
    options: ProxyOptions,
) -> Result<Vec<u8>> {
    let req: DelegationRequest = from_slice(request_bytes)
        .map_err(|e| GsiError::Decode(format!("bad delegation request: {e}")))?;
    let key = req.csr.verify()?; // proof of possession
    let proxy = issue_proxy(rng, credential, &key, now, options)?;
    let mut chain = vec![proxy];
    chain.extend(credential.chain().iter().cloned());
    Ok(to_vec(&DelegationGrant { chain }))
}

/// Acceptor: combine the grant with the pending key into a credential.
pub fn complete(pending: PendingDelegation, grant_bytes: &[u8]) -> Result<Credential> {
    let msg: DelegationGrant = from_slice(grant_bytes)
        .map_err(|e| GsiError::Decode(format!("bad delegation grant: {e}")))?;
    Ok(Credential::new(msg.chain, pending.keys.private)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::test_support::ca_and_credential;
    use ig_crypto::rng::seeded;
    use ig_pki::TrustStore;

    #[test]
    fn full_delegation_roundtrip() {
        let mut rng = seeded(1);
        let (ca, user_cred) = ca_and_credential(&mut rng, "/O=CA", "/O=Grid/CN=alice");
        let (req, pending) = offer(&mut rng, 512).unwrap();
        let grant_bytes =
            grant(&mut rng, &user_cred, &req, 100, ProxyOptions::default()).unwrap();
        let delegated = complete(pending, &grant_bytes).unwrap();
        // Delegated credential validates and maps back to alice.
        let mut trust = TrustStore::new();
        trust.add_root(ca.root_cert().clone());
        let id = ig_pki::validate_chain(delegated.chain(), &trust, 200).unwrap();
        assert_eq!(id.identity.to_string(), "/O=Grid/CN=alice");
        assert!(id.subject.extends(&id.identity, 1));
        // The delegated key is usable (sign/verify).
        let sig = delegated.key().sign(b"act on behalf").unwrap();
        delegated.leaf().public_key().unwrap().verify(b"act on behalf", &sig).unwrap();
    }

    #[test]
    fn grant_rejects_bad_csr() {
        let mut rng = seeded(2);
        let (_, user_cred) = ca_and_credential(&mut rng, "/O=CA", "/CN=u");
        assert!(grant(&mut rng, &user_cred, b"garbage", 0, ProxyOptions::default()).is_err());
        // Tampered CSR (signature broken).
        let (req, _) = offer(&mut rng, 512).unwrap();
        let mut parsed: DelegationRequest = from_slice(&req).unwrap();
        parsed.csr.body.subject = DistinguishedName::from_pairs([("CN", "evil")]);
        let tampered = to_vec(&parsed);
        assert!(grant(&mut rng, &user_cred, &tampered, 0, ProxyOptions::default()).is_err());
    }

    #[test]
    fn complete_rejects_mismatched_grant() {
        let mut rng = seeded(3);
        let (_, user_cred) = ca_and_credential(&mut rng, "/O=CA", "/CN=u");
        // Two pending delegations; grant for the first used with the second.
        let (req1, _pending1) = offer(&mut rng, 512).unwrap();
        let (_req2, pending2) = offer(&mut rng, 512).unwrap();
        let grant1 = grant(&mut rng, &user_cred, &req1, 0, ProxyOptions::default()).unwrap();
        // pending2's key does not match the proxy in grant1.
        assert!(complete(pending2, &grant1).is_err());
        assert!(complete(offer(&mut rng, 512).unwrap().1, b"junk").is_err());
    }

    #[test]
    fn delegation_depth_limits_respected() {
        let mut rng = seeded(4);
        let (_, user_cred) = ca_and_credential(&mut rng, "/O=CA", "/CN=u");
        let (req, pending) = offer(&mut rng, 512).unwrap();
        let g = grant(
            &mut rng,
            &user_cred,
            &req,
            0,
            ProxyOptions { lifetime: 3600, path_len: Some(0) },
        )
        .unwrap();
        let limited = complete(pending, &g).unwrap();
        // Second-level delegation from the limited credential must fail
        // at grant time.
        let (req2, _) = offer(&mut rng, 512).unwrap();
        assert!(grant(&mut rng, &limited, &req2, 0, ProxyOptions::default()).is_err());
    }
}
