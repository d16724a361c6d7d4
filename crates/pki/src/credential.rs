//! Credentials: a certificate chain plus the matching private key.
//!
//! The PEM-bundle form of a credential is exactly the payload of the
//! paper's `DCSC P` command (§V-A):
//!
//! 1. an X.509 certificate in PEM format,
//! 2. a private key in PEM format,
//! 3. additional X.509 certificates in PEM format, unordered (optional).

use crate::cert::Certificate;
use crate::error::{PkiError, Result};
use ig_crypto::encode::{pem_decode_all, pem_encode};
use ig_crypto::RsaPrivateKey;

/// A usable identity: leaf certificate, any chain certificates, and the
/// private key matching the leaf.
#[derive(Clone)]
pub struct Credential {
    /// Leaf first, then issuers toward (not necessarily including) a root.
    chain: Vec<Certificate>,
    key: RsaPrivateKey,
}

/// Two credentials are the same when they present the same chain: the
/// constructor ties the key to the leaf, so the chain decides the key.
impl PartialEq for Credential {
    fn eq(&self, other: &Self) -> bool {
        self.chain == other.chain
    }
}

impl std::fmt::Debug for Credential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Credential")
            .field("subject", &self.leaf().subject().to_string())
            .field("chain_len", &self.chain.len())
            .finish_non_exhaustive()
    }
}

impl Credential {
    /// Build a credential, checking the key matches the leaf certificate.
    pub fn new(chain: Vec<Certificate>, key: RsaPrivateKey) -> Result<Self> {
        let leaf = chain
            .first()
            .ok_or_else(|| PkiError::Decode("credential needs at least one certificate".into()))?;
        if leaf.public_key()? != *key.public() {
            return Err(PkiError::Decode(
                "private key does not match leaf certificate".into(),
            ));
        }
        Ok(Credential { chain, key })
    }

    /// Leaf certificate (the identity presented on the wire).
    pub fn leaf(&self) -> &Certificate {
        &self.chain[0]
    }

    /// Full chain, leaf first.
    pub fn chain(&self) -> &[Certificate] {
        &self.chain
    }

    /// Private key.
    pub fn key(&self) -> &RsaPrivateKey {
        &self.key
    }

    /// The *base* identity: subject of the first non-proxy certificate in
    /// the chain (strips delegation CNs — this is the DN a gridmap or the
    /// GCMU callout maps to a local account).
    pub fn identity(&self) -> &crate::dn::DistinguishedName {
        for cert in &self.chain {
            if cert.proxy_info().is_none() {
                return cert.subject();
            }
        }
        // All-proxy chain (shouldn't happen): fall back to the last cert.
        self.chain.last().expect("chain non-empty").subject()
    }

    /// Remaining lifetime of the leaf at `now` (seconds; 0 when expired).
    pub fn remaining_lifetime(&self, now: u64) -> u64 {
        self.leaf().tbs.validity.remaining(now)
    }

    /// Serialize as the DCSC P PEM bundle: leaf cert, private key, then
    /// the rest of the chain unordered.
    pub fn to_pem_bundle(&self) -> String {
        let mut out = self.leaf().to_pem();
        let key_bytes = self.key.encode();
        out.push_str(&pem_encode("PRIVATE KEY", &key_bytes));
        for cert in &self.chain[1..] {
            out.push_str(&cert.to_pem());
        }
        out
    }

    /// Parse a DCSC P PEM bundle. Per §V-A the first certificate is the
    /// presented one; additional certificates are an unordered pool used
    /// to assemble the chain.
    pub fn from_pem_bundle(bundle: &str) -> Result<Self> {
        let blocks =
            pem_decode_all(bundle).map_err(|e| PkiError::Decode(e.to_string()))?;
        let mut certs: Vec<Certificate> = Vec::new();
        let mut key: Option<RsaPrivateKey> = None;
        for block in blocks {
            match block.label.as_str() {
                "CERTIFICATE" => certs.push(Certificate::from_bytes(&block.data)?),
                "PRIVATE KEY" => {
                    if key.is_some() {
                        return Err(PkiError::Decode("multiple private keys in bundle".into()));
                    }
                    key = Some(RsaPrivateKey::decode(&block.data)?);
                }
                other => {
                    return Err(PkiError::Decode(format!("unexpected PEM block {other:?}")))
                }
            }
        }
        let key = key.ok_or_else(|| PkiError::Decode("no private key in bundle".into()))?;
        if certs.is_empty() {
            return Err(PkiError::Decode("no certificate in bundle".into()));
        }
        // First cert is the leaf; order the rest by issuer-chasing so the
        // chain is leaf→rootward even if the pool was shuffled.
        let leaf = certs.remove(0);
        let mut chain = vec![leaf];
        loop {
            let tail = chain.last().expect("chain non-empty");
            if tail.is_self_signed() {
                break;
            }
            let next = certs
                .iter()
                .position(|c| c.subject() == tail.issuer());
            match next {
                Some(idx) => chain.push(certs.remove(idx)),
                None => break, // incomplete chain is legal; validator decides
            }
        }
        // Any unreferenced leftover certs are appended (still available to
        // the validator as extra roots).
        chain.append(&mut certs);
        Credential::new(chain, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ca::CertificateAuthority;
    use crate::cert::Validity;
    use crate::dn::DistinguishedName;
    use ig_crypto::rng::seeded;
    use ig_crypto::RsaKeyPair;

    fn dn(s: &str) -> DistinguishedName {
        DistinguishedName::parse(s).unwrap()
    }

    fn make() -> (CertificateAuthority, Credential) {
        let mut rng = seeded(20);
        let mut ca =
            CertificateAuthority::create(&mut rng, dn("/O=Root"), 512, 0, 1_000_000).unwrap();
        let keys = RsaKeyPair::generate(&mut rng, 512).unwrap();
        let cert = ca
            .issue(dn("/O=Grid/CN=carol"), &keys.public, Validity::starting_at(0, 7200), vec![])
            .unwrap();
        let cred =
            Credential::new(vec![cert, ca.root_cert().clone()], keys.private).unwrap();
        (ca, cred)
    }

    #[test]
    fn new_checks_key_match() {
        let (ca, cred) = make();
        let wrong_key = RsaKeyPair::generate(&mut seeded(21), 512).unwrap();
        let err = Credential::new(cred.chain().to_vec(), wrong_key.private).unwrap_err();
        assert!(matches!(err, PkiError::Decode(_)));
        assert!(Credential::new(vec![], ca.keypair().private.clone()).is_err());
    }

    #[test]
    fn identity_strips_proxies() {
        let (_, cred) = make();
        assert_eq!(cred.identity().to_string(), "/O=Grid/CN=carol");
        let mut rng = seeded(22);
        let delegated =
            crate::proxy::delegate(&mut rng, &cred, 512, 0, Default::default()).unwrap();
        // Leaf is the proxy but identity is still the user.
        assert_ne!(delegated.leaf().subject().to_string(), "/O=Grid/CN=carol");
        assert_eq!(delegated.identity().to_string(), "/O=Grid/CN=carol");
    }

    #[test]
    fn remaining_lifetime() {
        let (_, cred) = make();
        assert_eq!(cred.remaining_lifetime(0), 7200);
        assert_eq!(cred.remaining_lifetime(7000), 200);
        assert_eq!(cred.remaining_lifetime(8000), 0);
    }

    #[test]
    fn pem_bundle_roundtrip() {
        let (_, cred) = make();
        let bundle = cred.to_pem_bundle();
        assert!(bundle.contains("BEGIN CERTIFICATE"));
        assert!(bundle.contains("BEGIN PRIVATE KEY"));
        let back = Credential::from_pem_bundle(&bundle).unwrap();
        assert_eq!(back.chain(), cred.chain());
        assert_eq!(back.key(), cred.key());
    }

    #[test]
    fn pem_bundle_reorders_shuffled_chain() {
        // §V-A: additional certificates are unordered.
        let (_, cred) = make();
        let mut rng = seeded(23);
        let delegated =
            crate::proxy::delegate(&mut rng, &cred, 512, 0, Default::default()).unwrap();
        // Build a bundle with the pool reversed: leaf, key, root, EEC.
        let mut bundle = delegated.leaf().to_pem();
        bundle.push_str(&ig_crypto::encode::pem_encode(
            "PRIVATE KEY",
            &delegated.key().encode(),
        ));
        bundle.push_str(&delegated.chain()[2].to_pem()); // root first
        bundle.push_str(&delegated.chain()[1].to_pem()); // then EEC
        let back = Credential::from_pem_bundle(&bundle).unwrap();
        assert_eq!(back.chain(), delegated.chain());
    }

    #[test]
    fn bundle_rejects_malformed() {
        let (_, cred) = make();
        assert!(Credential::from_pem_bundle("").is_err());
        // Cert but no key.
        assert!(Credential::from_pem_bundle(&cred.leaf().to_pem()).is_err());
        // Key but no cert.
        let key_only =
            ig_crypto::encode::pem_encode("PRIVATE KEY", &cred.key().encode());
        assert!(Credential::from_pem_bundle(&key_only).is_err());
        // Two keys.
        let mut two_keys = cred.to_pem_bundle();
        two_keys.push_str(&key_only);
        assert!(Credential::from_pem_bundle(&two_keys).is_err());
        // Unknown block label.
        let mut odd = cred.to_pem_bundle();
        odd.push_str(&ig_crypto::encode::pem_encode("WEIRD", b"x"));
        assert!(Credential::from_pem_bundle(&odd).is_err());
    }

    #[test]
    fn debug_omits_key_material() {
        let (_, cred) = make();
        let s = format!("{cred:?}");
        assert!(s.contains("carol"));
        assert!(!s.contains("limbs"));
    }
}
