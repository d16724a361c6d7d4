//! The online CA itself: short-lived certificates, username-in-DN.

use crate::error::{MyProxyError, Result};
use ig_obs::sync::Mutex;
use ig_pki::cert::Certificate;
use ig_pki::time::Clock;
use ig_pki::{CertificateAuthority, CertificateSigningRequest, DistinguishedName, SigningPolicy};
use rand::Rng;

/// Default maximum credential lifetime: 12 hours, the GCMU default.
pub const DEFAULT_MAX_LIFETIME: u64 = 12 * 3600;

/// A MyProxy Online CA bound to one endpoint.
pub struct OnlineCa {
    ca: Mutex<CertificateAuthority>,
    endpoint: String,
    base_dn: DistinguishedName,
    /// Issued-lifetime cap in seconds.
    pub max_lifetime: u64,
    clock: Clock,
}

impl OnlineCa {
    /// Create the CA for `endpoint` with a fresh key pair.
    ///
    /// The CA DN is `/O=GCMU/OU=<endpoint>/CN=MyProxy CA`; issued subject
    /// DNs are `/O=GCMU/OU=<endpoint>/CN=<username>` — §IV: "It embeds
    /// the local username in the distinguished name (DN) of the
    /// certificate, since this certificate will be used to authenticate
    /// with this site only."
    pub fn create<R: Rng + ?Sized>(
        rng: &mut R,
        endpoint: &str,
        key_bits: usize,
        clock: Clock,
    ) -> Result<Self> {
        let base_dn = DistinguishedName::from_pairs([("O", "GCMU"), ("OU", endpoint)]);
        let ca_dn = base_dn.with("CN", "MyProxy CA");
        let ca = CertificateAuthority::create(
            rng,
            ca_dn,
            key_bits,
            clock.now(),
            10 * ig_pki::time::YEAR,
        )?;
        Ok(OnlineCa {
            ca: Mutex::new(ca),
            endpoint: endpoint.to_string(),
            base_dn,
            max_lifetime: DEFAULT_MAX_LIFETIME,
            clock,
        })
    }

    /// The endpoint this CA serves.
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// The CA's self-signed root (what GCMU installs as a trust anchor).
    pub fn root_cert(&self) -> Certificate {
        self.ca.lock().root_cert().clone()
    }

    /// The signing policy GCMU writes next to the root: this CA may only
    /// sign subjects under its own namespace.
    pub fn signing_policy(&self) -> SigningPolicy {
        SigningPolicy::new([format!("{}/*", self.base_dn)])
    }

    /// Issue a short-lived certificate for an *already authenticated*
    /// username. The CSR's requested subject is ignored; the DN is minted
    /// from the username (the whole point of §IV-C).
    pub fn issue(
        &self,
        username: &str,
        csr: &CertificateSigningRequest,
        requested_lifetime: u64,
    ) -> Result<Certificate> {
        let t0 = std::time::Instant::now();
        let out = self.issue_inner(username, csr, requested_lifetime);
        let obs = ig_obs::Obs::global();
        let metrics = obs.metrics();
        metrics.observe("myproxy.issue_ns", t0.elapsed().as_nanos() as u64);
        metrics.add(
            if out.is_ok() { "myproxy.issued" } else { "myproxy.issue_refused" },
            1,
        );
        out
    }

    fn issue_inner(
        &self,
        username: &str,
        csr: &CertificateSigningRequest,
        requested_lifetime: u64,
    ) -> Result<Certificate> {
        if username.is_empty() || username.contains(char::is_whitespace) {
            return Err(MyProxyError::IssuanceRefused(format!(
                "unusable username {username:?}"
            )));
        }
        let key = csr
            .verify()
            .map_err(|e| MyProxyError::IssuanceRefused(format!("bad CSR: {e}")))?;
        let lifetime = requested_lifetime.min(self.max_lifetime).max(60);
        self.ca
            .lock()
            .issue_short_lived(
                &self.base_dn,
                username,
                &self.endpoint,
                &key,
                self.clock.now(),
                lifetime,
            )
            .map_err(MyProxyError::Pki)
    }

    /// Issue a host certificate for the co-packaged GridFTP server (the
    /// GCMU installer calls this so no external CA is ever involved).
    pub fn issue_host_cert<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        key_bits: usize,
    ) -> Result<(Certificate, ig_crypto::RsaPrivateKey)> {
        let keys = ig_crypto::RsaKeyPair::generate(rng, key_bits)
            .map_err(|e| MyProxyError::IssuanceRefused(e.to_string()))?;
        let subject = self.base_dn.with("CN", &format!("host/{}", self.endpoint));
        let cert = self
            .ca
            .lock()
            .issue(
                subject,
                &keys.public,
                ig_pki::cert::Validity::starting_at(self.clock.now(), ig_pki::time::YEAR),
                vec![],
            )
            .map_err(MyProxyError::Pki)?;
        Ok((cert, keys.private))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ig_crypto::rng::seeded;
    use ig_crypto::RsaKeyPair;
    use ig_pki::{validate_chain, TrustStore};

    fn online_ca(seed: u64) -> OnlineCa {
        OnlineCa::create(&mut seeded(seed), "cluster.example.org", 512, Clock::Fixed(10_000))
            .unwrap()
    }

    fn csr(seed: u64) -> (CertificateSigningRequest, RsaKeyPair) {
        let kp = RsaKeyPair::generate(&mut seeded(seed), 512).unwrap();
        let csr = CertificateSigningRequest::create(
            DistinguishedName::from_pairs([("CN", "requested-name-ignored")]),
            &kp.private,
        )
        .unwrap();
        (csr, kp)
    }

    #[test]
    fn issue_embeds_username_and_marker() {
        let ca = online_ca(1);
        let (csr, kp) = csr(2);
        let cert = ca.issue("alice", &csr, 3600).unwrap();
        assert_eq!(
            cert.subject().to_string(),
            "/O=GCMU/OU=cluster.example.org/CN=alice"
        );
        assert_eq!(cert.online_ca_endpoint(), Some("cluster.example.org"));
        assert_eq!(cert.public_key().unwrap(), kp.public);
        // Chain validates against the root; GCMU marker propagates.
        let mut trust = TrustStore::new();
        trust.add_root_with_policy(ca.root_cert(), ca.signing_policy());
        let id = validate_chain(&[cert], &trust, 10_100).unwrap();
        assert_eq!(id.online_ca_endpoint.as_deref(), Some("cluster.example.org"));
    }

    #[test]
    fn lifetime_is_clamped() {
        let ca = online_ca(3);
        let (csr, _) = csr(4);
        let cert = ca.issue("bob", &csr, 100 * 24 * 3600).unwrap();
        let v = cert.tbs.validity;
        assert_eq!(v.not_after - v.not_before, DEFAULT_MAX_LIFETIME);
        // Expired short-lived cert is rejected downstream.
        assert!(cert.check_validity(10_000 + DEFAULT_MAX_LIFETIME + 1).is_err());
    }

    #[test]
    fn bad_inputs_refused() {
        let ca = online_ca(5);
        let (mut bad_csr, _) = csr(6);
        bad_csr.signature[0] ^= 1;
        assert!(ca.issue("alice", &bad_csr, 3600).is_err());
        let (ok_csr, _) = csr(7);
        assert!(ca.issue("", &ok_csr, 3600).is_err());
        assert!(ca.issue("two words", &ok_csr, 3600).is_err());
    }

    #[test]
    fn signing_policy_confines_namespace() {
        let ca = online_ca(8);
        let policy = ca.signing_policy();
        assert!(policy.permits(
            &DistinguishedName::parse("/O=GCMU/OU=cluster.example.org/CN=anyone").unwrap()
        ));
        assert!(!policy.permits(&DistinguishedName::parse("/O=Evil/CN=x").unwrap()));
    }

    #[test]
    fn host_cert_issuance() {
        let ca = online_ca(9);
        let (cert, key) = ca.issue_host_cert(&mut seeded(10), 512).unwrap();
        assert_eq!(cert.subject().common_name(), Some("host/cluster.example.org"));
        assert_eq!(cert.public_key().unwrap(), *key.public());
        let mut trust = TrustStore::new();
        trust.add_root(ca.root_cert());
        validate_chain(&[cert], &trust, 20_000).unwrap();
    }
}
