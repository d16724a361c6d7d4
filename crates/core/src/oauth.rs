//! The GCMU OAuth server (§VI-B, Fig 7) — implemented future work.
//!
//! "With an OAuth server on GCMU endpoint ... users do not have to enter
//! a username or password on Globus Online. Instead, when users access a
//! GCMU endpoint, they will be redirected to a web page running on the
//! endpoint; when they enter the username/password on that site, Globus
//! Online will get a short-term certificate from the endpoint via the
//! OAuth protocol."
//!
//! The flow is the standard authorization-code grant:
//! 1. agent redirects the user to the endpoint ([`OAuthServer::authorize`]
//!    is the endpoint's login page — the password is a parameter *here*,
//!    at the endpoint, never at the agent);
//! 2. the endpoint returns a single-use authorization code;
//! 3. the agent exchanges code + CSR for a short-lived certificate
//!    ([`OAuthServer::exchange`]).
//!
//! Experiment E10 audits exactly which principals ever observe the
//! password under password-activation vs OAuth-activation.

use crate::error::{GcmuError, Result};
use ig_crypto::encode::hex_encode;
use ig_myproxy::ca::OnlineCa;
use ig_myproxy::pam::PamStack;
use ig_pki::cert::Certificate;
use ig_pki::time::Clock;
use ig_pki::CertificateSigningRequest;
use ig_xio::sync::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Authorization-code lifetime in seconds.
pub const CODE_LIFETIME: u64 = 600;

struct PendingCode {
    username: String,
    client_id: String,
    expires: u64,
}

/// The endpoint-resident OAuth server.
pub struct OAuthServer {
    ca: Arc<OnlineCa>,
    pam: Arc<PamStack>,
    clock: Clock,
    codes: Mutex<HashMap<String, PendingCode>>,
    counter: AtomicU64,
}

impl OAuthServer {
    /// Attach an OAuth front end to the endpoint's CA + PAM.
    pub fn new(ca: Arc<OnlineCa>, pam: Arc<PamStack>, clock: Clock) -> Self {
        OAuthServer { ca, pam, clock, codes: Mutex::new(HashMap::new()), counter: AtomicU64::new(1) }
    }

    /// The endpoint's login page: the user authenticates *here* and the
    /// agent (`client_id`) gets only an opaque code.
    pub fn authorize(&self, username: &str, password: &str, client_id: &str) -> Result<String> {
        self.pam
            .authenticate(username, password)
            .map_err(|e| GcmuError::OAuth(format!("login failed: {e}")))?;
        let n = self.counter.fetch_add(1, Ordering::SeqCst);
        let mut material = Vec::new();
        material.extend_from_slice(username.as_bytes());
        material.extend_from_slice(&n.to_be_bytes());
        material.extend_from_slice(client_id.as_bytes());
        let code = hex_encode(&ig_crypto::Sha256::digest(&material)[..16]);
        self.codes.lock().insert(
            code.clone(),
            PendingCode {
                username: username.to_string(),
                client_id: client_id.to_string(),
                expires: self.clock.now() + CODE_LIFETIME,
            },
        );
        Ok(code)
    }

    /// The token endpoint: the agent trades the code (plus a CSR whose
    /// key *it* generated, so it ends up holding the credential) for a
    /// short-lived certificate.
    pub fn exchange(
        &self,
        code: &str,
        client_id: &str,
        csr: &CertificateSigningRequest,
        lifetime: u64,
    ) -> Result<Certificate> {
        let pending = self
            .codes
            .lock()
            .remove(code)
            .ok_or_else(|| GcmuError::OAuth("unknown or already-used code".into()))?;
        if pending.client_id != client_id {
            return Err(GcmuError::OAuth("code was issued to a different client".into()));
        }
        if self.clock.now() >= pending.expires {
            return Err(GcmuError::OAuth("authorization code expired".into()));
        }
        self.ca
            .issue(&pending.username, csr, lifetime)
            .map_err(GcmuError::from)
    }

    /// Outstanding (unredeemed) codes — for tests and monitoring.
    pub fn pending_codes(&self) -> usize {
        self.codes.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ig_crypto::rng::seeded;
    use ig_myproxy::pam::FileBackend;
    use ig_pki::DistinguishedName;

    const NOW: u64 = 9_000_000;

    fn setup(seed: u64) -> OAuthServer {
        let mut rng = seeded(seed);
        let ca =
            Arc::new(OnlineCa::create(&mut rng, "oauth-ep.example.org", 512, Clock::Fixed(NOW)).unwrap());
        let mut files = FileBackend::new();
        files.add_user("alice", "web pw");
        let pam = Arc::new(PamStack::new(vec![Box::new(files)]));
        OAuthServer::new(ca, pam, Clock::Fixed(NOW))
    }

    fn csr(seed: u64) -> CertificateSigningRequest {
        let kp = ig_crypto::RsaKeyPair::generate(&mut seeded(seed), 512).unwrap();
        CertificateSigningRequest::create(DistinguishedName::from_pairs([("CN", "agent")]), &kp.private)
            .unwrap()
    }

    #[test]
    fn full_flow_issues_certificate() {
        let oauth = setup(1);
        let code = oauth.authorize("alice", "web pw", "globus-online").unwrap();
        assert_eq!(oauth.pending_codes(), 1);
        let cert = oauth.exchange(&code, "globus-online", &csr(2), 3600).unwrap();
        assert_eq!(cert.subject().common_name(), Some("alice"));
        assert_eq!(cert.online_ca_endpoint(), Some("oauth-ep.example.org"));
        assert_eq!(oauth.pending_codes(), 0);
    }

    #[test]
    fn wrong_password_refused_at_the_endpoint() {
        let oauth = setup(3);
        assert!(oauth.authorize("alice", "wrong", "go").is_err());
        assert_eq!(oauth.pending_codes(), 0);
    }

    #[test]
    fn code_is_single_use() {
        let oauth = setup(4);
        let code = oauth.authorize("alice", "web pw", "go").unwrap();
        oauth.exchange(&code, "go", &csr(5), 600).unwrap();
        assert!(oauth.exchange(&code, "go", &csr(6), 600).is_err());
    }

    #[test]
    fn code_bound_to_client() {
        let oauth = setup(7);
        let code = oauth.authorize("alice", "web pw", "globus-online").unwrap();
        let err = oauth.exchange(&code, "evil-agent", &csr(8), 600).unwrap_err();
        assert!(err.to_string().contains("different client"));
        // Stolen + misused codes are burned.
        assert!(oauth.exchange(&code, "globus-online", &csr(9), 600).is_err());
    }

    #[test]
    fn expired_code_rejected() {
        let mut rng = seeded(10);
        let ca =
            Arc::new(OnlineCa::create(&mut rng, "ep", 512, Clock::Fixed(NOW)).unwrap());
        let mut files = FileBackend::new();
        files.add_user("alice", "pw");
        let pam = Arc::new(PamStack::new(vec![Box::new(files)]));
        // Server whose clock jumps between authorize and exchange.
        let oauth = OAuthServer::new(Arc::clone(&ca), Arc::clone(&pam), Clock::Fixed(NOW));
        let code = oauth.authorize("alice", "pw", "go").unwrap();
        let late = OAuthServer::new(ca, pam, Clock::Fixed(NOW + CODE_LIFETIME + 1));
        // Transplant the code into the late server to simulate expiry.
        late.codes.lock().extend(oauth.codes.lock().drain());
        assert!(late.exchange(&code, "go", &csr(11), 600).is_err());
    }

    #[test]
    fn bad_csr_rejected() {
        let oauth = setup(12);
        let code = oauth.authorize("alice", "web pw", "go").unwrap();
        let mut bad = csr(13);
        bad.signature[0] ^= 1;
        assert!(oauth.exchange(&code, "go", &bad, 600).is_err());
    }
}
