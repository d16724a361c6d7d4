//! `myproxy-logon` — the client side of §IV-E.
//!
//! ```text
//! myproxy-logon -b -T -s <server-name>
//! ```
//!
//! Generates the key pair locally, authenticates with the site
//! username/password over a sealed channel, and returns the short-lived
//! credential plus the server's trust roots (`-T`: "trust roots" and
//! `-b`: bootstrap — accept the server certificate on first use).

use crate::error::{MyProxyError, Result};
use crate::protocol::{decode, encode, LogonRequest, LogonResponse};
use ig_gsi::context::GsiConfig;
use ig_gsi::ProtectionLevel;
use ig_pki::policy::SigningPolicy;
use ig_pki::time::Clock;
use ig_pki::{Certificate, CertificateSigningRequest, Credential, DistinguishedName, TrustStore};
use ig_protocol::HostPort;
use ig_xio::{secure_connect, Link, TcpLink};
use rand::Rng;

/// What a successful logon yields.
#[derive(Debug)]
pub struct LogonOutput {
    /// The user's new short-lived credential (chain: cert + CA root).
    pub credential: Credential,
    /// Trust roots to install (the site CA).
    pub trust_roots: Vec<Certificate>,
    /// Signing policy for those roots.
    pub signing_policy: SigningPolicy,
}

/// Perform a logon against `addr`.
///
/// `trust`: existing trust roots for validating the server; pass an empty
/// store with `bootstrap = true` for the first contact (`-b`).
#[allow(clippy::too_many_arguments)]
pub fn myproxy_logon<R: Rng + ?Sized>(
    addr: HostPort,
    username: &str,
    password: &str,
    lifetime: u64,
    trust: TrustStore,
    bootstrap: bool,
    clock: Clock,
    key_bits: usize,
    rng: &mut R,
) -> Result<LogonOutput> {
    let t0 = std::time::Instant::now();
    let out = logon_inner(addr, username, password, lifetime, trust, bootstrap, clock, key_bits, rng);
    let obs = ig_obs::Obs::global();
    let metrics = obs.metrics();
    metrics.observe("myproxy.logon_ns", t0.elapsed().as_nanos() as u64);
    metrics.add(if out.is_ok() { "myproxy.logons_ok" } else { "myproxy.logons_err" }, 1);
    out
}

#[allow(clippy::too_many_arguments)]
fn logon_inner<R: Rng + ?Sized>(
    addr: HostPort,
    username: &str,
    password: &str,
    lifetime: u64,
    trust: TrustStore,
    bootstrap: bool,
    clock: Clock,
    key_bits: usize,
    rng: &mut R,
) -> Result<LogonOutput> {
    // Step 1 of §IV-A: generate the private key locally.
    let keys = ig_crypto::RsaKeyPair::generate(rng, key_bits)
        .map_err(|e| MyProxyError::IssuanceRefused(e.to_string()))?;
    let csr = CertificateSigningRequest::create(
        DistinguishedName::from_pairs([("CN", username)]),
        &keys.private,
    )?;
    // Sealed, server-authenticated channel.
    let mut cfg = GsiConfig::anonymous(trust).with_clock(clock);
    if bootstrap {
        cfg = cfg.bootstrap();
    }
    let tcp = TcpLink::connect(addr.to_socket_addr())?;
    let mut channel = secure_connect(tcp, cfg, ProtectionLevel::Private, rng)
        .map_err(MyProxyError::Io)?;
    let request = LogonRequest {
        username: username.to_string(),
        password: password.to_string(),
        lifetime,
        csr,
    };
    channel.send(&encode(&request))?;
    let raw = channel.recv()?;
    let _ = channel.close();
    match decode::<LogonResponse>(&raw)? {
        LogonResponse::Ok { certificate, trust_roots, signing_policy } => {
            let mut chain = vec![certificate];
            chain.extend(trust_roots.iter().cloned());
            let credential = Credential::new(chain, keys.private)?;
            Ok(LogonOutput {
                credential,
                trust_roots,
                signing_policy: SigningPolicy::parse_file(&signing_policy),
            })
        }
        LogonResponse::Err { message } => Err(MyProxyError::Server(message)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ca::OnlineCa;
    use crate::pam::{FileBackend, PamStack};
    use crate::server::MyProxyServer;
    use ig_crypto::rng::seeded;
    use std::sync::Arc;

    const NOW: u64 = 50_000;

    fn start_server(seed: u64) -> Arc<MyProxyServer> {
        let mut rng = seeded(seed);
        let clock = Clock::Fixed(NOW);
        let ca = Arc::new(OnlineCa::create(&mut rng, "gcmu.example.org", 512, clock).unwrap());
        let (host_cert, host_key) = ca.issue_host_cert(&mut rng, 512).unwrap();
        let host_cred =
            Credential::new(vec![host_cert, ca.root_cert()], host_key).unwrap();
        let mut files = FileBackend::new();
        files.add_user("alice", "correct horse");
        let pam = Arc::new(PamStack::new(vec![Box::new(files)]));
        MyProxyServer::start(ca, pam, host_cred, clock, seed * 10).unwrap()
    }

    #[test]
    fn logon_issues_short_lived_credential() {
        let server = start_server(1);
        let mut rng = seeded(100);
        let out = myproxy_logon(
            server.addr(),
            "alice",
            "correct horse",
            3600,
            TrustStore::new(),
            true, // bootstrap: no roots yet
            Clock::Fixed(NOW),
            512,
            &mut rng,
        )
        .unwrap();
        // The DN embeds the username (§IV-C).
        assert_eq!(
            out.credential.identity().to_string(),
            "/O=GCMU/OU=gcmu.example.org/CN=alice"
        );
        assert_eq!(out.credential.leaf().online_ca_endpoint(), Some("gcmu.example.org"));
        // Lifetime honoured.
        assert_eq!(out.credential.remaining_lifetime(NOW), 3600);
        // Downloaded trust roots validate the credential.
        let mut trust = TrustStore::new();
        for root in &out.trust_roots {
            trust.add_root_with_policy(root.clone(), out.signing_policy.clone());
        }
        ig_pki::validate_chain(out.credential.chain(), &trust, NOW + 10).unwrap();
        assert_eq!(server.issued.load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    #[test]
    fn wrong_password_refused() {
        let server = start_server(2);
        let mut rng = seeded(200);
        let err = myproxy_logon(
            server.addr(),
            "alice",
            "wrong password",
            3600,
            TrustStore::new(),
            true,
            Clock::Fixed(NOW),
            512,
            &mut rng,
        )
        .unwrap_err();
        assert!(err.to_string().contains("pam_files"), "got: {err}");
        assert_eq!(server.refused.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert_eq!(server.issued.load(std::sync::atomic::Ordering::Relaxed), 0);
    }

    #[test]
    fn unknown_user_refused() {
        let server = start_server(3);
        let mut rng = seeded(300);
        let err = myproxy_logon(
            server.addr(),
            "mallory",
            "anything",
            3600,
            TrustStore::new(),
            true,
            Clock::Fixed(NOW),
            512,
            &mut rng,
        )
        .unwrap_err();
        assert!(matches!(err, MyProxyError::Server(_)));
    }

    #[test]
    fn non_bootstrap_requires_trust_roots() {
        let server = start_server(4);
        let mut rng = seeded(400);
        // Without bootstrap and without roots the server cert is rejected.
        let err = myproxy_logon(
            server.addr(),
            "alice",
            "correct horse",
            3600,
            TrustStore::new(),
            false,
            Clock::Fixed(NOW),
            512,
            &mut rng,
        )
        .unwrap_err();
        assert!(matches!(err, MyProxyError::Io(_)), "got: {err}");
        // With the CA root installed it works without bootstrap.
        let mut trust = TrustStore::new();
        trust.add_root(server.ca().root_cert());
        myproxy_logon(
            server.addr(),
            "alice",
            "correct horse",
            3600,
            trust,
            false,
            Clock::Fixed(NOW),
            512,
            &mut rng,
        )
        .unwrap();
    }

    #[test]
    fn lifetime_clamped_by_ca_policy() {
        let server = start_server(5);
        let mut rng = seeded(500);
        let out = myproxy_logon(
            server.addr(),
            "alice",
            "correct horse",
            u64::MAX / 4, // absurd request
            TrustStore::new(),
            true,
            Clock::Fixed(NOW),
            512,
            &mut rng,
        )
        .unwrap();
        assert_eq!(
            out.credential.remaining_lifetime(NOW),
            crate::ca::DEFAULT_MAX_LIFETIME
        );
    }
}
