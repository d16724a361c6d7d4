//! The GSI handshake, as a GSSAPI-style token pump.
//!
//! Five tokens establish a mutually authenticated channel:
//!
//! ```text
//! initiator                                   acceptor
//!   | -- Hello {random, mutual} ----------------> |
//!   | <- ServerHello {random, chain} ------------ |  (initiator validates)
//!   | -- ClientAuth {chain, E(premaster), sig} -> |  (acceptor validates)
//!   | <- ServerFinished {mac} ------------------- |  (proves key possession)
//!   | -- ClientFinished {mac} ------------------> |
//! ```
//!
//! The pump shape matters: GridFTP carries these tokens in `ADAT` commands
//! on the control channel and raw (length-framed) on data channels, so the
//! state machines never touch a socket themselves.

use crate::context::{Established, GsiConfig, Role};
use crate::error::{GsiError, Result};
use crate::keys::{SessionKeys, PREMASTER_LEN};
use crate::messages::HandshakeMsg;
use ig_crypto::hmac::HmacSha256;
use ig_crypto::rng::random_array;
use ig_crypto::Sha256;
use ig_obs::json::{value_into, Json, Value};
use ig_pki::validate::ValidatedIdentity;
use ig_pki::Certificate;
use rand::Rng;

/// Result of feeding one token to a handshake state machine.
#[derive(Debug)]
pub enum Step {
    /// Send this token and expect more.
    Send(Vec<u8>),
    /// Send this token; the handshake is complete on this side.
    SendAndDone(Vec<u8>, Established),
    /// Handshake complete, nothing more to send.
    Done(Established),
}

/// Proof-of-possession signing payload: binds both nonces, the encrypted
/// premaster and the client chain to the client's signature.
fn pop_payload(
    client_random: &[u8],
    server_random: &[u8],
    encrypted_premaster: &[u8],
    chain: &[Certificate],
) -> Vec<u8> {
    let mut h = Sha256::new();
    h.update(b"ig-gsi-pop-v1");
    h.update(client_random);
    h.update(server_random);
    h.update(encrypted_premaster);
    let mut chain_json = String::new();
    value_into(&mut chain_json, &Value::Arr(chain.iter().map(Json::to_json).collect()));
    h.update(chain_json.as_bytes());
    h.finalize().to_vec()
}

fn finished_mac(keys: &SessionKeys, label: &[u8], transcript: &Sha256) -> Vec<u8> {
    let digest = transcript.clone().finalize();
    let mut mac = HmacSha256::new(&keys.finished_key);
    mac.update(label);
    mac.update(&digest);
    mac.finalize().to_vec()
}

// ---------------------------------------------------------------------------
// Initiator
// ---------------------------------------------------------------------------

enum InitState {
    AwaitServerHello,
    AwaitServerFinished { keys: SessionKeys, peer: ValidatedIdentity },
    Terminal,
}

/// Client side of the handshake.
pub struct Initiator {
    config: GsiConfig,
    state: InitState,
    transcript: Sha256,
    client_random: [u8; 32],
}

impl Initiator {
    /// Start a handshake; returns the machine and the first token.
    pub fn start<R: Rng + ?Sized>(config: GsiConfig, rng: &mut R) -> (Self, Vec<u8>) {
        let client_random: [u8; 32] = random_array(rng);
        let mutual = config.credential.is_some();
        let hello = HandshakeMsg::Hello { random: client_random.to_vec(), mutual };
        let token = hello.encode();
        let mut transcript = Sha256::new();
        transcript.update(&token);
        (
            Initiator { config, state: InitState::AwaitServerHello, transcript, client_random },
            token,
        )
    }

    /// Feed the next acceptor token.
    pub fn step<R: Rng + ?Sized>(&mut self, token: &[u8], rng: &mut R) -> Result<Step> {
        let t0 = std::time::Instant::now();
        let out = self.step_inner(token, rng);
        crate::obs_hooks::record_handshake_step("initiator", t0.elapsed());
        out
    }

    fn step_inner<R: Rng + ?Sized>(&mut self, token: &[u8], rng: &mut R) -> Result<Step> {
        let msg = HandshakeMsg::decode(token)?;
        match std::mem::replace(&mut self.state, InitState::Terminal) {
            InitState::AwaitServerHello => {
                let (server_random, chain) = match msg {
                    HandshakeMsg::ServerHello { random, chain } => (random, chain),
                    other => {
                        return Err(GsiError::UnexpectedMessage {
                            expected: "ServerHello",
                            got: other.name().into(),
                        })
                    }
                };
                self.transcript.update(token);
                // Authenticate the server (or TOFU-accept when
                // bootstrapping trust, as myproxy-logon -b does).
                let now = self.config.clock.now();
                let peer = if self.config.insecure_skip_peer_validation {
                    if chain.is_empty() {
                        return Err(GsiError::PeerAnonymous);
                    }
                    chain[0].check_validity(now)?;
                    ig_pki::validate::ValidatedIdentity {
                        subject: chain[0].subject().clone(),
                        identity: chain[0].subject().clone(),
                        anchor: chain[0].issuer().clone(),
                        online_ca_endpoint: chain[0].online_ca_endpoint().map(str::to_string),
                        not_after: chain[0].tbs.validity.not_after,
                    }
                } else {
                    ig_pki::validate_chain(&chain, &self.config.trust, now)?
                };
                let server_key = chain[0].public_key()?;
                // Key transport.
                let premaster: [u8; PREMASTER_LEN] = random_array(rng);
                let encrypted_premaster = server_key.encrypt(rng, &premaster)?;
                // Client auth (or anonymous).
                let (client_chain, signature) = match &self.config.credential {
                    Some(cred) => {
                        let chain = cred.chain().to_vec();
                        let payload = pop_payload(
                            &self.client_random,
                            &server_random,
                            &encrypted_premaster,
                            &chain,
                        );
                        (chain, Some(cred.key().sign(&payload)?))
                    }
                    None => (Vec::new(), None),
                };
                let auth = HandshakeMsg::ClientAuth {
                    chain: client_chain,
                    encrypted_premaster,
                    signature,
                };
                let auth_token = auth.encode();
                self.transcript.update(&auth_token);
                let keys = SessionKeys::derive(&self.client_random, &server_random, &premaster);
                self.state = InitState::AwaitServerFinished { keys, peer };
                Ok(Step::Send(auth_token))
            }
            InitState::AwaitServerFinished { keys, peer } => {
                let mac = match msg {
                    HandshakeMsg::ServerFinished { mac } => mac,
                    other => {
                        return Err(GsiError::UnexpectedMessage {
                            expected: "ServerFinished",
                            got: other.name().into(),
                        })
                    }
                };
                // Server's MAC covers the transcript up to ClientAuth.
                let expect = finished_mac(&keys, b"server-finished", &self.transcript);
                if !ig_crypto::ct::ct_eq(&expect, &mac) {
                    return Err(GsiError::TranscriptMismatch);
                }
                self.transcript.update(token);
                let fin_mac = finished_mac(&keys, b"client-finished", &self.transcript);
                let fin = HandshakeMsg::ClientFinished { mac: fin_mac };
                let fin_token = fin.encode();
                self.transcript.update(&fin_token);
                let established = Established {
                    role: Role::Initiator,
                    keys,
                    peer: Some(peer),
                };
                Ok(Step::SendAndDone(fin_token, established))
            }
            InitState::Terminal => Err(GsiError::UnexpectedMessage {
                expected: "(none — handshake finished or failed)",
                got: msg.name().into(),
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// Acceptor
// ---------------------------------------------------------------------------

enum AcceptState {
    AwaitHello,
    AwaitClientAuth { server_random: [u8; 32], client_random: Vec<u8>, mutual: bool },
    AwaitClientFinished { keys: SessionKeys, peer: Option<ValidatedIdentity> },
    Terminal,
}

/// Server side of the handshake.
pub struct Acceptor {
    config: GsiConfig,
    state: AcceptState,
    transcript: Sha256,
}

impl Acceptor {
    /// Create an acceptor. The acceptor *must* hold a credential.
    pub fn new(config: GsiConfig) -> Result<Self> {
        if config.credential.is_none() {
            return Err(GsiError::NoCredential("acceptor requires a credential".into()));
        }
        Ok(Acceptor { config, state: AcceptState::AwaitHello, transcript: Sha256::new() })
    }

    /// Feed the next initiator token.
    pub fn step<R: Rng + ?Sized>(&mut self, token: &[u8], rng: &mut R) -> Result<Step> {
        let t0 = std::time::Instant::now();
        let out = self.step_inner(token, rng);
        crate::obs_hooks::record_handshake_step("acceptor", t0.elapsed());
        out
    }

    fn step_inner<R: Rng + ?Sized>(&mut self, token: &[u8], rng: &mut R) -> Result<Step> {
        let msg = HandshakeMsg::decode(token)?;
        match std::mem::replace(&mut self.state, AcceptState::Terminal) {
            AcceptState::AwaitHello => {
                let (client_random, mutual) = match msg {
                    HandshakeMsg::Hello { random, mutual } => (random, mutual),
                    other => {
                        return Err(GsiError::UnexpectedMessage {
                            expected: "Hello",
                            got: other.name().into(),
                        })
                    }
                };
                if self.config.require_peer_auth && !mutual {
                    return Err(GsiError::PeerAnonymous);
                }
                self.transcript.update(token);
                let server_random: [u8; 32] = random_array(rng);
                let cred = self.config.credential.as_ref().expect("checked in new");
                let hello = HandshakeMsg::ServerHello {
                    random: server_random.to_vec(),
                    chain: cred.chain().to_vec(),
                };
                let hello_token = hello.encode();
                self.transcript.update(&hello_token);
                self.state =
                    AcceptState::AwaitClientAuth { server_random, client_random, mutual };
                Ok(Step::Send(hello_token))
            }
            AcceptState::AwaitClientAuth { server_random, client_random, mutual } => {
                let (chain, encrypted_premaster, signature) = match msg {
                    HandshakeMsg::ClientAuth { chain, encrypted_premaster, signature } => {
                        (chain, encrypted_premaster, signature)
                    }
                    other => {
                        return Err(GsiError::UnexpectedMessage {
                            expected: "ClientAuth",
                            got: other.name().into(),
                        })
                    }
                };
                self.transcript.update(token);
                let cred = self.config.credential.as_ref().expect("checked in new");
                let premaster = cred.key().decrypt(&encrypted_premaster)?;
                // Authenticate the client if it presented a chain.
                let peer = if chain.is_empty() {
                    if self.config.require_peer_auth || mutual {
                        return Err(GsiError::PeerAnonymous);
                    }
                    None
                } else {
                    let now = self.config.clock.now();
                    let id = ig_pki::validate_chain(&chain, &self.config.trust, now)?;
                    let payload =
                        pop_payload(&client_random, &server_random, &encrypted_premaster, &chain);
                    let sig = signature.ok_or(GsiError::PeerAnonymous)?;
                    chain[0]
                        .public_key()?
                        .verify(&payload, &sig)
                        .map_err(|_| GsiError::TranscriptMismatch)?;
                    Some(id)
                };
                let keys = SessionKeys::derive(&client_random, &server_random, &premaster);
                let mac = finished_mac(&keys, b"server-finished", &self.transcript);
                let fin = HandshakeMsg::ServerFinished { mac };
                let fin_token = fin.encode();
                self.transcript.update(&fin_token);
                self.state = AcceptState::AwaitClientFinished { keys, peer };
                Ok(Step::Send(fin_token))
            }
            AcceptState::AwaitClientFinished { keys, peer } => {
                let mac = match msg {
                    HandshakeMsg::ClientFinished { mac } => mac,
                    other => {
                        return Err(GsiError::UnexpectedMessage {
                            expected: "ClientFinished",
                            got: other.name().into(),
                        })
                    }
                };
                let expect = finished_mac(&keys, b"client-finished", &self.transcript);
                if !ig_crypto::ct::ct_eq(&expect, &mac) {
                    return Err(GsiError::TranscriptMismatch);
                }
                self.transcript.update(token);
                Ok(Step::Done(Established { role: Role::Acceptor, keys, peer }))
            }
            AcceptState::Terminal => Err(GsiError::UnexpectedMessage {
                expected: "(none — handshake finished or failed)",
                got: msg.name().into(),
            }),
        }
    }
}

/// Drive an initiator and acceptor to completion in memory (no sockets).
/// Used by tests and by in-process transfers in the simulator.
pub fn pump<R: Rng + ?Sized>(
    init_config: GsiConfig,
    accept_config: GsiConfig,
    rng: &mut R,
) -> Result<(Established, Established)> {
    let (mut init, mut token) = Initiator::start(init_config, rng);
    let mut acceptor = Acceptor::new(accept_config)?;
    let mut init_done = None;
    loop {
        // Token goes to the acceptor.
        match acceptor.step(&token, rng)? {
            Step::Send(t) => token = t,
            Step::Done(est) => {
                let init_est = init_done.ok_or(GsiError::TranscriptMismatch)?;
                return Ok((init_est, est));
            }
            Step::SendAndDone(_, _) => unreachable!("acceptor never finishes with a send"),
        }
        // Reply goes to the initiator.
        match init.step(&token, rng)? {
            Step::Send(t) => token = t,
            Step::SendAndDone(t, est) => {
                init_done = Some(est);
                token = t;
            }
            Step::Done(_) => unreachable!("initiator always sends ClientFinished"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::test_support::{ca_and_credential, config_with};
    use ig_crypto::rng::seeded;

    #[test]
    fn mutual_handshake_succeeds() {
        let mut rng = seeded(1);
        let (ca, server_cred) = ca_and_credential(&mut rng, "/O=CA", "/O=Site/CN=server");
        let (_, client_cred) = {
            // Client issued by the same CA for this test.
            let mut rng2 = seeded(2);
            ca_and_credential(&mut rng2, "/O=CA2", "/O=Grid/CN=alice")
        };
        // Build a shared trust store: both CAs trusted by both sides.
        let mut rng2 = seeded(2);
        let (ca2, _) = ca_and_credential(&mut rng2, "/O=CA2", "/O=Grid/CN=unused");
        let server_cfg = config_with(Some(server_cred), &[&ca, &ca2], true);
        let client_cfg = config_with(Some(client_cred), &[&ca, &ca2], true);
        let (ie, ae) = pump(client_cfg, server_cfg, &mut rng).unwrap();
        assert_eq!(ie.peer.as_ref().unwrap().identity.to_string(), "/O=Site/CN=server");
        assert_eq!(ae.peer.as_ref().unwrap().identity.to_string(), "/O=Grid/CN=alice");
    }

    #[test]
    fn anonymous_client_allowed_when_not_required() {
        let mut rng = seeded(3);
        let (ca, server_cred) = ca_and_credential(&mut rng, "/O=CA", "/CN=server");
        let server_cfg = config_with(Some(server_cred), &[&ca], false);
        let client_cfg = config_with(None, &[&ca], false);
        let (ie, ae) = pump(client_cfg, server_cfg, &mut rng).unwrap();
        assert!(ie.peer.is_some());
        assert!(ae.peer.is_none());
    }

    #[test]
    fn anonymous_client_rejected_when_required() {
        let mut rng = seeded(4);
        let (ca, server_cred) = ca_and_credential(&mut rng, "/O=CA", "/CN=server");
        let server_cfg = config_with(Some(server_cred), &[&ca], true);
        let client_cfg = config_with(None, &[&ca], false);
        let err = pump(client_cfg, server_cfg, &mut rng).unwrap_err();
        assert!(matches!(err, GsiError::PeerAnonymous));
    }

    #[test]
    fn client_rejects_untrusted_server() {
        // Fig 4's failure, on the handshake path: the client's trust store
        // does not contain the server's CA.
        let mut rng = seeded(5);
        let (_ca_a, server_cred) = ca_and_credential(&mut rng, "/O=CA-A", "/CN=server");
        let (ca_b, client_cred) = ca_and_credential(&mut rng, "/O=CA-B", "/CN=client");
        let server_cfg = config_with(Some(server_cred), &[&ca_b], false);
        let client_cfg = config_with(Some(client_cred), &[&ca_b], false); // trusts only CA-B
        let err = pump(client_cfg, server_cfg, &mut rng).unwrap_err();
        assert!(matches!(err, GsiError::PeerValidation(ig_pki::PkiError::UntrustedIssuer(_))));
    }

    #[test]
    fn server_rejects_untrusted_client() {
        let mut rng = seeded(6);
        let (ca_a, server_cred) = ca_and_credential(&mut rng, "/O=CA-A", "/CN=server");
        let (_ca_b, client_cred) = ca_and_credential(&mut rng, "/O=CA-B", "/CN=client");
        let server_cfg = config_with(Some(server_cred), &[&ca_a], true); // trusts only CA-A
        let client_cfg = config_with(Some(client_cred), &[&ca_a], false);
        let err = pump(client_cfg, server_cfg, &mut rng).unwrap_err();
        assert!(matches!(err, GsiError::PeerValidation(ig_pki::PkiError::UntrustedIssuer(_))));
    }

    #[test]
    fn acceptor_requires_credential() {
        let cfg = config_with(None, &[], false);
        assert!(matches!(Acceptor::new(cfg), Err(GsiError::NoCredential(_))));
    }

    #[test]
    fn out_of_order_token_rejected() {
        let mut rng = seeded(7);
        let (ca, server_cred) = ca_and_credential(&mut rng, "/O=CA", "/CN=server");
        let server_cfg = config_with(Some(server_cred), &[&ca], false);
        let mut acceptor = Acceptor::new(server_cfg).unwrap();
        let bogus = HandshakeMsg::ClientFinished { mac: vec![0; 32] }.encode();
        let err = acceptor.step(&bogus, &mut rng).unwrap_err();
        assert!(matches!(err, GsiError::UnexpectedMessage { expected: "Hello", .. }));
    }

    #[test]
    fn garbage_token_rejected() {
        let mut rng = seeded(8);
        let (ca, server_cred) = ca_and_credential(&mut rng, "/O=CA", "/CN=server");
        let mut acceptor = Acceptor::new(config_with(Some(server_cred), &[&ca], false)).unwrap();
        assert!(matches!(
            acceptor.step(b"junk", &mut rng),
            Err(GsiError::Decode(_))
        ));
    }

    #[test]
    fn expired_server_cert_rejected() {
        let mut rng = seeded(9);
        let (ca, server_cred) = ca_and_credential(&mut rng, "/O=CA", "/CN=server");
        let server_cfg = config_with(Some(server_cred), &[&ca], false);
        let mut client_cfg = config_with(None, &[&ca], false);
        // Jump the client clock past the credential lifetime.
        client_cfg.clock = ig_pki::time::Clock::Fixed(u64::MAX / 2);
        let err = pump(client_cfg, server_cfg, &mut rng).unwrap_err();
        assert!(matches!(err, GsiError::PeerValidation(ig_pki::PkiError::Expired { .. })));
    }
}
