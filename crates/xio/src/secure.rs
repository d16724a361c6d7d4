//! The GSI security context as an XIO driver.
//!
//! `secure_connect`/`secure_accept` run the handshake token pump over any
//! [`Link`] and return a [`SecureLink`] that seals every message at the
//! configured protection level. Pushing this driver onto a data channel
//! is what DCAU does; *which* credential/trust store it is configured
//! with is what DCSC changes (§V).

use crate::link::Link;
use ig_gsi::context::{Established, GsiConfig, SecureContext};
use ig_gsi::handshake::{Acceptor, Initiator, Step};
use ig_gsi::{GsiError, ProtectionLevel};
use rand::Rng;
use std::io;

fn gsi_io(e: GsiError) -> io::Error {
    match e {
        GsiError::Io(e) => e,
        other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
    }
}

/// A sealed link: every message is a GSI record.
///
/// Sealing and opening reuse two internal scratch buffers, so once a
/// transfer reaches steady state no per-message allocations happen in
/// this driver: outgoing records are sealed into `send_buf` (encrypting
/// in place for `Private`), incoming records are received into `recv_buf`
/// and decrypted in place there.
pub struct SecureLink<L: Link> {
    inner: L,
    ctx: SecureContext,
    /// Reused output buffer for sealed outgoing records.
    send_buf: Vec<u8>,
    /// Reused input buffer incoming records are opened inside.
    recv_buf: Vec<u8>,
    /// Protection applied to outgoing messages (`PROT` level).
    pub send_level: ProtectionLevel,
    /// Minimum protection accepted on incoming messages.
    pub min_recv_level: ProtectionLevel,
}

impl<L: Link> SecureLink<L> {
    fn from_established(inner: L, est: Established, level: ProtectionLevel) -> Self {
        SecureLink {
            inner,
            ctx: SecureContext::from_established(est),
            send_buf: Vec::new(),
            recv_buf: Vec::new(),
            send_level: level,
            min_recv_level: ProtectionLevel::Clear,
        }
    }

    /// The authenticated peer, if any.
    pub fn peer(&self) -> Option<&ig_pki::validate::ValidatedIdentity> {
        self.ctx.peer()
    }

    /// Change the outgoing protection level (the `PROT` command).
    pub fn set_level(&mut self, level: ProtectionLevel) {
        self.send_level = level;
    }

    /// Require a minimum level on received records.
    pub fn require_recv_level(&mut self, level: ProtectionLevel) {
        self.min_recv_level = level;
    }

    /// Access the security context (for delegation message exchanges).
    pub fn context_mut(&mut self) -> &mut SecureContext {
        &mut self.ctx
    }

    /// Unwrap into the raw link and context.
    pub fn into_parts(self) -> (L, SecureContext) {
        (self.inner, self.ctx)
    }
}

impl<L: Link> Link for SecureLink<L> {
    fn send(&mut self, data: &[u8]) -> io::Result<()> {
        self.ctx.seal_into(self.send_level, data, &mut self.send_buf);
        self.inner.send(&self.send_buf)
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        let mut buf = Vec::new();
        self.recv_into(&mut buf)?;
        Ok(buf)
    }

    fn close(&mut self) -> io::Result<()> {
        self.inner.close()
    }

    fn recv_into(&mut self, buf: &mut Vec<u8>) -> io::Result<usize> {
        self.inner.recv_into(&mut self.recv_buf)?;
        let payload = self
            .ctx
            .open_in_place_expecting(&mut self.recv_buf, self.min_recv_level)
            .map_err(gsi_io)?;
        buf.clear();
        buf.extend_from_slice(payload);
        Ok(buf.len())
    }

    fn send_vectored(&mut self, parts: &[io::IoSlice<'_>]) -> io::Result<()> {
        // The segments become one sealed record: gather them straight
        // into the seal buffer (no pre-concatenation), then hand the
        // contiguous record to the transport.
        self.ctx
            .seal_parts_into(self.send_level, parts.iter().map(|p| &p[..]), &mut self.send_buf);
        self.inner.send(&self.send_buf)
    }

    fn set_recv_timeout(&mut self, timeout: Option<std::time::Duration>) -> io::Result<()> {
        self.inner.set_recv_timeout(timeout)
    }

    fn set_send_timeout(&mut self, timeout: Option<std::time::Duration>) -> io::Result<()> {
        self.inner.set_send_timeout(timeout)
    }
}

/// Run the initiator handshake over `link`.
pub fn secure_connect<L: Link, R: Rng + ?Sized>(
    mut link: L,
    config: GsiConfig,
    level: ProtectionLevel,
    rng: &mut R,
) -> io::Result<SecureLink<L>> {
    let (mut init, token) = Initiator::start(config, rng);
    link.send(&token)?;
    loop {
        let token = link.recv()?;
        match init.step(&token, rng).map_err(gsi_io)? {
            Step::Send(t) => link.send(&t)?,
            Step::SendAndDone(t, est) => {
                link.send(&t)?;
                return Ok(SecureLink::from_established(link, est, level));
            }
            Step::Done(est) => return Ok(SecureLink::from_established(link, est, level)),
        }
    }
}

/// Run the acceptor handshake over `link`.
pub fn secure_accept<L: Link, R: Rng + ?Sized>(
    mut link: L,
    config: GsiConfig,
    level: ProtectionLevel,
    rng: &mut R,
) -> io::Result<SecureLink<L>> {
    let mut acceptor = Acceptor::new(config).map_err(gsi_io)?;
    loop {
        let token = link.recv()?;
        match acceptor.step(&token, rng).map_err(gsi_io)? {
            Step::Send(t) => link.send(&t)?,
            Step::SendAndDone(t, est) => {
                link.send(&t)?;
                return Ok(SecureLink::from_established(link, est, level));
            }
            Step::Done(est) => return Ok(SecureLink::from_established(link, est, level)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::pipe;
    use ig_crypto::rng::seeded;
    use ig_gsi::context::test_support::{ca_and_credential, config_with};

    fn secure_pair(
        level: ProtectionLevel,
    ) -> (SecureLink<crate::link::PipeLink>, SecureLink<crate::link::PipeLink>) {
        let mut rng = seeded(99);
        let (ca, server_cred) = ca_and_credential(&mut rng, "/O=CA", "/CN=server");
        let (ca2, client_cred) = ca_and_credential(&mut rng, "/O=CA2", "/CN=client");
        let server_cfg = config_with(Some(server_cred), &[&ca, &ca2], true);
        let client_cfg = config_with(Some(client_cred), &[&ca, &ca2], true);
        let (a, b) = pipe();
        let server = std::thread::spawn(move || {
            let mut rng = seeded(100);
            secure_accept(b, server_cfg, level, &mut rng).unwrap()
        });
        let mut rng2 = seeded(101);
        let client = secure_connect(a, client_cfg, level, &mut rng2).unwrap();
        (client, server.join().unwrap())
    }

    #[test]
    fn secure_pipe_roundtrip_all_levels() {
        for level in [ProtectionLevel::Clear, ProtectionLevel::Safe, ProtectionLevel::Private] {
            let (mut c, mut s) = secure_pair(level);
            c.send(b"up").unwrap();
            assert_eq!(s.recv().unwrap(), b"up");
            s.send(b"down").unwrap();
            assert_eq!(c.recv().unwrap(), b"down");
            assert_eq!(c.peer().unwrap().identity.to_string(), "/CN=server");
            assert_eq!(s.peer().unwrap().identity.to_string(), "/CN=client");
        }
    }

    #[test]
    fn vectored_send_and_recv_into_sealed() {
        for level in [ProtectionLevel::Clear, ProtectionLevel::Safe, ProtectionLevel::Private] {
            let (mut c, mut s) = secure_pair(level);
            c.send_vectored(&[io::IoSlice::new(b"hdr"), io::IoSlice::new(b"-payload")])
                .unwrap();
            let mut buf = Vec::new();
            assert_eq!(s.recv_into(&mut buf).unwrap(), 11);
            assert_eq!(&buf, b"hdr-payload");
            // Reuse of the sealed-send scratch buffer: a plain send after
            // a vectored one still produces a valid record.
            c.send(b"plain after vectored").unwrap();
            assert_eq!(s.recv().unwrap(), b"plain after vectored");
        }
    }

    #[test]
    fn recv_level_floor_enforced() {
        let (mut c, mut s) = secure_pair(ProtectionLevel::Clear);
        s.require_recv_level(ProtectionLevel::Private);
        c.send(b"too weak").unwrap();
        assert!(s.recv().is_err());
    }

    #[test]
    fn level_switch_midstream() {
        let (mut c, mut s) = secure_pair(ProtectionLevel::Clear);
        c.send(b"clear msg").unwrap();
        assert_eq!(s.recv().unwrap(), b"clear msg");
        c.set_level(ProtectionLevel::Private);
        c.send(b"private msg").unwrap();
        assert_eq!(s.recv().unwrap(), b"private msg");
    }

    #[test]
    fn untrusted_peer_fails_connect() {
        let mut rng = seeded(102);
        let (_ca, server_cred) = ca_and_credential(&mut rng, "/O=CA", "/CN=server");
        let (ca2, client_cred) = ca_and_credential(&mut rng, "/O=CA2", "/CN=client");
        // Client trusts only CA2; server cert is from CA.
        let server_cfg = config_with(Some(server_cred), &[&ca2], false);
        let client_cfg = config_with(Some(client_cred), &[&ca2], false);
        let (a, b) = pipe();
        let server = std::thread::spawn(move || {
            let mut rng = seeded(103);
            secure_accept(b, server_cfg, ProtectionLevel::Clear, &mut rng)
        });
        let mut rng2 = seeded(104);
        let res = secure_connect(a, client_cfg, ProtectionLevel::Clear, &mut rng2);
        assert!(res.is_err());
        // Server side errors too (pipe drops).
        assert!(server.join().unwrap().is_err());
    }

    #[test]
    fn stacks_compose_secure_over_meter() {
        use crate::obs::ObsLink;
        let mut rng = seeded(105);
        let (ca, server_cred) = ca_and_credential(&mut rng, "/O=CA", "/CN=server");
        let server_cfg = config_with(Some(server_cred), &[&ca], false);
        let client_cfg = config_with(None, &[&ca], false);
        let (a, b) = pipe();
        let obs = ig_obs::Obs::new("secure-test");
        let counted = ObsLink::new(a, std::sync::Arc::clone(&obs), "wire");
        let server = std::thread::spawn(move || {
            let mut rng = seeded(106);
            let mut s = secure_accept(b, server_cfg, ProtectionLevel::Private, &mut rng).unwrap();
            let m = s.recv().unwrap();
            assert_eq!(m, b"counted and sealed");
        });
        let mut rng2 = seeded(107);
        let mut c = secure_connect(counted, client_cfg, ProtectionLevel::Private, &mut rng2).unwrap();
        c.send(b"counted and sealed").unwrap();
        server.join().unwrap();
        // The meter saw the handshake + the sealed record (> plaintext).
        assert!(obs.metrics().counter_value("wire.bytes_sent") > 18);
        assert!(obs.metrics().histogram("wire.send_ns").count() >= 3);
    }
}
