//! Data-channel establishment: listeners, and the one [`DataStack`]
//! every data stream — server or client side — is assembled by.
//!
//! The GridFTP rule (§IIC): "the receiver [is] the listener and the
//! sender issue[s] the TCP connect". The connector therefore plays GSI
//! initiator and the listener GSI acceptor when DCAU is on.

use crate::error::{Result, ServerError};
use ig_gsi::context::GsiConfig;
use ig_gsi::ProtectionLevel;
use ig_pki::time::Clock;
use ig_pki::{Credential, DistinguishedName, TrustStore};
use ig_protocol::command::DcauMode;
use ig_protocol::HostPort;
use ig_obs::Obs;
use ig_xio::{
    secure_accept, secure_connect, ChaosHook, DataTransport, Link, ObsLink, TcpLink, Throttle,
    UdpConfig, UdpLink, UdpListener,
};
use rand::Rng;
use std::net::{Ipv4Addr, SocketAddr, TcpListener};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Security posture of a data channel, assembled per transfer from the
/// session state (DCAU mode, PROT level, DCSC override).
#[derive(Clone)]
pub struct DataSecurity {
    /// DCAU mode.
    pub dcau: DcauMode,
    /// `PROT` level for payload records.
    pub prot: ProtectionLevel,
    /// Credential to present (delegated proxy, DCSC credential, or the
    /// client's own credential).
    pub credential: Option<Credential>,
    /// Trust roots to validate the peer against (DCSC-augmented when a
    /// DCSC context is installed).
    pub trust: TrustStore,
    /// Clock for validity checks.
    pub clock: Clock,
}

impl DataSecurity {
    /// No authentication, no protection — `DCAU N` + `PROT C`.
    pub fn open() -> Self {
        DataSecurity {
            dcau: DcauMode::None,
            prot: ProtectionLevel::Clear,
            credential: None,
            trust: TrustStore::new(),
            clock: Clock::System,
        }
    }

    /// The identity the peer is expected to present: the base identity of
    /// the configured credential. With DCSC, both endpoints hold the same
    /// user credential, so this matches on both sides (§V).
    pub fn expected_identity(&self) -> Option<DistinguishedName> {
        match &self.dcau {
            DcauMode::None => None,
            DcauMode::Subject(s) => DistinguishedName::parse(s).ok(),
            DcauMode::Self_ => self.credential.as_ref().map(|c| c.identity().clone()),
        }
    }

    fn gsi_config(&self) -> Result<GsiConfig> {
        let credential = self.credential.clone().ok_or_else(|| {
            ServerError::Data("DCAU requested but no data-channel credential available".into())
        })?;
        Ok(GsiConfig {
            credential: Some(credential),
            trust: self.trust.clone(),
            require_peer_auth: true,
            clock: self.clock,
            insecure_skip_peer_validation: false,
        })
    }
}

fn check_peer<L: Link>(link: &ig_xio::SecureLink<L>, expected: &Option<DistinguishedName>) -> Result<()> {
    if let Some(expect) = expected {
        let peer = link
            .peer()
            .ok_or_else(|| ServerError::Data("peer did not authenticate".into()))?;
        if &peer.identity != expect {
            return Err(ServerError::Data(format!(
                "data channel peer {} does not match expected {}",
                peer.identity, expect
            )));
        }
    }
    Ok(())
}

/// Which end of the data connection this endpoint is (§IIC: the sender
/// connects and plays GSI initiator, the receiver listens and accepts).
enum Role {
    Connector,
    Listener,
}

/// How one endpoint builds its data streams. This is the only place that
/// knows the driver order — a transport with drivers pushed on top, as in
/// XIO (§II-A), always bottom to top:
///
/// transport → throttle → GSI handshake → I/O deadline → chaos → meter
///
/// Chaos sits above the handshake (faults hit post-handshake traffic; the
/// handshake itself runs clean) and below the meter, so recorded block
/// latencies include chaos-injected delays and the byte counters see only
/// frames that were actually delivered. Absent layers are skipped; the
/// order of the rest never changes, so [`ChaosHook`] link indices follow
/// stream-opening order.
pub struct DataStack {
    /// DCAU/`PROT` posture; `DCAU N` pushes no security driver.
    pub security: DataSecurity,
    /// Per-stripe NIC model in bytes/second.
    pub stripe_rate: Option<f64>,
    /// Deadline on every single read and write of the established stream:
    /// a peer that goes silent, or stops reading while it keeps the
    /// connection open, yields a typed timeout instead of a hang.
    pub deadline: Option<Duration>,
    /// Seeded fault injection.
    pub chaos: Option<Arc<ChaosHook>>,
    /// Hub and metric label for the per-block [`ObsLink`] meter.
    pub meter: Option<(Arc<Obs>, &'static str)>,
}

impl DataStack {
    /// Dial `target` over `transport` and push the drivers (we are the
    /// sender, the canonical case).
    pub fn connect<R: Rng + ?Sized>(
        &self,
        target: HostPort,
        transport: DataTransport,
        udp: &UdpConfig,
        rng: &mut R,
    ) -> Result<Box<dyn Link>> {
        let raw: Box<dyn Link> = match transport {
            DataTransport::Tcp => Box::new(
                TcpLink::connect(target.to_socket_addr())
                    .map_err(|e| ServerError::Data(format!("connect {target}: {e}")))?,
            ),
            DataTransport::Udp => Box::new(
                UdpLink::connect(target.to_socket_addr(), udp.clone())
                    .map_err(|e| ServerError::Data(format!("udp connect {target}: {e}")))?,
            ),
        };
        self.push_drivers(raw, Role::Connector, rng)
    }

    /// Push the drivers onto a connection a data listener accepted.
    pub fn accept<R: Rng + ?Sized>(
        &self,
        raw: Box<dyn Link>,
        rng: &mut R,
    ) -> Result<Box<dyn Link>> {
        self.push_drivers(raw, Role::Listener, rng)
    }

    fn push_drivers<R: Rng + ?Sized>(
        &self,
        raw: Box<dyn Link>,
        role: Role,
        rng: &mut R,
    ) -> Result<Box<dyn Link>> {
        let sec = &self.security;
        let mut stream: Box<dyn Link> = match self.stripe_rate {
            Some(bps) => Box::new(Throttle::new(raw, bps, (bps / 20.0).max(16.0 * 1024.0))),
            None => raw,
        };
        if sec.dcau != DcauMode::None {
            let cfg = sec.gsi_config()?;
            let mut secured = match role {
                Role::Connector => secure_connect(stream, cfg, sec.prot, rng),
                Role::Listener => secure_accept(stream, cfg, sec.prot, rng),
            }
            .map_err(|e| ServerError::Data(format!("data-channel handshake: {e}")))?;
            check_peer(&secured, &sec.expected_identity())?;
            secured.require_recv_level(sec.prot);
            stream = Box::new(secured);
        }
        if self.deadline.is_some() {
            let _ = stream.set_recv_timeout(self.deadline);
            let _ = stream.set_send_timeout(self.deadline);
        }
        if let Some(hook) = &self.chaos {
            stream = hook.wrap(stream);
        }
        if let Some((obs, label)) = &self.meter {
            stream = Box::new(ObsLink::new(stream, Arc::clone(obs), label));
        }
        Ok(stream)
    }
}

/// A passive-mode data listener. No accept thread: the socket is
/// nonblocking and whoever wants the next connection takes it on their own
/// thread — [`DataListener::accept`] sleeps in `poll(2)` until one is
/// queued, and a caller with more than the listener to wait for puts
/// [`AsRawFd::as_raw_fd`] into its own `poll` set. Dropping the listener
/// closes the port; there is nothing to stop. One listener per stripe.
pub struct DataListener {
    listener: TcpListener,
    addr: HostPort,
}

impl DataListener {
    /// Bind on `ip` with an OS-assigned port.
    pub fn bind(ip: Ipv4Addr) -> Result<Self> {
        let listener = TcpListener::bind((ip, 0))?;
        listener.set_nonblocking(true)?;
        let addr = HostPort::from_socket_addr(listener.local_addr()?)?;
        Ok(DataListener { listener, addr })
    }

    /// The advertised address (what `227`/`229` replies carry).
    pub fn addr(&self) -> HostPort {
        self.addr
    }

    /// Wait up to `timeout` for the next data connection.
    pub fn accept(&self, timeout: Duration) -> Result<TcpLink> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(conn) = self.try_accept()? {
                return Ok(conn);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || !ig_xio::wait_readable(&[self.listener.as_raw_fd()], left)? {
                return Err(ServerError::Data("timed out waiting for data connection".into()));
            }
        }
    }

    /// Take a queued connection without blocking; `None` when there is
    /// none (or the one there was reset before we got to it). Any other
    /// failure is returned: the socket would stay readable, and a caller
    /// that ignored it would spin. (Linux does not hand the listener's
    /// `O_NONBLOCK` down to the accepted socket.)
    pub fn try_accept(&self) -> Result<Option<TcpLink>> {
        use std::io::ErrorKind::{ConnectionAborted, Interrupted, WouldBlock};
        match self.listener.accept() {
            Ok((stream, _)) => Ok(Some(TcpLink::new(stream))),
            Err(e) if matches!(e.kind(), WouldBlock | Interrupted | ConnectionAborted) => Ok(None),
            Err(e) => Err(e.into()),
        }
    }
}

/// A data listener for either transport: TCP is a [`DataListener`]; UDP
/// listens on one well-known socket and hands each accepted connection
/// its own socket (see [`ig_xio::udp`]). Both advertise a [`HostPort`]
/// for `227`/`229` and expose their socket for a caller's `poll` set.
pub enum AnyDataListener {
    /// Stream-mode TCP.
    Tcp(DataListener),
    /// Reliable-UDP MODE E.
    Udp(UdpListener),
}

impl AnyDataListener {
    /// Bind on `ip` with an OS-assigned port for `transport`.
    pub fn bind(ip: Ipv4Addr, transport: DataTransport, udp: &UdpConfig) -> Result<Self> {
        match transport {
            DataTransport::Tcp => Ok(AnyDataListener::Tcp(DataListener::bind(ip)?)),
            DataTransport::Udp => {
                let l = UdpListener::bind(SocketAddr::from((ip, 0)), udp.clone())
                    .map_err(|e| ServerError::Data(format!("udp bind: {e}")))?;
                Ok(AnyDataListener::Udp(l))
            }
        }
    }

    /// The advertised address (what `227`/`229` replies carry).
    pub fn addr(&self) -> Result<HostPort> {
        match self {
            AnyDataListener::Tcp(l) => Ok(l.addr()),
            AnyDataListener::Udp(l) => {
                let sa = l
                    .local_addr()
                    .map_err(|e| ServerError::Data(format!("udp local_addr: {e}")))?;
                HostPort::from_socket_addr(sa).map_err(|e| ServerError::Data(e.to_string()))
            }
        }
    }

    /// Wait up to `timeout` for the next data connection.
    pub fn accept_link(&self, timeout: Duration) -> Result<Box<dyn Link>> {
        match self {
            AnyDataListener::Tcp(l) => Ok(Box::new(l.accept(timeout)?)),
            AnyDataListener::Udp(l) => l
                .accept(timeout)
                .map(|link| Box::new(link) as Box<dyn Link>)
                .map_err(|e| ServerError::Data(format!("udp accept: {e}"))),
        }
    }

    /// Try to get a connection without blocking (UDP reads its socket for
    /// up to ~1 ms, which is how a queued HELLO becomes a connection).
    pub fn try_accept_link(&self) -> Result<Option<Box<dyn Link>>> {
        match self {
            AnyDataListener::Tcp(l) => Ok(l.try_accept()?.map(|t| Box::new(t) as Box<dyn Link>)),
            AnyDataListener::Udp(l) => match l.accept(Duration::from_millis(1)) {
                Ok(link) => Ok(Some(Box::new(link))),
                Err(e) if e.kind() == std::io::ErrorKind::TimedOut => Ok(None),
                Err(e) => Err(ServerError::Data(format!("udp accept: {e}"))),
            },
        }
    }
}

impl AsRawFd for AnyDataListener {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            AnyDataListener::Tcp(l) => l.listener.as_raw_fd(),
            AnyDataListener::Udp(l) => l.as_raw_fd(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ig_crypto::rng::seeded;
    use ig_gsi::context::test_support::ca_and_credential;
    use ig_xio::{ChaosConfig, FaultKind, FaultSpec, Trigger};

    /// A stack with only the security layer configured.
    fn bare(security: DataSecurity) -> DataStack {
        DataStack { security, stripe_rate: None, deadline: None, chaos: None, meter: None }
    }

    #[test]
    fn listener_accepts_connections() {
        let l = DataListener::bind(Ipv4Addr::LOCALHOST).unwrap();
        let addr = l.addr();
        let t = std::thread::spawn(move || {
            let mut c = TcpLink::connect(addr.to_socket_addr()).unwrap();
            c.send(b"data hello").unwrap();
        });
        let mut conn = l.accept(Duration::from_secs(5)).unwrap();
        assert_eq!(conn.recv().unwrap(), b"data hello");
        t.join().unwrap();
        assert!(l.try_accept().unwrap().is_none());
        // No accept thread holds the socket: dropping the listener is all
        // it takes to close the port.
        drop(l);
        assert!(TcpLink::connect(addr.to_socket_addr()).is_err());
    }

    #[test]
    fn accept_times_out() {
        let l = DataListener::bind(Ipv4Addr::LOCALHOST).unwrap();
        assert!(l.accept(Duration::from_millis(50)).is_err());
    }

    #[test]
    fn dcau_none_passthrough() {
        let (a, mut b) = ig_xio::pipe();
        let mut rng = seeded(1);
        let mut wrapped = bare(DataSecurity::open()).accept(Box::new(a), &mut rng).unwrap();
        wrapped.send(b"raw").unwrap();
        assert_eq!(b.recv().unwrap(), b"raw");
    }

    #[test]
    fn dcau_self_mutual_handshake() {
        let mut rng = seeded(2);
        let (ca, user_cred) = ca_and_credential(&mut rng, "/O=CA", "/O=Grid/CN=alice");
        let mut trust = TrustStore::new();
        trust.add_root(ca.root_cert().clone());
        let sec = DataSecurity {
            dcau: DcauMode::Self_,
            prot: ProtectionLevel::Private,
            credential: Some(user_cred),
            trust,
            clock: Clock::Fixed(1000),
        };
        let (a, b) = ig_xio::pipe();
        let sec2 = sec.clone();
        let acceptor = std::thread::spawn(move || {
            let mut rng = seeded(3);
            let mut l = bare(sec2).accept(Box::new(b), &mut rng).unwrap();
            assert_eq!(l.recv().unwrap(), b"sealed payload");
            l.send(b"ack").unwrap();
        });
        let mut c = bare(sec).push_drivers(Box::new(a), Role::Connector, &mut rng).unwrap();
        c.send(b"sealed payload").unwrap();
        assert_eq!(c.recv().unwrap(), b"ack");
        acceptor.join().unwrap();
    }

    #[test]
    fn dcau_detects_identity_mismatch() {
        // Connector expects alice but acceptor presents mallory.
        let mut rng = seeded(4);
        let (ca, alice) = ca_and_credential(&mut rng, "/O=CA", "/O=Grid/CN=alice");
        let mut rng_m = seeded(5);
        let (_ca2, mallory) = {
            // mallory's cert signed by the SAME CA so the chain validates;
            // only the identity check should fire.
            let keys = ig_crypto::RsaKeyPair::generate(&mut rng_m, 512).unwrap();
            let mut ca_mut = ca;
            let cert = ca_mut
                .issue(
                    DistinguishedName::parse("/O=Grid/CN=mallory").unwrap(),
                    &keys.public,
                    ig_pki::cert::Validity::starting_at(0, u64::MAX / 4),
                    vec![],
                )
                .unwrap();
            (ca_mut, Credential::new(vec![cert], keys.private).unwrap())
        };
        let mut trust = TrustStore::new();
        trust.add_root(_ca2.root_cert().clone());
        let sec_client = DataSecurity {
            dcau: DcauMode::Self_,
            prot: ProtectionLevel::Clear,
            credential: Some(alice),
            trust: trust.clone(),
            clock: Clock::Fixed(1000),
        };
        let sec_server = DataSecurity {
            dcau: DcauMode::Self_,
            prot: ProtectionLevel::Clear,
            credential: Some(mallory),
            trust,
            clock: Clock::Fixed(1000),
        };
        let (a, b) = ig_xio::pipe();
        let t = std::thread::spawn(move || {
            let mut rng = seeded(6);
            bare(sec_server).accept(Box::new(b), &mut rng)
        });
        let mut rng2 = seeded(7);
        let client_res = bare(sec_client).push_drivers(Box::new(a), Role::Connector, &mut rng2);
        // Client expects alice on the far end but gets mallory.
        assert!(client_res.is_err());
        let _ = t.join().unwrap();
    }

    #[test]
    fn dcau_without_credential_errors() {
        let sec = DataSecurity { dcau: DcauMode::Self_, ..DataSecurity::open() };
        let (a, _b) = ig_xio::pipe();
        let mut rng = seeded(8);
        assert!(bare(sec).push_drivers(Box::new(a), Role::Connector, &mut rng).is_err());
    }

    #[test]
    fn full_stack_order_shows_in_its_effects() {
        // PROT P + a one-shot Reset after 64 sent bytes + a meter, over a
        // pipe. The order is asserted through what each layer observes.
        let mut rng = seeded(9);
        let (ca, cred) = ca_and_credential(&mut rng, "/O=CA", "/O=Grid/CN=alice");
        let mut trust = TrustStore::new();
        trust.add_root(ca.root_cert().clone());
        let security = DataSecurity {
            dcau: DcauMode::Self_,
            prot: ProtectionLevel::Private,
            credential: Some(cred),
            trust,
            clock: Clock::Fixed(1000),
        };
        let obs = Obs::new("data-stack-test");
        let spec = FaultSpec::send(FaultKind::Reset, Trigger::AfterBytes(64));
        let hook = ChaosHook::new(ChaosConfig::single(9, spec));
        hook.set_obs(&obs);
        let sender = DataStack {
            security: security.clone(),
            stripe_rate: Some(1e9),
            deadline: Some(Duration::from_secs(5)),
            chaos: Some(Arc::clone(&hook)),
            meter: Some((Arc::clone(&obs), "stack")),
        };
        let (a, b) = ig_xio::pipe();
        let receiver = std::thread::spawn(move || {
            let mut rng = seeded(10);
            let mut l = bare(security).accept(Box::new(b), &mut rng).unwrap();
            let first = l.recv().unwrap();
            (first, l.recv().is_err())
        });
        // Chaos is armed from the start, yet the multi-message handshake
        // (far more than 64 bytes) completes: it runs below the hook.
        let mut s = sender.push_drivers(Box::new(a), Role::Connector, &mut rng).unwrap();
        assert_eq!(hook.total_fires(), 0);
        // ...and above the meter, which has seen none of it.
        assert_eq!(obs.metrics().counter_value("stack.bytes_sent"), 0);
        s.send(&[7u8; 48]).unwrap();
        let err = s.send(&[8u8; 48]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionReset);
        assert_eq!(hook.total_fires(), 1);
        assert_eq!(obs.count_events("chaos.fault"), 1);
        // Chaos counted plaintext bytes (above the sealing layer: 48 + 48
        // crosses 64), and the meter, above chaos, counted only the frame
        // that was delivered.
        assert_eq!(obs.metrics().counter_value("stack.bytes_sent"), 48);
        let (first, closed) = receiver.join().unwrap();
        assert_eq!(first, vec![7u8; 48], "the delivered frame opened clean under PROT P");
        assert!(closed, "the reset tore the connection down under the receiver");
    }
}
