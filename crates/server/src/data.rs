//! Data-channel establishment and keeping: listeners, the one
//! [`DataStack`] every data stream — server or client side — is assembled
//! by, and the one [`CachedChannels`] entry in which an endpoint keeps a
//! finished transfer's streams for the next one.
//!
//! The GridFTP rule (§IIC): "the receiver [is] the listener and the
//! sender issue[s] the TCP connect". The connector therefore plays GSI
//! initiator and the listener GSI acceptor when DCAU is on.
//!
//! In MODE E an EOD ends a *transfer* on a channel; closing the channel is
//! a separate act. So the authenticated connections of a transfer that
//! completed outlive it, and the session's next `RETR`/`STOR` is sent on
//! them again with no connect and no DCAU handshake of its own — provided
//! it would have built exactly the same streams ([`CachedChannels::rearm`]).

use crate::dtp::{close_streams, Streams};
use crate::error::{Result, ServerError};
use ig_gsi::context::GsiConfig;
use ig_gsi::ProtectionLevel;
use ig_pki::time::Clock;
use ig_pki::validate::earliest_not_after;
use ig_pki::{Credential, DistinguishedName, TrustStore};
use ig_protocol::command::{DcauMode, ModeCode};
use ig_protocol::HostPort;
use ig_obs::Obs;
use ig_xio::{secure_accept, secure_connect, ChaosHook, Link, ObsLink, TcpLink, Throttle};
use rand::Rng;
use std::net::{Ipv4Addr, TcpListener};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Security posture of a data channel, assembled per transfer from the
/// session state (DCAU mode, PROT level, DCSC override).
#[derive(Clone, PartialEq)]
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
    /// Until when this stack's streams may be used
    /// ([`DataStack::not_after`]); starts as "forever".
    pub expiry: ChainExpiry,
}

/// The earliest `not_after` over the certificate chains presented, by
/// either end, on one [`DataStack`]'s streams: those it built, and those
/// it took over from the stack that built them ([`CachedChannels::rearm`]).
/// A stack is assembled per transfer, so this is the instant at which that
/// transfer's channels stop being ones a fresh handshake would grant.
pub struct ChainExpiry(AtomicU64);

impl Default for ChainExpiry {
    fn default() -> Self {
        ChainExpiry(AtomicU64::new(u64::MAX))
    }
}

impl DataStack {
    /// The first instant at which a chain presented on one of this
    /// stack's streams is no longer valid (`u64::MAX` while it has none,
    /// or none that authenticated).
    pub fn not_after(&self) -> u64 {
        self.expiry.0.load(Ordering::Relaxed)
    }

    /// Would `other` build the same streams? Everything a stream is
    /// assembled from takes part: the whole security posture (credential
    /// and trust roots included, so a `DCSC P` or `DCSC D` in between is a
    /// difference), the stripe rate, the I/O deadline, and which chaos hook
    /// and meter it is threaded through.
    pub fn builds_like(&self, other: &DataStack) -> bool {
        // Hooks and hubs are compared by identity: the same object, not
        // an equal one.
        let chaos = |s: &DataStack| s.chaos.as_ref().map(Arc::as_ptr);
        let meter = |s: &DataStack| s.meter.as_ref().map(|(hub, label)| (Arc::as_ptr(hub), *label));
        self.security == other.security
            && self.stripe_rate == other.stripe_rate
            && self.deadline == other.deadline
            && chaos(self) == chaos(other)
            && meter(self) == meter(other)
    }

    /// Dial `target` and push the drivers (we are the sender, the
    /// canonical case).
    pub fn connect<R: Rng + ?Sized>(&self, target: HostPort, rng: &mut R) -> Result<Box<dyn Link>> {
        let raw = TcpLink::connect(target.to_socket_addr())
            .map_err(|e| ServerError::Data(format!("connect {target}: {e}")))?;
        self.push_drivers(Box::new(raw), Role::Connector, rng)
    }

    /// Push the drivers onto a connection a data listener accepted.
    pub fn accept<R: Rng + ?Sized>(
        &self,
        raw: impl Link + 'static,
        rng: &mut R,
    ) -> Result<Box<dyn Link>> {
        self.push_drivers(Box::new(raw), Role::Listener, rng)
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
            let ours = earliest_not_after(sec.credential.iter().flat_map(|c| c.chain()));
            let theirs = secured.peer().map_or(u64::MAX, |p| p.not_after);
            self.expiry.0.fetch_min(ours.min(theirs), Ordering::Relaxed);
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
            obs.metrics().add(&format!("{label}.channels_opened"), 1);
            stream = Box::new(ObsLink::new(stream, Arc::clone(obs), label));
        }
        Ok(stream)
    }
}

/// Which way payload moves on a channel, seen from the endpoint holding it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// This endpoint sends (and, by §IIC, dialled).
    Send,
    /// This endpoint receives (and listened).
    Receive,
}

/// What a transfer's set of channels was opened as — the part of a
/// [`CachedChannels`] key that is not in the [`DataStack`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelShape {
    /// Direction of the payload.
    pub flow: Flow,
    /// The session's `MODE`.
    pub mode: ModeCode,
    /// Streams per listener/target the session asks for.
    pub parallelism: usize,
}

impl ChannelShape {
    /// Can channels of this shape outlive a transfer? Not in MODE S, where
    /// closing the connection *is* the end of file.
    fn keepable(&self) -> bool {
        self.mode == ModeCode::Extended
    }
}

/// The data channels a session keeps between transfers: the streams of
/// the last transfer that completed, in opening order, with the key they
/// were built under. A session has at most one (`Option<CachedChannels>`),
/// on the server and on the client alike.
pub struct CachedChannels {
    links: Streams,
    shape: ChannelShape,
    stack: DataStack,
}

impl CachedChannels {
    /// Keep `links` after a transfer that completed on them: `shape` and
    /// `stack` are what that transfer built (or re-armed) them under, the
    /// stack's [`DataStack::not_after`] their expiry. A shape that cannot
    /// be kept closes them instead — the close after EOD of a MODE S
    /// transfer.
    pub fn keep(links: Streams, shape: ChannelShape, stack: DataStack) -> Option<CachedChannels> {
        let entry = CachedChannels { links, shape, stack };
        if entry.shape.keepable() {
            Some(entry)
        } else {
            entry.close();
            None
        }
    }

    /// Take the entry out of `slot` for a transfer of `shape` whose streams
    /// `stack` would build, at instant `now`: its links, if a fresh set of
    /// channels would be indistinguishable from them — same shape, same
    /// stack ([`DataStack::builds_like`]) and every presented chain still
    /// valid — with `stack` taking over their expiry; otherwise nothing,
    /// the links closed. Either way the slot is empty afterwards. The only
    /// way links leave an entry to be used again.
    pub fn rearm(
        slot: &mut Option<CachedChannels>,
        shape: &ChannelShape,
        stack: &DataStack,
        now: u64,
    ) -> Option<Streams> {
        let entry = slot.take()?;
        let not_after = entry.stack.not_after();
        if entry.shape == *shape && entry.stack.builds_like(stack) && now < not_after {
            stack.expiry.0.fetch_min(not_after, Ordering::Relaxed);
            Some(entry.links)
        } else {
            entry.close();
            None
        }
    }

    /// Close every kept stream.
    pub fn close(self) {
        close_streams(self.links);
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

impl AsRawFd for DataListener {
    fn as_raw_fd(&self) -> RawFd {
        self.listener.as_raw_fd()
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
        DataStack {
            security,
            stripe_rate: None,
            deadline: None,
            chaos: None,
            meter: None,
            expiry: ChainExpiry::default(),
        }
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

    fn shape(flow: Flow) -> ChannelShape {
        ChannelShape {
            flow,
            mode: ModeCode::Extended,
            parallelism: 1,
        }
    }

    /// An entry over one pipe, expiring at 2000, and the pipe's far end.
    fn kept(stack: DataStack) -> (Option<CachedChannels>, ig_xio::PipeLink) {
        let (a, b) = ig_xio::pipe();
        stack.expiry.0.store(2000, Ordering::Relaxed);
        (CachedChannels::keep(vec![Box::new(a)], shape(Flow::Send), stack), b)
    }

    #[test]
    fn rearm_hands_back_exactly_what_a_fresh_open_would_build() {
        let mut rng = seeded(20);
        let (ca, cred) = ca_and_credential(&mut rng, "/O=CA", "/O=Grid/CN=alice");
        let (_, other_cred) = ca_and_credential(&mut rng, "/O=CA", "/O=Grid/CN=alice");
        let mut trust = TrustStore::new();
        trust.add_root(ca.root_cert().clone());
        let secure = |credential: &Credential, trust: &TrustStore, prot| DataSecurity {
            dcau: DcauMode::Self_,
            prot,
            credential: Some(credential.clone()),
            trust: trust.clone(),
            clock: Clock::Fixed(1000),
        };
        let base = || bare(secure(&cred, &trust, ProtectionLevel::Clear));

        // Same shape, same stack, chains still valid: the links come back,
        // the new stack inherits their expiry, and the slot is left empty.
        let (mut slot, mut far) = kept(base());
        let next = base();
        let mut links =
            CachedChannels::rearm(&mut slot, &shape(Flow::Send), &next, 1999).expect("a match");
        assert!(slot.is_none());
        assert_eq!(next.not_after(), 2000);
        links[0].send(b"again").unwrap();
        assert_eq!(far.recv().unwrap(), b"again");

        // Everything else closes the links (the far end reads EOF) and
        // yields nothing. The clock: valid means `now < not_after`.
        let mut extra_root = trust.clone();
        extra_root.add_root(other_cred.leaf().clone());
        let hook = ChaosHook::new(ChaosConfig { seed: 1, faults: Vec::new() });
        let misses: Vec<(&str, ChannelShape, DataStack, u64)> = vec![
            ("expired", shape(Flow::Send), base(), 2000),
            ("long expired", shape(Flow::Send), base(), u64::MAX),
            ("direction", shape(Flow::Receive), base(), 1000),
            ("mode", ChannelShape { mode: ModeCode::Stream, ..shape(Flow::Send) }, base(), 1000),
            ("parallelism", ChannelShape { parallelism: 2, ..shape(Flow::Send) }, base(), 1000),
            ("PROT", shape(Flow::Send), bare(secure(&cred, &trust, ProtectionLevel::Private)), 1000),
            ("DCAU", shape(Flow::Send), bare(DataSecurity::open()), 1000),
            ("credential", shape(Flow::Send), bare(secure(&other_cred, &trust, ProtectionLevel::Clear)), 1000),
            ("trust", shape(Flow::Send), bare(secure(&cred, &extra_root, ProtectionLevel::Clear)), 1000),
            ("stripe rate", shape(Flow::Send), DataStack { stripe_rate: Some(1e6), ..base() }, 1000),
            ("deadline", shape(Flow::Send), DataStack { deadline: Some(Duration::from_secs(1)), ..base() }, 1000),
            ("chaos hook", shape(Flow::Send), DataStack { chaos: Some(hook), ..base() }, 1000),
        ];
        for (what, shape, stack, now) in misses {
            let (mut slot, mut far) = kept(base());
            assert!(CachedChannels::rearm(&mut slot, &shape, &stack, now).is_none(), "{what}");
            assert!(slot.is_none(), "{what}: a miss empties the slot too");
            assert!(far.recv().is_err(), "{what}: the kept link must have been closed");
        }
        assert!(CachedChannels::rearm(&mut None, &shape(Flow::Send), &base(), 0).is_none());
    }

    #[test]
    fn channels_that_cannot_be_kept_are_closed_not_cached() {
        let unkeepable = ChannelShape { mode: ModeCode::Stream, ..shape(Flow::Send) };
        let (a, mut far) = ig_xio::pipe();
        let entry = CachedChannels::keep(vec![Box::new(a)], unkeepable, bare(DataSecurity::open()));
        assert!(entry.is_none(), "{unkeepable:?}");
        assert!(far.recv().is_err(), "{unkeepable:?}: close after EOD survives here");
    }

    #[test]
    fn a_stack_remembers_the_earliest_expiry_it_authenticated() {
        // The root is good until 9000, alice's certificate until 5000: the
        // handshake at t=1000 sees chains that stop validating at 5000.
        let mut rng = seeded(21);
        let mut ca = ig_pki::CertificateAuthority::create(
            &mut rng,
            DistinguishedName::parse("/O=CA").unwrap(),
            512,
            0,
            9000,
        )
        .unwrap();
        let keys = ig_crypto::RsaKeyPair::generate(&mut rng, 512).unwrap();
        let cert = ca
            .issue(
                DistinguishedName::parse("/O=Grid/CN=alice").unwrap(),
                &keys.public,
                ig_pki::cert::Validity::starting_at(0, 5000),
                vec![],
            )
            .unwrap();
        let mut trust = TrustStore::new();
        trust.add_root(ca.root_cert().clone());
        let sec = DataSecurity {
            dcau: DcauMode::Self_,
            prot: ProtectionLevel::Clear,
            credential: Some(Credential::new(vec![cert], keys.private).unwrap()),
            trust,
            clock: Clock::Fixed(1000),
        };
        let (a, b) = ig_xio::pipe();
        let sec2 = sec.clone();
        let acceptor = std::thread::spawn(move || {
            let stack = bare(sec2);
            stack.accept(Box::new(b), &mut seeded(22)).unwrap();
            stack.not_after()
        });
        let stack = bare(sec);
        assert_eq!(stack.not_after(), u64::MAX, "nothing built yet");
        stack.push_drivers(Box::new(a), Role::Connector, &mut rng).unwrap();
        assert_eq!(stack.not_after(), 5000);
        assert_eq!(acceptor.join().unwrap(), 5000);
        // No handshake, no expiry.
        let open = bare(DataSecurity::open());
        open.accept(Box::new(ig_xio::pipe().0), &mut rng).unwrap();
        assert_eq!(open.not_after(), u64::MAX);
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
            expiry: ChainExpiry::default(),
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
