//! Data-channel caching fails closed.
//!
//! A session's authenticated MODE E connections outlive a transfer that
//! completed and carry the next one (DESIGN §8, "Data-channel lifecycle").
//! These tests hold both endpoints to the other half of that sentence: a
//! kept channel is used again only by the session that authenticated it,
//! for a transfer that would have built exactly the same streams, before
//! any chain presented on it expires — and in every other case the next
//! transfer opens a fresh, fully authenticated channel or answers the
//! `425` it always answered. Each endpoint has a private `Obs` hub;
//! `server.dtp.channels_opened` / `channels_reused` are the witnesses.

use ig_client::{transfer, ClientConfig, ClientError, ClientSession, RetryPolicy, TransferOpts};
use ig_gsi::ProtectionLevel;
use ig_obs::Value;
use ig_pki::cert::Validity;
use ig_pki::proxy::{self, ProxyOptions};
use ig_pki::time::Clock;
use ig_pki::{CertificateAuthority, Credential, DistinguishedName, Gridmap, TrustStore};
use ig_protocol::command::{Command, DcauMode};
use ig_protocol::mode_e::Block;
use ig_protocol::{HostPort, Reply};
use ig_server::dsi::{read_all, DirEntry};
use ig_server::{
    Dsi, GridFtpServer, GridmapAuthz, MemDsi, ServerConfig, ServerError, UserContext,
};
use ig_xio::test_support::eventually;
use ig_xio::{ChaosConfig, ChaosHook, FaultKind, FaultSpec, Link, TcpLink, Trigger};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

const NOW: u64 = 1_000_000;
const SMALL: usize = 4 * 1024;

type ServerResult<T> = Result<T, ServerError>;

fn dn(s: &str) -> DistinguishedName {
    DistinguishedName::parse(s).unwrap()
}

fn pattern(len: usize, salt: u32) -> Vec<u8> {
    (0..len as u32).map(|i| ((i ^ salt) * 13 % 251) as u8).collect()
}

/// The descriptor census (`quit_and_drop_close_kept_channels`) counts
/// `/proc/self/fd`, which every test in this binary shares: it runs alone,
/// the others alongside each other. A `World` holds its turn, last field,
/// so the turn ends after the server has gone.
static CENSUS: RwLock<()> = RwLock::new(());

#[allow(dead_code)] // held, never read
enum Turn {
    Shared(RwLockReadGuard<'static, ()>),
    Alone(RwLockWriteGuard<'static, ()>),
}

/// One CA, one server under it with a private hub, and alice.
struct World {
    server: Arc<GridFtpServer>,
    dsi: Arc<MemDsi>,
    obs: Arc<ig_obs::Obs>,
    trust: TrustStore,
    alice: Credential,
    _turn: Turn,
}

impl World {
    fn new(seed: u64, clock: Clock, tune: impl FnOnce(ServerConfig) -> ServerConfig) -> World {
        World::taking(Turn::Shared(CENSUS.read().unwrap_or_else(|e| e.into_inner())), seed, clock, tune)
    }

    fn taking(
        turn: Turn,
        seed: u64,
        clock: Clock,
        tune: impl FnOnce(ServerConfig) -> ServerConfig,
    ) -> World {
        let mut rng = ig_crypto::rng::seeded(seed);
        let mut ca =
            CertificateAuthority::create(&mut rng, dn("/O=Cache CA"), 512, 0, u64::MAX / 4).unwrap();
        let mut issue = |subject: &str| {
            let keys = ig_crypto::RsaKeyPair::generate(&mut rng, 512).unwrap();
            let validity = Validity::starting_at(0, u64::MAX / 4);
            let cert = ca.issue(dn(subject), &keys.public, validity, vec![]).unwrap();
            Credential::new(vec![cert], keys.private).unwrap()
        };
        let host = issue("/CN=cache.example.org");
        let alice = issue("/O=Grid/CN=Alice Smith");
        let mut trust = TrustStore::new();
        trust.add_root(ca.root_cert().clone());
        let mut gridmap = Gridmap::new();
        gridmap.add(&dn("/O=Grid/CN=Alice Smith"), "alice");
        let dsi = Arc::new(MemDsi::new());
        for i in 0..4 {
            dsi.put(&format!("/home/alice/f{i}"), &pattern(SMALL, i));
        }
        let obs = ig_obs::Obs::new("cache-server");
        let cfg = ServerConfig::new(
            "cache.example.org",
            host,
            trust.clone(),
            Arc::new(GridmapAuthz::new(gridmap)),
            Arc::clone(&dsi) as Arc<dyn Dsi>,
        )
        .with_clock(clock)
        .with_obs(Arc::clone(&obs));
        let server = GridFtpServer::start(tune(cfg), seed).unwrap();
        World { server, dsi, obs, trust, alice, _turn: turn }
    }

    fn fixed(seed: u64) -> World {
        World::new(seed, Clock::Fixed(NOW), |c| c)
    }

    /// A logged-in session presenting `credential`, on its own hub.
    fn session_as(&self, credential: Credential, clock: Clock) -> ClientSession {
        let cfg = ClientConfig::new(credential, self.trust.clone())
            .with_clock(clock)
            .with_seed(77)
            .with_retry(RetryPolicy::once().with_attempt_timeout(Some(Duration::from_secs(10))))
            .with_obs(ig_obs::Obs::new("cache-client"));
        let mut session = ClientSession::connect(self.server.addr(), cfg).unwrap();
        session.login().unwrap();
        session
    }

    fn session(&self) -> ClientSession {
        self.session_as(self.alice.clone(), Clock::Fixed(NOW))
    }

    /// `(channels_opened, channels_reused)` on the server's hub.
    fn channels(&self) -> (u64, u64) {
        let m = self.obs.metrics();
        (
            m.counter_value("server.dtp.channels_opened"),
            m.counter_value("server.dtp.channels_reused"),
        )
    }

    fn stored(&self, path: &str) -> Vec<u8> {
        read_all(self.dsi.as_ref(), &UserContext::user("alice"), path, 1 << 16).unwrap()
    }
}

fn opts() -> TransferOpts {
    TransferOpts::default().timeout(Some(Duration::from_secs(10)))
}

fn get(session: &mut ClientSession, i: u32, opts: &TransferOpts) {
    let got = transfer::get_bytes(session, &format!("/home/alice/f{i}"), opts).unwrap();
    assert_eq!(got, pattern(SMALL, i), "GET f{i}");
}

/// The final reply to `cmd`, sent as is — with no `PORT`/`PASV` before it.
fn bare(session: &mut ClientSession, cmd: Command) -> Reply {
    session.command_with(&cmd, |_| {}).unwrap()
}

fn bare_retr(session: &mut ClientSession) -> Reply {
    bare(session, Command::Retr("/home/alice/f0".into()))
}

fn assert_no_channel(reply: &Reply) {
    assert_eq!(reply.code, 425, "{reply}");
    assert!(reply.text().contains("no data channel established"), "{reply}");
}

#[test]
fn one_channel_per_direction_carries_every_transfer() {
    let world = World::fixed(0xC0);
    let mut session = world.session();
    for i in 0..3 {
        get(&mut session, i, &opts());
    }
    assert_eq!(world.channels(), (1, 2), "three GETs: one channel, re-armed twice");
    for i in 0..3 {
        let data = pattern(SMALL + i, 40 + i as u32);
        let path = format!("/home/alice/put-{i}");
        assert_eq!(transfer::put_bytes(&mut session, &path, &data, &opts()).unwrap(), data.len() as u64);
        assert_eq!(world.stored(&path), data, "PUT {i}");
    }
    assert_eq!(world.channels(), (2, 4), "one channel per direction, four re-arms");
    session.quit().unwrap();
}

#[test]
fn a_pipelined_fetch_rides_one_channel_and_leaves_it_for_the_next_call() {
    let world = World::fixed(0xCE);
    let mut session = world.session();
    let paths: Vec<String> = (0..10).map(|i| format!("/home/alice/f{}", i % 4)).collect();
    let refs: Vec<&str> = paths.iter().map(String::as_str).collect();
    for (call, channels) in [(1, (1, 9)), (2, (1, 19))] {
        let got = transfer::get_files_pipelined(&mut session, &refs, 4, &opts()).unwrap();
        for (i, data) in got.iter().enumerate() {
            assert_eq!(data, &pattern(SMALL, i as u32 % 4), "call {call}, file {i}");
        }
        assert_eq!(world.channels(), channels, "call {call}");
    }
    // What the window rode is what a plain GET rides next.
    get(&mut session, 0, &opts());
    assert_eq!(world.channels(), (1, 20));
    session.quit().unwrap();
}

/// After `change`, the server refuses to re-arm what it kept (a bare
/// `RETR` answers 425) and the client API opens `fresh` new channels.
fn change_gives_a_fresh_channel(
    seed: u64,
    what: &str,
    fresh: u64,
    next: TransferOpts,
    change: impl FnOnce(&mut ClientSession, &World),
) {
    let world = World::fixed(seed);
    let mut session = world.session();
    get(&mut session, 0, &opts());
    get(&mut session, 1, &opts());
    assert_eq!(world.channels(), (1, 1), "{what}: baseline");
    change(&mut session, &world);
    assert_no_channel(&bare_retr(&mut session));
    get(&mut session, 2, &next);
    assert_eq!(world.channels(), (1 + fresh, 1), "{what}: fresh channel, nothing re-armed");
    // And the fresh one is kept in its turn.
    get(&mut session, 3, &next);
    assert_eq!(world.channels(), (1 + fresh, 1 + fresh), "{what}: the new channel is re-armed");
    session.quit().unwrap();
}

#[test]
fn a_prot_change_gives_a_fresh_channel() {
    // The receiver requires the level it was told (`require_recv_level`):
    // a byte sealed at the old level would fail the GET.
    change_gives_a_fresh_channel(0xC1, "PROT P", 1, opts(), |s, _| {
        s.set_prot(ProtectionLevel::Private).unwrap()
    });
}

#[test]
fn a_dcau_change_gives_a_fresh_channel() {
    change_gives_a_fresh_channel(0xC2, "DCAU N", 1, opts(), |s, _| {
        s.set_dcau(DcauMode::None).unwrap()
    });
}

#[test]
fn a_parallelism_change_gives_fresh_channels() {
    change_gives_a_fresh_channel(0xC3, "Parallelism=2", 2, opts().parallel(2), |s, _| {
        s.set_parallelism(2).unwrap()
    });
}

#[test]
fn dcsc_p_then_dcsc_d_each_give_a_fresh_channel() {
    let world = World::fixed(0xC5);
    let mut session = world.session();
    get(&mut session, 0, &opts());
    assert_eq!(world.channels(), (1, 0));
    // A context of alice's own making: a proxy of her credential.
    let mut rng = ig_crypto::rng::seeded(0xDC5C);
    let context =
        proxy::delegate(&mut rng, &world.alice, 512, NOW, ProxyOptions::default()).unwrap();
    session.install_dcsc(&context).unwrap();
    assert_no_channel(&bare_retr(&mut session));
    get(&mut session, 1, &opts());
    get(&mut session, 2, &opts());
    assert_eq!(world.channels(), (2, 1), "DCSC P: fresh channel, then its own re-arm");
    session.revert_dcsc().unwrap();
    assert_no_channel(&bare_retr(&mut session));
    get(&mut session, 3, &opts());
    assert_eq!(world.channels(), (3, 1), "DCSC D: fresh channel under the login credential");
    session.quit().unwrap();
}

#[test]
fn a_direction_flip_gives_a_fresh_channel() {
    let world = World::fixed(0xC6);
    let mut session = world.session();
    get(&mut session, 0, &opts());
    // What carried a RETR is not what a STOR would have dialled.
    assert_no_channel(&bare(&mut session, Command::Stor("/home/alice/flip".into())));
    assert!(!world.dsi.exists(&UserContext::user("alice"), "/home/alice/flip"));
    let data = pattern(SMALL, 9);
    transfer::put_bytes(&mut session, "/home/alice/flip", &data, &opts()).unwrap();
    assert_eq!(world.stored("/home/alice/flip"), data);
    assert_eq!(world.channels(), (2, 0));
    session.quit().unwrap();
}

#[test]
fn a_stripe_rate_reload_gives_a_fresh_channel_through_the_clients_one_repeat() {
    let world = World::fixed(0xC7);
    let mut session = world.session();
    get(&mut session, 0, &opts());
    get(&mut session, 1, &opts());
    assert_eq!(world.channels(), (1, 1));
    // The client cannot see this one coming: it re-arms, is told 425, and
    // repeats once with a fresh PORT — under the new rate, not the old.
    let reload = [("stripe_rate".to_string(), Value::F64(64e6))];
    world.server.config().reload(&reload).unwrap();
    get(&mut session, 2, &opts());
    assert_eq!(world.channels(), (2, 1), "throttled channel is new; the unthrottled one is gone");
    get(&mut session, 3, &opts());
    assert_eq!(world.channels(), (2, 2));
    session.quit().unwrap();
}

#[test]
fn no_channel_still_answers_425() {
    // A fresh session, either direction.
    let world = World::fixed(0xC8);
    let mut session = world.session();
    session.set_mode_extended().unwrap();
    assert_no_channel(&bare_retr(&mut session));
    assert_no_channel(&bare(&mut session, Command::Stor("/home/alice/nope".into())));
    // PORT-then-nothing: the PORT ends what was kept, and names a port
    // nobody listens on. The kept channel is not a fallback for it.
    get(&mut session, 0, &opts());
    let vacant = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        HostPort::from_socket_addr(l.local_addr().unwrap()).unwrap()
    };
    session.command(&Command::Port(vacant)).unwrap();
    for _ in 0..2 {
        let refused = bare_retr(&mut session);
        assert_eq!(refused.code, 425, "{refused}");
        assert!(refused.text().contains("refused"), "{refused}");
    }
    assert_eq!(world.channels(), (1, 0));
    session.quit().unwrap();
}

#[test]
fn a_reset_on_a_kept_link_is_a_typed_426_and_the_retry_dials_afresh() {
    // Link 0 — the first link *opened* — resets once 1.5 files have gone
    // over it: in the middle of the second transfer it carries.
    let spec = FaultSpec::send(FaultKind::Reset, Trigger::AfterBytes(SMALL as u64 * 3 / 2));
    let hook = ChaosHook::new(ChaosConfig::single(0xC9, spec));
    let world = World::new(0xC9, Clock::Fixed(NOW), |c| c.with_data_chaos(Arc::clone(&hook)));
    let mut session = world.session();
    get(&mut session, 0, &opts());
    expect_prompt_426(&mut session, "/home/alice/f1");
    assert_eq!(hook.total_fires(), 1);
    assert_eq!(world.channels(), (1, 1), "the failed transfer was the re-armed one");
    // Neither end kept what failed: the server has nothing to re-arm...
    assert_no_channel(&bare_retr(&mut session));
    // ...and the client's retry opens link 1.
    get(&mut session, 1, &opts());
    assert_eq!(world.channels(), (2, 1));
    session.quit().unwrap();
}

/// A one-stream GET is received on the caller, which is therefore blocked
/// on the data link when the server gives up: the server's closing its end
/// is what releases it, so the 426 arrives at once, not at `io_timeout`.
fn expect_prompt_426(session: &mut ClientSession, path: &str) {
    let t0 = std::time::Instant::now();
    let err = transfer::get_bytes(session, path, &opts()).unwrap_err();
    match &err {
        ClientError::ServerError(reply) => assert_eq!(reply.code, 426, "{reply}"),
        other => panic!("expected the server's 426, got {other}"),
    }
    let waited = t0.elapsed();
    assert!(waited < Duration::from_secs(2), "426 after {waited:?}; io_timeout is 10 s");
}

/// A `MemDsi` whose reads at or past `fail_from` fail.
struct FailingReads {
    inner: MemDsi,
    fail_from: AtomicU64,
}

impl Dsi for FailingReads {
    fn read(&self, user: &UserContext, path: &str, at: u64, len: usize) -> ServerResult<Vec<u8>> {
        if at >= self.fail_from.load(Ordering::SeqCst) {
            return Err(ServerError::Storage(format!("injected read error at {at}")));
        }
        self.inner.read(user, path, at, len)
    }
    fn write(&self, user: &UserContext, path: &str, offset: u64, data: &[u8]) -> ServerResult<()> {
        self.inner.write(user, path, offset, data)
    }
    fn size(&self, user: &UserContext, path: &str) -> ServerResult<u64> {
        self.inner.size(user, path)
    }
    fn truncate(&self, user: &UserContext, path: &str, len: u64) -> ServerResult<()> {
        self.inner.truncate(user, path, len)
    }
    fn delete(&self, user: &UserContext, path: &str) -> ServerResult<()> {
        self.inner.delete(user, path)
    }
    fn list(&self, user: &UserContext, path: &str) -> ServerResult<Vec<DirEntry>> {
        self.inner.list(user, path)
    }
    fn mkdir(&self, user: &UserContext, path: &str) -> ServerResult<()> {
        self.inner.mkdir(user, path)
    }
    fn rmdir(&self, user: &UserContext, path: &str) -> ServerResult<()> {
        self.inner.rmdir(user, path)
    }
    fn exists(&self, user: &UserContext, path: &str) -> bool {
        self.inner.exists(user, path)
    }
}

#[test]
fn a_read_error_mid_get_on_a_kept_link_is_a_prompt_426_and_the_retry_dials_afresh() {
    let flaky = Arc::new(FailingReads {
        inner: MemDsi::new(),
        fail_from: AtomicU64::new(u64::MAX),
    });
    let world = World::new(0xCF, Clock::Fixed(NOW), |mut c| {
        c.dsi = Arc::clone(&flaky) as Arc<dyn Dsi>;
        c
    });
    // Four read chunks; the third fails, with two already on the wire.
    let big = pattern(256 * 1024, 7);
    flaky.inner.put("/home/alice/f0", &pattern(SMALL, 0));
    flaky.inner.put("/home/alice/big", &big);
    let mut session = world.session();
    get(&mut session, 0, &opts());
    flaky.fail_from.store(128 * 1024, Ordering::SeqCst);
    expect_prompt_426(&mut session, "/home/alice/big");
    assert_eq!(world.channels(), (1, 1), "the failed transfer was the re-armed one");
    // Both ends dropped what failed; the retry dials and gets all of it.
    assert_no_channel(&bare_retr(&mut session));
    flaky.fail_from.store(u64::MAX, Ordering::SeqCst);
    assert_eq!(transfer::get_bytes(&mut session, "/home/alice/big", &opts()).unwrap(), big);
    assert_eq!(world.channels(), (2, 1));
    session.quit().unwrap();
}

#[test]
fn a_lost_tail_in_a_pipelined_window_is_a_typed_truncation_naming_the_file() {
    // A 4 KiB file moves as one block, so dropping that block loses the
    // whole file and every EOD still arrives: only the 150's figure tells.
    // Per transfer the link carries the EOD count, the block and the EOD:
    // record 4 is the second file's block.
    let spec = FaultSpec::send(FaultKind::Drop, Trigger::OnRecord(4));
    let hook = ChaosHook::new(ChaosConfig::single(0xD0, spec));
    let world = World::new(0xD0, Clock::Fixed(NOW), |c| c.with_data_chaos(Arc::clone(&hook)));
    let mut session = world.session();
    let paths: Vec<String> = (0..4).map(|i| format!("/home/alice/f{i}")).collect();
    let refs: Vec<&str> = paths.iter().map(String::as_str).collect();
    let err = transfer::get_files_pipelined(&mut session, &refs, 4, &opts()).unwrap_err();
    match &err {
        ClientError::Truncated(what) => {
            assert!(what.contains("/home/alice/f1") && what.contains("received 0"), "{what}")
        }
        other => panic!("expected a truncation, got {other}"),
    }
    assert_eq!(hook.total_fires(), 1);
    // The rest of the window was served and read: the session is in step,
    // and the channel, on which every transfer did end, is still the one.
    assert_eq!(world.channels(), (1, 3));
    let got = transfer::get_files_pipelined(&mut session, &refs, 4, &opts()).unwrap();
    for (i, data) in got.iter().enumerate() {
        assert_eq!(data, &pattern(SMALL, i as u32), "file {i}");
    }
    assert_eq!(world.channels(), (1, 7));
    session.quit().unwrap();
}

/// The test as the data peer: `DCAU N`, raw TCP, MODE E by hand.
fn plain_session(world: &World) -> ClientSession {
    let mut session = world.session();
    session.set_dcau(DcauMode::None).unwrap();
    session.set_mode_extended().unwrap();
    session
}

fn final_reply(session: &mut ClientSession) -> Reply {
    loop {
        let reply = session.read_reply().unwrap();
        if !reply.is_preliminary() {
            return reply;
        }
    }
}

#[test]
fn every_sending_150_announces_what_the_data_channel_then_carries() {
    let world = World::fixed(0xD1);
    world.dsi.put("/home/alice/tree/a/x.bin", &pattern(5000, 1));
    world.dsi.put("/home/alice/tree/empty", b"");
    let mut session = plain_session(&world);
    let sink = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let port = HostPort::from_socket_addr(sink.local_addr().unwrap()).unwrap();
    session.command(&Command::Port(port)).unwrap();
    // The first command dials; the rest ride the channel it leaves.
    let mut peer: Option<TcpLink> = None;
    let mut announced_and_carried = |session: &mut ClientSession, cmd: Command| {
        session.send_cmd(&cmd).unwrap();
        let link = peer.get_or_insert_with(|| TcpLink::new(sink.accept().unwrap().0));
        let opening = session.read_reply().unwrap();
        assert_eq!(opening.code, 150, "{cmd}: {opening}");
        let mut carried = 0u64;
        loop {
            let block = Block::decode(&link.recv().unwrap()).unwrap();
            carried += block.payload.len() as u64;
            if block.is_eod() {
                break;
            }
        }
        assert_eq!(final_reply(session).code, 226, "{cmd}");
        (opening.announced_bytes(), carried)
    };
    let f0 = || "/home/alice/f0".to_string();
    assert_eq!(announced_and_carried(&mut session, Command::Retr(f0())), (Some(4096), 4096));
    // After `REST`: what is missing, not the file's size.
    let mut have = ig_protocol::ByteRanges::new();
    have.add(0, 1000);
    assert_eq!(bare(&mut session, Command::Rest(have.to_marker())).code, 350);
    assert_eq!(announced_and_carried(&mut session, Command::Retr(f0())), (Some(3096), 3096));
    let partial = Command::Eret { module: "P".into(), args: format!("100,200 {}", f0()) };
    assert_eq!(announced_and_carried(&mut session, partial), (Some(200), 200));
    // A directory stream: the framing counts, a listing: its text.
    let dir = Command::Eret { module: "DIR".into(), args: "0 /home/alice/tree".into() };
    let (announced, carried) = announced_and_carried(&mut session, dir);
    assert!(carried > 5000, "{carried}");
    assert_eq!(announced, Some(carried));
    let listing = Command::Mlsd(Some("/home/alice".into()));
    let (announced, carried) = announced_and_carried(&mut session, listing);
    assert!(carried > 0);
    assert_eq!(announced, Some(carried));
    assert_eq!(world.channels(), (1, 4));
}

#[test]
fn a_peer_that_closed_an_idle_kept_link_is_a_typed_error_at_next_use() {
    let world = World::new(0xCA, Clock::Fixed(NOW), |c| {
        c.with_stall_timeout(Duration::from_secs(30))
    });
    // Inbound: STOR over a connection the test dials, then abandons.
    let mut session = plain_session(&world);
    let addr = session.pasv().unwrap();
    session.send_cmd(&Command::Stor("/home/alice/up".into())).unwrap();
    assert_eq!(session.read_reply().unwrap().code, 150);
    let mut peer = TcpLink::connect(addr.to_socket_addr()).unwrap();
    peer.send(&Block::eof_count(1).encode()).unwrap();
    peer.send(&Block::data(0, b"first".to_vec()).encode()).unwrap();
    peer.send(&Block::eod().encode()).unwrap();
    assert_eq!(final_reply(&mut session).code, 226);
    drop(peer);
    let t0 = std::time::Instant::now();
    let reply = bare(&mut session, Command::Stor("/home/alice/up2".into()));
    assert_eq!(reply.code, 426, "{reply}");
    assert!(reply.text().contains("truncated"), "{reply}");
    assert!(t0.elapsed() < Duration::from_secs(5), "an EOF, not the 30 s stall timer");
    assert_eq!(world.channels(), (1, 1));

    // Outbound: RETR of many blocks, to a peer that left.
    world.dsi.put("/home/alice/big", &vec![3u8; 1 << 20]);
    let sink = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let port = HostPort::from_socket_addr(sink.local_addr().unwrap()).unwrap();
    session.command(&Command::Port(port)).unwrap();
    session.send_cmd(&Command::Retr("/home/alice/f0".into())).unwrap();
    let mut peer = TcpLink::new(sink.accept().unwrap().0);
    while !Block::decode(&peer.recv().unwrap()).unwrap().is_eod() {}
    assert_eq!(final_reply(&mut session).code, 226);
    drop(peer);
    let reply = bare(&mut session, Command::Retr("/home/alice/big".into()));
    assert_eq!(reply.code, 426, "{reply}");
    assert_eq!(world.channels(), (2, 2));
    assert_eq!(session.command(&Command::Noop).unwrap().code, 200);
    session.quit().unwrap();
}

#[test]
fn an_expired_chain_is_not_re_armed() {
    // Real clocks: alice presents a four-second proxy. While it lives the
    // channel it authenticated is re-armed; once it has expired neither
    // end touches the kept channel again, and nothing new authenticates.
    let world = World::new(0xCB, Clock::System, |c| c);
    let mut rng = ig_crypto::rng::seeded(0xE0);
    let now = ig_pki::time::now();
    let short = ProxyOptions { lifetime: 4, path_len: None };
    let proxy = proxy::delegate(&mut rng, &world.alice, 512, now, short).unwrap();
    let mut session = world.session_as(proxy, Clock::System);
    get(&mut session, 0, &opts());
    get(&mut session, 1, &opts());
    assert_eq!(world.channels(), (1, 1));
    while ig_pki::time::now() < now + 4 {
        std::thread::sleep(Duration::from_millis(100));
    }
    // The server's end: expired, so closed and refused.
    assert_no_channel(&bare_retr(&mut session));
    // The client's end: not re-armed either; the fresh channel it asks for
    // instead cannot authenticate with an expired chain.
    let opts = TransferOpts::default().timeout(Some(Duration::from_secs(2)));
    transfer::get_bytes(&mut session, "/home/alice/f2", &opts).unwrap_err();
    assert_eq!(world.channels(), (1, 1), "nothing re-armed, nothing authenticated");
}

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

#[test]
fn quit_and_drop_close_kept_channels() {
    let alone = Turn::Alone(CENSUS.write().unwrap_or_else(|e| e.into_inner()));
    let world = World::taking(alone, 0xCC, Clock::Fixed(NOW), |c| c);
    let sessions = world.obs.metrics();
    let idle = || sessions.gauge_value("server.sessions_active") == 0.0;
    // One session first, so lazily created descriptors (worker wake fds,
    // epoll registrations) are already there when the count is taken.
    let mut warm = world.session();
    get(&mut warm, 0, &opts());
    warm.quit().unwrap();
    eventually(Duration::from_secs(5), Duration::from_millis(5), "warm-up session retired", idle);
    let before = open_fds();
    for i in 0..50 {
        let mut session = world.session();
        get(&mut session, 0, &opts());
        transfer::put_bytes(&mut session, "/home/alice/fd", b"x", &opts()).unwrap();
        if i % 2 == 0 {
            session.quit().unwrap();
        } else {
            drop(session);
        }
    }
    eventually(Duration::from_secs(10), Duration::from_millis(10), "descriptors returned", || {
        idle() && open_fds() <= before
    });
    assert_eq!(world.channels(), (1 + 100, 0));
}

#[test]
fn drain_does_not_wait_for_idle_kept_channels() {
    let world = World::fixed(0xCD);
    let mut session = world.session();
    get(&mut session, 0, &opts());
    get(&mut session, 1, &opts());
    assert_eq!(world.channels(), (1, 1));
    // The session idles with a kept channel: not an active transfer.
    let report = world.server.drain(Duration::from_secs(5));
    assert!(report.clean, "{report:?}");
    assert_eq!(report.transfers_interrupted, 0);
    assert!(report.waited_ms < 1000, "{report:?}");
    assert!(world.server.stopped());
}
