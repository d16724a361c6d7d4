//! A transfer's lifecycle is event-driven: nothing on its critical path
//! sleeps through a tick.
//!
//! The sending session feeds its own transfer and looks at the marker
//! clock between blocks, the receiving session's pump is woken by a
//! stream's end or a queued connection, and the marker periods are only
//! what those compare against or time out on. These tests hold the server
//! to what a client can see of that: short transfers cost no tick (a
//! sleep-polling sender needed at least 50 ms each) and, on a kept channel
//! with one stream, no thread and one command; long ones still report at
//! the marker cadence; and a peer that stops reading ends the transfer
//! instead of hanging it.

use ig_client::{transfer, ClientConfig, ClientSession, RetryPolicy, TransferOpts};
use ig_pki::cert::Validity;
use ig_pki::time::Clock;
use ig_pki::{CertificateAuthority, Credential, DistinguishedName, Gridmap, TrustStore};
use ig_protocol::command::{Command, DcauMode};
use ig_protocol::HostPort;
use ig_server::dsi::read_all;
use ig_server::{Dsi, GridFtpServer, GridmapAuthz, MemDsi, ServerConfig, UserContext};
use ig_xio::test_support::{eventually, retry_measurement};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const NOW: u64 = 1_000_000;
const SMALL: usize = 4 * 1024;
/// The server's 112 period (`MARKER_PERIOD` in `session.rs`).
const MARKER_PERIOD: Duration = Duration::from_millis(50);

fn dn(s: &str) -> DistinguishedName {
    DistinguishedName::parse(s).unwrap()
}

fn pattern(len: usize, salt: u32) -> Vec<u8> {
    (0..len as u32).map(|i| ((i ^ salt) * 13 % 251) as u8).collect()
}

/// One CA, any number of servers under it, and alice's credential.
struct Grid {
    ca: CertificateAuthority,
    trust: TrustStore,
    rng: rand::rngs::StdRng,
}

struct Site {
    server: Arc<GridFtpServer>,
    dsi: Arc<MemDsi>,
    obs: Arc<ig_obs::Obs>,
}

impl Grid {
    fn new(seed: u64) -> Grid {
        let mut rng = ig_crypto::rng::seeded(seed);
        let ca = CertificateAuthority::create(&mut rng, dn("/O=Wake CA"), 512, 0, NOW * 10)
            .unwrap();
        let mut trust = TrustStore::new();
        trust.add_root(ca.root_cert().clone());
        Grid { ca, trust, rng }
    }

    fn credential(&mut self, subject: &str) -> Credential {
        let keys = ig_crypto::RsaKeyPair::generate(&mut self.rng, 512).unwrap();
        let cert = self
            .ca
            .issue(dn(subject), &keys.public, Validity::starting_at(0, NOW * 10), vec![])
            .unwrap();
        Credential::new(vec![cert], keys.private).unwrap()
    }

    fn site(&mut self, tune: impl FnOnce(ServerConfig) -> ServerConfig) -> Site {
        let mut gridmap = Gridmap::new();
        gridmap.add(&dn("/O=Grid/CN=Alice Smith"), "alice");
        let dsi = Arc::new(MemDsi::new());
        let obs = ig_obs::Obs::new("wake-server");
        let cfg = ServerConfig::new(
            "wake.example.org",
            self.credential("/CN=wake.example.org"),
            self.trust.clone(),
            Arc::new(GridmapAuthz::new(gridmap)),
            Arc::clone(&dsi) as Arc<dyn Dsi>,
        )
        .with_clock(Clock::Fixed(NOW))
        .with_obs(Arc::clone(&obs));
        let server = GridFtpServer::start(tune(cfg), 7).unwrap();
        Site { server, dsi, obs }
    }

    /// A logged-in session with data-channel authentication off, so an
    /// operation is control round trips plus the transfer itself.
    fn session(&mut self, site: &Site, obs: &Arc<ig_obs::Obs>) -> ClientSession {
        let cfg = ClientConfig::new(self.credential("/O=Grid/CN=Alice Smith"), self.trust.clone())
            .with_clock(Clock::Fixed(NOW))
            .with_seed(99)
            .no_delegation()
            .with_retry(RetryPolicy::once().with_attempt_timeout(Some(Duration::from_secs(10))))
            .with_obs(Arc::clone(obs));
        let mut session = ClientSession::connect(site.server.addr(), cfg).unwrap();
        session.login().unwrap();
        session.set_dcau(DcauMode::None).unwrap();
        session
    }
}

/// `Err` when `elapsed` is over `budget`, in the form `retry_measurement`
/// wants (a loaded CI box gets three rounds; a sleep on the path fails all).
fn within(budget: Duration, elapsed: Duration) -> Result<(), String> {
    if elapsed < budget {
        Ok(())
    } else {
        Err(format!("{elapsed:?} against a budget of {budget:?}"))
    }
}

#[test]
fn twenty_short_transfers_each_way_finish_inside_half_a_second() {
    let mut grid = Grid::new(0xA11CE);
    let site = grid.site(|c| c);
    let alice = UserContext::user("alice");
    let files: Vec<Vec<u8>> = (0..20).map(|i| pattern(SMALL, i)).collect();
    for (i, data) in files.iter().enumerate() {
        site.dsi.put(&format!("/home/alice/get-{i}"), data);
    }
    let obs = ig_obs::Obs::new("wake-client");
    let mut session = grid.session(&site, &obs);
    let opts = TransferOpts::default().timeout(Some(Duration::from_secs(10)));
    // Before: every GET slept one 50 ms tick before its 226, so twenty
    // took 1.04 s or more by construction.
    retry_measurement(3, "20 sequential 4 KiB GETs", || {
        let t0 = Instant::now();
        for (i, data) in files.iter().enumerate() {
            let got =
                transfer::get_bytes(&mut session, &format!("/home/alice/get-{i}"), &opts)
                    .unwrap();
            assert_eq!(&got, data, "GET {i}");
        }
        within(Duration::from_millis(500), t0.elapsed())
    });
    retry_measurement(3, "20 sequential 4 KiB PUTs", || {
        let t0 = Instant::now();
        for (i, data) in files.iter().enumerate() {
            let sent =
                transfer::put_bytes(&mut session, &format!("/home/alice/put-{i}"), data, &opts)
                    .unwrap();
            assert_eq!(sent, SMALL as u64);
        }
        within(Duration::from_millis(500), t0.elapsed())
    });
    for (i, data) in files.iter().enumerate() {
        let path = format!("/home/alice/put-{i}");
        let stored = read_all(site.dsi.as_ref(), &alice, &path, 1 << 16).unwrap();
        assert_eq!(&stored, data, "PUT {i}");
    }
    session.quit().unwrap();
    site.server.shutdown();
}

#[test]
fn a_re_armed_one_stream_get_is_one_command_and_no_new_thread() {
    let mut grid = Grid::new(0x5EED);
    let site = grid.site(|c| c);
    let files: Vec<Vec<u8>> = (0..21).map(|i| pattern(SMALL, i)).collect();
    for (i, data) in files.iter().enumerate() {
        site.dsi.put(&format!("/home/alice/get-{i}"), data);
    }
    let obs = ig_obs::Obs::new("wake-client");
    let mut session = grid.session(&site, &obs);
    let mut fetch = |i: usize, opts: &TransferOpts| {
        let got = transfer::get_bytes(&mut session, &format!("/home/alice/get-{i}"), opts).unwrap();
        assert_eq!(got, files[i], "GET {i}");
    };
    let count = |hub: &Arc<ig_obs::Obs>, name: &str| hub.metrics().counter_value(name);
    // (server, client): the DTP counts on the hub of the endpoint it runs at.
    let spawned = || {
        (count(&site.obs, "server.dtp.threads_spawned"), count(&obs, "server.dtp.threads_spawned"))
    };
    let one = TransferOpts::default().timeout(Some(Duration::from_secs(10)));
    fetch(20, &one); // opens the channel the rest are re-armed on
    let (threads, commands) = (spawned(), count(&site.obs, "server.commands"));
    for i in 0..20 {
        fetch(i, &one);
    }
    assert_eq!(spawned(), threads, "one stream: sent and received on the threads already there");
    assert_eq!(count(&site.obs, "server.commands") - commands, 20, "a GET is its RETR");
    assert_eq!(count(&site.obs, "server.dtp.channels_reused"), 20);
    // More streams keep their workers: one per stream, on each end.
    for n in [2u64, 3] {
        let many = one.clone().parallel(n as usize);
        fetch(0, &many);
        let before = spawned();
        fetch(1, &many);
        assert_eq!(spawned(), (before.0 + n, before.1 + n), "parallelism {n}");
    }
    session.quit().unwrap();
    site.server.shutdown();
}

#[test]
fn a_re_armed_one_stream_put_starts_no_thread_on_the_client() {
    let mut grid = Grid::new(0x5EED + 1);
    let site = grid.site(|c| c);
    let obs = ig_obs::Obs::new("wake-client");
    let mut session = grid.session(&site, &obs);
    let data = pattern(SMALL, 3);
    let mut store = |i: usize, opts: &TransferOpts| {
        let sent = transfer::put_bytes(&mut session, &format!("/home/alice/put-{i}"), &data, opts);
        assert_eq!(sent.unwrap(), SMALL as u64, "PUT {i}");
    };
    // The client's hub: its DTP is the sender of an upload.
    let spawned = || obs.metrics().counter_value("server.dtp.threads_spawned");
    let one = TransferOpts::default().timeout(Some(Duration::from_secs(10)));
    store(20, &one); // opens the channel the rest are re-armed on
    let threads = spawned();
    for i in 0..20 {
        store(i, &one);
    }
    assert_eq!(spawned(), threads, "one stream: sent on the thread that called put_bytes");
    assert_eq!(site.obs.metrics().counter_value("server.dtp.channels_reused"), 20);
    // More streams: a worker each, so that none waits for another.
    for n in [2u64, 3] {
        let many = one.clone().parallel(n as usize);
        store(0, &many);
        let before = spawned();
        store(1, &many);
        assert_eq!(spawned(), before + n, "parallelism {n}");
    }
    session.quit().unwrap();
    site.server.shutdown();
}

#[test]
fn a_sub_period_get_yields_exactly_one_marker() {
    let mut grid = Grid::new(0xB0B);
    let site = grid.site(|c| c);
    site.dsi.put("/home/alice/small", &pattern(SMALL, 1));
    site.dsi.put("/home/alice/empty", b"");
    let obs = ig_obs::Obs::new("wake-client");
    let mut session = grid.session(&site, &obs);
    let series: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&series);
    let opts = TransferOpts::default()
        .timeout(Some(Duration::from_secs(10)))
        .on_progress(move |m| sink.lock().unwrap().push(m.stripe_bytes));
    for _ in 0..5 {
        series.lock().unwrap().clear();
        transfer::get_bytes(&mut session, "/home/alice/small", &opts).unwrap();
        // The closing marker, carrying the final count: what a short GET
        // showed the client when the sender polled, and still does.
        assert_eq!(*series.lock().unwrap(), vec![SMALL as u64]);
    }
    series.lock().unwrap().clear();
    transfer::get_bytes(&mut session, "/home/alice/empty", &opts).unwrap();
    assert!(series.lock().unwrap().is_empty(), "nothing moved, nothing to report");
    session.quit().unwrap();
    site.server.shutdown();
}

#[test]
fn long_gets_report_at_the_marker_cadence_each_with_its_own_count() {
    // Two sessions send at once, throttled to span several periods. The
    // sizes differ, so a marker that read its count back from the shared
    // `server.transfer_progress_bytes` gauge could carry the other
    // transfer's count and overshoot its own file.
    const RATE: f64 = 80_000.0;
    let mut grid = Grid::new(0xCAFE);
    let site = grid.site(|c| c.with_stripes(1, Some(RATE)).with_block_size(1024));
    let sizes = [36_000usize, 52_000];
    let obs = ig_obs::Obs::new("wake-client");
    let mut runs = Vec::new();
    for (i, &size) in sizes.iter().enumerate() {
        let path = format!("/home/alice/long-{i}");
        site.dsi.put(&path, &pattern(size, i as u32));
        let mut session = grid.session(&site, &obs);
        runs.push(std::thread::spawn(move || {
            let series: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
            let sink = Arc::clone(&series);
            let opts = TransferOpts::default()
                .block(1024)
                .timeout(Some(Duration::from_secs(10)))
                .on_progress(move |m| sink.lock().unwrap().push(m.stripe_bytes));
            let t0 = Instant::now();
            let got = transfer::get_bytes(&mut session, &path, &opts).unwrap();
            let elapsed = t0.elapsed();
            session.quit().unwrap();
            let series = series.lock().unwrap().clone();
            (got.len(), series, elapsed)
        }));
    }
    for (run, &size) in runs.into_iter().zip(&sizes) {
        let (len, series, elapsed) = run.join().unwrap();
        assert_eq!(len, size);
        assert!(series.windows(2).all(|w| w[0] < w[1]), "strictly rising: {series:?}");
        assert_eq!(series.last(), Some(&(size as u64)), "ends at the file size: {series:?}");
        // One marker per period in which bytes moved, plus the closing one.
        let ticks = (elapsed.as_millis() / MARKER_PERIOD.as_millis()) as usize;
        assert!(
            series.len() >= 3 && series.len() <= ticks + 1,
            "{} markers over {elapsed:?} ({ticks} periods): {series:?}",
            series.len()
        );
    }
    site.server.shutdown();
}

#[test]
fn third_party_short_transfers_sleep_through_no_tick_on_either_server() {
    let mut grid = Grid::new(0xD00D);
    let src = grid.site(|c| c);
    let dst = grid.site(|c| c);
    let data = pattern(SMALL, 7);
    src.dsi.put("/home/alice/src", &data);
    let obs = ig_obs::Obs::new("wake-client");
    let mut to_src = grid.session(&src, &obs);
    let mut to_dst = grid.session(&dst, &obs);
    let opts = TransferOpts::default().timeout(Some(Duration::from_secs(10)));
    // Before: the sending server's tick alone made ten of these 500 ms.
    retry_measurement(3, "10 third-party 4 KiB transfers", || {
        let t0 = Instant::now();
        for i in 0..10 {
            let outcome = transfer::third_party(
                &mut to_src,
                "/home/alice/src",
                &mut to_dst,
                &format!("/home/alice/dst-{i}"),
                &opts,
                None,
            )
            .unwrap();
            assert!(outcome.is_success(), "{outcome:?}");
        }
        within(Duration::from_millis(250), t0.elapsed())
    });
    let alice = UserContext::user("alice");
    for i in 0..10 {
        let path = format!("/home/alice/dst-{i}");
        assert_eq!(read_all(dst.dsi.as_ref(), &alice, &path, 1 << 16).unwrap(), data);
    }
    to_src.quit().unwrap();
    to_dst.quit().unwrap();
    src.server.shutdown();
    dst.server.shutdown();
}

#[test]
fn a_peer_that_never_reads_ends_the_transfer_after_the_stall_timeout() {
    const STALL: Duration = Duration::from_millis(400);
    let mut grid = Grid::new(0xE66);
    let site = grid.site(|c| c.with_stall_timeout(STALL));
    // Far more than loopback's socket buffers hold, so the sender's
    // write blocks for good once they fill.
    site.dsi.put("/home/alice/big", &vec![7u8; 48 << 20]);
    let obs = ig_obs::Obs::new("wake-client");
    let mut session = grid.session(&site, &obs);
    session.set_mode_extended().unwrap();
    let sink = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = HostPort::from_socket_addr(sink.local_addr().unwrap()).unwrap();
    session.command(&Command::Port(addr)).unwrap();
    let t0 = Instant::now();
    session.send_cmd(&Command::Retr("/home/alice/big".into())).unwrap();
    // Accept, and hold the connection open without ever reading.
    let (_held, _) = sink.accept().unwrap();
    let last = loop {
        let reply = session.read_reply().unwrap();
        if !reply.is_preliminary() {
            break reply;
        }
    };
    let elapsed = t0.elapsed();
    assert_eq!(last.code, 426, "{last}");
    // Before: the session joined a worker blocked in `write` for as
    // long as the peer kept the connection, i.e. for ever.
    assert!(
        elapsed >= STALL && elapsed < STALL * 10,
        "426 after {elapsed:?}, stall timeout {STALL:?}"
    );
    let metrics = site.obs.metrics();
    eventually(Duration::from_secs(5), Duration::from_millis(5), "transfer retired", || {
        metrics.gauge_value("server.transfers_active") == 0.0
    });
    assert_eq!(metrics.counter_value("server.transfer_errors"), 1);
    // The session is back at its command loop.
    assert_eq!(session.command(&Command::Noop).unwrap().code, 200);
    session.quit().unwrap();
    site.server.shutdown();
}
