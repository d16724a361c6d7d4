//! The reactor's reason to exist: many idle control sessions, cheaply —
//! without a busy session ever costing another one its turn.
//!
//! The first test is the in-tree smoke version of experiment E14 (the
//! bench crate runs the full 10k-session sweep): hold hundreds of idle
//! sessions on one reactor thread while a handful of authenticated
//! sessions move real bytes, and check that
//! * the `server.sessions_held` gauge sees every connection,
//! * command RTT stays sane under the idle herd plus active transfers,
//! * resident memory grows by kilobytes per idle session, not by a
//!   thread stack per session.
//!
//! Budgets are deliberately loose — CI boxes are slow and single-core —
//! but loose budgets still catch the failure modes that matter here
//! (a thread per session, an accept stall, an O(sessions) wakeup storm).
//!
//! The others hold the reactor to what a thread per session gave for
//! free: a transfer occupies its own session only, however many run
//! (the fixed worker pool the reactor once had failed both), and
//! `shutdown` lets a running transfer finish.

use ig_client::{transfer, ClientConfig, ClientSession, RetryPolicy, TransferOpts};
use ig_pki::cert::Validity;
use ig_pki::time::Clock;
use ig_pki::{CertificateAuthority, Credential, DistinguishedName, Gridmap, TrustStore};
use ig_protocol::command::{Command, DcauMode};
use ig_server::dsi::read_all;
use ig_server::{Dsi, GridFtpServer, GridmapAuthz, MemDsi, ServerConfig, UserContext};
use ig_xio::test_support::{eventually, retry_measurement};
use ig_xio::{Link, TcpLink};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NOW: u64 = 1_000_000;
const IDLE_SESSIONS: usize = 800;
const ACTIVE_SESSIONS: usize = 8;
const PUT_LEN: usize = 64 * 1024;
/// Loose per-idle-session resident ceiling. A thread-per-session server
/// pays a stack plus TLS per session (tens to hundreds of KiB touched);
/// a reactor entry is a token, buffers, and a state machine.
const RSS_PER_IDLE_CEILING: u64 = 48 * 1024;
/// Loose absolute p99 budget for a NOOP round trip while the server
/// holds the idle herd and runs the active transfers (1-CPU CI).
const P99_BUDGET: Duration = Duration::from_secs(2);

fn dn(s: &str) -> DistinguishedName {
    DistinguishedName::parse(s).unwrap()
}

struct World {
    server: Arc<GridFtpServer>,
    server_obs: Arc<ig_obs::Obs>,
    dsi: Arc<MemDsi>,
    user_cred: Credential,
    trust: TrustStore,
}

fn world(tune: impl FnOnce(ServerConfig) -> ServerConfig) -> World {
    let server_obs = ig_obs::Obs::new("scale-server");
    let mut rng = ig_crypto::rng::seeded(0x5CA1E);
    let mut ca =
        CertificateAuthority::create(&mut rng, dn("/O=Scale CA"), 512, 0, NOW * 10).unwrap();
    let host_keys = ig_crypto::RsaKeyPair::generate(&mut rng, 512).unwrap();
    let host_cert = ca
        .issue(
            dn("/CN=scale.example.org"),
            &host_keys.public,
            Validity::starting_at(0, NOW * 10),
            vec![],
        )
        .unwrap();
    let user_keys = ig_crypto::RsaKeyPair::generate(&mut rng, 512).unwrap();
    let user_cert = ca
        .issue(
            dn("/O=Grid/CN=Alice Smith"),
            &user_keys.public,
            Validity::starting_at(0, NOW * 10),
            vec![],
        )
        .unwrap();
    let mut trust = TrustStore::new();
    trust.add_root(ca.root_cert().clone());
    let mut gridmap = Gridmap::new();
    gridmap.add(&dn("/O=Grid/CN=Alice Smith"), "alice");
    let dsi = Arc::new(MemDsi::new());
    let cfg = ServerConfig::new(
        "scale.example.org",
        Credential::new(vec![host_cert], host_keys.private).unwrap(),
        trust.clone(),
        Arc::new(GridmapAuthz::new(gridmap)),
        Arc::clone(&dsi) as Arc<dyn Dsi>,
    )
    .with_clock(Clock::Fixed(NOW))
    .with_stall_timeout(Duration::from_secs(5))
    .with_obs(Arc::clone(&server_obs));
    let server = GridFtpServer::start(tune(cfg), 5).unwrap();
    World {
        server,
        server_obs,
        dsi,
        user_cred: Credential::new(vec![user_cert], user_keys.private).unwrap(),
        trust,
    }
}

fn login(w: &World) -> ClientSession {
    let cfg = ClientConfig::new(w.user_cred.clone(), w.trust.clone())
        .with_clock(Clock::Fixed(NOW))
        .with_seed(77)
        .no_delegation()
        .with_retry(RetryPolicy::once().with_attempt_timeout(Some(Duration::from_secs(10))));
    let link: Box<dyn Link> =
        Box::new(TcpLink::connect(w.server.addr().to_socket_addr()).unwrap());
    let mut session = ClientSession::from_link(link, cfg).unwrap();
    session.login().unwrap();
    session.set_dcau(DcauMode::None).unwrap();
    session
}

fn gauge(w: &World, name: &str) -> f64 {
    w.server_obs.metrics().gauge_value(name)
}

fn wait_for_held(w: &World, at_least: f64) {
    eventually(Duration::from_secs(30), Duration::from_millis(20), "idle herd registered", || {
        gauge(w, "server.sessions_held") >= at_least
    });
}

fn p99(samples: &mut [Duration]) -> Duration {
    samples.sort_unstable();
    samples[samples.len() * 99 / 100]
}

#[test]
fn reactor_holds_idle_herd_within_memory_and_rtt_budgets() {
    let w = world(|c| c);

    // Baseline RSS after server start but before the herd arrives.
    let rss_before = ig_obs::process::resident_bytes();

    // The idle herd: connect, take the banner, then just sit there.
    let mut idle = Vec::with_capacity(IDLE_SESSIONS);
    for i in 0..IDLE_SESSIONS {
        let mut link = TcpLink::connect(w.server.addr().to_socket_addr())
            .unwrap_or_else(|e| panic!("idle connect #{i} failed: {e}"));
        let banner = link.recv().unwrap();
        assert!(banner.starts_with(b"220"), "bad banner for idle #{i}");
        idle.push(link);
    }
    wait_for_held(&w, IDLE_SESSIONS as f64);

    if let (Some(before), Some(after)) = (rss_before, ig_obs::process::resident_bytes()) {
        let delta = after.saturating_sub(before);
        let per_session = delta / IDLE_SESSIONS as u64;
        assert!(
            per_session < RSS_PER_IDLE_CEILING,
            "idle sessions too fat: {delta} bytes for {IDLE_SESSIONS} \
             sessions = {per_session} B/session (ceiling {RSS_PER_IDLE_CEILING})"
        );
    }

    // Active load: authenticated PUTs racing in their own threads while
    // the herd sits on the same reactor.
    let active: Vec<_> = (0..ACTIVE_SESSIONS)
        .map(|i| {
            let mut session = login(&w);
            std::thread::spawn(move || {
                let data: Vec<u8> = (0..PUT_LEN as u32).map(|b| (b * 11 % 241) as u8).collect();
                let opts = TransferOpts::default()
                    .block(8 * 1024)
                    .timeout(Some(Duration::from_secs(10)));
                let sent = transfer::put_bytes(
                    &mut session,
                    &format!("/home/alice/scale-{i}.bin"),
                    &data,
                    &opts,
                )
                .unwrap();
                assert_eq!(sent, PUT_LEN as u64);
                session.quit().unwrap();
            })
        })
        .collect();

    // Command RTT through the loaded reactor, measured on a fresh
    // pre-auth session (NOOP answers before login). Re-measured a
    // bounded number of times: a transient CI load spike should not
    // flake tier-1, a real wakeup storm fails every round.
    retry_measurement(3, "loaded p99 NOOP RTT", || {
        let mut probe = TcpLink::connect(w.server.addr().to_socket_addr()).unwrap();
        let _banner = probe.recv().unwrap();
        let mut rtts = Vec::with_capacity(200);
        for _ in 0..200 {
            let t0 = Instant::now();
            probe.send(b"NOOP").unwrap();
            let reply = probe.recv().unwrap();
            rtts.push(t0.elapsed());
            assert!(reply.starts_with(b"200"), "NOOP got {:?}", String::from_utf8_lossy(&reply));
        }
        probe.send(b"QUIT").unwrap();
        let _ = probe.recv();
        let p99 = p99(&mut rtts);
        if p99 < P99_BUDGET {
            Ok(())
        } else {
            Err(format!(
                "p99 NOOP RTT {p99:?} over the {P99_BUDGET:?} budget under \
                 {IDLE_SESSIONS} idle + {ACTIVE_SESSIONS} active sessions"
            ))
        }
    });

    for t in active {
        t.join().unwrap();
    }

    // The reactor actually multiplexed all of this on epoll.
    assert!(
        w.server_obs.metrics().counter_value("server.reactor_wakeups") > 0,
        "reactor wakeup counter never moved"
    );
    let held = gauge(&w, "server.sessions_held");
    assert!(
        held >= IDLE_SESSIONS as f64,
        "sessions_held fell below the idle herd: {held}"
    );

    // Hang up the herd; the reactor reaps every entry.
    drop(idle);
    w.server.shutdown();
    eventually(Duration::from_secs(30), Duration::from_millis(20), "sessions torn down", || {
        gauge(&w, "server.sessions_active") == 0.0
    });
}

/// Per-stream throttle of the worlds below, and a file that takes about
/// `SLOW_SECS` to leave through it (the throttle's first 16 KiB are a
/// free burst).
const SLOW_RATE: f64 = 40_000.0;
const SLOW_SECS: f64 = 1.2;
const SLOW_PATH: &str = "/home/alice/slow.bin";

fn slow_world() -> (World, Vec<u8>) {
    let w = world(|c| c.with_stripes(1, Some(SLOW_RATE)).with_block_size(1024));
    let len = 16 * 1024 + (SLOW_RATE * SLOW_SECS) as usize;
    let data: Vec<u8> = (0..len as u32).map(|b| (b * 7 % 251) as u8).collect();
    w.dsi.put(SLOW_PATH, &data);
    (w, data)
}

fn slow_opts() -> TransferOpts {
    TransferOpts::default().block(1024).timeout(Some(Duration::from_secs(10)))
}

fn wait_for_transfers(w: &World, n: f64) {
    eventually(Duration::from_secs(10), Duration::from_millis(2), "transfers in flight", || {
        gauge(w, "server.transfers_active") == n
    });
}

#[test]
fn a_command_never_waits_behind_other_sessions_transfers() {
    let (w, data) = slow_world();
    // Nine sessions in accept order. A pool of 4 shards x 2 workers keyed
    // by accept order ran #1, #5 and #9 on the same two threads.
    let mut sessions: Vec<ClientSession> = (0..9).map(|_| login(&w)).collect();
    let opts = &slow_opts();
    // Every round starts its own two transfers: a round that waited for
    // them to end would measure an idle server.
    retry_measurement(3, "NOOP beside two running transfers", || {
        let [s1, s2, _, _, s5, _, _, _, s9] = &mut sessions[..] else { unreachable!() };
        std::thread::scope(|scope| {
            let getters = [s1, s5]
                .map(|s| scope.spawn(move || transfer::get_bytes(s, SLOW_PATH, opts).unwrap()));
            wait_for_transfers(&w, 2.0);
            let worst = [s9, s2]
                .map(|s| {
                    let t0 = Instant::now();
                    assert_eq!(s.command(&Command::Noop).unwrap().code, 200);
                    t0.elapsed()
                })
                .into_iter()
                .max()
                .unwrap();
            for g in getters {
                assert_eq!(g.join().unwrap(), data);
            }
            if worst < Duration::from_millis(100) {
                Ok(())
            } else {
                Err(format!("a NOOP took {worst:?} while two other sessions were sending"))
            }
        })
    });
    for s in sessions {
        s.quit().unwrap();
    }
    w.server.shutdown();
}

#[test]
fn more_transfers_run_at_once_than_a_fixed_pool_had_workers() {
    const GETS: usize = 12;
    const PAIRS: usize = 6;
    let (w, data) = slow_world();
    let opts = &slow_opts();
    let mut getters: Vec<ClientSession> = (0..GETS).map(|_| login(&w)).collect();
    let mut pairs: Vec<(ClientSession, ClientSession)> =
        (0..PAIRS).map(|_| (login(&w), login(&w))).collect();
    std::thread::scope(|scope| {
        // Same-server third-party pairs: each receiver sits in its STOR
        // until its sender's RETR gets to run.
        let movers: Vec<_> = pairs
            .iter_mut()
            .enumerate()
            .map(|(i, (src, dst))| {
                scope.spawn(move || {
                    let to = format!("/home/alice/copy-{i}");
                    transfer::third_party(src, SLOW_PATH, dst, &to, opts, None).unwrap()
                })
            })
            .collect();
        let gets: Vec<_> = getters
            .iter_mut()
            .map(|s| scope.spawn(move || transfer::get_bytes(s, SLOW_PATH, opts).unwrap()))
            .collect();
        // All of them at once: one per GET, two per pair.
        wait_for_transfers(&w, (GETS + 2 * PAIRS) as f64);
        // ... and the next user still gets in.
        let mut late = login(&w);
        assert_eq!(late.command(&Command::Noop).unwrap().code, 200);
        late.quit().unwrap();
        for g in gets {
            assert_eq!(g.join().unwrap(), data);
        }
        for m in movers {
            let outcome = m.join().unwrap();
            assert!(outcome.is_success(), "{outcome:?}");
        }
    });
    let root = UserContext::superuser();
    for i in 0..PAIRS {
        let copy = read_all(w.dsi.as_ref(), &root, &format!("/home/alice/copy-{i}"), 1 << 20);
        assert_eq!(copy.unwrap(), data, "third-party copy {i}");
    }
    wait_for_transfers(&w, 0.0);
    for s in getters.into_iter().chain(pairs.into_iter().flat_map(|(a, b)| [a, b])) {
        s.quit().unwrap();
    }
    w.server.shutdown();
}

#[test]
fn shutdown_closes_idle_sessions_and_lets_a_running_transfer_finish() {
    let (w, data) = slow_world();
    let opts = slow_opts();
    let mut busy = login(&w);
    let mut idle = TcpLink::connect(w.server.addr().to_socket_addr()).unwrap();
    assert!(idle.recv().unwrap().starts_with(b"220"));
    std::thread::scope(|scope| {
        let getter = scope.spawn(|| transfer::get_bytes(&mut busy, SLOW_PATH, &opts));
        wait_for_transfers(&w, 1.0);
        w.server.shutdown();
        // The idle session is closed under its client...
        idle.set_recv_timeout(Some(Duration::from_secs(10))).unwrap();
        let end = idle.recv().unwrap_err();
        assert_eq!(end.kind(), std::io::ErrorKind::UnexpectedEof, "{end}");
        // ... the transfer in flight still gets its bytes and its 226.
        assert_eq!(getter.join().unwrap().unwrap(), data);
    });
    wait_for_transfers(&w, 0.0);
}
