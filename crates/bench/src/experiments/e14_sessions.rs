//! E14 — session scalability: what the server's reactor costs per
//! *idle* session, and what command latency looks like once a herd of
//! them sits on the server while real transfers run.
//!
//! The claim under test: the epoll reactor holds an order of magnitude
//! more idle control sessions than a thread per session did (the
//! deleted core's last row is [`THREAD_PER_SESSION`]) at a fraction of
//! the resident memory, with p99 command RTT staying within 2x of a warm
//! 100-session baseline. The measurement:
//!
//! 1. warm p99 NOOP RTT with ~100 sessions held,
//! 2. grow the herd to the target, reading `/proc/self/statm` before
//!    and after for a per-idle-session resident delta,
//! 3. p99 NOOP RTT again while the full herd sits there **and** 50
//!    authenticated PUT transfers run concurrently.
//!
//! When `IG_E14_EXE` points at the `report` binary (the binary sets it
//! itself), the herd is held by a helper subprocess (`--e14-hold`) so
//! client-side socket state stays out of this process's RSS *and* out
//! of its file-descriptor budget — that is what lets the full run reach
//! 10k reactor sessions under a 20k `RLIMIT_NOFILE`. Without the
//! helper (in-crate tests), the herd is held in-process at smaller
//! counts and the RSS delta includes the client ends of the sockets.

use crate::experiments::common;
use crate::table;
use ig_client::{transfer, ClientConfig, ClientSession, RetryPolicy, TransferOpts};
use ig_pki::cert::Validity;
use ig_pki::time::Clock;
use ig_pki::{CertificateAuthority, Credential, DistinguishedName, Gridmap, TrustStore};
use ig_protocol::command::DcauMode;
use ig_server::{Dsi, GridFtpServer, GridmapAuthz, MemDsi, ServerConfig};
use ig_xio::{Link, TcpLink};
use std::io::{BufRead, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Environment variable naming an executable that understands
/// `--e14-hold <addr> <count>` (the `report` binary names itself).
pub const HELPER_ENV: &str = "IG_E14_EXE";

const BASELINE_SESSIONS: usize = 100;
const ACTIVE_TRANSFERS: usize = 50;
const PUT_LEN: usize = 64 * 1024;

/// The last row measured on the thread-per-session core before PR 16
/// deleted it (`report --exp e14`, full herd, 2 vCPUs, `deps=shims`;
/// EXPERIMENTS.md, "PR 16 — last two-core measurement"): idle sessions
/// held, resident bytes per idle session.
pub const THREAD_PER_SESSION: (usize, f64) = (1_000, 14.8 * 1024.0);

/// One measured herd.
pub struct Row {
    /// Row label (`reactor`; `scripts/ci.sh` selects the row by it).
    pub label: &'static str,
    /// Idle sessions actually held at measurement time.
    pub held: usize,
    /// Resident-memory delta per idle session, bytes (`None` when
    /// `/proc/self/statm` is unavailable).
    pub rss_per_session: Option<f64>,
    /// p99 NOOP RTT with [`BASELINE_SESSIONS`] held.
    pub p99_warm: Duration,
    /// p99 NOOP RTT with the full herd held and the PUTs running.
    pub p99_loaded: Duration,
}

struct World {
    server: Arc<GridFtpServer>,
    server_obs: Arc<ig_obs::Obs>,
    user_cred: Credential,
    trust: TrustStore,
}

fn dn(s: &str) -> DistinguishedName {
    DistinguishedName::parse(s).unwrap()
}

fn world(seed: u64) -> World {
    let server_obs = ig_obs::Obs::new("e14-server");
    let mut rng = ig_crypto::rng::seeded(seed);
    let mut ca = CertificateAuthority::create(&mut rng, dn("/O=E14 CA"), 512, 0, common::NOW * 10)
        .expect("ca");
    let host_keys = ig_crypto::RsaKeyPair::generate(&mut rng, 512).expect("host keys");
    let host_cert = ca
        .issue(
            dn("/CN=e14.example.org"),
            &host_keys.public,
            Validity::starting_at(0, common::NOW * 10),
            vec![],
        )
        .expect("host cert");
    let user_keys = ig_crypto::RsaKeyPair::generate(&mut rng, 512).expect("user keys");
    let user_cert = ca
        .issue(
            dn("/O=Grid/CN=Alice Smith"),
            &user_keys.public,
            Validity::starting_at(0, common::NOW * 10),
            vec![],
        )
        .expect("user cert");
    let mut trust = TrustStore::new();
    trust.add_root(ca.root_cert().clone());
    let mut gridmap = Gridmap::new();
    gridmap.add(&dn("/O=Grid/CN=Alice Smith"), "alice");
    let cfg = ServerConfig::new(
        "e14.example.org",
        Credential::new(vec![host_cert], host_keys.private).expect("host cred"),
        trust.clone(),
        Arc::new(GridmapAuthz::new(gridmap)),
        Arc::new(MemDsi::new()) as Arc<dyn Dsi>,
    )
    .with_clock(Clock::Fixed(common::NOW))
    .with_stall_timeout(Duration::from_secs(10))
    .with_obs(Arc::clone(&server_obs));
    World {
        server: GridFtpServer::start(cfg, seed).expect("server"),
        server_obs,
        user_cred: Credential::new(vec![user_cert], user_keys.private).expect("user cred"),
        trust,
    }
}

/// A held herd of idle sessions: client ends either live in this
/// process or in a `--e14-hold` helper subprocess.
enum Holder {
    InProc(Vec<TcpLink>),
    Remote(std::process::Child),
}

impl Holder {
    fn release(self) {
        match self {
            Holder::InProc(links) => drop(links),
            Holder::Remote(mut child) => {
                // Closing stdin tells the helper to hang up its herd.
                drop(child.stdin.take());
                let _ = child.wait();
            }
        }
    }
}

/// Connect `n` idle sessions to `addr` (banner consumed, then silence).
/// Returns the holder and how many actually connected.
fn hold(addr: std::net::SocketAddr, n: usize) -> (Holder, usize) {
    if let Ok(exe) = std::env::var(HELPER_ENV) {
        match hold_remote(&exe, addr, n) {
            Ok(pair) => return pair,
            Err(e) => eprintln!("e14: helper failed ({e}); holding in-process"),
        }
    }
    let mut links = Vec::with_capacity(n);
    for _ in 0..n {
        let mut link = match TcpLink::connect(addr) {
            Ok(l) => l,
            Err(_) => break, // fd budget: hold what we got
        };
        if !link.recv().map(|b| b.starts_with(b"220")).unwrap_or(false) {
            break;
        }
        links.push(link);
    }
    let held = links.len();
    (Holder::InProc(links), held)
}

fn hold_remote(
    exe: &str,
    addr: std::net::SocketAddr,
    n: usize,
) -> std::io::Result<(Holder, usize)> {
    let mut child = std::process::Command::new(exe)
        .arg("--e14-hold")
        .arg(addr.to_string())
        .arg(n.to_string())
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()?;
    let stdout = child.stdout.take().expect("helper stdout");
    let mut line = String::new();
    std::io::BufReader::new(stdout).read_line(&mut line)?;
    let held: usize = line
        .trim()
        .strip_prefix("HELD ")
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            let _ = child.kill();
            std::io::Error::other(format!("bad helper greeting {line:?}"))
        })?;
    Ok((Holder::Remote(child), held))
}

/// The `--e14-hold` helper body: connect, report, sit, hang up on EOF.
/// Called by the `report` binary's `main` — never returns.
pub fn hold_main(addr: &str, count: &str) -> ! {
    let addr: std::net::SocketAddr = addr.parse().expect("e14-hold addr");
    let count: usize = count.parse().expect("e14-hold count");
    let mut links = Vec::with_capacity(count);
    for _ in 0..count {
        let mut link = match TcpLink::connect(addr) {
            Ok(l) => l,
            Err(_) => break,
        };
        if !link.recv().map(|b| b.starts_with(b"220")).unwrap_or(false) {
            break;
        }
        links.push(link);
    }
    println!("HELD {}", links.len());
    std::io::stdout().flush().expect("flush");
    // Sit until the parent closes our stdin.
    let mut sink = String::new();
    while std::io::stdin().read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
        sink.clear();
    }
    drop(links);
    std::process::exit(0);
}

/// p99 of `probes` NOOP round trips on a fresh pre-auth connection.
fn p99_noop(addr: std::net::SocketAddr, probes: usize) -> Duration {
    let mut link = TcpLink::connect(addr).expect("probe connect");
    let banner = link.recv().expect("probe banner");
    assert!(banner.starts_with(b"220"));
    let mut rtts = Vec::with_capacity(probes);
    for _ in 0..probes {
        let t0 = Instant::now();
        link.send(b"NOOP").expect("probe send");
        let reply = link.recv().expect("probe recv");
        rtts.push(t0.elapsed());
        assert!(reply.starts_with(b"200"), "NOOP got {:?}", String::from_utf8_lossy(&reply));
    }
    link.send(b"QUIT").expect("probe quit");
    let _ = link.recv();
    rtts.sort_unstable();
    rtts[rtts.len() * 99 / 100]
}

fn login(w: &World, seed: u64) -> ClientSession {
    let cfg = ClientConfig::new(w.user_cred.clone(), w.trust.clone())
        .with_clock(Clock::Fixed(common::NOW))
        .with_seed(seed)
        .no_delegation()
        .with_retry(RetryPolicy::once().with_attempt_timeout(Some(Duration::from_secs(30))));
    let link: Box<dyn Link> =
        Box::new(TcpLink::connect(w.server.addr().to_socket_addr()).expect("login connect"));
    let mut session = ClientSession::from_link(link, cfg).expect("handshake");
    session.login().expect("login");
    session.set_dcau(DcauMode::None).expect("dcau");
    session
}

fn wait_sessions_at_least(w: &World, n: f64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while w.server_obs.metrics().gauge_value("server.sessions_active") < n {
        assert!(Instant::now() < deadline, "server never registered {n} sessions");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn wait_sessions_zero(w: &World) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while w.server_obs.metrics().gauge_value("server.sessions_active") != 0.0 {
        if Instant::now() >= deadline {
            return; // informational teardown; don't wedge the report
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Measure the server at one herd size.
fn measure(target: usize, actives: usize, probes: usize) -> Row {
    let w = world(0xE14 + target as u64);
    let addr = w.server.addr().to_socket_addr();

    // Warm baseline: ~100 held sessions, quiet server.
    let (warm_holder, warm_held) = hold(addr, BASELINE_SESSIONS.min(target));
    wait_sessions_at_least(&w, warm_held as f64);
    let p99_warm = p99_noop(addr, probes);

    // Grow the herd, bracketing with resident-memory reads.
    let rss0 = ig_obs::process::resident_bytes();
    let grow = target.saturating_sub(warm_held);
    let (herd_holder, grown) = hold(addr, grow);
    let held = warm_held + grown;
    wait_sessions_at_least(&w, held as f64);
    let rss_per_session = match (rss0, ig_obs::process::resident_bytes()) {
        (Some(a), Some(b)) if grown > 0 => {
            Some(b.saturating_sub(a) as f64 / grown as f64)
        }
        _ => None,
    };

    // Active load: authenticated PUTs in their own threads, racing the
    // loaded RTT probe. Logins are serialized first (they are CPU-bound
    // RSA work that would otherwise pollute the RTT measurement window
    // far more than the transfers do).
    let sessions: Vec<ClientSession> =
        (0..actives).map(|i| login(&w, 0x5E55 + i as u64)).collect();
    let threads: Vec<_> = sessions
        .into_iter()
        .enumerate()
        .map(|(i, mut s)| {
            std::thread::spawn(move || {
                let data: Vec<u8> =
                    (0..PUT_LEN as u32).map(|b| (b * 11 % 241) as u8).collect();
                let opts = TransferOpts::default()
                    .block(8 * 1024)
                    .timeout(Some(Duration::from_secs(30)));
                let sent = transfer::put_bytes(
                    &mut s,
                    &format!("/home/alice/e14-{i}.bin"),
                    &data,
                    &opts,
                )
                .expect("put");
                assert_eq!(sent, PUT_LEN as u64);
                s.quit().expect("quit");
            })
        })
        .collect();
    let p99_loaded = p99_noop(addr, probes);
    for t in threads {
        t.join().expect("active transfer");
    }

    warm_holder.release();
    herd_holder.release();
    w.server.shutdown();
    wait_sessions_zero(&w);

    Row { label: "reactor", held, rss_per_session, p99_warm, p99_loaded }
}

/// Measure the herd: the full target is the 10k claim.
pub fn run(fast: bool) -> Row {
    let _guard = common::bench_lock();
    let (target, probes) = if fast { (2_000, 150) } else { (10_000, 400) };
    measure(target, ACTIVE_TRANSFERS, probes)
}

fn fmt_rss(r: Option<f64>) -> String {
    match r {
        Some(b) => format!("{:.1} KiB", b / 1024.0),
        None => "n/a".into(),
    }
}

fn fmt_ms(d: Duration) -> String {
    format!("{:.2} ms", d.as_secs_f64() * 1e3)
}

/// Render the table plus the claim note.
pub fn table(fast: bool) -> String {
    let r = run(fast);
    let t = vec![
        vec![
            "core".to_string(),
            "idle sessions held".to_string(),
            "RSS per idle session".to_string(),
            format!("p99 NOOP ({BASELINE_SESSIONS} held)"),
            format!("p99 NOOP (herd + {ACTIVE_TRANSFERS} PUTs)"),
        ],
        vec![
            r.label.to_string(),
            r.held.to_string(),
            fmt_rss(r.rss_per_session),
            fmt_ms(r.p99_warm),
            fmt_ms(r.p99_loaded),
        ],
    ];
    let (old_held, old_rss) = THREAD_PER_SESSION;
    let ratio = match r.rss_per_session {
        Some(b) if b > 0.0 => format!("{:.1}x", old_rss / b),
        _ => "n/a".into(),
    };
    format!(
        "{}(claim: the reactor holds 10k+ idle control sessions on one \
         thread at kilobytes per session, p99 command RTT within 2x of the \
         {BASELINE_SESSIONS}-session baseline; the thread-per-session core \
         was last measured holding {old_held} at {}, memory ratio against \
         that row: {ratio}; herd: {})\n",
        table::render(&t),
        fmt_rss(Some(old_rss)),
        if fast { "fast (2k)" } else { "full (10k)" },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small-herd structural check: the reactor holds its whole
    /// (reduced) herd, and the loaded p99 stays inside a deliberately
    /// loose absolute budget — re-measured (bounded) so a transient CI
    /// load spike cannot flake tier-1. The real sizes run from the
    /// `report` binary / `scripts/ci.sh`.
    #[test]
    fn small_herd_is_held_whole_and_answers() {
        let _guard = common::bench_lock();
        ig_xio::test_support::retry_measurement(2, "e14 small herd", || {
            let r = measure(300, 4, 50);
            assert_eq!(r.held, 300, "the reactor shed part of its herd");
            assert!(r.p99_warm > Duration::ZERO);
            if r.p99_loaded < Duration::from_secs(5) {
                Ok(())
            } else {
                Err(format!("loaded p99 {:?} over the smoke budget", r.p99_loaded))
            }
        });
    }

    #[test]
    fn note_carries_the_claim() {
        // Render path only — reuse tiny herds via the private pieces.
        let rows = [Row {
            label: "reactor",
            held: 2000,
            rss_per_session: Some(4096.0),
            p99_warm: Duration::from_micros(800),
            p99_loaded: Duration::from_millis(2),
        }];
        let mut t = vec![vec!["core".into(), "held".into()]];
        for r in &rows {
            t.push(vec![r.label.into(), r.held.to_string()]);
        }
        let rendered = format!("{}(claim: the reactor holds 10k+)\n", table::render(&t));
        let (_, parsed, notes) = table::parse_rendered(&rendered);
        assert_eq!(parsed.len(), 1);
        assert!(notes.iter().any(|n| n.contains("claim: the reactor holds 10k+")));
    }
}
