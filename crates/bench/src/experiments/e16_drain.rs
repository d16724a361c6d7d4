//! E16 — drain under load: retiring a hosted endpoint (§VI) without
//! losing acknowledged bytes.
//!
//! Three rounds, driven through the *real* admin unix socket (the same
//! wire an operator's tooling speaks):
//!
//! * **idle** — drain a server with no in-flight transfers, many times;
//!   the request→reply RTT distribution is the pure drain-path latency,
//!   and its p99 is budget-gated in CI.
//! * **busy/clean** — drain with a generous deadline while a throttled
//!   GET is mid-flight: the drain must wait for the transfer, report
//!   `clean`, and the client's bytes must verify.
//! * **forced checkpoint** — a chaos-injected third-party transfer into
//!   the draining server: a `Drop` fault in the source's data plane
//!   kills the attempt while a tiny-deadline drain interrupts the
//!   endpoint. The receiver's 111-marker checkpoint then seeds a resume
//!   against a replacement server sharing the same storage; the resumed
//!   attempt must move *only* the missing ranges (source `bytes_out`
//!   delta), and the final content must verify — zero acknowledged
//!   bytes lost, zero re-sent.

use crate::table;
use ig_client::{transfer, ClientConfig, ClientSession, RetryPolicy, TransferOpts};
use ig_pki::cert::Validity;
use ig_pki::time::Clock;
use ig_pki::{CertificateAuthority, Credential, DistinguishedName, Gridmap, TrustStore};
use ig_protocol::command::DcauMode;
use ig_server::dsi::read_all;
use ig_server::{Dsi, GridFtpServer, GridmapAuthz, MemDsi, ServerConfig, UserContext};
use ig_xio::{ChaosConfig, ChaosHook, FaultKind, FaultSpec, Link, TcpLink, Trigger};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NOW: u64 = 1_000_000;
const PAYLOAD_LEN: usize = 40_000;
const BLOCK: usize = 4 * 1024;
/// Server data-plane throttle for rounds that need a transfer to stay
/// in flight (~0.4–0.5 s at this rate).
const SLOW_RATE: f64 = 100_000.0;
/// Receiver stall detector: a permanent hole turns into a 426 (with the
/// checkpoint on the wire) this fast.
const STALL: Duration = Duration::from_millis(250);
/// CI gate: p99 idle-drain RTT through the admin socket.
pub const DRAIN_P99_BUDGET_MS: f64 = 250.0;

fn dn(s: &str) -> DistinguishedName {
    DistinguishedName::parse(s).unwrap()
}

fn payload() -> Vec<u8> {
    (0..PAYLOAD_LEN as u32).map(|i| (i * 41 % 251) as u8).collect()
}

fn sock_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ig-e16-{}-{}.sock", tag, std::process::id()))
}

/// Shared PKI world: one CA, host credentials minted per endpoint, one
/// mapped user.
struct World {
    ca_trust: TrustStore,
    gridmap: Gridmap,
    user_cred: Credential,
    host_creds: Vec<(String, Credential)>,
}

fn world(seed: u64, hosts: &[&str]) -> World {
    let mut rng = ig_crypto::rng::seeded(seed);
    let mut ca =
        CertificateAuthority::create(&mut rng, dn("/O=E16 CA"), 512, 0, NOW * 10).unwrap();
    let host_creds = hosts
        .iter()
        .map(|name| {
            let keys = ig_crypto::RsaKeyPair::generate(&mut rng, 512).unwrap();
            let cert = ca
                .issue(
                    dn(&format!("/CN={name}")),
                    &keys.public,
                    Validity::starting_at(0, NOW * 10),
                    vec![],
                )
                .unwrap();
            (name.to_string(), Credential::new(vec![cert], keys.private).unwrap())
        })
        .collect();
    let user_keys = ig_crypto::RsaKeyPair::generate(&mut rng, 512).unwrap();
    let user_cert = ca
        .issue(
            dn("/O=Grid/CN=Alice Smith"),
            &user_keys.public,
            Validity::starting_at(0, NOW * 10),
            vec![],
        )
        .unwrap();
    let mut ca_trust = TrustStore::new();
    ca_trust.add_root(ca.root_cert().clone());
    let mut gridmap = Gridmap::new();
    gridmap.add(&dn("/O=Grid/CN=Alice Smith"), "alice");
    World {
        ca_trust,
        gridmap,
        user_cred: Credential::new(vec![user_cert], user_keys.private).unwrap(),
        host_creds,
    }
}

impl World {
    fn host_cred(&self, name: &str) -> Credential {
        self.host_creds.iter().find(|(n, _)| n == name).expect("known host").1.clone()
    }

    /// Start an endpoint with its admin socket at `sock_path(tag)`.
    #[allow(clippy::too_many_arguments)]
    fn start(
        &self,
        name: &str,
        tag: &str,
        dsi: Arc<MemDsi>,
        obs: &Arc<ig_obs::Obs>,
        stripe_rate: Option<f64>,
        data_chaos: Option<Arc<ChaosHook>>,
        seed: u64,
    ) -> (Arc<GridFtpServer>, PathBuf) {
        let sock = sock_path(tag);
        let mut cfg = ServerConfig::new(
            name,
            self.host_cred(name),
            self.ca_trust.clone(),
            Arc::new(GridmapAuthz::new(self.gridmap.clone())),
            dsi as Arc<dyn Dsi>,
        )
        .with_clock(Clock::Fixed(NOW))
        .with_block_size(BLOCK)
        .with_stall_timeout(STALL)
        .with_obs(Arc::clone(obs))
        .with_admin_socket(sock.clone());
        if let Some(rate) = stripe_rate {
            cfg = cfg.with_stripes(1, Some(rate));
        }
        if let Some(hook) = data_chaos {
            cfg = cfg.with_data_chaos(hook);
        }
        (GridFtpServer::start(cfg, seed).unwrap(), sock)
    }

    fn session(&self, server: &GridFtpServer, seed: u64) -> ClientSession {
        let cfg = ClientConfig::new(self.user_cred.clone(), self.ca_trust.clone())
            .with_clock(Clock::Fixed(NOW))
            .with_seed(seed)
            .no_delegation()
            .with_retry(
                RetryPolicy::once().with_attempt_timeout(Some(Duration::from_secs(2))),
            );
        let tcp = TcpLink::connect(server.addr().to_socket_addr()).unwrap();
        let mut s = ClientSession::from_link(Box::new(tcp) as Box<dyn Link>, cfg).unwrap();
        s.login().unwrap();
        s.set_dcau(DcauMode::None).unwrap();
        s
    }
}

/// What a drain command reported, however it was driven.
struct DrainOutcome {
    clean: bool,
    waited_ms: u64,
    interrupted: u64,
}

/// Drive `drain` the way an operator does: over the admin unix socket
/// (hello handshake + one length-prefixed JSON frame each way). Returns
/// the parsed report and the request→reply RTT in milliseconds.
fn drive_drain(sock: &Path, deadline_ms: u64) -> (DrainOutcome, f64) {
    use ig_obs::json::{parse, Value};
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;

    let mut stream = UnixStream::connect(sock).expect("admin socket");
    stream.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
    stream.write_all(b"IGADMIN 1\n").unwrap();
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(0) => panic!("admin closed during handshake"),
            Ok(_) if byte[0] == b'\n' => break,
            Ok(_) => line.push(byte[0]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(e) => panic!("admin handshake: {e}"),
        }
    }
    assert_eq!(String::from_utf8_lossy(&line), "IGADMIN 1 OK");

    let req = format!("{{\"cmd\":\"drain\",\"deadline_ms\":{deadline_ms}}}");
    let started = Instant::now();
    stream.write_all(&ig_xio::FrameBuf::encode(req.as_bytes())).unwrap();
    let mut inbuf = ig_xio::FrameBuf::new();
    let mut chunk = [0u8; 4096];
    let frame = loop {
        if let Some(f) = inbuf.next_frame().unwrap() {
            break f;
        }
        match stream.read(&mut chunk) {
            Ok(0) => panic!("admin closed before the drain reply"),
            Ok(n) => inbuf.push(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(e) => panic!("admin read: {e}"),
        }
    };
    let rtt_ms = started.elapsed().as_secs_f64() * 1e3;
    let reply = parse(&String::from_utf8(frame).unwrap()).unwrap();
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true), "drain not ok");
    (
        DrainOutcome {
            clean: reply.get("clean").and_then(Value::as_bool).unwrap(),
            waited_ms: reply.get("waited_ms").and_then(Value::as_u64).unwrap(),
            interrupted: reply
                .get("transfers_interrupted")
                .and_then(Value::as_u64)
                .unwrap(),
        },
        rtt_ms,
    )
}

/// A busy/clean drain measurement.
pub struct BusyRow {
    /// Drain reported clean (waited out the in-flight GET).
    pub clean: bool,
    /// Transfers interrupted at the deadline (must be 0).
    pub interrupted: u64,
    /// How long the drain waited for quiescence.
    pub waited_ms: u64,
    /// The concurrent GET delivered the exact payload.
    pub content_ok: bool,
}

/// A forced checkpoint-and-resume measurement.
pub struct ForcedRow {
    /// Transfers still in flight when the tiny deadline expired.
    pub interrupted: u64,
    /// Bytes the receiver had acknowledged (checkpoint total).
    pub acked: u64,
    /// Bytes the resumed attempt moved (source bytes_out delta).
    pub resumed: u64,
    /// Bytes re-sent beyond the missing set (must be 0).
    pub resent: u64,
    /// Every acknowledged range matched the payload before the resume,
    /// and the final file verified byte-for-byte after it.
    pub content_ok: bool,
}

/// Full E16 results.
pub struct Results {
    /// Idle-drain RTTs (ms), through the admin socket.
    pub idle_rtt_ms: Vec<f64>,
    pub busy: BusyRow,
    pub forced: ForcedRow,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

impl Results {
    /// p50 of the idle-drain RTT distribution.
    pub fn idle_p50_ms(&self) -> f64 {
        let mut v = self.idle_rtt_ms.clone();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        percentile(&v, 0.50)
    }

    /// p99 of the idle-drain RTT distribution (the CI-gated number).
    pub fn idle_p99_ms(&self) -> f64 {
        let mut v = self.idle_rtt_ms.clone();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        percentile(&v, 0.99)
    }
}

fn idle_round(iteration: usize) -> f64 {
    let obs = ig_obs::Obs::new("e16-idle");
    let w = world(0xE16_000 + iteration as u64, &["e16.example.org"]);
    let dsi = Arc::new(MemDsi::new());
    let (server, sock) = w.start(
        "e16.example.org",
        &format!("idle{iteration}"),
        Arc::clone(&dsi),
        &obs,
        None,
        None,
        7 + iteration as u64,
    );
    // The server has done real work before retiring: one quick PUT.
    let mut s = w.session(&server, 40 + iteration as u64);
    let small: Vec<u8> = (0..2000u32).map(|i| (i % 251) as u8).collect();
    let opts = TransferOpts::default().block(BLOCK).timeout(Some(Duration::from_secs(2)));
    transfer::put_bytes(&mut s, "/home/alice/warm.bin", &small, &opts).unwrap();

    let (outcome, rtt_ms) = drive_drain(&sock, 2000);
    assert!(outcome.clean, "idle drain must be clean");
    assert_eq!(outcome.interrupted, 0);
    drop(s); // session's QUIT no longer matters; server is retiring
    rtt_ms
}

fn busy_round() -> BusyRow {
    let obs = ig_obs::Obs::new("e16-busy");
    let w = world(0xE16_100, &["e16.example.org"]);
    let dsi = Arc::new(MemDsi::new());
    let (server, sock) = w.start(
        "e16.example.org",
        "busy",
        Arc::clone(&dsi),
        &obs,
        Some(SLOW_RATE),
        None,
        17,
    );
    let data = payload();
    let mut s = w.session(&server, 50);
    let opts = TransferOpts::default().block(BLOCK).timeout(Some(Duration::from_secs(5)));
    transfer::put_bytes(&mut s, "/home/alice/busy.bin", &data, &opts).unwrap();

    // Throttled GET in flight while the operator drains with a generous
    // deadline: the drain waits it out.
    let getter = std::thread::spawn(move || {
        let got = transfer::get_bytes(&mut s, "/home/alice/busy.bin", &opts);
        drop(s);
        got
    });
    let deadline = Instant::now() + Duration::from_secs(5);
    while obs.metrics().gauge_value("server.transfers_active") < 1.0 {
        assert!(Instant::now() < deadline, "GET never became active");
        std::thread::sleep(Duration::from_millis(2));
    }
    let (outcome, _rtt) = drive_drain(&sock, 5000);
    let got = getter.join().unwrap();
    BusyRow {
        clean: outcome.clean,
        interrupted: outcome.interrupted,
        waited_ms: outcome.waited_ms,
        content_ok: got.map(|g| g == data).unwrap_or(false),
    }
}

fn forced_round() -> ForcedRow {
    let w = world(0xE16_200, &["e16-src.example.org", "e16-dst.example.org"]);
    let data = payload();

    // Source endpoint: throttled data plane with a seeded Drop fault
    // armed — record 5 of the server-to-server stream vanishes.
    let src_obs = ig_obs::Obs::new("e16-src");
    let src_dsi = Arc::new(MemDsi::new());
    src_dsi.put("/home/alice/e16.bin", &data);
    let hook = ChaosHook::disarmed(ChaosConfig::single(
        0xE16_5EED,
        FaultSpec::send(FaultKind::Drop, Trigger::OnRecord(5)),
    ));
    let (src, _src_sock) = w.start(
        "e16-src.example.org",
        "forced-src",
        Arc::clone(&src_dsi),
        &src_obs,
        Some(SLOW_RATE),
        Some(Arc::clone(&hook)),
        27,
    );

    // Destination endpoint A: the one being retired mid-transfer.
    let dst_obs = ig_obs::Obs::new("e16-dst");
    let dst_dsi = Arc::new(MemDsi::new());
    let (dst_a, dst_sock) = w.start(
        "e16-dst.example.org",
        "forced-dst",
        Arc::clone(&dst_dsi),
        &dst_obs,
        None,
        None,
        37,
    );

    // Chaos-injected third-party attempt, driven from its own thread so
    // the operator can drain mid-flight.
    let mut src_sess = w.session(&src, 60);
    let mut dst_sess = w.session(&dst_a, 61);
    let opts = TransferOpts::default().block(BLOCK).timeout(Some(Duration::from_secs(2)));
    hook.arm();
    let mover_opts = opts.clone();
    let mover = std::thread::spawn(move || {
        let r = transfer::third_party(
            &mut src_sess,
            "/home/alice/e16.bin",
            &mut dst_sess,
            "/home/alice/e16.bin",
            &mover_opts,
            None,
        );
        drop(src_sess);
        drop(dst_sess);
        r
    });
    let deadline = Instant::now() + Duration::from_secs(5);
    while dst_obs.metrics().gauge_value("server.transfers_active") < 1.0 {
        assert!(Instant::now() < deadline, "third-party receive never became active");
        std::thread::sleep(Duration::from_millis(2));
    }
    // Tiny deadline: the in-flight receive cannot finish in time.
    let (outcome, _rtt) = drive_drain(&dst_sock, 40);
    let attempt = mover.join().unwrap().expect("control channels survive the fault");
    hook.disarm();
    assert!(
        !attempt.is_success(),
        "the seeded Drop must fail the first attempt (dst {})",
        attempt.dst_reply.code
    );
    let checkpoint = attempt.checkpoint.clone();
    let acked = checkpoint.total();
    assert!(acked > 0, "receiver acknowledged nothing before the fault");
    assert!(
        !checkpoint.is_complete(data.len() as u64),
        "a dropped record cannot leave a complete file"
    );

    // Zero acknowledged bytes lost: every checkpointed range matches
    // the payload in the (shared) storage the replacement will serve.
    let root = UserContext::superuser();
    let partial = read_all(&*dst_dsi, &root, "/home/alice/e16.bin", 1 << 20).unwrap();
    let mut ranges_ok = true;
    for &(start, end) in checkpoint.ranges() {
        let (s, e) = (start as usize, end as usize);
        if partial.len() < e || partial[s..e] != data[s..e] {
            ranges_ok = false;
        }
    }

    // Replacement endpoint B on the same storage; the checkpoint seeds
    // the resume, so only the missing ranges move again.
    let (dst_b, _b_sock) = w.start(
        "e16-dst.example.org",
        "forced-dst2",
        Arc::clone(&dst_dsi),
        &ig_obs::Obs::new("e16-dst2"),
        None,
        None,
        47,
    );
    let sent_before = src_obs.metrics().counter_value("server.bytes_out");
    let mut src_sess = w.session(&src, 62);
    let mut dst_sess = w.session(&dst_b, 63);
    let resumed_outcome = transfer::third_party(
        &mut src_sess,
        "/home/alice/e16.bin",
        &mut dst_sess,
        "/home/alice/e16.bin",
        &opts,
        Some(&checkpoint),
    )
    .expect("resume attempt");
    assert!(
        resumed_outcome.is_success(),
        "resume must complete (dst {})",
        resumed_outcome.dst_reply.code
    );
    let resumed = src_obs.metrics().counter_value("server.bytes_out") - sent_before;
    let missing = data.len() as u64 - acked;
    let final_content = read_all(&*dst_dsi, &root, "/home/alice/e16.bin", 1 << 20).unwrap();

    drop(src_sess);
    drop(dst_sess);
    src.shutdown();
    dst_b.shutdown();
    ForcedRow {
        interrupted: outcome.interrupted,
        acked,
        resumed,
        resent: resumed.saturating_sub(missing),
        content_ok: ranges_ok && final_content == data,
    }
}

/// Run the sweep.
pub fn run(fast: bool) -> Results {
    let idle_n = if fast { 6 } else { 20 };
    Results {
        idle_rtt_ms: (0..idle_n).map(idle_round).collect(),
        busy: busy_round(),
        forced: forced_round(),
    }
}

/// Render the table.
pub fn table(fast: bool) -> String {
    let r = run(fast);
    let (b, f) = (&r.busy, &r.forced);
    let verified = |ok: bool| if ok { "content ok" } else { "CONTENT MISMATCH" }.to_string();
    let dash = || "-".to_string();
    let t = vec![
        vec![
            "round".to_string(),
            "drain".to_string(),
            "acked bytes".to_string(),
            "resumed".to_string(),
            "re-sent".to_string(),
            "verified".to_string(),
        ],
        vec![
            format!("idle x{}", r.idle_rtt_ms.len()),
            format!("p50 {:.1} ms / p99 {:.1} ms", r.idle_p50_ms(), r.idle_p99_ms()),
            dash(),
            dash(),
            dash(),
            format!("p99 budget {DRAIN_P99_BUDGET_MS:.0} ms"),
        ],
        vec![
            "busy (waits)".to_string(),
            format!("clean={} waited {} ms", b.clean, b.waited_ms),
            dash(),
            dash(),
            dash(),
            verified(b.content_ok),
        ],
        vec![
            "forced ckpt".to_string(),
            format!("interrupted={}", f.interrupted),
            table::fmt_bytes(f.acked),
            table::fmt_bytes(f.resumed),
            table::fmt_bytes(f.resent),
            verified(f.content_ok),
        ],
    ];
    format!(
        "{}(drain driven over the admin unix socket; forced round: seeded Drop fault + 40 ms deadline, then 111-checkpoint resume onto a replacement server sharing the DSI)\n",
        table::render(&t)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The CI gate from ISSUE 10: bounded drain p99, zero acknowledged
    /// bytes lost under chaos, and nothing re-sent on resume.
    #[test]
    fn drain_p99_bounded_and_no_acked_bytes_lost() {
        let _serial = crate::experiments::common::bench_lock();
        let r = run(true);
        assert!(
            r.idle_p99_ms() <= DRAIN_P99_BUDGET_MS,
            "idle drain p99 {:.1} ms blew the {:.0} ms budget",
            r.idle_p99_ms(),
            DRAIN_P99_BUDGET_MS
        );
        let (b, f) = (&r.busy, &r.forced);
        assert!(b.clean, "busy drain must wait out the transfer");
        assert_eq!(b.interrupted, 0, "generous deadline must interrupt nothing");
        assert!(b.content_ok, "in-flight GET lost bytes");
        assert!(f.interrupted >= 1, "tiny deadline must report the in-flight transfer");
        assert!(f.acked > 0, "receiver checkpointed nothing");
        assert_eq!(f.resent, 0, "resume re-sent acknowledged bytes");
        assert!(f.content_ok, "acknowledged bytes lost");
    }
}
