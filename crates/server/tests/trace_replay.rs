//! Chaos-replay trace determinism: one failing chaos cell run twice
//! under the same seed must produce **byte-identical** stable trace
//! exports — the property that makes a trace diffable across replays.
//!
//! Client and server talk over TCP loopback, but every event field in
//! the stable export is a pure function of seeds and causal order (no
//! ports, no wall-clock), and the reactor records metrics and unstable
//! events only, so the whole JSONL document reproduces although
//! ephemeral ports and epoll scheduling differ between runs.
//!
//! When `IG_TRACE=path` is set, the test also appends the stable export
//! to `path` — `scripts/ci.sh` runs the test twice into two files and
//! `cmp`s them byte-for-byte.

use ig_client::{transfer, ClientConfig, ClientSession, RetryPolicy, TransferOpts};
use ig_pki::cert::Validity;
use ig_pki::time::Clock;
use ig_pki::{CertificateAuthority, Credential, DistinguishedName, Gridmap, TrustStore};
use ig_protocol::command::DcauMode;
use ig_server::{Dsi, GridFtpServer, GridmapAuthz, MemDsi, ServerConfig};
use ig_xio::{ChaosConfig, ChaosHook, FaultKind, FaultSpec, Link, TcpLink, Trigger};
use std::sync::Arc;
use std::time::Duration;

const NOW: u64 = 1_000_000;
const SEED: u64 = 0xD15EA5E;
const PAYLOAD_LEN: usize = 40_000;

fn dn(s: &str) -> DistinguishedName {
    DistinguishedName::parse(s).unwrap()
}

fn payload() -> Vec<u8> {
    (0..PAYLOAD_LEN as u32).map(|i| (i * 37 % 251) as u8).collect()
}

/// Collapse an error to a replay-stable class (OS error text may vary).
fn classify(e: &ig_client::ClientError) -> String {
    match e {
        ig_client::ClientError::ServerError(r) => format!("server-{}", r.code),
        ig_client::ClientError::Timeout(_) => "timeout".into(),
        other => format!("{:?}", std::mem::discriminant(other)),
    }
}

/// Incremental stable-trace reader over the `export_stable_since`
/// cursor — the same access pattern the admin plane's `trace follow`
/// uses. Draining at checkpoints instead of one full-buffer re-export
/// at the end also keeps each read proportional to what's new.
struct CursorStream {
    cursor: u64,
    jsonl: String,
}

impl CursorStream {
    fn new() -> Self {
        CursorStream { cursor: 0, jsonl: String::new() }
    }

    fn drain(&mut self, obs: &ig_obs::Obs) {
        let chunk = obs.export_stable_since(self.cursor);
        assert_eq!(chunk.dropped, 0, "stable ring must not wrap under test load");
        assert!(chunk.next >= self.cursor, "cursor must be monotone");
        self.cursor = chunk.next;
        self.jsonl.push_str(&chunk.jsonl);
    }

    /// Final drain, then check the incremental stream reassembled the
    /// exact one-shot export before handing it back.
    fn finish(mut self, obs: &ig_obs::Obs) -> String {
        self.drain(obs);
        assert_eq!(
            self.jsonl,
            obs.export_stable(),
            "cursor-streamed stable trace must equal the one-shot export"
        );
        self.jsonl
    }
}

/// One failing-then-recovering PUT under a seeded Drop fault, with
/// private client/server observability hubs. Returns the combined
/// stable export (client block then server block).
fn run_cell() -> String {
    let server_obs = ig_obs::Obs::new("server");
    let client_obs = ig_obs::Obs::new("client");

    let mut rng = ig_crypto::rng::seeded(SEED);
    let mut ca =
        CertificateAuthority::create(&mut rng, dn("/O=Replay CA"), 512, 0, NOW * 10).unwrap();
    let host_keys = ig_crypto::RsaKeyPair::generate(&mut rng, 512).unwrap();
    let host_cert = ca
        .issue(
            dn("/CN=replay.example.org"),
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
    let server_cfg = ServerConfig::new(
        "replay.example.org",
        Credential::new(vec![host_cert], host_keys.private).unwrap(),
        trust.clone(),
        Arc::new(GridmapAuthz::new(gridmap)),
        Arc::clone(&dsi) as Arc<dyn Dsi>,
    )
    .with_clock(Clock::Fixed(NOW))
    .with_stall_timeout(Duration::from_millis(250))
    .with_obs(Arc::clone(&server_obs));
    let server = GridFtpServer::start(server_cfg, SEED + 1).unwrap();

    let client_cfg = ClientConfig::new(
        Credential::new(vec![user_cert], user_keys.private).unwrap(),
        trust,
    )
    .with_clock(Clock::Fixed(NOW))
    .with_seed(SEED + 2)
    .no_delegation()
    .with_retry(RetryPolicy::once().with_attempt_timeout(Some(Duration::from_millis(800))))
    .with_obs(Arc::clone(&client_obs));
    let link: Box<dyn Link> =
        Box::new(TcpLink::connect(server.addr().to_socket_addr()).unwrap());
    let mut session = ClientSession::from_link(link, client_cfg).unwrap();
    session.login().unwrap();
    session.set_dcau(DcauMode::None).unwrap();

    // Stream both stable traces incrementally through the cursor API as
    // the scenario progresses (login / recovery / teardown checkpoints)
    // rather than re-exporting the full ring once at the end.
    let mut client_stream = CursorStream::new();
    let mut server_stream = CursorStream::new();
    client_stream.drain(&client_obs);
    server_stream.drain(&server_obs);

    // The chaos cell: drop the second data record on the first attempt.
    let hook = ChaosHook::disarmed(ChaosConfig::single(
        SEED + 3,
        FaultSpec::send(FaultKind::Drop, Trigger::OnRecord(1)),
    ));
    hook.set_obs(&client_obs);
    let data = payload();
    let opts = TransferOpts::default()
        .block(8 * 1024)
        .timeout(Some(Duration::from_millis(500)))
        .chaos(Arc::clone(&hook));
    hook.arm();
    let result = RetryPolicy::immediate(3).run_with_obs(&client_obs, "put", |attempt| {
        if attempt > 1 {
            hook.disarm(); // fault budget spent; recovery attempt runs clean
        }
        transfer::put_bytes(&mut session, "/home/alice/replay.bin", &data, &opts)
            .map_err(|e| classify(&e))
    });
    assert!(result.is_ok(), "PUT never recovered: {:?}", result.err().map(|e| e.to_string()));
    assert_eq!(hook.total_fires(), 1, "the seeded fault must fire exactly once");
    client_stream.drain(&client_obs);
    server_stream.drain(&server_obs);
    session.quit().unwrap();
    // Session teardown (and so the server's `span.end`) happens on the
    // reactor thread after QUIT completes; wait for it before exporting.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server_obs.metrics().gauge_value("server.sessions_active") != 0.0 {
        assert!(std::time::Instant::now() < deadline, "server session never tore down");
        std::thread::sleep(Duration::from_millis(5));
    }
    server.shutdown();

    format!("{}{}", client_stream.finish(&client_obs), server_stream.finish(&server_obs))
}

#[test]
fn stable_trace_is_byte_identical_across_replays() {
    // Take `$IG_TRACE` out of the environment before any session runs:
    // `dump_if_env` fires when a client session or a server ends, and
    // those appends would land in the file CI byte-compares.
    let trace_path = std::env::var("IG_TRACE").ok().filter(|p| !p.is_empty());
    std::env::remove_var("IG_TRACE");

    let first = run_cell();
    let second = run_cell();
    assert_eq!(first, second, "stable exports must replay byte-identically");

    // The trace carries the whole story: the fault that fired (with its
    // trigger and seed), the retry that recovered, the commands that
    // drove the session, and span-scoped structure.
    assert!(first.contains("\"event\":\"chaos.fault\""), "missing chaos.fault:\n{first}");
    assert!(first.contains("\"kind\":\"Drop\""), "fault kind missing:\n{first}");
    assert!(first.contains(&format!("\"seed\":{}", SEED + 3)), "fault seed missing");
    assert!(first.contains("\"event\":\"retry.attempt\""), "missing retry.attempt");
    assert!(first.contains("\"op\":\"put\",\"attempt\":2"), "missing recovery attempt");
    assert!(first.contains("\"event\":\"cmd.dispatch\""), "missing cmd.dispatch");
    assert!(first.contains("\"name\":\"session\""), "missing session span");
    assert!(first.contains("\"name\":\"transfer\""), "missing transfer span");
    // Span ids: at least one event anchored to a non-root span.
    assert!(first.contains("\"span\":1"), "span ids missing:\n{first}");
    // Both components exported, and the reactor that multiplexed the
    // session left no noise of its own in the protocol's story.
    assert!(first.contains("\"component\":\"client\""));
    assert!(first.contains("\"component\":\"server\""));
    assert!(!first.contains("reactor"), "reactor internals leaked into stable trace");

    // CI's replay gate: append this run's stable trace to $IG_TRACE,
    // then `cmp` the files from two separate process invocations.
    if let Some(path) = trace_path {
        use std::io::Write as _;
        let mut f =
            std::fs::OpenOptions::new().create(true).append(true).open(&path).unwrap();
        f.write_all(first.as_bytes()).unwrap();
    }
}
