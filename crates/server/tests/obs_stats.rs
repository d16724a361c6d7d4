//! The SITE STATS surface and the client's live progress series.
//!
//! Two contracts:
//! * `SITE STATS` returns one JSON line whose metric counters agree with
//!   the usage accounting in `usage.rs` — they are incremented at the
//!   same call sites, and this test holds them to it after a real PUT
//!   and GET over TCP loopback.
//! * 112 perf markers arriving on the control channel during a GET are
//!   parsed into a live progress series via `TransferOpts::on_progress`,
//!   and the same bytes land in the client's metrics registry.

use ig_client::{transfer, ClientConfig, ClientSession, RetryPolicy, TransferOpts};
use ig_pki::cert::Validity;
use ig_pki::time::Clock;
use ig_pki::{CertificateAuthority, Credential, DistinguishedName, Gridmap, TrustStore};
use ig_protocol::command::{Command, DcauMode};
use ig_server::{Dsi, GridFtpServer, GridmapAuthz, MemDsi, ServerConfig};
use ig_xio::{Link, TcpLink};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const NOW: u64 = 1_000_000;
const PAYLOAD_LEN: usize = 40_000;
/// Server data plane is throttled well below loopback speed so the GET
/// spans several 50 ms marker periods and 112s actually fire.
const STRIPE_RATE: f64 = 80_000.0;
const BLOCK: usize = 4 * 1024;

fn dn(s: &str) -> DistinguishedName {
    DistinguishedName::parse(s).unwrap()
}

fn payload() -> Vec<u8> {
    (0..PAYLOAD_LEN as u32).map(|i| (i * 13 % 251) as u8).collect()
}

#[test]
fn site_stats_agrees_with_usage_and_markers_drive_progress() {
    let server_obs = ig_obs::Obs::new("stats-server");
    let client_obs = ig_obs::Obs::new("stats-client");

    let mut rng = ig_crypto::rng::seeded(0x57A75);
    let mut ca =
        CertificateAuthority::create(&mut rng, dn("/O=Stats CA"), 512, 0, NOW * 10).unwrap();
    let host_keys = ig_crypto::RsaKeyPair::generate(&mut rng, 512).unwrap();
    let host_cert = ca
        .issue(
            dn("/CN=stats.example.org"),
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
        "stats.example.org",
        Credential::new(vec![host_cert], host_keys.private).unwrap(),
        trust.clone(),
        Arc::new(GridmapAuthz::new(gridmap)),
        Arc::clone(&dsi) as Arc<dyn Dsi>,
    )
    .with_clock(Clock::Fixed(NOW))
    .with_stripes(1, Some(STRIPE_RATE))
    .with_block_size(BLOCK)
    .with_stall_timeout(Duration::from_secs(3))
    .with_obs(Arc::clone(&server_obs));
    let server = GridFtpServer::start(cfg, 7).unwrap();

    let client_cfg = ClientConfig::new(
        Credential::new(vec![user_cert], user_keys.private).unwrap(),
        trust,
    )
    .with_clock(Clock::Fixed(NOW))
    .with_seed(99)
    .no_delegation()
    .with_retry(RetryPolicy::once().with_attempt_timeout(Some(Duration::from_secs(5))))
    .with_obs(Arc::clone(&client_obs));
    let tcp = TcpLink::connect(server.addr().to_socket_addr()).unwrap();
    let link: Box<dyn Link> = Box::new(tcp);
    let mut session = ClientSession::from_link(link, client_cfg).unwrap();
    session.login().unwrap();
    session.set_dcau(DcauMode::None).unwrap();

    let data = payload();
    let opts =
        TransferOpts::default().block(BLOCK).timeout(Some(Duration::from_secs(5)));
    let sent = transfer::put_bytes(&mut session, "/home/alice/obs.bin", &data, &opts).unwrap();
    assert_eq!(sent, PAYLOAD_LEN as u64);

    // GET with a live progress callback fed by 112 markers.
    let series: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&series);
    let opts_get = opts.clone().on_progress(move |m| sink.lock().unwrap().push(m.stripe_bytes));
    let got = transfer::get_bytes(&mut session, "/home/alice/obs.bin", &opts_get).unwrap();
    assert_eq!(got, data);

    // The throttled transfer must have produced a usable progress curve:
    // non-empty, monotone, and bounded by the file size.
    let series = series.lock().unwrap().clone();
    assert!(!series.is_empty(), "no 112 markers reached on_progress");
    for w in series.windows(2) {
        assert!(w[0] <= w[1], "progress series must be monotone: {series:?}");
    }
    let last = *series.last().unwrap();
    assert!(last > 0 && last <= PAYLOAD_LEN as u64, "bad final progress {last}");

    // The same markers landed in the client registry.
    let m = client_obs.metrics();
    assert_eq!(m.counter_value("client.perf_markers"), series.len() as u64);
    assert_eq!(m.gauge_value("client.transfer_progress_bytes"), last as f64);

    // `OPTS DATA` is not a verb this server speaks: `FEAT` does not offer
    // it, and it is answered like any other unknown `OPTS` target.
    let feat = session.command(&Command::Feat).unwrap();
    assert!(!feat.lines.iter().any(|l| l.contains("DATA")), "FEAT offers DATA: {feat}");
    let opts_reply = |session: &mut ClientSession, target: &str| {
        let opts = Command::Opts { target: target.into(), params: "Transport=udp;".into() };
        session.command(&opts).unwrap().to_string()
    };
    assert_eq!(opts_reply(&mut session, "DATA"), opts_reply(&mut session, "BOGUS"));

    // SITE STATS: one JSON line combining usage totals with the metrics
    // snapshot — counters must agree with usage.rs exactly.
    let reply = session.command(&Command::Site("STATS".into())).unwrap();
    assert_eq!(reply.code, 250);
    let stats = reply.text().to_string();
    let usage = &server.config().usage;
    assert_eq!(usage.total_transfers(), 2);
    assert_eq!(usage.total_bytes(), 2 * PAYLOAD_LEN as u64);
    assert!(
        stats.contains(&format!(
            "\"usage\":{{\"transfers\":{},\"bytes\":{}}}",
            usage.total_transfers(),
            usage.total_bytes()
        )),
        "usage totals missing from SITE STATS: {stats}"
    );
    for needle in [
        "\"server.transfers_in\":1".to_string(),
        "\"server.transfers_out\":1".to_string(),
        format!("\"server.bytes_in\":{PAYLOAD_LEN}"),
        format!("\"server.bytes_out\":{PAYLOAD_LEN}"),
    ] {
        assert!(stats.contains(&needle), "missing {needle} in SITE STATS: {stats}");
    }
    // The shared serializer pre-registers the scheduler counters, so the
    // stats *shape* is stable even with no scheduler attached —
    // dashboards can rely on the keys existing, zero-valued, from the
    // first scrape.
    for needle in [
        "\"gol.sched.submitted\":0",
        "\"gol.sched.grants\":0",
        "\"gol.sched.rejects\":0",
        "\"gol.sched.queue_full\":0",
    ] {
        assert!(stats.contains(needle), "missing {needle} in SITE STATS: {stats}");
    }
    // No dead keys: the one data transport is TCP (PR 21), so nothing
    // registers a `udp.*` metric and no surface names one.
    assert!(!stats.contains("\"udp."), "dead udp.* key in SITE STATS: {stats}");
    // The command loop itself is instrumented.
    assert!(stats.contains("\"server.commands\":"), "missing command counter: {stats}");
    assert!(stats.contains("\"server.cmd_rtt_ns\":"), "missing RTT histogram: {stats}");
    assert!(stats.contains("\"component\":\"stats-server\""), "wrong component: {stats}");
    // The live-session gauge counts this one session.
    assert!(
        stats.contains("\"server.sessions_active\":1"),
        "live-session gauge missing or wrong in SITE STATS: {stats}"
    );

    // One serializer, two surfaces: the SITE STATS line must be
    // byte-for-byte what `ig_server::stats_json` renders from the same
    // registry — the function the admin plane's `metrics` command also
    // calls. A *second* SITE STATS is compared (the first one minted
    // its own `server.reply_250` counter, which would otherwise differ
    // as a key). Counters tick between the two renders (and RTT
    // quantiles move, possibly across digit-count boundaries), so every
    // run of ASCII digits collapses to a single `0` before comparing;
    // the keys, ordering, and structure must match exactly.
    let stats =
        session.command(&Command::Site("STATS".into())).unwrap().text().to_string();
    let direct =
        ig_server::stats_json(server_obs.component(), usage, server_obs.metrics());
    let mask = |s: &str| {
        let mut out = String::with_capacity(s.len());
        let mut in_digits = false;
        for c in s.chars() {
            if c.is_ascii_digit() {
                if !in_digits {
                    out.push('0');
                    in_digits = true;
                }
            } else {
                in_digits = false;
                out.push(c);
            }
        }
        out
    };
    assert_eq!(
        mask(&stats),
        mask(&direct),
        "SITE STATS drifted from the shared stats_json serializer"
    );

    session.quit().unwrap();
    server.shutdown();
    // After QUIT the session object is torn down and the gauge returns
    // to zero (poll briefly: teardown is asynchronous).
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        if server_obs.metrics().gauge_value("server.sessions_active") == 0.0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "sessions_active gauge never returned to 0"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}
