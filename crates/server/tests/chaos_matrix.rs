//! The transfer-survival matrix: every chaos fault kind × channel
//! (control, data) × operation (PUT, GET, third-party), over real TCP
//! loopback.
//!
//! Each cell runs the operation under a single seeded fault with a
//! global fire budget of one, retrying with fresh sessions (and, for
//! third-party, the previous attempt's 111-marker checkpoint). The
//! contract per cell: the transfer either completes with byte-identical
//! content, or fails an attempt with a *typed* error — and never hangs,
//! because every wait in the stack is deadline-bounded (client control
//! reads, client data reads/accepts, server stall detection).
//!
//! Determinism: the whole matrix is a pure function of one seed. Running
//! it twice must reproduce the exact same record strings — attempt
//! counts, first-error classes, fire counts, everything.
//!
//! `CHAOS_SEED` overrides the default seed (CI runs two distinct ones).

use ig_client::{
    transfer, ClientConfig, ClientError, ClientSession, DirTransferOutcome, RetryPolicy,
    TransferOpts,
};
use ig_pki::cert::Validity;
use ig_pki::time::Clock;
use ig_pki::{CertificateAuthority, Credential, DistinguishedName, Gridmap, TrustStore};
use ig_protocol::command::DcauMode;
use ig_protocol::{ByteRanges, HostPort};
use ig_server::dsi::{read_all, walk};
use ig_server::{Dsi, GridFtpServer, GridmapAuthz, MemDsi, ServerConfig, UserContext};
use ig_xio::{
    splitmix64, ChaosConfig, ChaosHook, Direction, FaultKind, FaultSpec, Link, TcpLink, Trigger,
};
use std::sync::Arc;
use std::time::Duration;

const NOW: u64 = 1_000_000;
/// Server-side stall detector: a silent data channel turns into a typed
/// 426 this fast.
const STALL: Duration = Duration::from_millis(250);
/// Client control-channel read deadline. Must comfortably exceed STALL
/// so server-detected data faults surface as server replies, not as
/// client timeouts racing them.
const CONTROL_TIMEOUT: Duration = Duration::from_millis(800);
/// Client data-channel read/accept deadline.
const DATA_TIMEOUT: Duration = Duration::from_millis(500);
const PAYLOAD_LEN: usize = 40_000;
const BLOCK: usize = 8 * 1024;
const MAX_ATTEMPTS: u32 = 3;

fn dn(s: &str) -> DistinguishedName {
    DistinguishedName::parse(s).unwrap()
}

fn payload() -> Vec<u8> {
    (0..PAYLOAD_LEN as u32).map(|i| (i * 31 % 251) as u8).collect()
}

fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xC0FFEE)
}

/// All eight fault kinds. The BitFlip skips the 17-byte MODE E header so
/// it lands in payload bytes — the undetectable-with-PROT-C corruption
/// that only content verification catches.
fn kinds() -> [(&'static str, FaultKind); 8] {
    [
        ("drop", FaultKind::Drop),
        ("delay", FaultKind::Delay),
        ("truncate", FaultKind::Truncate),
        ("duplicate", FaultKind::Duplicate),
        ("reorder", FaultKind::Reorder),
        ("bitflip", FaultKind::BitFlip { skip_prefix: 17 }),
        ("partition", FaultKind::PartitionOneWay),
        ("reset", FaultKind::Reset),
    ]
}

#[derive(Clone, Copy, PartialEq)]
enum Chan {
    Control,
    Data,
}

impl Chan {
    fn name(self) -> &'static str {
        match self {
            Chan::Control => "control",
            Chan::Data => "data",
        }
    }
}

#[derive(Clone, Copy)]
enum Op {
    Put,
    Get,
}

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::Put => "PUT",
            Op::Get => "GET",
        }
    }
}

/// One CA, one host credential, one mapped user, one server. The server
/// is clean; PUT/GET cells inject faults client-side.
struct World {
    server: Arc<GridFtpServer>,
    cfg: ClientConfig,
    dsi: Arc<MemDsi>,
}

fn client_cfg(user_cred: Credential, trust: TrustStore, seed: u64) -> ClientConfig {
    ClientConfig::new(user_cred, trust)
        .with_clock(Clock::Fixed(NOW))
        .with_seed(seed * 7 + 1)
        .no_delegation()
        .with_retry(RetryPolicy::once().with_attempt_timeout(Some(CONTROL_TIMEOUT)))
}

fn server_cfg(
    name: &str,
    host_cred: Credential,
    trust: TrustStore,
    dsi: Arc<MemDsi>,
    data_chaos: Option<Arc<ChaosHook>>,
) -> ServerConfig {
    let mut gridmap = Gridmap::new();
    gridmap.add(&dn("/O=Grid/CN=Alice Smith"), "alice");
    let mut cfg = ServerConfig::new(
        name,
        host_cred,
        trust,
        Arc::new(GridmapAuthz::new(gridmap)),
        dsi as Arc<dyn Dsi>,
    )
    .with_clock(Clock::Fixed(NOW))
    .with_stall_timeout(STALL)
    .with_control_idle_timeout(Duration::from_secs(5));
    if let Some(hook) = data_chaos {
        cfg = cfg.with_data_chaos(hook);
    }
    cfg
}

fn world(seed: u64) -> World {
    let mut rng = ig_crypto::rng::seeded(seed);
    let mut ca =
        CertificateAuthority::create(&mut rng, dn("/O=Chaos CA"), 512, 0, NOW * 10).unwrap();
    let host_keys = ig_crypto::RsaKeyPair::generate(&mut rng, 512).unwrap();
    let host_cert = ca
        .issue(dn("/CN=chaos.example.org"), &host_keys.public, Validity::starting_at(0, NOW * 10), vec![])
        .unwrap();
    let user_keys = ig_crypto::RsaKeyPair::generate(&mut rng, 512).unwrap();
    let user_cert = ca
        .issue(dn("/O=Grid/CN=Alice Smith"), &user_keys.public, Validity::starting_at(0, NOW * 10), vec![])
        .unwrap();
    let mut trust = TrustStore::new();
    trust.add_root(ca.root_cert().clone());

    let dsi = Arc::new(MemDsi::new());
    dsi.put("/home/alice/src.bin", &payload());
    let cfg = server_cfg(
        "chaos.example.org",
        Credential::new(vec![host_cert], host_keys.private).unwrap(),
        trust.clone(),
        Arc::clone(&dsi),
        None,
    );
    let server = GridFtpServer::start(cfg, seed * 100).unwrap();
    let cfg = client_cfg(Credential::new(vec![user_cert], user_keys.private).unwrap(), trust, seed);
    World { server, cfg, dsi }
}

/// Two servers under one CA for third-party cells. `src_chaos` plants
/// the fault in the *source server's data plane* (the sender side of the
/// server-to-server stream).
struct TpWorld {
    src: Arc<GridFtpServer>,
    dst: Arc<GridFtpServer>,
    cfg: ClientConfig,
    dst_dsi: Arc<MemDsi>,
}

fn tp_world(seed: u64, src_chaos: Option<Arc<ChaosHook>>) -> TpWorld {
    let mut rng = ig_crypto::rng::seeded(seed);
    let mut ca = CertificateAuthority::create(&mut rng, dn("/O=TP CA"), 512, 0, NOW * 10).unwrap();
    let mut host = |rng: &mut _, name: &str| {
        let keys = ig_crypto::RsaKeyPair::generate(rng, 512).unwrap();
        let cert = ca
            .issue(dn(&format!("/CN={name}")), &keys.public, Validity::starting_at(0, NOW * 10), vec![])
            .unwrap();
        Credential::new(vec![cert], keys.private).unwrap()
    };
    let src_cred = host(&mut rng, "src.example.org");
    let dst_cred = host(&mut rng, "dst.example.org");
    let user_keys = ig_crypto::RsaKeyPair::generate(&mut rng, 512).unwrap();
    let user_cert = ca
        .issue(dn("/O=Grid/CN=Alice Smith"), &user_keys.public, Validity::starting_at(0, NOW * 10), vec![])
        .unwrap();
    let mut trust = TrustStore::new();
    trust.add_root(ca.root_cert().clone());

    let src_dsi = Arc::new(MemDsi::new());
    src_dsi.put("/home/alice/src.bin", &payload());
    let dst_dsi = Arc::new(MemDsi::new());
    let src = GridFtpServer::start(
        server_cfg("src.example.org", src_cred, trust.clone(), src_dsi, src_chaos),
        seed * 100,
    )
    .unwrap();
    let dst = GridFtpServer::start(
        server_cfg("dst.example.org", dst_cred, trust.clone(), Arc::clone(&dst_dsi), None),
        seed * 100 + 50,
    )
    .unwrap();
    let cfg = client_cfg(Credential::new(vec![user_cert], user_keys.private).unwrap(), trust, seed);
    TpWorld { src, dst, cfg, dst_dsi }
}

/// Open a session, optionally routing the control channel through a
/// chaos hook. The hook is disarmed during login/DCAU setup, so the
/// handshake always runs clean — chaos starts at the operation.
fn session(addr: HostPort, cfg: &ClientConfig, control_chaos: Option<&Arc<ChaosHook>>) -> ClientSession {
    let tcp = TcpLink::connect(addr.to_socket_addr()).unwrap();
    let link: Box<dyn Link> = match control_chaos {
        Some(hook) => hook.wrap(Box::new(tcp)),
        None => Box::new(tcp),
    };
    let mut s = ClientSession::from_link(link, cfg.clone()).unwrap();
    s.login().unwrap();
    s.set_dcau(DcauMode::None).unwrap();
    s
}

fn base_opts(data_chaos: Option<Arc<ChaosHook>>) -> TransferOpts {
    let opts = TransferOpts::default().block(BLOCK).timeout(Some(DATA_TIMEOUT));
    match data_chaos {
        Some(hook) => opts.chaos(hook),
        None => opts,
    }
}

/// Collapse an error to a stable class name so records replay
/// byte-identically (message payloads may embed OS error text).
fn classify(e: &ClientError) -> String {
    match e {
        ClientError::ServerError(r) => format!("server-{}", r.code),
        ClientError::UnexpectedReply { .. } => "desync".into(),
        ClientError::Gsi(_) => "security".into(),
        ClientError::Protocol(_) => "protocol".into(),
        ClientError::Pki(_) => "pki".into(),
        ClientError::Data(_) => "data".into(),
        ClientError::Timeout(_) => "timeout".into(),
        ClientError::Truncated(_) => "truncated".into(),
        ClientError::Corrupt(_) => "corrupt".into(),
        ClientError::Integrity(_) => "integrity".into(),
        ClientError::Io(_) => "io".into(),
    }
}

fn verify_content(dsi: &MemDsi, path: &str) -> Result<(), String> {
    let got = read_all(dsi, &UserContext::superuser(), path, 1 << 16)
        .map_err(|_| "missing".to_string())?;
    if got == payload() {
        Ok(())
    } else {
        // PROT C has no integrity layer, so payload corruption sails
        // through the protocol — only content verification catches it.
        Err("silent-loss".into())
    }
}

fn record(label: &str, outcome: Option<u32>, first: Option<String>, hook: &ChaosHook) -> String {
    let first = first.unwrap_or_else(|| "none".into());
    match outcome {
        Some(attempt) => format!(
            "{label}: ok attempts={attempt} first_error={first} fires={}",
            hook.total_fires()
        ),
        None => format!("{label}: FAILED first_error={first} fires={}", hook.total_fires()),
    }
}

/// A PUT or GET cell: fault client-side (control link or data streams),
/// retry with a fresh session, verify content after every "success".
fn run_client_cell(
    w: &World,
    op: Op,
    chan: Chan,
    kind: FaultKind,
    kind_name: &str,
    seed: u64,
    cell: usize,
    obs: &Arc<ig_obs::Obs>,
    hooks: &mut Vec<Arc<ChaosHook>>,
) -> String {
    let direction = match (chan, op) {
        // GET is the receive path on the client's own data channels.
        (Chan::Data, Op::Get) => Direction::Recv,
        _ => Direction::Send,
    };
    let trigger = match chan {
        // The control link carries the whole login handshake before the
        // hook arms, so "first armed message" is a probability-1 draw.
        Chan::Control => Trigger::Probability(1.0),
        // Data links are born mid-operation: hit the second block.
        Chan::Data => Trigger::OnRecord(1),
    };
    let hook = ChaosHook::disarmed(ChaosConfig::single(seed, FaultSpec { kind, direction, trigger, max_fires: 1 }));
    hook.set_obs(obs);
    hooks.push(Arc::clone(&hook));
    let data = payload();
    let path = format!("/home/alice/cell-{cell}.bin");
    let label = format!("{}/{}/{kind_name}", op.name(), chan.name());
    let mut first: Option<String> = None;
    for attempt in 1..=MAX_ATTEMPTS {
        let control_hook = matches!(chan, Chan::Control).then_some(&hook);
        let mut s = session(w.server.addr(), &w.cfg, control_hook);
        let opts = base_opts(matches!(chan, Chan::Data).then(|| Arc::clone(&hook)));
        hook.arm();
        let result: Result<(), String> = match op {
            Op::Put => transfer::put_bytes(&mut s, &path, &data, &opts)
                .map_err(|e| classify(&e))
                .and_then(|_| verify_content(&w.dsi, &path)),
            Op::Get => transfer::get_bytes(&mut s, "/home/alice/src.bin", &opts)
                .map_err(|e| classify(&e))
                .and_then(|got| if got == data { Ok(()) } else { Err("silent-loss".into()) }),
        };
        hook.disarm();
        drop(s);
        match result {
            Ok(()) => return record(&label, Some(attempt), first, &hook),
            Err(class) => {
                first.get_or_insert(class);
            }
        }
    }
    record(&label, None, first, &hook)
}

/// A third-party cell: control faults ride the mediator→destination
/// control link; data faults live in the source server's data plane.
/// Failed attempts restart from the receiver's 111-marker checkpoint.
fn run_tp_cell(w: &TpWorld, chan: Chan, kind_name: &str, hook: &Arc<ChaosHook>, cell: usize) -> String {
    let label = format!("3PT/{}/{kind_name}", chan.name());
    let path = format!("/home/alice/tp-{cell}.bin");
    let opts = base_opts(None);
    let mut checkpoint: Option<ByteRanges> = None;
    let mut first: Option<String> = None;
    for attempt in 1..=MAX_ATTEMPTS {
        let mut src = session(w.src.addr(), &w.cfg, None);
        let mut dst = session(w.dst.addr(), &w.cfg, matches!(chan, Chan::Control).then_some(hook));
        hook.arm();
        let r = transfer::third_party(&mut src, "/home/alice/src.bin", &mut dst, &path, &opts, checkpoint.as_ref());
        hook.disarm();
        drop(src);
        drop(dst);
        let result: Result<(), String> = match r {
            Ok(o) if o.is_success() => match verify_content(&w.dst_dsi, &path) {
                Ok(()) => Ok(()),
                Err(class) => {
                    // Corrupt content behind success replies: the
                    // checkpoint is a lie, restart from zero.
                    checkpoint = None;
                    Err(class)
                }
            },
            Ok(o) => {
                // Name only the side that detected the fault: the other
                // side's final code can depend on TCP close timing.
                let class = if !o.dst_reply.is_success() {
                    format!("dst-{}", o.dst_reply.code)
                } else {
                    format!("src-{}", o.src_reply.code)
                };
                checkpoint = Some(o.checkpoint);
                Err(class)
            }
            Err(e) => Err(classify(&e)),
        };
        match result {
            Ok(()) => return record(&label, Some(attempt), first, hook),
            Err(class) => {
                first.get_or_insert(class);
            }
        }
    }
    record(&label, None, first, hook)
}

/// The full 8 kinds × {control, data} × {PUT, GET, 3PT} sweep as a pure
/// function of `seed`. Also returns (fault fires, `chaos.fault` trace
/// events) summed over every hook: the two must agree — a fired fault
/// with no trace event is an observability hole.
fn run_matrix(seed: u64) -> (Vec<String>, u64, u64) {
    let mut records = Vec::new();
    let mut cell = 0usize;
    let cell_seed = |cell: usize| splitmix64(seed ^ (cell as u64).wrapping_mul(0x9E37_79B9));
    let obs = ig_obs::Obs::new("chaos-matrix");
    let mut hooks: Vec<Arc<ChaosHook>> = Vec::new();

    // PUT/GET: one clean server, faults injected client-side.
    let w = world(seed);
    for (name, kind) in kinds() {
        for chan in [Chan::Control, Chan::Data] {
            for op in [Op::Put, Op::Get] {
                records.push(run_client_cell(
                    &w,
                    op,
                    chan,
                    kind,
                    name,
                    cell_seed(cell),
                    cell,
                    &obs,
                    &mut hooks,
                ));
                cell += 1;
            }
        }
    }

    // 3PT control: one clean pair, faults on the mediator's destination
    // control link.
    let tw = tp_world(seed.wrapping_add(1), None);
    for (name, kind) in kinds() {
        let spec = FaultSpec::send(kind, Trigger::Probability(1.0));
        let hook = ChaosHook::disarmed(ChaosConfig::single(cell_seed(cell), spec));
        hook.set_obs(&obs);
        hooks.push(Arc::clone(&hook));
        records.push(run_tp_cell(&tw, Chan::Control, name, &hook, cell));
        cell += 1;
    }

    // 3PT data: the fault kind is baked into a fresh source server's
    // data plane per cell (ServerConfig carries the hook from start).
    for (i, (name, kind)) in kinds().into_iter().enumerate() {
        let spec = FaultSpec::send(kind, Trigger::OnRecord(1));
        let hook = ChaosHook::disarmed(ChaosConfig::single(cell_seed(cell), spec));
        hook.set_obs(&obs);
        hooks.push(Arc::clone(&hook));
        let tw = tp_world(seed.wrapping_add(10 + i as u64), Some(Arc::clone(&hook)));
        records.push(run_tp_cell(&tw, Chan::Data, name, &hook, cell));
        cell += 1;
    }
    let fired: u64 = hooks.iter().map(|h| h.total_fires()).sum();
    let traced = obs.count_events("chaos.fault") as u64;
    (records, fired, traced)
}

// ---------------------------------------------------------------------
// Mid-directory-stream faults: every fault kind landing in the middle of
// a streamed tree transfer must end in file-granular resume completing
// the tree (or a typed error) — never a hang, never a silently partial
// tree behind a success record.
// ---------------------------------------------------------------------

/// Per-file bytes for the chaos tree — distinct per index so swapped or
/// duplicated file bodies can't masquerade as each other.
fn dir_payload(i: usize) -> Vec<u8> {
    (0..3000).map(|j| ((j * 7 + i * 13) % 251) as u8).collect()
}

/// ~35 KiB over 10 files in nested dirs plus an empty dir: several MODE E
/// blocks at `BLOCK`, so an `OnRecord(1)` fault always lands mid-stream
/// with entries both before and after it.
fn plant_tree(dsi: &MemDsi, root: &str) {
    let subs = ["a", "a", "b/deep", "b/deep", "b", "c", "c", "d", "d", "a"];
    for (i, sub) in subs.iter().enumerate() {
        dsi.put(&format!("{root}/{sub}/f{i}.bin"), &dir_payload(i));
    }
    dsi.mkdir(&UserContext::superuser(), &format!("{root}/empty")).unwrap();
}

/// Walk + per-file byte equality between two trees. The dir stream's
/// per-file checksums make even PROT C bit-flips detectable, but the
/// matrix still verifies content independently — a checksum bug would
/// surface here as `silent-loss`.
fn verify_tree(src: &MemDsi, src_root: &str, dst: &MemDsi, dst_root: &str) -> Result<(), String> {
    let u = UserContext::superuser();
    let a = walk(src, &u, src_root).map_err(|e| e.to_string())?;
    let b = walk(dst, &u, dst_root).map_err(|_| "missing-tree".to_string())?;
    if a != b {
        return Err("tree-mismatch".into());
    }
    for e in a.iter().filter(|e| !e.is_dir) {
        let x = read_all(src, &u, &format!("{src_root}/{}", e.rel_path), 1 << 16).unwrap();
        let y = read_all(dst, &u, &format!("{dst_root}/{}", e.rel_path), 1 << 16)
            .map_err(|_| "missing-file".to_string())?;
        if x != y {
            return Err("silent-loss".into());
        }
    }
    Ok(())
}

/// One dir-stream cell: fault the data plane on the second record, drive
/// the transfer through the file-granular retry wrapper (fresh session
/// per attempt, resume at the last confirmed entry), then verify the
/// whole tree arrived byte-identical.
#[allow(clippy::too_many_arguments)]
fn run_dir_cell(
    w: &World,
    local: &Arc<MemDsi>,
    local_dyn: &Arc<dyn Dsi>,
    op: Op,
    kind: FaultKind,
    kind_name: &str,
    seed: u64,
    cell: usize,
    obs: &Arc<ig_obs::Obs>,
    hooks: &mut Vec<Arc<ChaosHook>>,
) -> String {
    let direction = match op {
        Op::Put => Direction::Send,
        Op::Get => Direction::Recv,
    };
    let spec = FaultSpec { kind, direction, trigger: Trigger::OnRecord(1), max_fires: 1 };
    let hook = ChaosHook::disarmed(ChaosConfig::single(seed, spec));
    hook.set_obs(obs);
    hooks.push(Arc::clone(&hook));
    let label = format!("{}DIR/data/{kind_name}", op.name());
    let policy = RetryPolicy::immediate(MAX_ATTEMPTS);
    let opts = base_opts(Some(Arc::clone(&hook)));
    let make_session = || Ok(session(w.server.addr(), &w.cfg, None));
    hook.arm();
    let result: Result<DirTransferOutcome, String> = match op {
        Op::Put => {
            let remote = format!("/home/alice/dtree-{cell}");
            transfer::put_dir_with_retry(make_session, local_dyn, "/tree", &remote, &opts, &policy)
                .map_err(|e| classify(&e))
                .and_then(|out| verify_tree(local, "/tree", &w.dsi, &remote).map(|()| out))
        }
        Op::Get => {
            let copy = Arc::new(MemDsi::new());
            let copy_dyn: Arc<dyn Dsi> = Arc::clone(&copy) as Arc<dyn Dsi>;
            transfer::get_dir_with_retry(
                make_session,
                &copy_dyn,
                "/copy",
                "/home/alice/dtree",
                &opts,
                &policy,
            )
            .map_err(|e| classify(&e))
            .and_then(|out| verify_tree(&w.dsi, "/home/alice/dtree", &copy, "/copy").map(|()| out))
        }
    };
    hook.disarm();
    match result {
        Ok(out) if out.complete => {
            format!("{label}: ok attempts={} fires={}", out.attempts, hook.total_fires())
        }
        // A retry budget exhausted mid-tree is a typed, resumable state,
        // not a success — the matrix treats it as a cell failure.
        Ok(out) => format!(
            "{label}: FAILED incomplete done={} attempts={} fires={}",
            out.entries_done,
            out.attempts,
            hook.total_fires()
        ),
        Err(class) => format!("{label}: FAILED first_error={class} fires={}", hook.total_fires()),
    }
}

/// 8 fault kinds × {PUT, GET} directory streams, all data-plane faults
/// landing mid-stream, as a pure function of `seed`.
fn run_dir_matrix(seed: u64) -> (Vec<String>, u64, u64) {
    let obs = ig_obs::Obs::new("chaos-dir-matrix");
    let mut hooks: Vec<Arc<ChaosHook>> = Vec::new();
    let w = world(seed.wrapping_add(0xD1B));
    plant_tree(&w.dsi, "/home/alice/dtree");
    let local = Arc::new(MemDsi::new());
    plant_tree(&local, "/tree");
    let local_dyn: Arc<dyn Dsi> = Arc::clone(&local) as Arc<dyn Dsi>;
    let cell_seed =
        |cell: usize| splitmix64(seed ^ 0xD19 ^ (cell as u64).wrapping_mul(0x9E37_79B9));
    let mut records = Vec::new();
    let mut cell = 0usize;
    for (name, kind) in kinds() {
        for op in [Op::Put, Op::Get] {
            records.push(run_dir_cell(
                &w,
                &local,
                &local_dyn,
                op,
                kind,
                name,
                cell_seed(cell),
                cell,
                &obs,
                &mut hooks,
            ));
            cell += 1;
        }
    }
    let fired: u64 = hooks.iter().map(|h| h.total_fires()).sum();
    let traced = obs.count_events("chaos.fault") as u64;
    (records, fired, traced)
}

#[test]
fn dir_matrix_resumes_file_granular_on_all_faults() {
    let seed = chaos_seed();
    let (first, fired, traced) = run_dir_matrix(seed);
    // The cell table (`--nocapture`): equal seeds must print equal tables.
    println!("\n{}", first.join("\n"));
    assert_eq!(first.len(), 16, "8 kinds x {{PUT,GET}} directory streams");
    for r in &first {
        assert!(
            r.contains(": ok"),
            "dir cell did not complete the tree within {MAX_ATTEMPTS} attempts: {r}\nfull matrix:\n{}",
            first.join("\n")
        );
        assert!(!r.contains("fires=0"), "fault never fired: {r}");
    }
    assert!(fired > 0, "dir matrix fired no faults at all");
    assert_eq!(fired, traced, "every fired fault must emit a chaos.fault trace event");
    let (second, fired2, traced2) = run_dir_matrix(seed);
    assert_eq!(first, second, "dir chaos schedule must replay byte-identically under one seed");
    assert_eq!((fired, traced), (fired2, traced2), "fault/trace totals must replay");
}

#[test]
fn matrix_survives_all_faults_and_replays_byte_identical() {
    let seed = chaos_seed();
    let (first, fired, traced) = run_matrix(seed);
    // The cell table (`--nocapture`): equal seeds must print equal tables.
    println!("\n{}", first.join("\n"));
    assert_eq!(first.len(), 48, "8 kinds x 2 channels x 3 operations");
    for r in &first {
        assert!(
            r.contains(": ok"),
            "cell did not recover within {MAX_ATTEMPTS} attempts: {r}\nfull matrix:\n{}",
            first.join("\n")
        );
    }
    // Every fault engaged: a cell whose fault never fired tested nothing.
    for r in &first {
        assert!(!r.contains("fires=0"), "fault never fired: {r}");
    }
    // Observability contract: every fired fault — Delay included — left
    // exactly one `chaos.fault` trace event.
    assert!(fired > 0, "matrix fired no faults at all");
    assert_eq!(fired, traced, "every fired fault must emit a chaos.fault trace event");
    // Exact replay: the matrix is a pure function of the seed — attempt
    // counts, first-error classes and fire counts must all reproduce.
    let (second, fired2, traced2) = run_matrix(seed);
    assert_eq!(first, second, "chaos schedule must replay byte-identically under one seed");
    assert_eq!((fired, traced), (fired2, traced2), "fault/trace totals must replay");
}
