//! End-to-end client ↔ server tests over real TCP loopback.

use ig_client::{transfer, ClientConfig, ClientError, ClientSession, TransferOpts};
use ig_gsi::ProtectionLevel;
use ig_pki::cert::Validity;
use ig_pki::time::Clock;
use ig_pki::{CertificateAuthority, Credential, DistinguishedName, Gridmap, TrustStore};
use ig_protocol::command::{Command, DcauMode};
use ig_server::dsi::{read_all, walk};
use ig_server::{Dsi, GridFtpServer, GridmapAuthz, MemDsi, ServerConfig, UserContext};
use ig_xio::{ChaosConfig, ChaosHook, FaultKind, FaultSpec, Trigger};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NOW: u64 = 1_000_000;

fn dn(s: &str) -> DistinguishedName {
    DistinguishedName::parse(s).unwrap()
}

/// One CA, one host credential, one user credential, a gridmap mapping
/// the user to `alice`, and a server over a MemDsi.
struct World {
    server: Arc<GridFtpServer>,
    client_cfg: ClientConfig,
    dsi: Arc<MemDsi>,
    /// The server's own metrics hub.
    obs: Arc<ig_obs::Obs>,
}

fn world(seed: u64) -> World {
    let mut rng = ig_crypto::rng::seeded(seed);
    let mut ca = CertificateAuthority::create(&mut rng, dn("/O=Test CA"), 512, 0, NOW * 10).unwrap();
    let host_keys = ig_crypto::RsaKeyPair::generate(&mut rng, 512).unwrap();
    let host_cert = ca
        .issue(dn("/CN=server.example.org"), &host_keys.public, Validity::starting_at(0, NOW * 10), vec![])
        .unwrap();
    let host_cred = Credential::new(vec![host_cert], host_keys.private).unwrap();
    let user_keys = ig_crypto::RsaKeyPair::generate(&mut rng, 512).unwrap();
    let user_cert = ca
        .issue(dn("/O=Grid/CN=Alice Smith"), &user_keys.public, Validity::starting_at(0, NOW * 10), vec![])
        .unwrap();
    let user_cred = Credential::new(vec![user_cert], user_keys.private).unwrap();

    let mut trust = TrustStore::new();
    trust.add_root(ca.root_cert().clone());
    let mut gridmap = Gridmap::new();
    gridmap.add(&dn("/O=Grid/CN=Alice Smith"), "alice");

    let dsi = Arc::new(MemDsi::new());
    dsi.put("/home/alice/data/hello.txt", b"hello gridftp world");

    let cfg = ServerConfig::new(
        "server.example.org",
        host_cred,
        trust.clone(),
        Arc::new(GridmapAuthz::new(gridmap)),
        Arc::clone(&dsi) as Arc<dyn Dsi>,
    )
    .with_clock(Clock::Fixed(NOW));
    let obs = ig_obs::Obs::new("e2e-server");
    let server = GridFtpServer::start(cfg.with_obs(Arc::clone(&obs)), seed * 100).unwrap();
    let client_cfg =
        ClientConfig::new(user_cred, trust).with_clock(Clock::Fixed(NOW)).with_seed(seed * 7 + 1);
    World { server, client_cfg, dsi, obs }
}

fn login(w: &World) -> ClientSession {
    let mut s = ClientSession::connect(w.server.addr(), w.client_cfg.clone()).unwrap();
    s.login().unwrap();
    s
}

#[test]
fn login_and_quit() {
    let w = world(1);
    let s = login(&w);
    s.quit().unwrap();
}

#[test]
fn login_fails_with_untrusted_user() {
    let w = world(2);
    // A user from an unknown CA.
    let mut rng = ig_crypto::rng::seeded(999);
    let (_other_ca, other_cred) =
        ig_gsi::context::test_support::ca_and_credential(&mut rng, "/O=Other CA", "/CN=eve");
    let cfg = ClientConfig::new(other_cred, w.client_cfg.trust.clone())
        .with_clock(Clock::Fixed(NOW));
    let mut s = ClientSession::connect(w.server.addr(), cfg).unwrap();
    let err = s.login().unwrap_err();
    assert!(err.to_string().contains("535") || err.to_string().contains("Authentication"));
}

#[test]
fn login_fails_without_gridmap_entry() {
    // The paper's stale-gridmap failure: valid certificate, no mapping.
    let mut rng = ig_crypto::rng::seeded(31);
    let mut ca = CertificateAuthority::create(&mut rng, dn("/O=CA"), 512, 0, NOW * 10).unwrap();
    let host_keys = ig_crypto::RsaKeyPair::generate(&mut rng, 512).unwrap();
    let host_cert = ca
        .issue(dn("/CN=host"), &host_keys.public, Validity::starting_at(0, NOW * 10), vec![])
        .unwrap();
    let user_keys = ig_crypto::RsaKeyPair::generate(&mut rng, 512).unwrap();
    let user_cert = ca
        .issue(dn("/O=Grid/CN=Unmapped"), &user_keys.public, Validity::starting_at(0, NOW * 10), vec![])
        .unwrap();
    let mut trust = TrustStore::new();
    trust.add_root(ca.root_cert().clone());
    let cfg = ServerConfig::new(
        "host",
        Credential::new(vec![host_cert], host_keys.private).unwrap(),
        trust.clone(),
        Arc::new(GridmapAuthz::new(Gridmap::new())), // empty gridmap
        Arc::new(MemDsi::new()),
    )
    .with_clock(Clock::Fixed(NOW));
    let server = GridFtpServer::start(cfg, 44).unwrap();
    let ccfg = ClientConfig::new(
        Credential::new(vec![user_cert], user_keys.private).unwrap(),
        trust,
    )
    .with_clock(Clock::Fixed(NOW));
    let mut s = ClientSession::connect(server.addr(), ccfg).unwrap();
    let err = s.login().unwrap_err();
    assert!(err.to_string().contains("Authorization failed"), "got: {err}");
}

#[test]
fn size_and_mlst() {
    let w = world(3);
    let mut s = login(&w);
    assert_eq!(s.size("/home/alice/data/hello.txt").unwrap(), 19);
    assert!(s.size("/home/alice/missing").is_err());
    // Confinement: bob's home is invisible.
    assert!(s.size("/home/bob/x").is_err());
    s.quit().unwrap();
}

#[test]
fn get_single_stream() {
    let w = world(4);
    let mut s = login(&w);
    let data = transfer::get_bytes(&mut s, "/home/alice/data/hello.txt", &TransferOpts::default())
        .unwrap();
    assert_eq!(data, b"hello gridftp world");
    s.quit().unwrap();
}

#[test]
fn get_parallel_streams() {
    let w = world(5);
    let payload: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
    w.dsi.put("/home/alice/big.bin", &payload);
    let mut s = login(&w);
    for streams in [2usize, 4, 8] {
        let data = transfer::get_bytes(
            &mut s,
            "/home/alice/big.bin",
            &TransferOpts::default().parallel(streams).block(8 * 1024),
        )
        .unwrap();
        assert_eq!(data, payload, "streams={streams}");
    }
    s.quit().unwrap();
}

#[test]
fn put_then_get_roundtrip() {
    let w = world(6);
    let mut s = login(&w);
    let payload: Vec<u8> = (0..50_000u32).map(|i| (i * 13 % 256) as u8).collect();
    let sent = transfer::put_bytes(
        &mut s,
        "/home/alice/upload.bin",
        &payload,
        &TransferOpts::default().parallel(4),
    )
    .unwrap();
    assert_eq!(sent, payload.len() as u64);
    let back =
        transfer::get_bytes(&mut s, "/home/alice/upload.bin", &TransferOpts::default()).unwrap();
    assert_eq!(back, payload);
    // Also verify server-side storage directly.
    let user = UserContext::user("alice");
    assert_eq!(w.dsi.size(&user, "/home/alice/upload.bin").unwrap(), payload.len() as u64);
    s.quit().unwrap();
}

#[test]
fn put_resume_sends_only_missing() {
    let w = world(7);
    let mut s = login(&w);
    let payload: Vec<u8> = (0..64_000u32).map(|i| (i % 251) as u8).collect();
    // Pretend a previous attempt delivered the first half.
    let mut have = ig_protocol::ByteRanges::new();
    have.add(0, 32_000);
    // Pre-stage the first half server-side (as the failed attempt would).
    let user = UserContext::user("alice");
    w.dsi.write(&user, "/home/alice/resume.bin", 0, &payload[..32_000]).unwrap();
    let sent = transfer::put_bytes_resume(
        &mut s,
        "/home/alice/resume.bin",
        &payload,
        Some(&have),
        &TransferOpts::default().parallel(2),
    )
    .unwrap();
    assert_eq!(sent, 32_000, "only the missing half goes over the wire");
    let back =
        transfer::get_bytes(&mut s, "/home/alice/resume.bin", &TransferOpts::default()).unwrap();
    assert_eq!(back, payload);
    // An attempt that died before its first block landed leaves an empty
    // checkpoint. Resuming from it is a fresh transfer, not a `REST` with
    // no marker (which the server refuses).
    let nothing = ig_protocol::ByteRanges::new();
    let sent = transfer::put_bytes_resume(
        &mut s,
        "/home/alice/fresh.bin",
        &payload,
        Some(&nothing),
        &TransferOpts::default(),
    )
    .unwrap();
    assert_eq!(sent, 64_000);
    s.quit().unwrap();
}

#[test]
fn get_with_prot_private() {
    let w = world(8);
    let payload: Vec<u8> = (0..30_000u32).map(|i| (i % 250) as u8).collect();
    w.dsi.put("/home/alice/secret.bin", &payload);
    let mut s = login(&w);
    s.set_prot(ProtectionLevel::Private).unwrap();
    let data =
        transfer::get_bytes(&mut s, "/home/alice/secret.bin", &TransferOpts::default().parallel(2))
            .unwrap();
    assert_eq!(data, payload);
    s.quit().unwrap();
}

#[test]
fn get_with_dcau_none() {
    let w = world(9);
    let mut s = login(&w);
    s.set_dcau(DcauMode::None).unwrap();
    let data = transfer::get_bytes(&mut s, "/home/alice/data/hello.txt", &TransferOpts::default())
        .unwrap();
    assert_eq!(data, b"hello gridftp world");
    s.quit().unwrap();
}

#[test]
fn listing_via_mlsd() {
    let w = world(10);
    w.dsi.put("/home/alice/data/two.txt", b"22");
    let mut s = login(&w);
    let lines = transfer::list(&mut s, "/home/alice/data").unwrap();
    assert!(lines.iter().any(|l| l.contains("hello.txt")));
    assert!(lines.iter().any(|l| l.contains("two.txt")));
    s.quit().unwrap();
}

#[test]
fn file_management_commands() {
    let w = world(11);
    let mut s = login(&w);
    s.command(&Command::Mkd("/home/alice/newdir".into())).unwrap();
    transfer::put_bytes(&mut s, "/home/alice/newdir/f.bin", b"abc", &TransferOpts::default())
        .unwrap();
    assert_eq!(s.size("/home/alice/newdir/f.bin").unwrap(), 3);
    s.command(&Command::Dele("/home/alice/newdir/f.bin".into())).unwrap();
    assert!(s.size("/home/alice/newdir/f.bin").is_err());
    s.command(&Command::Rmd("/home/alice/newdir".into())).unwrap();
    // CWD/PWD.
    s.command(&Command::Cwd("/home/alice/data".into())).unwrap();
    let pwd = s.command(&Command::Pwd).unwrap();
    assert!(pwd.text().contains("/home/alice/data"));
    // Relative path resolution.
    assert_eq!(s.size("hello.txt").unwrap(), 19);
    s.quit().unwrap();
}

#[test]
fn usage_is_recorded() {
    let w = world(12);
    let mut s = login(&w);
    let _ = transfer::get_bytes(&mut s, "/home/alice/data/hello.txt", &TransferOpts::default())
        .unwrap();
    transfer::put_bytes(&mut s, "/home/alice/u.bin", b"xyzzy", &TransferOpts::default()).unwrap();
    s.quit().unwrap();
    let usage = &w.server.config().usage;
    assert_eq!(usage.total_transfers(), 2);
    assert_eq!(usage.total_bytes(), 19 + 5);
    let recs = usage.records();
    assert!(recs.iter().any(|r| !r.inbound && r.bytes == 19));
    assert!(recs.iter().any(|r| r.inbound && r.bytes == 5 && r.user == "alice"));
}

#[test]
fn concurrent_sessions() {
    // GridFTP's "concurrency" optimization: multiple control sessions
    // each moving files at once.
    let w = world(13);
    let payload: Vec<u8> = (0..20_000u32).map(|i| (i % 247) as u8).collect();
    for i in 0..4 {
        w.dsi.put(&format!("/home/alice/c{i}.bin"), &payload);
    }
    let mut handles = Vec::new();
    for i in 0..4 {
        let cfg = w.client_cfg.clone().with_seed(1000 + i as u64);
        let addr = w.server.addr();
        let payload = payload.clone();
        handles.push(std::thread::spawn(move || {
            let mut s = ClientSession::connect(addr, cfg).unwrap();
            s.login().unwrap();
            let data =
                transfer::get_bytes(&mut s, &format!("/home/alice/c{i}.bin"), &TransferOpts::default())
                    .unwrap();
            assert_eq!(data, payload);
            s.quit().unwrap();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn cksm_checksums_and_verified_put() {
    let w = world(14);
    let mut s = login(&w);
    let payload: Vec<u8> = (0..40_000u32).map(|i| (i * 3 % 251) as u8).collect();
    let sent = transfer::put_bytes_verified(
        &mut s,
        "/home/alice/ck.bin",
        &payload,
        &TransferOpts::default().parallel(2),
    )
    .unwrap();
    assert_eq!(sent, payload.len() as u64);
    // Range checksum matches a local slice hash.
    let remote = s.cksm("/home/alice/ck.bin", 100, Some(1000)).unwrap();
    let local =
        ig_crypto::encode::hex_encode(&ig_crypto::Sha256::digest(&payload[100..1100]));
    assert_eq!(remote, local);
    // Whole-file via length -1.
    let whole = s.cksm("/home/alice/ck.bin", 0, None).unwrap();
    assert_eq!(
        whole,
        ig_crypto::encode::hex_encode(&ig_crypto::Sha256::digest(&payload))
    );
    // A length that runs past the end of the file — past the end of `u64`,
    // even — is the length to the end of the file: what `-1` answers.
    assert_eq!(
        s.cksm("/home/alice/ck.bin", 1, Some(u64::MAX)).unwrap(),
        s.cksm("/home/alice/ck.bin", 1, None).unwrap()
    );
    // Unknown algorithm refused.
    let err = s
        .command(&Command::Cksm {
            algorithm: "MD5".into(),
            offset: 0,
            length: None,
            path: "/home/alice/ck.bin".into(),
        })
        .unwrap_err();
    assert!(err.to_string().contains("504"), "got {err}");
    // Missing file refused.
    assert!(s.cksm("/home/alice/none.bin", 0, None).is_err());
    s.quit().unwrap();
}

#[test]
fn verified_put_detects_server_side_corruption() {
    let w = world(15);
    let mut s = login(&w);
    let payload = vec![7u8; 10_000];
    transfer::put_bytes(&mut s, "/home/alice/c2.bin", &payload, &TransferOpts::default())
        .unwrap();
    // Corrupt the stored file behind the server's back.
    let user = UserContext::user("alice");
    w.dsi.write(&user, "/home/alice/c2.bin", 500, b"CORRUPTION").unwrap();
    let remote = s.cksm("/home/alice/c2.bin", 0, None).unwrap();
    let local = ig_crypto::encode::hex_encode(&ig_crypto::Sha256::digest(&payload));
    assert_ne!(remote, local, "checksum must expose the corruption");
    s.quit().unwrap();
}

#[test]
fn eret_partial_retrieval() {
    let w = world(16);
    let payload: Vec<u8> = (0..80_000u32).map(|i| (i * 7 % 251) as u8).collect();
    w.dsi.put("/home/alice/part.bin", &payload);
    let mut s = login(&w);
    // Interior range.
    let mid = transfer::get_partial(&mut s, "/home/alice/part.bin", 10_000, 5_000, &TransferOpts::default())
        .unwrap();
    assert_eq!(mid, &payload[10_000..15_000]);
    // Range clipped at EOF.
    let tail = transfer::get_partial(&mut s, "/home/alice/part.bin", 79_000, 50_000, &TransferOpts::default())
        .unwrap();
    assert_eq!(tail, &payload[79_000..]);
    // Offset past EOF: empty.
    let none = transfer::get_partial(&mut s, "/home/alice/part.bin", 1_000_000, 10, &TransferOpts::default())
        .unwrap();
    assert!(none.is_empty());
    // Parallel streams work for partial too.
    let par = transfer::get_partial(
        &mut s,
        "/home/alice/part.bin",
        5_000,
        40_000,
        &TransferOpts::default().parallel(4).block(4 * 1024),
    )
    .unwrap();
    assert_eq!(par, &payload[5_000..45_000]);
    // Unknown module refused.
    let err = s
        .command(&Command::Eret { module: "X".into(), args: "0,1 /home/alice/part.bin".into() })
        .unwrap_err();
    assert!(err.to_string().contains("504"), "got {err}");
    // Missing file refused.
    assert!(transfer::get_partial(&mut s, "/home/alice/none", 0, 10, &TransferOpts::default()).is_err());
    s.quit().unwrap();
}

#[test]
fn dir_stream_roundtrip_with_dcau() {
    // put_dir/get_dir over the default DCAU Self data channels (the
    // differential suite runs them with DCAU off) — one MODE E setup
    // moves the whole tree, files spanning multiple blocks.
    let w = world(17);
    let mut s = login(&w);
    let local = Arc::new(MemDsi::new());
    local.put("/up/a/one.bin", b"first");
    local.put("/up/a/two.bin", &[9u8; 5000]);
    local.put("/up/top.txt", b"top-level");
    local.mkdir(&UserContext::superuser(), "/up/z").unwrap();
    let local_dyn: Arc<dyn Dsi> = Arc::clone(&local) as Arc<dyn Dsi>;
    let opts = TransferOpts::default().block(2048);

    let out = transfer::put_dir(&mut s, &local_dyn, "/up", "/home/alice/up", &opts).unwrap();
    assert!(out.complete, "put_dir must complete: {out:?}");
    assert_eq!(out.entries_done, 5, "dirs a,z + files one,two,top");
    assert_eq!(out.entries_done, out.entries_total);
    let alice = UserContext::user("alice");
    assert_eq!(w.dsi.size(&alice, "/home/alice/up/a/two.bin").unwrap(), 5000);

    let back = Arc::new(MemDsi::new());
    let back_dyn: Arc<dyn Dsi> = Arc::clone(&back) as Arc<dyn Dsi>;
    let out2 = transfer::get_dir(&mut s, &back_dyn, "/dl", "/home/alice/up", &opts).unwrap();
    assert!(out2.complete, "get_dir must complete: {out2:?}");
    assert_eq!(out2.entries_done, 5);
    let su = UserContext::superuser();
    let want = walk(local.as_ref(), &su, "/up").unwrap();
    assert_eq!(walk(back.as_ref(), &su, "/dl").unwrap(), want);
    for e in want.iter().filter(|e| !e.is_dir) {
        let a = read_all(local.as_ref(), &su, &format!("/up/{}", e.rel_path), 1 << 16).unwrap();
        let b = read_all(back.as_ref(), &su, &format!("/dl/{}", e.rel_path), 1 << 16).unwrap();
        assert_eq!(a, b, "payload diverged for {}", e.rel_path);
    }

    // Resume skip beyond the local tree is refused before anything moves.
    let err =
        transfer::put_dir_resume(&mut s, &local_dyn, "/up", "/home/alice/up2", 99, &opts)
            .unwrap_err();
    assert!(err.to_string().contains("resume skip"), "got {err}");
    // Missing remote root surfaces as the server's refusal, not a hang.
    let fast = TransferOpts::default().timeout(Some(Duration::from_millis(500)));
    let err = transfer::get_dir(&mut s, &back_dyn, "/x", "/home/alice/nope", &fast).unwrap_err();
    assert!(err.to_string().contains("550"), "got {err}");
    s.quit().unwrap();
}

#[test]
fn pipelined_small_file_fetch() {
    // get_files_pipelined: windows of RETRs go out before any reply is
    // read; files come back in request order over one kept data channel.
    let w = world(18);
    let payloads: Vec<Vec<u8>> =
        (0..10).map(|i| (0..600).map(|j| ((j * 11 + i * 29) % 251) as u8).collect()).collect();
    for (i, p) in payloads.iter().enumerate() {
        w.dsi.put(&format!("/home/alice/small/f{i}.bin"), p);
    }
    let mut s = login(&w);
    let paths: Vec<String> = (0..10).map(|i| format!("/home/alice/small/f{i}.bin")).collect();
    let refs: Vec<&str> = paths.iter().map(String::as_str).collect();
    // Window smaller than the batch: chunked; larger: single window.
    for window in [4usize, 16] {
        let got = transfer::get_files_pipelined(&mut s, &refs, window, &TransferOpts::default())
            .unwrap();
        assert_eq!(got.len(), 10, "window={window}");
        for (i, (g, p)) in got.iter().zip(&payloads).enumerate() {
            assert_eq!(g, p, "file {i} diverged at window={window}");
        }
    }
    s.quit().unwrap();
}

#[test]
fn pipelined_fetch_surfaces_missing_file() {
    let w = world(19);
    w.dsi.put("/home/alice/ok.bin", b"fine");
    let mut s = login(&w);
    let paths = ["/home/alice/ok.bin", "/home/alice/gone.bin", "/home/alice/ok.bin"];
    let fast = TransferOpts::default().timeout(Some(Duration::from_millis(500)));
    let err = transfer::get_files_pipelined(&mut s, &paths, 8, &fast).unwrap_err();
    // The missing file's 550 surfaces, mid-window, after the files around
    // it transferred: every reply of the window was read, so the session
    // is still in step, whatever leads the next window.
    assert!(err.to_string().contains("550"), "got {err}");
    assert_eq!(s.command(&Command::Noop).unwrap().code, 200);
    let err = transfer::get_files_pipelined(&mut s, &paths[1..], 8, &fast).unwrap_err();
    assert!(err.to_string().contains("550"), "got {err}");
    let got = transfer::get_files_pipelined(&mut s, &paths[..1], 8, &fast).unwrap();
    assert_eq!(got, vec![b"fine".to_vec()]);
    assert_eq!(transfer::get_bytes(&mut s, "/home/alice/ok.bin", &fast).unwrap(), b"fine");
    s.quit().unwrap();
}

#[test]
fn pipe_window_validation() {
    let w = world(20);
    let mut s = login(&w);
    s.command(&Command::Pipe(8)).unwrap();
    s.command(&Command::Pipe(1)).unwrap();
    for bad in [0u32, 65, 1000] {
        let err = s.command(&Command::Pipe(bad)).unwrap_err();
        assert!(err.to_string().contains("501"), "PIPE {bad}: got {err}");
    }
    s.quit().unwrap();
}

// ---------------------------------------------------------------------
// The frame table: every receiving verb runs in the one client frame, so
// each of them, on a fresh channel and on a kept one, serves, reads a
// refusal when it arrives, and holds what landed to the 150's figure.
// ---------------------------------------------------------------------

/// How a cell of the table ended.
#[derive(Debug, PartialEq)]
enum Outcome {
    /// `Ok`, and the bytes are the source's.
    Served,
    /// The server's refusal, by code.
    Refused(u16),
    /// Fewer bytes than announced: `ClientError::Truncated`, or a
    /// directory stream that is not complete.
    Short,
}

fn outcome<T: PartialEq + std::fmt::Debug>(got: Result<T, ClientError>, source: T) -> Outcome {
    match got {
        Ok(bytes) => {
            assert_eq!(bytes, source);
            Outcome::Served
        }
        Err(ClientError::ServerError(reply)) => Outcome::Refused(reply.code),
        Err(ClientError::Truncated(_)) => Outcome::Short,
        Err(other) => panic!("neither served, refused nor short: {other:?}"),
    }
}

const TREE: &str = "/home/alice/tree";

fn tree_file(name: &str) -> Vec<u8> {
    (0..5000usize).map(|i| ((i * 7 + name.len() * 13) % 251) as u8).collect()
}

/// One receiving verb against `root` (`TREE`, or a path that is not there).
type Verb = fn(&mut ClientSession, &str, &TransferOpts) -> Outcome;

fn frame_verbs() -> [(&'static str, Verb); 5] {
    [
        ("get_bytes", |s, root, opts| {
            outcome(transfer::get_bytes(s, &format!("{root}/f.bin"), opts), tree_file("f.bin"))
        }),
        ("get_partial", |s, root, opts| {
            let part = transfer::get_partial(s, &format!("{root}/f.bin"), 1000, 3000, opts);
            outcome(part, tree_file("f.bin")[1000..4000].to_vec())
        }),
        ("list", |s, root, opts| {
            let names = transfer::list_with(s, root, opts).map(|lines| {
                let mut names: Vec<_> =
                    lines.iter().filter_map(|l| l.rsplit(' ').next().map(str::to_string)).collect();
                names.sort();
                names
            });
            outcome(names, vec!["f.bin".to_string(), "g.bin".to_string()])
        }),
        ("get_dir", |s, root, opts| {
            let copy: Arc<dyn Dsi> = Arc::new(MemDsi::new());
            let su = UserContext::superuser();
            let fetched = transfer::get_dir(s, &copy, "/copy", root, opts).and_then(|out| {
                if !out.complete {
                    return Err(ClientError::Truncated(format!("{out:?}")));
                }
                let file = |name| read_all(copy.as_ref(), &su, &format!("/copy/{name}"), 1 << 16);
                Ok((out.entries_done, file("f.bin").unwrap(), file("g.bin").unwrap()))
            });
            outcome(fetched, (2, tree_file("f.bin"), tree_file("g.bin")))
        }),
        ("get_files_pipelined", |s, root, opts| {
            // The refused file leads, so on a fresh channel the one behind
            // it is the one the server dials for.
            let paths = [format!("{root}/f.bin"), format!("{TREE}/g.bin")];
            let paths: Vec<&str> = paths.iter().map(String::as_str).collect();
            let files = transfer::get_files_pipelined(s, &paths, 8, opts);
            outcome(files, vec![tree_file("f.bin"), tree_file("g.bin")])
        }),
    ]
}

#[test]
fn every_receiving_verb_runs_in_the_one_frame() {
    let w = world(21);
    for name in ["f.bin", "g.bin"] {
        w.dsi.put(&format!("{TREE}/{name}"), &tree_file(name));
    }
    // (opened, reused): a `PORT` that is followed by a transfer opens channels.
    let channels = || {
        let count = |what| w.obs.metrics().counter_value(&format!("server.dtp.channels_{what}"));
        (count("opened"), count("reused"))
    };
    for (verb_name, verb) in frame_verbs() {
        for kept in [false, true] {
            for fault in ["served", "refused", "dropped"] {
                let cell = format!("{verb_name} / {} / {fault}", if kept { "kept" } else { "fresh" });
                let mut s = login(&w);
                // A one-block transfer is three records on its stream (EOF
                // count, data, EOD): the data block is record 1 on a fresh
                // channel, record 4 on one that has carried a file before.
                let drop = FaultSpec::recv(FaultKind::Drop, Trigger::OnRecord(if kept { 4 } else { 1 }));
                let hook = ChaosHook::disarmed(ChaosConfig::single(21, drop));
                let opts = match fault {
                    "dropped" => TransferOpts::default().chaos(Arc::clone(&hook)),
                    _ => TransferOpts::default(),
                };
                if kept {
                    let hello = transfer::get_bytes(&mut s, "/home/alice/data/hello.txt", &opts);
                    assert_eq!(hello.expect(&cell), b"hello gridftp world");
                }
                hook.arm();
                let before = channels();
                let root = if fault == "refused" { "/home/alice/nope" } else { TREE };
                let t0 = Instant::now();
                let got = verb(&mut s, root, &opts);
                let took = t0.elapsed();
                let want = match fault {
                    "served" => Outcome::Served,
                    "refused" => Outcome::Refused(550),
                    _ => Outcome::Short,
                };
                assert_eq!(got, want, "{cell}");
                assert!(took < Duration::from_secs(2), "{cell}: took {took:?}");
                assert_eq!(hook.total_fires(), u64::from(fault == "dropped"), "{cell}");
                if kept && fault == "served" {
                    let (opened, reused) = channels();
                    assert!(reused > before.1, "{cell}: served on the kept channel");
                    assert_eq!(opened, before.0, "{cell}: no `PORT` left the client");
                }
                assert_eq!(s.command(&Command::Noop).expect(&cell).code, 200, "{cell}");
                s.quit().expect(&cell);
            }
        }
    }
}
