//! Differential testing of the server core against what a blocking
//! thread-per-session server answers.
//!
//! The reactor reassembles command frames from whatever byte fragments
//! epoll hands it and queues pipelined commands while one executes,
//! where a thread per session just blocks in `read_exact`. Neither may
//! show: the property tests cut one command script at arbitrary byte
//! boundaries, or write it as one burst, and demand the reply stream of
//! the plain run (one write; one command at a time). The authenticated
//! transcripts are held to `golden/*.txt`, recorded from the
//! thread-per-session core before it was deleted (PR 16).

use ig_client::{transfer, ClientConfig, ClientSession, RetryPolicy, TransferOpts};
use ig_pki::cert::Validity;
use ig_pki::time::Clock;
use ig_pki::{CertificateAuthority, Credential, DistinguishedName, Gridmap, TrustStore};
use ig_protocol::command::{Command, DcauMode};
use ig_server::{Dsi, GridFtpServer, GridmapAuthz, MemDsi, ServerConfig};
use ig_xio::{Link, TcpLink};
use proptest::prelude::*;
use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

const NOW: u64 = 1_000_000;

fn dn(s: &str) -> DistinguishedName {
    DistinguishedName::parse(s).unwrap()
}

/// Pre-auth command vocabulary. Every entry must elicit a reply without
/// closing the session (530s, 500s, and 504s included on purpose) so a
/// script of N commands + QUIT always yields exactly N + 1 replies.
const VOCAB: &[&str] = &[
    "FEAT",
    "NOOP",
    "TYPE I",
    "TYPE A",
    "TYPE Q",
    "MODE E",
    "MODE S",
    "MODE X",
    "RETR /x",
    "STOR /x",
    "PASV",
    "XYZZY",
    "",
    "ADAT aGVsbG8=",
    "AUTH KERBEROS",
    "PIPE 8",
    "PIPE 0",
    "PIPE nope",
    "ERET DIR 0 /x",
    "ESTO DIR /x",
    "ESTO A 0 /x",
];

fn preauth_config() -> ServerConfig {
    let mut rng = ig_crypto::rng::seeded(0xD1FF);
    let (ca, cred) = ig_gsi::context::test_support::ca_and_credential(
        &mut rng,
        "/O=Diff CA",
        "/CN=diff.example.org",
    );
    let mut trust = TrustStore::new();
    trust.add_root(ca.root_cert().clone());
    ServerConfig::new(
        "diff.example.org",
        cred,
        trust,
        Arc::new(ig_server::GcmuAuthz::new("diff.example.org")),
        Arc::new(MemDsi::new()),
    )
    .with_clock(Clock::Fixed(NOW))
    .with_stall_timeout(Duration::from_secs(5))
}

/// The server lives for the whole test binary — each proptest case
/// opens fresh connections rather than a fresh server.
fn server() -> &'static GridFtpServer {
    static SERVER: OnceLock<Arc<GridFtpServer>> = OnceLock::new();
    SERVER.get_or_init(|| GridFtpServer::start(preauth_config(), 11).unwrap())
}

/// What a torn-down connection leaves in a transcript, so early hangups
/// also have to match.
const CLOSED: &str = "<closed>";

fn recv_reply(link: &mut TcpLink) -> String {
    match link.recv() {
        Ok(reply) => String::from_utf8_lossy(&reply).into_owned(),
        Err(_) => CLOSED.into(),
    }
}

/// Run `cmds` + QUIT against one server, writing the framed wire bytes
/// in the fragment pattern given by `cuts`, and collect every reply
/// (banner first).
fn drive(server: &GridFtpServer, cmds: &[&str], cuts: &[usize]) -> Vec<String> {
    let stream = TcpStream::connect(server.addr().to_socket_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut link = TcpLink::new(stream);

    let mut replies = vec![recv_reply(&mut link)];
    if replies[0] == CLOSED {
        return replies;
    }

    // One contiguous byte string of length-prefixed frames, then cut it
    // wherever proptest said to — frame boundaries get no special
    // treatment, so length prefixes and payloads tear mid-field.
    let mut wire = Vec::new();
    for cmd in cmds.iter().map(|c| c.as_bytes()).chain(std::iter::once(&b"QUIT"[..])) {
        wire.extend_from_slice(&(cmd.len() as u32).to_be_bytes());
        wire.extend_from_slice(cmd);
    }
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (wire.len() + 1)).collect();
    bounds.push(0);
    bounds.push(wire.len());
    bounds.sort_unstable();
    bounds.dedup();
    for pair in bounds.windows(2) {
        writer.write_all(&wire[pair[0]..pair[1]]).unwrap();
        writer.flush().unwrap();
        // Give the fragment a chance to arrive alone at the reactor.
        std::thread::sleep(Duration::from_millis(1));
    }

    while replies.len() < cmds.len() + 2 && replies.last().is_some_and(|r| r != CLOSED) {
        replies.push(recv_reply(&mut link));
    }
    replies
}

/// The same script one command at a time: write a frame, read its
/// reply, then the next — what a client that never pipelines sees.
fn drive_lockstep(server: &GridFtpServer, cmds: &[&str]) -> Vec<String> {
    let mut link = TcpLink::connect(server.addr().to_socket_addr()).unwrap();
    let mut replies = vec![recv_reply(&mut link)];
    for cmd in cmds.iter().copied().chain(std::iter::once("QUIT")) {
        if replies.last().is_some_and(|r| r == CLOSED) {
            break;
        }
        link.send(cmd.as_bytes()).unwrap();
        replies.push(recv_reply(&mut link));
    }
    replies
}

/// Case-count override for CI smoke runs (`IG_PROPTEST_CASES`).
fn cases(default: u32) -> u32 {
    std::env::var("IG_PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(24)))]

    /// Same script, any fragmentation → the replies of the script
    /// written whole, byte for byte and in order, including the banner
    /// and the 221.
    #[test]
    fn partial_reads_do_not_change_the_replies(
        picks in proptest::collection::vec(0usize..VOCAB.len(), 0..8),
        cuts in proptest::collection::vec(0usize..512, 0..12),
    ) {
        let cmds: Vec<&str> = picks.iter().map(|&i| VOCAB[i]).collect();
        let cut = drive(server(), &cmds, &cuts);
        let whole = drive(server(), &cmds, &[]);
        prop_assert_eq!(&cut, &whole, "fragmentation showed on script {:?}", cmds);
        prop_assert!(
            cut.last().unwrap().starts_with("221"),
            "script must end in a clean 221: {:?}",
            cut
        );
    }

    /// Full pipelining: a large window of commands lands as one burst
    /// (every frame written before any reply is read, no pacing), and
    /// the server must answer every queued command, in order, exactly
    /// as it answers them one at a time. This is the wire pattern a
    /// `PIPE`-ing client produces.
    #[test]
    fn pipelined_windows_reply_as_one_command_at_a_time_does(
        picks in proptest::collection::vec(0usize..VOCAB.len(), 0..24),
    ) {
        let cmds: Vec<&str> = picks.iter().map(|&i| VOCAB[i]).collect();
        let burst = drive(server(), &cmds, &[]);
        let paced = drive_lockstep(server(), &cmds);
        prop_assert_eq!(&burst, &paced, "pipelining showed on window {:?}", cmds);
        prop_assert_eq!(
            burst.len(),
            cmds.len() + 2,
            "lost replies in a pipelined window (banner + one per command + 221): {:?}",
            burst
        );
        prop_assert!(burst.last().unwrap().starts_with("221"), "window must end in 221: {:?}", burst);
    }
}

/// One authenticated client session against a fresh server (fresh
/// `MemDsi`, fixed seeds): the rig for every golden transcript. The
/// server's DSI handle comes back too so tests can stage trees.
fn authed_rig() -> (Arc<GridFtpServer>, ClientSession, Arc<dyn Dsi>) {
    let mut rng = ig_crypto::rng::seeded(0xA0D1FF);
    let mut ca =
        CertificateAuthority::create(&mut rng, dn("/O=Diff CA"), 512, 0, NOW * 10).unwrap();
    let host_keys = ig_crypto::RsaKeyPair::generate(&mut rng, 512).unwrap();
    let host_cert = ca
        .issue(
            dn("/CN=diff.example.org"),
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
    let dsi: Arc<dyn Dsi> = Arc::new(MemDsi::new());
    let cfg = ServerConfig::new(
        "diff.example.org",
        Credential::new(vec![host_cert], host_keys.private).unwrap(),
        trust.clone(),
        Arc::new(GridmapAuthz::new(gridmap)),
        Arc::clone(&dsi),
    )
    .with_clock(Clock::Fixed(NOW))
    .with_stall_timeout(Duration::from_secs(5));
    let server = GridFtpServer::start(cfg, 23).unwrap();

    let client_cfg = ClientConfig::new(
        Credential::new(vec![user_cert], user_keys.private).unwrap(),
        trust,
    )
    .with_clock(Clock::Fixed(NOW))
    .with_seed(31)
    .no_delegation()
    .with_retry(RetryPolicy::once().with_attempt_timeout(Some(Duration::from_secs(5))))
    .with_obs(ig_obs::Obs::new("diff-client"));
    let link: Box<dyn Link> =
        Box::new(TcpLink::connect(server.addr().to_socket_addr()).unwrap());
    let mut session = ClientSession::from_link(link, client_cfg).unwrap();
    session.login().unwrap();
    session.set_dcau(DcauMode::None).unwrap();
    (server, session, dsi)
}

/// `transcript` must be the recorded one, line for line.
fn assert_golden(transcript: &[String], golden: &str) {
    assert_eq!(transcript, golden.lines().collect::<Vec<_>>(), "transcript left its golden file");
}

/// The full authenticated path: login, PUT, GET, and a fixed sequence
/// of filesystem commands over a fresh `MemDsi`.
#[test]
fn authenticated_transcript_matches_golden() {
    let (server, mut session, _dsi) = authed_rig();
    let mut transcript = Vec::new();
    let data: Vec<u8> = (0..20_000u32).map(|i| (i * 7 % 253) as u8).collect();
    let opts = TransferOpts::default().block(4096).timeout(Some(Duration::from_secs(5)));
    let sent =
        transfer::put_bytes(&mut session, "/home/alice/diff.bin", &data, &opts).unwrap();
    transcript.push(format!("put {sent}"));
    let got = transfer::get_bytes(&mut session, "/home/alice/diff.bin", &opts).unwrap();
    transcript.push(format!("get {} match={}", got.len(), got == data));

    for cmd in [
        Command::Size("/home/alice/diff.bin".into()),
        Command::Mkd("/home/alice/d".into()),
        Command::Cwd("/home/alice/d".into()),
        Command::Cdup,
        Command::Rmd("/home/alice/d".into()),
        Command::Mlst(Some("/home/alice/diff.bin".into())),
        Command::Dele("/home/alice/diff.bin".into()),
        Command::Size("/home/alice/diff.bin".into()),
    ] {
        // `command_with`: the closing SIZE of the deleted file is a 550,
        // which belongs in the transcript, not in an `Err`.
        let reply = session.command_with(&cmd, |_| {}).unwrap();
        transcript.push(format!("{} {}", reply.code, reply.text()));
    }
    session.quit().unwrap();
    server.shutdown();
    assert_golden(&transcript, include_str!("golden/authed_put_get.txt"));
}

/// An authenticated `PIPE`-declared window through the high-level
/// client: every reply must come back in command order, with error
/// finals (the deliberately failing SIZE) in place rather than raised
/// or reordered.
#[test]
fn pipelined_authed_window_matches_golden() {
    let (server, mut session, _dsi) = authed_rig();
    let window = vec![
        Command::Pipe(8),
        Command::Mkd("/home/alice/p".into()),
        Command::Cwd("/home/alice/p".into()),
        Command::Pwd,
        Command::Size("/home/alice/missing.bin".into()), // 550, mid-window
        Command::Cdup,
        Command::Rmd("/home/alice/p".into()),
        Command::Noop,
    ];
    let replies = session.pipeline(&window).unwrap();
    let transcript: Vec<String> =
        replies.iter().map(|r| format!("{} {}", r.code, r.text())).collect();
    session.quit().unwrap();
    server.shutdown();
    assert_golden(&transcript, include_str!("golden/pipelined_window.txt"));
}

/// Regression: `ESTO` with an unknown module used to fall through to a
/// plain STOR of the args' last whitespace token — storing data under a
/// silently wrong path. It must now be refused with a 504 before any
/// data channel opens, and leave no file behind.
#[test]
fn esto_unknown_module_is_refused_not_misrouted() {
    let (server, mut session, dsi) = authed_rig();
    let reply = session
        .command_with(&Command::Esto { module: "A".into(), args: "0 /home/alice/esto.bin".into() }, |_| {})
        .unwrap();
    let mut transcript = vec![format!("{} {}", reply.code, reply.text())];
    let user = ig_server::UserContext::superuser();
    transcript.push(format!("exists={}", dsi.exists(&user, "/home/alice/esto.bin")));
    session.quit().unwrap();
    server.shutdown();
    assert_golden(&transcript, include_str!("golden/esto_unknown_module.txt"));
}

/// Directory stream: a fixed tree goes up with `ESTO DIR`, comes back
/// with `ERET DIR` (fresh skip and a resumed skip); the transcript is
/// entry counts, walk shape and byte equality.
#[test]
fn dir_stream_roundtrip_matches_golden() {
    let (server, mut session, server_dsi) = authed_rig();
    let user = ig_server::UserContext::superuser();
    let local = MemDsi::new();
    local.put("/src/a/one.bin", b"first file");
    local.put("/src/a/two.bin", &[7u8; 5000]);
    local.put("/src/top.txt", b"top");
    local.mkdir(&user, "/src/z/empty").unwrap();
    let local: Arc<dyn Dsi> = Arc::new(local);

    let opts = TransferOpts::default().block(1024).timeout(Some(Duration::from_secs(5)));
    let mut transcript = Vec::new();

    let up = transfer::put_dir(&mut session, &local, "/src", "/home/alice/tree", &opts).unwrap();
    transcript.push(format!("put done={} total={} complete={}", up.entries_done, up.entries_total, up.complete));
    let server_walk = ig_server::walk(server_dsi.as_ref(), &user, "/home/alice/tree").unwrap();
    transcript.push(format!(
        "server_walk={:?}",
        server_walk.iter().map(|e| e.rel_path.clone()).collect::<Vec<_>>()
    ));

    let back = MemDsi::new();
    let back: Arc<dyn Dsi> = Arc::new(back);
    let down =
        transfer::get_dir(&mut session, &back, "/copy", "/home/alice/tree", &opts).unwrap();
    transcript.push(format!("get done={} complete={}", down.entries_done, down.complete));
    transcript.push(format!(
        "roundtrip_walk_eq={}",
        ig_server::walk(back.as_ref(), &user, "/copy").unwrap()
            == ig_server::walk(local.as_ref(), &user, "/src").unwrap()
    ));
    transcript.push(format!(
        "payload_eq={}",
        ig_server::read_all(back.as_ref(), &user, "/copy/a/two.bin", 1 << 16).unwrap()
            == vec![7u8; 5000]
    ));

    // Resume semantics: skipping the first 3 entries re-fetches only the
    // tail, on top of a copy that already holds the head.
    let partial = MemDsi::new();
    partial.put("/part/a/one.bin", b"first file");
    partial.put("/part/a/two.bin", &[7u8; 5000]);
    let partial: Arc<dyn Dsi> = Arc::new(partial);
    let resumed = transfer::get_dir_resume(
        &mut session,
        &partial,
        "/part",
        "/home/alice/tree",
        3,
        &opts,
    )
    .unwrap();
    transcript.push(format!("resume done={} complete={}", resumed.entries_done, resumed.complete));
    transcript.push(format!(
        "resume_walk_eq={}",
        ig_server::walk(partial.as_ref(), &user, "/part").unwrap()
            == ig_server::walk(local.as_ref(), &user, "/src").unwrap()
    ));

    // Skip past the end of the tree is a typed refusal, not a hang (the
    // server 550s before dialing, so the accept deadline is the wait).
    let fast = TransferOpts::default().timeout(Some(Duration::from_secs(1)));
    let err =
        transfer::get_dir_resume(&mut session, &partial, "/part", "/home/alice/tree", 99, &fast);
    transcript.push(format!("overskip_err={}", err.is_err()));

    session.quit().unwrap();
    server.shutdown();
    assert_golden(&transcript, include_str!("golden/dir_stream.txt"));
}
