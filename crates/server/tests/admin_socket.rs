//! Integration battery for the admin unix-socket plane.
//!
//! Exercises the operator surface end-to-end over a real `UnixStream`:
//! the `SO_PEERCRED` gate (rejection happens before any frame is
//! parsed), the version handshake, frame-size misbehavior, live
//! `metrics`/`sessions` during an active transfer, `drain` idempotence,
//! all-or-nothing `reload`, and `trace follow` byte-identity across two
//! seeded replays.

use ig_client::{transfer, ClientConfig, ClientSession, RetryPolicy, TransferOpts};
#[path = "../../obs/tests/hostile/mod.rs"]
mod hostile;

use ig_pki::cert::Validity;
use ig_pki::time::Clock;
use ig_pki::{CertificateAuthority, Credential, DistinguishedName, Gridmap, TrustStore};
use ig_obs::json::{parse, Value};
use ig_protocol::command::{Command, DcauMode};
use ig_server::{Dsi, GridFtpServer, GridmapAuthz, MemDsi, ServerConfig};
use ig_xio::test_support::eventually;
use ig_xio::{FrameBuf, Link, TcpLink};
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NOW: u64 = 1_000_000;
const PAYLOAD_LEN: usize = 40_000;
const BLOCK: usize = 4 * 1024;
/// Throttle for tests that need a transfer to stay in flight long
/// enough to observe it from the admin plane (~0.5 s at this rate).
const SLOW_RATE: f64 = 80_000.0;

fn dn(s: &str) -> DistinguishedName {
    DistinguishedName::parse(s).unwrap()
}

fn payload() -> Vec<u8> {
    (0..PAYLOAD_LEN as u32).map(|i| (i * 13 % 251) as u8).collect()
}

fn sock_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ig-admin-{}-{}.sock", tag, std::process::id()))
}

/// A started server plus the client-side credentials to log into it.
struct World {
    server: Arc<GridFtpServer>,
    cred: Credential,
    trust: TrustStore,
}

fn start_world(
    tag: &str,
    obs: &Arc<ig_obs::Obs>,
    admin_uid: Option<u32>,
    stripe_rate: Option<f64>,
) -> (World, PathBuf) {
    let sock = sock_path(tag);
    let mut rng = ig_crypto::rng::seeded(0xAD317);
    let mut ca =
        CertificateAuthority::create(&mut rng, dn("/O=Admin CA"), 512, 0, NOW * 10).unwrap();
    let host_keys = ig_crypto::RsaKeyPair::generate(&mut rng, 512).unwrap();
    let host_cert = ca
        .issue(
            dn("/CN=admin.example.org"),
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
    let mut cfg = ServerConfig::new(
        "admin.example.org",
        Credential::new(vec![host_cert], host_keys.private).unwrap(),
        trust.clone(),
        Arc::new(GridmapAuthz::new(gridmap)),
        Arc::clone(&dsi) as Arc<dyn Dsi>,
    )
    .with_clock(Clock::Fixed(NOW))
    .with_block_size(BLOCK)
    .with_stall_timeout(Duration::from_secs(3))
    .with_obs(Arc::clone(obs))
    .with_admin_socket(sock.clone());
    if let Some(rate) = stripe_rate {
        cfg = cfg.with_stripes(1, Some(rate));
    }
    if let Some(uid) = admin_uid {
        cfg = cfg.with_admin_uid(uid);
    }
    let server = GridFtpServer::start(cfg, 7).unwrap();
    (
        World {
            server,
            cred: Credential::new(vec![user_cert], user_keys.private).unwrap(),
            trust,
        },
        sock,
    )
}

fn login(world: &World) -> ClientSession {
    let cfg = ClientConfig::new(world.cred.clone(), world.trust.clone())
        .with_clock(Clock::Fixed(NOW))
        .with_seed(99)
        .no_delegation()
        .with_retry(RetryPolicy::once().with_attempt_timeout(Some(Duration::from_secs(5))));
    let tcp = TcpLink::connect(world.server.addr().to_socket_addr()).unwrap();
    let mut session = ClientSession::from_link(Box::new(tcp) as Box<dyn Link>, cfg).unwrap();
    session.login().unwrap();
    session.set_dcau(DcauMode::None).unwrap();
    session
}

fn raw_connect(path: &Path) -> UnixStream {
    let stream = UnixStream::connect(path).unwrap();
    stream.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
    stream
}

/// Read one `\n`-terminated line (the handshake reply).
fn read_line(stream: &mut UnixStream) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        assert!(Instant::now() < deadline, "no handshake line within 10s");
        match stream.read(&mut byte) {
            Ok(0) => break,
            Ok(_) if byte[0] == b'\n' => break,
            Ok(_) => line.push(byte[0]),
            Err(e) if matches!(
                e.kind(),
                ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
            ) => {}
            Err(e) => panic!("handshake read failed: {e}"),
        }
    }
    String::from_utf8(line).unwrap()
}

/// Read until the server closes the connection; returns whatever
/// arrived first. A reset counts as closed (the server may RST a
/// connection it drops with unread bytes in flight).
fn drain_to_close(stream: &mut UnixStream) -> Vec<u8> {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut out = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return out,
            Ok(n) => out.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(
                e.kind(),
                ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
            ) => {
                assert!(Instant::now() < deadline, "server never closed the connection");
            }
            Err(e) if e.kind() == ErrorKind::ConnectionReset => return out,
            Err(e) => panic!("read failed: {e}"),
        }
    }
}

/// Framed admin client speaking the real wire protocol.
struct Admin {
    stream: UnixStream,
    inbuf: FrameBuf,
}

impl Admin {
    fn connect(path: &Path) -> Admin {
        let mut stream = raw_connect(path);
        stream.write_all(b"IGADMIN 1\n").unwrap();
        let hello = read_line(&mut stream);
        assert_eq!(hello, "IGADMIN 1 OK", "bad handshake reply");
        Admin { stream, inbuf: FrameBuf::new() }
    }

    fn send(&mut self, body: &str) {
        self.stream.write_all(&FrameBuf::encode(body.as_bytes())).unwrap();
    }

    fn recv_text(&mut self) -> String {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(frame) = self.inbuf.next_frame().unwrap() {
                return String::from_utf8(frame).unwrap();
            }
            assert!(Instant::now() < deadline, "no admin reply within 10s");
            let mut chunk = [0u8; 65536];
            match self.stream.read(&mut chunk) {
                Ok(0) => panic!("admin connection closed mid-reply"),
                Ok(n) => self.inbuf.push(&chunk[..n]),
                Err(e) if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
                Err(e) => panic!("admin read failed: {e}"),
            }
        }
    }

    fn request(&mut self, body: &str) -> Value {
        self.send(body);
        let text = self.recv_text();
        parse(&text).unwrap_or_else(|e| panic!("unparsable admin reply {text:?}: {e}"))
    }
}

fn ok(v: &Value) -> bool {
    v.get("ok").and_then(Value::as_bool) == Some(true)
}

#[test]
fn wrong_uid_is_rejected_before_any_frame_is_parsed() {
    let obs = ig_obs::Obs::new("admin-uid");
    let not_me = ig_xio::uds::process_euid().wrapping_add(1);
    let (world, sock) = start_world("uid", &obs, Some(not_me), None);

    let mut stream = raw_connect(&sock);
    // The hello may or may not make it out before the server drops us;
    // either way no byte of it gets read server-side.
    let _ = stream.write_all(b"IGADMIN 1\n");
    let got = drain_to_close(&mut stream);
    assert!(got.is_empty(), "rejected connection must not be answered: {got:?}");

    // The rejection is counted, and no request counter ever moved —
    // the frame layer was never reached.
    let deadline = Instant::now() + Duration::from_secs(5);
    while obs.metrics().counter_value("admin.rejected_uid") == 0 {
        assert!(Instant::now() < deadline, "admin.rejected_uid never incremented");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(obs.metrics().counter_value("admin.requests"), 0);
    world.server.shutdown();
}

#[test]
fn version_mismatch_fails_fast_with_a_legible_line() {
    let obs = ig_obs::Obs::new("admin-ver");
    let (world, sock) = start_world("ver", &obs, None, None);

    let mut stream = raw_connect(&sock);
    stream.write_all(b"IGADMIN 99\n").unwrap();
    let line = read_line(&mut stream);
    assert_eq!(line, "IGADMIN 1 ERR version-mismatch");
    // ... and then the connection is closed without further ado.
    assert!(drain_to_close(&mut stream).is_empty());
    assert_eq!(obs.metrics().counter_value("admin.requests"), 0);
    world.server.shutdown();
}

#[test]
fn oversized_announced_frame_drops_the_connection() {
    let obs = ig_obs::Obs::new("admin-huge");
    let (world, sock) = start_world("huge", &obs, None, None);

    let mut stream = raw_connect(&sock);
    stream.write_all(b"IGADMIN 1\n").unwrap();
    assert_eq!(read_line(&mut stream), "IGADMIN 1 OK");
    // Announce a 32 MiB frame — beyond even the control channel's cap.
    let announced = (32u32 * 1024 * 1024).to_be_bytes();
    stream.write_all(&announced).unwrap();
    let _ = stream.write_all(b"garbage that will never be read to completion");
    // Protocol violation: dropped without a reply frame.
    assert!(drain_to_close(&mut stream).is_empty());
    assert_eq!(obs.metrics().counter_value("admin.requests"), 0);
    world.server.shutdown();
}

#[test]
fn overlarge_admin_frame_gets_a_typed_reply_then_close() {
    let obs = ig_obs::Obs::new("admin-big");
    let (world, sock) = start_world("big", &obs, None, None);

    let mut admin = Admin::connect(&sock);
    // Valid framing, but the decoded payload exceeds ADMIN_MAX_FRAME.
    let body = vec![b'x'; ig_server::admin::ADMIN_MAX_FRAME + 1];
    admin.stream.write_all(&FrameBuf::encode(&body)).unwrap();
    let reply = admin.recv_text();
    assert_eq!(reply, "{\"ok\":false,\"error\":\"frame-too-large\"}");
    assert!(drain_to_close(&mut admin.stream).is_empty(), "connection must close");
    assert_eq!(obs.metrics().counter_value("admin.requests"), 0);
    world.server.shutdown();
}

/// Hostile request bodies — among them the full-size frame of `[` that
/// overflowed the stack of the old recursive parser and took the whole
/// daemon down — each get a typed `bad-request`, and the connection and
/// the server carry on.
#[test]
fn hostile_frames_get_a_typed_reply_and_the_plane_survives() {
    let obs = ig_obs::Obs::new("admin-hostile");
    let (world, sock) = start_world("hostile", &obs, None, None);

    let mut admin = Admin::connect(&sock);
    for (why, body) in hostile::documents() {
        assert!(body.len() <= ig_server::admin::ADMIN_MAX_FRAME);
        admin.stream.write_all(&FrameBuf::encode(&body)).unwrap();
        let reply = parse(&admin.recv_text()).unwrap();
        assert_eq!(reply.get("ok"), Some(&Value::Bool(false)), "{why}");
        let error = reply.get("error").and_then(Value::as_str);
        // Well-formed JSON that names no command is `unknown-command`.
        assert!(matches!(error, Some("bad-request" | "unknown-command")), "{why}: {error:?}");
    }
    assert!(ok(&admin.request("{\"cmd\":\"metrics\"}")));
    world.server.shutdown();
}

#[test]
fn truncated_frame_is_never_parsed() {
    let obs = ig_obs::Obs::new("admin-trunc");
    let (world, sock) = start_world("trunc", &obs, None, None);

    let mut stream = raw_connect(&sock);
    stream.write_all(b"IGADMIN 1\n").unwrap();
    assert_eq!(read_line(&mut stream), "IGADMIN 1 OK");
    // Announce 100 bytes, deliver 10, walk away.
    stream.write_all(&100u32.to_be_bytes()).unwrap();
    stream.write_all(b"0123456789").unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    assert!(drain_to_close(&mut stream).is_empty(), "half a frame must get no reply");
    assert_eq!(obs.metrics().counter_value("admin.requests"), 0);
    world.server.shutdown();
}

/// `metrics` and `sessions` answered live while a throttled transfer is
/// in flight, and the metrics reply is byte-for-byte the SITE STATS
/// line (one serializer, two surfaces).
#[test]
fn concurrent_metrics_during_transfer() {
    let obs = ig_obs::Obs::new("admin-live");
    let (world, sock) = start_world("live", &obs, None, Some(SLOW_RATE));

    // Connect the admin plane *first* so its counters/histograms exist
    // in the registry before any stats render (stable key set).
    let mut admin = Admin::connect(&sock);

    let mut session = login(&world);
    let data = payload();
    let opts = TransferOpts::default().block(BLOCK).timeout(Some(Duration::from_secs(5)));
    let sent = transfer::put_bytes(&mut session, "/home/alice/live.bin", &data, &opts).unwrap();
    assert_eq!(sent, PAYLOAD_LEN as u64);
    // The server leaves the STOR's transfer state just after it sends
    // the 226 that returned `put_bytes`: see it gone, so that a
    // `transfer` row below can only be the GET.
    eventually(Duration::from_secs(5), Duration::from_millis(1), "PUT retired", || {
        admin.send("{\"cmd\":\"sessions\"}");
        !admin.recv_text().contains("\"state\":\"transfer\"")
    });

    // Kick off a ~0.5 s throttled GET on its own thread, then watch it
    // from the admin plane while it runs.
    let getter = std::thread::spawn(move || {
        let got = transfer::get_bytes(&mut session, "/home/alice/live.bin", &opts).unwrap();
        (session, got)
    });
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut saw_transfer = false;
    while !saw_transfer {
        assert!(
            Instant::now() < deadline,
            "never observed the in-flight transfer from the admin plane"
        );
        let sessions = admin.request("{\"cmd\":\"sessions\"}");
        assert!(ok(&sessions), "sessions failed mid-transfer");
        let text = {
            let metrics = admin.request("{\"cmd\":\"metrics\"}");
            assert!(ok(&metrics), "metrics failed mid-transfer");
            admin.send("{\"cmd\":\"sessions\"}");
            admin.recv_text()
        };
        if text.contains("\"state\":\"transfer\"") {
            assert!(text.contains("\"user\":\"alice\""), "bad session row: {text}");
            assert!(text.contains("\"last_verb\":\"RETR\""), "bad session row: {text}");
            saw_transfer = true;
        }
    }
    let (mut session, got) = getter.join().unwrap();
    assert_eq!(got, data);

    // One serializer, two surfaces. The first SITE STATS mints its own
    // reply-250 counter; compare the second against the admin render.
    // Counters tick between the two renders (possibly across a
    // digit-count boundary), so every run of digits collapses to one
    // `0` — keys, ordering, and structure must match exactly.
    let _ = session.command(&Command::Site("STATS".into())).unwrap();
    let stats = session.command(&Command::Site("STATS".into())).unwrap().text().to_string();
    let reply = {
        admin.send("{\"cmd\":\"metrics\"}");
        admin.recv_text()
    };
    let inner = reply
        .strip_prefix("{\"ok\":true,\"stats\":")
        .and_then(|r| r.strip_suffix('}'))
        .unwrap_or_else(|| panic!("unexpected metrics envelope: {reply}"));
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
        mask(inner),
        "admin metrics and SITE STATS drifted apart"
    );

    session.quit().unwrap();
    world.server.shutdown();
}

/// Drain through the admin socket: first call drains cleanly, repeat
/// calls report the existing outcome instead of waiting again, and the
/// server stops accepting.
#[test]
fn drain_is_idempotent() {
    let obs = ig_obs::Obs::new("admin-drain");
    let (world, sock) = start_world("drain", &obs, None, None);

    let mut admin = Admin::connect(&sock);
    let first = admin.request("{\"cmd\":\"drain\",\"deadline_ms\":2000}");
    assert!(ok(&first), "drain failed");
    assert_eq!(first.get("already").and_then(Value::as_bool), Some(false));
    assert_eq!(first.get("clean").and_then(Value::as_bool), Some(true));
    assert_eq!(first.get("transfers_interrupted").and_then(Value::as_u64), Some(0));

    // A completed drain stops the server (and with it the admin accept
    // loop), so idempotence of the underlying state machine is checked
    // on the handle: no second wait, same terminal outcome.
    assert!(world.server.stopped(), "completed drain must stop the server");
    let second = world.server.drain(Duration::from_secs(2));
    assert!(second.already, "second drain must report the existing outcome");
    assert!(second.clean);
    assert_eq!(second.waited_ms, 0, "second drain must not wait again");

    // New control connections are refused or immediately closed.
    if let Ok(tcp) = TcpLink::connect(world.server.addr().to_socket_addr()) {
        let cfg = ClientConfig::new(world.cred.clone(), world.trust.clone())
            .with_clock(Clock::Fixed(NOW))
            .with_seed(100)
            .no_delegation()
            .with_retry(RetryPolicy::once().with_attempt_timeout(Some(Duration::from_secs(2))));
        assert!(
            ClientSession::from_link(Box::new(tcp) as Box<dyn Link>, cfg).is_err(),
            "a drained server must not greet new sessions"
        );
    }
}

#[test]
fn invalid_reload_leaves_the_old_config_live() {
    let obs = ig_obs::Obs::new("admin-reload");
    let (world, sock) = start_world("reload", &obs, None, None);
    let mut admin = Admin::connect(&sock);

    // Establish a known-good live value.
    let applied = admin.request("{\"cmd\":\"reload\",\"set\":{\"block_size\":8192}}");
    assert!(ok(&applied), "valid reload rejected");
    let tun = applied.get("tunables").expect("reload echoes active tunables");
    assert_eq!(tun.get("block_size").and_then(Value::as_u64), Some(8192));

    // A batch with one unknown field applies *nothing* — not even the
    // valid block_size riding in the same request.
    let rejected =
        admin.request("{\"cmd\":\"reload\",\"set\":{\"block_size\":4096,\"bogus\":1}}");
    assert!(!ok(&rejected));
    assert_eq!(rejected.get("error").and_then(Value::as_str), Some("unknown-field"));
    assert_eq!(rejected.get("field").and_then(Value::as_str), Some("bogus"));
    // A knob that left the tree (PR 21) is a typo like any other.
    let gone = admin.request("{\"cmd\":\"reload\",\"set\":{\"udp_cc\":\"bbr\"}}");
    assert_eq!(gone.get("error").and_then(Value::as_str), Some("unknown-field"));

    // Right knob, doesn't turn: typed as not-reloadable, not a typo.
    let fixed = admin.request("{\"cmd\":\"reload\",\"set\":{\"stripes\":2}}");
    assert_eq!(fixed.get("error").and_then(Value::as_str), Some("not-reloadable"));
    assert_eq!(fixed.get("field").and_then(Value::as_str), Some("stripes"));

    // Out-of-range value on an otherwise reloadable field.
    let invalid = admin.request("{\"cmd\":\"reload\",\"set\":{\"block_size\":0}}");
    assert_eq!(invalid.get("error").and_then(Value::as_str), Some("invalid-value"));
    assert_eq!(invalid.get("field").and_then(Value::as_str), Some("block_size"));

    // After three rejections the old config is still live, bit for bit.
    let echo = admin.request("{\"cmd\":\"reload\",\"set\":{}}");
    assert!(ok(&echo));
    let tun = echo.get("tunables").unwrap();
    assert_eq!(
        tun.get("block_size").and_then(Value::as_u64),
        Some(8192),
        "a rejected batch must leave the previous tunables untouched"
    );
    world.server.shutdown();
}

/// One seeded client scenario with a `trace follow` stream attached.
/// Returns the concatenated streamed JSONL after checking it equals the
/// one-shot stable export.
fn follow_run(tag: &str) -> String {
    let obs = ig_obs::Obs::new("admin-follow");
    let (world, sock) = start_world(tag, &obs, None, None);

    let follow_sock = sock.clone();
    let follower = std::thread::spawn(move || {
        let mut admin = Admin::connect(&follow_sock);
        admin.send("{\"cmd\":\"trace\",\"follow\":true,\"max_ms\":2500}");
        let mut jsonl = String::new();
        let mut cursor = 0u64;
        loop {
            let text = admin.recv_text();
            let v = parse(&text).unwrap();
            assert!(ok(&v), "trace frame not ok: {text}");
            let next = v.get("next").and_then(Value::as_u64).unwrap();
            assert!(next >= cursor, "trace cursor went backwards: {next} < {cursor}");
            cursor = next;
            assert_eq!(
                v.get("dropped").and_then(Value::as_u64),
                Some(0),
                "stable ring must not drop under this load"
            );
            jsonl.push_str(v.get("jsonl").and_then(Value::as_str).unwrap());
            if v.get("done").and_then(Value::as_bool) == Some(true) {
                return jsonl;
            }
        }
    });

    // A deterministic little session: login, two PUTs, quit. No
    // throttling, no chaos — every stable event is a pure function of
    // the seeds.
    let mut session = login(&world);
    let data = payload();
    let opts = TransferOpts::default().block(BLOCK).timeout(Some(Duration::from_secs(5)));
    transfer::put_bytes(&mut session, "/home/alice/one.bin", &data, &opts).unwrap();
    transfer::put_bytes(&mut session, "/home/alice/two.bin", &data, &opts).unwrap();
    session.quit().unwrap();
    // Wait for session teardown so the trailing span.end is recorded
    // well inside the follow window.
    let deadline = Instant::now() + Duration::from_secs(5);
    while obs.metrics().gauge_value("server.sessions_active") != 0.0 {
        assert!(Instant::now() < deadline, "session never tore down");
        std::thread::sleep(Duration::from_millis(5));
    }

    let streamed = follower.join().unwrap();
    assert_eq!(
        streamed,
        obs.export_stable(),
        "the followed stream must reassemble the one-shot stable export"
    );
    world.server.shutdown();
    streamed
}

#[test]
fn trace_follow_is_byte_identical_across_seeded_replays() {
    let first = follow_run("follow1");
    let second = follow_run("follow2");
    assert_eq!(first, second, "trace follow must replay byte-identically");
    assert!(first.contains("\"event\":\"cmd.dispatch\""), "missing cmd.dispatch:\n{first}");
    assert!(first.contains("\"name\":\"transfer\""), "missing transfer span");
    // The admin plane records unstable events only; following the
    // trace must not have perturbed the stream being followed.
    // (The event name: the endpoint is called admin.example.org.)
    assert!(!first.contains("\"event\":\"admin."), "admin events leaked into the stable trace");
}
