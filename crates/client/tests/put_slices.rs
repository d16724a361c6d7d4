//! `put_bytes` sends the caller's bytes: the edges of the borrowed-slice
//! sender as a server sees them, over real TCP loopback.
//!
//! Every upload, however little of it there is to send, must put the EOF
//! count on stream 0 and one EOD on every stream — a server missing either
//! waits out its stall timeout and answers 426, so `Ok` here is the 226. A
//! resumed upload moves the complement of `have` and nothing else, and a
//! stream that fails mid-transfer leaves the session at its command loop.

use ig_client::{transfer, ClientConfig, ClientError, ClientSession, TransferOpts};
use ig_pki::time::Clock;
use ig_pki::{DistinguishedName, Gridmap, TrustStore};
use ig_protocol::command::DcauMode;
use ig_protocol::ByteRanges;
use ig_server::dsi::read_all;
use ig_server::{Dsi, GridFtpServer, GridmapAuthz, MemDsi, ServerConfig, UserContext};
use ig_xio::{ChaosConfig, ChaosHook, FaultKind, FaultSpec, Trigger};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NOW: u64 = 1_000_000;
const BLOCK: usize = 1024;
/// Long enough that an upload the server had to time out cannot pass for
/// one it completed.
const STALL: Duration = Duration::from_secs(20);

struct World {
    server: Arc<GridFtpServer>,
    dsi: Arc<MemDsi>,
    obs: Arc<ig_obs::Obs>,
    session: ClientSession,
}

fn world(seed: u64) -> World {
    let mut rng = ig_crypto::rng::seeded(seed);
    let (mut ca, host) =
        ig_gsi::context::test_support::ca_and_credential(&mut rng, "/O=Put CA", "/CN=put.example.org");
    let mut trust = TrustStore::new();
    trust.add_root(ca.root_cert().clone());
    let keys = ig_crypto::RsaKeyPair::generate(&mut rng, 512).unwrap();
    let alice = DistinguishedName::parse("/O=Grid/CN=Alice Smith").unwrap();
    let validity = ig_pki::cert::Validity::starting_at(0, NOW * 10);
    let cert = ca.issue(alice.clone(), &keys.public, validity, vec![]).unwrap();
    let credential = ig_pki::Credential::new(vec![cert], keys.private).unwrap();
    let mut gridmap = Gridmap::new();
    gridmap.add(&alice, "alice");
    let dsi = Arc::new(MemDsi::new());
    let obs = ig_obs::Obs::new("put-server");
    let cfg = ServerConfig::new(
        "put.example.org",
        host,
        trust.clone(),
        Arc::new(GridmapAuthz::new(gridmap)),
        Arc::clone(&dsi) as Arc<dyn Dsi>,
    )
    .with_clock(Clock::Fixed(NOW))
    .with_stall_timeout(STALL)
    .with_obs(Arc::clone(&obs));
    let server = GridFtpServer::start(cfg, seed).unwrap();
    let ccfg = ClientConfig::new(credential, trust).with_clock(Clock::Fixed(NOW)).with_seed(seed);
    let mut session = ClientSession::connect(server.addr(), ccfg).unwrap();
    session.login().unwrap();
    session.set_dcau(DcauMode::None).unwrap();
    World { server, dsi, obs, session }
}

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 % 251) as u8).collect()
}

fn opts(streams: usize) -> TransferOpts {
    TransferOpts::default().block(BLOCK).parallel(streams).timeout(Some(Duration::from_secs(10)))
}

fn stored(w: &World, path: &str) -> Vec<u8> {
    read_all(w.dsi.as_ref(), &UserContext::superuser(), path, 1 << 16).unwrap()
}

#[test]
fn uploads_with_little_or_nothing_to_send_still_end_every_stream() {
    let mut w = world(0x51);
    let t0 = Instant::now();
    for streams in [1usize, 2, 3] {
        // Nothing, less than a block, and fewer blocks than streams.
        for size in [0, 1, BLOCK - 1, BLOCK + 1] {
            let (data, path) = (pattern(size), format!("/home/alice/edge-{streams}-{size}"));
            let sent = transfer::put_bytes(&mut w.session, &path, &data, &opts(streams)).unwrap();
            assert_eq!(sent, size as u64, "{path}");
            assert_eq!(stored(&w, &path), data, "{path}");
        }
        // A `have` that covers the file, and one that reaches past its end.
        let (data, path) = (pattern(3 * BLOCK), format!("/home/alice/held-{streams}"));
        w.dsi.put(&path, &data);
        for reach in [3 * BLOCK as u64, 5 * BLOCK as u64] {
            let mut have = ByteRanges::new();
            have.add(0, reach);
            let sent =
                transfer::put_bytes_resume(&mut w.session, &path, &data, Some(&have), &opts(streams))
                    .unwrap();
            assert_eq!(sent, 0, "{path}: nothing was missing");
            assert_eq!(stored(&w, &path), data, "{path}");
        }
    }
    assert!(t0.elapsed() < STALL, "a transfer was timed out, not completed");
    w.session.quit().unwrap();
    w.server.shutdown();
}

#[test]
fn a_resumed_upload_moves_only_the_complement() {
    let mut w = world(0x52);
    let data = pattern(10 * BLOCK + 7);
    let len = data.len() as u64;
    let mut have = ByteRanges::new();
    have.add(0, 2 * BLOCK as u64 + 100);
    have.add(4 * BLOCK as u64, 7 * BLOCK as u64 - 1);
    have.add(len - 5, len);
    let missing = len - have.total();
    for streams in [1usize, 2, 3] {
        let path = format!("/home/alice/resumed-{streams}");
        // What an interrupted attempt left: the held ranges, holes between.
        let mut partial = vec![0u8; data.len()];
        for &(s, e) in have.ranges() {
            partial[s as usize..e as usize].copy_from_slice(&data[s as usize..e as usize]);
        }
        w.dsi.put(&path, &partial);
        let before = w.obs.metrics().counter_value("server.bytes_in");
        let sent =
            transfer::put_bytes_resume(&mut w.session, &path, &data, Some(&have), &opts(streams))
                .unwrap();
        assert_eq!(sent, missing, "{streams} streams");
        let moved = w.obs.metrics().counter_value("server.bytes_in") - before;
        assert_eq!(moved, missing, "{streams} streams: the server took in the holes only");
        assert_eq!(stored(&w, &path), data, "{streams} streams");
    }
    w.session.quit().unwrap();
    w.server.shutdown();
}

#[test]
fn a_session_takes_the_next_put_after_a_stream_failed_mid_transfer() {
    for streams in [1usize, 2] {
        let mut w = world(0x53 + streams as u64);
        let data = pattern(64 * BLOCK);
        // One stream is reset under its third frame; its budget is one
        // fire, so the channels the next upload dials are left alone.
        let reset = FaultSpec::send(FaultKind::Reset, Trigger::OnRecord(2));
        let hook = ChaosHook::new(ChaosConfig::single(0x53, reset));
        let faulty = opts(streams).chaos(Arc::clone(&hook));
        let err = transfer::put_bytes(&mut w.session, "/home/alice/first", &data, &faulty).unwrap_err();
        assert_eq!(hook.total_fires(), 1, "{streams} streams");
        // The 426 was read as this upload's answer, not left for the next.
        match &err {
            ClientError::ServerError(reply) => assert_eq!(reply.code, 426, "{streams} streams: {err}"),
            other => panic!("{streams} streams: {other}"),
        }
        let sent = transfer::put_bytes(&mut w.session, "/home/alice/second", &data, &faulty).unwrap();
        assert_eq!(sent, data.len() as u64, "{streams} streams");
        assert_eq!(stored(&w, "/home/alice/second"), data, "{streams} streams");
        w.session.quit().unwrap();
        w.server.shutdown();
    }
}
