//! Allocation accounting for the MODE E data plane.
//!
//! Streams a multi-megabyte transfer over a real TCP loopback through the
//! DTP sender and receiver and asserts that heap allocations grow with
//! *read chunks* (64 KiB granularity), not with *blocks*: the per-block
//! seal/frame/send path is allocation-free. The old code allocated at
//! least four times per block (fragment payload copy, encode buffer,
//! receive buffer, decode payload copy); this test fails if that
//! behaviour comes back.
//!
//! And one level up: the second 4 KiB GET of a session rides the data
//! channel the first one authenticated, so it performs no RSA operation —
//! its allocation count (RSA is big-integer traffic, thousands of
//! allocations a handshake) is a small fraction of the first GET's. A
//! change that silently re-handshakes per file fails here, not in a
//! benchmark.
//!
//! Lives in its own test binary so no other test's allocations can race
//! the counter; the two tests here take turns under one lock.

use ig_client::{transfer, ClientConfig, ClientSession, TransferOpts};
use ig_pki::time::Clock;
use ig_pki::{DistinguishedName, Gridmap, TrustStore};
use ig_server::dtp::{send_ranges, Progress, Receiver};
use ig_server::{Dsi, GridFtpServer, GridmapAuthz, MemDsi, ServerConfig, UserContext};
use ig_xio::{Link, TcpLink};
use std::alloc::{GlobalAlloc, Layout, System};
use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One counter, one measurement at a time.
static TURN: Mutex<()> = Mutex::new(());

#[test]
fn transfer_allocations_scale_with_chunks_not_blocks() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    const TOTAL: usize = 4 << 20; // 4 MiB
    const BLOCK: usize = 8 * 1024; // 512 blocks, read chunk stays 64 KiB

    let data: Vec<u8> = (0..TOTAL).map(|i| (i % 251) as u8).collect();
    let src = MemDsi::new();
    src.put("/src.bin", &data);
    let src: Arc<dyn Dsi> = Arc::new(src);
    let dst: Arc<dyn Dsi> = Arc::new(MemDsi::new());
    let user = UserContext::superuser();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let receiver = Receiver::new(Arc::clone(&dst), user.clone(), "/dst.bin", Progress::new());

    let mut sender_links: Vec<Box<dyn Link>> = Vec::new();
    for _ in 0..2 {
        let out = TcpLink::connect(addr).unwrap();
        let (inbound, _) = listener.accept().unwrap();
        sender_links.push(Box::new(out));
        receiver.add_stream(Box::new(TcpLink::new(inbound))).unwrap();
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let (sent, _) = send_ranges(
        sender_links,
        &src,
        &user,
        "/src.bin",
        &[(0, TOTAL as u64)],
        BLOCK,
        &Progress::new(),
        &mut || Ok(()),
    )
    .unwrap();
    assert_eq!(sent, TOTAL as u64);
    assert_eq!(receiver.finish().unwrap().0, TOTAL as u64);
    let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let blocks = TOTAL / BLOCK;
    assert!(
        delta < blocks,
        "transfer of {blocks} blocks performed {delta} allocations — \
         the per-block path is allocating again"
    );

    // And the bytes arrived intact.
    let got = ig_server::dsi::read_all(dst.as_ref(), &user, "/dst.bin", 1 << 16).unwrap();
    assert_eq!(got, data);
}

#[test]
fn second_get_of_a_session_does_no_rsa() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    const NOW: u64 = 1_000_000;
    let mut rng = ig_crypto::rng::seeded(0xCAC4E);
    let (ca, host) = ig_gsi::context::test_support::ca_and_credential(&mut rng, "/O=CA", "/CN=host");
    let mut trust = TrustStore::new();
    trust.add_root(ca.root_cert().clone());
    // alice under the same CA.
    let keys = ig_crypto::RsaKeyPair::generate(&mut rng, 512).unwrap();
    let alice_dn = DistinguishedName::parse("/O=Grid/CN=Alice Smith").unwrap();
    let mut ca = ca;
    let cert = ca
        .issue(alice_dn.clone(), &keys.public, ig_pki::cert::Validity::starting_at(0, NOW * 10), vec![])
        .unwrap();
    let alice = ig_pki::Credential::new(vec![cert], keys.private).unwrap();
    let mut gridmap = Gridmap::new();
    gridmap.add(&alice_dn, "alice");
    let dsi = Arc::new(MemDsi::new());
    let file: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
    dsi.put("/home/alice/a.bin", &file);
    dsi.put("/home/alice/b.bin", &file);
    let obs = ig_obs::Obs::new("alloc-server");
    let cfg = ServerConfig::new(
        "host",
        host,
        trust.clone(),
        Arc::new(GridmapAuthz::new(gridmap)),
        Arc::clone(&dsi) as Arc<dyn Dsi>,
    )
    .with_clock(Clock::Fixed(NOW))
    .with_obs(Arc::clone(&obs));
    let server = GridFtpServer::start(cfg, 5).unwrap();
    let ccfg = ClientConfig::new(alice, trust)
        .with_clock(Clock::Fixed(NOW))
        .with_obs(ig_obs::Obs::new("alloc-client"));
    let mut session = ClientSession::connect(server.addr(), ccfg).unwrap();
    session.login().unwrap();
    let opts = TransferOpts::default();

    // Server and client share this process, so one count covers both ends
    // of the DCAU handshake: two RSA signatures, two chain validations.
    let t0 = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(transfer::get_bytes(&mut session, "/home/alice/a.bin", &opts).unwrap(), file);
    let t1 = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(transfer::get_bytes(&mut session, "/home/alice/b.bin", &opts).unwrap(), file);
    let t2 = ALLOCATIONS.load(Ordering::Relaxed);
    let (first, second) = (t1 - t0, t2 - t1);
    assert!(
        second * 10 < first,
        "second GET performed {second} allocations against the first GET's {first} — \
         it is authenticating its data channel again"
    );
    let metrics = obs.metrics();
    assert_eq!(metrics.counter_value("server.dtp.channels_opened"), 1);
    assert_eq!(metrics.counter_value("server.dtp.channels_reused"), 1);
    session.quit().unwrap();
}
