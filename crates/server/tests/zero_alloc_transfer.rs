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
//! And for uploads, in bytes: a `put_bytes` sends the caller's buffer, so a
//! 32 MiB PUT over a file of that size allocates receive buffers and little
//! else on either end — staging the upload in a `MemDsi` and reading it
//! back made it three to four times the file — and the calling thread, the
//! whole client side of a one-stream upload, allocates nothing file-sized.
//!
//! Lives in its own test binary so no other test's allocations can race
//! the counters; the tests here take turns under one lock.

use ig_client::{transfer, ClientConfig, ClientSession, TransferOpts};
use ig_pki::time::Clock;
use ig_pki::{DistinguishedName, Gridmap, TrustStore};
use ig_server::dtp::{send_ranges, Progress, Receiver};
use ig_server::{Dsi, GridFtpServer, GridmapAuthz, MemDsi, ServerConfig, UserContext};
use ig_xio::{Link, TcpLink};
use std::alloc::{GlobalAlloc, Layout, System};
use std::net::TcpListener;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
/// Bytes requested by every thread; a `realloc` counts what it grows by.
static BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The share of `BYTES` this thread asked for.
    static MY_BYTES: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes, Ordering::Relaxed);
    // No allocation in here: the cell is const-initialised and has no
    // destructor. A thread past its TLS teardown is simply not attributed.
    let _ = MY_BYTES.try_with(|mine| mine.set(mine.get() + bytes));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
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

/// A server over a `MemDsi` holding `files` in alice's home, its hub, and
/// alice logged in.
fn logged_in(
    seed: u64,
    files: &[(&str, &[u8])],
) -> (Arc<GridFtpServer>, Arc<MemDsi>, Arc<ig_obs::Obs>, ClientSession) {
    const NOW: u64 = 1_000_000;
    let mut rng = ig_crypto::rng::seeded(seed);
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
    for (name, data) in files {
        dsi.put(&format!("/home/alice/{name}"), data);
    }
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
    (server, dsi, obs, session)
}

#[test]
fn second_get_of_a_session_does_no_rsa() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let file: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
    let (_server, _dsi, obs, mut session) = logged_in(0xCAC4E, &[("a.bin", &file), ("b.bin", &file)]);
    let opts = TransferOpts::default();

    // Server and client share this process, so one count covers both ends
    // of the DCAU handshake: two RSA signatures, two chain validations.
    let t0 = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(transfer::get_bytes(&mut session, "/home/alice/a.bin", &opts).unwrap(), file);
    let t1 = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(transfer::get_bytes(&mut session, "/home/alice/b.bin", &opts).unwrap(), file);
    let t2 = ALLOCATIONS.load(Ordering::Relaxed);
    let (first, second) = (t1 - t0, t2 - t1);
    // 255 against 1,835 since PR 24 (a signature is 79 blocks, it was 5,447,
    // and the ratio 52x): the handshake's blocks are now the records, chains
    // and contexts around the RSA, still 6x a GET on the kept channel.
    assert!(
        second * 4 < first,
        "second GET performed {second} allocations against the first GET's {first} — \
         it is authenticating its data channel again"
    );
    let metrics = obs.metrics();
    assert_eq!(metrics.counter_value("server.dtp.channels_opened"), 1);
    assert_eq!(metrics.counter_value("server.dtp.channels_reused"), 1);
    session.quit().unwrap();
}

#[test]
fn a_put_allocates_nothing_file_sized_on_either_end() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    const FILE: usize = 32 << 20;
    const MIB: usize = 1 << 20;
    let data: Vec<u8> = (0..FILE).map(|i| (i % 251) as u8).collect();
    // The uploads overwrite files of their own size: `STOR` truncates and
    // the blocks refill the store's buffer, so the server's copy costs no
    // allocation either and the bound below has no file in it at all. (A
    // fresh file's buffer grows by doubling, from wherever the first blocks
    // happen to land: anything from one to two files' worth.)
    let held = vec![0u8; FILE];
    let (_server, dsi, _obs, mut session) =
        logged_in(0xA110C, &[("put-1.bin", &held), ("put-2.bin", &held)]);
    drop(held);
    // No DCAU handshake (RSA: a megabyte of small allocations for every
    // stream dialled): what is counted is the transfer.
    session.set_dcau(ig_protocol::command::DcauMode::None).unwrap();
    let mine = || MY_BYTES.with(Cell::get);
    for streams in [1usize, 2] {
        let path = format!("/home/alice/put-{streams}.bin");
        let opts = TransferOpts::default().block(256 * 1024).parallel(streams);
        let (all, here) = (BYTES.load(Ordering::Relaxed), mine());
        assert_eq!(transfer::put_bytes(&mut session, &path, &data, &opts).unwrap(), FILE as u64);
        let (all, here) = (BYTES.load(Ordering::Relaxed) - all, mine() - here);
        // Server and client share this process: `all` is both ends, `here`
        // the thread that called `put_bytes` — with one stream, the whole
        // client side. Staging the upload cost three files with one stream
        // and four with two; a worker copying its share would cost one.
        assert!(
            all < FILE / 2,
            "{streams} streams: a {} MiB upload allocated {} MiB — it is being staged again",
            FILE / MIB,
            all / MIB
        );
        assert!(here < MIB / 4, "{streams} streams: the caller allocated {here} bytes of its own");
        let stored = ig_server::dsi::read_all(dsi.as_ref(), &UserContext::superuser(), &path, MIB);
        assert!(stored.unwrap() == data, "{streams} streams: stored intact");
    }
    session.quit().unwrap();
}
