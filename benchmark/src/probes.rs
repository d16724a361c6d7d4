//! Isolated layer probes: each calls one layer's public entry point in a loop on
//! seeded input, in the workloads' own unit of work (a 256 KiB block, one
//! handshake, one command), and reports the cost of one unit.
//!
//! They measure from outside; nothing is added to the program. Each runs for
//! [`PROBE_TIME`], so the whole set fits in the five seconds a traced run gives it.

use crate::harness::{Result, SplitMix};
use crate::stats::thread_cpu;
use crate::workload::BLOCK_BYTES;
use ig_crypto::chacha20::ChaCha20;
use ig_crypto::{HmacKey, RsaKeyPair};
use ig_gcmu::InstallOptions;
use ig_gsi::keys::DirectionKeys;
use ig_gsi::record::{Opener, Sealer};
use ig_gsi::{GsiConfig, ProtectionLevel};
use ig_pki::time::Clock;
use ig_pki::{Credential, TrustStore};
use ig_protocol::mode_e::{self, Reassembler};
use ig_protocol::{BlockView, Command, Reply};
use ig_server::{Dsi, MemDsi, UserContext};
use ig_xio::{Link, TcpLink};
use std::hint::black_box;
use std::io::IoSlice;
use std::net::TcpListener;
use std::time::{Duration, Instant};

/// How long one probe measures.
pub const PROBE_TIME: Duration = Duration::from_millis(250);

const NOW: u64 = 1_700_000_000;

/// One probe result: the metric's name, its value and its unit.
pub type Reading = (&'static str, f64, &'static str);

/// Seconds per call of `f`, over at least [`PROBE_TIME`]. `f` is called in
/// batches of `batch`, so that reading the clock costs nothing next to a call
/// that takes nanoseconds.
fn per_call(batch: u32, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    loop {
        for _ in 0..batch {
            f();
        }
        calls += u64::from(batch);
        let elapsed = start.elapsed();
        if elapsed >= PROBE_TIME {
            return elapsed.as_secs_f64() / calls as f64;
        }
    }
}

/// Seconds per call spent inside the `Duration` that `f` returns: for probes
/// that must prepare each call outside the timed part.
fn per_timed_part(mut f: impl FnMut() -> Duration) -> f64 {
    let start = Instant::now();
    let (mut inside, mut calls) = (Duration::ZERO, 0u32);
    while start.elapsed() < PROBE_TIME {
        inside += f();
        calls += 1;
    }
    inside.as_secs_f64() / f64::from(calls)
}

fn block(rng: &mut SplitMix) -> Vec<u8> {
    let mut data = vec![0u8; BLOCK_BYTES];
    rng.fill(&mut data);
    data
}

fn crypto(rng: &mut SplitMix, out: &mut Vec<Reading>) -> Result<()> {
    let mut data = block(rng);
    let (mut key, mut nonce) = ([0u8; 32], [0u8; 12]);
    rng.fill(&mut key);
    rng.fill(&mut nonce);
    let secs = per_call(1, || {
        ChaCha20::new(&key, &nonce).apply(black_box(&mut data))
    });
    out.push((
        "crypto.chacha20_MBps",
        BLOCK_BYTES as f64 / secs / 1e6,
        "MB/s",
    ));
    let mac = HmacKey::new(&key);
    let secs = per_call(1, || {
        black_box(mac.mac(black_box(&data)));
    });
    out.push((
        "crypto.hmac_sha256_MBps",
        BLOCK_BYTES as f64 / secs / 1e6,
        "MB/s",
    ));

    let mut key_rng = ig_crypto::rng::seeded(rng.next_u64());
    let secs = per_call(1, || {
        black_box(RsaKeyPair::generate(&mut key_rng, 512).expect("512-bit keygen"));
    });
    out.push(("crypto.rsa_keygen_ms", secs * 1e3, "ms"));
    let pair = RsaKeyPair::generate(&mut key_rng, 512)?;
    let message = &data[..64];
    let secs = per_call(1, || {
        black_box(pair.private.sign(black_box(message)).expect("sign"));
    });
    out.push(("crypto.rsa_sign_us", secs * 1e6, "us"));
    let signature = pair.private.sign(message)?;
    let secs = per_call(1, || {
        pair.public
            .verify(black_box(message), &signature)
            .expect("verify")
    });
    out.push(("crypto.rsa_verify_us", secs * 1e6, "us"));
    Ok(())
}

fn gsi_records(rng: &mut SplitMix, out: &mut Vec<Reading>) {
    let data = block(rng);
    let mut keys = DirectionKeys {
        enc_key: [0; 32],
        mac_key: [0; 32],
        nonce_prefix: [0; 4],
    };
    rng.fill(&mut keys.enc_key);
    rng.fill(&mut keys.mac_key);
    rng.fill(&mut keys.nonce_prefix);
    let mut sealer = Sealer::new(keys.clone());
    let mut record = Vec::new();
    let secs = per_call(1, || {
        sealer.seal_into(ProtectionLevel::Private, black_box(&data), &mut record)
    });
    out.push(("gsi.seal_us_per_block", secs * 1e6, "us"));
    // The opener enforces sequence order, so each opened record is sealed fresh;
    // only the opening is timed.
    let (mut sealer, mut opener) = (Sealer::new(keys.clone()), Opener::new(keys));
    let secs = per_timed_part(|| {
        sealer.seal_into(ProtectionLevel::Private, &data, &mut record);
        let t0 = Instant::now();
        black_box(
            opener
                .open_in_place(black_box(&mut record))
                .expect("open what was just sealed"),
        );
        t0.elapsed()
    });
    out.push(("gsi.open_us_per_block", secs * 1e6, "us"));
}

/// The fixed costs of getting to a first transfer, against a probe-local
/// endpoint: install, MyProxy logon, chain validation, one mutual handshake.
fn identity(rng: &mut SplitMix, out: &mut Vec<Reading>) -> Result<()> {
    let install = |seed: u64| {
        InstallOptions::new("probe.example.org")
            .account("alice", "pw")
            .clock(Clock::Fixed(NOW))
            .seed(seed)
            .install()
    };
    let mut seed = rng.next_u64();
    let secs = per_timed_part(|| {
        seed = seed.wrapping_add(1);
        let t0 = Instant::now();
        let ep = install(seed).expect("install");
        let took = t0.elapsed();
        ep.shutdown();
        took
    });
    out.push(("core.install_ms", secs * 1e3, "ms"));

    let ep = install(rng.next_u64())?;
    let mut logon_seed = rng.next_u64();
    let secs = per_call(1, || {
        logon_seed = logon_seed.wrapping_add(1);
        black_box(ep.logon("alice", "pw", 3600, logon_seed).expect("logon"));
    });
    out.push(("myproxy.logon_ms", secs * 1e3, "ms"));

    let logon = ep.logon("alice", "pw", 3600, rng.next_u64())?;
    let mut trust = TrustStore::new();
    for root in &logon.trust_roots {
        trust.add_root_with_policy(root.clone(), logon.signing_policy.clone());
    }
    let secs = per_call(1, || {
        black_box(
            ig_pki::validate_chain(logon.credential.chain(), &trust, NOW).expect("valid chain"),
        );
    });
    out.push(("pki.validate_chain_us", secs * 1e6, "us"));

    let mut host_rng = ig_crypto::rng::seeded(rng.next_u64());
    let (host_cert, host_key) = ep.ca.issue_host_cert(&mut host_rng, 512)?;
    let host = Credential::new(vec![host_cert, ep.ca.root_cert()], host_key)?;
    let client_cfg =
        GsiConfig::new(logon.credential.clone(), trust.clone()).with_clock(Clock::Fixed(NOW));
    let server_cfg = GsiConfig::new(host, trust).with_clock(Clock::Fixed(NOW));
    let mut handshake_seed = rng.next_u64();
    let secs = per_call(1, || {
        handshake_seed = handshake_seed.wrapping_add(2);
        let (a, b) = ig_xio::pipe();
        let (client_cfg, server_cfg) = (client_cfg.clone(), server_cfg.clone());
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let mut rng = ig_crypto::rng::seeded(handshake_seed);
                ig_xio::secure_accept(b, server_cfg, ProtectionLevel::Private, &mut rng)
                    .expect("accept side");
            });
            let mut rng = ig_crypto::rng::seeded(handshake_seed + 1);
            ig_xio::secure_connect(a, client_cfg, ProtectionLevel::Private, &mut rng)
                .expect("connect side");
        });
    });
    out.push(("gsi.handshake_ms", secs * 1e3, "ms"));
    ep.shutdown();
    Ok(())
}

fn protocol(rng: &mut SplitMix, out: &mut Vec<Reading>) -> Result<()> {
    // The DTP sends `encode_header` plus the payload slice as one vectored write,
    // so the header is all that is encoded per block.
    let mut offset = 0u64;
    let secs = per_call(256, || {
        offset = offset.wrapping_add(BLOCK_BYTES as u64);
        black_box(mode_e::encode_header(
            0,
            black_box(BLOCK_BYTES as u64),
            offset,
        ));
    });
    out.push(("protocol.mode_e_encode_ns_per_block", secs * 1e9, "ns"));

    // Offsets cycle inside 64 blocks, so the reassembly buffer stops growing
    // and the steady state is what is timed.
    let mut message = mode_e::encode_header(0, BLOCK_BYTES as u64, 0).to_vec();
    message.extend_from_slice(&block(rng));
    let mut reassembler = Reassembler::new();
    let mut index = 0u64;
    let secs = per_call(1, || {
        index = (index + 1) % 64;
        message[9..17].copy_from_slice(&(index * BLOCK_BYTES as u64).to_be_bytes());
        let view = BlockView::parse(black_box(&message)).expect("well-formed block");
        reassembler.push_view(&view).expect("in-range block");
    });
    out.push(("protocol.mode_e_decode_ns_per_block", secs * 1e9, "ns"));

    let secs = per_call(64, || {
        let cmd =
            Command::parse(black_box("RETR /home/alice/d07/f113.bin")).expect("valid command");
        black_box(cmd.to_string());
        let wire = Reply::new(226, "Transfer complete.").to_wire();
        black_box(Reply::parse(black_box(&wire)).expect("valid reply"));
    });
    out.push(("protocol.cmd_codec_ns", secs * 1e9, "ns"));
    Ok(())
}

/// One loopback `TcpLink` pair moving 256 KiB blocks the way the DTP does. Each
/// side's cost is the CPU its own thread spent per block, so time blocked on the
/// other side is not counted twice.
fn tcp(rng: &mut SplitMix, out: &mut Vec<Reading>) -> Result<()> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    // A fixed count, not a fixed time: every closed connection holds its port in
    // TIME_WAIT for a minute, and the workloads need ports too.
    const CONNECTS: u32 = 512;
    let start = Instant::now();
    for _ in 0..CONNECTS {
        let link = TcpLink::connect(addr)?;
        black_box((link, TcpLink::new(listener.accept()?.0)));
    }
    out.push((
        "xio.tcp_connect_us",
        start.elapsed().as_secs_f64() * 1e6 / f64::from(CONNECTS),
        "us",
    ));

    let payload = block(rng);
    let mut sender = TcpLink::connect(addr)?;
    let mut receiver = TcpLink::new(listener.accept()?.0);
    let (sent, send_cpu, recv_cpu, blocks) = std::thread::scope(|scope| {
        let receiving = scope.spawn(move || {
            let (mut buf, mut blocks) = (Vec::new(), 0u32);
            let cpu0 = thread_cpu();
            while receiver.recv_into(&mut buf).is_ok() {
                blocks += 1;
            }
            (thread_cpu() - cpu0, blocks)
        });
        let header = mode_e::encode_header(0, BLOCK_BYTES as u64, 0);
        let (start, cpu0) = (Instant::now(), thread_cpu());
        let mut sent = Ok(());
        while sent.is_ok() && start.elapsed() < PROBE_TIME {
            sent = sender.send_vectored(&[IoSlice::new(&header), IoSlice::new(&payload)]);
        }
        let send_cpu = thread_cpu() - cpu0;
        // Closing is what ends the receiver's loop, so it comes before the join.
        let _ = sender.close();
        let (recv_cpu, blocks) = receiving.join().expect("receiver thread");
        (sent, send_cpu, recv_cpu, blocks)
    });
    sent?;
    out.push((
        "xio.tcp_send_us_per_block",
        send_cpu.as_secs_f64() * 1e6 / f64::from(blocks),
        "us",
    ));
    out.push((
        "xio.tcp_recv_us_per_block",
        recv_cpu.as_secs_f64() * 1e6 / f64::from(blocks),
        "us",
    ));
    Ok(())
}

fn dsi(rng: &mut SplitMix, out: &mut Vec<Reading>) {
    const FILE_BLOCKS: u64 = 256;
    let (store, user, data) = (MemDsi::new(), UserContext::superuser(), block(rng));
    for i in 0..FILE_BLOCKS {
        store
            .write(&user, "/probe.bin", i * BLOCK_BYTES as u64, &data)
            .expect("fill probe file");
    }
    let mut index = 0u64;
    let secs = per_call(1, || {
        index = (index + 1) % FILE_BLOCKS;
        black_box(
            store
                .read(&user, "/probe.bin", index * BLOCK_BYTES as u64, BLOCK_BYTES)
                .expect("read"),
        );
    });
    out.push(("server.dsi_read_us_per_block", secs * 1e6, "us"));
    let secs = per_call(1, || {
        index = (index + 1) % FILE_BLOCKS;
        store
            .write(
                &user,
                "/probe.bin",
                index * BLOCK_BYTES as u64,
                black_box(&data),
            )
            .expect("write");
    });
    out.push(("server.dsi_write_us_per_block", secs * 1e6, "us"));
}

/// Run every probe once, single-threaded except where a layer needs a peer.
pub fn run_all(seed: u64) -> Result<Vec<Reading>> {
    let mut rng = SplitMix(seed ^ 0x5052_4F42_4553);
    let mut out = Vec::new();
    crypto(&mut rng, &mut out)?;
    gsi_records(&mut rng, &mut out);
    identity(&mut rng, &mut out)?;
    protocol(&mut rng, &mut out)?;
    tcp(&mut rng, &mut out)?;
    dsi(&mut rng, &mut out);
    Ok(out)
}
