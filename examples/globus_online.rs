//! Globus Online workflow — Figures 6 and 7.
//!
//! ```text
//! cargo run --release --example globus_online
//! ```
//!
//! Registers two GCMU endpoints with the hosted service, activates them
//! (one via password, one via OAuth so the password never transits the
//! service), then runs a managed third-party transfer through a
//! mid-transfer crash: the service re-authenticates with the stored
//! short-term credential and resumes from the last 111 checkpoint.

use instant_gridftp::gcmu::InstallOptions;
use instant_gridftp::gol::{GlobusOnline, TransferRequest};
use instant_gridftp::pki::time::Clock;
use instant_gridftp::server::UserContext;
use instant_gridftp::xio::{ChaosConfig, ChaosHook, FaultKind, FaultSpec, Trigger};

fn main() {
    println!("== Globus Online + GCMU (Figs 6-7) ==\n");
    // Crash mid-transfer: one connection reset after 400 kB have left the
    // source (the 800 kB file is auto-tuned to a single stream).
    let crash = FaultSpec::send(FaultKind::Reset, Trigger::AfterBytes(400_000));
    let fault = ChaosHook::new(ChaosConfig::single(300, crash));
    let src = InstallOptions::new("lab-cluster.example.org")
        .account("alice", "cluster pw")
        .seed(300)
        .data_chaos(fault)
        .install()
        .expect("install src");
    let dst = InstallOptions::new("campus-store.example.org")
        .account("alice", "campus pw")
        .seed(301)
        .oauth()
        .install()
        .expect("install dst");
    let data: Vec<u8> = (0..800_000u32).map(|i| (i * 7 % 251) as u8).collect();
    src.dsi
        .write(&UserContext::superuser(), "/home/alice/simulation-output.h5", 0, &data)
        .expect("stage");

    let go = GlobusOnline::new(Clock::System, 3000);
    go.register_gcmu(&src);
    go.register_gcmu(&dst);
    println!("[go] endpoints registered: lab-cluster, campus-store\n");

    // Activation 1: password via GO (Fig 6). GO sees the password but
    // does not store it — it keeps only the short-term certificate.
    let audit = go
        .activate_with_password("alice@go", "lab-cluster.example.org", "alice", "cluster pw", 3600)
        .expect("activate src");
    println!("[go] lab-cluster activated via password; password seen by: {:?}", audit.seen_by);

    // Activation 2: OAuth (Fig 7). The password goes only to the
    // endpoint's own login page; GO exchanges the code.
    let code = dst
        .oauth
        .as_ref()
        .expect("oauth enabled")
        .authorize("alice", "campus pw", "globus-online")
        .expect("endpoint login page");
    let audit = go
        .activate_with_oauth("alice@go", "campus-store.example.org", &code, 3600)
        .expect("activate dst");
    println!(
        "[go] campus-store activated via OAuth; password seen by: {:?} (not globus-online)\n",
        audit.seen_by
    );

    // The managed transfer, with one injected crash.
    println!("[go] transfer lab-cluster:/simulation-output.h5 -> campus-store (crash armed)");
    let result = go
        .submit(
            "alice@go",
            &TransferRequest {
                src_endpoint: "lab-cluster.example.org".into(),
                src_path: "/home/alice/simulation-output.h5".into(),
                dst_endpoint: "campus-store.example.org".into(),
                dst_path: "/home/alice/simulation-output.h5".into(),
                max_retries: 3,
                retry: None,
                opts: None, // auto-tuned
            },
        )
        .expect("managed transfer");
    println!("[go] completed={} after {} attempt(s)", result.completed, result.attempts);
    for e in go.events.lock().iter() {
        println!("     event: {e}");
    }
    let got = instant_gridftp::server::dsi::read_all(
        dst.dsi.as_ref(),
        &UserContext::user("alice"),
        "/home/alice/simulation-output.h5",
        1 << 20,
    )
    .expect("read back");
    assert_eq!(got, data);
    println!(
        "\nfile intact at destination ({} bytes) despite the mid-transfer crash —\n\
         restart came from the 111-marker checkpoint using the stored short-term credential.",
        got.len()
    );
    src.shutdown();
    dst.shutdown();
}
