//! E9 — Fig 6: Globus Online restarts failed transfers "from the last
//! checkpoint" using the stored short-term credential. Measured with a
//! one-shot connection reset on the chaos layer; the ablation compares
//! checkpoint-restart against restart-from-scratch.

use crate::experiments::common::NOW;
use crate::table;
use ig_client::TransferOpts;
use ig_gcmu::InstallOptions;
use ig_gol::{GlobusOnline, TransferRequest};
use ig_pki::time::Clock;
use ig_server::UserContext;
use ig_xio::{ChaosConfig, ChaosHook, FaultKind, FaultSpec, Trigger};

/// One measured point.
pub struct Row {
    /// Where the fault hit, as a fraction of the file.
    pub fault_at: f64,
    /// Attempts used.
    pub attempts: u32,
    /// Completed?
    pub completed: bool,
    /// Bytes delivered with checkpoint restart.
    pub delivered_with_restart: u64,
    /// Bytes a from-scratch retry would deliver (file + wasted prefix).
    pub delivered_from_scratch: u64,
    /// Savings fraction.
    pub saved_fraction: f64,
}

/// Parallel data streams per transfer.
const STREAMS: usize = 2;

/// Run the sweep.
pub fn run(fast: bool) -> Vec<Row> {
    let size: usize = if fast { 120_000 } else { 600_000 };
    let mut rows = Vec::new();
    for (i, frac) in [0.25f64, 0.5, 0.75].iter().enumerate() {
        // `AfterBytes` counts per link and the sender deals blocks
        // round-robin, so each stream's share of the fault point is
        // `1 / STREAMS` of it: the reset lands when `frac` of the file
        // has left the server in total.
        let fault_at = (size as f64 * frac) as u64 / STREAMS as u64;
        let reset = FaultSpec::send(FaultKind::Reset, Trigger::AfterBytes(fault_at));
        let fault = ChaosHook::new(ChaosConfig::single(0xE9_00 + i as u64, reset));
        let a = InstallOptions::new("e9-src.example.org")
            .account("alice", "pw")
            .clock(Clock::Fixed(NOW))
            .seed(0xE9_00 + i as u64)
            .data_chaos(fault)
            .install()
            .expect("install src");
        let b = InstallOptions::new("e9-dst.example.org")
            .account("alice", "pw")
            .clock(Clock::Fixed(NOW))
            .seed(0xE9_50 + i as u64)
            .install()
            .expect("install dst");
        let root = UserContext::superuser();
        let data: Vec<u8> = (0..size as u32).map(|x| (x % 251) as u8).collect();
        a.dsi.write(&root, "/home/alice/f.bin", 0, &data).expect("stage");
        let go = GlobusOnline::new(Clock::Fixed(NOW), 0xE9_100 + i as u64 * 100);
        go.register_gcmu(&a);
        go.register_gcmu(&b);
        go.activate_with_password("u", "e9-src.example.org", "alice", "pw", 3600)
            .expect("activate src");
        go.activate_with_password("u", "e9-dst.example.org", "alice", "pw", 3600)
            .expect("activate dst");
        let result = go
            .submit(
                "u",
                &TransferRequest {
                    src_endpoint: "e9-src.example.org".into(),
                    src_path: "/home/alice/f.bin".into(),
                    dst_endpoint: "e9-dst.example.org".into(),
                    dst_path: "/home/alice/f.bin".into(),
                    max_retries: 3,
                    retry: None,
                    opts: Some(TransferOpts::default().parallel(STREAMS).block(8 * 1024)),
                },
            )
            .expect("managed transfer");
        // Checkpoint restart delivers ~size bytes total; a from-scratch
        // retry would deliver the wasted prefix plus the whole file.
        let wasted_prefix = (size as f64 * frac) as u64;
        let from_scratch = size as u64 + wasted_prefix;
        let with_restart = result.bytes_on_wire.max(size as u64);
        rows.push(Row {
            fault_at: *frac,
            attempts: result.attempts,
            completed: result.completed,
            delivered_with_restart: with_restart,
            delivered_from_scratch: from_scratch,
            saved_fraction: 1.0 - with_restart as f64 / from_scratch as f64,
        });
        a.shutdown();
        b.shutdown();
    }
    rows
}

/// Render the table.
pub fn table(fast: bool) -> String {
    let rows = run(fast);
    let mut t = vec![vec![
        "fault at".to_string(),
        "attempts".to_string(),
        "completed".to_string(),
        "bytes (checkpoint restart)".to_string(),
        "bytes (from scratch)".to_string(),
        "saved".to_string(),
    ]];
    for r in &rows {
        t.push(vec![
            format!("{:.0}%", r.fault_at * 100.0),
            r.attempts.to_string(),
            r.completed.to_string(),
            table::fmt_bytes(r.delivered_with_restart),
            table::fmt_bytes(r.delivered_from_scratch),
            format!("{:.0}%", r.saved_fraction * 100.0),
        ]);
    }
    format!(
        "{}(one injected crash per run; GO reauthenticates with the stored short-term cert and resumes)\n",
        table::render(&t)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restart_completes_and_saves_bytes() {
        let _serial = crate::experiments::common::bench_lock();
        let rows = run(true);
        for r in &rows {
            assert!(r.completed, "fault at {:.0}% did not recover", r.fault_at * 100.0);
            assert_eq!(r.attempts, 2);
            assert!(
                r.saved_fraction > 0.1,
                "restart at {:.0}% should save bytes (saved {:.2})",
                r.fault_at * 100.0,
                r.saved_fraction
            );
        }
        // Later faults waste more in the from-scratch baseline → larger
        // savings from checkpointing.
        assert!(rows[2].saved_fraction > rows[0].saved_fraction);
    }
}
