//! E5 — striping (§II, Fig 2): a striped server with one (rate-limited)
//! NIC per data-mover node scales throughput with stripe count.
//!
//! Measured: third-party transfer into a striped receiver whose stripes
//! are each throttled to a fixed rate — adding stripes adds capacity.

use crate::experiments::common::{endpoint_with, session, stage};
use crate::table;
use ig_client::{transfer, TransferOpts};
use ig_server::UserContext;

/// One measured point.
pub struct Row {
    /// Stripe count.
    pub stripes: usize,
    /// Seconds for the transfer.
    pub secs: f64,
    /// Aggregate throughput, bytes/second.
    pub bytes_per_sec: f64,
    /// Data connections the receiver actually used.
    pub streams: u32,
}

/// Per-stripe NIC rate (bytes/s). Deliberately far below what one CPU
/// can push through the stack, so the stripe limit (not the host CPU) is
/// the binding constraint — the same reason the real striped server puts
/// each DTP on its own node.
pub const STRIPE_RATE: f64 = 1024.0 * 1024.0;

/// Run the sweep.
pub fn run(fast: bool) -> Vec<Row> {
    let size = if fast { 1 << 20 } else { 4 << 20 };
    let stripe_counts: &[usize] = if fast { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let mut rows = Vec::new();
    for (i, &stripes) in stripe_counts.iter().enumerate() {
        let src = endpoint_with("e5-src.example.org", 0xE5_00 + i as u64, |o| o);
        let dst = endpoint_with("e5-dst.example.org", 0xE5_50 + i as u64, |o| {
            if stripes > 1 {
                o.striped(stripes, Some(STRIPE_RATE))
            } else {
                o.striped(1, Some(STRIPE_RATE))
            }
        });
        let data = stage(&src, "striped.bin", size);
        let mut sa = session(&src, 0xE5_100 + i as u64 * 7);
        let mut sb = session(&dst, 0xE5_200 + i as u64 * 7);
        sb.install_dcsc(sa.credential()).expect("dcsc");
        let opts = if stripes > 1 {
            TransferOpts::default().striped_mode().block(64 * 1024)
        } else {
            TransferOpts::default().block(64 * 1024)
        };
        let start = std::time::Instant::now();
        let outcome = transfer::third_party(
            &mut sa,
            "/home/alice/striped.bin",
            &mut sb,
            "/home/alice/striped.bin",
            &opts,
            None,
        )
        .expect("transfer");
        let secs = start.elapsed().as_secs_f64();
        assert!(outcome.is_success(), "stripes={stripes}: {outcome:?}");
        let alice = UserContext::user("alice");
        let got =
            ig_server::dsi::read_all(dst.dsi.as_ref(), &alice, "/home/alice/striped.bin", 1 << 20)
                .expect("read back");
        assert_eq!(got, data);
        let streams = dst.usage.records().first().map(|r| r.streams).unwrap_or(0);
        rows.push(Row { stripes, secs, bytes_per_sec: size as f64 / secs, streams });
        let _ = sa.quit();
        let _ = sb.quit();
        src.shutdown();
        dst.shutdown();
    }
    rows
}

/// Render the table.
pub fn table(fast: bool) -> String {
    let rows = run(fast);
    let mut t = vec![vec![
        "stripes".to_string(),
        "seconds".to_string(),
        "throughput".to_string(),
        "scaling".to_string(),
    ]];
    let base = rows[0].bytes_per_sec;
    for r in &rows {
        t.push(vec![
            r.stripes.to_string(),
            format!("{:.2}", r.secs),
            table::fmt_bps(r.bytes_per_sec * 8.0),
            format!("{:.1}x", r.bytes_per_sec / base),
        ]);
    }
    format!(
        "{}(per-stripe NIC limited to {}; ideal scaling = stripe count)\n",
        table::render(&t),
        table::fmt_bps(STRIPE_RATE * 8.0)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn striping_scales_throughput() {
        let _serial = crate::experiments::common::bench_lock();
        let rows = run(true);
        let one = rows.iter().find(|r| r.stripes == 1).expect("1-stripe row");
        let four = rows.iter().find(|r| r.stripes == 4).expect("4-stripe row");
        assert_eq!(four.streams, 4, "receiver should see 4 stripe connections");
        assert!(
            four.bytes_per_sec > 1.7 * one.bytes_per_sec,
            "4 stripes {:.2e} (streams {}) should scale vs 1 stripe {:.2e}",
            four.bytes_per_sec,
            four.streams,
            one.bytes_per_sec
        );
    }
}
