//! E13 — observability overhead: what the `ObsLink` timing driver costs
//! on the data path.
//!
//! The observability layer's performance contract: the per-record
//! instrumentation cost is **fixed** — two clock reads, one histogram
//! record and one counter add per hop (see `ig_xio::obs`) — and stays
//! within **3%** of a tuned DTP block's wire time. The budget is stated
//! at the 64 KiB tuned block on a 10 Gbit/s path (52.4 µs/block, so 3%
//! = 1573 ns); the fixed cost measures in the low hundreds of
//! nanoseconds. Two measurements back this:
//!
//! * a **direct** measurement of the exact instrumentation sequence
//!   (deterministic, asserted by a unit test against the 1573 ns
//!   budget), and
//! * an **A/B** bare-pipe vs `ObsLink` comparison (informational: an
//!   in-process pipe moves a record ~30× faster than a 10 Gbit/s wire,
//!   so the same nanoseconds read as a larger percentage here);
//!   `igbench`'s `obs.trace_overhead_pct` is the end-to-end mirror of
//!   the A/B side.

use crate::table;
use ig_xio::{pipe, Link, ObsLink};
use std::sync::Arc;

/// One measured link variant.
pub struct Row {
    /// Variant name.
    pub label: &'static str,
    /// Best-of-rounds nanoseconds per record (send + recv).
    pub ns_per_record: f64,
}

/// A/B record size: the large end of the tuner's range, so the pipe's
/// per-record time (~tens of µs) is comparable to a real wire block.
const RECORD: usize = 1024 * 1024;
const ROUNDS: usize = 5;

/// 3% of a 64 KiB block at 10 Gbit/s (65536 * 8 / 1e10 s = 52.4 µs).
const CLAIM_BUDGET_NS: f64 = 1_573.0;

fn records(fast: bool) -> usize {
    if fast {
        64
    } else {
        256
    }
}

/// Directly measure the fixed per-hop instrumentation cost: the exact
/// sequence `ObsLink::send`/`recv` wrap around the inner call — an
/// `Instant::now`, an `elapsed`, one histogram record, one counter add.
/// Best-of-rounds minimum; unlike the A/B comparison below this does not
/// subtract two large noisy numbers, so it is stable enough to assert on.
pub fn fixed_cost_ns(iters: usize) -> f64 {
    let obs = ig_obs::Obs::new("e13-cost");
    let h = obs.metrics().histogram("e13.hop_ns");
    let c = obs.metrics().counter("e13.hop_bytes");
    let mut best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let start = std::time::Instant::now();
        for _ in 0..iters {
            let t0 = std::time::Instant::now();
            h.record(t0.elapsed().as_nanos() as u64);
            c.add(RECORD as u64);
        }
        best = best.min(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

/// Push `n` records through a freshly built link pair; return the best
/// (minimum) per-record time over [`ROUNDS`] rounds — minima are far
/// more stable than means under scheduler noise.
fn measure<F>(n: usize, mk: F) -> f64
where
    F: Fn() -> (Box<dyn Link>, Box<dyn Link>),
{
    let buf = vec![0xabu8; RECORD];
    let mut best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let (mut tx, mut rx) = mk();
        let start = std::time::Instant::now();
        for _ in 0..n {
            tx.send(&buf).expect("send");
            rx.recv().expect("recv");
        }
        best = best.min(start.elapsed().as_nanos() as f64 / n as f64);
    }
    best
}

/// Measure the A/B pair plus the direct fixed cost; returns the rows,
/// the A/B overhead in percent (clamped at zero — minima can invert on
/// noise), and the fixed per-hop cost in nanoseconds.
pub fn run(fast: bool) -> (Vec<Row>, f64, f64) {
    let n = records(fast);
    let bare = measure(n, || {
        let (a, b) = pipe();
        (Box::new(a) as Box<dyn Link>, Box::new(b) as Box<dyn Link>)
    });
    let obs = ig_obs::Obs::new("e13");
    let instrumented = measure(n, || {
        let (a, b) = pipe();
        (
            Box::new(ObsLink::new(a, Arc::clone(&obs), "e13.dtp")) as Box<dyn Link>,
            Box::new(ObsLink::new(b, Arc::clone(&obs), "e13.dtp")) as Box<dyn Link>,
        )
    });
    let overhead_pct = ((instrumented - bare) / bare * 100.0).max(0.0);
    let fixed = fixed_cost_ns(if fast { 10_000 } else { 100_000 });
    let rows = vec![
        Row { label: "bare pipe link", ns_per_record: bare },
        Row { label: "ObsLink (latency histograms + byte counters)", ns_per_record: instrumented },
    ];
    (rows, overhead_pct, fixed)
}

/// Render the table plus the claim-vs-measured note.
pub fn table(fast: bool) -> String {
    let (rows, overhead_pct, fixed) = run(fast);
    let mut t = vec![vec![
        "data path".to_string(),
        "per 1 MiB record".to_string(),
        "throughput".to_string(),
    ]];
    for r in &rows {
        t.push(vec![
            r.label.to_string(),
            format!("{:.0} ns", r.ns_per_record),
            table::fmt_bps(RECORD as f64 * 8.0 / (r.ns_per_record * 1e-9)),
        ]);
    }
    format!(
        "{}(claim: instrumentation <= 3% of a 64 KiB block at 10 Gbit/s, \
         i.e. <= {CLAIM_BUDGET_NS:.0} ns/record; measured fixed cost: {fixed:.0} ns/hop; \
         in-memory pipe A/B overhead: {overhead_pct:.2}%)\n",
        table::render(&t)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_within_claim() {
        let (rows, _overhead_pct, _) = run(true);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.ns_per_record.is_finite() && r.ns_per_record > 0.0);
        }
        // The enforceable side of the claim: the fixed per-hop cost must
        // fit the 3%-of-a-tuned-block budget. The A/B pipe comparison is
        // informational only — subtracting two allocator-noise-dominated
        // multi-microsecond numbers is not assertable in shared CI.
        // Re-measured (bounded) so a transient load spike on the CI box
        // cannot flake tier-1; a real regression fails every round.
        ig_xio::test_support::retry_measurement(3, "fixed instrumentation cost", || {
            let fixed = fixed_cost_ns(10_000);
            if fixed <= CLAIM_BUDGET_NS {
                Ok(())
            } else {
                Err(format!(
                    "fixed instrumentation cost {fixed:.0} ns/hop exceeds the \
                     {CLAIM_BUDGET_NS:.0} ns budget (3% of a 64 KiB block at 10 Gbit/s)"
                ))
            }
        });
    }

    #[test]
    fn note_carries_the_claim() {
        let rendered = table(true);
        let (_, rows, notes) = table::parse_rendered(&rendered);
        assert_eq!(rows.len(), 2);
        assert!(notes.iter().any(|n| n.contains("claim: instrumentation <= 3%")));
    }
}
