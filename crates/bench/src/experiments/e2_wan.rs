//! E2 — the headline claim (§I, §VII): "GridFTP has been shown to
//! deliver multiple orders of magnitude higher throughput than do other
//! data transfer methods such as secure copy (SCP)."
//!
//! Simulated on the netsim WAN substrate (we have no 10 Gbps testbed):
//! 10 Gbps bottleneck, RTT and loss swept, 256 MiB payload.
//! SCP = one stream, 64 KiB window, cipher ceiling; FTP = one stream,
//! 256 KiB window; GridFTP = tuned buffers, N parallel streams.

use crate::table;
use ig_baselines::ftp::ftp_netsim_params;
use ig_baselines::scp::scp_netsim_params;
use ig_netsim::{parallel_throughput_bps, Bottleneck, CcAlgo, TcpParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One sweep point.
pub struct Row {
    /// RTT in milliseconds.
    pub rtt_ms: f64,
    /// Path loss probability.
    pub loss: f64,
    /// Throughputs in bits/s: scp, ftp, gridftp x1, x8, x16.
    pub scp: f64,
    /// Plain FTP.
    pub ftp: f64,
    /// GridFTP single stream.
    pub gridftp_1: f64,
    /// GridFTP 8 streams.
    pub gridftp_8: f64,
    /// GridFTP 16 streams.
    pub gridftp_16: f64,
}

/// Run the sweep. `fast` trims the grid.
pub fn run(fast: bool) -> Vec<Row> {
    let bytes: u64 = if fast { 64 << 20 } else { 256 << 20 };
    let rtts = if fast { vec![0.01, 0.1] } else { vec![0.001, 0.01, 0.05, 0.1] };
    let losses = if fast { vec![0.0, 1e-4] } else { vec![0.0, 1e-5, 1e-4, 1e-3] };
    let mut rows = Vec::new();
    for &rtt in &rtts {
        for &loss in &losses {
            let link = Bottleneck::new(1e10, rtt, loss);
            let mut rng = StdRng::seed_from_u64(0xE2 ^ (rtt * 1e6) as u64 ^ (loss * 1e9) as u64);
            let scp = parallel_throughput_bps(&link, bytes, 1, scp_netsim_params(), &mut rng);
            let ftp = parallel_throughput_bps(&link, bytes, 1, ftp_netsim_params(), &mut rng);
            let g1 = parallel_throughput_bps(&link, bytes, 1, TcpParams::tuned(), &mut rng);
            let g8 = parallel_throughput_bps(&link, bytes, 8, TcpParams::tuned(), &mut rng);
            let g16 = parallel_throughput_bps(&link, bytes, 16, TcpParams::tuned(), &mut rng);
            rows.push(Row {
                rtt_ms: rtt * 1e3,
                loss,
                scp,
                ftp,
                gridftp_1: g1,
                gridftp_8: g8,
                gridftp_16: g16,
            });
        }
    }
    rows
}

/// Render the table.
pub fn table(fast: bool) -> String {
    let rows = run(fast);
    let mut t = vec![vec![
        "RTT".to_string(),
        "loss".to_string(),
        "scp".to_string(),
        "ftp".to_string(),
        "gridftp x1".to_string(),
        "gridftp x8".to_string(),
        "gridftp x16".to_string(),
        "x16/scp".to_string(),
    ]];
    for r in &rows {
        t.push(vec![
            format!("{:.0} ms", r.rtt_ms),
            format!("{:.0e}", r.loss),
            table::fmt_bps(r.scp),
            table::fmt_bps(r.ftp),
            table::fmt_bps(r.gridftp_1),
            table::fmt_bps(r.gridftp_8),
            table::fmt_bps(r.gridftp_16),
            format!("{:.0}x", r.gridftp_16 / r.scp),
        ]);
    }
    format!(
        "{}(10 Gbit/s bottleneck; scp = 64 KiB window + cipher ceiling, single stream)\n",
        table::render(&t)
    )
}

/// Streams in E2x's striped contenders (the tuner's large-file default).
const STRIPED_STREAMS: usize = 8;

/// One cell of the congestion-control grid: striped TCP under the two
/// loss-based controllers, in the packet simulator.
pub struct CcRow {
    /// RTT in milliseconds.
    pub rtt_ms: f64,
    /// Path loss probability.
    pub loss: f64,
    /// Striped Reno TCP, `STRIPED_STREAMS` streams (the default).
    pub reno_striped: f64,
    /// Striped CUBIC TCP, same stream count.
    pub cubic_striped: f64,
}

/// The congestion-control sweep: {RTT × loss} × {Reno×N, CUBIC×N} on a
/// 10 Gbit/s bottleneck. `fast` keeps only the two corners.
pub fn striped_cc_run(fast: bool) -> Vec<CcRow> {
    let bytes: u64 = if fast { 64 << 20 } else { 256 << 20 };
    let rtts = if fast { vec![0.0002, 0.1] } else { vec![0.0002, 0.01, 0.05, 0.1] };
    let losses = if fast { vec![1e-6, 1e-3] } else { vec![1e-6, 1e-5, 1e-4, 1e-3] };
    let mut rows = Vec::new();
    for &rtt in &rtts {
        for &loss in &losses {
            let link = Bottleneck::new(1e10, rtt, loss);
            let seed = 0xE2C ^ (rtt * 1e6) as u64 ^ (loss * 1e9) as u64;
            let mut rng = StdRng::seed_from_u64(seed);
            let reno = parallel_throughput_bps(
                &link,
                bytes,
                STRIPED_STREAMS,
                TcpParams::tuned(),
                &mut rng,
            );
            let cubic = parallel_throughput_bps(
                &link,
                bytes,
                STRIPED_STREAMS,
                TcpParams::tuned().with_cc(CcAlgo::Cubic),
                &mut rng,
            );
            rows.push(CcRow {
                rtt_ms: rtt * 1e3,
                loss,
                reno_striped: reno,
                cubic_striped: cubic,
            });
        }
    }
    rows
}

/// Render the congestion-control grid.
pub fn striped_cc_table(fast: bool) -> String {
    let rows = striped_cc_run(fast);
    let mut t = vec![vec![
        "RTT".to_string(),
        "loss".to_string(),
        format!("reno x{STRIPED_STREAMS}"),
        format!("cubic x{STRIPED_STREAMS}"),
    ]];
    for r in &rows {
        t.push(vec![
            format!("{:.1} ms", r.rtt_ms),
            format!("{:.0e}", r.loss),
            table::fmt_bps(r.reno_striped),
            table::fmt_bps(r.cubic_striped),
        ]);
    }
    format!("{}(10 Gbit/s bottleneck, simulated)\n", table::render(&t))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gridftp_beats_scp_by_orders_of_magnitude_on_the_wan() {
        let rows = run(true);
        // At 100 ms RTT the window cap strangles scp; parallel tuned
        // GridFTP should be >= 100x (the paper says "multiple orders of
        // magnitude").
        let wan = rows
            .iter()
            .find(|r| r.rtt_ms >= 99.0 && r.loss == 0.0)
            .expect("wan row");
        assert!(
            wan.gridftp_16 / wan.scp > 100.0,
            "x16/scp = {:.1}",
            wan.gridftp_16 / wan.scp
        );
        // Parallelism matters under loss.
        let lossy = rows
            .iter()
            .find(|r| r.rtt_ms >= 99.0 && r.loss > 0.0)
            .expect("lossy row");
        assert!(lossy.gridftp_16 > 2.0 * lossy.gridftp_1);
        // FTP sits between scp and tuned GridFTP on the WAN.
        assert!(wan.ftp > wan.scp);
        assert!(wan.gridftp_16 > wan.ftp);
    }

    #[test]
    fn cubic_outpaces_reno_on_the_long_fat_pipe() {
        // CUBIC's window growth is RTT-independent — on the high-BDP
        // lossy path it should recover faster than Reno's linear probe.
        let rows = striped_cc_run(true);
        let wan = rows
            .iter()
            .find(|r| r.rtt_ms >= 99.0 && r.loss >= 1e-3)
            .expect("wan corner");
        assert!(
            wan.cubic_striped >= wan.reno_striped,
            "cubic {:.2e} vs reno {:.2e}",
            wan.cubic_striped,
            wan.reno_striped
        );
    }

    #[test]
    fn lan_differences_are_modest() {
        // On a 1 ms LAN everything is fast — the win is a WAN story.
        let rows = run(false);
        let lan = rows.iter().find(|r| r.rtt_ms <= 1.1 && r.loss == 0.0).expect("lan row");
        assert!(lan.gridftp_16 / lan.scp < 100.0);
    }
}
