//! Metric names and units, how each is computed from the samples, and the
//! result line the driver reads.

use crate::harness::Sample;
use crate::probes::Reading;
use crate::stats::{interquartile_mean, median, tail, SiteStats};
use crate::workload::{Workload, BLOCK_BYTES};
use ig_gsi::ProtectionLevel;

/// A named number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// `(name, unit)` of every end-to-end metric, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 2] = [("setup_s", "s"), ("goodput_MBps", "MB/s")];

/// `(name, unit)` of every per-layer metric, in `BENCHMARK.json` order: the
/// isolated probes, then what is measured in place during the workload.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("crypto.chacha20_MBps", "MB/s"),
    ("crypto.hmac_sha256_MBps", "MB/s"),
    ("crypto.rsa_keygen_ms", "ms"),
    ("crypto.rsa_sign_us", "us"),
    ("crypto.rsa_verify_us", "us"),
    ("gsi.seal_us_per_block", "us"),
    ("gsi.open_us_per_block", "us"),
    ("core.install_ms", "ms"),
    ("myproxy.logon_ms", "ms"),
    ("pki.validate_chain_us", "us"),
    ("gsi.handshake_ms", "ms"),
    ("protocol.mode_e_encode_ns_per_block", "ns"),
    ("protocol.mode_e_decode_ns_per_block", "ns"),
    ("protocol.cmd_codec_ns", "ns"),
    ("xio.tcp_connect_us", "us"),
    ("xio.tcp_send_us_per_block", "us"),
    ("xio.tcp_recv_us_per_block", "us"),
    ("server.dsi_read_us_per_block", "us"),
    ("server.dsi_write_us_per_block", "us"),
    ("client.cold_setup_s", "s"),
    ("client.logon_ms", "ms"),
    ("client.connect_login_ms", "ms"),
    ("client.noop_rtt_us", "us"),
    ("client.warmup_s", "s"),
    ("client.op_samples", "count"),
    ("client.op_p50_ms", "ms"),
    ("client.mean_goodput_MBps", "MB/s"),
    ("client.op_tail_ms", "ms"),
    ("client.op_tail_pct", "%"),
    ("client.cmd_rtt_p50_us", "us"),
    ("client.wait_ms_per_op", "ms"),
    ("server.cmds_per_op", "count"),
    ("server.cmd_rtt_p50_us", "us"),
    ("server.bytes_out_per_op", "B"),
    ("gsi.records_per_op", "count"),
    ("gsi.seal_busy_share", "1"),
    ("gsi.open_busy_share", "1"),
    ("xio.dtp_send_busy_share", "1"),
    ("xio.dtp_recv_busy_share", "1"),
    ("trace.sender_side_ms", "ms"),
    ("trace.receiver_side_ms", "ms"),
    ("trace.unattributed_share", "1"),
    ("obs.trace_overhead_pct", "%"),
    ("proc.peak_rss_MiB", "MiB"),
    ("proc.cpu_ms_per_op", "ms"),
    ("proc.allocs_per_op", "count"),
    ("proc.alloc_MiB_per_op", "MiB"),
];

/// Interquartile mean of the process CPU time spent inside the client call.
/// Planned as an end-to-end gate; on `small_files_get`, where an operation is
/// 2 to 4 ms of CPU after 50 ms asleep, it spread 9 to 28 % between identical
/// runs, so it is a per-layer number (`CALIBRATION.md`).
pub fn cpu_ms_per_op(samples: &[Sample]) -> f64 {
    let cpu_ms: Vec<f64> = samples.iter().map(|s| s.cpu.as_secs_f64() * 1e3).collect();
    interquartile_mean(&cpu_ms)
}

/// Wall time of each operation in milliseconds.
pub fn wall_ms(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.wall.as_secs_f64() * 1e3).collect()
}

/// Bytes of every operation whose output matched over the time of every
/// operation, matched or not, in 10^6 B/s: what the window delivered, stalls
/// and failures included. Planned as the gate; between identical runs it
/// spread 5 to 20 % on the two clear workloads, because one operation in
/// thirty-five stalls for two to five times its normal length, so it is the
/// per-layer `client.mean_goodput_MBps` (`CALIBRATION.md`).
pub fn mean_goodput_mbps(w: &Workload, samples: &[Sample]) -> f64 {
    let verified_bytes = samples.iter().filter(|s| s.ok).count() as f64 * w.file_bytes as f64;
    verified_bytes / (wall_ms(samples).iter().sum::<f64>() / 1e3) / 1e6
}

/// The two end-to-end metrics of one untraced window.
///
/// Goodput is the payload of one operation over the interquartile mean of the
/// operation times, times the share of operations whose output matched: a
/// failed operation delivers nothing and is charged a typical operation's time.
/// See [`interquartile_mean`] for why it is neither a plain mean (which follows
/// the few operations a disturbed host stalls) nor a median (which jumps from
/// one step of the server's 50 ms grid to the next).
pub fn end_to_end(w: &Workload, samples: &[Sample], setup_s: f64) -> Vec<Metric> {
    let verified_share = samples.iter().filter(|s| s.ok).count() as f64 / samples.len() as f64;
    let typical_s = interquartile_mean(&wall_ms(samples)) / 1e3;
    let values = [
        setup_s,
        verified_share * w.file_bytes as f64 / typical_s / 1e6,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| metric(name, value, unit))
        .collect()
}

/// What a traced run measured around the workload, beside the samples.
pub struct InSitu {
    /// The whole of the traced run's one set-up, which is the first thing the
    /// process does: what `setup_s` (a median of warm repeats) leaves out.
    pub cold_setup_s: f64,
    pub logon_ms: f64,
    pub connect_login_ms: f64,
    pub noop_rtt_us: f64,
    pub warmup_s: f64,
    /// `VmHWM` when the window closed. A gate in the first plan; its spread
    /// between identical runs (up to 13 %) sent it here, see `CALIBRATION.md`.
    pub peak_rss_mib: f64,
    pub before: SiteStats,
    pub after: SiteStats,
}

fn probe(probes: &[Reading], name: &str) -> f64 {
    probes
        .iter()
        .find(|p| p.0 == name)
        .map(|p| p.1)
        .expect("every probe named here is in run_all")
}

/// Milliseconds per operation each side of the transfer would need if it did
/// nothing but the work the probes priced: blocks times the per-block costs of
/// that side's layers, plus the per-operation fixed costs both sides share (one
/// TCP connect and one DCAU handshake per data connection, and the command codec).
fn waterfall(w: &Workload, probes: &[Reading], cmds_per_op: f64) -> (f64, f64) {
    let blocks = w.file_bytes as f64 / BLOCK_BYTES as f64;
    let sealed = w.prot == ProtectionLevel::Private;
    let us = |name: &str| probe(probes, name);
    let sender_us = us("server.dsi_read_us_per_block")
        + us("protocol.mode_e_encode_ns_per_block") / 1e3
        + if sealed {
            us("gsi.seal_us_per_block")
        } else {
            0.0
        }
        + us("xio.tcp_send_us_per_block");
    let receiver_us = us("xio.tcp_recv_us_per_block")
        + if sealed {
            us("gsi.open_us_per_block")
        } else {
            0.0
        }
        + us("protocol.mode_e_decode_ns_per_block") / 1e3
        + us("server.dsi_write_us_per_block");
    let fixed_ms = w.parallelism as f64 * (us("xio.tcp_connect_us") / 1e3 + us("gsi.handshake_ms"))
        + cmds_per_op * us("protocol.cmd_codec_ns") / 1e6;
    (
        blocks * sender_us / 1e3 + fixed_ms,
        blocks * receiver_us / 1e3 + fixed_ms,
    )
}

/// Every per-layer metric of one traced run: the probes as read, then the
/// in-place measurements and the reconciliation of the two.
pub fn per_layer(
    w: &Workload,
    probes: &[Reading],
    samples: &[Sample],
    run: &InSitu,
) -> Vec<Metric> {
    let ops = samples.len() as f64;
    let walls = wall_ms(samples);
    let walls_where = |traced: bool| -> Vec<f64> {
        samples
            .iter()
            .zip(&walls)
            .filter(|(s, _)| s.traced == traced)
            .map(|(_, &ms)| ms)
            .collect()
    };
    let (traced, untraced) = (walls_where(true), walls_where(false));
    let busy_secs = walls.iter().sum::<f64>() / 1e3;
    let mean_ms = busy_secs * 1e3 / ops;
    let (tail_pct, tail_ms) = tail(&walls);
    let counter = |name: &str| {
        run.after
            .counter(name)
            .saturating_sub(run.before.counter(name)) as f64
    };
    let hist = |name: &str, field: &str| {
        run.after
            .histogram(name, field)
            .saturating_sub(run.before.histogram(name, field)) as f64
    };
    let busy_share = |name: &str| hist(name, "sum") / 1e9 / busy_secs;
    let cmds_per_op = counter("server.commands") / ops;
    let (sender_ms, receiver_ms) = waterfall(w, probes, cmds_per_op);
    let trace_overhead_pct = if traced.is_empty() || untraced.is_empty() {
        0.0
    } else {
        (interquartile_mean(&traced) / interquartile_mean(&untraced) - 1.0) * 100.0
    };
    let mean_of = |f: fn(&Sample) -> u64| samples.iter().map(f).sum::<u64>() as f64 / ops;
    let in_situ = [
        ("client.cold_setup_s", run.cold_setup_s),
        ("client.logon_ms", run.logon_ms),
        ("client.connect_login_ms", run.connect_login_ms),
        ("client.noop_rtt_us", run.noop_rtt_us),
        ("client.warmup_s", run.warmup_s),
        ("client.op_samples", ops),
        ("client.op_p50_ms", median(&walls)),
        ("client.mean_goodput_MBps", mean_goodput_mbps(w, samples)),
        ("client.op_tail_ms", tail_ms),
        ("client.op_tail_pct", tail_pct),
        (
            "client.cmd_rtt_p50_us",
            run.after.histogram("client.cmd_rtt_ns", "p50") as f64 / 1e3,
        ),
        (
            "client.wait_ms_per_op",
            (mean_ms - cpu_ms_per_op(samples)).max(0.0),
        ),
        ("server.cmds_per_op", cmds_per_op),
        (
            "server.cmd_rtt_p50_us",
            run.after.histogram("server.cmd_rtt_ns", "p50") as f64 / 1e3,
        ),
        ("server.bytes_out_per_op", counter("server.bytes_out") / ops),
        ("gsi.records_per_op", hist("gsi.seal_ns", "count") / ops),
        ("gsi.seal_busy_share", busy_share("gsi.seal_ns")),
        ("gsi.open_busy_share", busy_share("gsi.open_ns")),
        ("xio.dtp_send_busy_share", busy_share("server.dtp.send_ns")),
        ("xio.dtp_recv_busy_share", busy_share("server.dtp.recv_ns")),
        ("trace.sender_side_ms", sender_ms),
        ("trace.receiver_side_ms", receiver_ms),
        (
            "trace.unattributed_share",
            1.0 - sender_ms.max(receiver_ms) / mean_ms,
        ),
        ("obs.trace_overhead_pct", trace_overhead_pct),
        ("proc.peak_rss_MiB", run.peak_rss_mib),
        ("proc.cpu_ms_per_op", cpu_ms_per_op(samples)),
        ("proc.allocs_per_op", mean_of(|s| s.allocs)),
        (
            "proc.alloc_MiB_per_op",
            mean_of(|s| s.alloc_bytes) / (1 << 20) as f64,
        ),
    ];
    let value_of = |name: &str| {
        in_situ
            .iter()
            .map(|&(n, v)| (n, v))
            .chain(probes.iter().map(|&(n, v, _)| (n, v)))
            .find(|&(n, _)| n == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("per-layer metric {name} is listed but never measured"))
    };
    PER_LAYER
        .iter()
        .map(|&(name, unit)| metric(name, value_of(name), unit))
        .collect()
}

/// The last line of standard output: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`. Values keep all their digits.
pub fn result_line(samples: &[Sample], metrics: &[Metric]) -> String {
    let failed = samples.iter().filter(|s| !s.ok).count();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        samples.len(),
        body.join(", ")
    )
}
