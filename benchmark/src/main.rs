//! `igbench run --workload <name> --seed <u64> --seconds <n> --trace <0|1>`
//!
//! `--trace 0` measures the end-to-end metrics over an untraced window of
//! `--seconds`. `--trace 1` sets up first (the process's cold set-up), then spends
//! the same time on the layer probes and a window in which every second
//! operation records spans, and reports the per-layer metrics. Either way the last line of standard output is the result object.

use igbench::harness::{Error, Inputs, Result, Rig, Sample};
use igbench::probes;
use igbench::report::{self, InSitu, Metric};
use igbench::stats::{median, peak_rss_mib, CountingAlloc};
use igbench::trace::Tracer;
use igbench::workload::{self, Direction, Workload, BULK_MIN_P50_MS, SERVER_TICK_MS, WORKLOADS};
use std::path::Path;
use std::time::Instant;

/// Counts what client and server ask the allocator for; see `stats::CountingAlloc`.
#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Set-ups per untraced run; `setup_s` is their median. A fixed count, so that
/// every run generates the same fifteen sets of keys.
const SETUPS: u64 = 15;
/// Seed of the first set-up's endpoint and credentials; set-up `i` uses
/// `SETUP_SEED + i`. Not derived from `--seed`: how long an RSA key takes to
/// generate depends on the seed far more than on the code (33 to 59 ms per
/// set-up across seeds).
const SETUP_SEED: u64 = 0x1957_0A04;
/// Verified operations before the window opens, so caches, lazy statics and
/// the heap are warm. With two, the first or second timed bulk operation took
/// three times the usual in six runs of ten (`CALIBRATION.md`).
const WARMUP_OPS: u64 = 4;
/// Share of a traced run's `--seconds` reserved for the probes.
const PROBE_BUDGET_S: f64 = 5.0;
/// Windows shorter than this are smoke runs: the operation-count guard is for
/// full-length runs only.
const FULL_WINDOW_S: f64 = 20.0;
const NOOPS: usize = 200;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn usage() -> Error {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: igbench run --workload <{}> --seed <u64> --seconds <n> --trace <0|1>",
        names.join("|")
    )
    .into()
}

fn parse_args() -> Result<Args> {
    let mut args = std::env::args().skip(1);
    if args.next().as_deref() != Some("run") {
        return Err(usage());
    }
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(usage)?;
        match flag.as_str() {
            "--workload" => workload = Some(workload::by_name(&value).ok_or_else(usage)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| usage())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| usage())?),
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(usage()),
                })
            }
            _ => return Err(usage()),
        }
    }
    match (workload, seed, seconds, traced) {
        (Some(workload), Some(seed), Some(seconds), Some(traced)) if seconds > 0.0 => Ok(Args {
            workload,
            seed,
            seconds,
            traced,
        }),
        _ => Err(usage()),
    }
}

/// The commit of the checkout, when it is a git repository (the driver's is not).
fn commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let resolved = match head.trim().strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference)).unwrap_or_default(),
        None => head,
    };
    match resolved.trim() {
        "" => "unknown".to_string(),
        hash => hash.to_string(),
    }
}

fn print_header(args: &Args, cpus: usize) {
    let w = args.workload;
    println!(
        "igbench workload={} seed={} seconds={} traced={}",
        w.name, args.seed, args.seconds, args.traced
    );
    println!("  why: {}", w.why);
    println!(
        "  sizes: files={} dirs={} file_bytes={} block_bytes={} parallelism={} prot={} direction={:?}",
        w.files,
        w.dirs,
        w.file_bytes,
        w.block_bytes,
        w.parallelism,
        w.prot.name(),
        w.direction
    );
    println!(
        "  host: cpus={cpus} commit={} deps={}",
        commit(),
        std::env::var("IGBENCH_DEPS").unwrap_or_else(|_| "unknown".into())
    );
    println!(
        "  note: a GET ends on a {SERVER_TICK_MS} ms tick of the server's completion poll, so \
         operation times are k x {SERVER_TICK_MS} ms + e; goodput_MBps uses the interquartile \
         mean of the operation times for that reason (README, \"Why goodput is an interquartile mean\")"
    );
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

fn warm_up(rig: &mut Rig, inputs: &mut Inputs, w: &Workload) -> Result<()> {
    for op in 0..WARMUP_OPS {
        if !rig.run_op(inputs, w, op, None).ok {
            return Err(format!("warm-up operation {op} did not produce the staged bytes").into());
        }
    }
    Ok(())
}

/// The guard rails: a run outside them would report numbers that mean something
/// else, so it reports none.
fn check(args: &Args, samples: &[Sample]) -> Result<()> {
    let w = args.workload;
    // A traced window is shorter and feeds no gate: it only needs both kinds of operation.
    let fewest = if args.traced { 2 } else { w.min_ops };
    if (args.traced || args.seconds >= FULL_WINDOW_S) && samples.len() < fewest {
        return Err(format!(
            "{} timed operations in a run of {} s, fewer than the {fewest} it needs",
            samples.len(),
            args.seconds
        )
        .into());
    }
    // Only a GET ends on the server's completion poll; a PUT ends on the 5 ms
    // receive pump, so its length needs no floor.
    if w.is_bulk() && w.direction == Direction::Get {
        let p50 = median(&report::wall_ms(samples));
        if p50 < BULK_MIN_P50_MS {
            return Err(format!(
                "bulk client.op_p50_ms is {p50:.0}, under {BULK_MIN_P50_MS}: one {SERVER_TICK_MS} ms tick is too \
                 large a share of it; grow file_bytes in src/workload.rs by 64 MiB steps"
            )
            .into());
        }
    }
    Ok(())
}

/// The demoted gates and every operation's time, printed beside the metrics of
/// either mode for the reader (and for `scripts/repeat.sh`, which records them).
fn print_window_notes(w: &Workload, samples: &[Sample]) {
    println!(
        "  client.op_p50_ms {:.4} ms, client.mean_goodput_MBps {:.4} MB/s (per-layer metrics of --trace 1)",
        median(&report::wall_ms(samples)),
        report::mean_goodput_mbps(w, samples)
    );
    println!("  op wall ms: {:.1?}", report::wall_ms(samples));
}

fn run_untraced(args: &Args) -> Result<(Vec<Sample>, Vec<Metric>)> {
    let w = args.workload;
    let started = Instant::now();
    let mut inputs = Inputs::generate(w, args.seed);
    let generate_s = started.elapsed().as_secs_f64();
    let mut setups = Vec::new();
    let mut live = None;
    for i in 0..SETUPS {
        if let Some(rig) = live.take() {
            Rig::teardown(rig, &inputs);
        }
        let (rig, times) = Rig::setup(w, &inputs, SETUP_SEED + i, None)?;
        setups.push(times.total_s());
        live = Some(rig);
    }
    let mut rig = live.expect("SETUPS is at least one");
    let setups_done_s = started.elapsed().as_secs_f64();
    warm_up(&mut rig, &mut inputs, w)?;
    let warm_s = started.elapsed().as_secs_f64();
    let samples = rig.run_window(&mut inputs, w, WARMUP_OPS, args.seconds, None);
    rig.teardown(&inputs);
    check(args, &samples)?;
    let metrics = report::end_to_end(w, &samples, median(&setups));
    println!("  setup_s samples (the first is this process's cold one): {setups:.4?}");
    println!(
        "  proc.cpu_ms_per_op {:.4} ms (informative here; a per-layer metric of --trace 1)",
        report::cpu_ms_per_op(&samples)
    );
    print_window_notes(w, &samples);
    println!(
        "  run phases: inputs {generate_s:.1} s, {SETUPS} set-ups {:.1} s, {WARMUP_OPS} warm-ups {:.1} s, \
         window and teardown {:.1} s",
        setups_done_s - generate_s,
        warm_s - setups_done_s,
        started.elapsed().as_secs_f64() - warm_s
    );
    Ok((samples, metrics))
}

fn run_traced(args: &Args) -> Result<(Vec<Sample>, Vec<Metric>)> {
    let w = args.workload;
    let mut tracer = Tracer::default();
    let mut inputs = Inputs::generate(w, args.seed);
    // First, so that it is the process's cold set-up: lazy statics, first
    // thread spawns and a fresh heap are what a user's first logon pays.
    let (mut rig, times) = Rig::setup(w, &inputs, SETUP_SEED, Some(&mut tracer))?;
    let span = tracer.begin("probes", None, None);
    let readings = probes::run_all(args.seed)?;
    tracer.end(span);
    let noop_rtt_us = rig.noop_rtt_us(NOOPS)?;
    let span = tracer.begin("warm_up", None, None);
    let warm_start = Instant::now();
    warm_up(&mut rig, &mut inputs, w)?;
    let warmup_s = warm_start.elapsed().as_secs_f64();
    tracer.end(span);
    let before = rig.site_stats()?;
    let window_s = (args.seconds - PROBE_BUDGET_S).max(1.0);
    let samples = rig.run_window(&mut inputs, w, WARMUP_OPS, window_s, Some(&mut tracer));
    let after = rig.site_stats()?;
    rig.teardown(&inputs);
    check(args, &samples)?;
    let run = InSitu {
        cold_setup_s: times.total_s(),
        logon_ms: times.logon_s * 1e3,
        connect_login_ms: times.connect_login_s * 1e3,
        noop_rtt_us,
        warmup_s,
        peak_rss_mib: peak_rss_mib(),
        before,
        after,
    };
    let metrics = report::per_layer(w, &readings, &samples, &run);
    print_window_notes(w, &samples);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/trace-{}.jsonl", w.name));
    tracer.write_jsonl(&path)?;
    println!("  {} spans written to {}", tracer.len(), path.display());
    Ok((samples, metrics))
}

fn run() -> Result<()> {
    let args = parse_args()?;
    if cfg!(debug_assertions) {
        return Err("this is a debug build; measure `cargo build --release` only".into());
    }
    let cpus = std::thread::available_parallelism()?.get();
    if args.workload.parallelism > cpus {
        return Err(format!(
            "{} client-side data connections on {cpus} CPUs: the streams would time the scheduler",
            args.workload.parallelism
        )
        .into());
    }
    print_header(&args, cpus);
    let (samples, metrics) = if args.traced {
        run_traced(&args)?
    } else {
        run_untraced(&args)?
    };
    print_metrics(&metrics);
    println!("{}", report::result_line(&samples, &metrics));
    Ok(())
}

fn main() {
    igbench::stats::retain_freed_memory();
    if let Err(e) = run() {
        eprintln!("igbench: {e}");
        std::process::exit(2);
    }
}
