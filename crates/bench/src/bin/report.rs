//! `report` — regenerate the paper's figures/claims as text tables.
//!
//! ```text
//! cargo run -p ig-bench --bin report --release            # everything
//! cargo run -p ig-bench --bin report --release -- --exp e7
//! cargo run -p ig-bench --bin report --release -- --fast  # trimmed sizes
//! ```
//!
//! A full run (no `--exp` filter) also writes `BENCH_report.json` to the
//! working directory: the same tables parsed into header/rows/notes, for
//! scripts that compare runs without scraping aligned text.

use ig_bench::experiments as exp;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // E14's idle-session herd helper mode: hold connections for the
    // parent `report` process, then exit when it closes our stdin.
    if args.first().map(String::as_str) == Some("--e14-hold") {
        match (args.get(1), args.get(2)) {
            (Some(addr), Some(count)) => exp::e14_sessions::hold_main(addr, count),
            _ => {
                eprintln!("usage: report --e14-hold <addr> <count>");
                std::process::exit(2);
            }
        }
    }
    // Let E14 hold its herd out-of-process (client fds and RSS land in
    // the helper, not in the measured server process).
    if let Ok(me) = std::env::current_exe() {
        std::env::set_var(exp::e14_sessions::HELPER_ENV, me);
    }
    let fast = args.iter().any(|a| a == "--fast");
    let exp_filter = args
        .iter()
        .position(|a| a == "--exp")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.to_ascii_lowercase());
    match exp_filter.as_deref() {
        None => {
            // Run each experiment once; derive both outputs from it.
            let sections = ig_bench::report_sections(fast);
            for (_, title, body) in &sections {
                print!("\n=== {title} ===\n{body}\n");
            }
            let json = ig_bench::json_from_sections(&sections, fast);
            match std::fs::write("BENCH_report.json", ig_obs::json::to_string(&json)) {
                Ok(()) => eprintln!("wrote BENCH_report.json"),
                Err(e) => eprintln!("could not write BENCH_report.json: {e}"),
            }
        }
        Some("e1") => print!("{}", exp::e1_usage::table()),
        Some("e2") => print!("{}", exp::e2_wan::table(fast)),
        Some("e2x") => print!("{}", exp::e2_wan::striped_cc_table(fast)),
        Some("e3") => print!("{}", exp::e3_prot::table(fast)),
        Some("e4") => print!("{}", exp::e4_small_files::table(fast)),
        Some("e5") => print!("{}", exp::e5_striping::table(fast)),
        Some("e6") => print!("{}", exp::e6_third_party::table()),
        Some("e7") => print!("{}", exp::e7_dcsc::table()),
        Some("e8") => print!("{}", exp::e8_setup::table()),
        Some("e9") => print!("{}", exp::e9_restart::table(fast)),
        Some("e10") => print!("{}", exp::e10_oauth::table()),
        Some("e11") => print!("{}", exp::e11_myproxy::table(fast)),
        Some("e12") => print!("{}", exp::e12_overheads::table()),
        Some("e13") => print!("{}", exp::e13_obs::table(fast)),
        Some("e14") => print!("{}", exp::e14_sessions::table(fast)),
        Some("e15") => print!("{}", exp::e15_fleet::table(fast)),
        Some("e16") => print!("{}", exp::e16_drain::table(fast)),
        Some(other) => {
            eprintln!("unknown experiment {other:?}; use e1..e16 or e2x");
            std::process::exit(2);
        }
    }
}
