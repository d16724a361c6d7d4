//! # ig-bench — the evaluation harness
//!
//! One module per experiment from DESIGN.md's index (E1–E16). Every
//! module exposes a `run()` returning printable rows plus a `table()`
//! that renders the same table the paper's figure/claim corresponds to.
//! The `report` binary and the `report_tables` bench target print all of
//! them; EXPERIMENTS.md records paper-vs-measured for each.

pub mod experiments;
pub mod table;

use ig_obs::json::{kv, Value};

/// Run every experiment, returning `(id, title, rendered table)` per
/// section — the single source both [`full_report`] (human text) and
/// [`json_from_sections`] (machine-readable) are derived from.
pub fn report_sections(fast: bool) -> Vec<(&'static str, &'static str, String)> {
    vec![
        ("e1", "E1  (Fig 1) fleet usage", experiments::e1_usage::table()),
        ("e2", "E2  GridFTP vs SCP/FTP on the WAN (simulated)", experiments::e2_wan::table(fast)),
        (
            "e2x",
            "E2x congestion control on striped TCP: Reno vs CUBIC (simulated)",
            experiments::e2_wan::striped_cc_table(fast),
        ),
        ("e3", "E3  data-channel protection cost (measured)", experiments::e3_prot::table(fast)),
        ("e4", "E4  lots of small files (measured)", experiments::e4_small_files::table(fast)),
        ("e5", "E5  striping (measured, per-stripe NIC limit)", experiments::e5_striping::table(fast)),
        ("e6", "E6  third-party: direct vs through-client (simulated)", experiments::e6_third_party::table()),
        ("e7", "E7  (Figs 4-5) DCAU x DCSC matrix (measured)", experiments::e7_dcsc::table()),
        ("e8", "E8  (Fig 3, §III) setup complexity", experiments::e8_setup::table()),
        ("e9", "E9  (Fig 6) GO checkpoint restart (measured)", experiments::e9_restart::table(fast)),
        ("e10", "E10 (Fig 7) OAuth vs password activation (measured)", experiments::e10_oauth::table()),
        ("e11", "E11 MyProxy online CA issuance (measured)", experiments::e11_myproxy::table(fast)),
        ("e12", "E12 DCSC/control-channel overheads (measured)", experiments::e12_overheads::table()),
        ("e13", "E13 observability overhead: ObsLink vs bare link (measured)", experiments::e13_obs::table(fast)),
        ("e14", "E14 session scalability: idle sessions on the epoll reactor (measured)", experiments::e14_sessions::table(fast)),
        ("e15", "E15 fleet-scale hosted service: Fig 1 @ 10M transfers/day (simulated)", experiments::e15_fleet::table(fast)),
        ("e16", "E16 drain under load: admin-socket drain RTT + forced checkpoint resume (measured)", experiments::e16_drain::table(fast)),
    ]
}

/// Run every experiment and return the concatenated report.
pub fn full_report(fast: bool) -> String {
    let mut out = String::new();
    for (_, title, body) in report_sections(fast) {
        out.push_str(&format!("\n=== {title} ===\n{body}\n"));
    }
    out
}

/// Machine-readable mirror of [`full_report`]: every section's rendered
/// table parsed back into header/rows/notes, built from already-computed
/// sections (so a caller that also prints the text report runs each
/// experiment only once). The `report` binary writes this next to its
/// text output as `BENCH_report.json`.
pub fn json_from_sections(sections: &[(&str, &str, String)], fast: bool) -> Value {
    let sections: Vec<Value> = sections
        .iter()
        .map(|(id, title, body)| {
            let (header, rows, notes) = table::parse_rendered(body);
            Value::Obj(vec![
                kv("id", *id),
                kv("title", *title),
                kv("header", header),
                kv("rows", rows),
                kv("notes", notes),
            ])
        })
        .collect();
    Value::Obj(vec![kv("fast", fast), kv("sections", sections)])
}

#[cfg(test)]
mod tests {
    #[test]
    fn json_mirror_structure() {
        let body = crate::table::render(&[
            vec!["metric".into(), "value".into()],
            vec!["throughput".into(), "1.00 Gbit/s".into()],
        ]);
        let sections = vec![("e0", "demo section", body)];
        let v = crate::json_from_sections(&sections, true);
        assert_eq!(
            ig_obs::json::to_string(&v),
            "{\"fast\":true,\"sections\":[{\"id\":\"e0\",\"title\":\"demo section\",\
             \"header\":[\"metric\",\"value\"],\"rows\":[[\"throughput\",\"1.00 Gbit/s\"]],\
             \"notes\":[]}]}"
        );
    }
}
