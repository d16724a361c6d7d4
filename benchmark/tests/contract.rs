//! `BENCHMARK.json` and the binary must name the same workloads and metrics,
//! with the same units: the driver refuses a result whose keys differ.

use igbench::report::{END_TO_END, PER_LAYER};
use igbench::workload::WORKLOADS;

/// The objects of the array under `key`, each as its raw text.
fn objects<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
    let start = json
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("{key} array"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array end")];
    body.split('{')
        .skip(1)
        .map(|o| &o[..o.find('}').expect("object end")])
        .collect()
}

/// The string value of `field` in one object's text.
fn field<'a>(object: &'a str, field: &str) -> &'a str {
    let key = format!("\"{field}\": \"");
    let start = object
        .find(&key)
        .unwrap_or_else(|| panic!("{field} in {object}"))
        + key.len();
    &object[start..start + object[start..].find('"').expect("string end")]
}

fn named(json: &str, key: &str, second: &str) -> Vec<(String, String)> {
    objects(json, key)
        .iter()
        .map(|o| (field(o, "name").to_string(), field(o, second).to_string()))
        .collect()
}

fn owned(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
    pairs
        .iter()
        .map(|&(a, b)| (a.to_string(), b.to_string()))
        .collect()
}

#[test]
fn names_units_and_reasons_match_benchmark_json() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    assert_eq!(named(&json, "end_to_end", "unit"), owned(&END_TO_END));
    assert_eq!(named(&json, "per_layer", "unit"), owned(&PER_LAYER));
    let workloads: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(named(&json, "workloads", "why"), owned(&workloads));
    assert!(
        objects(&json, "end_to_end")
            .iter()
            .any(|o| field(o, "name") == "setup_s" && field(o, "better") == "lower"),
        "the contract requires setup_s, lower is better"
    );
}
