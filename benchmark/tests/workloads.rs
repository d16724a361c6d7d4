//! Every workload end to end with a one-second window: set up, warm up, run,
//! and require that each operation's output matched its input byte for byte;
//! then the converse, that a corrupted staged file is reported, not passed over.

use igbench::harness::{Inputs, Rig};
use igbench::report::{end_to_end, result_line};
use igbench::stats::CountingAlloc;
use igbench::workload::{by_name, Workload, WORKLOADS};

/// As in `igbench` itself, so that the allocation counts of a sample are live.
#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const SEED: u64 = 20_120_521;

fn ready(w: &Workload) -> (Rig, Inputs) {
    let mut inputs = Inputs::generate(w, SEED);
    let (mut rig, times) = Rig::setup(w, &inputs, SEED, None).expect("set-up");
    assert!(times.total_s() > 0.0);
    for op in 0..2 {
        assert!(
            rig.run_op(&mut inputs, w, op, None).ok,
            "{}: warm-up {op}",
            w.name
        );
    }
    (rig, inputs)
}

fn one_second_window_verifies(name: &str) {
    let w = by_name(name).expect("a defined workload");
    let (mut rig, mut inputs) = ready(w);
    let samples = rig.run_window(&mut inputs, w, 2, 1.0, None);
    rig.teardown(&inputs);
    assert!(!samples.is_empty());
    for (i, s) in samples.iter().enumerate() {
        assert!(
            s.ok,
            "{name}: operation {i} did not return the staged bytes"
        );
        assert!(!s.wall.is_zero() && !s.cpu.is_zero());
        // A GET returns the file in a fresh buffer; a PUT stores it in the server.
        assert!(s.allocs > 0 && s.alloc_bytes >= w.file_bytes as u64);
    }
    let metrics = end_to_end(w, &samples, 0.5);
    assert!(
        metrics.iter().all(|m| m.value.is_finite() && m.value > 0.0),
        "{metrics:?}"
    );
    let line = result_line(&samples, &metrics);
    assert!(line.starts_with(&format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, ",
        samples.len()
    )));
}

#[test]
fn bulk_clear_get_verifies() {
    one_second_window_verifies("bulk_clear_get");
}

#[test]
fn bulk_clear_put_verifies() {
    one_second_window_verifies("bulk_clear_put");
}

#[test]
fn bulk_private_get_verifies() {
    one_second_window_verifies("bulk_private_get");
}

#[test]
fn small_files_get_verifies() {
    one_second_window_verifies("small_files_get");
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    let w = &WORKLOADS[3];
    let (a, b, c) = (
        Inputs::generate(w, 1),
        Inputs::generate(w, 1),
        Inputs::generate(w, 2),
    );
    assert_eq!(
        (&a.paths, &a.payloads, &a.order),
        (&b.paths, &b.payloads, &b.order)
    );
    assert_ne!(a.payloads, c.payloads);
    assert_ne!(a.order, c.order);
    let mut sorted = a.order.clone();
    sorted.sort_unstable();
    assert_eq!(
        sorted,
        (0..w.files).collect::<Vec<_>>(),
        "the order visits every file once"
    );
}

#[test]
fn a_corrupted_staged_file_is_a_failed_operation() {
    let w = by_name("small_files_get").expect("a defined workload");
    let (mut rig, mut inputs) = ready(w);
    rig.corrupt_staged(inputs.path_for(2))
        .expect("corrupt the file operation 2 will fetch");
    let samples: Vec<_> = (2..5)
        .map(|op| rig.run_op(&mut inputs, w, op, None))
        .collect();
    rig.teardown(&inputs);
    assert!(!samples[0].ok, "the mismatch must be counted");
    assert!(samples[1].ok && samples[2].ok, "the other files are intact");
    let metrics = end_to_end(w, &samples, 0.5);
    let line = result_line(&samples, &metrics);
    assert!(
        line.starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1, "),
        "{line}"
    );
    let clean = end_to_end(w, &samples[1..], 0.5);
    assert!(
        metrics[1].value < clean[1].value,
        "a failed operation delivers nothing: goodput must drop"
    );
}
