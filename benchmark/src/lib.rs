//! igbench: the repository's transfer benchmark. See `../README.md`.

pub mod harness;
pub mod probes;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workload;
