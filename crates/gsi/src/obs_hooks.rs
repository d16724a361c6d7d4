//! Cached handles into the process-global `ig-obs` registry.
//!
//! `ig-gsi` is a leaf library — no server/client config threads an
//! [`ig_obs::Obs`] hub into it — so record seal/open times and handshake
//! step counts land in [`ig_obs::Obs::global`]. Metric handles are
//! resolved once per process and cached, keeping the per-record cost to
//! one `Instant::now` pair and a few relaxed atomics.

use ig_obs::{Counter, Histogram, Obs};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

fn seal_hist() -> &'static Arc<Histogram> {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| Obs::global().metrics().histogram("gsi.seal_ns"))
}

fn open_hist() -> &'static Arc<Histogram> {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| Obs::global().metrics().histogram("gsi.open_ns"))
}

/// Time taken to seal one record.
pub(crate) fn record_seal(elapsed: Duration) {
    seal_hist().record(elapsed.as_nanos() as u64);
}

/// Time taken to open one record.
pub(crate) fn record_open(elapsed: Duration) {
    open_hist().record(elapsed.as_nanos() as u64);
}

/// Time and count one handshake state-machine step for `role`
/// (`"initiator"` or `"acceptor"`).
pub(crate) fn record_handshake_step(role: &'static str, elapsed: Duration) {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| Obs::global().metrics().histogram("gsi.handshake_step_ns"))
        .record(elapsed.as_nanos() as u64);
    static INIT: OnceLock<Arc<Counter>> = OnceLock::new();
    static ACC: OnceLock<Arc<Counter>> = OnceLock::new();
    let counter = if role == "initiator" {
        INIT.get_or_init(|| Obs::global().metrics().counter("gsi.handshake_initiator_steps"))
    } else {
        ACC.get_or_init(|| Obs::global().metrics().counter("gsi.handshake_acceptor_steps"))
    };
    counter.add(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hooks_feed_the_global_registry() {
        record_seal(Duration::from_nanos(500));
        record_open(Duration::from_nanos(700));
        record_handshake_step("initiator", Duration::from_nanos(900));
        let obs = Obs::global();
        let m = obs.metrics();
        assert!(m.histogram("gsi.seal_ns").count() >= 1);
        assert!(m.histogram("gsi.open_ns").count() >= 1);
        assert!(m.counter_value("gsi.handshake_initiator_steps") >= 1);
    }
}
