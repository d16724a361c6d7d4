//! # ig-obs — dependency-light observability for the Instant GridFTP stack
//!
//! The paper's only empirical figure exists because "GridFTP servers that
//! choose to enable reporting" emit usage telemetry; real GridFTP also
//! streams in-band `111`/`112` markers mid-transfer. This crate is the
//! structured version of that story, hand-rolled like `ig-crypto` (no
//! `tracing`/`log` deps) so it can sit *below* every runtime crate:
//!
//! * [`trace::Tracer`] — spans + typed-field events into a lock-cheap
//!   ring buffer, JSONL export, and a *stable* export that is
//!   byte-identical across replays of a seeded chaos run;
//! * [`metrics::Registry`] — named counters, gauges, and log-linear
//!   (HDR-style) histograms with p50/p95/p99 snapshots;
//! * [`Obs`] — one hub bundling both, per component (`client`,
//!   `server`, …), with an `IG_TRACE=path` env-gated dump.
//!
//! ## Span taxonomy and event names
//!
//! Spans: `session` (control-channel lifetime), `transfer` (one
//! STOR/RETR/ERET), `stream` (one DTP data stream). Events use
//! dot-separated names: `chaos.fault`, `retry.attempt`, `cmd.dispatch`,
//! `gol.activate`, `link.open`… Metric names mirror the crate that owns
//! them: `server.cmd_rtt_ns`, `gsi.seal_ns`, `myproxy.logon_ns`,
//! `xio.retry_attempts`.

#![deny(rust_2018_idioms)]

pub mod json;
pub mod sync;
pub mod metrics;
pub mod process;
pub mod trace;

pub use json::{kv, Value};
pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use trace::{StableExport, TraceEvent, Tracer};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// One observability hub: a tracer plus a metrics registry, labelled
/// with the component it observes. Cheap to share (`Arc`); every config
/// struct in the stack carries one.
#[derive(Debug)]
pub struct Obs {
    tracer: Tracer,
    metrics: Registry,
    enabled: AtomicBool,
}

impl Obs {
    /// Fresh hub for `component`.
    pub fn new(component: &str) -> Arc<Self> {
        Arc::new(Obs {
            tracer: Tracer::new(component),
            metrics: Registry::new(),
            enabled: AtomicBool::new(true),
        })
    }

    /// The process-wide default hub. Layers with no explicit hub (bare
    /// library calls in `ig-gsi`, `ig-myproxy`) record here.
    pub fn global() -> Arc<Self> {
        static GLOBAL: OnceLock<Arc<Obs>> = OnceLock::new();
        Arc::clone(GLOBAL.get_or_init(|| Obs::new("global")))
    }

    /// Component label.
    pub fn component(&self) -> &str {
        self.tracer.component()
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// The tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Disable event recording (metrics still run). Used by benches to
    /// measure registry-only overhead.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Record a replay-stable event outside any span.
    pub fn event(&self, name: &str, fields: Vec<(String, Value)>) {
        if self.enabled.load(Ordering::Relaxed) {
            self.tracer.record(0, name, fields, true);
        }
    }

    /// Record a wall-clock-dependent event outside any span.
    pub fn event_unstable(&self, name: &str, fields: Vec<(String, Value)>) {
        if self.enabled.load(Ordering::Relaxed) {
            self.tracer.record(0, name, fields, false);
        }
    }

    /// Open a span: emits `span.start` and returns a guard that emits
    /// `span.end` when closed (explicitly or on drop).
    pub fn span(self: &Arc<Self>, name: &str, mut fields: Vec<(String, Value)>) -> Span {
        let id = self.tracer.new_span_id();
        fields.insert(0, kv("name", name));
        if self.enabled.load(Ordering::Relaxed) {
            self.tracer.record(id, "span.start", fields, true);
        }
        Span { obs: Arc::clone(self), id, name: name.to_string(), ended: false }
    }

    /// Buffered events with name `name`.
    pub fn count_events(&self, name: &str) -> usize {
        self.tracer.count_events(name)
    }

    /// Replay-stable JSONL export (see [`Tracer::export_stable`]).
    pub fn export_stable(&self) -> String {
        self.tracer.export_stable()
    }

    /// Full JSONL export including unstable events.
    pub fn export_full(&self) -> String {
        self.tracer.export_full()
    }

    /// Cursor-bounded stable export (see [`Tracer::export_stable_since`]):
    /// the incremental read the admin plane's `trace follow` stream and
    /// any other live consumer use instead of re-exporting the buffer.
    pub fn export_stable_since(&self, cursor: u64) -> trace::StableExport {
        self.tracer.export_stable_since(cursor)
    }

    /// If `IG_TRACE=path` is set in the environment, append the full
    /// JSONL trace to `path` (client and server hubs both call this on
    /// shutdown; appends interleave per-component blocks).
    pub fn dump_if_env(&self) {
        if let Ok(path) = std::env::var("IG_TRACE") {
            if path.is_empty() {
                return;
            }
            use std::io::Write as _;
            if let Ok(mut f) =
                std::fs::OpenOptions::new().create(true).append(true).open(&path)
            {
                let _ = f.write_all(self.export_full().as_bytes());
            }
        }
    }
}

/// Live span handle; emits `span.end` exactly once.
#[derive(Debug)]
pub struct Span {
    obs: Arc<Obs>,
    id: u64,
    name: String,
    ended: bool,
}

impl Span {
    /// The span id (link events to it with [`Span::event`]).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Record a replay-stable event inside this span.
    pub fn event(&self, name: &str, fields: Vec<(String, Value)>) {
        if self.obs.enabled.load(Ordering::Relaxed) {
            self.obs.tracer.record(self.id, name, fields, true);
        }
    }

    /// Record a wall-clock-dependent event inside this span.
    pub fn event_unstable(&self, name: &str, fields: Vec<(String, Value)>) {
        if self.obs.enabled.load(Ordering::Relaxed) {
            self.obs.tracer.record(self.id, name, fields, false);
        }
    }

    /// Close the span with extra fields on the `span.end` event.
    pub fn end_with(mut self, mut fields: Vec<(String, Value)>) {
        fields.insert(0, kv("name", self.name.as_str()));
        if self.obs.enabled.load(Ordering::Relaxed) {
            self.obs.tracer.record(self.id, "span.end", fields, true);
        }
        self.ended = true;
    }

    /// Close the span.
    pub fn end(self) {
        self.end_with(Vec::new());
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.ended {
            let fields = vec![kv("name", self.name.as_str())];
            if self.obs.enabled.load(Ordering::Relaxed) {
                self.obs.tracer.record(self.id, "span.end", fields, true);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_lifecycle() {
        let obs = Obs::new("t");
        let s = obs.span("transfer", vec![kv("path", "/f")]);
        let id = s.id();
        assert_ne!(id, 0);
        s.event("cmd.dispatch", vec![kv("verb", "STOR")]);
        s.end();
        let trace = obs.export_stable();
        assert_eq!(obs.count_events("span.start"), 1);
        assert_eq!(obs.count_events("span.end"), 1);
        assert!(trace.contains(&format!("\"span\":{id}")));
        assert!(trace.contains("\"verb\":\"STOR\""));
    }

    #[test]
    fn drop_ends_span_once() {
        let obs = Obs::new("t");
        {
            let _s = obs.span("session", vec![]);
        }
        assert_eq!(obs.count_events("span.end"), 1);
    }

    #[test]
    fn disabled_hub_records_nothing() {
        let obs = Obs::new("t");
        obs.set_enabled(false);
        obs.event("e", vec![]);
        let _span = obs.span("s", vec![]);
        assert_eq!(obs.export_full(), "");
        // Metrics still work when events are off.
        obs.metrics().add("c", 1);
        assert_eq!(obs.metrics().counter_value("c"), 1);
    }

    #[test]
    fn global_is_shared() {
        let a = Obs::global();
        let b = Obs::global();
        assert!(Arc::ptr_eq(&a, &b));
    }
}
