//! Metrics registry: named counters, gauges, and log-linear histograms.
//!
//! The histogram is HDR-style log-linear: 32 linear sub-buckets per
//! power-of-two octave, giving a worst-case relative error of 1/32
//! (~3%) across the full `u64` range with a fixed 2 KiB-per-histogram
//! footprint and lock-free recording. Quantile snapshots (p50/p95/p99)
//! walk the bucket array; there is no per-sample allocation anywhere.
//!
//! Registry snapshots serialize into deterministic JSON (names sorted by
//! `BTreeMap` order) so `SITE STATS` replies are diffable across runs.

use crate::json::{kv, to_string, Value};
use crate::sync::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const SUB_BUCKETS: u64 = 32; // linear buckets per octave
const SUB_BITS: u32 = 5; // log2(SUB_BUCKETS)
/// Total bucket count covering all of `u64`.
pub const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB_BUCKETS as usize;

/// Monotone counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins gauge holding an `f64` (stored as raw bits).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Atomically add `delta` (may be negative). Lets many threads keep
    /// a live count in one gauge — e.g. `server.sessions_active` with
    /// +1 on session start and -1 on drop.
    pub fn add(&self, delta: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self.0.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }
}

/// Map a sample to its bucket index.
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize;
    }
    let top = 63 - v.leading_zeros(); // >= SUB_BITS
    let octave = (top - SUB_BITS + 1) as usize;
    let sub = ((v >> (top - SUB_BITS)) & (SUB_BUCKETS - 1)) as usize;
    octave * SUB_BUCKETS as usize + sub
}

/// Upper bound (inclusive) of the values mapped to bucket `idx`.
fn bucket_high(idx: usize) -> u64 {
    let sub = (idx as u64) & (SUB_BUCKETS - 1);
    let octave = (idx as u64) >> SUB_BITS;
    if octave == 0 {
        return sub;
    }
    let shift = (octave - 1) as u32;
    let low = (SUB_BUCKETS + sub) << shift;
    low + ((1u64 << shift) - 1)
}

/// Lock-free log-linear histogram with p50/p95/p99 snapshots.
pub struct Histogram {
    counts: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        // Avoid a 15 KiB stack temporary: build the boxed array in place.
        let counts: Box<[AtomicU64; BUCKETS]> = (0..BUCKETS)
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice()
            .try_into()
            .unwrap_or_else(|_| unreachable!("length fixed at BUCKETS"));
        Histogram {
            counts,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count() == 0 {
            0
        } else {
            self.min.load(Ordering::Relaxed)
        }
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Value at quantile `q` in `[0, 1]`, as the upper bound of the
    /// bucket containing the rank-`ceil(q*count)` sample. Within one
    /// log-linear bucket (~3%) of the exact order statistic.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (idx, c) in self.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_high(idx).min(self.max());
            }
        }
        self.max()
    }

    /// The bucket index a value falls into — exposed so tests can check
    /// "within one bucket" against an exact oracle.
    pub fn bucket_of(v: u64) -> usize {
        bucket_index(v)
    }
}

/// Named metrics, get-or-create, deterministic snapshot order.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// Fresh registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.counters.read().get(name) {
            return Arc::clone(c);
        }
        Arc::clone(self.counters.write().entry(name.to_string()).or_default())
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = self.gauges.read().get(name) {
            return Arc::clone(g);
        }
        Arc::clone(self.gauges.write().entry(name.to_string()).or_default())
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.histograms.read().get(name) {
            return Arc::clone(h);
        }
        Arc::clone(self.histograms.write().entry(name.to_string()).or_default())
    }

    /// Convenience: bump counter `name` by `n`.
    pub fn add(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// Convenience: set gauge `name`.
    pub fn set_gauge(&self, name: &str, v: f64) {
        self.gauge(name).set(v);
    }

    /// Convenience: record `v` into histogram `name`.
    pub fn observe(&self, name: &str, v: u64) {
        self.histogram(name).record(v);
    }

    /// Current value of counter `name` (0 if absent).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.read().get(name).map_or(0, |c| c.get())
    }

    /// Current value of gauge `name` (0.0 if absent).
    pub fn gauge_value(&self, name: &str) -> f64 {
        self.gauges.read().get(name).map_or(0.0, |g| g.get())
    }

    /// Deterministically ordered JSON snapshot of every metric:
    /// `{"counters":{...},"gauges":{...},"histograms":{name:
    /// {"count","sum","min","max","p50","p95","p99"}}}`.
    pub fn snapshot_json(&self) -> String {
        let counters = self.counters.read().iter().map(|(name, c)| kv(name, c.get())).collect();
        let gauges = self.gauges.read().iter().map(|(name, g)| kv(name, g.get())).collect();
        let histogram = |h: &Histogram| {
            Value::Obj(vec![
                kv("count", h.count()),
                kv("sum", h.sum()),
                kv("min", h.min()),
                kv("max", h.max()),
                kv("p50", h.quantile(0.50)),
                kv("p95", h.quantile(0.95)),
                kv("p99", h.quantile(0.99)),
            ])
        };
        let histograms =
            self.histograms.read().iter().map(|(name, h)| kv(name, histogram(h))).collect();
        to_string(&Value::Obj(vec![
            kv("counters", Value::Obj(counters)),
            kv("gauges", Value::Obj(gauges)),
            kv("histograms", Value::Obj(histograms)),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        // Every value maps into a bucket whose range contains it, and
        // bucket indices are nondecreasing in the value.
        let mut prev = 0usize;
        for v in [0u64, 1, 31, 32, 33, 63, 64, 65, 127, 128, 1 << 20, u64::MAX / 2, u64::MAX] {
            let idx = bucket_index(v);
            assert!(idx >= prev, "index must be monotone at {v}");
            assert!(bucket_high(idx) >= v, "high({idx}) must cover {v}");
            prev = idx;
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn histogram_basics() {
        let h = Histogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        let p50 = h.quantile(0.5);
        assert!((45..=55).contains(&p50), "p50={p50}");
        assert!(h.quantile(1.0) >= h.quantile(0.5));
    }

    #[test]
    fn registry_get_or_create_and_snapshot() {
        let r = Registry::new();
        r.add("b.count", 2);
        r.add("a.count", 1);
        r.set_gauge("g", 1.5);
        r.observe("h", 10);
        let snap = r.snapshot_json();
        // BTreeMap ordering: "a.count" before "b.count".
        let a = snap.find("a.count").unwrap();
        let b = snap.find("b.count").unwrap();
        assert!(a < b);
        assert!(snap.contains("\"g\":1.5"));
        assert!(snap.contains("\"count\":1"));
        assert_eq!(r.counter_value("a.count"), 1);
        assert_eq!(snap, r.snapshot_json(), "snapshot must be deterministic");
    }
}
