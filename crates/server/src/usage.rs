//! Usage reporting — the data source behind the paper's Fig 1.
//!
//! "The Globus GridFTP server is deployed on more than 5,000 servers
//! worldwide and is responsible for an average of more than 10 million
//! transfers totaling approximately half a petabyte of data every day
//! (see Figure 1; these numbers are based on reporting from GridFTP
//! servers that choose to enable reporting)." Every server/session
//! records completed transfers here; experiments E1 and E15 aggregate a
//! simulated fleet's reports into the Fig 1 time series.
//!
//! # Sharding (DESIGN.md §14)
//!
//! At fleet scale the ledger is the hottest shared structure in the
//! hosted service: every completed transfer on every worker lands here.
//! The original single-`Mutex<Vec>` design serialized all of them; this
//! version stripes records across [`UsageReporter::DEFAULT_SHARDS`]
//! shards, each its own mutex + running totals, with writers routed by a
//! sticky per-thread hint so a worker thread almost never contends.
//! Readers merge on snapshot: `aggregate`/`records`/`snapshot` lock the
//! shards one at a time and combine, producing a canonical
//! (timestamp-ordered) view that is bit-for-bit independent of how the
//! writes were striped. `SITE STATS` consumes only the running totals,
//! which are updated under the shard lock, so its JSON stays
//! byte-compatible with the single-mutex ledger.
//!
//! The original implementation survives as [`oracle::SingleMutexReporter`]
//! — the test oracle the differential property tests drive in lock-step
//! with the sharded ledger.

use ig_obs::sync::Mutex;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Counters every stats surface must expose even before their
/// subsystem has fired once. The registry only snapshots metrics that
/// exist, so the scheduler counters would otherwise be absent from
/// `SITE STATS` on an idle server — touching them here (get-or-create
/// at zero) pins the reply shape.
const ALWAYS_PRESENT_COUNTERS: &[&str] = &[
    "gol.sched.submitted",
    "gol.sched.grants",
    "gol.sched.rejects",
    "gol.sched.queue_full",
];

/// The one serializer behind both operator surfaces: the control
/// channel's `SITE STATS` reply and the admin plane's `metrics`
/// command. One function means the two can never drift — the
/// regression test in `tests/obs_stats.rs` compares them byte-for-byte
/// (modulo counter values that move between the two reads).
pub fn stats_json(
    component: &str,
    usage: &UsageReporter,
    metrics: &ig_obs::Registry,
) -> String {
    for name in ALWAYS_PRESENT_COUNTERS {
        metrics.counter(name);
    }
    format!(
        "{{\"component\":\"{}\",\"usage\":{{\"transfers\":{},\"bytes\":{}}},\"metrics\":{}}}",
        component,
        usage.total_transfers(),
        usage.total_bytes(),
        metrics.snapshot_json()
    )
}

/// One completed transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferRecord {
    /// UNIX seconds at completion.
    pub timestamp: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Local account.
    pub user: String,
    /// `true` for STOR (inbound), `false` for RETR (outbound).
    pub inbound: bool,
    /// Number of parallel streams used.
    pub streams: u32,
}

/// Canonical sort key: timestamp first (the aggregation axis), then the
/// remaining fields so equal-timestamp records still order stably.
fn canonical_key(r: &TransferRecord) -> (u64, &str, u64, bool, u32) {
    (r.timestamp, r.user.as_str(), r.bytes, r.inbound, r.streams)
}

/// Sort records into the canonical order every reader exposes.
fn canonicalize(records: &mut [TransferRecord]) {
    records.sort_by(|a, b| canonical_key(a).cmp(&canonical_key(b)));
}

/// One bucket of the aggregated series (a Fig 1 data point).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UsageBucket {
    /// Bucket start (UNIX seconds).
    pub start: u64,
    /// Transfers completed in the bucket.
    pub transfers: u64,
    /// Bytes moved in the bucket.
    pub bytes: u64,
}

/// A merged, canonical view of the whole ledger at one instant — what
/// the differential tests compare between implementations.
#[derive(Debug, Clone, PartialEq)]
pub struct UsageSnapshot {
    /// Transfers recorded.
    pub transfers: u64,
    /// Bytes recorded.
    pub bytes: u64,
    /// All records in canonical (timestamp-major) order.
    pub records: Vec<TransferRecord>,
}

/// Aggregate a canonical record slice into `bucket_secs`-wide buckets —
/// shared by both ledger implementations so they cannot diverge in the
/// bucket math.
fn aggregate_records(records: &[TransferRecord], bucket_secs: u64) -> Vec<UsageBucket> {
    assert!(bucket_secs > 0, "bucket width must be positive");
    if records.is_empty() {
        return Vec::new();
    }
    let min = records.iter().map(|r| r.timestamp).min().expect("non-empty");
    let max = records.iter().map(|r| r.timestamp).max().expect("non-empty");
    let first = min / bucket_secs * bucket_secs;
    let buckets = (max - first) / bucket_secs + 1;
    let mut out: Vec<UsageBucket> = (0..buckets)
        .map(|i| UsageBucket { start: first + i * bucket_secs, transfers: 0, bytes: 0 })
        .collect();
    for r in records {
        let idx = ((r.timestamp - first) / bucket_secs) as usize;
        out[idx].transfers += 1;
        out[idx].bytes += r.bytes;
    }
    out
}

struct Shard {
    records: Mutex<Vec<TransferRecord>>,
    /// Running totals, bumped under the shard lock so `SITE STATS`
    /// totals never go backwards or tear against `records`.
    transfers: AtomicU64,
    bytes: AtomicU64,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            records: Mutex::new(Vec::new()),
            transfers: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    fn push(&self, rec: TransferRecord) {
        let mut guard = self.records.lock();
        self.transfers.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(rec.bytes, Ordering::Relaxed);
        guard.push(rec);
    }
}

/// A sink for transfer records, striped across shards.
pub struct UsageReporter {
    shards: Vec<Shard>,
}

impl Default for UsageReporter {
    fn default() -> Self {
        UsageReporter::sharded(UsageReporter::DEFAULT_SHARDS)
    }
}

/// Sticky per-thread shard hint: each recording thread claims the next
/// slot once and keeps it, so a fleet of worker threads spreads across
/// the stripes without ever hashing or contending on the router.
fn thread_shard_hint() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static HINT: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    HINT.with(|h| {
        let v = h.get();
        if v != usize::MAX {
            return v;
        }
        let v = NEXT.fetch_add(1, Ordering::Relaxed);
        h.set(v);
        v
    })
}

impl UsageReporter {
    /// Stripe count used by [`UsageReporter::new`]; sized so a sharded
    /// worker pool rarely lands two hot threads on one stripe.
    pub const DEFAULT_SHARDS: usize = 16;

    /// Shared reporter with the default stripe count.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// A reporter with exactly `n` shards (>= 1). Small counts keep the
    /// exhaustive interleaving tests tractable; production uses
    /// [`UsageReporter::new`].
    pub fn sharded(n: usize) -> Self {
        let n = n.max(1);
        UsageReporter { shards: (0..n).map(|_| Shard::new()).collect() }
    }

    /// Number of stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Record a completed transfer on the calling thread's stripe.
    pub fn record(&self, rec: TransferRecord) {
        self.record_on(thread_shard_hint(), rec);
    }

    /// Record on an explicit stripe (`shard` is taken modulo the stripe
    /// count). Deterministic routing for replays and the differential /
    /// interleaving tests; `record` routes here via the thread hint.
    pub fn record_on(&self, shard: usize, rec: TransferRecord) {
        self.shards[shard % self.shards.len()].push(rec);
    }

    /// Total transfers recorded.
    pub fn total_transfers(&self) -> u64 {
        self.shards.iter().map(|s| s.transfers.load(Ordering::Relaxed)).sum()
    }

    /// Total bytes recorded.
    pub fn total_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.bytes.load(Ordering::Relaxed)).sum()
    }

    /// Merge-on-snapshot reader: all records in canonical order. Locks
    /// shards one at a time; writers on other stripes are never blocked.
    pub fn records(&self) -> Vec<TransferRecord> {
        let mut out = Vec::with_capacity(self.total_transfers() as usize);
        for s in &self.shards {
            out.extend(s.records.lock().iter().cloned());
        }
        canonicalize(&mut out);
        out
    }

    /// A consistent, canonical snapshot: totals computed from the merged
    /// records themselves, so the snapshot can never tear against its
    /// own record list.
    pub fn snapshot(&self) -> UsageSnapshot {
        let records = self.records();
        UsageSnapshot {
            transfers: records.len() as u64,
            bytes: records.iter().map(|r| r.bytes).sum(),
            records,
        }
    }

    /// Aggregate into `bucket_secs`-wide buckets between the earliest and
    /// latest record (inclusive); empty buckets are emitted so the series
    /// plots cleanly.
    pub fn aggregate(&self, bucket_secs: u64) -> Vec<UsageBucket> {
        aggregate_records(&self.records(), bucket_secs)
    }

    /// Merge another reporter's records into this one (fleet roll-up).
    /// Stripes map index-to-index so a roll-up of sharded reporters
    /// stays spread out.
    pub fn absorb(&self, other: &UsageReporter) {
        for (i, s) in other.shards.iter().enumerate() {
            let records = s.records.lock().clone();
            for rec in records {
                self.record_on(i, rec);
            }
        }
    }
}

pub mod oracle {
    //! The pre-sharding single-mutex ledger, kept verbatim as the test
    //! oracle: the differential property tests drive it and the sharded
    //! [`super::UsageReporter`] with the same record stream and assert
    //! identical [`super::UsageSnapshot`]s.

    use super::{
        aggregate_records, canonicalize, TransferRecord, UsageBucket, UsageSnapshot,
    };
    use ig_obs::sync::Mutex;
    use std::sync::Arc;

    /// The original ledger: one mutex around one `Vec`.
    #[derive(Default)]
    pub struct SingleMutexReporter {
        records: Mutex<Vec<TransferRecord>>,
    }

    impl SingleMutexReporter {
        /// Shared reporter.
        pub fn new() -> Arc<Self> {
            Arc::new(Self::default())
        }

        /// Record a completed transfer.
        pub fn record(&self, rec: TransferRecord) {
            self.records.lock().push(rec);
        }

        /// Total transfers recorded.
        pub fn total_transfers(&self) -> u64 {
            self.records.lock().len() as u64
        }

        /// Total bytes recorded.
        pub fn total_bytes(&self) -> u64 {
            self.records.lock().iter().map(|r| r.bytes).sum()
        }

        /// All records in the same canonical order the sharded reader
        /// exposes (the oracle's insertion order is an implementation
        /// detail the sharded ledger cannot reproduce).
        pub fn records(&self) -> Vec<TransferRecord> {
            let mut out = self.records.lock().clone();
            canonicalize(&mut out);
            out
        }

        /// Canonical snapshot (see [`super::UsageReporter::snapshot`]).
        pub fn snapshot(&self) -> UsageSnapshot {
            let records = self.records();
            UsageSnapshot {
                transfers: records.len() as u64,
                bytes: records.iter().map(|r| r.bytes).sum(),
                records,
            }
        }

        /// Aggregate — same bucket math as the sharded ledger.
        pub fn aggregate(&self, bucket_secs: u64) -> Vec<UsageBucket> {
            aggregate_records(&self.records(), bucket_secs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: u64, bytes: u64) -> TransferRecord {
        TransferRecord { timestamp: t, bytes, user: "u".into(), inbound: true, streams: 4 }
    }

    #[test]
    fn totals() {
        let r = UsageReporter::new();
        assert_eq!(r.total_transfers(), 0);
        r.record(rec(10, 100));
        r.record(rec(20, 200));
        assert_eq!(r.total_transfers(), 2);
        assert_eq!(r.total_bytes(), 300);
    }

    #[test]
    fn aggregation_with_gaps() {
        let r = UsageReporter::new();
        r.record(rec(5, 10));
        r.record(rec(8, 10));
        r.record(rec(25, 40)); // bucket 2 (20..30); bucket 1 empty
        let buckets = r.aggregate(10);
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[0], UsageBucket { start: 0, transfers: 2, bytes: 20 });
        assert_eq!(buckets[1], UsageBucket { start: 10, transfers: 0, bytes: 0 });
        assert_eq!(buckets[2], UsageBucket { start: 20, transfers: 1, bytes: 40 });
    }

    #[test]
    fn empty_aggregate() {
        let r = UsageReporter::new();
        assert!(r.aggregate(60).is_empty());
    }

    #[test]
    fn absorb_merges_fleet() {
        let hub = UsageReporter::new();
        let a = UsageReporter::new();
        let b = UsageReporter::new();
        a.record(rec(1, 1));
        b.record(rec(2, 2));
        hub.absorb(&a);
        hub.absorb(&b);
        assert_eq!(hub.total_transfers(), 2);
        assert_eq!(hub.total_bytes(), 3);
    }

    #[test]
    fn striped_writes_merge_into_canonical_order() {
        let r = UsageReporter::sharded(4);
        // Write timestamps out of order across explicit stripes.
        r.record_on(3, rec(30, 3));
        r.record_on(0, rec(10, 1));
        r.record_on(2, rec(20, 2));
        r.record_on(0, rec(10, 1));
        let records = r.records();
        let ts: Vec<u64> = records.iter().map(|x| x.timestamp).collect();
        assert_eq!(ts, vec![10, 10, 20, 30]);
        let snap = r.snapshot();
        assert_eq!(snap.transfers, 4);
        assert_eq!(snap.bytes, 7);
    }

    #[test]
    fn sharded_matches_oracle_on_a_fixed_stream() {
        let sharded = UsageReporter::sharded(3);
        let oracle = oracle::SingleMutexReporter::default();
        for i in 0..100u64 {
            let r = rec(i * 7 % 50, i);
            sharded.record_on(i as usize, r.clone());
            oracle.record(r);
        }
        assert_eq!(sharded.snapshot(), oracle.snapshot());
        assert_eq!(sharded.aggregate(10), oracle.aggregate(10));
        assert_eq!(sharded.total_transfers(), oracle.total_transfers());
        assert_eq!(sharded.total_bytes(), oracle.total_bytes());
    }

    #[test]
    fn concurrent_recording_keeps_every_record() {
        let r = UsageReporter::new();
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..250u64 {
                        r.record(rec(t * 1000 + i, 1));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(r.total_transfers(), 2000);
        assert_eq!(r.total_bytes(), 2000);
        assert_eq!(r.snapshot().transfers, 2000);
    }
}
