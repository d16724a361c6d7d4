//! Span/event tracer with a lock-cheap ring buffer and JSONL export.
//!
//! Every event carries a monotone sequence number and a `stable` flag.
//! *Stable* events are those whose presence and field values are a pure
//! function of the run's seeds and causal order — chaos faults, retry
//! attempts, command dispatch, span boundaries. *Unstable* events carry
//! wall-clock-dependent payloads (durations, timer-driven markers) and
//! are excluded from the replay export.
//!
//! [`Tracer::export_stable`] filters to stable events and renumbers the
//! sequence, so two runs of the same seeded scenario produce
//! byte-identical JSONL even though unstable events interleave
//! differently — that is the property the CI replay-determinism gate
//! asserts.

use crate::json::{escape_str_into, fields_into, Value};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use crate::sync::Mutex;

/// Default ring-buffer capacity (events).
pub const DEFAULT_CAPACITY: usize = 65_536;

/// One recorded event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Monotone sequence number (per tracer).
    pub seq: u64,
    /// Position in the *stable* substream (assigned at record time;
    /// meaningful only when `stable` is true). Unlike `seq`, this number
    /// does not move when unstable events interleave differently between
    /// replays, so it is safe to emit in the stable export.
    pub stable_seq: u64,
    /// Owning span id; 0 = no span.
    pub span: u64,
    /// Event name, dot-separated (`chaos.fault`, `retry.attempt`).
    pub name: String,
    /// Typed fields in insertion order.
    pub fields: Vec<(String, Value)>,
    /// Whether this event is deterministic under replay.
    pub stable: bool,
}

impl TraceEvent {
    /// Render as one JSON line (no trailing newline). `seq` lets the
    /// caller renumber for stable exports.
    fn jsonl(&self, component: &str, seq: u64) -> String {
        let mut out = String::with_capacity(64 + self.name.len());
        out.push_str("{\"seq\":");
        out.push_str(&seq.to_string());
        out.push_str(",\"component\":");
        escape_str_into(&mut out, component);
        out.push_str(",\"span\":");
        out.push_str(&self.span.to_string());
        out.push_str(",\"event\":");
        escape_str_into(&mut out, &self.name);
        out.push_str(",\"fields\":");
        fields_into(&mut out, &self.fields);
        out.push('}');
        out
    }
}

/// A cursor-bounded stable export (see [`Tracer::export_stable_since`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StableExport {
    /// JSONL lines for stable events at `stable_seq >= cursor` still in
    /// the ring, in sequence order.
    pub jsonl: String,
    /// Cursor to pass on the next call to resume exactly after this one.
    pub next: u64,
    /// Stable events in `[cursor, next)` the ring evicted before they
    /// could be exported. Zero means the stream is gapless so far.
    pub dropped: u64,
}

/// Ring-buffer event collector; one per [`crate::Obs`].
#[derive(Debug)]
pub struct Tracer {
    component: String,
    seq: AtomicU64,
    stable_seq: AtomicU64,
    next_span: AtomicU64,
    capacity: usize,
    events: Mutex<VecDeque<TraceEvent>>,
}

impl Tracer {
    /// New tracer labelled `component`.
    pub fn new(component: &str) -> Self {
        Tracer {
            component: component.to_string(),
            seq: AtomicU64::new(0),
            stable_seq: AtomicU64::new(0),
            next_span: AtomicU64::new(1),
            capacity: DEFAULT_CAPACITY,
            events: Mutex::new(VecDeque::new()),
        }
    }

    /// Component label.
    pub fn component(&self) -> &str {
        &self.component
    }

    /// Allocate a fresh span id (never 0).
    pub fn new_span_id(&self) -> u64 {
        self.next_span.fetch_add(1, Ordering::Relaxed)
    }

    /// Record an event. Sequence numbers are claimed and the ring
    /// appended under one short lock so `seq` order equals buffer order.
    pub fn record(&self, span: u64, name: &str, fields: Vec<(String, Value)>, stable: bool) {
        let mut q = self.events.lock();
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let stable_seq =
            if stable { self.stable_seq.fetch_add(1, Ordering::Relaxed) } else { 0 };
        if q.len() == self.capacity {
            q.pop_front();
        }
        q.push_back(TraceEvent { seq, stable_seq, span, name: name.to_string(), fields, stable });
    }

    /// Number of buffered events with name `name`.
    pub fn count_events(&self, name: &str) -> usize {
        self.events.lock().iter().filter(|e| e.name == name).count()
    }

    /// Snapshot of all buffered events.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().iter().cloned().collect()
    }

    /// Full JSONL export: every buffered event, raw sequence numbers,
    /// plus a `"stable"` marker. For human debugging, not replay diffs.
    pub fn export_full(&self) -> String {
        let mut out = String::new();
        for e in self.events.lock().iter() {
            let mut line = e.jsonl(&self.component, e.seq);
            // Splice the stability marker before the closing brace.
            line.pop();
            line.push_str(",\"stable\":");
            line.push_str(if e.stable { "true" } else { "false" });
            line.push('}');
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Replay-stable JSONL export: stable events only, numbered by their
    /// position in the stable substream (0-based). Byte-identical across
    /// replays of the same seeded scenario.
    pub fn export_stable(&self) -> String {
        self.export_stable_since(0).jsonl
    }

    /// Cursor-bounded stable export: stable events at `stable_seq >=
    /// cursor`, plus the cursor to resume from and a count of events the
    /// ring evicted before this read (so a live `trace follow` stream
    /// can report gaps instead of silently skipping them). Repeated
    /// calls with the returned `next` yield a seq-monotone, gap-audited
    /// stream without re-exporting the whole buffer each time.
    pub fn export_stable_since(&self, cursor: u64) -> StableExport {
        let q = self.events.lock();
        // `stable_seq` only advances under the events lock, so this read
        // is consistent with the buffer snapshot below.
        let total = self.stable_seq.load(Ordering::Relaxed);
        let mut jsonl = String::new();
        let mut oldest_buffered = None;
        for e in q.iter().filter(|e| e.stable) {
            if oldest_buffered.is_none() {
                oldest_buffered = Some(e.stable_seq);
            }
            if e.stable_seq >= cursor {
                jsonl.push_str(&e.jsonl(&self.component, e.stable_seq));
                jsonl.push('\n');
            }
        }
        let dropped = match oldest_buffered {
            Some(oldest) if oldest > cursor => oldest - cursor,
            Some(_) => 0,
            None => total.saturating_sub(cursor),
        };
        StableExport { jsonl, next: total.max(cursor), dropped }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::kv;

    #[test]
    fn stable_export_filters_and_renumbers() {
        let t = Tracer::new("test");
        t.record(0, "a", vec![kv("k", 1u64)], true);
        t.record(0, "noise", vec![kv("ns", 123u64)], false);
        t.record(2, "b", vec![], true);
        let stable = t.export_stable();
        let lines: Vec<&str> = stable.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"seq\":0,"));
        assert!(lines[1].starts_with("{\"seq\":1,"));
        assert!(!stable.contains("noise"));
        assert!(stable.contains("\"span\":2"));
        let full = t.export_full();
        assert_eq!(full.lines().count(), 3);
        assert!(full.contains("\"stable\":false"));
    }

    #[test]
    fn ring_caps_out() {
        let mut t = Tracer::new("cap");
        t.capacity = 4;
        for i in 0..10u64 {
            t.record(0, "e", vec![kv("i", i)], true);
        }
        let evs = t.events();
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[0].seq, 6, "oldest events evicted");
        assert_eq!(evs[3].seq, 9);
    }

    #[test]
    fn cursor_export_survives_wraparound() {
        let mut t = Tracer::new("wrap");
        t.capacity = 4;
        // Interleave stable and unstable so seq != stable_seq.
        for i in 0..3u64 {
            t.record(0, "e", vec![kv("i", i)], true);
            t.record(0, "noise", vec![], false);
        }
        // Ring holds the last 4 events: s1,u1,s2,u2 — s0 was evicted.
        let first = t.export_stable_since(0);
        assert_eq!(first.dropped, 1, "evicted stable event must be counted");
        assert_eq!(first.next, 3);
        let lines: Vec<&str> = first.jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"seq\":1,"), "bad first line: {}", lines[0]);
        assert!(lines[1].starts_with("{\"seq\":2,"));

        // Resuming from `next` is quiet: no lines, no drops.
        let again = t.export_stable_since(first.next);
        assert!(again.jsonl.is_empty());
        assert_eq!(again.dropped, 0);
        assert_eq!(again.next, 3);

        // A new event shows up exactly once, at the next stable seq.
        t.record(0, "e", vec![kv("i", 9u64)], true);
        let more = t.export_stable_since(first.next);
        assert_eq!(more.dropped, 0);
        assert_eq!(more.next, 4);
        assert!(more.jsonl.starts_with("{\"seq\":3,"), "bad resume: {}", more.jsonl);

        // Full overrun: everything since the cursor evicted.
        for i in 0..10u64 {
            t.record(0, "x", vec![kv("i", i)], true);
        }
        let overrun = t.export_stable_since(more.next);
        assert_eq!(overrun.next, 14);
        assert_eq!(overrun.dropped, 6, "seqs 4..10 evicted, 10..14 buffered");
        assert_eq!(overrun.jsonl.lines().count(), 4);
    }

    #[test]
    fn incremental_cursor_stream_equals_one_shot_export() {
        let t = Tracer::new("inc");
        let mut streamed = String::new();
        let mut cursor = 0u64;
        for i in 0..20u64 {
            t.record(0, "e", vec![kv("i", i)], i % 3 != 0);
            if i % 5 == 0 {
                let chunk = t.export_stable_since(cursor);
                assert_eq!(chunk.dropped, 0);
                streamed.push_str(&chunk.jsonl);
                cursor = chunk.next;
            }
        }
        let tail = t.export_stable_since(cursor);
        streamed.push_str(&tail.jsonl);
        assert_eq!(streamed, t.export_stable(), "chunked reads must concatenate exactly");
    }

    #[test]
    fn span_ids_are_unique_nonzero() {
        let t = Tracer::new("s");
        let a = t.new_span_id();
        let b = t.new_span_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }
}
