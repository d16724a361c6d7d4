//! Deterministic chaos injection for any [`Link`].
//!
//! The paper's recovery claims (§VI, Fig 6–7) are only testable if we can
//! make networks misbehave *on demand and reproducibly*. [`ChaosLink`]
//! wraps any transport and perturbs its message stream with composable
//! fault kinds — drop, delay, truncate, duplicate, reorder, bit-flip,
//! one-way partition, connection reset — each fired by a trigger
//! evaluated against seeded RNG state and per-link byte/record counters.
//! Given the same seed and the same traffic, the same faults fire at the
//! same places, so a failing chaos schedule replays exactly.
//!
//! A [`ChaosHook`] is the shared factory: it carries the seeded config,
//! an arm/disarm gate (so session setup and authentication run clean and
//! chaos starts exactly at the operation under test), and *global* fire
//! budgets shared by every link it wraps — a fault spec with
//! `max_fires = 1` fires once across the whole transfer, so the retry
//! attempt gets a clean network and the recovery path is exercised.

use crate::link::Link;
use crate::retry::splitmix64;
use ig_obs::sync::Mutex;
use ig_obs::{kv, Obs};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What a firing fault does to the message stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Silently discard the message.
    Drop,
    /// Hold the message back; it is flushed only when the link closes
    /// (a maximally late arrival — by then the receiver has usually
    /// moved on, so this models loss-by-lateness).
    Delay,
    /// Cut the message to a seeded shorter prefix.
    Truncate,
    /// Deliver the message twice.
    Duplicate,
    /// Swap the message with the next one on the link.
    Reorder,
    /// Flip one seeded bit at byte offset >= `skip_prefix` (lets tests
    /// aim at MODE E payloads rather than framing headers).
    BitFlip {
        /// First byte eligible for flipping.
        skip_prefix: usize,
    },
    /// Black-hole this direction from now on: sends are swallowed (or
    /// receives stall) while the opposite direction keeps working —
    /// the classic half-open partition that hangs naive peers.
    PartitionOneWay,
    /// Close the underlying transport and fail with `ConnectionReset`.
    Reset,
}

/// When a fault fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// On the `n`-th message (0-based) in the spec's direction,
    /// counted from when the hook was armed.
    OnRecord(u64),
    /// On the first message that pushes the cumulative payload bytes
    /// in the spec's direction past `n`.
    AfterBytes(u64),
    /// Independently on each message with probability `p`, drawn from
    /// the link's seeded RNG (deterministic given seed + traffic).
    Probability(f64),
}

/// Which direction of the wrapped link the fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Outgoing messages (`send`/`send_vectored`).
    Send,
    /// Incoming messages (`recv`/`recv_into`).
    Recv,
}

/// One composable fault: kind + direction + trigger + global budget.
#[derive(Debug, Clone)]
pub struct FaultSpec {
    /// What happens.
    pub kind: FaultKind,
    /// Which direction it happens to.
    pub direction: Direction,
    /// When it happens.
    pub trigger: Trigger,
    /// Max fires across *all* links wrapped by the same hook
    /// (0 = unlimited). `1` models a transient fault a retry survives.
    pub max_fires: u64,
}

impl FaultSpec {
    /// A send-direction fault that fires once globally.
    pub fn send(kind: FaultKind, trigger: Trigger) -> Self {
        FaultSpec { kind, direction: Direction::Send, trigger, max_fires: 1 }
    }

    /// A recv-direction fault that fires once globally.
    pub fn recv(kind: FaultKind, trigger: Trigger) -> Self {
        FaultSpec { kind, direction: Direction::Recv, trigger, max_fires: 1 }
    }

    /// Builder: remove the fire budget (fires on every trigger match).
    pub fn unlimited(mut self) -> Self {
        self.max_fires = 0;
        self
    }

    /// Builder: set the global fire budget.
    pub fn fires(mut self, n: u64) -> Self {
        self.max_fires = n;
        self
    }
}

/// A seeded fault schedule.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Master seed; per-link RNG streams are derived from it, so the
    /// whole schedule replays from this one number.
    pub seed: u64,
    /// The faults to inject.
    pub faults: Vec<FaultSpec>,
}

impl ChaosConfig {
    /// A schedule with one fault.
    pub fn single(seed: u64, fault: FaultSpec) -> Self {
        ChaosConfig { seed, faults: vec![fault] }
    }
}

/// Shared factory and accounting for [`ChaosLink`]s.
///
/// Wrap every connection of a transfer through the same hook: links get
/// distinct deterministic RNG streams (`splitmix64(seed ^ link_index)`),
/// and fault fire budgets are enforced globally so "fails once, retry
/// succeeds" holds even though the retry opens brand-new connections.
#[derive(Debug)]
pub struct ChaosHook {
    config: ChaosConfig,
    armed: AtomicBool,
    next_link: AtomicU64,
    fired: Vec<AtomicU64>,
    /// Optional trace sink: every fired fault — *including* soft kinds
    /// like `Delay` that surface nowhere else — emits a `chaos.fault`
    /// event here with its trigger, seed, link and record position.
    obs: Mutex<Option<Arc<Obs>>>,
}

impl ChaosHook {
    /// A hook that injects faults immediately.
    pub fn new(config: ChaosConfig) -> Arc<Self> {
        Self::build(config, true)
    }

    /// A hook that passes traffic through untouched until [`Self::arm`]
    /// is called — lets authentication handshakes run clean so chaos
    /// starts exactly at the operation under test.
    pub fn disarmed(config: ChaosConfig) -> Arc<Self> {
        Self::build(config, false)
    }

    fn build(config: ChaosConfig, armed: bool) -> Arc<Self> {
        let fired = config.faults.iter().map(|_| AtomicU64::new(0)).collect();
        Arc::new(ChaosHook {
            config,
            armed: AtomicBool::new(armed),
            next_link: AtomicU64::new(0),
            fired,
            obs: Mutex::new(None),
        })
    }

    /// Route fault-fired events into `obs` (call before wrapping links).
    pub fn set_obs(&self, obs: &Arc<Obs>) {
        *self.obs.lock() = Some(Arc::clone(obs));
    }

    /// Emit the replay-stable `chaos.fault` trace event for one fire.
    fn emit_fault(&self, link: u64, record: u64, dir: Direction, spec: &FaultSpec) {
        if let Some(obs) = self.obs.lock().clone() {
            obs.event(
                "chaos.fault",
                vec![
                    kv("kind", format!("{:?}", spec.kind)),
                    kv("direction", format!("{dir:?}")),
                    kv("trigger", format!("{:?}", spec.trigger)),
                    kv("seed", self.config.seed),
                    kv("link", link),
                    kv("record", record),
                ],
            );
            obs.metrics().add("chaos.faults_fired", 1);
        }
    }

    /// Start injecting faults.
    pub fn arm(&self) {
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Stop injecting faults (spent budgets stay spent).
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::SeqCst);
    }

    /// Is the hook currently injecting?
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::SeqCst)
    }

    /// How many times spec `index` has fired, across all links.
    pub fn fires_of(&self, index: usize) -> u64 {
        self.fired.get(index).map_or(0, |c| c.load(Ordering::SeqCst))
    }

    /// Total fires across all specs and links.
    pub fn total_fires(&self) -> u64 {
        self.fired.iter().map(|c| c.load(Ordering::SeqCst)).sum()
    }

    /// Wrap a boxed link in a [`ChaosLink`] driven by this hook.
    pub fn wrap(self: &Arc<Self>, inner: Box<dyn Link>) -> Box<dyn Link> {
        Box::new(ChaosLink::new(inner, Arc::clone(self)))
    }

    /// Claim one fire of spec `index`; `false` means its budget is spent
    /// (first-crosser semantics under contention).
    fn try_fire(&self, index: usize) -> bool {
        let max = self.config.faults[index].max_fires;
        if max == 0 {
            self.fired[index].fetch_add(1, Ordering::SeqCst);
            return true;
        }
        self.fired[index]
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
                if v < max {
                    Some(v + 1)
                } else {
                    None
                }
            })
            .is_ok()
    }
}

/// Per-direction traffic counters and in-flight perturbation state.
#[derive(Default)]
struct DirState {
    records: u64,
    bytes: u64,
    partitioned: bool,
    /// `Delay`ed messages, flushed at close (send side only).
    delayed: VecDeque<Vec<u8>>,
    /// A `Reorder`ed message waiting to swap with the next one.
    held: Option<Vec<u8>>,
    /// Messages ready to hand to the caller ahead of the transport
    /// (recv side: duplicates and released reorders).
    ready: VecDeque<Vec<u8>>,
}

/// A [`Link`] wrapper that perturbs traffic per its hook's schedule.
pub struct ChaosLink<L: Link> {
    inner: L,
    hook: Arc<ChaosHook>,
    index: u64,
    rng: StdRng,
    send: DirState,
    recv: DirState,
    reset: bool,
}

impl<L: Link> ChaosLink<L> {
    /// Wrap `inner`; the link gets the hook's next deterministic RNG
    /// stream.
    pub fn new(inner: L, hook: Arc<ChaosHook>) -> Self {
        let index = hook.next_link.fetch_add(1, Ordering::SeqCst);
        let rng = StdRng::seed_from_u64(splitmix64(hook.config.seed ^ index.wrapping_mul(0x9E37)));
        ChaosLink {
            inner,
            hook,
            index,
            rng,
            send: DirState::default(),
            recv: DirState::default(),
            reset: false,
        }
    }

    /// Which faults fire on the message about to cross in `dir`?
    /// Also advances that direction's counters.
    fn firing(&mut self, dir: Direction, len: usize) -> Vec<FaultKind> {
        let state = match dir {
            Direction::Send => &mut self.send,
            Direction::Recv => &mut self.recv,
        };
        let record = state.records;
        let bytes_before = state.bytes;
        state.records += 1;
        // Saturate: a counter that wrapped would re-cross `AfterBytes`.
        let bytes_after = bytes_before.saturating_add(len as u64);
        state.bytes = bytes_after;

        let mut fired = Vec::new();
        if !self.hook.is_armed() {
            return fired;
        }
        for i in 0..self.hook.config.faults.len() {
            let spec = &self.hook.config.faults[i];
            if spec.direction != dir {
                continue;
            }
            let kind = spec.kind;
            let hit = match spec.trigger {
                Trigger::OnRecord(n) => record == n,
                Trigger::AfterBytes(n) => bytes_before <= n && bytes_after > n,
                // Always draw, so the RNG stream depends only on traffic,
                // not on which earlier faults happened to fire.
                Trigger::Probability(p) => self.rng.gen::<f64>() < p,
            };
            if hit && self.hook.try_fire(i) {
                self.hook.emit_fault(self.index, record, dir, spec);
                fired.push(kind);
            }
        }
        fired
    }

    fn reset_error() -> io::Error {
        io::Error::new(io::ErrorKind::ConnectionReset, "chaos: connection reset")
    }

    fn do_reset(&mut self) -> io::Error {
        self.reset = true;
        let _ = self.inner.close();
        Self::reset_error()
    }

    /// Apply payload mutations (truncate / bit-flip) from the seeded RNG.
    fn mutate(rng: &mut StdRng, msg: &mut Vec<u8>, kind: FaultKind) {
        match kind {
            FaultKind::Truncate => {
                if !msg.is_empty() {
                    let keep = rng.gen_range(0..msg.len());
                    msg.truncate(keep);
                }
            }
            FaultKind::BitFlip { skip_prefix } => {
                if msg.is_empty() {
                    return;
                }
                let lo = skip_prefix.min(msg.len() - 1);
                let byte = rng.gen_range(lo..msg.len());
                let bit = rng.gen_range(0..8u8);
                msg[byte] ^= 1 << bit;
            }
            _ => {}
        }
    }

    fn chaos_send(&mut self, data: &[u8]) -> io::Result<()> {
        if self.reset {
            return Err(Self::reset_error());
        }
        let fired = self.firing(Direction::Send, data.len());
        if fired.contains(&FaultKind::Reset) {
            return Err(self.do_reset());
        }
        if fired.contains(&FaultKind::PartitionOneWay) {
            self.send.partitioned = true;
        }
        if self.send.partitioned {
            // Black hole: the caller believes the send succeeded.
            return Ok(());
        }

        let mut msg = data.to_vec();
        for kind in &fired {
            Self::mutate(&mut self.rng, &mut msg, *kind);
        }
        if fired.contains(&FaultKind::Drop) {
            return Ok(());
        }
        if fired.contains(&FaultKind::Delay) {
            self.send.delayed.push_back(msg);
            return Ok(());
        }
        if fired.contains(&FaultKind::Reorder) {
            // Hold this message; it goes out right after the next one.
            self.send.held = Some(msg);
            return Ok(());
        }
        self.inner.send(&msg)?;
        if fired.contains(&FaultKind::Duplicate) {
            self.inner.send(&msg)?;
        }
        if let Some(held) = self.send.held.take() {
            self.inner.send(&held)?;
        }
        Ok(())
    }

    fn chaos_recv(&mut self) -> io::Result<Vec<u8>> {
        loop {
            if let Some(msg) = self.recv.ready.pop_front() {
                return Ok(msg);
            }
            if self.reset {
                return Err(Self::reset_error());
            }
            if self.recv.partitioned {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "chaos: one-way partition on receive path",
                ));
            }
            let mut msg = match self.inner.recv() {
                Ok(m) => m,
                Err(e) => {
                    // A maximally-delayed message surfaces at stream end,
                    // after the peer has stopped caring.
                    if let Some(late) = self.recv.delayed.pop_front() {
                        return Ok(late);
                    }
                    return Err(e);
                }
            };
            let fired = self.firing(Direction::Recv, msg.len());
            if fired.contains(&FaultKind::Reset) {
                return Err(self.do_reset());
            }
            if fired.contains(&FaultKind::PartitionOneWay) {
                self.recv.partitioned = true;
                continue; // the message vanishes into the partition
            }
            for kind in &fired {
                Self::mutate(&mut self.rng, &mut msg, *kind);
            }
            if fired.contains(&FaultKind::Drop) {
                continue;
            }
            if fired.contains(&FaultKind::Delay) {
                self.recv.delayed.push_back(msg);
                continue;
            }
            if fired.contains(&FaultKind::Reorder) {
                // Hold; delivered right after the next message.
                self.recv.held = Some(msg);
                continue;
            }
            if fired.contains(&FaultKind::Duplicate) {
                self.recv.ready.push_back(msg.clone());
            }
            if let Some(held) = self.recv.held.take() {
                self.recv.ready.push_back(held);
            }
            return Ok(msg);
        }
    }
}

impl<L: Link> Link for ChaosLink<L> {
    fn send(&mut self, data: &[u8]) -> io::Result<()> {
        self.chaos_send(data)
    }

    // send_vectored: the trait default concatenates and calls `send`,
    // which is exactly what we need — every byte passes through chaos.

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        self.chaos_recv()
    }

    fn recv_into(&mut self, buf: &mut Vec<u8>) -> io::Result<usize> {
        *buf = self.chaos_recv()?;
        Ok(buf.len())
    }

    fn close(&mut self) -> io::Result<()> {
        // Flush maximally-delayed sends just before teardown; whether the
        // peer still reads them is the peer's problem.
        if !self.reset && !self.send.partitioned {
            while let Some(late) = self.send.delayed.pop_front() {
                let _ = self.inner.send(&late);
            }
            if let Some(held) = self.send.held.take() {
                let _ = self.inner.send(&held);
            }
        }
        self.inner.close()
    }

    fn set_recv_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.set_recv_timeout(timeout)
    }

    fn set_send_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.set_send_timeout(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::pipe;
    use std::io::IoSlice;

    fn wrapped(spec: FaultSpec, seed: u64) -> (Box<dyn Link>, crate::link::PipeLink, Arc<ChaosHook>) {
        let (a, b) = pipe();
        let hook = ChaosHook::new(ChaosConfig::single(seed, spec));
        (hook.wrap(Box::new(a)), b, hook)
    }

    #[test]
    fn drop_discards_exactly_one_record() {
        let spec = FaultSpec::send(FaultKind::Drop, Trigger::OnRecord(1));
        let (mut a, mut b, hook) = wrapped(spec, 7);
        a.send(b"zero").unwrap();
        a.send(b"one").unwrap(); // dropped
        a.send(b"two").unwrap();
        assert_eq!(b.recv().unwrap(), b"zero");
        assert_eq!(b.recv().unwrap(), b"two");
        assert_eq!(hook.total_fires(), 1);
    }

    #[test]
    fn duplicate_sends_twice() {
        let spec = FaultSpec::send(FaultKind::Duplicate, Trigger::OnRecord(0));
        let (mut a, mut b, _) = wrapped(spec, 7);
        a.send(b"dup").unwrap();
        a.send(b"next").unwrap();
        assert_eq!(b.recv().unwrap(), b"dup");
        assert_eq!(b.recv().unwrap(), b"dup");
        assert_eq!(b.recv().unwrap(), b"next");
    }

    #[test]
    fn reorder_swaps_adjacent_records() {
        let spec = FaultSpec::send(FaultKind::Reorder, Trigger::OnRecord(0));
        let (mut a, mut b, _) = wrapped(spec, 7);
        a.send(b"first").unwrap();
        a.send(b"second").unwrap();
        assert_eq!(b.recv().unwrap(), b"second");
        assert_eq!(b.recv().unwrap(), b"first");
    }

    #[test]
    fn delay_flushes_at_close() {
        let spec = FaultSpec::send(FaultKind::Delay, Trigger::OnRecord(0));
        let (mut a, mut b, _) = wrapped(spec, 7);
        a.send(b"late").unwrap();
        a.send(b"ontime").unwrap();
        assert_eq!(b.recv().unwrap(), b"ontime");
        a.close().unwrap();
        assert_eq!(b.recv().unwrap(), b"late");
    }

    #[test]
    fn truncate_shortens_deterministically() {
        let spec = FaultSpec::send(FaultKind::Truncate, Trigger::OnRecord(0));
        let (mut a, mut b, _) = wrapped(spec.clone(), 99);
        a.send(&[7u8; 64]).unwrap();
        let got = b.recv().unwrap();
        assert!(got.len() < 64);
        // Same seed → same cut.
        let (mut a2, mut b2, _) = wrapped(spec, 99);
        a2.send(&[7u8; 64]).unwrap();
        assert_eq!(b2.recv().unwrap(), got);
    }

    #[test]
    fn bitflip_respects_skip_prefix() {
        let spec = FaultSpec::send(
            FaultKind::BitFlip { skip_prefix: 8 },
            Trigger::OnRecord(0),
        );
        let (mut a, mut b, _) = wrapped(spec, 3);
        a.send(&[0u8; 32]).unwrap();
        let got = b.recv().unwrap();
        assert_eq!(&got[..8], &[0u8; 8], "prefix must be untouched");
        let flipped: u32 = got.iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit flips");
    }

    #[test]
    fn partition_blackholes_sends_but_not_recv() {
        let spec = FaultSpec::send(FaultKind::PartitionOneWay, Trigger::OnRecord(1));
        let (mut a, mut b, _) = wrapped(spec, 7);
        a.send(b"through").unwrap();
        a.send(b"gone").unwrap(); // partition starts here
        a.send(b"also gone").unwrap();
        assert_eq!(b.recv().unwrap(), b"through");
        // Opposite direction still works.
        b.send(b"reply").unwrap();
        assert_eq!(a.recv().unwrap(), b"reply");
    }

    #[test]
    fn recv_partition_times_out_instead_of_hanging() {
        let spec = FaultSpec::recv(FaultKind::PartitionOneWay, Trigger::OnRecord(0));
        let (mut a, mut b, _) = wrapped(spec, 7);
        b.send(b"swallowed").unwrap();
        let err = a.recv().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn reset_kills_the_connection() {
        let spec = FaultSpec::send(FaultKind::Reset, Trigger::AfterBytes(10));
        let (mut a, mut b, hook) = wrapped(spec, 7);
        a.send(&[0u8; 8]).unwrap();
        let err = a.send(&[0u8; 8]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        // Subsequent sends keep failing; the peer sees EOF.
        assert!(a.send(b"x").is_err());
        assert_eq!(b.recv().unwrap().len(), 8);
        assert!(b.recv().is_err());
        assert_eq!(hook.total_fires(), 1);
    }

    #[test]
    fn recv_direction_faults_apply() {
        let spec = FaultSpec::recv(FaultKind::Drop, Trigger::OnRecord(0));
        let (mut a, mut b, _) = wrapped(spec, 7);
        b.send(b"dropped").unwrap();
        b.send(b"kept").unwrap();
        assert_eq!(a.recv().unwrap(), b"kept");
        // Duplicate on recv.
        let spec = FaultSpec::recv(FaultKind::Duplicate, Trigger::OnRecord(0));
        let (mut a, mut b, _) = wrapped(spec, 7);
        b.send(b"twice").unwrap();
        b.send(b"once").unwrap();
        assert_eq!(a.recv().unwrap(), b"twice");
        assert_eq!(a.recv().unwrap(), b"twice");
        assert_eq!(a.recv().unwrap(), b"once");
    }

    #[test]
    fn global_budget_spans_links() {
        // One hook, two links: the single-fire budget is shared, so the
        // "retry" link sees clean traffic.
        let spec = FaultSpec::send(FaultKind::Drop, Trigger::OnRecord(0));
        let hook = ChaosHook::new(ChaosConfig::single(7, spec));
        let (a1, mut b1) = pipe();
        let mut l1 = hook.wrap(Box::new(a1));
        l1.send(b"eaten").unwrap();
        let (a2, mut b2) = pipe();
        let mut l2 = hook.wrap(Box::new(a2));
        l2.send(b"survives").unwrap();
        assert_eq!(b2.recv().unwrap(), b"survives");
        l1.send(b"now clean").unwrap();
        assert_eq!(b1.recv().unwrap(), b"now clean");
        assert_eq!(hook.total_fires(), 1);
        // The same budget under contention: eight links race across the
        // trigger at once and exactly one of them takes the fault.
        let spec = FaultSpec::send(FaultKind::Reset, Trigger::AfterBytes(0));
        let hook = ChaosHook::new(ChaosConfig::single(7, spec));
        let start = Arc::new(std::sync::Barrier::new(8));
        let racers: Vec<_> = (0..8)
            .map(|_| {
                let (a, peer) = pipe();
                let mut l = hook.wrap(Box::new(a));
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    let failed = l.send(&[0u8; 64]).is_err();
                    drop(peer);
                    failed
                })
            })
            .collect();
        let failed = racers.into_iter().map(|h| h.join().unwrap());
        assert_eq!(failed.filter(|f| *f).count(), 1, "exactly one send should fail");
        assert_eq!(hook.total_fires(), 1);
    }

    #[test]
    fn disarmed_hook_passes_through_until_armed() {
        let spec = FaultSpec::send(FaultKind::Drop, Trigger::OnRecord(0)).unlimited();
        let hook = ChaosHook::disarmed(ChaosConfig::single(7, spec));
        let (a, mut b) = pipe();
        let mut l = hook.wrap(Box::new(a));
        l.send(b"handshake").unwrap();
        assert_eq!(b.recv().unwrap(), b"handshake");
        assert_eq!(hook.total_fires(), 0);
        hook.arm();
        // Counters only advance while armed, so OnRecord(0) is the first
        // armed message — but the handshake message already advanced the
        // counter. Use a fresh link, as real callers do per attempt.
        let (a2, mut b2) = pipe();
        let mut l2 = hook.wrap(Box::new(a2));
        l2.send(b"gone").unwrap();
        l2.send(b"kept").unwrap();
        assert_eq!(b2.recv().unwrap(), b"kept");
    }

    #[test]
    fn probability_schedule_replays_exactly() {
        let spec =
            FaultSpec::send(FaultKind::Drop, Trigger::Probability(0.3)).unlimited();
        let run = |seed: u64| {
            let hook = ChaosHook::new(ChaosConfig::single(seed, spec.clone()));
            let (a, mut b) = pipe();
            let mut l = hook.wrap(Box::new(a));
            for i in 0..50u8 {
                l.send(&[i]).unwrap();
            }
            l.close().unwrap();
            let mut got = Vec::new();
            while let Ok(m) = b.recv() {
                got.push(m[0]);
            }
            got
        };
        let first = run(1234);
        assert_eq!(first, run(1234), "same seed must replay byte-identically");
        assert!(first.len() < 50, "some records should drop");
        assert_ne!(first, run(4321), "different seed, different schedule");
    }

    #[test]
    fn vectored_sends_pass_through_chaos() {
        let spec = FaultSpec::send(FaultKind::Drop, Trigger::OnRecord(0));
        let (mut a, mut b, hook) = wrapped(spec, 7);
        a.send_vectored(&[IoSlice::new(b"head"), IoSlice::new(b"tail")]).unwrap();
        a.send_vectored(&[IoSlice::new(b"second")]).unwrap();
        assert_eq!(b.recv().unwrap(), b"second");
        assert_eq!(hook.total_fires(), 1);
    }

    #[test]
    fn after_bytes_triggers_on_first_crossing() {
        let spec = FaultSpec::send(FaultKind::Drop, Trigger::AfterBytes(100));
        let (mut a, mut b, hook) = wrapped(spec, 7);
        a.send(&[1u8; 100]).unwrap(); // exactly at the boundary: no fire
        assert_eq!(hook.total_fires(), 0);
        a.send(&[2u8; 1]).unwrap(); // crosses: dropped
        a.send(&[3u8; 1]).unwrap();
        assert_eq!(b.recv().unwrap().len(), 100);
        assert_eq!(b.recv().unwrap(), &[3u8]);
        assert_eq!(hook.total_fires(), 1);
        // A spent budget stays spent however absurd the sizes charged
        // afterwards: the byte counter saturates instead of wrapping
        // back across the trigger.
        let spec = FaultSpec::send(FaultKind::Reset, Trigger::AfterBytes(1));
        let hook = ChaosHook::new(ChaosConfig::single(7, spec));
        let (a, _b) = pipe();
        let mut l = ChaosLink::new(a, Arc::clone(&hook));
        assert!(l.firing(Direction::Send, 1).is_empty()); // exactly at the boundary
        assert_eq!(l.firing(Direction::Send, usize::MAX), vec![FaultKind::Reset]);
        for _ in 0..64 {
            assert!(l.firing(Direction::Send, usize::MAX).is_empty());
        }
        assert_eq!(hook.total_fires(), 1);
    }

    #[test]
    fn every_fired_fault_emits_a_trace_event_including_delay() {
        // Delay is the softest fault — the payload still arrives, just
        // maximally late — so without the trace event it is invisible.
        let spec = FaultSpec::send(FaultKind::Delay, Trigger::OnRecord(0));
        let hook = ChaosHook::new(ChaosConfig::single(7, spec));
        let obs = Obs::new("chaos-test");
        hook.set_obs(&obs);
        let (a, mut b) = pipe();
        let mut l = hook.wrap(Box::new(a));
        l.send(b"late").unwrap();
        l.send(b"ontime").unwrap();
        assert_eq!(b.recv().unwrap(), b"ontime");
        assert_eq!(hook.total_fires(), 1);
        assert_eq!(obs.count_events("chaos.fault"), 1);
        let trace = obs.export_stable();
        assert!(trace.contains("\"kind\":\"Delay\""), "{trace}");
        assert!(trace.contains("\"seed\":7"), "{trace}");
        assert!(trace.contains("\"record\":0"), "{trace}");
        assert_eq!(obs.metrics().counter_value("chaos.faults_fired"), 1);
    }

    #[test]
    fn fault_events_match_fires_across_kinds() {
        for kind in [FaultKind::Drop, FaultKind::Delay, FaultKind::Duplicate, FaultKind::Reorder] {
            let spec = FaultSpec::send(kind, Trigger::OnRecord(1));
            let hook = ChaosHook::new(ChaosConfig::single(11, spec));
            let obs = Obs::new("chaos-test");
            hook.set_obs(&obs);
            let (a, _b) = pipe();
            let mut l = hook.wrap(Box::new(a));
            for _ in 0..4 {
                l.send(b"m").unwrap();
            }
            assert_eq!(
                hook.total_fires() as usize,
                obs.count_events("chaos.fault"),
                "fires and trace events must agree for {kind:?}"
            );
        }
    }

    #[test]
    fn zero_byte_budget_fires_immediately() {
        // A zero budget means the very first byte crosses it.
        let spec = FaultSpec::send(FaultKind::Reset, Trigger::AfterBytes(0));
        let (mut a, _b, _hook) = wrapped(spec, 7);
        assert_eq!(a.send(&[1]).unwrap_err().kind(), io::ErrorKind::ConnectionReset);
    }
}
