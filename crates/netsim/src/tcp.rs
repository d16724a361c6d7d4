//! Per-flow sender state, advanced one RTT at a time.
//!
//! The congestion controller itself is pluggable ([`crate::cc`]);
//! `FlowState` owns the bookkeeping that is controller-independent —
//! remaining payload, caps, loss/RTT counters — and delegates window
//! dynamics to the boxed [`CongestionControl`]. With the default
//! [`CcAlgo::Reno`] the delivered-byte trajectories are bit-identical to
//! the historical inline implementation (`tests/golden_reno.rs`).

use crate::cc::{CcAlgo, CongestionControl};

/// Tunables for one flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcpParams {
    /// Maximum segment size in bytes.
    pub mss: u32,
    /// Initial congestion window in segments.
    pub init_cwnd: u32,
    /// Receive/congestion window cap in bytes (`None` = auto-tuned, i.e.
    /// effectively unlimited — the GridFTP "tuned buffers" case).
    pub window_cap_bytes: Option<u64>,
    /// Application-level send rate cap in bits/s (`None` = unlimited).
    /// Models a CPU-bound sender: SCP's cipher, or the per-datagram
    /// syscall ceiling of a userspace UDP stack.
    pub rate_cap_bps: Option<f64>,
    /// Congestion-control algorithm (default Reno).
    pub cc: CcAlgo,
}

impl TcpParams {
    /// Well-tuned endpoint: big buffers, no cipher ceiling.
    pub fn tuned() -> Self {
        TcpParams {
            mss: 1460,
            init_cwnd: 10,
            window_cap_bytes: None,
            rate_cap_bps: None,
            cc: CcAlgo::Reno,
        }
    }

    /// Classic untuned SSH/SCP endpoint: a fixed 64 KiB channel window.
    pub fn scp_like() -> Self {
        TcpParams {
            mss: 1460,
            init_cwnd: 10,
            window_cap_bytes: Some(64 * 1024),
            // OpenSSH-era single-core cipher throughput ceiling.
            rate_cap_bps: Some(400e6),
            cc: CcAlgo::Reno,
        }
    }

    /// Builder: set a window cap in bytes.
    pub fn with_window_cap(mut self, bytes: u64) -> Self {
        self.window_cap_bytes = Some(bytes);
        self
    }

    /// Builder: set a rate cap in bits per second.
    pub fn with_rate_cap(mut self, bps: f64) -> Self {
        self.rate_cap_bps = Some(bps);
        self
    }

    /// Builder: select the congestion-control algorithm.
    pub fn with_cc(mut self, cc: CcAlgo) -> Self {
        self.cc = cc;
        self
    }
}

impl Default for TcpParams {
    fn default() -> Self {
        Self::tuned()
    }
}

/// One flow's live state.
#[derive(Debug, Clone)]
pub struct FlowState {
    /// Parameters.
    pub params: TcpParams,
    /// The congestion controller driving the window.
    pub cc: Box<dyn CongestionControl>,
    /// Bytes still to deliver.
    pub remaining: u64,
    /// Count of loss events experienced.
    pub loss_events: u64,
    /// RTTs elapsed while this flow was active.
    pub rtts: u64,
}

impl FlowState {
    /// Fresh flow with `bytes` to send. The initial window is clamped to
    /// the channel cap: a 4 KiB receive window cannot admit a 10-segment
    /// initial burst, so `cwnd` must never report one.
    pub fn new(bytes: u64, params: TcpParams) -> Self {
        let cap = cap_segments(&params);
        let init = (params.init_cwnd as f64).min(cap);
        FlowState {
            params,
            cc: params.cc.build(init),
            remaining: bytes,
            loss_events: 0,
            rtts: 0,
        }
    }

    /// Finished?
    pub fn done(&self) -> bool {
        self.remaining == 0
    }

    /// Current congestion window in segments.
    pub fn cwnd(&self) -> f64 {
        self.cc.cwnd()
    }

    /// Window cap in segments for this flow.
    fn cap_segments(&self) -> f64 {
        cap_segments(&self.params)
    }

    /// How many bytes this flow *wants* to send this RTT.
    pub fn offered_bytes(&self, rtt_s: f64) -> f64 {
        if self.done() {
            return 0.0;
        }
        let window = self.cc.cwnd().min(self.cap_segments()) * self.params.mss as f64;
        let rate_limited = self
            .params
            .rate_cap_bps
            .map(|bps| bps / 8.0 * rtt_s)
            .unwrap_or(f64::INFINITY);
        window.min(rate_limited).min(self.remaining as f64).max(0.0)
    }

    /// Account `delivered` bytes and grow the window (one RTT passed).
    pub fn on_rtt_delivered(&mut self, delivered: f64, rtt_s: f64) {
        let delivered = delivered.min(self.remaining as f64);
        self.remaining -= delivered.round() as u64;
        self.rtts += 1;
        let cap = self.cap_segments();
        let delivered_segments = delivered / self.params.mss as f64;
        self.cc.on_rtt_delivered(delivered_segments, rtt_s, cap);
    }

    /// A loss event: the controller decides what (if anything) to do.
    pub fn on_loss(&mut self) {
        self.loss_events += 1;
        self.cc.on_loss();
    }
}

fn cap_segments(params: &TcpParams) -> f64 {
    params
        .window_cap_bytes
        .map(|b| (b as f64 / params.mss as f64).max(1.0))
        .unwrap_or(f64::INFINITY)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::{Phase, Reno};

    const RTT: f64 = 0.01;

    #[test]
    fn slow_start_doubles() {
        let mut f = FlowState::new(u64::MAX / 2, TcpParams::tuned());
        let w0 = f.cwnd();
        f.on_rtt_delivered(0.0, RTT);
        assert_eq!(f.cwnd(), w0 * 2.0);
        f.on_rtt_delivered(0.0, RTT);
        assert_eq!(f.cwnd(), w0 * 4.0);
    }

    #[test]
    fn loss_halves_and_switches_to_ca() {
        let mut f = FlowState::new(u64::MAX / 2, TcpParams::tuned());
        for _ in 0..6 {
            f.on_rtt_delivered(0.0, RTT);
        }
        let before = f.cwnd();
        f.on_loss();
        assert!((f.cwnd() - before / 2.0).abs() < 1e-9);
        assert_eq!(f.loss_events, 1);
        // CA grows additively.
        let w = f.cwnd();
        f.on_rtt_delivered(0.0, RTT);
        assert_eq!(f.cwnd(), w + 1.0);
    }

    #[test]
    fn window_cap_respected() {
        let params = TcpParams::tuned().with_window_cap(14600); // 10 segments
        let mut f = FlowState::new(u64::MAX / 2, params);
        for _ in 0..10 {
            f.on_rtt_delivered(0.0, RTT);
        }
        assert!(f.cwnd() <= 10.0 + 1e-9);
        assert!(f.offered_bytes(0.1) <= 14600.0);
    }

    #[test]
    fn rate_cap_limits_offer() {
        let params = TcpParams::tuned().with_rate_cap(8e6); // 1 MB/s
        let mut f = FlowState::new(u64::MAX / 2, params);
        for _ in 0..20 {
            f.on_rtt_delivered(0.0, RTT);
        }
        // Per 100 ms RTT, at most 100 KB.
        assert!(f.offered_bytes(0.1) <= 100_000.0 + 1.0);
    }

    #[test]
    fn offer_bounded_by_remaining() {
        let f = FlowState::new(500, TcpParams::tuned());
        assert!(f.offered_bytes(0.1) <= 500.0);
        let mut f2 = FlowState::new(500, TcpParams::tuned());
        f2.on_rtt_delivered(500.0, RTT);
        assert!(f2.done());
        assert_eq!(f2.offered_bytes(0.1), 0.0);
    }

    #[test]
    fn delivery_never_underflows() {
        let mut f = FlowState::new(100, TcpParams::tuned());
        f.on_rtt_delivered(1e9, RTT); // more than remaining
        assert!(f.done());
        assert_eq!(f.remaining, 0);
    }

    #[test]
    fn scp_like_has_both_ceilings() {
        let p = TcpParams::scp_like();
        assert_eq!(p.window_cap_bytes, Some(65536));
        assert!(p.rate_cap_bps.is_some());
        assert_eq!(p.cc, CcAlgo::Reno);
    }

    // ----- window_cap x rate_cap interaction (satellite battery) -----

    /// Initial cwnd is clamped to the channel cap: a 4 KiB window (~2.8
    /// segments) cannot admit the default 10-segment initial burst.
    #[test]
    fn init_cwnd_clamped_to_window_cap() {
        let params = TcpParams::tuned().with_window_cap(4096);
        let f = FlowState::new(u64::MAX / 2, params);
        let cap = 4096.0 / 1460.0;
        assert!(
            (f.cwnd() - cap).abs() < 1e-12,
            "initial cwnd {} must equal cap {}",
            f.cwnd(),
            cap
        );
        // The offer was already correct pre-fix (offered_bytes re-clamps);
        // the fix makes the *reported window* honest too.
        assert!(f.offered_bytes(0.1) <= 4096.0);
    }

    /// The window cap applies after slow-start doubling: a doubled window
    /// may never stick above the cap, and hitting the cap ends slow start
    /// so a later loss recovers from cap/2 rather than a stale INFINITY
    /// ssthresh.
    #[test]
    fn cap_applies_after_slow_start_doubling() {
        let params = TcpParams::tuned().with_window_cap(29200); // 20 segments
        let mut f = FlowState::new(u64::MAX / 2, params);
        f.on_rtt_delivered(0.0, RTT); // 10 -> 20 (exactly cap)
        assert_eq!(f.cwnd(), 20.0);
        f.on_rtt_delivered(0.0, RTT); // 40 -> clamped to 20, exits slow start
        assert_eq!(f.cwnd(), 20.0);
        f.on_loss();
        assert_eq!(f.cwnd(), 10.0, "recovery must start from cap/2");
        f.on_rtt_delivered(0.0, RTT);
        assert_eq!(f.cwnd(), 11.0, "post-loss growth must be additive (CA)");
    }

    /// The cap also applies after loss recovery: with a cap at 2 segments
    /// Reno's `max(2.0)` recovery floor equals the cap; growth above it
    /// must clamp straight back.
    #[test]
    fn cap_applies_after_loss_recovery() {
        let params = TcpParams::tuned().with_window_cap(2920); // 2 segments
        let mut f = FlowState::new(u64::MAX / 2, params);
        f.on_loss();
        assert_eq!(f.cwnd(), 2.0);
        for _ in 0..5 {
            f.on_rtt_delivered(0.0, RTT);
            assert!(f.cwnd() <= 2.0 + 1e-12, "cwnd {} above cap", f.cwnd());
        }
    }

    /// Both caps at once: whichever is lower governs, at every RTT and
    /// for every phase. The rate cap scales with RTT, the window cap does
    /// not — so the binding constraint flips with the RTT.
    #[test]
    fn tighter_of_window_and_rate_cap_governs() {
        let params = TcpParams::tuned()
            .with_window_cap(64 * 1024) // 64 KiB window
            .with_rate_cap(8e6); // 1 MB/s
        let mut f = FlowState::new(u64::MAX / 2, params);
        for _ in 0..30 {
            f.on_rtt_delivered(0.0, RTT);
        }
        // Short RTT: the rate cap binds (1 MB/s x 10 ms = 10 KB < 64 KiB).
        let offer_short = f.offered_bytes(0.01);
        assert!(offer_short <= 10_000.0 + 1.0, "got {offer_short}");
        // Long RTT: the window cap binds (1 MB/s x 1 s = 1 MB > 64 KiB).
        let offer_long = f.offered_bytes(1.0);
        assert!(offer_long <= 65536.0 + 1.0, "got {offer_long}");
        assert!(offer_long >= 60_000.0, "window cap should be reachable, got {offer_long}");
    }

    /// Loss recovery under a rate cap must not consult the rate cap at
    /// all: ssthresh derives from cwnd (segments), never from the rate
    /// ceiling, which lives only in `offered_bytes`.
    #[test]
    fn rate_cap_does_not_distort_loss_recovery() {
        let capped = TcpParams::tuned().with_rate_cap(1e6);
        let free = TcpParams::tuned();
        let mut a = FlowState::new(u64::MAX / 2, capped);
        let mut b = FlowState::new(u64::MAX / 2, free);
        for _ in 0..8 {
            a.on_rtt_delivered(0.0, RTT);
            b.on_rtt_delivered(0.0, RTT);
        }
        a.on_loss();
        b.on_loss();
        assert_eq!(a.cwnd(), b.cwnd(), "rate cap leaked into window dynamics");
    }

    /// Direct Reno introspection still works for tests that need phase
    /// and ssthresh visibility.
    #[test]
    fn reno_struct_remains_introspectable() {
        let mut r = Reno::new(10.0);
        assert_eq!(r.phase, Phase::SlowStart);
        assert_eq!(r.ssthresh, f64::INFINITY);
        r.on_loss();
        assert_eq!(r.phase, Phase::CongestionAvoidance);
        assert_eq!(r.ssthresh, 5.0);
    }
}
