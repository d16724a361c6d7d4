//! Pluggable congestion control.
//!
//! The fluid simulator (`sim.rs`) drives a sender window through this
//! trait. The contract is RTT-granular, mirroring the simulator's tick:
//! the caller reports one round-trip's worth of delivery at a time, and
//! the controller answers with a window (in segments). A real-time
//! caller would synthesize the same signal from ack arrivals: accumulate acked bytes, and once per measured RTT call
//! [`CongestionControl::on_rtt_delivered`].
//!
//! `Reno` is the pre-existing model extracted verbatim — `tcp.rs` keeps
//! producing bit-identical trajectories through it (pinned by
//! `tests/golden_reno.rs`).

/// Reno congestion-control phases (also used by CUBIC's slow start).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Exponential window growth.
    SlowStart,
    /// Additive (Reno) / cubic-polynomial (CUBIC) increase.
    CongestionAvoidance,
}

/// Which congestion controller a flow runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CcAlgo {
    /// Classic AIMD: the paper-era WAN workhorse, collapses as √loss.
    #[default]
    Reno,
    /// CUBIC: loss-based but RTT-fair, recovers along W(t)=C(t−K)³+Wmax.
    Cubic,
}

impl CcAlgo {
    /// Instantiate the controller with `init_cwnd` segments.
    pub fn build(self, init_cwnd: f64) -> Box<dyn CongestionControl> {
        match self {
            CcAlgo::Reno => Box::new(Reno::new(init_cwnd)),
            CcAlgo::Cubic => Box::new(Cubic::new(init_cwnd)),
        }
    }

    /// Wire/report label.
    pub fn label(self) -> &'static str {
        match self {
            CcAlgo::Reno => "reno",
            CcAlgo::Cubic => "cubic",
        }
    }

    /// Parse a wire/report label (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "reno" => Some(CcAlgo::Reno),
            "cubic" => Some(CcAlgo::Cubic),
            _ => None,
        }
    }
}

/// One sender's congestion controller, advanced one RTT at a time.
///
/// `cap_segments` is the receive/channel window cap in segments
/// (`f64::INFINITY` when untuned-buffer limits don't apply). It is passed
/// into the growth step — not applied outside — because the clamp must
/// feed back into the controller's own state exactly as the historical
/// inline code did.
pub trait CongestionControl: Send {
    /// Current congestion window in segments.
    fn cwnd(&self) -> f64;

    /// One RTT elapsed; `delivered_segments` were acked in it.
    fn on_rtt_delivered(&mut self, delivered_segments: f64, rtt_s: f64, cap_segments: f64);

    /// A loss event (drop-tail or path loss) was detected.
    fn on_loss(&mut self);

    /// Human-readable algorithm name.
    fn name(&self) -> &'static str;

    /// Clone into a fresh box (object-safe `Clone`).
    fn clone_box(&self) -> Box<dyn CongestionControl>;
}

impl Clone for Box<dyn CongestionControl> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

impl std::fmt::Debug for dyn CongestionControl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CongestionControl({}, cwnd={})", self.name(), self.cwnd())
    }
}

// ---------------------------------------------------------------------
// Reno
// ---------------------------------------------------------------------

/// Classic Reno AIMD, extracted verbatim from the historical
/// `FlowState`: slow-start doubling, +1 segment per RTT in avoidance,
/// halving on loss. The f64 operation order here is a compatibility
/// contract — `tests/golden_reno.rs` pins it.
#[derive(Debug, Clone)]
pub struct Reno {
    /// Congestion window in segments.
    pub cwnd: f64,
    /// Slow-start threshold in segments.
    pub ssthresh: f64,
    /// Current phase.
    pub phase: Phase,
}

impl Reno {
    /// Fresh controller with `init_cwnd` segments.
    pub fn new(init_cwnd: f64) -> Self {
        Reno { cwnd: init_cwnd, ssthresh: f64::INFINITY, phase: Phase::SlowStart }
    }
}

impl CongestionControl for Reno {
    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn on_rtt_delivered(&mut self, _delivered_segments: f64, _rtt_s: f64, cap_segments: f64) {
        match self.phase {
            Phase::SlowStart => {
                self.cwnd *= 2.0;
                if self.cwnd >= self.ssthresh {
                    self.cwnd = self.ssthresh;
                    self.phase = Phase::CongestionAvoidance;
                }
            }
            Phase::CongestionAvoidance => {
                self.cwnd += 1.0;
            }
        }
        if self.cwnd > cap_segments {
            self.cwnd = cap_segments;
            // A window pinned at the channel cap has no headroom left to
            // probe: finish slow start so a later loss recovers with
            // ssthresh = cap/2, not a stale INFINITY. (Trajectory-neutral:
            // cwnd stays at cap either way; golden_reno.rs proves it.)
            if self.phase == Phase::SlowStart {
                self.ssthresh = cap_segments;
                self.phase = Phase::CongestionAvoidance;
            }
        }
    }

    fn on_loss(&mut self) {
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = self.ssthresh;
        self.phase = Phase::CongestionAvoidance;
    }

    fn name(&self) -> &'static str {
        "reno"
    }

    fn clone_box(&self) -> Box<dyn CongestionControl> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------
// CUBIC
// ---------------------------------------------------------------------

/// CUBIC's multiplicative-decrease factor β.
pub const CUBIC_BETA: f64 = 0.7;
/// CUBIC's scaling constant C (segments/s³).
pub const CUBIC_C: f64 = 0.4;

/// RFC 8312-shaped CUBIC at RTT granularity: after a loss at window
/// `w_max`, the window recovers along `W(t) = C(t−K)³ + w_max` where
/// `K = ∛(w_max·(1−β)/C)`, with the TCP-friendly estimate
/// `W_est = w_max·β + α·(t/RTT)` as a floor so low-BDP behavior tracks
/// Reno (α = 3(1−β)/(1+β)).
#[derive(Debug, Clone)]
pub struct Cubic {
    cwnd: f64,
    ssthresh: f64,
    phase: Phase,
    /// Window just before the last reduction.
    w_max: f64,
    /// Time of the cubic inflection point, seconds after the last loss.
    k: f64,
    /// Seconds elapsed since the last loss.
    t_s: f64,
}

impl Cubic {
    /// Fresh controller with `init_cwnd` segments.
    pub fn new(init_cwnd: f64) -> Self {
        Cubic {
            cwnd: init_cwnd,
            ssthresh: f64::INFINITY,
            phase: Phase::SlowStart,
            w_max: 0.0,
            k: 0.0,
            t_s: 0.0,
        }
    }

    fn alpha() -> f64 {
        3.0 * (1.0 - CUBIC_BETA) / (1.0 + CUBIC_BETA)
    }
}

impl CongestionControl for Cubic {
    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn on_rtt_delivered(&mut self, _delivered_segments: f64, rtt_s: f64, cap_segments: f64) {
        match self.phase {
            Phase::SlowStart => {
                self.cwnd *= 2.0;
                if self.cwnd >= self.ssthresh {
                    self.cwnd = self.ssthresh;
                    self.phase = Phase::CongestionAvoidance;
                }
            }
            Phase::CongestionAvoidance => {
                self.t_s += rtt_s.max(0.0);
                let dt = self.t_s - self.k;
                let target = CUBIC_C * dt * dt * dt + self.w_max;
                let rounds = if rtt_s > 0.0 { self.t_s / rtt_s } else { 0.0 };
                let w_est = self.w_max * CUBIC_BETA + Self::alpha() * rounds;
                // Grow toward the cubic curve, floored by the Reno-rate
                // estimate, ceilinged at 1.5x/RTT so a long quiet period
                // far past K cannot teleport the window.
                let next = target.max(w_est).max(2.0);
                self.cwnd = next.min(self.cwnd * 1.5).max(self.cwnd);
            }
        }
        if self.cwnd > cap_segments {
            self.cwnd = cap_segments;
            if self.phase == Phase::SlowStart {
                self.ssthresh = cap_segments;
                self.phase = Phase::CongestionAvoidance;
            }
        }
    }

    fn on_loss(&mut self) {
        self.w_max = self.cwnd;
        self.cwnd = (self.cwnd * CUBIC_BETA).max(2.0);
        self.ssthresh = self.cwnd;
        self.k = (self.w_max * (1.0 - CUBIC_BETA) / CUBIC_C).cbrt();
        self.t_s = 0.0;
        self.phase = Phase::CongestionAvoidance;
    }

    fn name(&self) -> &'static str {
        "cubic"
    }

    fn clone_box(&self) -> Box<dyn CongestionControl> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algo_labels_round_trip() {
        for algo in [CcAlgo::Reno, CcAlgo::Cubic] {
            assert_eq!(CcAlgo::parse(algo.label()), Some(algo));
            assert_eq!(CcAlgo::parse(&algo.label().to_uppercase()), Some(algo));
        }
        assert_eq!(CcAlgo::parse("vegas"), None);
        assert_eq!(CcAlgo::default(), CcAlgo::Reno);
    }

    #[test]
    fn reno_doubles_then_halves() {
        let mut r = Reno::new(10.0);
        r.on_rtt_delivered(10.0, 0.01, f64::INFINITY);
        assert_eq!(r.cwnd, 20.0);
        r.on_loss();
        assert_eq!(r.cwnd, 10.0);
        assert_eq!(r.phase, Phase::CongestionAvoidance);
        r.on_rtt_delivered(10.0, 0.01, f64::INFINITY);
        assert_eq!(r.cwnd, 11.0);
    }

    #[test]
    fn reno_pinned_at_cap_exits_slow_start() {
        let mut r = Reno::new(10.0);
        r.on_rtt_delivered(10.0, 0.01, 16.0);
        assert_eq!(r.cwnd, 16.0);
        assert_eq!(r.phase, Phase::CongestionAvoidance);
        assert_eq!(r.ssthresh, 16.0);
        // A later loss recovers from cap/2, not from a stale INFINITY.
        r.on_loss();
        assert_eq!(r.cwnd, 8.0);
    }

    #[test]
    fn cubic_recovers_along_cubic_curve() {
        let mut c = Cubic::new(10.0);
        // Grow to a sizable window, then lose. K = ∛(640·0.3/0.4) ≈ 7.8 s,
        // so 200 rounds at 100 ms cross the inflection point comfortably.
        for _ in 0..6 {
            c.on_rtt_delivered(0.0, 0.1, f64::INFINITY);
        }
        let before = c.cwnd();
        c.on_loss();
        let floor = c.cwnd();
        assert!((floor - before * CUBIC_BETA).abs() < 1e-9);
        // The window must climb back toward w_max without overshooting
        // the 1.5x/RTT growth limit.
        let mut prev = floor;
        for _ in 0..200 {
            c.on_rtt_delivered(prev, 0.1, f64::INFINITY);
            assert!(c.cwnd() >= prev - 1e-12, "cubic shrank without loss");
            assert!(c.cwnd() <= prev * 1.5 + 1e-9, "cubic grew >1.5x in one RTT");
            prev = c.cwnd();
        }
        assert!(prev > before, "cubic never recovered past w_max: {prev} vs {before}");
    }

    #[test]
    fn clone_box_preserves_state() {
        let mut c = Cubic::new(10.0);
        for _ in 0..4 {
            c.on_rtt_delivered(10.0, 0.01, f64::INFINITY);
        }
        c.on_loss();
        let boxed: Box<dyn CongestionControl> = Box::new(c.clone());
        let cloned = boxed.clone();
        assert_eq!(cloned.cwnd(), c.cwnd());
        assert_eq!(cloned.name(), "cubic");
    }
}
