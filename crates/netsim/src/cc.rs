//! Pluggable congestion control.
//!
//! The fluid simulator (`sim.rs`) drives a sender window through this
//! trait. The contract is RTT-granular, mirroring the simulator's tick:
//! the caller reports one round-trip's worth of delivery at a time, and
//! the controller answers with a window (in segments) and an optional
//! pacing rate. A real-time caller would synthesize the same signal from
//! ack arrivals: accumulate acked bytes, and once per measured RTT call
//! [`CongestionControl::on_rtt_delivered`].
//!
//! `Reno` is the pre-existing model extracted verbatim — `tcp.rs` keeps
//! producing bit-identical trajectories through it (pinned by
//! `tests/golden_reno.rs`). `Cubic` and `BbrLite` are new.

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
    /// BBR-style model-based control: bandwidth/RTT probes, pacing-gain
    /// cycling, loss-agnostic.
    Bbr,
}

impl CcAlgo {
    /// Instantiate the controller with `init_cwnd` segments.
    pub fn build(self, init_cwnd: f64) -> Box<dyn CongestionControl> {
        match self {
            CcAlgo::Reno => Box::new(Reno::new(init_cwnd)),
            CcAlgo::Cubic => Box::new(Cubic::new(init_cwnd)),
            CcAlgo::Bbr => Box::new(BbrLite::new(init_cwnd)),
        }
    }

    /// Wire/report label.
    pub fn label(self) -> &'static str {
        match self {
            CcAlgo::Reno => "reno",
            CcAlgo::Cubic => "cubic",
            CcAlgo::Bbr => "bbr",
        }
    }

    /// Parse a wire/report label (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "reno" => Some(CcAlgo::Reno),
            "cubic" => Some(CcAlgo::Cubic),
            "bbr" => Some(CcAlgo::Bbr),
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

    /// Pacing rate in bits/s if this controller paces (BBR), else `None`
    /// (pure window-limited senders).
    fn pacing_bps(&self, mss: u32) -> Option<f64>;

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

    fn pacing_bps(&self, _mss: u32) -> Option<f64> {
        None
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

    fn pacing_bps(&self, _mss: u32) -> Option<f64> {
        None
    }

    fn name(&self) -> &'static str {
        "cubic"
    }

    fn clone_box(&self) -> Box<dyn CongestionControl> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------
// BBR
// ---------------------------------------------------------------------

/// BBR's startup/drain pacing gain (2/ln 2).
pub const BBR_STARTUP_GAIN: f64 = 2.885;
/// cwnd gain over the estimated BDP outside startup.
pub const BBR_CWND_GAIN: f64 = 2.0;
/// ProbeBW pacing-gain cycle: one probe up, one drain, six cruise.
pub const BBR_CYCLE: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
/// Bottleneck-bandwidth max-filter window, in rounds (~10 RTTs).
pub const BBR_BW_FILTER_ROUNDS: usize = 10;
/// Minimum window in segments.
pub const BBR_MIN_CWND: f64 = 4.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BbrMode {
    Startup,
    Drain,
    ProbeBw,
}

/// BBR-flavored model-based controller at RTT granularity: estimates the
/// bottleneck bandwidth with a windowed max filter over per-round
/// delivery-rate samples and the propagation delay with a running min,
/// then paces at `gain × btlbw` while capping inflight at
/// `cwnd_gain × BDP`. Deliberately loss-agnostic ([`Self::on_loss`] is a
/// no-op): random path loss does not halve the window, which is exactly
/// why a single BBR-paced flow beats N Reno streams once loss × BDP is
/// high enough.
#[derive(Debug, Clone)]
pub struct BbrLite {
    cwnd: f64,
    /// Delivery-rate samples, segments/s, circular.
    samples: [f64; BBR_BW_FILTER_ROUNDS],
    sample_idx: usize,
    samples_filled: usize,
    /// Max-filter output, segments/s.
    btlbw_sps: f64,
    /// Running min RTT, seconds.
    rtprop_s: f64,
    mode: BbrMode,
    cycle_idx: usize,
    /// Startup full-pipe detection: last btlbw high-water mark and the
    /// number of consecutive rounds without 25% growth.
    full_bw_sps: f64,
    full_bw_rounds: u32,
}

impl BbrLite {
    /// Fresh controller with `init_cwnd` segments.
    pub fn new(init_cwnd: f64) -> Self {
        BbrLite {
            cwnd: init_cwnd.max(BBR_MIN_CWND),
            samples: [0.0; BBR_BW_FILTER_ROUNDS],
            sample_idx: 0,
            samples_filled: 0,
            btlbw_sps: 0.0,
            rtprop_s: f64::INFINITY,
            mode: BbrMode::Startup,
            cycle_idx: 0,
            full_bw_sps: 0.0,
            full_bw_rounds: 0,
        }
    }

    /// Estimated bottleneck bandwidth in segments/s (0 until sampled).
    pub fn btlbw_sps(&self) -> f64 {
        self.btlbw_sps
    }

    /// Current pacing gain for the mode/cycle position.
    pub fn pacing_gain(&self) -> f64 {
        match self.mode {
            BbrMode::Startup => BBR_STARTUP_GAIN,
            BbrMode::Drain => 1.0 / BBR_STARTUP_GAIN,
            BbrMode::ProbeBw => BBR_CYCLE[self.cycle_idx],
        }
    }

    /// Estimated BDP in segments (0 until both estimators have samples).
    fn bdp_segments(&self) -> f64 {
        if self.rtprop_s.is_finite() {
            self.btlbw_sps * self.rtprop_s
        } else {
            0.0
        }
    }
}

impl CongestionControl for BbrLite {
    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn on_rtt_delivered(&mut self, delivered_segments: f64, rtt_s: f64, cap_segments: f64) {
        if rtt_s > 0.0 {
            self.rtprop_s = self.rtprop_s.min(rtt_s);
            if delivered_segments > 0.0 {
                self.samples[self.sample_idx] = delivered_segments / rtt_s;
                self.sample_idx = (self.sample_idx + 1) % BBR_BW_FILTER_ROUNDS;
                self.samples_filled = (self.samples_filled + 1).min(BBR_BW_FILTER_ROUNDS);
                self.btlbw_sps = self.samples[..self.samples_filled]
                    .iter()
                    .copied()
                    .fold(0.0, f64::max);
            }
        }
        match self.mode {
            BbrMode::Startup => {
                // Exponential growth while filling the pipe; leave once the
                // bandwidth estimate stops growing 25% for three rounds.
                if self.btlbw_sps > self.full_bw_sps * 1.25 || self.full_bw_sps == 0.0 {
                    self.full_bw_sps = self.btlbw_sps;
                    self.full_bw_rounds = 0;
                } else {
                    self.full_bw_rounds += 1;
                }
                self.cwnd *= 2.0;
                if self.full_bw_rounds >= 3 && self.samples_filled >= 3 {
                    self.mode = BbrMode::Drain;
                }
            }
            BbrMode::Drain => {
                // One round paced below the estimate to empty the startup
                // queue, then settle into the probe cycle.
                self.cwnd = (BBR_CWND_GAIN * self.bdp_segments()).max(BBR_MIN_CWND);
                self.mode = BbrMode::ProbeBw;
                self.cycle_idx = 0;
            }
            BbrMode::ProbeBw => {
                self.cwnd = (BBR_CWND_GAIN * self.bdp_segments()).max(BBR_MIN_CWND);
                self.cycle_idx = (self.cycle_idx + 1) % BBR_CYCLE.len();
            }
        }
        if self.cwnd > cap_segments {
            self.cwnd = cap_segments;
        }
    }

    fn on_loss(&mut self) {
        // Model-based, not loss-based: path loss is noise, not a signal.
    }

    fn pacing_bps(&self, mss: u32) -> Option<f64> {
        if self.btlbw_sps > 0.0 {
            Some(self.pacing_gain() * self.btlbw_sps * mss as f64 * 8.0)
        } else {
            None
        }
    }

    fn name(&self) -> &'static str {
        "bbr"
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
        for algo in [CcAlgo::Reno, CcAlgo::Cubic, CcAlgo::Bbr] {
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
    fn bbr_converges_to_bottleneck_estimate() {
        let mut b = BbrLite::new(10.0);
        let rtt = 0.02;
        let bottleneck_sps = 5000.0; // segments/s the "link" can carry
        for _ in 0..100 {
            let deliverable = (b.cwnd() / rtt).min(bottleneck_sps);
            b.on_rtt_delivered(deliverable * rtt, rtt, f64::INFINITY);
        }
        let est = b.btlbw_sps();
        assert!(
            (est - bottleneck_sps).abs() / bottleneck_sps < 0.05,
            "btlbw estimate {est} far from {bottleneck_sps}"
        );
        // Steady state: probe_bw, cwnd ≈ 2 x BDP.
        let bdp = bottleneck_sps * rtt;
        assert!(b.cwnd() <= BBR_CWND_GAIN * bdp * 1.3 + BBR_MIN_CWND);
        assert!(b.cwnd() >= bdp * 0.5);
    }

    #[test]
    fn bbr_ignores_loss() {
        let mut b = BbrLite::new(10.0);
        let rtt = 0.02;
        for _ in 0..50 {
            let deliverable = (b.cwnd() / rtt).min(4000.0);
            b.on_rtt_delivered(deliverable * rtt, rtt, f64::INFINITY);
        }
        let before = b.cwnd();
        b.on_loss();
        assert_eq!(b.cwnd(), before, "BBR must not react to a loss event");
    }

    #[test]
    fn bbr_pacing_cycles_through_gains() {
        let mut b = BbrLite::new(10.0);
        let rtt = 0.02;
        let mut gains = std::collections::BTreeSet::new();
        for _ in 0..100 {
            let deliverable = (b.cwnd() / rtt).min(4000.0);
            b.on_rtt_delivered(deliverable * rtt, rtt, f64::INFINITY);
            let g = b.pacing_gain();
            gains.insert((g * 1000.0) as i64);
        }
        // Startup, probe-up, drain-down and cruise must all have occurred.
        assert!(gains.contains(&2885), "startup gain never seen: {gains:?}");
        assert!(gains.contains(&1250), "probe gain never seen: {gains:?}");
        assert!(gains.contains(&750), "drain gain never seen: {gains:?}");
        assert!(gains.contains(&1000), "cruise gain never seen: {gains:?}");
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
