//! Property tests for the pluggable congestion controllers: cap safety
//! and CUBIC's TCP-friendliness at low BDP.

use ig_netsim::tcp::FlowState;
use ig_netsim::{parallel_throughput_bps, Bottleneck, CcAlgo, TcpParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn all_algos() -> [CcAlgo; 2] {
    [CcAlgo::Reno, CcAlgo::Cubic]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("IG_PROPTEST_CASES").ok()
            .and_then(|v| v.parse().ok()).unwrap_or(24)
    ))]

    /// Whatever sequence of deliveries and losses a flow sees, no
    /// controller may ever report a window above the channel cap, and the
    /// per-RTT offer may never exceed cap or rate x RTT.
    #[test]
    fn cwnd_never_exceeds_caps(
        cap_kib in 4u64..512,
        rate_mbps in 1.0f64..1000.0,
        rtt_ms in 1.0f64..150.0,
        seed in any::<u64>(),
        algo_idx in 0usize..2,
    ) {
        let algo = all_algos()[algo_idx];
        let params = TcpParams::tuned()
            .with_window_cap(cap_kib * 1024)
            .with_rate_cap(rate_mbps * 1e6)
            .with_cc(algo);
        let cap_segments = (cap_kib as f64 * 1024.0 / params.mss as f64).max(1.0);
        let rtt = rtt_ms / 1e3;
        let mut f = FlowState::new(u64::MAX / 2, params);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            let offer = f.offered_bytes(rtt);
            prop_assert!(offer <= cap_kib as f64 * 1024.0 + 1.0,
                "{}: offer {offer} above window cap", algo.label());
            prop_assert!(offer <= rate_mbps * 1e6 / 8.0 * rtt + 1.0,
                "{}: offer {offer} above rate cap", algo.label());
            // Random delivery fraction and random loss.
            let delivered = offer * rng.gen::<f64>();
            f.on_rtt_delivered(delivered, rtt);
            if rng.gen_bool(0.2) {
                f.on_loss();
            }
            prop_assert!(f.cwnd() <= cap_segments + 1e-9,
                "{}: cwnd {} above cap {}", algo.label(), f.cwnd(), cap_segments);
        }
    }

    /// At low BDP under loss, CUBIC's TCP-friendly region keeps its
    /// goodput within the same ballpark as Reno's — it must not starve
    /// nor crush a competing-Reno-equivalent share.
    #[test]
    fn cubic_is_tcp_friendly_at_low_bdp(
        bw_mbps in 5.0f64..50.0,
        rtt_ms in 5.0f64..30.0,
        seed in any::<u64>(),
    ) {
        // BDP here is 3-190 KB (a handful of segments): deep in CUBIC's
        // TCP-friendly region.
        let link = Bottleneck::new(bw_mbps * 1e6, rtt_ms / 1e3, 1e-3);
        let bytes = 8u64 << 20;
        let mut r1 = StdRng::seed_from_u64(seed);
        let mut r2 = StdRng::seed_from_u64(seed);
        let reno = parallel_throughput_bps(&link, bytes, 1, TcpParams::tuned(), &mut r1);
        let cubic = parallel_throughput_bps(
            &link, bytes, 1, TcpParams::tuned().with_cc(CcAlgo::Cubic), &mut r2);
        let ratio = cubic / reno;
        prop_assert!((0.4..=2.5).contains(&ratio),
            "cubic/reno goodput ratio {ratio:.2} outside TCP-friendly band \
             (cubic {cubic:.2e}, reno {reno:.2e})");
    }

    /// Every controller still delivers every byte: the sim conservation
    /// property holds regardless of algorithm.
    #[test]
    fn all_algos_complete_transfers(
        algo_idx in 0usize..2,
        kib in 64u64..2048,
        seed in any::<u64>(),
    ) {
        let algo = all_algos()[algo_idx];
        let link = Bottleneck::new(1e8, 0.02, 1e-4);
        let mut rng = StdRng::seed_from_u64(seed);
        let bps = parallel_throughput_bps(
            &link, kib * 1024, 2, TcpParams::tuned().with_cc(algo), &mut rng);
        prop_assert!(bps.is_finite() && bps > 0.0, "{}: bogus throughput {bps}", algo.label());
        prop_assert!(bps <= 1e8 * 1.3, "{}: throughput {bps:.2e} beats capacity", algo.label());
    }
}
