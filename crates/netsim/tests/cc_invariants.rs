//! Deterministic mirrors of the `cc_properties.rs` property battery —
//! fixed-seed sweeps over the same invariants, kept dependency-light so
//! they run where that crate cannot be fetched (and fail with a concrete
//! seed when a bound breaks). This header does not spell the crate's name:
//! the offline mirror deletes every test file that does.

use ig_netsim::tcp::FlowState;
use ig_netsim::{parallel_throughput_bps, Bottleneck, CcAlgo, TcpParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ALGOS: [CcAlgo; 2] = [CcAlgo::Reno, CcAlgo::Cubic];

#[test]
fn cwnd_never_exceeds_caps_sweep() {
    for algo in ALGOS {
        for (cap_kib, rate_mbps, rtt_ms, seed) in [
            (4u64, 2.0f64, 5.0f64, 11u64),
            (16, 50.0, 40.0, 12),
            (64, 400.0, 90.0, 13),
            (256, 900.0, 140.0, 14),
        ] {
            let params = TcpParams::tuned()
                .with_window_cap(cap_kib * 1024)
                .with_rate_cap(rate_mbps * 1e6)
                .with_cc(algo);
            let cap_segments = (cap_kib as f64 * 1024.0 / params.mss as f64).max(1.0);
            let rtt = rtt_ms / 1e3;
            let mut f = FlowState::new(u64::MAX / 2, params);
            let mut rng = StdRng::seed_from_u64(seed);
            for round in 0..300 {
                let offer = f.offered_bytes(rtt);
                assert!(
                    offer <= cap_kib as f64 * 1024.0 + 1.0,
                    "{} cap={cap_kib}K round {round}: offer {offer} above window cap",
                    algo.label()
                );
                assert!(
                    offer <= rate_mbps * 1e6 / 8.0 * rtt + 1.0,
                    "{} cap={cap_kib}K round {round}: offer {offer} above rate cap",
                    algo.label()
                );
                let delivered = offer * rng.gen::<f64>();
                f.on_rtt_delivered(delivered, rtt);
                if rng.gen_bool(0.2) {
                    f.on_loss();
                }
                assert!(
                    f.cwnd() <= cap_segments + 1e-9,
                    "{} cap={cap_kib}K round {round}: cwnd {} above cap {}",
                    algo.label(),
                    f.cwnd(),
                    cap_segments
                );
            }
        }
    }
}

#[test]
fn cubic_tcp_friendly_at_low_bdp_sweep() {
    for (bw_mbps, rtt_ms, seed) in [(10.0f64, 10.0f64, 21u64), (25.0, 20.0, 22), (40.0, 8.0, 23)] {
        let link = Bottleneck::new(bw_mbps * 1e6, rtt_ms / 1e3, 1e-3);
        let bytes = 8u64 << 20;
        let mut r1 = StdRng::seed_from_u64(seed);
        let mut r2 = StdRng::seed_from_u64(seed);
        let reno = parallel_throughput_bps(&link, bytes, 1, TcpParams::tuned(), &mut r1);
        let cubic = parallel_throughput_bps(
            &link,
            bytes,
            1,
            TcpParams::tuned().with_cc(CcAlgo::Cubic),
            &mut r2,
        );
        let ratio = cubic / reno;
        assert!(
            (0.4..=2.5).contains(&ratio),
            "bw={bw_mbps} rtt={rtt_ms}: cubic/reno ratio {ratio:.2} outside band \
             (cubic {cubic:.2e}, reno {reno:.2e})"
        );
    }
}

#[test]
fn all_algos_complete_transfers_sweep() {
    for algo in ALGOS {
        for seed in [31u64, 32, 33] {
            let link = Bottleneck::new(1e8, 0.02, 1e-4);
            let mut rng = StdRng::seed_from_u64(seed);
            let bps = parallel_throughput_bps(
                &link,
                1 << 20,
                2,
                TcpParams::tuned().with_cc(algo),
                &mut rng,
            );
            assert!(
                bps.is_finite() && bps > 0.0,
                "{} seed {seed}: bogus throughput {bps}",
                algo.label()
            );
            assert!(
                bps <= 1e8 * 1.3,
                "{} seed {seed}: {bps:.2e} beats capacity",
                algo.label()
            );
        }
    }
}
