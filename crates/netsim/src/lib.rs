//! # ig-netsim — deterministic fluid TCP simulator for WAN experiments
//!
//! The paper's performance claims (GridFTP parallel streams beating SCP by
//! orders of magnitude on high-bandwidth wide-area networks, §I/§VII) are
//! TCP-dynamics effects that cannot be observed on a loopback device. This
//! crate substitutes the authors' production WAN with a per-RTT fluid
//! model of TCP Reno:
//!
//! * slow start and congestion avoidance (AIMD) per flow;
//! * a shared bottleneck: when aggregate demand exceeds the link's
//!   bandwidth-delay product plus buffer, the overflowing flows take
//!   congestion losses;
//! * independent random packet loss (the WAN-path loss rate that makes
//!   single-stream TCP collapse and parallel streams win);
//! * per-flow **window caps** — this models the documented reason SCP is
//!   slow on WANs (a small fixed channel buffer limits it to
//!   `window / RTT` regardless of link speed);
//! * an optional per-flow **rate cap** modelling a CPU-bound cipher
//!   (SCP's other ceiling, and `PROT P` on the data channel).
//!
//! Everything is seeded and deterministic. Experiments E2, E5 and E6
//! derive their series from this model; EXPERIMENTS.md labels them as
//! simulator-timed (vs. the loopback-measured experiments).

pub mod cc;
pub mod fleet;
pub mod link;
pub mod sim;
pub mod tcp;

pub use cc::{CcAlgo, CongestionControl, Cubic, Reno};
pub use fleet::{DiurnalModel, Endpoint, EndpointClass, Fleet, FleetConfig};
pub use link::{Bottleneck, Route};
pub use sim::{simulate, FlowResult, FlowSpec, SimConfig};
pub use tcp::TcpParams;

/// Convenience: time (seconds) to move `bytes` over `link` with
/// `n_streams` parallel TCP streams splitting the payload evenly.
pub fn parallel_transfer_time<R: rand::Rng + ?Sized>(
    link: &Bottleneck,
    bytes: u64,
    n_streams: usize,
    params: TcpParams,
    rng: &mut R,
) -> f64 {
    assert!(n_streams > 0, "need at least one stream");
    let per = bytes / n_streams as u64;
    let mut rem = bytes - per * n_streams as u64;
    let flows: Vec<FlowSpec> = (0..n_streams)
        .map(|_| {
            let extra = if rem > 0 {
                rem -= 1;
                1
            } else {
                0
            };
            FlowSpec { bytes: per + extra, params }
        })
        .collect();
    let results = simulate(link, &flows, &SimConfig::default(), rng);
    results
        .iter()
        .map(|r| r.duration_s)
        .fold(0.0f64, f64::max)
}

/// Convenience: achieved aggregate throughput in bits per second.
pub fn parallel_throughput_bps<R: rand::Rng + ?Sized>(
    link: &Bottleneck,
    bytes: u64,
    n_streams: usize,
    params: TcpParams,
    rng: &mut R,
) -> f64 {
    let t = parallel_transfer_time(link, bytes, n_streams, params, rng);
    (bytes as f64 * 8.0) / t
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn clean_lan_hits_near_line_rate() {
        // 1 Gbps, 1 ms RTT, no loss: one stream should get most of it.
        let link = Bottleneck::new(1e9, 0.001, 0.0);
        let bps = parallel_throughput_bps(&link, 256 << 20, 1, TcpParams::tuned(), &mut rng());
        assert!(bps > 0.5e9, "got {bps:.2e} bps");
        assert!(bps <= 1.01e9);
    }

    #[test]
    fn parallel_streams_beat_single_on_lossy_wan() {
        // The headline E2 shape: 10 Gbps, 100 ms RTT, 1e-4 loss.
        let link = Bottleneck::new(1e10, 0.1, 1e-4);
        let one = parallel_throughput_bps(&link, 64 << 20, 1, TcpParams::tuned(), &mut rng());
        let sixteen =
            parallel_throughput_bps(&link, 64 << 20, 16, TcpParams::tuned(), &mut rng());
        assert!(
            sixteen > 4.0 * one,
            "16 streams {sixteen:.2e} should be >4x single {one:.2e}"
        );
    }

    #[test]
    fn window_cap_limits_throughput() {
        // The SCP model: 64 KiB window on a 100 ms RTT path caps
        // throughput at ~window/RTT = 5.2 Mbps no matter the link speed.
        let link = Bottleneck::new(1e10, 0.1, 0.0);
        let capped = TcpParams::tuned().with_window_cap(64 * 1024);
        let bps = parallel_throughput_bps(&link, 8 << 20, 1, capped, &mut rng());
        let ceiling = 64.0 * 1024.0 * 8.0 / 0.1;
        assert!(bps <= ceiling * 1.05, "got {bps:.2e}, ceiling {ceiling:.2e}");
        assert!(bps > ceiling * 0.3);
    }

    #[test]
    fn rate_cap_models_cipher_ceiling() {
        let link = Bottleneck::new(1e10, 0.001, 0.0);
        let capped = TcpParams::tuned().with_rate_cap(4e8); // 400 Mbps cipher
        let one = parallel_throughput_bps(&link, 64 << 20, 1, capped, &mut rng());
        assert!(one <= 4.3e8, "got {one:.2e}");
        // The cap is per stream: four capped streams aggregate ~4x.
        let four = parallel_throughput_bps(&link, 64 << 20, 4, capped, &mut rng());
        assert!(four <= 4.0 * 4.3e8, "got {four:.2e}");
        assert!(four > one);
    }

    #[test]
    fn deterministic_given_seed() {
        let link = Bottleneck::new(1e9, 0.05, 1e-4);
        let a = parallel_transfer_time(&link, 32 << 20, 4, TcpParams::tuned(), &mut rng());
        let b = parallel_transfer_time(&link, 32 << 20, 4, TcpParams::tuned(), &mut rng());
        assert_eq!(a, b);
    }

    #[test]
    fn uneven_split_covers_all_bytes() {
        let link = Bottleneck::new(1e9, 0.01, 0.0);
        // 10 bytes over 3 streams: 4+3+3.
        let t = parallel_transfer_time(&link, 10, 3, TcpParams::tuned(), &mut rng());
        assert!(t > 0.0);
    }
}
