//! Property tests for the XIO driver stack: message integrity and
//! ordering through arbitrary driver compositions.

use ig_obs::Obs;
use ig_xio::{pipe, Link, ObsLink, Throttle};
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pipe_preserves_messages_in_order(
        msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..200), 0..20),
    ) {
        let (mut a, mut b) = pipe();
        let sent = msgs.clone();
        let writer = std::thread::spawn(move || {
            for m in &sent {
                a.send(m).unwrap();
            }
            a.close().unwrap();
        });
        let mut got = Vec::new();
        while let Ok(m) = b.recv() {
            got.push(m);
        }
        writer.join().unwrap();
        prop_assert_eq!(got, msgs);
    }

    #[test]
    fn meter_counts_exactly(
        msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..100), 1..15),
    ) {
        let (a, mut b) = pipe();
        let obs = Obs::new("xio-prop");
        let mut t = ObsLink::new(a, Arc::clone(&obs), "link");
        let total: u64 = msgs.iter().map(|m| m.len() as u64).sum();
        let reader = std::thread::spawn(move || {
            let mut n = 0u64;
            while let Ok(m) = b.recv() {
                n += m.len() as u64;
            }
            n
        });
        for m in &msgs {
            t.send(m).unwrap();
        }
        t.close().unwrap();
        prop_assert_eq!(reader.join().unwrap(), total);
        prop_assert_eq!(obs.metrics().counter_value("link.bytes_sent"), total);
        prop_assert_eq!(obs.metrics().histogram("link.send_ns").count(), msgs.len() as u64);
    }

    #[test]
    fn throttle_preserves_content(
        msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..300), 1..8),
    ) {
        // A generous rate so the test is fast; content must be untouched.
        let (a, mut b) = pipe();
        let mut t = Throttle::new(a, 50e6, 1e6);
        let sent = msgs.clone();
        let writer = std::thread::spawn(move || {
            for m in &sent {
                t.send(m).unwrap();
            }
            t.close().unwrap();
        });
        let mut got = Vec::new();
        while let Ok(m) = b.recv() {
            got.push(m);
        }
        writer.join().unwrap();
        prop_assert_eq!(got, msgs);
    }

    #[test]
    fn stacked_drivers_compose(
        msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..150), 1..10),
    ) {
        // Meter over throttle over pipe — arbitrary stacking is the
        // whole point of the XIO model.
        let (a, mut b) = pipe();
        let obs = Obs::new("xio-prop");
        let mut stack = ObsLink::new(Throttle::new(a, 100e6, 1e6), Arc::clone(&obs), "link");
        let sent = msgs.clone();
        let writer = std::thread::spawn(move || {
            for m in &sent {
                stack.send(m).unwrap();
            }
            stack.close().unwrap();
        });
        let mut got = Vec::new();
        while let Ok(m) = b.recv() {
            got.push(m);
        }
        writer.join().unwrap();
        prop_assert_eq!(&got, &msgs);
        prop_assert_eq!(
            obs.metrics().histogram("link.send_ns").count(),
            msgs.len() as u64
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `FrameBuf` decode is invariant under how the byte stream is cut
    /// into read chunks — the property the reactor core's partial-read
    /// path stands on (`nb.rs` holds the exhaustive single-cut case).
    #[test]
    fn framebuf_decode_is_chunking_invariant(
        frames in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..200), 0..8),
        cuts in proptest::collection::vec(any::<prop::sample::Index>(), 0..12),
    ) {
        use ig_xio::FrameBuf;
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&FrameBuf::encode(f));
        }
        let mut points: Vec<usize> = cuts.iter().map(|i| i.index(wire.len() + 1)).collect();
        points.push(0);
        points.push(wire.len());
        points.sort_unstable();
        points.dedup();

        let mut fb = FrameBuf::new();
        let mut got = Vec::new();
        for w in points.windows(2) {
            fb.push(&wire[w[0]..w[1]]);
            while let Some(f) = fb.next_frame().unwrap() {
                got.push(f);
            }
        }
        prop_assert_eq!(got, frames);
        prop_assert_eq!(fb.pending(), 0);
    }
}
