//! `dtp::send_slices`, the sender for bytes the caller already holds (a
//! client's upload, a listing), against a plain statement of what it must
//! put on the wire: the missing ranges cut into blocks in order, block *k*
//! on stream *k mod n*, the EOF count once on stream 0, one EOD ending every
//! stream — for every size around a block boundary, 1 to 3 streams, and a
//! receiver that holds nothing, everything, or all but two holes. The
//! cases are enumerated, not generated, so it needs no registry crate and
//! also runs offline.

use ig_protocol::mode_e::BlockView;
use ig_protocol::ByteRanges;
use ig_server::dtp::{send_slices, Progress, Receiver, Streams};
use ig_server::{Dsi, MemDsi, ServerError, UserContext};
use ig_xio::{pipe, Link, PipeLink};
use std::sync::Arc;
use std::time::Duration;

type Ended = Result<(u64, Streams), ServerError>;

/// `n` in-process pipes: the sender's ends as its streams, and the peers.
fn pipes(n: usize) -> (Streams, Vec<PipeLink>) {
    (0..n)
        .map(|_| {
            let (a, b) = pipe();
            (Box::new(a) as Box<dyn Link>, b)
        })
        .unzip()
}

/// What one `send_slices` call put on each of `n` pipes, and how it
/// ended: per stream, every frame in order.
fn slices_on_the_wire(
    data: &[u8],
    ranges: &[(u64, u64)],
    n: usize,
    block: usize,
) -> (Ended, Vec<Vec<Vec<u8>>>) {
    let (sending, mut receiving) = pipes(n);
    // Few enough frames that every pipe holds its stream's share.
    let ended = send_slices(sending, data, ranges, block, &Progress::new());
    let frames = receiving
        .iter_mut()
        .map(|link| {
            link.set_recv_timeout(Some(Duration::from_millis(1))).unwrap();
            std::iter::from_fn(|| link.recv().ok()).collect()
        })
        .collect();
    (ended, frames)
}

#[test]
fn slices_differential_block_k_rides_stream_k_mod_n() {
    const BLOCK: usize = 64;
    for size in [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7] {
        let data: Vec<u8> = (0..size).map(|i| (i * 31 % 251) as u8).collect();
        let len = size as u64;
        let mut two_holes = ByteRanges::new();
        two_holes.add(0, len / 5);
        two_holes.add(2 * len / 5, 3 * len / 5);
        two_holes.add(4 * len / 5, len);
        let mut everything = ByteRanges::new();
        everything.add(0, len);
        for have in [ByteRanges::new(), two_holes, everything] {
            let missing = have.missing(len);
            // The reference: the missing ranges cut into blocks, in order.
            let mut expected = Vec::new();
            for &(start, end) in &missing {
                let mut at = start;
                while at < end {
                    let to = end.min(at + BLOCK as u64);
                    expected.push((at, to));
                    at = to;
                }
            }
            for n in [1usize, 2, 3] {
                let case = format!("size {size}, have {}, {n} streams", have.to_marker());
                let (ended, frames) = slices_on_the_wire(&data, &missing, n, BLOCK);
                let (sent, kept) = ended.expect(&case);
                assert_eq!(sent, len - have.total(), "{case}: only the complement moves");
                assert_eq!(kept.len(), n, "{case}");
                // Replay what was sent into a receiver that holds `have`.
                let dst = MemDsi::new();
                let mut held = vec![0u8; size];
                for &(s, e) in have.ranges() {
                    held[s as usize..e as usize].copy_from_slice(&data[s as usize..e as usize]);
                }
                dst.put("/dst", &held);
                let dst: Arc<dyn Dsi> = Arc::new(dst);
                let progress = Progress::new();
                *progress.ranges.lock() = have.clone();
                let receiver =
                    Receiver::new(Arc::clone(&dst), UserContext::superuser(), "/dst", progress);
                for (i, stream) in frames.iter().enumerate() {
                    let views: Vec<_> =
                        stream.iter().map(|f| BlockView::parse(f).expect(&case)).collect();
                    let counts = views.iter().filter(|b| b.is_eof_count()).count();
                    assert_eq!(counts, usize::from(i == 0), "{case}: EOF count on stream {i}");
                    if i == 0 {
                        assert!(views[0].is_eof_count() && views[0].offset == n as u64, "{case}");
                    }
                    let eods = views.iter().filter(|b| b.is_eod()).count();
                    assert_eq!(eods, 1, "{case}: EODs on stream {i}");
                    assert!(views.last().unwrap().is_eod(), "{case}: stream {i} ends with its EOD");
                    let blocks: Vec<_> = views
                        .iter()
                        .filter(|b| !b.payload.is_empty())
                        .map(|b| (b.offset, b.offset + b.payload.len() as u64))
                        .collect();
                    let share: Vec<_> = expected.iter().skip(i).step_by(n).copied().collect();
                    assert_eq!(blocks, share, "{case}: blocks on stream {i}");
                    let (mut replay, peer) = pipe();
                    receiver.add_stream(Box::new(peer)).unwrap();
                    for frame in stream {
                        replay.send(frame).unwrap();
                    }
                }
                let (received, _) = receiver.finish().expect(&case);
                assert_eq!(received, sent, "{case}");
                let user = UserContext::superuser();
                assert_eq!(ig_server::dsi::read_all(dst.as_ref(), &user, "/dst", 1 << 16).unwrap(), data);
            }
        }
    }
}

#[test]
fn slices_are_whole_blocks_whatever_the_block_size_and_ranges_are_clamped() {
    // 1000 does not divide 64 KiB: a sender reading 64 KiB chunks cut a
    // 536-byte block at every chunk end. A range past the end is clamped.
    let data = vec![9u8; 70_500];
    let (ended, frames) = slices_on_the_wire(&data, &[(0, 80_000), (90_000, 95_000)], 2, 1000);
    assert_eq!(ended.unwrap().0, 70_500);
    let mut sizes: Vec<usize> = frames
        .iter()
        .flatten()
        .map(|f| BlockView::parse(f).unwrap().payload.len())
        .filter(|&len| len > 0)
        .collect();
    sizes.sort_unstable();
    assert_eq!(sizes.remove(0), 500, "the file's tail");
    assert_eq!(sizes, vec![1000; 70]);
}

#[test]
fn one_failed_stream_stops_and_closes_them_all() {
    for n in [1usize, 2, 3] {
        let (sending, mut receiving) = pipes(n);
        // The last stream's peer is gone; the others read to the end.
        drop(receiving.pop());
        let readers: Vec<_> = receiving
            .into_iter()
            .map(|mut open| {
                std::thread::spawn(move || -> Vec<Vec<u8>> {
                    std::iter::from_fn(|| open.recv().ok()).collect()
                })
            })
            .collect();
        let data = vec![1u8; 1 << 20];
        let err = send_slices(sending, &data, &[(0, data.len() as u64)], 64, &Progress::new())
            .err()
            .unwrap();
        assert!(matches!(err, ServerError::Data(_)), "{n} streams: {err}");
        assert!(err.to_string().contains("send "), "{n} streams: the stream's own error: {err}");
        // Joining proves every surviving stream was closed; none was
        // carried on to its EOD.
        for reader in readers {
            let frames = reader.join().unwrap();
            let eods = frames.iter().filter(|f| BlockView::parse(f).unwrap().is_eod()).count();
            assert_eq!(eods, 0, "{n} streams: stopped at the failure");
        }
    }
}
