//! E4 — the lots-of-small-files optimizations (§II-A, §VII): session
//! reuse with **data-channel caching**, concurrency, control-channel
//! **command pipelining** (`PIPE` windows of `RETR`s on the cached
//! channel), and **streamed directory transfer** (`ERET DIR`: the whole
//! tree as one MODE E transfer).
//!
//! Measured: N 4 KiB files fetched
//! (a) the naive way — one fresh authenticated session per file (what a
//!     scripted `scp`/one-shot client does: full handshake per file, and
//!     a data channel that serves one file),
//! (b) one session, per-file round-trips — reuse amortizes the login and,
//!     since the session's authenticated data channel outlives each
//!     transfer, the connect and the DCAU handshake too: what is left per
//!     file is one `RETR` turn (its 150 carries the length) and one MODE E
//!     transfer, sent and received on threads that already exist,
//! (c) concurrent — k sessions splitting the batch, a channel each,
//! (d) one session with a `PIPE` window — the same channel, the same one
//!     command per file; what the window adds is that the server sends
//!     file k+1 while the client reads file k,
//! (e) streamed dir — one `ERET DIR` moves the tree as one transfer: no
//!     per-file commands, replies or markers at all, but a SHA-256 of
//!     every file on each end, a staging copy and an expansion pass.
//!
//! The naive row costs a login per file, thirty times any other row, so
//! `--fast` trims only it (60 files); the rows whose ratios the ladder
//! asserts always move the whole 200-file tree.

use crate::experiments::common::{endpoint, session, stage, timed};
use crate::table;
use ig_client::{transfer, ClientSession, TransferOpts};
use ig_server::{Dsi, MemDsi};
use std::sync::Arc;

/// One measured point.
pub struct Row {
    /// Strategy label.
    pub strategy: String,
    /// Files moved.
    pub files: usize,
    /// Seconds.
    pub secs: f64,
    /// Files per second.
    pub files_per_sec: f64,
}

/// Seconds of the fastest of three passes of `pass` (its argument numbers
/// them). Rows (b)-(e) last 20-150 ms on a host whose scheduler moves a
/// single such pass by half as much again; each pass logs in afresh,
/// outside its clock, so all three do the same work.
fn best_pass(pass: impl FnMut(u64) -> f64) -> f64 {
    (0..3).map(pass).fold(f64::INFINITY, f64::min)
}

/// Run the measurement.
pub fn run(fast: bool) -> Vec<Row> {
    let files = 200;
    let naive_files = if fast { 60 } else { files };
    let size = 4 * 1024;
    let ep = endpoint("e4-small.example.org", 0xE4);
    // Ten subdirectories so the streamed-dir strategy exercises real
    // tree structure, not a flat listing.
    for i in 0..files {
        stage(&ep, &format!("small/d{}/f{i}.bin", i % 10), size);
    }
    let path_of = |i: usize| format!("/home/alice/small/d{}/f{i}.bin", i % 10);
    let mut rows = Vec::new();
    let mut push = |strategy: &str, files: usize, secs: f64| {
        rows.push(Row {
            strategy: strategy.into(),
            files,
            secs,
            files_per_sec: files as f64 / secs,
        });
    };

    // (a) fresh session per file — pays login (5-token handshake +
    // delegation) and a data channel of its own every time.
    let (_, secs) = timed(|| {
        for i in 0..naive_files {
            let mut s = session(&ep, 0xE4_100 + i as u64 * 3);
            let d = transfer::get_bytes(&mut s, &path_of(i), &TransferOpts::default())
                .expect("get");
            assert_eq!(d.len(), size);
            let _ = s.quit();
        }
    });
    push("session per file (naive)", naive_files, secs);

    // (b) one session reused, and with it the data channel the first
    // file authenticated: one RETR per file. The baseline the other
    // rows are quoted against.
    let secs = best_pass(|pass| {
        let mut s = session(&ep, 0xE4_500 + pass);
        let (_, secs) = timed(|| {
            for i in 0..files {
                let d = transfer::get_bytes(&mut s, &path_of(i), &TransferOpts::default())
                    .expect("get");
                assert_eq!(d.len(), size);
            }
        });
        let _ = s.quit();
        secs
    });
    push("one session, per-file", files, secs);

    // (c) concurrency 4: four sessions splitting the batch, logged in
    // before the clock starts as in (b) — (a) is the row that prices a
    // login, and four of them outweigh fifty sub-millisecond files per
    // session.
    let conc = 4usize;
    let secs = best_pass(|pass| {
        let mut sessions: Vec<ClientSession> =
            (0..conc).map(|c| session(&ep, 0xE4_901 + pass * 16 + c as u64 * 3)).collect();
        let (_, secs) = timed(|| {
            std::thread::scope(|scope| {
                for (c, s) in sessions.iter_mut().enumerate() {
                    let paths = (c..files).step_by(conc).map(path_of);
                    scope.spawn(move || {
                        for p in paths {
                            let d =
                                transfer::get_bytes(s, &p, &TransferOpts::default()).expect("get");
                            assert_eq!(d.len(), size);
                        }
                    });
                }
            });
        });
        for s in sessions {
            let _ = s.quit();
        }
        secs
    });
    push(&format!("concurrency {conc}"), files, secs);

    // (d) one session, PIPE window 8: windows of RETRs go out before any
    // reply is read, and every file rides the one cached channel.
    let paths: Vec<String> = (0..files).map(path_of).collect();
    let refs: Vec<&str> = paths.iter().map(String::as_str).collect();
    let secs = best_pass(|pass| {
        let mut s = session(&ep, 0xE4_950 + pass);
        let (got, secs) = timed(|| {
            transfer::get_files_pipelined(&mut s, &refs, 8, &TransferOpts::default())
                .expect("pipelined get")
        });
        let _ = s.quit();
        assert_eq!(got.len(), files);
        assert!(got.iter().all(|d| d.len() == size));
        secs
    });
    push("one session, PIPE window 8", files, secs);

    // (e) streamed dir: the whole tree as ONE transfer.
    let secs = best_pass(|pass| {
        let mut s = session(&ep, 0xE4_990 + pass);
        let local: Arc<dyn Dsi> = Arc::new(MemDsi::new());
        let (out, secs) = timed(|| {
            transfer::get_dir(&mut s, &local, "/dl", "/home/alice/small", &TransferOpts::default())
                .expect("get_dir")
        });
        let _ = s.quit();
        assert!(out.complete, "streamed dir must complete: {out:?}");
        assert_eq!(out.entries_done as usize, files + 10, "files + 10 subdirs");
        secs
    });
    push("streamed dir (ERET DIR)", files, secs);

    ep.shutdown();
    rows
}

/// Render the table.
pub fn table(fast: bool) -> String {
    let rows = run(fast);
    let mut t = vec![vec![
        "strategy".to_string(),
        "files".to_string(),
        "seconds".to_string(),
        "files/s".to_string(),
        "speedup".to_string(),
    ]];
    let base = rows[0].files_per_sec;
    for r in &rows {
        t.push(vec![
            r.strategy.clone(),
            r.files.to_string(),
            format!("{:.3}", r.secs),
            format!("{:.1}", r.files_per_sec),
            format!("{:.1}x", r.files_per_sec / base),
        ]);
    }
    format!(
        "{}(4 KiB files; naive = full GSI login and a data channel per file; one\n session = one cached, DCAU-authenticated MODE E channel for every file;\n streamed dir = the whole tree as one transfer on it)\n",
        table::render(&t)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Floors re-derived from EXPERIMENTS.md E4 for a per-file GET that is
    /// one command and starts no thread (PR 19: the per-file row itself is
    /// 3.1x what it was, PIPE 2.2x, streamed dir unmoved). Lowest ratio over
    /// eight runs on two CPUs / eight pinned to one: concurrency 1.47 /
    /// 0.68x per-file, PIPE 1.02 / 0.97x, streamed dir 1.34 / 0.87x; and
    /// per-file 38.9 / 77.3x naive since PR 24, whose Montgomery RSA took
    /// the naive row's login from ~27 ms to ~8 (it was 160 / 260x). Each
    /// floor is well under the lower of its two. A window no longer saves a `SIZE` turn, so all it has to win is
    /// overlap, which one CPU does not have: it must not lose. A streamed
    /// dir no longer beats per-file GETs in files/s on loopback — the
    /// commands it saves now cost less than the checksums it adds — so its
    /// rung says it stays in the same league; what it saves is round trips,
    /// which loopback does not charge for. Every row is CPU-bound, so the
    /// ratios move with the host's load: a round that misses is re-measured,
    /// up to three times.
    #[test]
    fn reuse_concurrency_and_streaming_beat_naive() {
        let _serial = crate::experiments::common::bench_lock();
        ig_xio::test_support::retry_measurement(3, "E4 ladder", || {
            let rows = run(true);
            assert_eq!(rows.len(), 5);
            let naive = rows[0].files_per_sec;
            let per_file = rows[1].files_per_sec;
            let concurrent = rows[2].files_per_sec;
            let piped = rows[3].files_per_sec;
            let dir = rows[4].files_per_sec;
            let check = |ok: bool, what: String| if ok { Ok(()) } else { Err(what) };
            // Reuse recovers the login and, with the cached channel, the
            // per-file connect and DCAU handshake: nearly all of a naive file.
            check(per_file > 15.0 * naive, format!("per-file {per_file:.1} vs naive {naive:.1}"))?;
            // With nothing left to overlap but CPU work, concurrency gains
            // what the host has cores for; on one core four sessions pay for
            // their context switches and must otherwise roughly hold.
            check(
                concurrent > per_file * 0.4,
                format!("concurrency {concurrent:.1} vs per-file {per_file:.1}"),
            )?;
            // Pipelining rides the same channel with the same commands and
            // lets the server send the next file while the client reads this.
            check(
                piped >= 0.9 * per_file,
                format!("piped {piped:.1} vs per-file {per_file:.1}"),
            )?;
            // One transfer for the whole tree trades the per-file commands
            // for per-file checksums.
            check(
                dir >= 0.75 * per_file,
                format!("streamed dir {dir:.1} files/s must be >= 0.75x per-file {per_file:.1} files/s"),
            )
        });
    }
}
