//! The Data Transfer Process: MODE E senders and receivers.
//!
//! A sender's blocks leave from the thread that feeds it when there is one
//! stream — there is nothing to fan out, so there is no queue and no worker
//! — and round-robin over one worker per stream, each behind a bounded
//! queue (so a slow stream backpressures the reader), when there are more.
//! Bytes the caller already holds ([`send_slices`]: an upload, a listing)
//! need no feeder and no queue: each stream's worker takes its blocks out
//! of the borrowed slice itself.
//! The receiver likewise runs a transfer's only stream on the caller that
//! asks it to ([`Receiver::receive_here`]) and otherwise one thread per
//! connection, all writing through the DSI at block offsets — order never
//! matters. This is the §II-B DTP, separated from the protocol interpreter
//! exactly as in Fig 2.
//!
//! An EOD ends the transfer on a stream, not the stream: senders and the
//! receiver hand every stream that carried its EOD back to the caller, in
//! the order they were given, and the caller decides whether it is kept
//! for the next transfer ([`crate::data::CachedChannels`]) or closed. Only
//! a transfer that failed closes here.

use crate::dsi::Dsi;
use crate::error::{Result, ServerError};
use crate::users::UserContext;
use ig_obs::sync::Mutex;
use ig_protocol::mode_e::{self, Block, BlockView};
use ig_protocol::ByteRanges;
use ig_xio::{Link, WakeFd};
use std::io::IoSlice;
use std::os::unix::io::RawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One queued piece of work for a stream worker: `(file_offset, chunk,
/// start, end)` — the block payload is `chunk[start..end]`. The read
/// chunk is shared by reference, so fanning one DSI read out into many
/// blocks allocates nothing per block; workers frame each block as a
/// vectored header + payload-slice send.
type BlockPiece = (u64, Arc<[u8]>, usize, usize);

/// The sending half of one stream's bounded queue of pieces.
type BlockQueue = std::sync::mpsc::SyncSender<BlockPiece>;

/// Shared live progress of a transfer (polled for markers).
#[derive(Default)]
pub struct Progress {
    /// Payload bytes moved so far.
    pub bytes: AtomicU64,
    /// Completed byte ranges (receiver side).
    pub ranges: Mutex<ByteRanges>,
    /// The hub of the endpoint the transfer runs at, for
    /// `server.dtp.threads_spawned`.
    obs: Option<Arc<ig_obs::Obs>>,
}

impl Progress {
    /// Fresh shared progress.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Fresh shared progress of a transfer that counts the threads its DTP
    /// spawns as `server.dtp.threads_spawned` on `obs`.
    pub fn on(obs: &Arc<ig_obs::Obs>) -> Arc<Self> {
        Arc::new(Progress { obs: Some(Arc::clone(obs)), ..Self::default() })
    }

    /// Bytes so far.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Snapshot of completed ranges.
    pub fn ranges_snapshot(&self) -> ByteRanges {
        self.ranges.lock().clone()
    }
}

/// A transfer's data streams, in opening order.
pub type Streams = Vec<Box<dyn Link>>;

/// What a sender calls between blocks, on the thread that feeds it: the
/// session's chance to report progress. An `Err` ends the transfer.
pub type BetweenBlocks<'a> = &'a mut dyn FnMut() -> Result<()>;

/// Close streams that will not be used again.
pub fn close_streams(streams: Streams) {
    for mut stream in streams {
        let _ = stream.close();
    }
}

/// Every thread the DTP makes passes through here, counted on the
/// transfer's hub. A refused spawn (thread exhaustion) is a typed
/// [`ServerError::Spawn`].
fn counted<H>(name: &str, progress: &Progress, spawned: std::io::Result<H>) -> Result<H> {
    let worker = spawned.map_err(|e| ServerError::Spawn(format!("{name}: {e}")))?;
    if let Some(obs) = &progress.obs {
        obs.metrics().add("server.dtp.threads_spawned", 1);
    }
    Ok(worker)
}

fn spawn_worker<T: Send + 'static>(
    name: String,
    progress: &Progress,
    work: impl FnOnce() -> T + Send + 'static,
) -> Result<std::thread::JoinHandle<T>> {
    counted(&name, progress, std::thread::Builder::new().name(name.clone()).spawn(work))
}

fn send_failed(what: &str) -> impl FnOnce(std::io::Error) -> ServerError + '_ {
    move |e| ServerError::Data(format!("send {what}: {e}"))
}

/// A stream worker's end: its stream back once the EOD is on it.
type StreamWorker = std::thread::JoinHandle<Result<Box<dyn Link>>>;

/// Where a sender's blocks go.
enum Lanes {
    /// The only stream: blocks are framed and sent by the feeding thread,
    /// straight out of the chunk it read.
    Inline(Box<dyn Link>),
    /// One worker per stream, each draining its own bounded queue, fed
    /// strictly round-robin. A shared queue lets one fast worker drain
    /// everything (guaranteed on a single-core host), collapsing all
    /// traffic onto one connection.
    Workers { queues: Vec<BlockQueue>, workers: Vec<StreamWorker>, next: usize },
}

/// The sending side of one transfer: announces the EOD count (one per
/// stream) on the first stream, cuts what it is fed into blocks, and ends
/// every stream with EOD. Shared by the single-file and directory-stream
/// senders.
struct Fanout<'a> {
    lanes: Lanes,
    block_size: usize,
    progress: &'a Arc<Progress>,
    between: BetweenBlocks<'a>,
    /// Payload bytes fed so far.
    fed: u64,
}

impl<'a> Fanout<'a> {
    fn open(
        mut streams: Streams,
        block_size: usize,
        progress: &'a Arc<Progress>,
        between: BetweenBlocks<'a>,
    ) -> Result<Self> {
        assert!(!streams.is_empty(), "need at least one stream");
        assert!(block_size > 0, "block size must be positive");
        let n = streams.len();
        let lanes = if n == 1 {
            let mut stream = streams.pop().expect("one stream");
            stream.send(&Block::eof_count(1).encode()).map_err(send_failed("EOF count"))?;
            Lanes::Inline(stream)
        } else {
            let mut queues = Vec::with_capacity(n);
            let mut workers = Vec::with_capacity(n);
            for (i, stream) in streams.into_iter().enumerate() {
                let (tx, rx) = std::sync::mpsc::sync_channel::<BlockPiece>(4);
                let counted = Arc::clone(progress);
                // The first stream announces how many EODs to expect.
                let eof_count = (i == 0).then_some(n as u64);
                let work = move || stream_worker(stream, eof_count, rx, &counted);
                match spawn_worker(format!("dtp-stream-{i}"), progress, work) {
                    Ok(w) => workers.push(w),
                    Err(e) => {
                        // Dropping the queues ends already-spawned workers
                        // cleanly (they disconnect and the workers send EOD).
                        drop(queues);
                        close_streams(join_block_workers(workers, Ok(())).0);
                        return Err(e);
                    }
                }
                queues.push(tx);
            }
            Lanes::Workers { queues, workers, next: 0 }
        };
        Ok(Fanout { lanes, block_size, progress, between, fed: 0 })
    }

    /// Send `chunk`, which belongs at file offset `offset`, as blocks of at
    /// most `block_size`, calling `between` after each.
    fn feed(&mut self, offset: u64, chunk: &[u8]) -> Result<()> {
        let block_size = self.block_size;
        let cuts = (0..chunk.len())
            .step_by(block_size)
            .map(|start| (start, (start + block_size).min(chunk.len())));
        match &mut self.lanes {
            Lanes::Inline(stream) => {
                for (start, end) in cuts {
                    let at = offset + start as u64;
                    send_block(stream.as_mut(), at, &chunk[start..end], self.progress)?;
                    (self.between)()?;
                }
            }
            Lanes::Workers { queues, next, .. } => {
                // The chunk is shared with the workers by reference: a queue
                // item carries an offset and a sub-range, never a payload.
                let shared: Arc<[u8]> = Arc::from(chunk);
                for (start, end) in cuts {
                    let piece = (offset + start as u64, Arc::clone(&shared), start, end);
                    if queues[*next].send(piece).is_err() {
                        return Err(ServerError::Data("stream workers died".into()));
                    }
                    *next = (*next + 1) % queues.len();
                    (self.between)()?;
                }
            }
        }
        self.fed += chunk.len() as u64;
        Ok(())
    }

    /// End the transfer after the feed finished (or failed): every stream
    /// gets its EOD and comes back, with the payload bytes fed. Any error
    /// closes the streams.
    fn finish(self, fed: Result<()>) -> Result<(u64, Streams)> {
        let (streams, ended) = match self.lanes {
            Lanes::Inline(mut stream) => {
                let ended = fed.and_then(|()| {
                    stream.send(&Block::eod().encode()).map_err(send_failed("EOD"))
                });
                (vec![stream], ended)
            }
            Lanes::Workers { queues, workers, .. } => {
                drop(queues); // signals workers to send EODs
                join_block_workers(workers, fed)
            }
        };
        match ended {
            Ok(()) => Ok((self.fed, streams)),
            Err(e) => {
                close_streams(streams);
                Err(e)
            }
        }
    }
}

/// One data block as a vectored header + payload-slice send.
fn send_block(
    stream: &mut dyn Link,
    offset: u64,
    payload: &[u8],
    progress: &Progress,
) -> Result<()> {
    let header = mode_e::encode_header(0, payload.len() as u64, offset);
    stream
        .send_vectored(&[IoSlice::new(&header), IoSlice::new(payload)])
        .map_err(send_failed("block"))?;
    progress.bytes.fetch_add(payload.len() as u64, Ordering::Relaxed);
    Ok(())
}

/// One stream's worker: announce the EOD count if this is the first stream,
/// send what the queue yields, end with EOD when it disconnects.
fn stream_worker(
    mut stream: Box<dyn Link>,
    eof_count: Option<u64>,
    queue: std::sync::mpsc::Receiver<BlockPiece>,
    progress: &Progress,
) -> Result<Box<dyn Link>> {
    if let Some(n) = eof_count {
        stream.send(&Block::eof_count(n).encode()).map_err(send_failed("EOF count"))?;
    }
    while let Ok((offset, chunk, start, end)) = queue.recv() {
        send_block(stream.as_mut(), offset, &chunk[start..end], progress)?;
    }
    stream.send(&Block::eod().encode()).map_err(send_failed("EOD"))?;
    Ok(stream)
}

/// Join block workers after the feed ended as `fed`: the streams that
/// reached their EOD, and how the transfer ended — a worker's error wins
/// over the feed's, which then only says the workers died.
fn join_block_workers(workers: Vec<StreamWorker>, fed: Result<()>) -> (Streams, Result<()>) {
    let mut worker_err = None;
    let mut streams = Vec::with_capacity(workers.len());
    for w in workers {
        match w.join() {
            Ok(Ok(stream)) => streams.push(stream),
            Ok(Err(e)) => worker_err = worker_err.or(Some(e)),
            Err(_) => {
                worker_err = worker_err.or(Some(ServerError::Data("stream worker panicked".into())))
            }
        }
    }
    (streams, worker_err.map_or(fed, Err))
}

/// Send `ranges` of `path` over `streams` as MODE E blocks, calling
/// `between` after each block is sent (one stream) or queued (more).
///
/// Returns the payload bytes sent and the streams.
#[allow(clippy::too_many_arguments)]
pub fn send_ranges(
    streams: Streams,
    dsi: &Arc<dyn Dsi>,
    user: &UserContext,
    path: &str,
    ranges: &[(u64, u64)],
    block_size: usize,
    progress: &Arc<Progress>,
    between: BetweenBlocks<'_>,
) -> Result<(u64, Streams)> {
    let mut out = Fanout::open(streams, block_size, progress, between)?;
    let read_chunk = block_size.max(64 * 1024);
    let mut feed = || -> Result<()> {
        for &(start, end) in ranges {
            let mut offset = start;
            while offset < end {
                let want = read_chunk.min((end - offset) as usize);
                let data = dsi.read(user, path, offset, want)?;
                if data.is_empty() {
                    break; // EOF inside the range
                }
                out.feed(offset, &data)?;
                offset += data.len() as u64;
            }
        }
        Ok(())
    };
    let fed = feed();
    out.finish(fed)
}

/// Send the directory tree under `root` over `streams` as one streamed
/// MODE E transfer in [`ig_protocol::stream_dir`] framing, skipping the
/// first `skip` walk entries (file-granular resume). Returns the stream
/// bytes sent and the streams.
///
/// The walk is sorted depth-first pre-order, so the entry sequence is
/// deterministic and `skip` means the same thing to sender and receiver.
/// Stream offsets start at 0 on every attempt: each resume attempt is a
/// self-contained stream whose end marker counts only the entries it
/// carried.
#[allow(clippy::too_many_arguments)]
pub fn send_dir(
    streams: Streams,
    dsi: &Arc<dyn Dsi>,
    user: &UserContext,
    root: &str,
    skip: u64,
    block_size: usize,
    progress: &Arc<Progress>,
    between: BetweenBlocks<'_>,
) -> Result<(u64, Streams)> {
    use ig_protocol::stream_dir::{encode_end, encode_header, encode_trailer, StreamEntry};

    let entries = crate::dsi::walk(dsi.as_ref(), user, root)?;
    if skip as usize > entries.len() {
        return Err(ServerError::Data(format!(
            "resume skip {skip} beyond the tree's {} entries",
            entries.len()
        )));
    }
    let mut out = Fanout::open(streams, block_size, progress, between)?;
    // The feed walks the tree and pushes the framing + payload bytes as
    // sequential-offset blocks — the receiver's contiguous reassembled
    // prefix is then exactly a decodable prefix of the entry stream.
    let mut append = |bytes: &[u8]| {
        let offset = out.fed;
        out.feed(offset, bytes)
    };
    let read_chunk = block_size.max(64 * 1024);
    let mut run = || -> Result<()> {
        for entry in &entries[skip as usize..] {
            let meta = if entry.is_dir {
                StreamEntry::dir(entry.rel_path.clone())
            } else {
                StreamEntry::file(entry.rel_path.clone(), entry.size)
            };
            append(&encode_header(&meta)?)?;
            if entry.is_dir {
                continue;
            }
            let abs = if root.ends_with('/') {
                format!("{root}{}", entry.rel_path)
            } else {
                format!("{root}/{}", entry.rel_path)
            };
            let mut hasher = ig_crypto::Sha256::new();
            let mut sent = 0u64;
            while sent < entry.size {
                let want = read_chunk.min((entry.size - sent) as usize);
                let data = dsi.read(user, &abs, sent, want)?;
                if data.is_empty() {
                    return Err(ServerError::Storage(format!(
                        "{abs} shrank mid-stream ({sent} of {} bytes)",
                        entry.size
                    )));
                }
                sent += data.len() as u64;
                hasher.update(&data);
                append(&data)?;
            }
            append(&encode_trailer(&hasher.finalize()))?;
        }
        append(&encode_end(entries.len() as u64 - skip))
    };
    let fed = run();
    out.finish(fed)
}

/// Send `ranges` of the caller's `data` over `streams` as MODE E blocks
/// (client uploads, directory listings): each range, clamped to `data`, is
/// cut into blocks of at most `block_size`, and block *k*, counted across
/// the ranges, leaves on stream *k mod n* as a vectored header +
/// payload-slice send straight out of `data`. One stream is sent on the
/// calling thread; with more, each stream has a worker of its own borrowing
/// `data`, so a stalled stream holds up no other. The first failure stops
/// every stream at its next block and closes them all.
///
/// Returns the payload bytes sent and the streams.
pub fn send_slices(
    mut streams: Streams,
    data: &[u8],
    ranges: &[(u64, u64)],
    block_size: usize,
    progress: &Progress,
) -> Result<(u64, Streams)> {
    let n = streams.len();
    assert!(n > 0, "need at least one stream");
    assert!(block_size > 0, "block size must be positive");
    let len = data.len() as u64;
    let blocks = || {
        ranges.iter().flat_map(|&(start, end)| {
            let (start, end) = (start.min(len) as usize, end.min(len) as usize);
            let cut = move |at: usize| (at, end.min(at.saturating_add(block_size)));
            (start..end).step_by(block_size).map(cut)
        })
    };
    // Raised with the first failure: every other stream stops at its next
    // block, without an EOD — the error it was raised with is the verdict.
    // (Relaxed: the flag says "stop" and publishes nothing else.)
    let failed = AtomicBool::new(false);
    let raise = |_: &ServerError| failed.store(true, Ordering::Relaxed);
    let lane = |i: usize, stream: &mut dyn Link| -> Result<()> {
        let mut send = || -> Result<()> {
            if i == 0 {
                // The first stream announces how many EODs to expect.
                let count = Block::eof_count(n as u64).encode();
                stream.send(&count).map_err(send_failed("EOF count"))?;
            }
            for (at, end) in blocks().skip(i).step_by(n) {
                if failed.load(Ordering::Relaxed) {
                    return Ok(());
                }
                send_block(stream, at as u64, &data[at..end], progress)?;
            }
            stream.send(&Block::eod().encode()).map_err(send_failed("EOD"))
        };
        send().inspect_err(raise)
    };
    let ended = match &mut streams[..] {
        [only] => lane(0, only.as_mut()),
        many => std::thread::scope(|scope| {
            let lane = &lane;
            let mut workers = Vec::with_capacity(n);
            let mut ended = Ok(());
            for (i, stream) in many.iter_mut().enumerate() {
                let name = format!("dtp-stream-{i}");
                let worker = std::thread::Builder::new().name(name.clone());
                let made = worker.spawn_scoped(scope, move || lane(i, stream.as_mut()));
                match counted(&name, progress, made).inspect_err(raise) {
                    Ok(worker) => workers.push(worker),
                    Err(e) => {
                        ended = Err(e);
                        break;
                    }
                }
            }
            // Every worker is joined; the first error, in stream order, wins.
            let panicked = |_| Err(ServerError::Data("stream worker panicked".into()));
            for worker in workers {
                ended = ended.and(worker.join().unwrap_or_else(panicked));
            }
            ended
        }),
    };
    match ended {
        Ok(()) => Ok((blocks().map(|(at, end)| (end - at) as u64).sum(), streams)),
        Err(e) => {
            close_streams(streams);
            Err(e)
        }
    }
}

/// Typed classification of a receive-side failure, so the session layer
/// (and through it the client) can tell a stalled peer from a truncated
/// stream from corrupted framing.
#[derive(Debug, Clone)]
pub enum RecvFault {
    /// The idle deadline expired with the connection still open.
    TimedOut(String),
    /// The peer vanished (or EODs never arrived) before the transfer
    /// completed.
    Truncated(String),
    /// A frame arrived but failed MODE E structural checks.
    Corrupt(String),
    /// The storage layer rejected a write.
    Storage(String),
}

impl std::fmt::Display for RecvFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvFault::TimedOut(m)
            | RecvFault::Truncated(m)
            | RecvFault::Corrupt(m)
            | RecvFault::Storage(m) => write!(f, "{m}"),
        }
    }
}

impl From<RecvFault> for ServerError {
    fn from(f: RecvFault) -> Self {
        match f {
            RecvFault::TimedOut(m) => ServerError::Timeout(m),
            RecvFault::Truncated(m) => ServerError::Truncated(m),
            RecvFault::Corrupt(m) => ServerError::Corrupt(m),
            RecvFault::Storage(m) => ServerError::Storage(m),
        }
    }
}

/// Shared receiver state across connection threads.
struct RecvShared {
    dsi: Arc<dyn Dsi>,
    user: UserContext,
    path: String,
    progress: Arc<Progress>,
    eods: AtomicU64,
    eof_expected: AtomicU64, // 0 = unknown yet
    error: Mutex<Option<RecvFault>>,
}

impl RecvShared {
    fn fault(&self, f: RecvFault) {
        let mut err = self.error.lock();
        if err.is_none() {
            *err = Some(f);
        }
    }
}

/// How one stream of a receiving transfer ends up: its link back, if it
/// reached its EOD.
type StreamEnd = Option<Box<dyn Link>>;

/// One stream of a receiving transfer, in the order it was added.
enum RecvLane {
    /// Being received on a thread of its own.
    Worker(std::thread::JoinHandle<StreamEnd>),
    /// Received on the caller, to its end.
    Ended(StreamEnd),
}

/// One data connection's receive loop: returns when the stream ends — the
/// link itself after its EOD, nothing after a fault recorded in `shared`.
fn receive_stream(shared: &RecvShared, mut link: Box<dyn Link>) -> StreamEnd {
    // One receive buffer per connection, reused for every block;
    // blocks are parsed as borrowed views straight out of it.
    let mut msg = Vec::new();
    loop {
        if let Err(e) = link.recv_into(&mut msg) {
            use std::io::ErrorKind;
            let fault = match e.kind() {
                // Deadline: the connection is open but silent.
                ErrorKind::TimedOut | ErrorKind::WouldBlock => {
                    RecvFault::TimedOut(format!("data connection idle: {e}"))
                }
                // EOF without EOD = abnormal close.
                _ => RecvFault::Truncated(format!("data connection dropped: {e}")),
            };
            shared.fault(fault);
            return None;
        }
        let block = match BlockView::parse(&msg) {
            Ok(b) => b,
            Err(e) => {
                shared.fault(RecvFault::Corrupt(format!("bad block: {e}")));
                return None;
            }
        };
        if block.is_eof_count() {
            shared.eof_expected.store(block.offset, Ordering::SeqCst);
            continue;
        }
        if !block.payload.is_empty() && !block.is_restart() {
            let end = block.offset + block.payload.len() as u64;
            if let Err(e) =
                shared.dsi.write(&shared.user, &shared.path, block.offset, block.payload)
            {
                shared.fault(RecvFault::Storage(format!("storage write: {e}")));
                return None;
            }
            shared.progress.bytes.fetch_add(block.payload.len() as u64, Ordering::Relaxed);
            shared.progress.ranges.lock().add(block.offset, end);
        }
        if block.is_eod() {
            shared.eods.fetch_add(1, Ordering::SeqCst);
            return Some(link);
        }
    }
}

/// Receiver for one transfer: feed it connections as they arrive.
pub struct Receiver {
    shared: Arc<RecvShared>,
    lanes: Mutex<Vec<RecvLane>>,
    idle: Option<Duration>,
    wake: Option<Arc<WakeFd>>,
}

impl Receiver {
    /// Start receiving into `path` (created/extended as blocks land).
    pub fn new(
        dsi: Arc<dyn Dsi>,
        user: UserContext,
        path: &str,
        progress: Arc<Progress>,
    ) -> Self {
        // Ensure the destination exists even for zero-byte transfers.
        if !dsi.exists(&user, path) {
            let _ = dsi.truncate(&user, path, 0);
        }
        Receiver {
            shared: Arc::new(RecvShared {
                dsi,
                user,
                path: path.to_string(),
                progress,
                eods: AtomicU64::new(0),
                eof_expected: AtomicU64::new(0),
                error: Mutex::new(None),
            }),
            lanes: Mutex::new(Vec::new()),
            idle: None,
            wake: None,
        }
    }

    /// Builder: bound how long a stream may sit silent. Without it a
    /// half-open peer parks a receive thread forever and
    /// [`Receiver::finish`] never returns; with it the stalled stream
    /// fails as [`RecvFault::TimedOut`]. Set before adding streams.
    pub fn with_idle(mut self, idle: Duration) -> Self {
        self.idle = Some(idle);
        self
    }

    /// Builder: have every stream raise `wake` when it ends, cleanly (EOD)
    /// or not, so an owner that has other things to wait for too can sleep
    /// in [`Receiver::wait`] instead of polling [`Receiver::done`]. Set
    /// before adding streams.
    pub fn with_wake(mut self, wake: WakeFd) -> Self {
        self.wake = Some(Arc::new(wake));
        self
    }

    /// Sleep until a stream ends, one of `listeners` (sockets of the data
    /// listeners still taking connections for this transfer) is readable,
    /// or `tick` passes.
    pub fn wait(&self, listeners: &[RawFd], tick: Duration) -> Result<()> {
        let mut fds = listeners.to_vec();
        fds.extend(self.wake.iter().map(|w| w.raw_fd()));
        ig_xio::wait_readable(&fds, tick)?;
        if let Some(wake) = &self.wake {
            wake.drain();
        }
        Ok(())
    }

    /// Handle one data connection on a background thread.
    ///
    /// A refused spawn (thread exhaustion) surfaces as
    /// [`ServerError::Spawn`] instead of panicking mid-transfer.
    pub fn add_stream(&self, mut link: Box<dyn Link>) -> Result<()> {
        self.arm(&mut link);
        let shared = Arc::clone(&self.shared);
        let wake = self.wake.clone();
        let worker = spawn_worker("dtp-recv".into(), &self.shared.progress, move || {
            let ended = receive_stream(&shared, link);
            if let Some(wake) = wake {
                wake.wake();
            }
            ended
        })?;
        self.lanes.lock().push(RecvLane::Worker(worker));
        Ok(())
    }

    /// Receive one data connection to its end — EOD or fault — on the
    /// calling thread: what a transfer with a single stream, and a caller
    /// with nothing else to wait for meanwhile, does instead of
    /// [`Receiver::add_stream`]. The verdict is [`Receiver::finish`]'s, as
    /// for any stream.
    pub fn receive_here(&self, mut link: Box<dyn Link>) {
        self.arm(&mut link);
        let ended = receive_stream(&self.shared, link);
        self.lanes.lock().push(RecvLane::Ended(ended));
    }

    fn arm(&self, link: &mut Box<dyn Link>) {
        if let Some(idle) = self.idle {
            let _ = link.set_recv_timeout(Some(idle));
        }
    }

    /// All announced connections closed cleanly?
    pub fn done(&self) -> bool {
        let expected = self.shared.eof_expected.load(Ordering::SeqCst);
        expected > 0 && self.shared.eods.load(Ordering::SeqCst) >= expected
    }

    /// Any stream-level error so far (display form).
    pub fn error(&self) -> Option<String> {
        self.shared.error.lock().as_ref().map(|f| f.to_string())
    }

    /// Any stream-level fault so far, typed.
    pub fn fault(&self) -> Option<RecvFault> {
        self.shared.error.lock().clone()
    }

    /// Wait for completion (all threads joined). Returns bytes received
    /// and the streams, in the order they were added.
    pub fn finish(self) -> Result<(u64, Streams)> {
        let lanes = std::mem::take(&mut *self.lanes.lock());
        let streams: Streams = lanes
            .into_iter()
            .filter_map(|lane| match lane {
                RecvLane::Worker(thread) => thread.join().ok().flatten(),
                RecvLane::Ended(ended) => ended,
            })
            .collect();
        match self.verdict() {
            Ok(bytes) => Ok((bytes, streams)),
            Err(e) => {
                close_streams(streams);
                Err(e)
            }
        }
    }

    /// What the joined streams amount to.
    fn verdict(&self) -> Result<u64> {
        if let Some(f) = self.shared.error.lock().clone() {
            return Err(f.into());
        }
        if !self.done() {
            return Err(ServerError::Truncated(
                "transfer ended before all EODs arrived".into(),
            ));
        }
        // Every EOD arrived, yet a block may not have (a lossy link drops
        // frames, not streams): what landed, together with the ranges
        // `progress` was seeded with (REST, or the base of a partial
        // retrieve), must be one run from offset 0.
        let landed = self.shared.progress.ranges.lock();
        if landed.contiguous_prefix() != landed.total() {
            let hole = landed.contiguous_prefix();
            return Err(RecvFault::Truncated(format!("hole at {hole}")).into());
        }
        Ok(self.shared.progress.bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsi::memory::MemDsi;
    use ig_xio::pipe;

    fn setup(data: &[u8]) -> (Arc<dyn Dsi>, UserContext) {
        let dsi = MemDsi::new();
        dsi.put("/src.bin", data);
        (Arc::new(dsi) as Arc<dyn Dsi>, UserContext::superuser())
    }

    /// Wire a sender and receiver together over N in-process pipes.
    fn transfer(data: &[u8], streams: usize, block: usize) -> Vec<u8> {
        let (dsi, user) = setup(data);
        let dst_dsi: Arc<dyn Dsi> = Arc::new(MemDsi::new());
        let progress_rx = Progress::new();
        let receiver = Receiver::new(Arc::clone(&dst_dsi), user.clone(), "/dst.bin", Arc::clone(&progress_rx));
        let mut sender_links: Vec<Box<dyn Link>> = Vec::new();
        for _ in 0..streams {
            let (a, b) = pipe();
            sender_links.push(Box::new(a));
            receiver.add_stream(Box::new(b)).unwrap();
        }
        let progress_tx = Progress::new();
        let len = data.len() as u64;
        let (sent, kept) = send_ranges(
            sender_links,
            &dsi,
            &user,
            "/src.bin",
            &[(0, len)],
            block,
            &progress_tx,
            &mut || Ok(()),
        )
        .unwrap();
        assert_eq!(sent, len);
        assert_eq!(kept.len(), streams, "every stream comes back after its EOD");
        assert_eq!(progress_tx.bytes(), len);
        let (received, kept) = receiver.finish().unwrap();
        assert_eq!(received, len);
        assert_eq!(kept.len(), streams);
        crate::dsi::read_all(dst_dsi.as_ref(), &user, "/dst.bin", 1 << 16).unwrap()
    }

    #[test]
    fn single_stream_transfer() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        assert_eq!(transfer(&data, 1, 1024), data);
    }

    #[test]
    fn parallel_streams_transfer() {
        let data: Vec<u8> = (0..100_000u32).map(|i| (i * 7 % 253) as u8).collect();
        for streams in [2usize, 4, 8] {
            assert_eq!(transfer(&data, streams, 4096), data, "streams={streams}");
        }
    }

    #[test]
    fn streams_carry_one_transfer_after_another() {
        // EOD ends a transfer, not a stream: what `send_ranges` and
        // `finish` hand back carries the next file over the same pipes.
        let first: Vec<u8> = (0..9_000u32).map(|i| (i % 241) as u8).collect();
        let second: Vec<u8> = (0..5_000u32).map(|i| (i % 239) as u8).collect();
        let src = MemDsi::new();
        src.put("/one", &first);
        src.put("/two", &second);
        let src: Arc<dyn Dsi> = Arc::new(src);
        let dst: Arc<dyn Dsi> = Arc::new(MemDsi::new());
        let user = UserContext::superuser();
        let mut sending: Streams = Vec::new();
        let mut receiving: Streams = Vec::new();
        for _ in 0..3 {
            let (a, b) = pipe();
            sending.push(Box::new(a));
            receiving.push(Box::new(b));
        }
        for (path, data) in [("/one", &first), ("/two", &second)] {
            let receiver = Receiver::new(Arc::clone(&dst), user.clone(), path, Progress::new());
            for link in receiving.drain(..) {
                receiver.add_stream(link).unwrap();
            }
            let len = data.len() as u64;
            let (whole, idle) = ([(0, len)], &mut || Ok(()));
            let (sent, kept) =
                send_ranges(sending, &src, &user, path, &whole, 1024, &Progress::new(), idle).unwrap();
            sending = kept;
            let (received, kept) = receiver.finish().unwrap();
            receiving = kept;
            assert_eq!((sent, received), (len, len), "{path}");
            assert_eq!(&crate::dsi::read_all(dst.as_ref(), &user, path, 1 << 16).unwrap(), data);
        }
        assert_eq!((sending.len(), receiving.len()), (3, 3));
    }

    #[test]
    fn tiny_file_many_streams() {
        // Fewer blocks than streams: some streams carry only EOD.
        let data = b"tiny".to_vec();
        assert_eq!(transfer(&data, 8, 1024), data);
    }

    #[test]
    fn empty_file() {
        let data = Vec::new();
        assert_eq!(transfer(&data, 4, 1024), data);
    }

    #[test]
    fn partial_range_send() {
        let data: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        let (dsi, user) = setup(&data);
        let dst: Arc<dyn Dsi> = Arc::new(MemDsi::new());
        // A resume: the receiver already holds what the sender skips.
        let progress = Progress::new();
        progress.ranges.lock().add(0, 100);
        progress.ranges.lock().add(200, 300);
        let receiver = Receiver::new(Arc::clone(&dst), user.clone(), "/out", Arc::clone(&progress));
        let (a, b) = pipe();
        receiver.add_stream(Box::new(b)).unwrap();
        let (sent, _) = send_ranges(
            vec![Box::new(a)],
            &dsi,
            &user,
            "/src.bin",
            &[(100, 200), (300, 400)],
            64,
            &Progress::new(),
            &mut || Ok(()),
        )
        .unwrap();
        assert_eq!(sent, 200);
        receiver.finish().unwrap();
        // Ranges landed at their original offsets.
        assert_eq!(progress.ranges_snapshot().ranges(), &[(0, 400)]);
        assert_eq!(dst.read(&user, "/out", 100, 100).unwrap(), &data[100..200]);
        assert_eq!(dst.read(&user, "/out", 300, 100).unwrap(), &data[300..400]);
    }

    /// Stream a source tree over N pipes into a staging file, then
    /// expand the staged bytes — the directory-transfer data path minus
    /// the control channel.
    fn dir_transfer(streams: usize, block: usize, skip: u64) -> (Arc<dyn Dsi>, u64) {
        let src: Arc<dyn Dsi> = Arc::new({
            let m = MemDsi::new();
            m.put("/tree/a/one.bin", b"first file");
            m.put("/tree/a/two.bin", &[7u8; 5000]);
            m.put("/tree/top.txt", b"top");
            m.put("/tree/z/deep/leaf", b"");
            m
        });
        let user = UserContext::superuser();
        let staging: Arc<dyn Dsi> = Arc::new(MemDsi::new());
        let progress = Progress::new();
        let receiver =
            Receiver::new(Arc::clone(&staging), user.clone(), "/stream", Arc::clone(&progress));
        let mut sender_links: Vec<Box<dyn Link>> = Vec::new();
        for _ in 0..streams {
            let (a, b) = pipe();
            sender_links.push(Box::new(a));
            receiver.add_stream(Box::new(b)).unwrap();
        }
        let idle = &mut || Ok(());
        let (sent, _) =
            send_dir(sender_links, &src, &user, "/tree", skip, block, &Progress::new(), idle)
                .unwrap();
        let (received, _) = receiver.finish().unwrap();
        assert_eq!(sent, received);
        let data = crate::dsi::read_all(staging.as_ref(), &user, "/stream", 1 << 16).unwrap();
        let dst: Arc<dyn Dsi> = Arc::new(MemDsi::new());
        let out = crate::dsi::expand_stream(dst.as_ref(), &user, "/copy", &data).unwrap();
        assert!(out.finished, "stream must carry its end marker: {out:?}");
        assert_eq!(out.error, None);
        (dst, out.entries)
    }

    #[test]
    fn dir_stream_roundtrips_over_parallel_streams() {
        for streams in [1usize, 3] {
            let (dst, entries) = dir_transfer(streams, 512, 0);
            let user = UserContext::superuser();
            // 7 walk entries: a, a/one.bin, a/two.bin, top.txt, z, z/deep,
            // z/deep/leaf.
            assert_eq!(entries, 7, "streams={streams}");
            assert_eq!(
                crate::dsi::read_all(dst.as_ref(), &user, "/copy/a/two.bin", 1 << 16).unwrap(),
                vec![7u8; 5000]
            );
            assert_eq!(
                crate::dsi::read_all(dst.as_ref(), &user, "/copy/top.txt", 64).unwrap(),
                b"top"
            );
            assert_eq!(dst.size(&user, "/copy/z/deep/leaf").unwrap(), 0);
        }
    }

    #[test]
    fn dir_stream_resume_skips_complete_entries() {
        // Skipping the first 3 entries yields a stream of the remaining 4
        // that still decodes and expands cleanly.
        let (dst, entries) = dir_transfer(1, 256, 3);
        assert_eq!(entries, 4);
        let user = UserContext::superuser();
        // Entry order: a, a/one.bin, a/two.bin, top.txt, z, z/deep, z/deep/leaf.
        assert!(dst.exists(&user, "/copy/top.txt"));
        assert!(!dst.exists(&user, "/copy/a/one.bin"));
    }

    #[test]
    fn dir_stream_skip_past_end_is_typed_error() {
        let src: Arc<dyn Dsi> = Arc::new({
            let m = MemDsi::new();
            m.put("/tree/f", b"x");
            m
        });
        let user = UserContext::superuser();
        let (a, b) = pipe();
        drop(b);
        let idle = &mut || Ok(());
        let err = send_dir(vec![Box::new(a)], &src, &user, "/tree", 9, 256, &Progress::new(), idle)
            .err()
            .unwrap();
        assert!(err.to_string().contains("skip"), "{err}");
    }

    #[test]
    fn receiver_reports_dropped_connection() {
        let dst: Arc<dyn Dsi> = Arc::new(MemDsi::new());
        let user = UserContext::superuser();
        let receiver = Receiver::new(dst, user, "/out", Progress::new());
        let (a, b) = pipe();
        receiver.add_stream(Box::new(b)).unwrap();
        // Send one data block then drop without EOD.
        let mut a: Box<dyn Link> = Box::new(a);
        a.send(&Block::eof_count(1).encode()).unwrap();
        a.send(&Block::data(0, vec![1, 2, 3]).encode()).unwrap();
        drop(a);
        let err = receiver.finish().err().unwrap();
        assert!(err.to_string().contains("dropped"));
    }

    #[test]
    fn receiver_reports_a_hole() {
        // Every EOD arrives; the block at offset 3 never does.
        let dst: Arc<dyn Dsi> = Arc::new(MemDsi::new());
        let receiver = Receiver::new(dst, UserContext::superuser(), "/out", Progress::new());
        let (mut a, b) = pipe();
        receiver.add_stream(Box::new(b)).unwrap();
        a.send(&Block::eof_count(1).encode()).unwrap();
        a.send(&Block::data(0, vec![1, 2, 3]).encode()).unwrap();
        a.send(&Block::data(6, vec![7, 8, 9]).encode()).unwrap();
        a.send(&Block::eod().encode()).unwrap();
        let err = receiver.finish().err().unwrap();
        assert!(matches!(err, ServerError::Truncated(_)), "{err}");
        assert!(err.to_string().contains("hole at 3"), "{err}");
    }

    #[test]
    fn receiver_rejects_garbage_blocks() {
        let dst: Arc<dyn Dsi> = Arc::new(MemDsi::new());
        let receiver = Receiver::new(dst, UserContext::superuser(), "/out", Progress::new());
        let (mut a, b) = pipe();
        receiver.add_stream(Box::new(b)).unwrap();
        a.send(b"definitely not a block").unwrap();
        let err = receiver.finish().err().unwrap();
        assert!(err.to_string().contains("bad block"));
    }

    #[test]
    fn idle_stream_times_out_typed() {
        // A half-open peer (connection alive, no traffic) must yield a
        // typed timeout instead of parking finish() forever.
        let dst: Arc<dyn Dsi> = Arc::new(MemDsi::new());
        let receiver = Receiver::new(dst, UserContext::superuser(), "/out", Progress::new())
            .with_idle(std::time::Duration::from_millis(50));
        let (a, b) = pipe();
        receiver.add_stream(Box::new(b)).unwrap();
        let err = receiver.finish().err().unwrap();
        assert!(matches!(err, ServerError::Timeout(_)), "{err}");
        drop(a); // keep the peer open for the whole test
    }

    #[test]
    fn truncation_and_corruption_are_distinct() {
        // Dropped-before-EOD surfaces as Truncated...
        let dst: Arc<dyn Dsi> = Arc::new(MemDsi::new());
        let receiver = Receiver::new(dst, UserContext::superuser(), "/out", Progress::new());
        let (a, b) = pipe();
        receiver.add_stream(Box::new(b)).unwrap();
        drop(a);
        assert!(matches!(receiver.finish().err().unwrap(), ServerError::Truncated(_)));
        // ...while an unparseable frame surfaces as Corrupt.
        let dst: Arc<dyn Dsi> = Arc::new(MemDsi::new());
        let receiver = Receiver::new(dst, UserContext::superuser(), "/out", Progress::new());
        let (mut a, b) = pipe();
        receiver.add_stream(Box::new(b)).unwrap();
        a.send(b"not mode e").unwrap();
        assert!(matches!(receiver.finish().err().unwrap(), ServerError::Corrupt(_)));
    }

    #[test]
    fn missing_source_file_errors() {
        let dsi: Arc<dyn Dsi> = Arc::new(MemDsi::new());
        let user = UserContext::superuser();
        let (a, b) = pipe();
        drop(b);
        let (range, idle) = ([(0, 100)], &mut || Ok(()));
        let err =
            send_ranges(vec![Box::new(a)], &dsi, &user, "/missing", &range, 64, &Progress::new(), idle)
                .err()
                .unwrap();
        assert!(err.to_string().contains("no such file") || err.to_string().contains("data"));
    }
}
