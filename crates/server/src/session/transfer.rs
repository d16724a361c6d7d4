//! Transfers: the checks that turn a verb into a [`Plan`] without touching
//! a data channel, and the one frame every plan runs in — channels or the
//! 425, span, 150, body, [`Frame::finish`].

use super::channels::Channels;
use super::files::gone;
use super::{send_reply, Authed, Counted};
use crate::config::ServerConfig;
use crate::data::{CachedChannels, ChannelShape, DataStack, Flow};
use crate::dtp::{send_dir, send_ranges, send_slices, Progress, Receiver, Streams};
use crate::error::{Result, ServerError};
use crate::introspect::SessionTicket;
use crate::usage::TransferRecord;
use crate::users::UserContext;
use ig_obs::kv;
use ig_protocol::markers::{PerfMarker, RestartMarker};
use ig_protocol::{stream_dir, ByteRanges, Reply};
use ig_xio::{Link, WakeFd};
use rand::Rng;
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// 112 perf-marker period of a sending transfer: checked between blocks,
/// never slept.
const MARKER_PERIOD: Duration = Duration::from_millis(50);
/// 111 restart-marker period of a receiving transfer, likewise the
/// timeout of the pump's wait.
const RESTART_MARKER_PERIOD: Duration = Duration::from_millis(5);

/// A transfer that may begin: every refusal that needs no data channel
/// has been ruled out.
pub(super) enum Plan {
    Send {
        source: Source,
        /// The byte ranges of a `File` or `Buffer` to put on the wire.
        ranges: Vec<(u64, u64)>,
        /// Payload bytes for the span, and those the 150 announces.
        expected: u64,
        announced: u64,
    },
    /// `STOR <path>`.
    Receive(String),
    /// `ESTO DIR <root>`.
    ReceiveDir(String),
}

pub(super) enum Source {
    File(String),
    Buffer(Vec<u8>),
    /// A whole tree as one directory stream, resuming at walk entry
    /// `skip` (`ERET DIR <skip> <path>`).
    Dir { path: String, skip: u64 },
}

/// A plan, or the reply that refuses the verb before any data channel is
/// touched.
pub(super) type Planned = std::result::Result<Plan, Reply>;

/// A send of the file at `path`: `pick`, given its size, says which ranges
/// and how many payload bytes the span should expect.
fn file(
    config: &ServerConfig,
    a: &mut Authed,
    path: &str,
    pick: impl FnOnce(&mut Authed, u64) -> (Vec<(u64, u64)>, u64),
) -> Planned {
    let path = a.resolve_path(path);
    let size = config.dsi.size(&a.user, &path).map_err(gone)?;
    let (ranges, expected) = pick(a, size);
    let announced = ranges.iter().map(|(from, to)| to - from).sum();
    Ok(Plan::Send { source: Source::File(path), ranges, expected, announced })
}

/// `RETR <path>`.
pub(super) fn retr(config: &ServerConfig, a: &mut Authed, path: &str) -> Planned {
    file(config, a, path, |a, size| match a.restart.take() {
        // REST semantics for RETR: send only what the ranges say
        // is still missing (stream offset N = resend [N, size)).
        Some(have) => (have.missing(size), size),
        None => (vec![(0, size)], size),
    })
}

/// `ERET <module> <args>`.
pub(super) fn eret(config: &ServerConfig, a: &mut Authed, module: &str, args: &str) -> Planned {
    let split = |why| args.split_once(' ').ok_or_else(|| Reply::syntax_error(why));
    match module.to_ascii_uppercase().as_str() {
        // `ERET P <offset>,<length> <path>` — partial file
        // retrieval (the classic GridFTP ERET module).
        "P" => {
            let (range, path) = split("ERET P needs <offset>,<length> <path>.")?;
            let parsed = range.split_once(',').and_then(|(o, l)| {
                Some((o.trim().parse::<u64>().ok()?, l.trim().parse::<u64>().ok()?))
            });
            let (offset, length) = parsed.ok_or_else(|| Reply::syntax_error("Bad ERET P range."))?;
            file(config, a, path.trim(), |_, size| {
                let start = offset.min(size);
                let end = start.saturating_add(length).min(size);
                (vec![(start, end)], end - start)
            })
        }
        // `ERET DIR <skip> <path>` — stream the tree under
        // <path> as one directory stream, skipping the first
        // <skip> walk entries (file-granular resume).
        "DIR" => {
            let (skip, path) = split("ERET DIR needs <skip> <path>.")?;
            let skip = skip.trim().parse::<u64>();
            let skip = skip.map_err(|_| Reply::syntax_error("Bad ERET DIR skip count."))?;
            dir(config, a, a.resolve_path(path.trim()), skip)
        }
        _ => Err(Reply::new(504, "Only the P (partial) and DIR ERET modules are supported.")),
    }
}

/// Validate root + skip before the 150 so a bad request fails cheaply,
/// without opening data channels.
fn dir(config: &ServerConfig, a: &Authed, path: String, skip: u64) -> Planned {
    let entries = crate::dsi::walk(config.dsi.as_ref(), &a.user, &path).map_err(gone)?;
    let rest = usize::try_from(skip).ok().and_then(|skip| entries.get(skip..)).ok_or_else(|| {
        let n = entries.len();
        Reply::action_failed(&format!("resume skip {skip} beyond the tree's {n} entries"))
    })?;
    // Payload bytes for the span; the stream adds the framing
    // the 150's figure includes.
    let framed: u64 = rest
        .iter()
        .map(|e| stream_dir::framed_len(&e.rel_path, (!e.is_dir).then_some(e.size)))
        .sum();
    Ok(Plan::Send {
        source: Source::Dir { path, skip },
        ranges: Vec::new(),
        expected: entries.iter().map(|e| e.size).sum(),
        announced: framed + stream_dir::END_LEN as u64,
    })
}

/// `LIST`/`NLST`/`MLSD [path]`: the listing, sent as a file would be.
pub(super) fn listing(config: &ServerConfig, a: &Authed, path: Option<&str>) -> Planned {
    let entries = config.dsi.list(&a.user, &a.resolve_path(path.unwrap_or("."))).map_err(gone)?;
    let text: String = entries.iter().map(|e| format!("{}\r\n", e.to_mlsd())).collect();
    let len = text.len() as u64;
    let source = Source::Buffer(text.into_bytes());
    Ok(Plan::Send { source, ranges: vec![(0, len)], expected: len, announced: len })
}

impl Authed {
    /// `REST <marker>`: what the next `RETR` need not send, or the next
    /// `STOR` need not truncate.
    pub(super) fn rest(&mut self, marker: &str) -> Reply {
        let (have, said) = match (ByteRanges::parse_marker(marker), marker.parse::<u64>()) {
            (Ok(ranges), _) => (ranges, "Restart marker accepted."),
            (Err(_), Ok(offset)) => {
                let mut ranges = ByteRanges::new();
                ranges.add(0, offset);
                (ranges, "Restart offset accepted.")
            }
            (Err(_), Err(_)) => return Reply::syntax_error("Bad REST marker."),
        };
        self.restart = Some(have);
        Reply::new(350, said)
    }
}

/// One transfer's frame: the logged-in session and the control link,
/// borrowed for as long as it runs.
pub(super) struct Frame<'s, R: Rng> {
    pub(super) config: &'s ServerConfig,
    pub(super) rng: &'s mut R,
    pub(super) ticket: &'s SessionTicket,
    pub(super) a: &'s mut Authed,
    pub(super) link: &'s mut Box<dyn Link>,
    /// Whether the command came sealed, and so its replies leave sealed.
    pub(super) wrap: bool,
}

impl<R: Rng> Frame<'_, R> {
    /// A reply or marker of this transfer.
    fn reply(&mut self, reply: Reply) -> Result<()> {
        self.config.obs.metrics().add(&format!("server.reply_{}", reply.code), 1);
        send_reply(self.wrap.then_some(&mut self.a.ctx), self.link, &reply)
    }

    /// Run `plan` from its first reply to its last: the only place a 150
    /// is sent, as [`Frame::finish`] is the only place a 226 or 426 is.
    pub(super) fn run(mut self, plan: Plan) -> Result<()> {
        let config = self.config;
        let user = self.a.user.clone();
        let stack = self.a.data_stack(config);
        let flow = match plan {
            Plan::Send { .. } => Flow::Send,
            Plan::Receive(_) | Plan::ReceiveDir(_) => Flow::Receive,
        };
        let shape = ChannelShape { flow, mode: self.a.mode, parallelism: self.a.parallelism };
        let streams = match self.a.channels.open(&shape, &stack, config, &mut *self.rng) {
            Ok(streams) => streams,
            Err(e) => return self.reply(Reply::new(425, format!("Cannot open data channel: {e}"))),
        };
        // An inbound transfer uses up a pending `REST`: `STOR` resumes
        // from it, and `ESTO DIR`, whose resume is entry-granular via the
        // count in the terminal reply, drops it so that it cannot leak
        // into a later transfer. (`RETR` took its own when it was planned.)
        let resuming = match flow {
            Flow::Receive => self.a.restart.take(),
            Flow::Send => None,
        };
        let (attrs, opening) = match &plan {
            Plan::Send { expected, announced, .. } => (
                vec![
                    kv("direction", "send"),
                    kv("streams", streams.len() as u32),
                    kv("bytes_expected", *expected),
                ],
                Reply::sending_data(*announced),
            ),
            Plan::Receive(path) => {
                if resuming.is_none() {
                    // Fresh upload: start from scratch.
                    let _ = config.dsi.truncate(&user, path, 0);
                }
                let attrs = vec![kv("direction", "recv"), kv("resuming", resuming.is_some())];
                (attrs, Reply::opening_data())
            }
            Plan::ReceiveDir(_) => (vec![kv("direction", "recv-dir")], Reply::opening_data()),
        };
        let tspan = config.obs.span("transfer", attrs);
        // The gauge the drain state machine polls to zero, and the session's
        // introspection state: both roll back when these drop, so every way
        // out — clean, error reply, unwind — leaves the books balanced.
        let _active = Counted::on(config, "server.transfers_active");
        let _scope = self.ticket.transfer_scope();
        self.reply(opening)?;
        let end = match plan {
            Plan::Send { source, ranges, .. } => self.send(&user, streams, source, &ranges)?,
            Plan::Receive(path) => self.receive(&user, &stack, streams, &path, resuming)?,
            Plan::ReceiveDir(root) => self.receive_dir(&user, &stack, streams, &root)?,
        };
        self.finish(tspan, stack, shape, end)
    }

    /// Close one transfer's books and send its terminal reply. The only
    /// place `usage.record` and the `server.transfers_*`/`bytes_*`
    /// counters move, side by side, so SITE STATS can never drift from
    /// usage.rs.
    fn finish(
        mut self,
        tspan: ig_obs::Span,
        stack: DataStack,
        shape: ChannelShape,
        end: TransferEnd,
    ) -> Result<()> {
        // Whatever this transfer was negotiated on is spent; only one that
        // completed leaves its channels behind for the next.
        self.a.channels.set(Channels::None);
        let metrics = self.config.obs.metrics();
        match end {
            TransferEnd::Complete { streams, bytes, reply, ran_on } => {
                let inbound = shape.flow == Flow::Receive;
                self.config.usage.record(TransferRecord {
                    timestamp: self.config.clock.now(),
                    bytes,
                    user: self.a.user.username.clone(),
                    inbound,
                    streams,
                });
                let (transfers, volume) = if inbound {
                    ("server.transfers_in", "server.bytes_in")
                } else {
                    ("server.transfers_out", "server.bytes_out")
                };
                metrics.add(transfers, 1);
                metrics.add(volume, bytes);
                self.ticket.add_bytes(inbound, bytes);
                tspan.end_with(vec![kv("outcome", "ok"), kv("bytes", bytes)]);
                self.reply(reply)?;
                // After the 226, so that channels which cannot be kept are
                // closed while the peer, done as well, closes its ends.
                if let Some(kept) = ran_on.and_then(|on| CachedChannels::keep(on, shape, stack)) {
                    self.a.channels.set(Channels::Kept(kept));
                }
                Ok(())
            }
            TransferEnd::Failed { counter, outcome, reply } => {
                if let Some(counter) = counter {
                    metrics.add(counter, 1);
                }
                tspan.end_with(outcome);
                self.reply(reply)
            }
        }
    }

    fn send(
        &mut self,
        user: &UserContext,
        streams: Streams,
        source: Source,
        ranges: &[(u64, u64)],
    ) -> Result<TransferEnd> {
        let config = self.config;
        let stream_count = streams.len() as u32;
        // One coherent tunable snapshot for the whole transfer: a
        // reload mid-flight affects the next transfer, not this one.
        let block_size = config.live().block_size;
        let progress = Progress::on(&config.obs);
        // This thread is the feeder: with one stream it also puts the
        // blocks on the wire, with more it fills the stream workers'
        // queues. Between blocks it reports: a 112 once `MARKER_PERIOD`
        // has passed and bytes moved, and one closing marker when the
        // transfer ended past the last one sent — every non-empty transfer,
        // however short, reports its final count. There is no stall check
        // here: a peer that stops reading fails the blocked send on the
        // stack's write deadline.
        let start = Instant::now();
        let total_stripes = config.stripes as u32;
        let mut markers = PerfMarkers { start, total_stripes, last: start, last_bytes: 0 };
        let mut between = || -> Result<()> {
            if markers.last.elapsed() >= MARKER_PERIOD {
                self.perf_marker(&mut markers, &progress)?;
            }
            Ok(())
        };
        let dsi = &config.dsi;
        let outcome = match source {
            Source::File(path) => {
                send_ranges(streams, dsi, user, &path, ranges, block_size, &progress, &mut between)
            }
            Source::Buffer(buf) => send_slices(streams, &buf, ranges, block_size, &progress),
            Source::Dir { path, skip } => {
                send_dir(streams, dsi, user, &path, skip, block_size, &progress, &mut between)
            }
        };
        self.perf_marker(&mut markers, &progress)?;
        Ok(TransferEnd::of(stream_count, outcome))
    }

    /// Report a sending transfer's progress as a 112, if bytes moved since
    /// the last one. A 112 is advisory: whether to send it is decided
    /// before it is sealed (a sealed reply that is not sent leaves a hole
    /// in the context's sequence numbers), and one the control socket has
    /// no room for is skipped, never waited for — a client that reads the
    /// control channel only once the data has arrived cannot stall the
    /// data by it.
    fn perf_marker(&mut self, markers: &mut PerfMarkers, progress: &Progress) -> Result<()> {
        // The marker carries this transfer's own count; the gauge (the
        // latest count of any session) is for `SITE STATS`.
        let bytes = progress.bytes();
        markers.last = Instant::now();
        if bytes == markers.last_bytes || self.link.send_would_block() {
            return Ok(());
        }
        markers.last_bytes = bytes;
        self.config.obs.metrics().set_gauge("server.transfer_progress_bytes", bytes as f64);
        let marker = PerfMarker {
            timestamp: markers.start.elapsed().as_secs_f64(),
            stripe_index: 0,
            total_stripes: markers.total_stripes,
            stripe_bytes: bytes,
        };
        self.reply(marker.to_reply())
    }

    /// What lands blocks in `path` of `dsi`, woken by and bounded as the
    /// pump needs.
    fn receiver(
        &self,
        dsi: Arc<dyn crate::dsi::Dsi>,
        user: &UserContext,
        path: &str,
        progress: &Arc<Progress>,
    ) -> Result<Receiver> {
        Ok(Receiver::new(dsi, user.clone(), path, Arc::clone(progress))
            .with_idle(self.config.live().stall_timeout)
            .with_wake(WakeFd::new()?))
    }

    fn receive(
        &mut self,
        user: &UserContext,
        stack: &DataStack,
        rearmed: Streams,
        path: &str,
        resuming: Option<ByteRanges>,
    ) -> Result<TransferEnd> {
        let progress = Progress::on(&self.config.obs);
        if let Some(have) = &resuming {
            // Seed progress with what already landed so markers are global.
            let mut r = progress.ranges.lock();
            for &(s, e) in have.ranges() {
                r.add(s, e);
            }
        }
        let receiver = self.receiver(Arc::clone(&self.config.dsi), user, path, &progress)?;
        let (streams, fin) = match self.pump(stack, receiver, &progress, rearmed)? {
            Ok(pumped) => pumped,
            Err(failed) => return Ok(failed),
        };
        Ok(TransferEnd::of(streams, fin))
    }

    /// Drive the accept/connect + 111-marker loop for an inbound
    /// transfer until the receiver drains, errors, or stalls, then join
    /// its streams: returns how many there were (connected now, or
    /// `rearmed` — the kept ones, which then are all there will be) and
    /// what they received.
    /// Emits only in-transfer markers; the terminal reply is the frame's
    /// job — an inner `Err` is the ready-made [`TransferEnd::Failed`] for
    /// a stream that could not be added. Shared by plain `STOR` and
    /// `ESTO DIR` so both directions of pipelined sessions exercise one
    /// code path.
    fn pump(
        &mut self,
        stack: &DataStack,
        receiver: Receiver,
        progress: &Arc<Progress>,
        rearmed: Streams,
    ) -> Result<std::result::Result<Pumped, TransferEnd>> {
        let live = self.config.live();
        let listening: Vec<RawFd> = match &self.a.channels {
            Channels::Listening(listeners) => listeners.iter().map(|l| l.as_raw_fd()).collect(),
            _ => Vec::new(),
        };
        let mut connected = 0u32;
        for stream in rearmed {
            if let Err(e) = receiver.add_stream(stream) {
                return Ok(Err(TransferEnd::spawn_error(e.to_string())));
            }
            connected += 1;
        }
        let mut last_marker = ByteRanges::new();
        let mut last_progress = Instant::now();
        loop {
            if receiver.done() || receiver.error().is_some() {
                break;
            }
            if let (Channels::Targets(targets), 0) = (&self.a.channels, connected) {
                // Active receive: we connect out (unusual but legal).
                for target in targets {
                    for _ in 0..self.a.parallelism {
                        let stream = stack.connect(*target, &mut *self.rng)?;
                        if let Err(e) = receiver.add_stream(stream) {
                            return Ok(Err(TransferEnd::spawn_error(e.to_string())));
                        }
                        connected += 1;
                    }
                }
            }
            if let Channels::Listening(listeners) = &self.a.channels {
                for l in listeners {
                    while let Some(conn) = l.try_accept()? {
                        match stack.accept(conn, &mut *self.rng) {
                            Ok(s) => {
                                if let Err(e) = receiver.add_stream(s) {
                                    return Ok(Err(TransferEnd::spawn_error(e.to_string())));
                                }
                                connected += 1;
                                last_progress = Instant::now();
                            }
                            // Failed DCAU on one connection fails the transfer.
                            Err(e) => {
                                return Ok(Err(TransferEnd::Failed {
                                    counter: None,
                                    outcome: vec![kv("outcome", "auth-error")],
                                    reply: Reply::new(
                                        425,
                                        format!("Data channel authentication failed: {e}"),
                                    ),
                                }))
                            }
                        }
                    }
                }
            }
            // The one wait of an inbound transfer: a stream's end (EOD or
            // fault) or a queued connection wakes it; the marker period is
            // only its timeout.
            receiver.wait(&listening, RESTART_MARKER_PERIOD)?;
            // Emit 111 restart markers as new ranges land.
            let snapshot = progress.ranges_snapshot();
            if snapshot != last_marker {
                last_marker = snapshot.clone();
                last_progress = Instant::now();
                self.reply(RestartMarker { ranges: snapshot }.to_reply())?;
            } else if last_progress.elapsed() > live.stall_timeout {
                break;
            }
        }
        // The pump leaves at the first fault, while other streams may
        // still be landing blocks. Once they are joined nothing more can
        // land, so one closing 111 makes the checkpoint the client restarts
        // from exactly what is on storage.
        let fin = receiver.finish();
        let landed = progress.ranges_snapshot();
        if landed != last_marker {
            self.reply(RestartMarker { ranges: landed }.to_reply())?;
        }
        Ok(Ok((connected, fin)))
    }

    /// `ESTO DIR <root>`: receive one directory stream into staging
    /// memory, then expand every *complete* entry under `root` on the
    /// real DSI. The terminal reply always carries the entry count —
    /// `226 Directory stream complete (<n> entries).` on success,
    /// `426 Directory stream failed after <n> entries: <reason>` on a
    /// mid-stream fault — so the client can resume file-granularly by
    /// re-sending from entry `n`.
    fn receive_dir(
        &mut self,
        user: &UserContext,
        stack: &DataStack,
        rearmed: Streams,
        root: &str,
    ) -> Result<TransferEnd> {
        let progress = Progress::on(&self.config.obs);
        // Stage the raw stream in session-private memory: expansion must
        // be entry-atomic even though MODE E blocks land out of order.
        let staging = crate::dsi::memory::MemDsi::new();
        let staging: Arc<dyn crate::dsi::Dsi> = Arc::new(staging);
        let su = UserContext::superuser();
        let receiver = self.receiver(Arc::clone(&staging), &su, "/stream", &progress)?;
        let (streams, fin) = match self.pump(stack, receiver, &progress, rearmed)? {
            Ok(pumped) => pumped,
            Err(failed) => return Ok(failed),
        };
        // Expand whatever complete prefix landed — holes left by lost
        // blocks fail a header magic or trailer checksum and stop the
        // decoder at the last complete entry, never mid-file.
        let staged = crate::dsi::read_all(staging.as_ref(), &su, "/stream", 256 * 1024)
            .unwrap_or_default();
        Ok(match crate::dsi::expand_stream(self.config.dsi.as_ref(), user, root, &staged) {
            Err(e) => TransferEnd::error(Reply::new(
                426,
                format!("Directory stream failed after 0 entries: {e}"),
            )),
            // Every entry decoded, every checksum passed, count matched:
            // the tree is complete even if the transport died after the
            // final block.
            Ok(out) if out.finished && out.error.is_none() => TransferEnd::Complete {
                streams,
                bytes: staged.len() as u64,
                reply: Reply::new(
                    226,
                    format!("Directory stream complete ({} entries).", out.entries),
                ),
                // Channels are kept only if the transport agrees it ended
                // cleanly, whatever the decoder made of what arrived.
                ran_on: fin.ok().map(|(_, links)| links),
            },
            Ok(out) => {
                let reason = out
                    .error
                    .clone()
                    .or_else(|| fin.err().map(|e| e.to_string()))
                    .unwrap_or_else(|| "stream ended before the end marker".to_string());
                TransferEnd::Failed {
                    counter: Some("server.transfer_errors"),
                    outcome: vec![kv("outcome", "error"), kv("entries", out.entries)],
                    reply: Reply::new(
                        426,
                        format!("Directory stream failed after {} entries: {reason}", out.entries),
                    ),
                }
            }
        })
    }
}

/// What [`Frame::pump`] got out of an inbound transfer: how many streams
/// it had, and what [`Receiver::finish`] made of them.
type Pumped = (u32, Result<(u64, Streams)>);

/// How a transfer ended after its 150, for [`Frame::finish`].
enum TransferEnd {
    /// Everything landed: book it, send `reply` (a 226), then keep the
    /// channels it ran on — or close them, if they are not of a kind that
    /// can be kept.
    Complete {
        streams: u32,
        bytes: u64,
        reply: Reply,
        ran_on: Option<Streams>,
    },
    /// It did not: bump `counter` if this kind of failure has one, close
    /// the span with `outcome`, then send `reply` (a 425/426).
    Failed {
        counter: Option<&'static str>,
        outcome: Vec<(String, ig_obs::Value)>,
        reply: Reply,
    },
}

impl TransferEnd {
    /// The end of a transfer whose `streams` streams, joined, moved `moved`.
    fn of(streams: u32, moved: Result<(u64, Streams)>) -> Self {
        match moved {
            Ok((bytes, links)) => TransferEnd::Complete {
                streams,
                bytes,
                reply: Reply::transfer_complete(),
                ran_on: Some(links),
            },
            // Thread exhaustion is an operational signal, not a
            // session-fatal bug: count it, fail this transfer, keep the
            // control channel up.
            Err(ServerError::Spawn(why)) => TransferEnd::spawn_error(why),
            Err(e) => TransferEnd::error(Reply::new(426, format!("Transfer failed: {e}"))),
        }
    }

    /// A transfer that broke mid-flight.
    fn error(reply: Reply) -> Self {
        TransferEnd::Failed {
            counter: Some("server.transfer_errors"),
            outcome: vec![kv("outcome", "error")],
            reply,
        }
    }

    /// A stream worker thread could not be spawned.
    fn spawn_error(why: String) -> Self {
        TransferEnd::Failed {
            counter: Some("server.spawn_failures"),
            outcome: vec![kv("outcome", "spawn-error")],
            reply: Reply::new(426, format!("Transfer failed: {why}")),
        }
    }
}

/// Where a sending transfer's 112 series stands.
struct PerfMarkers {
    start: Instant,
    total_stripes: u32,
    /// When the last marker was sent or skipped, and the count it carried.
    last: Instant,
    last_bytes: u64,
}
