//! Transfers: two-party GET/PUT and third-party server-to-server.
//!
//! The data plane rides on [`ig_server::dtp`]'s zero-copy loops: senders
//! frame blocks as vectored header + payload-slice writes out of shared
//! read chunks (an upload's out of the caller's own buffer, which is never
//! staged or copied here), receivers parse borrowed block views out of
//! per-connection reused buffers, and any sealed (`PROT S`/`P`) channel
//! encrypts and decrypts in place inside those same buffers — so
//! steady-state transfer throughput is bounded by crypto and I/O, not
//! allocator traffic.

use crate::error::{ClientError, Result};
use crate::session::ClientSession;
use ig_protocol::command::{Command, ModeCode};
use ig_protocol::markers::{PerfMarker, RestartMarker};
use ig_protocol::{ByteRanges, Reply};
use ig_server::data::{
    CachedChannels, ChainExpiry, ChannelShape, DataListener, DataSecurity, DataStack, Flow,
};
use ig_server::dtp::{close_streams, send_dir, send_slices, Progress, Receiver, Streams};
use ig_server::{Dsi, MemDsi, UserContext};
use ig_xio::{ChaosHook, RetryError, RetryPolicy};
use std::os::unix::io::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Live-progress callback: invoked for every parsed `112 Perf Marker`.
pub type ProgressFn = dyn Fn(&PerfMarker) + Send + Sync;

/// Per-transfer options.
#[derive(Clone)]
pub struct TransferOpts {
    /// Parallel TCP streams.
    pub parallelism: usize,
    /// MODE E block size.
    pub block_size: usize,
    /// Use striped data channels (`SPAS`/`SPOR`) on the servers.
    pub striped: bool,
    /// Read/accept deadline on the client's own data channels: a silent
    /// peer yields [`ClientError::Timeout`] instead of a hang. `None` =
    /// wait forever (legacy behaviour).
    pub io_timeout: Option<Duration>,
    /// Optional chaos hook wrapped around the client's own data streams
    /// (the chaos matrix's client-side fault site).
    pub chaos: Option<Arc<ChaosHook>>,
    /// Optional live-progress observer fed each parsed 112 marker as it
    /// arrives on the control channel (globus-url-copy's `-vb` display).
    pub on_progress: Option<Arc<ProgressFn>>,
}

impl std::fmt::Debug for TransferOpts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransferOpts")
            .field("parallelism", &self.parallelism)
            .field("block_size", &self.block_size)
            .field("striped", &self.striped)
            .field("io_timeout", &self.io_timeout)
            .field("chaos", &self.chaos.is_some())
            .field("on_progress", &self.on_progress.is_some())
            .finish()
    }
}

impl Default for TransferOpts {
    fn default() -> Self {
        TransferOpts {
            parallelism: 1,
            block_size: 64 * 1024,
            striped: false,
            io_timeout: Some(Duration::from_secs(30)),
            chaos: None,
            on_progress: None,
        }
    }
}

impl TransferOpts {
    /// Builder: streams.
    pub fn parallel(mut self, n: usize) -> Self {
        assert!(n >= 1);
        self.parallelism = n;
        self
    }

    /// Builder: block size.
    pub fn block(mut self, bytes: usize) -> Self {
        assert!(bytes > 0);
        self.block_size = bytes;
        self
    }

    /// Builder: striped transfer (SPAS/SPOR).
    pub fn striped_mode(mut self) -> Self {
        self.striped = true;
        self
    }

    /// Builder: data-channel read/accept deadline.
    pub fn timeout(mut self, t: Option<Duration>) -> Self {
        self.io_timeout = t;
        self
    }

    /// Builder: wrap this transfer's data streams in a chaos hook.
    pub fn chaos(mut self, hook: Arc<ChaosHook>) -> Self {
        self.chaos = Some(hook);
        self
    }

    /// Builder: live-progress observer for 112 markers.
    pub fn on_progress(mut self, f: impl Fn(&PerfMarker) + Send + Sync + 'static) -> Self {
        self.on_progress = Some(Arc::new(f));
        self
    }

    /// Feed one preliminary reply through the marker pipeline: parsed 112
    /// markers update the client registry (counter + live progress gauge)
    /// and reach the `on_progress` observer.
    fn observe_marker(&self, obs: &ig_obs::Obs, reply: &Reply) -> Option<PerfMarker> {
        if reply.code != 112 {
            return None;
        }
        let marker = PerfMarker::from_reply(reply).ok()?;
        obs.metrics().add("client.perf_markers", 1);
        obs.metrics().set_gauge("client.transfer_progress_bytes", marker.stripe_bytes as f64);
        if let Some(cb) = &self.on_progress {
            cb(&marker);
        }
        Some(marker)
    }
}

/// How the *client's own* data streams are built. Security: with a DCSC
/// context installed, present/accept that credential (§V); otherwise the
/// user's own credential. `opts` contributes the I/O deadline and the
/// chaos hook. Client streams are unthrottled and unmetered.
fn client_data_stack(session: &ClientSession, opts: &TransferOpts) -> DataStack {
    let (credential, trust) = match &session.dcsc {
        Some(cred) => (
            cred.clone(),
            session.config.trust.with_extra_roots(cred.chain().iter()),
        ),
        None => (session.config.credential.clone(), session.config.trust.clone()),
    };
    DataStack {
        security: DataSecurity {
            dcau: session.dcau.clone(),
            prot: session.prot,
            credential: Some(credential),
            trust,
            clock: session.config.clock,
        },
        stripe_rate: None,
        deadline: opts.io_timeout,
        chaos: opts.chaos.clone(),
        meter: None,
        expiry: ChainExpiry::default(),
    }
}

/// What a two-party transfer under `opts` opens its channels as.
fn channel_shape(flow: Flow, opts: &TransferOpts) -> ChannelShape {
    ChannelShape {
        flow,
        mode: ModeCode::Extended,
        parallelism: opts.parallelism,
    }
}

/// Try `cmd` on the session's kept data channels: sent with no
/// `PORT`/`PASV` before it, and its opening reply read before anything
/// touches the links — a refusal costs one round trip and parks no thread.
/// `Some` is the 150 and the links it will be served on.
/// `None` means dial afresh: nothing was kept, `stack` would not
/// build what was kept, a chain on it has expired, or the server no longer
/// holds its end (425 — reuse never fails a transfer a fresh channel would
/// carry). Any other refusal is the command's own answer.
fn open_on_kept(
    session: &mut ClientSession,
    cmd: &Command,
    shape: &ChannelShape,
    stack: &DataStack,
) -> Result<Option<(Reply, Streams)>> {
    let now = session.config.clock.now();
    let Some(kept) = CachedChannels::rearm(&mut session.channels, shape, stack, now) else {
        return Ok(None);
    };
    session.send_cmd(cmd)?;
    let opening = session.read_reply()?;
    if opening.is_preliminary() {
        return Ok(Some((opening, kept)));
    }
    // Our end goes; the server dropped its own, or will at the next PORT/PASV.
    close_streams(kept);
    if opening.code == 425 {
        Ok(None)
    } else {
        Err(ClientError::ServerError(opening))
    }
}

/// Bind the client's own data listener and tell the server to dial it.
fn listen_and_port(session: &mut ClientSession) -> Result<DataListener> {
    let listener = DataListener::bind(std::net::Ipv4Addr::LOCALHOST)?;
    session.command(&Command::Port(listener.addr()))?;
    Ok(listener)
}

fn read_until_final(
    session: &mut ClientSession,
    mut on_marker: impl FnMut(&Reply),
) -> Result<Reply> {
    loop {
        let reply = session.read_reply()?;
        if reply.is_preliminary() {
            on_marker(&reply);
            continue;
        }
        return Ok(reply);
    }
}

/// A transfer's opening reply, or the refusal it is instead.
fn opened(reply: Reply) -> Result<Reply> {
    if reply.is_preliminary() {
        Ok(reply)
    } else {
        Err(ClientError::ServerError(reply))
    }
}

/// Open the fresh channels of a receiving transfer whose command has just
/// gone out behind `listener`'s `PORT`: fill `streams` up to the
/// `opts.parallelism` the server dials, and return its 150. Waits for *a
/// data connection or a control reply, whichever comes first* (DESIGN §8):
/// queued connections are taken first, a waiting reply is read only with
/// none queued, and one that is not preliminary is the transfer's answer,
/// there at once — a refusal never dials. A connection taken before a
/// refusal was read is the next command's, if commands are pipelined;
/// `streams` keeps it. A session over a link with no descriptor (pipes,
/// chaos-wrapped links) cannot watch its control channel, and reads the
/// answer once the deadline for the connections has passed.
///
/// The inner error is the transfer's own, read with the session in step;
/// an outer one means a reply is unread or unreadable.
fn accept_streams(
    session: &mut ClientSession,
    listener: &DataListener,
    stack: &DataStack,
    opts: &TransferOpts,
    streams: &mut Streams,
) -> Result<Result<Reply>> {
    // No `io_timeout` still bounds this wait: a dead server never dials.
    let deadline = Instant::now() + opts.io_timeout.unwrap_or(Duration::from_secs(30));
    // The last reply read: the 150, or the transfer's final answer.
    let mut answer: Option<Reply> = None;
    while streams.len() < opts.parallelism && answer.as_ref().is_none_or(Reply::is_preliminary) {
        // Once it has said 150 the control channel has only 112s to say.
        let control = session.control_fd.filter(|_| answer.is_none());
        if let Some(conn) = listener.try_accept()? {
            match stack.accept(conn, &mut session.rng) {
                Ok(stream) => streams.push(stream),
                Err(e) => {
                    // A handshake that fails at this end fails at the
                    // server's too, and it says so.
                    streams.clear();
                    read_until_final(session, |_| {})?;
                    return Ok(Err(e.into()));
                }
            }
        } else if control.is_some() && ig_xio::wait_readable(control.as_slice(), Duration::ZERO)? {
            answer = Some(session.read_reply()?);
        } else {
            let fds: Vec<_> = control.into_iter().chain([listener.as_raw_fd()]).collect();
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || !ig_xio::wait_readable(&fds, left)? {
                answer = Some(read_until_final(session, |_| {})?);
            }
        }
    }
    let answer = match answer {
        Some(read) => read,
        None => session.read_reply()?,
    };
    Ok(if answer.is_success() {
        Err(ClientError::Timeout("data connection never arrived".into()))
    } else {
        opened(answer)
    })
}

/// What is left of a receiving transfer once its 150 is read: receive the
/// blocks off `streams`, then read the control channel to the final reply,
/// feeding the 112s to `opts`' observer. Blocks land at their own offsets,
/// none below `base` (the start of a partial retrieve). Returns the
/// streams if both ends finished the transfer on them (they can carry the
/// next), what landed from `base` on — holes and all, when streams failed
/// — and the verdict on it.
fn receive_file(
    session: &mut ClientSession,
    opts: &TransferOpts,
    streams: Streams,
    base: u64,
) -> Result<(Option<Streams>, Vec<u8>, Result<()>)> {
    let staging: Arc<dyn Dsi> = Arc::new(MemDsi::new());
    let user = UserContext::superuser();
    let progress = Progress::on(&session.config.obs);
    if base > 0 {
        // What precedes `base` is not a hole (`Receiver::finish` wants one
        // run from 0).
        progress.ranges.lock().add(0, base);
    }
    let receiver = Receiver::new(Arc::clone(&staging), user.clone(), "/buf", progress);
    match <[_; 1]>::try_from(streams) {
        // One stream leaves nothing to wait for but its end, so it is
        // received right here. The server never waits on a 112: those it
        // sent meanwhile are queued on the control channel, in order.
        Ok([only]) => receiver.receive_here(only),
        Err(streams) => {
            for stream in streams {
                receiver.add_stream(stream)?;
            }
        }
    }
    let obs = Arc::clone(&session.config.obs);
    let final_reply = read_until_final(session, |r| {
        let _ = opts.observe_marker(&obs, r);
    })?;
    let (kept, verdict) = match receiver.finish() {
        // A 426 means the server dropped its end; ours goes here.
        _ if final_reply.is_error() => (None, Err(ClientError::ServerError(final_reply))),
        Ok((_, streams)) => (Some(streams), Ok(())),
        Err(e) => (None, Err(e.into())),
    };
    let mut landed =
        ig_server::dsi::read_all(staging.as_ref(), &user, "/buf", 1 << 20).unwrap_or_default();
    landed.drain(..landed.len().min(usize::try_from(base).unwrap_or(usize::MAX)));
    Ok((kept, landed, verdict))
}

/// One receiving transfer from its command to its final reply — the
/// client's side of the frame every transfer runs in on the server. `cmd`
/// (`RETR`, `ERET P`, `ERET DIR`, `MLSD`) is sent on the kept channels or,
/// with nothing kept or a 425, behind a fresh `PORT`; its blocks land from
/// `base` on; streams both ends finished on are kept for the next
/// transfer. Returns the 150, what landed, and the verdict on it; an error
/// is a refusal or a control channel out of step.
fn receive(
    session: &mut ClientSession,
    cmd: &Command,
    base: u64,
    opts: &TransferOpts,
) -> Result<(Reply, Vec<u8>, Result<()>)> {
    session.set_mode_extended()?;
    if session.parallelism != opts.parallelism {
        session.set_parallelism(opts.parallelism)?;
    }
    let stack = client_data_stack(session, opts);
    let shape = channel_shape(Flow::Receive, opts);
    let (opening, streams) = match open_on_kept(session, cmd, &shape, &stack)? {
        Some(opened) => opened,
        None => {
            let listener = listen_and_port(session)?;
            session.send_cmd(cmd)?;
            let mut streams = Streams::new();
            (accept_streams(session, &listener, &stack, opts, &mut streams)??, streams)
        }
    };
    let (kept, landed, verdict) = receive_file(session, opts, streams, base)?;
    if let Some(streams) = kept {
        session.channels = CachedChannels::keep(streams, shape, stack);
    }
    Ok((opening, landed, verdict))
}

/// `data` if it is all `expected` bytes of `remote_path`. Every EOD can
/// arrive and the tail of the file — all of it, when it is one block —
/// still be missing: only a length from the sender tells.
fn whole(remote_path: &str, data: Vec<u8>, expected: u64) -> Result<Vec<u8>> {
    if data.len() as u64 == expected {
        Ok(data)
    } else {
        Err(ClientError::Truncated(format!(
            "{remote_path}: expected {expected} bytes, received {}",
            data.len()
        )))
    }
}

/// What a download landed, if it completed and is every byte its 150
/// announced — or, behind a 150 with no figure (a stock server), as many as
/// `unannounced` makes out after the transfer: the length check is moved,
/// never skipped.
fn held_to_150(
    path: &str,
    (opening, landed, verdict): (Reply, Vec<u8>, Result<()>),
    unannounced: impl FnOnce(&[u8]) -> Result<u64>,
) -> Result<Vec<u8>> {
    verdict?;
    let expected = match opening.announced_bytes() {
        Some(announced) => announced,
        None => unannounced(&landed)?,
    };
    whole(path, landed, expected)
}

/// Download `remote_path` into memory (client is the receiver and
/// therefore the listener; the server connects in). On a kept channel this
/// is one command: the 150 says how long the file is.
pub fn get_bytes(
    session: &mut ClientSession,
    remote_path: &str,
    opts: &TransferOpts,
) -> Result<Vec<u8>> {
    let got = receive(session, &Command::Retr(remote_path.into()), 0, opts)?;
    held_to_150(remote_path, got, |_| session.size(remote_path))
}

/// Partial retrieval via `ERET P <offset>,<length> <path>` — fetch just
/// a byte range of a remote file, clipped at its end.
pub fn get_partial(
    session: &mut ClientSession,
    remote_path: &str,
    offset: u64,
    length: u64,
    opts: &TransferOpts,
) -> Result<Vec<u8>> {
    let eret = Command::Eret {
        module: "P".into(),
        args: format!("{offset},{length} {remote_path}"),
    };
    let got = receive(session, &eret, offset, opts)?;
    held_to_150(remote_path, got, |_| {
        Ok(length.min(session.size(remote_path)?.saturating_sub(offset)))
    })
}

/// Listing via MLSD over the data channel.
pub fn list(session: &mut ClientSession, path: &str) -> Result<Vec<String>> {
    // The session's own stream count: a listing sends no `OPTS`.
    list_with(session, path, &TransferOpts::default().parallel(session.parallelism))
}

/// [`list`] under the caller's `opts`.
pub fn list_with(
    session: &mut ClientSession,
    path: &str,
    opts: &TransferOpts,
) -> Result<Vec<String>> {
    let got = receive(session, &Command::Mlsd(Some(path.into())), 0, opts)?;
    // A listing has no `SIZE`: what arrived is what there is.
    let text = held_to_150(path, got, |landed| Ok(landed.len() as u64))?;
    Ok(String::from_utf8_lossy(&text).lines().map(str::to_string).collect())
}

/// One sending transfer from its command to its final reply: `cmd` (`STOR`,
/// `ESTO DIR`) goes out on the kept channels or, with nothing kept or a
/// 425, behind a fresh `PASV` whose address is dialled once the 150 is
/// read; `body` puts the bytes on the streams. The final reply is always
/// read, and streams both ends finished on are kept for the next transfer.
/// Returns that reply and what `body` made of the send.
fn send(
    session: &mut ClientSession,
    cmd: &Command,
    opts: &TransferOpts,
    body: impl FnOnce(Streams, &Arc<Progress>) -> ig_server::error::Result<(u64, Streams)>,
) -> Result<(Reply, Result<u64>)> {
    session.set_mode_extended()?;
    let stack = client_data_stack(session, opts);
    let shape = channel_shape(Flow::Send, opts);
    let streams = match open_on_kept(session, cmd, &shape, &stack)? {
        Some((_, kept)) => kept,
        None => {
            let addr = session.pasv()?;
            session.send_cmd(cmd)?;
            opened(session.read_reply()?)?;
            (0..opts.parallelism)
                .map(|_| Ok(stack.connect(addr, &mut session.rng)?))
                .collect::<Result<Streams>>()?
        }
    };
    let sent = body(streams, &Progress::on(&session.config.obs));
    // Always drain the final reply, even when our own send failed —
    // otherwise the 426 stays queued and poisons the next command.
    let final_reply = read_until_final(session, |_| {})?;
    let sent = sent.map(|(bytes, streams)| {
        // After a 426 the server has dropped its end; ours goes here.
        if !final_reply.is_error() {
            session.channels = CachedChannels::keep(streams, shape, stack);
        }
        bytes
    });
    Ok((final_reply, sent.map_err(ClientError::from)))
}

/// Upload `data` to `remote_path` (client is the sender; server listens
/// per the GridFTP receiver-listens rule).
pub fn put_bytes(
    session: &mut ClientSession,
    remote_path: &str,
    data: &[u8],
    opts: &TransferOpts,
) -> Result<u64> {
    put_bytes_resume(session, remote_path, data, None, opts)
}

/// Upload with restart: `have` is what the receiver already holds (from
/// 111 markers of a failed attempt); only the complement is sent.
pub fn put_bytes_resume(
    session: &mut ClientSession,
    remote_path: &str,
    data: &[u8],
    have: Option<&ByteRanges>,
    opts: &TransferOpts,
) -> Result<u64> {
    // `MODE E` goes ahead of the `REST`, as it always has.
    session.set_mode_extended()?;
    // An empty checkpoint (the attempt died before a block landed) has no
    // marker to send: the resumed transfer is a fresh one.
    if let Some(have) = have.filter(|h| h.total() > 0) {
        session.command(&Command::Rest(have.to_marker()))?;
    }
    let ranges = match have {
        Some(have) => have.missing(data.len() as u64),
        None => vec![(0, data.len() as u64)],
    };
    let stor = Command::Stor(remote_path.into());
    let (final_reply, sent) = send(session, &stor, opts, |streams, progress| {
        send_slices(streams, data, &ranges, opts.block_size, progress)
    })?;
    if final_reply.is_error() {
        return Err(ClientError::ServerError(final_reply));
    }
    sent
}

/// Upload and then verify end-to-end integrity with a server-side
/// `CKSM SHA256` (the belt-and-braces mode hosted services run).
pub fn put_bytes_verified(
    session: &mut ClientSession,
    remote_path: &str,
    data: &[u8],
    opts: &TransferOpts,
) -> Result<u64> {
    let sent = put_bytes(session, remote_path, data, opts)?;
    let remote = session.cksm(remote_path, 0, None)?;
    let local = ig_crypto::encode::hex_encode(&ig_crypto::Sha256::digest(data));
    if remote != local {
        return Err(ClientError::Integrity(format!(
            "checksum mismatch after upload: server {remote}, local {local}"
        )));
    }
    Ok(sent)
}

/// Outcome of a third-party transfer attempt.
#[derive(Debug)]
pub struct ThirdPartyOutcome {
    /// Final reply from the receiving (STOR) endpoint.
    pub dst_reply: Reply,
    /// Final reply from the sending (RETR) endpoint.
    pub src_reply: Reply,
    /// Byte ranges the receiver confirmed durable (from 111 markers) —
    /// the checkpoint Globus Online restarts from (§VI-B).
    pub checkpoint: ByteRanges,
    /// Count of 112 performance markers observed from the sender.
    pub perf_markers: usize,
    /// The parsed 112-marker series in arrival order: each entry carries
    /// the sender's cumulative stripe byte count, so the series is the
    /// transfer's live progress curve.
    pub progress: Vec<PerfMarker>,
}

impl ThirdPartyOutcome {
    /// Did both ends complete?
    pub fn is_success(&self) -> bool {
        self.dst_reply.is_success() && self.src_reply.is_success()
    }
}

/// Mediate a third-party transfer: `src_path` on the `src` session's
/// server flows *directly* to `dst_path` on the `dst` session's server
/// (§VII: "the data flows directly between two remote sites").
///
/// `resume_from` seeds both ends with a restart marker so only missing
/// ranges move. Transport-level failures return `Err`; protocol-level
/// failures (DCAU rejection, mid-transfer crash) return `Ok` with error
/// replies inside so callers can inspect the checkpoint and retry.
pub fn third_party(
    src: &mut ClientSession,
    src_path: &str,
    dst: &mut ClientSession,
    dst_path: &str,
    opts: &TransferOpts,
    resume_from: Option<&ByteRanges>,
) -> Result<ThirdPartyOutcome> {
    src.set_mode_extended()?;
    dst.set_mode_extended()?;
    if src.parallelism != opts.parallelism {
        src.set_parallelism(opts.parallelism)?;
    }
    if let Some(have) = resume_from.filter(|h| h.total() > 0) {
        src.command(&Command::Rest(have.to_marker()))?;
        dst.command(&Command::Rest(have.to_marker()))?;
    }
    // Receiver listens; sender connects (§IIC). Striped receivers return
    // one listener per stripe via SPAS; the sender gets them all in SPOR.
    if opts.striped {
        let addrs = dst.spas()?;
        src.command(&Command::Spor(addrs))?;
    } else {
        let addr = dst.pasv()?;
        src.command(&Command::Port(addr))?;
    }
    dst.send_cmd(&Command::Stor(dst_path.into()))?;
    let dst_opening = dst.read_reply()?;
    if !dst_opening.is_preliminary() {
        // Receiver refused outright (e.g. access denied).
        return Ok(ThirdPartyOutcome {
            dst_reply: dst_opening,
            src_reply: Reply::new(226, "not started"),
            checkpoint: resume_from.cloned().unwrap_or_default(),
            perf_markers: 0,
            progress: Vec::new(),
        });
    }
    src.send_cmd(&Command::Retr(src_path.into()))?;
    let mut perf_markers = 0usize;
    let mut progress = Vec::new();
    let src_obs = Arc::clone(&src.config.obs);
    let src_reply = read_until_final(src, |r| {
        if r.code == 112 {
            perf_markers += 1;
            if let Some(m) = opts.observe_marker(&src_obs, r) {
                progress.push(m);
            }
        }
    })?;
    let mut checkpoint = resume_from.cloned().unwrap_or_default();
    let dst_reply = read_until_final(dst, |r| {
        if r.code == 111 {
            if let Ok(m) = RestartMarker::from_reply(r) {
                checkpoint = m.ranges;
            }
        }
    })?;
    Ok(ThirdPartyOutcome { dst_reply, src_reply, checkpoint, perf_markers, progress })
}

/// Outcome of a directory-stream transfer attempt (PUT or GET side).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirTransferOutcome {
    /// Walk entries confirmed complete at the destination, cumulative
    /// across resumed attempts — the next attempt's skip count.
    pub entries_done: u64,
    /// Total walk entries in the tree when known: PUT walks the local
    /// tree up front; GET learns the total once the stream completes
    /// (0 while unknown).
    pub entries_total: u64,
    /// The whole tree arrived and every per-file checksum verified.
    pub complete: bool,
    /// Attempts spent (1 unless a retry wrapper resumed).
    pub attempts: u32,
}

/// First integer in a reply's text — the entry count the server's
/// `226 Directory stream complete (<n> entries).` and
/// `426 Directory stream failed after <n> entries: …` replies carry.
fn parse_entry_count(reply: &Reply) -> Option<u64> {
    let digits: String = reply
        .text()
        .chars()
        .skip_while(|c| !c.is_ascii_digit())
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Upload the whole tree under `local_root` (from `local` storage) to
/// `remote_root` as one streamed `ESTO DIR` transfer: every file and
/// directory flows over a single MODE E data-channel setup instead of
/// paying per-file control round-trips and DCAU handshakes.
pub fn put_dir(
    session: &mut ClientSession,
    local: &Arc<dyn Dsi>,
    local_root: &str,
    remote_root: &str,
    opts: &TransferOpts,
) -> Result<DirTransferOutcome> {
    put_dir_resume(session, local, local_root, remote_root, 0, opts)
}

/// [`put_dir`] resuming at walk entry `skip` — the `entries_done` a
/// previous failed attempt reported. Protocol-level failures (the
/// server's 426 after a mid-stream fault) return `Ok` with
/// `complete: false` and the new cumulative `entries_done`; only
/// control-channel/transport failures are `Err`.
pub fn put_dir_resume(
    session: &mut ClientSession,
    local: &Arc<dyn Dsi>,
    local_root: &str,
    remote_root: &str,
    skip: u64,
    opts: &TransferOpts,
) -> Result<DirTransferOutcome> {
    let user = UserContext::superuser();
    let total =
        ig_server::dsi::walk(local.as_ref(), &user, local_root).map_err(ClientError::from)?.len()
            as u64;
    if skip > total {
        return Err(ClientError::Data(format!(
            "resume skip {skip} beyond the local tree's {total} entries"
        )));
    }
    let esto = Command::Esto { module: "DIR".into(), args: remote_root.into() };
    // The final reply carries the server's entry count, i.e. the resume
    // point: it is the ground truth, whatever our own send made of it.
    let (final_reply, _) = send(session, &esto, opts, |streams, progress| {
        send_dir(streams, local, &user, local_root, skip, opts.block_size, progress, &mut || Ok(()))
    })?;
    // A success means the server decoded the whole stream and verified
    // every checksum; its verdict outranks any local send hiccup.
    let complete = final_reply.is_success();
    let entries_done =
        if complete { total } else { skip + parse_entry_count(&final_reply).unwrap_or(0) };
    Ok(DirTransferOutcome { entries_done, entries_total: total, complete, attempts: 1 })
}

/// Download the whole tree under `remote_root` into `local` storage at
/// `local_root` as one streamed `ERET DIR` transfer.
pub fn get_dir(
    session: &mut ClientSession,
    local: &Arc<dyn Dsi>,
    local_root: &str,
    remote_root: &str,
    opts: &TransferOpts,
) -> Result<DirTransferOutcome> {
    get_dir_resume(session, local, local_root, remote_root, 0, opts)
}

/// [`get_dir`] resuming at walk entry `skip`: the server streams the
/// tree starting at that entry, and every *complete* entry that arrives
/// is expanded — a fault mid-file never leaves a partial file, so
/// `entries_done` is always a safe next skip.
pub fn get_dir_resume(
    session: &mut ClientSession,
    local: &Arc<dyn Dsi>,
    local_root: &str,
    remote_root: &str,
    skip: u64,
    opts: &TransferOpts,
) -> Result<DirTransferOutcome> {
    let eret = Command::Eret { module: "DIR".into(), args: format!("{skip} {remote_root}") };
    // The decoder's verdict below outranks the transfer's own. Expand the
    // complete-entry prefix no matter how the stream ended: holes left by
    // lost blocks fail a header magic or trailer checksum and stop the
    // decoder at the last complete entry, never mid-file.
    let (_, staged, _) = receive(session, &eret, 0, opts)?;
    let user = UserContext::superuser();
    let out = ig_server::dsi::expand_stream(local.as_ref(), &user, local_root, &staged)
        .map_err(ClientError::from)?;
    let complete = out.finished && out.error.is_none();
    let done = skip + out.entries;
    Ok(DirTransferOutcome {
        entries_done: done,
        entries_total: if complete { done } else { 0 },
        complete,
        attempts: 1,
    })
}

/// Drive [`put_dir_resume`] under a [`RetryPolicy`], making a fresh
/// session per attempt (mid-transfer faults can take the control channel
/// with them) and resuming from the last confirmed entry count. The
/// skip is monotone: a failed attempt can only move it forward.
pub fn put_dir_with_retry(
    mut make_session: impl FnMut() -> Result<ClientSession>,
    local: &Arc<dyn Dsi>,
    local_root: &str,
    remote_root: &str,
    opts: &TransferOpts,
    policy: &RetryPolicy,
) -> Result<DirTransferOutcome> {
    retry_dir(policy, |skip| {
        let mut session = make_session()?;
        let out = put_dir_resume(&mut session, local, local_root, remote_root, skip, opts);
        let _ = session.quit();
        out
    })
}

/// Drive [`get_dir_resume`] under a [`RetryPolicy`] with a fresh session
/// per attempt; see [`put_dir_with_retry`].
pub fn get_dir_with_retry(
    mut make_session: impl FnMut() -> Result<ClientSession>,
    local: &Arc<dyn Dsi>,
    local_root: &str,
    remote_root: &str,
    opts: &TransferOpts,
    policy: &RetryPolicy,
) -> Result<DirTransferOutcome> {
    retry_dir(policy, |skip| {
        let mut session = make_session()?;
        let out = get_dir_resume(&mut session, local, local_root, remote_root, skip, opts);
        let _ = session.quit();
        out
    })
}

/// The shared file-granular retry loop: run one attempt at the current
/// skip, advance the skip monotonically from the outcome, stop on
/// completion or an exhausted budget.
fn retry_dir(
    policy: &RetryPolicy,
    mut attempt_at: impl FnMut(u64) -> Result<DirTransferOutcome>,
) -> Result<DirTransferOutcome> {
    let mut skip = 0u64;
    let run = policy.run(|attempts| match attempt_at(skip) {
        Ok(out) if out.complete => Ok(DirTransferOutcome { attempts, ..out }),
        Ok(out) => {
            skip = skip.max(out.entries_done);
            Err(Ok(DirTransferOutcome {
                entries_done: skip,
                entries_total: 0,
                complete: false,
                attempts,
            }))
        }
        Err(e) => Err(Err(e)),
    });
    budget_spent("directory transfer", run)
}

/// What a retried transfer answers once [`RetryPolicy::run`] gives up:
/// the last attempt's own result (an incomplete outcome or its error),
/// or a timeout when the overall deadline cut in first.
fn budget_spent<T>(what: &str, run: std::result::Result<T, RetryError<Result<T>>>) -> Result<T> {
    match run {
        Ok(done) => Ok(done),
        Err(RetryError::Exhausted { last, .. }) => last,
        Err(RetryError::DeadlineExceeded { attempts, .. }) => Err(ClientError::Timeout(format!(
            "{what}: overall deadline exceeded after {attempts} attempt(s)"
        ))),
    }
}

/// Fetch many small files over one session with control-channel
/// pipelining on one kept data channel: the first file of the call opens
/// the channel (or re-arms the one an earlier call left), then each window
/// of `RETR`s is sent before any of its replies is read, and the files are
/// read back to back off that one connection in reply order — command
/// latency overlaps and no file but the first pays a connect or a DCAU
/// handshake (the `PIPE` declaration tells the server the window in play).
/// Files are returned in request order.
///
/// A refused file, or one that arrived shorter than its own 150 said
/// ([`ClientError::Truncated`], naming it), fails the call with the first
/// such error, but only after every reply of its window has been read, so
/// the session stays in step and usable.
pub fn get_files_pipelined(
    session: &mut ClientSession,
    remote_paths: &[&str],
    window: usize,
    opts: &TransferOpts,
) -> Result<Vec<Vec<u8>>> {
    let window = window.clamp(1, 64);
    // One stream per file, whatever `opts` says: the files are small.
    let opts = &opts.clone().parallel(1);
    session.set_mode_extended()?;
    if session.parallelism != 1 {
        session.set_parallelism(1)?;
    }
    session.command(&Command::Pipe(window as u32))?;
    let stack = client_data_stack(session, opts);
    let shape = channel_shape(Flow::Receive, opts);
    // No streams: nothing was kept, or a transfer failed on them.
    let now = session.config.clock.now();
    let mut channel =
        CachedChannels::rearm(&mut session.channels, &shape, &stack, now).unwrap_or_default();
    // With nothing kept, the server dials this listener once, for the
    // first file it can send; one it refuses leaves it to the next.
    let mut listener = None;
    if channel.is_empty() {
        listener = Some(listen_and_port(session)?);
    }
    let mut out = Vec::with_capacity(remote_paths.len());
    // The first thing to go wrong; the rest of its window is still read.
    let mut failed: Option<ClientError> = None;
    for chunk in remote_paths.chunks(window) {
        // The whole window goes out before any reply is read.
        for path in chunk {
            session.send_cmd(&Command::Retr((*path).into()))?;
        }
        for path in chunk {
            // After a 426 the server has dropped its end; what is left of
            // the window answers 425 and is drained like any refusal.
            let opening = match &listener {
                Some(l) => accept_streams(session, l, &stack, opts, &mut channel)?,
                None => opened(session.read_reply()?),
            };
            let fetched = match opening {
                Ok(opening) => {
                    listener = None;
                    let streams = std::mem::take(&mut channel);
                    let (kept, landed, verdict) = receive_file(session, opts, streams, 0)?;
                    channel = kept.unwrap_or_default();
                    // No `SIZE` can be put between a window's replies, and a
                    // server that takes `PIPE` announces every file's length.
                    verdict.and_then(|()| match opening.announced_bytes() {
                        Some(announced) => whole(path, landed, announced),
                        None => Err(ClientError::UnexpectedReply {
                            expected: "150 ... (<n> bytes)",
                            got: opening,
                        }),
                    })
                }
                Err(refused) => Err(refused),
            };
            match fetched {
                Ok(data) => out.push(data),
                Err(e) => {
                    failed.get_or_insert(e);
                }
            }
        }
    }
    if !channel.is_empty() {
        session.channels = CachedChannels::keep(channel, shape, stack);
    }
    match failed {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// Third-party transfer with checkpoint restart under a [`RetryPolicy`]:
/// each failed attempt's 111-marker checkpoint seeds the next attempt's
/// `REST`, so only missing ranges move again (§VI-B's recovery loop).
///
/// Transport errors (`Err` from [`third_party`]) also consume an
/// attempt: the sessions may still be usable (e.g. a data-channel
/// timeout), and if they are not, the next attempt fails the same way
/// and the budget runs out. Backoff sleeps honour the policy's overall
/// deadline.
pub fn third_party_with_retry(
    src: &mut ClientSession,
    src_path: &str,
    dst: &mut ClientSession,
    dst_path: &str,
    opts: &TransferOpts,
    resume_from: Option<&ByteRanges>,
    policy: &RetryPolicy,
) -> Result<ThirdPartyOutcome> {
    let mut checkpoint = resume_from.cloned();
    let run = policy.run(|_| {
        match third_party(src, src_path, dst, dst_path, opts, checkpoint.as_ref()) {
            Ok(outcome) if outcome.is_success() => Ok(outcome),
            Ok(outcome) => {
                // Restart from whatever the receiver confirmed durable;
                // if the budget is spent the caller inspects the replies.
                checkpoint = Some(outcome.checkpoint.clone());
                Err(Ok(outcome))
            }
            Err(e) => Err(Err(e)),
        }
    });
    budget_spent("third-party transfer", run)
}
