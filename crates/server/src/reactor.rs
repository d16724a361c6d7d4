//! The server core: one epoll reactor thread multiplexing every control
//! session, plus an on-demand worker pool ([`crate::pool`]) executing
//! commands off the event loop.
//!
//! ## Why
//!
//! GridFTP control sessions are *mostly* idle: a client holds the
//! channel open across transfers, and hosted frontends hold thousands
//! of them. A thread per session parks one OS thread (stack, kernel
//! bookkeeping, scheduler load) on each; the reactor holds an idle
//! session as one registered fd plus a few hundred bytes of state, so a
//! single thread carries a C10K+ population, and only a session with a
//! command in flight occupies a worker thread.
//!
//! ## Ownership discipline (the part that keeps this safe)
//!
//! A session's socket is owned by the reactor (inside [`NbFramed`]).
//! Exactly one of two parties may *write* to it at any moment:
//!
//! * **idle** — the reactor: greeting at accept, staged bytes in the
//!   `NbFramed` out-buffer (the idle-timeout 421), flushed on
//!   writability;
//! * **busy** — the pool worker running the session's
//!   [`Session::process_message`], through a send-only [`WriterLink`]
//!   that blocks (via `poll(2)`) on a full socket buffer.
//!
//! The reactor never dispatches while staged bytes remain, never stages
//! bytes while a worker is busy, and never closes the fd while a worker
//! holds it (`closing` defers the close to job completion). Reads stay
//! with the reactor throughout — reads and writes on one socket are
//! independent directions, so buffering inbound frames while a worker
//! writes a reply is sound.
//!
//! Commands of one session run strictly in arrival order: the reactor
//! dispatches at most one frame per session at a time and parks the
//! rest in a per-session queue, so a pipelining client reads its replies
//! in the order it wrote the commands (`tests/core_differential.rs`).
//!
//! ## Determinism
//!
//! Session RNG seeds are assigned in *accept order* from one counter,
//! and the reactor emits no stable trace events of its own (metrics and
//! unstable events only), so a seeded chaos run replays byte-identically.

use crate::config::ServerConfig;
use crate::error::{Result, ServerError};
use crate::pool::WorkerPool;
use crate::session::{LoopControl, Session};
use ig_protocol::Reply;
use ig_xio::link::write_frame;
use ig_xio::{wait_writable, DeadlineWheel, Epoll, Interest, Link, NbFramed, WakeFd};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice};
use std::mem::ManuallyDrop;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, FromRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const FIRST_SESSION_TOKEN: u64 = 2;

/// Idle-timeout wheel granularity. Control idle policies are
/// second-scale; 100ms ticks keep the sweep cheap at 10k+ sessions.
const WHEEL_TICK: Duration = Duration::from_millis(100);
const WHEEL_SLOTS: usize = 1024;

/// How long the reactor waits for in-flight jobs at shutdown.
const SHUTDOWN_DRAIN: Duration = Duration::from_secs(5);

// ---------------------------------------------------------------------------
// WriterLink: the send-only Link a pool worker drives
// ---------------------------------------------------------------------------

/// A send-only [`Link`] over a *borrowed* socket fd.
///
/// `Session::process_message` only ever sends on the control link (all
/// receiving happens in the reactor), so workers get a writer that
/// speaks the same length-framed wire format as [`ig_xio::TcpLink`].
/// The fd is nonblocking (that flag lives on the file description the
/// reactor configured), so a full socket buffer surfaces as
/// `WouldBlock`; the worker then parks in `poll(2)` up to the stall
/// deadline rather than spinning.
struct WriterLink {
    /// Non-owning: `ManuallyDrop` suppresses the close-on-drop; the
    /// reactor's `NbFramed` owns the fd and outlives this link (the
    /// entry is never removed while its worker is busy).
    stream: ManuallyDrop<TcpStream>,
    stall: Duration,
}

impl WriterLink {
    /// Safety: `fd` must remain open for the lifetime of the link —
    /// guaranteed by the reactor's never-close-while-busy rule.
    unsafe fn from_raw(fd: RawFd, stall: Duration) -> WriterLink {
        WriterLink { stream: ManuallyDrop::new(TcpStream::from_raw_fd(fd)), stall }
    }
}

impl Link for WriterLink {
    fn send(&mut self, data: &[u8]) -> io::Result<()> {
        let (fd, stall) = (self.stream.as_raw_fd(), self.stall);
        write_frame(&self.stream, &[IoSlice::new(data)], || {
            if wait_writable(fd, stall)? {
                Ok(())
            } else {
                Err(io::Error::new(io::ErrorKind::TimedOut, "control send stalled"))
            }
        })
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "reactor control links are send-only; receives happen on the event loop",
        ))
    }

    fn close(&mut self) -> io::Result<()> {
        Ok(()) // the reactor owns the fd; closing is its decision
    }

    fn send_would_block(&self) -> bool {
        // A socket `poll` cannot vouch for takes the send, which reports it.
        !wait_writable(self.stream.as_raw_fd(), Duration::ZERO).unwrap_or(true)
    }
}

// ---------------------------------------------------------------------------
// Jobs
// ---------------------------------------------------------------------------

/// One command frame travelling to a pool worker; the session machine
/// and its writer travel along and come back in the [`Done`].
struct Job {
    token: u64,
    machine: Session<StdRng>,
    link: Box<dyn Link>,
    frame: Vec<u8>,
}

struct Done {
    token: u64,
    machine: Session<StdRng>,
    link: Box<dyn Link>,
    result: Result<LoopControl>,
}

// ---------------------------------------------------------------------------
// Per-session reactor state
// ---------------------------------------------------------------------------

struct Entry {
    conn: NbFramed,
    /// `None` while a worker holds the machine.
    machine: Option<Session<StdRng>>,
    /// `None` while a worker holds the writer.
    wlink: Option<Box<dyn Link>>,
    /// Complete frames awaiting dispatch (pipelined commands).
    pending: VecDeque<Vec<u8>>,
    busy: bool,
    /// Tear down as soon as the worker returns / staged bytes flush.
    closing: bool,
    /// Last interest registered with epoll (avoids redundant `ctl`s).
    interest: Interest,
}

// ---------------------------------------------------------------------------
// The reactor
// ---------------------------------------------------------------------------

/// Spawn the reactor thread; the returned fd wakes it (after `stop` is
/// set, to shut it down). Thread-spawn failure is a typed error.
pub(crate) fn spawn(
    listener: TcpListener,
    config: Arc<ServerConfig>,
    seed: u64,
    stop: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
) -> Result<Arc<WakeFd>> {
    let epoll = Epoll::new()?;
    let wake = Arc::new(WakeFd::new()?);
    listener.set_nonblocking(true)?;
    epoll.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
    epoll.add(wake.raw_fd(), TOKEN_WAKE, Interest::READ)?;

    let (done_tx, done_rx) = channel::<Done>();
    let pool = {
        let wake = Arc::clone(&wake);
        WorkerPool::new(move |mut job: Job| {
            let result = job.machine.process_message(&mut job.link, job.frame);
            let _ = done_tx.send(Done {
                token: job.token,
                machine: job.machine,
                link: job.link,
                result,
            });
            wake.wake();
        })
    };

    let sessions_held = config.obs.metrics().gauge("server.sessions_held");
    let wakeups = config.obs.metrics().counter("server.reactor_wakeups");
    let spawn_failures = config.obs.metrics().counter("server.spawn_failures");
    let reactor = Reactor {
        pool,
        entries: HashMap::new(),
        epoll,
        wake: Arc::clone(&wake),
        listener,
        seed,
        stop,
        draining,
        wheel: DeadlineWheel::new(WHEEL_TICK, WHEEL_SLOTS),
        done_rx,
        next_token: FIRST_SESSION_TOKEN,
        sessions_held,
        wakeups,
        spawn_failures,
        config,
    };
    std::thread::Builder::new()
        .name("ig-reactor".into())
        .spawn(move || reactor.run())
        .map_err(|e| ServerError::Spawn(format!("reactor thread: {e}")))?;
    Ok(wake)
}

struct Reactor {
    // Field order is load-bearing: `pool` drops (and joins its workers,
    // which hold raw fds into `entries`' sockets) before `entries`.
    pool: WorkerPool<Job>,
    entries: HashMap<u64, Entry>,
    epoll: Epoll,
    wake: Arc<WakeFd>,
    listener: TcpListener,
    /// Next session's RNG seed: one per accepted connection.
    seed: u64,
    stop: Arc<AtomicBool>,
    /// Drain in progress: shed new connections, keep serving old ones.
    draining: Arc<AtomicBool>,
    wheel: DeadlineWheel,
    done_rx: Receiver<Done>,
    next_token: u64,
    sessions_held: Arc<ig_obs::Gauge>,
    wakeups: Arc<ig_obs::Counter>,
    spawn_failures: Arc<ig_obs::Counter>,
    config: Arc<ServerConfig>,
}

impl Reactor {
    fn run(mut self) {
        let mut events = Vec::with_capacity(256);
        loop {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            events.clear();
            if self.epoll.wait(&mut events, self.wheel.next_timeout()).is_err() {
                break; // epoll itself failing is unrecoverable
            }
            self.wakeups.inc();
            for i in 0..events.len() {
                let ev = events[i];
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => self.wake.drain(),
                    token => self.session_ready(token, ev.readable, ev.writable, ev.error),
                }
            }
            self.drain_done();
            let mut expired = Vec::new();
            self.wheel.expire(Instant::now(), &mut expired);
            for token in expired {
                self.idle_expired(token);
            }
            self.sessions_held.set(self.entries.len() as f64);
        }
        self.shutdown_drain();
        // Move-destructure to force drop order explicitly even if the
        // struct layout changes: workers join before sockets close.
        let Reactor { pool, entries, sessions_held, config, .. } = self;
        drop(pool);
        drop(entries);
        sessions_held.set(0.0);
        config.obs.dump_if_env();
    }

    // -- accept ------------------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.stop.load(Ordering::SeqCst) {
                        return;
                    }
                    if self.draining.load(Ordering::SeqCst) {
                        // Draining: shed new connections (the socket
                        // drop is the refusal) while in-flight transfers
                        // quiesce.
                        drop(stream);
                        continue;
                    }
                    if self.register(stream).is_err() {
                        // Registration failure drops the connection; the
                        // reactor itself stays healthy.
                        self.spawn_failures.inc();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn register(&mut self, stream: TcpStream) -> Result<()> {
        let token = self.next_token;
        self.next_token += 1;
        let conn = NbFramed::new(stream)?;
        // Accept-order seeding, so seeded runs replay identically.
        let mut machine =
            Session::new(Arc::clone(&self.config), StdRng::seed_from_u64(self.seed));
        self.seed = self.seed.wrapping_add(1);
        let mut wlink: Box<dyn Link> = Box::new(unsafe {
            WriterLink::from_raw(conn.stream().as_raw_fd(), self.config.live().stall_timeout)
        });
        // The banner goes out through the worker-side writer: the socket
        // is fresh so this cannot meaningfully block the loop.
        machine.greet(&mut wlink)?;
        self.epoll.add(conn.stream().as_raw_fd(), token, Interest::READ)?;
        if let Some(idle) = self.config.live().control_idle_timeout {
            self.wheel.schedule(token, Instant::now() + idle);
        }
        self.entries.insert(
            token,
            Entry {
                conn,
                machine: Some(machine),
                wlink: Some(wlink),
                pending: VecDeque::new(),
                busy: false,
                closing: false,
                interest: Interest::READ,
            },
        );
        Ok(())
    }

    // -- per-session readiness ---------------------------------------------

    fn session_ready(&mut self, token: u64, readable: bool, writable: bool, error: bool) {
        let Some(entry) = self.entries.get_mut(&token) else { return };
        if error {
            self.close_session(token);
            return;
        }
        if readable {
            if entry.conn.fill().is_err() {
                self.close_session(token);
                return;
            }
            loop {
                match entry.conn.next_frame() {
                    Ok(Some(frame)) => entry.pending.push_back(frame),
                    Ok(None) => break,
                    Err(_) => {
                        // Oversized frame announcement: protocol
                        // violation, drop the connection.
                        self.close_session(token);
                        return;
                    }
                }
            }
        }
        if writable {
            match entry.conn.flush() {
                Ok(true) if entry.closing && !entry.busy => {
                    self.close_session(token);
                    return;
                }
                Ok(_) => {}
                Err(_) => {
                    self.close_session(token);
                    return;
                }
            }
        }
        self.try_dispatch(token);
        self.sync_interest(token);
    }

    /// Hand the next pending frame to the pool if the session is idle
    /// and nothing is staged for write. Also the EOF close point: a
    /// drained, idle session whose peer half-closed goes away here.
    fn try_dispatch(&mut self, token: u64) {
        let Some(entry) = self.entries.get_mut(&token) else { return };
        if entry.busy || entry.closing || entry.conn.wants_write() {
            return;
        }
        let Some(frame) = entry.pending.pop_front() else {
            if entry.conn.saw_eof() {
                self.close_session(token);
            }
            return;
        };
        let machine = entry.machine.take().expect("idle entry holds machine");
        let link = entry.wlink.take().expect("idle entry holds link");
        entry.busy = true;
        self.wheel.cancel(token);
        if let Err((returned, _)) = self.pool.submit(Job { token, machine, link, frame }) {
            // The OS refused a worker thread. A queued job runs when a
            // worker frees up; one the pool could not keep comes back,
            // and the session is told to go away rather than left to
            // wait on a frame nobody will run.
            self.spawn_failures.inc();
            if let Some(job) = returned {
                entry.busy = false;
                entry.machine = Some(job.machine);
                entry.wlink = Some(job.link);
                self.close_with_421(token, "Service not available: out of threads; closing.");
            }
        }
    }

    fn drain_done(&mut self) {
        while let Ok(done) = self.done_rx.try_recv() {
            self.job_finished(done);
        }
    }

    fn job_finished(&mut self, done: Done) {
        let Some(entry) = self.entries.get_mut(&done.token) else { return };
        entry.busy = false;
        entry.machine = Some(done.machine);
        entry.wlink = Some(done.link);
        match done.result {
            Ok(LoopControl::Continue) if !entry.closing => {
                if let Some(idle) = self.config.live().control_idle_timeout {
                    self.wheel.schedule(done.token, Instant::now() + idle);
                }
                self.try_dispatch(done.token);
                self.sync_interest(done.token);
            }
            // QUIT (221 already sent), a session-fatal error (421
            // already sent, best effort), or a close that was deferred
            // while the worker was busy.
            _ => self.close_session(done.token),
        }
    }

    // -- timers ------------------------------------------------------------

    fn idle_expired(&mut self, token: u64) {
        let Some(entry) = self.entries.get_mut(&token) else { return };
        if entry.busy {
            return; // raced with a dispatch; the rearm happens on done
        }
        self.close_with_421(token, "Control connection idle too long; closing.");
    }

    /// Stage a final 421 on an idle session and close it once flushed.
    fn close_with_421(&mut self, token: u64, text: &str) {
        let Some(entry) = self.entries.get_mut(&token) else { return };
        entry.conn.queue_frame(Reply::new(421, text).to_wire().as_bytes());
        entry.closing = true;
        match entry.conn.flush() {
            Ok(true) => self.close_session(token),
            Ok(false) => self.sync_interest(token),
            Err(_) => self.close_session(token),
        }
    }

    // -- bookkeeping -------------------------------------------------------

    fn sync_interest(&mut self, token: u64) {
        let Some(entry) = self.entries.get_mut(&token) else { return };
        let want = Interest {
            readable: !entry.closing,
            writable: entry.conn.wants_write() && !entry.busy,
        };
        if want != entry.interest
            && self.epoll.modify(entry.conn.stream().as_raw_fd(), token, want).is_ok()
        {
            entry.interest = want;
        }
    }

    fn close_session(&mut self, token: u64) {
        let busy = self.entries.get(&token).map(|e| e.busy);
        match busy {
            Some(false) => {
                if let Some(entry) = self.entries.remove(&token) {
                    let _ = self.epoll.delete(entry.conn.stream().as_raw_fd());
                    // Entry drop closes the socket; Session drop (if the
                    // machine is home) decrements `sessions_active`.
                }
                self.wheel.cancel(token);
            }
            Some(true) => {
                // A worker holds the fd: defer to job completion.
                if let Some(entry) = self.entries.get_mut(&token) {
                    entry.closing = true;
                }
            }
            None => {}
        }
    }

    /// Give in-flight jobs a bounded window to finish so their replies
    /// (e.g. a final 221) reach the wire before sockets close.
    fn shutdown_drain(&mut self) {
        let deadline = Instant::now() + SHUTDOWN_DRAIN;
        while self.entries.values().any(|e| e.busy) {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            match self.done_rx.recv_timeout(left) {
                Ok(done) => self.job_finished(done),
                Err(_) => break,
            }
        }
    }
}
