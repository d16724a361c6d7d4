//! Reliable-UDP data driver (MODE E over datagrams).
//!
//! GridFTP's striped TCP wins on clean fast paths, but on lossy high-BDP
//! routes a loss-agnostic, rate-based sender recovers the bandwidth that
//! Reno's `sqrt(3/2p)` law throws away. This module provides that second
//! transport: a blocking [`Link`] over `std::net::UdpSocket` with
//!
//! * a 20-byte datagram header (magic / kind / flags / seq / len / FNV-1a
//!   checksum) — corrupt datagrams are dropped and recovered like losses;
//! * cumulative ACKs plus NAK-triggered retransmit with an RTO backstop;
//! * a sender window driven by any [`ig_netsim::CongestionControl`]
//!   (Reno / CUBIC / BBR — BBR also paces via a token bucket);
//! * a bounded receive reordering buffer and frame reassembly, so the
//!   byte stream a [`Link`] consumer sees is identical to TCP's;
//! * an optional [`DatagramChaos`] stage that deterministically drops,
//!   duplicates, reorders or bit-flips *first transmissions* (never
//!   retransmits), so recovery is exercised under seeded replay;
//! * obs counters `udp.retransmits` / `udp.naks` / `udp.corrupt_drops` /
//!   `udp.chaos_faults` and the gauge `udp.pacing_rate_bps`.
//!
//! ## Wire format
//!
//! ```text
//! 0        4      5      6              14      16         20
//! | magic  | kind | flag |     seq      |  len  | checksum | payload...
//! |  u32   |  u8  |  u8  |     u64      |  u16  |   u32    |
//! ```
//!
//! All integers big-endian. `checksum` is FNV-1a/32 over the header (with
//! the checksum field zeroed) followed by the payload. `seq` numbers
//! DATA datagrams; for ACK it carries the cumulative next-expected seq,
//! for HELLO/HELLO_ACK the connection token, for FIN the end-of-stream
//! fence (one past the last DATA seq).
//!
//! ## Handshake
//!
//! The listener owns one well-known socket. A client sends
//! `HELLO(token)` there; the listener binds a fresh per-connection
//! socket, `connect()`s it to the client, and answers from the
//! *listener* socket with `HELLO_ACK(token, payload = child port)`.
//! Retried HELLOs for a token it has already granted get the same port
//! again, so a lost HELLO_ACK never spawns a second connection.

use crate::link::{Link, MAX_FRAME};
use crate::retry::splitmix64;
use ig_netsim::cc::{CcAlgo, CongestionControl};
use ig_obs::{Counter, Gauge, Obs};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// "IGU1" — first field of every datagram.
pub const UDP_MAGIC: u32 = 0x4947_5531;
/// Fixed header size in bytes.
pub const UDP_HEADER_LEN: usize = 20;
/// Default datagram payload size: fits a 1500-byte MTU with headroom for
/// IP/UDP headers and tunnel overhead.
pub const UDP_DEFAULT_MSS: usize = 1200;

const KIND_DATA: u8 = 1;
const KIND_ACK: u8 = 2;
const KIND_NAK: u8 = 3;
const KIND_HELLO: u8 = 4;
const KIND_HELLO_ACK: u8 = 5;
const KIND_FIN: u8 = 6;
const KIND_FIN_ACK: u8 = 7;

/// Set on the last DATA datagram of a frame.
const FLAG_FRAME_END: u8 = 0x01;

/// At most this many seqs per NAK datagram (64 x 8 B fits any MTU).
const MAX_NAK_SEQS: usize = 64;
/// A NAK for the same seq is not repeated within this interval.
const RENAK_AFTER: Duration = Duration::from_millis(30);
/// Out-of-order datagrams buffered before the link declares the peer
/// insane (typed `InvalidData`).
const MAX_REORDER: usize = 16 * 1024;
/// Hard ceiling on the sender window in segments, independent of the
/// congestion controller (bounds receiver gap scans and memory).
const MAX_WINDOW_SEGMENTS: f64 = 4096.0;
/// RTO retransmit batch size per pump.
const MAX_RTO_BURST: usize = 32;
/// A chaos-held (reordered) datagram is flushed after this long even if
/// no later datagram displaces it.
const HOLD_FLUSH_AFTER: Duration = Duration::from_millis(25);
/// RTT estimate used before the first sample.
const DEFAULT_RTT: Duration = Duration::from_millis(10);

// ---------------------------------------------------------------------------
// Wire encoding
// ---------------------------------------------------------------------------

/// FNV-1a/32 over the concatenation of `parts`: the IGU1 header checksum,
/// and the tree's one non-cryptographic fingerprint (E15's trace digest).
pub fn fnv1a(parts: &[&[u8]]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for part in parts {
        for &b in *part {
            h ^= u32::from(b);
            h = h.wrapping_mul(0x0100_0193);
        }
    }
    h
}

/// Encode one datagram. `payload.len()` must fit in u16.
fn encode_datagram(kind: u8, flags: u8, seq: u64, payload: &[u8]) -> Vec<u8> {
    debug_assert!(payload.len() <= u16::MAX as usize);
    let mut buf = Vec::with_capacity(UDP_HEADER_LEN + payload.len());
    buf.extend_from_slice(&UDP_MAGIC.to_be_bytes());
    buf.push(kind);
    buf.push(flags);
    buf.extend_from_slice(&seq.to_be_bytes());
    buf.extend_from_slice(&(payload.len() as u16).to_be_bytes());
    buf.extend_from_slice(&[0u8; 4]); // checksum placeholder
    buf.extend_from_slice(payload);
    let sum = fnv1a(&[&buf[..16], &[0u8; 4], payload]);
    buf[16..20].copy_from_slice(&sum.to_be_bytes());
    buf
}

struct Decoded<'a> {
    kind: u8,
    flags: u8,
    seq: u64,
    payload: &'a [u8],
}

/// Decode and verify one datagram; `None` if malformed or corrupt.
fn decode_datagram(raw: &[u8]) -> Option<Decoded<'_>> {
    if raw.len() < UDP_HEADER_LEN {
        return None;
    }
    if u32::from_be_bytes(raw[0..4].try_into().ok()?) != UDP_MAGIC {
        return None;
    }
    let kind = raw[4];
    let flags = raw[5];
    let seq = u64::from_be_bytes(raw[6..14].try_into().ok()?);
    let len = u16::from_be_bytes(raw[14..16].try_into().ok()?) as usize;
    if raw.len() != UDP_HEADER_LEN + len {
        return None;
    }
    let stored = u32::from_be_bytes(raw[16..20].try_into().ok()?);
    let payload = &raw[UDP_HEADER_LEN..];
    if fnv1a(&[&raw[..16], &[0u8; 4], payload]) != stored {
        return None;
    }
    Some(Decoded { kind, flags, seq, payload })
}

// ---------------------------------------------------------------------------
// Transport selection
// ---------------------------------------------------------------------------

/// Which driver carries a data channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DataTransport {
    /// Stream-mode TCP (the historical default).
    #[default]
    Tcp,
    /// Reliable-UDP MODE E ([`UdpLink`]).
    Udp,
}

impl DataTransport {
    /// Canonical lowercase label (used in `OPTS DATA` and configs).
    pub fn label(self) -> &'static str {
        match self {
            DataTransport::Tcp => "tcp",
            DataTransport::Udp => "udp",
        }
    }

    /// Parse a label, case-insensitively.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "tcp" => Some(DataTransport::Tcp),
            "udp" => Some(DataTransport::Udp),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic datagram chaos
// ---------------------------------------------------------------------------

/// Fault decided for one first-transmission DATA datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosFault {
    /// Deliver normally.
    Pass,
    /// Silently discard (recovered by NAK/RTO).
    Drop,
    /// Deliver twice.
    Duplicate,
    /// Hold back and deliver after the next datagram.
    Reorder,
    /// Flip one bit (receiver's checksum rejects it).
    BitFlip,
}

/// Seeded, per-datagram fault injection for [`UdpLink`].
///
/// The decision for transmission index `i` is a pure function of
/// `(seed, i)`, so a replay with the same seed injects the identical
/// fault pattern — the recovery path, retransmit counts and delivered
/// bytes are reproducible. Faults apply only to first transmissions of
/// DATA datagrams; control traffic and retransmits are exempt so every
/// injected fault is recoverable.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DatagramChaos {
    /// Replay seed.
    pub seed: u64,
    /// Probability of dropping a datagram.
    pub drop: f64,
    /// Probability of duplicating a datagram.
    pub duplicate: f64,
    /// Probability of reordering a datagram behind its successor.
    pub reorder: f64,
    /// Probability of flipping one bit.
    pub bitflip: f64,
}

impl DatagramChaos {
    /// Uniform fault mix at probability `p` each, seeded.
    pub fn uniform(seed: u64, p: f64) -> Self {
        DatagramChaos { seed, drop: p, duplicate: p, reorder: p, bitflip: p }
    }

    /// The fault for first-transmission index `index` (pure, replayable).
    pub fn fault_for(&self, index: u64) -> ChaosFault {
        let h = splitmix64(self.seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let draw = (h >> 11) as f64 / (1u64 << 53) as f64;
        let mut edge = self.drop;
        if draw < edge {
            return ChaosFault::Drop;
        }
        edge += self.duplicate;
        if draw < edge {
            return ChaosFault::Duplicate;
        }
        edge += self.reorder;
        if draw < edge {
            return ChaosFault::Reorder;
        }
        edge += self.bitflip;
        if draw < edge {
            return ChaosFault::BitFlip;
        }
        ChaosFault::Pass
    }

    /// Which bit of an `len`-byte datagram a BitFlip at `index` corrupts.
    pub fn flip_bit(&self, index: u64, len: usize) -> usize {
        debug_assert!(len > 0);
        (splitmix64(self.seed ^ index ^ 0xB17F) % (len as u64 * 8)) as usize
    }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Tunables for one UDP data channel.
#[derive(Clone)]
pub struct UdpConfig {
    /// Payload bytes per DATA datagram.
    pub mss: usize,
    /// Congestion controller for the sender window (default BBR — the
    /// pairing the crossover policy selects this transport for).
    pub cc: CcAlgo,
    /// Optional window cap in bytes (like `TcpParams::window_cap_bytes`).
    pub window_cap_bytes: Option<u64>,
    /// Send a cumulative ACK at least every N received DATA datagrams.
    pub ack_every: u32,
    /// Lower bound on the retransmission timeout.
    pub min_rto: Duration,
    /// Give up (typed `TimedOut`) after this long without ACK progress.
    pub stall_timeout: Duration,
    /// Overall HELLO/HELLO_ACK handshake budget.
    pub handshake_timeout: Duration,
    /// Deterministic fault injection on first DATA transmissions.
    pub chaos: Option<DatagramChaos>,
    /// Metrics sink for `udp.*` counters and the pacing gauge.
    pub obs: Option<Arc<Obs>>,
}

impl Default for UdpConfig {
    fn default() -> Self {
        UdpConfig {
            mss: UDP_DEFAULT_MSS,
            cc: CcAlgo::Bbr,
            window_cap_bytes: None,
            ack_every: 8,
            min_rto: Duration::from_millis(20),
            stall_timeout: Duration::from_secs(10),
            handshake_timeout: Duration::from_secs(2),
            chaos: None,
            obs: None,
        }
    }
}

impl std::fmt::Debug for UdpConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UdpConfig")
            .field("mss", &self.mss)
            .field("cc", &self.cc)
            .field("window_cap_bytes", &self.window_cap_bytes)
            .field("ack_every", &self.ack_every)
            .field("min_rto", &self.min_rto)
            .field("stall_timeout", &self.stall_timeout)
            .field("handshake_timeout", &self.handshake_timeout)
            .field("chaos", &self.chaos)
            .field("obs", &self.obs.is_some())
            .finish()
    }
}

impl UdpConfig {
    /// Select the congestion controller.
    pub fn with_cc(mut self, cc: CcAlgo) -> Self {
        self.cc = cc;
        self
    }

    /// Override the datagram payload size.
    pub fn with_mss(mut self, mss: usize) -> Self {
        assert!(mss > 0 && mss <= u16::MAX as usize - UDP_HEADER_LEN);
        self.mss = mss;
        self
    }

    /// Cap the sender window in bytes.
    pub fn with_window_cap(mut self, bytes: u64) -> Self {
        self.window_cap_bytes = Some(bytes);
        self
    }

    /// Inject deterministic datagram faults.
    pub fn with_chaos(mut self, chaos: DatagramChaos) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Attach a metrics sink.
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Override the no-progress deadline.
    pub fn with_stall_timeout(mut self, t: Duration) -> Self {
        self.stall_timeout = t;
        self
    }

    fn cap_segments(&self) -> f64 {
        self.window_cap_bytes
            .map(|b| (b as f64 / self.mss as f64).max(1.0))
            .unwrap_or(MAX_WINDOW_SEGMENTS)
            .min(MAX_WINDOW_SEGMENTS)
    }
}

struct UdpMetrics {
    retransmits: Arc<Counter>,
    naks: Arc<Counter>,
    corrupt_drops: Arc<Counter>,
    chaos_faults: Arc<Counter>,
    pacing_rate_bps: Arc<Gauge>,
}

impl UdpMetrics {
    fn new(obs: &Obs) -> Self {
        let m = obs.metrics();
        UdpMetrics {
            retransmits: m.counter("udp.retransmits"),
            naks: m.counter("udp.naks"),
            corrupt_drops: m.counter("udp.corrupt_drops"),
            chaos_faults: m.counter("udp.chaos_faults"),
            pacing_rate_bps: m.gauge("udp.pacing_rate_bps"),
        }
    }
}

// ---------------------------------------------------------------------------
// Listener
// ---------------------------------------------------------------------------

/// Passive side of the UDP handshake: one well-known socket that hands
/// each accepted connection its own `connect()`ed child socket.
pub struct UdpListener {
    sock: UdpSocket,
    cfg: UdpConfig,
    /// token -> child port already granted (dedups HELLO retries).
    /// Mutex so `accept` can take `&self` (listeners are held in shared
    /// vecs by the server session).
    granted: std::sync::Mutex<HashMap<u64, u16>>,
}

impl UdpListener {
    /// Bind the listener socket.
    pub fn bind(addr: SocketAddr, cfg: UdpConfig) -> io::Result<Self> {
        let sock = UdpSocket::bind(addr)?;
        Ok(UdpListener { sock, cfg, granted: std::sync::Mutex::new(HashMap::new()) })
    }

    /// The bound address clients should HELLO.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.sock.local_addr()
    }

    /// Wait up to `timeout` for one new connection.
    pub fn accept(&self, timeout: Duration) -> io::Result<UdpLink> {
        let deadline = Instant::now() + timeout;
        let mut buf = [0u8; 2048];
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "udp accept: no HELLO before deadline",
                ));
            }
            self.sock
                .set_read_timeout(Some(remaining.max(Duration::from_millis(1))))?;
            let (n, from) = match self.sock.recv_from(&mut buf) {
                Ok(v) => v,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    continue;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            let Some(dg) = decode_datagram(&buf[..n]) else { continue };
            if dg.kind != KIND_HELLO {
                continue;
            }
            let token = dg.seq;
            let already = self.granted.lock().expect("granted lock").get(&token).copied();
            if let Some(port) = already {
                // Retry of a HELLO we already answered: repeat the grant,
                // don't spawn a second connection.
                let ack = encode_datagram(KIND_HELLO_ACK, 0, token, &port.to_be_bytes());
                let _ = self.sock.send_to(&ack, from);
                continue;
            }
            let local_ip = self.sock.local_addr()?.ip();
            let child = UdpSocket::bind(SocketAddr::new(local_ip, 0))?;
            child.connect(from)?;
            let port = child.local_addr()?.port();
            self.granted.lock().expect("granted lock").insert(token, port);
            let ack = encode_datagram(KIND_HELLO_ACK, 0, token, &port.to_be_bytes());
            self.sock.send_to(&ack, from)?;
            return Ok(UdpLink::established(child, self.cfg.clone()));
        }
    }
}

/// So a server pump can sleep in one `poll(2)` until a HELLO is queued.
#[cfg(unix)]
impl std::os::unix::io::AsRawFd for UdpListener {
    fn as_raw_fd(&self) -> std::os::unix::io::RawFd {
        self.sock.as_raw_fd()
    }
}

impl std::fmt::Debug for UdpListener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UdpListener")
            .field("addr", &self.sock.local_addr().ok())
            .field("granted", &self.granted.lock().map(|g| g.len()).unwrap_or(0))
            .finish()
    }
}

// ---------------------------------------------------------------------------
// The link
// ---------------------------------------------------------------------------

struct Inflight {
    /// Fully encoded datagram, reusable for retransmission.
    buf: Vec<u8>,
    /// Payload bytes (what the window accounts).
    len: usize,
    sent_at: Instant,
    retx: u32,
}

/// Reliable-UDP [`Link`]: framed, ordered, congestion-controlled.
pub struct UdpLink {
    sock: UdpSocket,
    cfg: UdpConfig,
    cc: Box<dyn CongestionControl>,
    cap_segments: f64,
    metrics: Option<UdpMetrics>,

    // --- sender state ---
    next_seq: u64,
    inflight: BTreeMap<u64, Inflight>,
    inflight_bytes: usize,
    cum_acked: u64,
    srtt: Option<Duration>,
    /// Delivered payload bytes since the last controller tick.
    acked_since_tick: f64,
    last_cc_tick: Instant,
    /// `cc.on_loss` fires at most once until everything outstanding at
    /// the previous loss is acked (one multiplicative decrease per
    /// window, as TCP does).
    loss_epoch_end: u64,
    pace_tokens: f64,
    pace_refill_at: Instant,
    chaos_tx_index: u64,
    /// Datagram held back by a Reorder fault, and when it was held.
    held: Option<(Vec<u8>, Instant)>,
    fin_acked: bool,

    // --- receiver state ---
    rx_next: u64,
    rx_buffer: BTreeMap<u64, (u8, Vec<u8>)>,
    rx_frame: Vec<u8>,
    ready: VecDeque<Vec<u8>>,
    rx_since_ack: u32,
    last_ack_at: Instant,
    nak_sent_at: HashMap<u64, Instant>,
    /// FIN fence from the peer: EOF once `rx_next` reaches it.
    peer_fin: Option<u64>,

    closed: bool,
    recv_timeout: Option<Duration>,
}

static TOKEN_COUNTER: AtomicU64 = AtomicU64::new(0);

fn fresh_token(addr: &SocketAddr) -> u64 {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default()
        .as_nanos() as u64;
    let ctr = TOKEN_COUNTER.fetch_add(1, Ordering::Relaxed);
    splitmix64(nanos ^ ctr.rotate_left(32) ^ u64::from(addr.port()) ^ (u64::from(std::process::id()) << 40))
}

impl UdpLink {
    /// Active open: HELLO `addr`, follow the port grant, return the
    /// established link.
    pub fn connect(addr: SocketAddr, cfg: UdpConfig) -> io::Result<Self> {
        let bind: SocketAddr = if addr.is_ipv4() {
            "0.0.0.0:0".parse().expect("literal addr")
        } else {
            "[::]:0".parse().expect("literal addr")
        };
        let sock = UdpSocket::bind(bind)?;
        let token = fresh_token(&addr);
        let hello = encode_datagram(KIND_HELLO, 0, token, &[]);
        let attempts = 5u32;
        let per_attempt = cfg.handshake_timeout / attempts;
        let mut buf = [0u8; 2048];
        for _ in 0..attempts {
            sock.send_to(&hello, addr)?;
            let deadline = Instant::now() + per_attempt;
            loop {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    break;
                }
                sock.set_read_timeout(Some(remaining.max(Duration::from_millis(1))))?;
                let (n, from) = match sock.recv_from(&mut buf) {
                    Ok(v) => v,
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut =>
                    {
                        break;
                    }
                    Err(e)
                        if e.kind() == io::ErrorKind::Interrupted
                            || e.kind() == io::ErrorKind::ConnectionRefused
                            || e.kind() == io::ErrorKind::ConnectionReset =>
                    {
                        continue;
                    }
                    Err(e) => return Err(e),
                };
                if from.ip() != addr.ip() {
                    continue;
                }
                let Some(dg) = decode_datagram(&buf[..n]) else { continue };
                if dg.kind == KIND_HELLO_ACK && dg.seq == token && dg.payload.len() == 2 {
                    let port = u16::from_be_bytes([dg.payload[0], dg.payload[1]]);
                    sock.connect(SocketAddr::new(addr.ip(), port))?;
                    return Ok(UdpLink::established(sock, cfg));
                }
            }
        }
        Err(io::Error::new(
            io::ErrorKind::TimedOut,
            format!("udp handshake with {addr} timed out"),
        ))
    }

    fn established(sock: UdpSocket, cfg: UdpConfig) -> Self {
        let now = Instant::now();
        let cc = cfg.cc.build(10.0);
        let cap_segments = cfg.cap_segments();
        let metrics = cfg.obs.as_deref().map(UdpMetrics::new);
        UdpLink {
            sock,
            cc,
            cap_segments,
            metrics,
            cfg,
            next_seq: 0,
            inflight: BTreeMap::new(),
            inflight_bytes: 0,
            cum_acked: 0,
            srtt: None,
            acked_since_tick: 0.0,
            last_cc_tick: now,
            loss_epoch_end: 0,
            pace_tokens: 0.0,
            pace_refill_at: now,
            chaos_tx_index: 0,
            held: None,
            fin_acked: false,
            rx_next: 0,
            rx_buffer: BTreeMap::new(),
            rx_frame: Vec::new(),
            ready: VecDeque::new(),
            rx_since_ack: 0,
            last_ack_at: now,
            nak_sent_at: HashMap::new(),
            peer_fin: None,
            closed: false,
            recv_timeout: None,
        }
    }

    /// The local address of this connection's socket.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.sock.local_addr()
    }

    /// Retransmissions performed so far (also exported as
    /// `udp.retransmits` when obs is attached).
    pub fn srtt(&self) -> Option<Duration> {
        self.srtt
    }

    fn ensure_open(&self) -> io::Result<()> {
        if self.closed {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "udp link closed"));
        }
        Ok(())
    }

    fn rtt_estimate(&self) -> Duration {
        self.srtt.unwrap_or(DEFAULT_RTT)
    }

    fn rto(&self) -> Duration {
        (self.rtt_estimate() * 3).clamp(self.cfg.min_rto, Duration::from_secs(1))
    }

    fn window_bytes(&self) -> usize {
        let segs = self.cc.cwnd().min(self.cap_segments).min(MAX_WINDOW_SEGMENTS).max(1.0);
        (segs * self.cfg.mss as f64) as usize
    }

    // --- socket pumping -----------------------------------------------------

    /// Process every datagram already queued on the socket.
    fn drain_incoming(&mut self) -> io::Result<()> {
        self.sock.set_nonblocking(true)?;
        let mut buf = [0u8; 2048];
        let result = loop {
            match self.sock.recv(&mut buf) {
                Ok(n) => {
                    if let Err(e) = self.process_raw(&buf[..n]) {
                        break Err(e);
                    }
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    break Ok(());
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == io::ErrorKind::ConnectionRefused
                        || e.kind() == io::ErrorKind::ConnectionReset =>
                {
                    // ICMP unreachable from a peer that is gone or not yet
                    // up; reliability (RTO) decides whether that is fatal.
                    break Ok(());
                }
                Err(e) => break Err(e),
            }
        };
        self.sock.set_nonblocking(false)?;
        result
    }

    /// Block up to `wait` for one datagram, process it if it arrives.
    fn wait_one(&mut self, wait: Duration) -> io::Result<()> {
        self.sock
            .set_read_timeout(Some(wait.max(Duration::from_millis(1))))?;
        let mut buf = [0u8; 2048];
        match self.sock.recv(&mut buf) {
            Ok(n) => self.process_raw(&buf[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted
                    || e.kind() == io::ErrorKind::ConnectionRefused
                    || e.kind() == io::ErrorKind::ConnectionReset =>
            {
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    // --- datagram processing ------------------------------------------------

    fn process_raw(&mut self, raw: &[u8]) -> io::Result<()> {
        let Some(dg) = decode_datagram(raw) else {
            if let Some(m) = &self.metrics {
                m.corrupt_drops.inc();
            }
            return Ok(());
        };
        let (kind, flags, seq) = (dg.kind, dg.flags, dg.seq);
        // Borrowck: copy the payload out before touching &mut self state.
        let payload = dg.payload.to_vec();
        match kind {
            KIND_DATA => self.on_data(seq, flags, payload),
            KIND_ACK => {
                self.advance_cum(seq);
                Ok(())
            }
            KIND_NAK => {
                self.on_nak(&payload);
                Ok(())
            }
            KIND_FIN => {
                self.peer_fin = Some(seq);
                let ack = encode_datagram(KIND_FIN_ACK, 0, seq, &[]);
                let _ = self.sock.send(&ack);
                Ok(())
            }
            KIND_FIN_ACK => {
                self.fin_acked = true;
                Ok(())
            }
            // Stray handshake traffic on an established link: ignore.
            _ => Ok(()),
        }
    }

    fn on_data(&mut self, seq: u64, flags: u8, payload: Vec<u8>) -> io::Result<()> {
        if seq < self.rx_next {
            // Duplicate of something delivered: the peer may have missed
            // our ACK — re-ack immediately.
            self.send_ack()?;
            return Ok(());
        }
        if seq == self.rx_next {
            self.rx_next += 1;
            self.deliver(flags, payload);
            // Drain whatever became contiguous.
            while let Some(entry) = self.rx_buffer.remove(&self.rx_next) {
                self.rx_next += 1;
                self.deliver(entry.0, entry.1);
            }
            self.nak_sent_at.retain(|&s, _| s >= self.rx_next);
        } else {
            if self.rx_buffer.len() >= MAX_REORDER {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("udp reorder buffer overflow ({MAX_REORDER} datagrams)"),
                ));
            }
            self.rx_buffer.entry(seq).or_insert((flags, payload));
            self.send_naks()?;
        }
        self.rx_since_ack += 1;
        if self.rx_since_ack >= self.cfg.ack_every || !self.ready.is_empty() {
            self.send_ack()?;
        }
        Ok(())
    }

    fn deliver(&mut self, flags: u8, payload: Vec<u8>) {
        self.rx_frame.extend_from_slice(&payload);
        if flags & FLAG_FRAME_END != 0 {
            self.ready.push_back(std::mem::take(&mut self.rx_frame));
        }
    }

    fn send_ack(&mut self) -> io::Result<()> {
        let ack = encode_datagram(KIND_ACK, 0, self.rx_next, &[]);
        // ACK loss is recovered by dup-DATA re-acks and the quiescent
        // flush; a transient send failure is not fatal.
        let _ = self.sock.send(&ack);
        self.rx_since_ack = 0;
        self.last_ack_at = Instant::now();
        Ok(())
    }

    /// NAK the holes below the highest buffered seq (rate-limited).
    fn send_naks(&mut self) -> io::Result<()> {
        let Some((&max_buffered, _)) = self.rx_buffer.last_key_value() else {
            return Ok(());
        };
        let now = Instant::now();
        let mut missing = Vec::new();
        for s in self.rx_next..max_buffered {
            if missing.len() >= MAX_NAK_SEQS {
                break;
            }
            if self.rx_buffer.contains_key(&s) {
                continue;
            }
            let fresh = self.nak_sent_at.get(&s).is_none_or(|t| now.duration_since(*t) > RENAK_AFTER);
            if fresh {
                self.nak_sent_at.insert(s, now);
                missing.push(s);
            }
        }
        if missing.is_empty() {
            return Ok(());
        }
        if let Some(m) = &self.metrics {
            m.naks.add(missing.len() as u64);
        }
        let mut payload = Vec::with_capacity(missing.len() * 8);
        for s in &missing {
            payload.extend_from_slice(&s.to_be_bytes());
        }
        let nak = encode_datagram(KIND_NAK, 0, 0, &payload);
        let _ = self.sock.send(&nak);
        Ok(())
    }

    fn on_nak(&mut self, payload: &[u8]) {
        let mut hit = false;
        for chunk in payload.chunks_exact(8) {
            let seq = u64::from_be_bytes(chunk.try_into().expect("chunks_exact(8)"));
            if self.inflight.contains_key(&seq) {
                hit = true;
                self.retransmit(seq);
            }
        }
        if hit {
            self.register_loss();
        }
    }

    fn retransmit(&mut self, seq: u64) {
        let now = Instant::now();
        if let Some(entry) = self.inflight.get_mut(&seq) {
            entry.retx += 1;
            entry.sent_at = now;
            let buf = entry.buf.clone();
            // Retransmits bypass chaos: every injected fault is recoverable.
            let _ = self.sock.send(&buf);
            if let Some(m) = &self.metrics {
                m.retransmits.inc();
            }
        }
    }

    /// One multiplicative decrease per loss epoch (mirrors TCP's
    /// once-per-window halving).
    fn register_loss(&mut self) {
        if self.cum_acked >= self.loss_epoch_end {
            self.cc.on_loss();
            self.loss_epoch_end = self.next_seq;
        }
    }

    fn advance_cum(&mut self, cum: u64) {
        if cum <= self.cum_acked {
            return;
        }
        let now = Instant::now();
        while let Some((&s, _)) = self.inflight.first_key_value() {
            if s >= cum {
                break;
            }
            let entry = self.inflight.remove(&s).expect("first key exists");
            self.inflight_bytes -= entry.len;
            self.acked_since_tick += entry.len as f64;
            if entry.retx == 0 {
                // Karn's rule: only unambiguous (never-retransmitted)
                // datagrams contribute RTT samples.
                let sample = now.duration_since(entry.sent_at);
                self.srtt = Some(match self.srtt {
                    None => sample,
                    Some(s) => s.mul_f64(0.875) + sample.mul_f64(0.125),
                });
            }
        }
        self.cum_acked = cum;
        self.cc_tick(now);
    }

    /// Feed the controller one ack-clocked round: the bytes delivered
    /// since the last tick over the elapsed wall interval. BBR reads the
    /// ratio as its bandwidth sample; Reno/CUBIC just see one round.
    fn cc_tick(&mut self, now: Instant) {
        let rtt = self.rtt_estimate();
        let elapsed = now.duration_since(self.last_cc_tick);
        if elapsed < rtt {
            return;
        }
        let segments = self.acked_since_tick / self.cfg.mss as f64;
        self.cc
            .on_rtt_delivered(segments, elapsed.as_secs_f64(), self.cap_segments);
        self.acked_since_tick = 0.0;
        self.last_cc_tick = now;
        if let Some(m) = &self.metrics {
            m.pacing_rate_bps
                .set(self.cc.pacing_bps(self.cfg.mss as u32).unwrap_or(0.0));
        }
    }

    // --- timers -------------------------------------------------------------

    fn pump_timers(&mut self) -> io::Result<()> {
        let now = Instant::now();
        // RTO backstop for datagrams whose NAKs (or whose every copy) died.
        let rto = self.rto();
        let expired: Vec<u64> = self
            .inflight
            .iter()
            .filter(|(_, d)| now.duration_since(d.sent_at) >= rto)
            .map(|(&s, _)| s)
            .take(MAX_RTO_BURST)
            .collect();
        if !expired.is_empty() {
            self.register_loss();
            for seq in expired {
                self.retransmit(seq);
            }
        }
        // Flush a chaos-held datagram that nothing has displaced.
        if let Some((_, held_at)) = &self.held {
            if now.duration_since(*held_at) >= HOLD_FLUSH_AFTER {
                let (buf, _) = self.held.take().expect("checked above");
                let _ = self.sock.send(&buf);
            }
        }
        // Quiescent ACK flush: don't sit on receipt state just because
        // the ack_every quota wasn't reached.
        if self.rx_since_ack > 0 && now.duration_since(self.last_ack_at) > Duration::from_millis(5)
        {
            self.send_ack()?;
        }
        Ok(())
    }

    // --- pacing -------------------------------------------------------------

    /// Token-bucket pacing from the controller's rate (None = unpaced,
    /// window-limited only). Returns how long to wait before `bytes` may
    /// go out, or None if they may go now.
    fn pace_delay(&mut self, bytes: usize) -> Option<Duration> {
        let bps = match self.cc.pacing_bps(self.cfg.mss as u32) {
            Some(b) if b > 0.0 => b,
            _ => return None,
        };
        if let Some(m) = &self.metrics {
            m.pacing_rate_bps.set(bps);
        }
        let rate = bps / 8.0; // bytes per second
        let now = Instant::now();
        self.pace_tokens += now.duration_since(self.pace_refill_at).as_secs_f64() * rate;
        self.pace_refill_at = now;
        let burst = (rate * 0.005).max((self.cfg.mss * 8) as f64);
        if self.pace_tokens > burst {
            self.pace_tokens = burst;
        }
        if self.pace_tokens >= bytes as f64 {
            self.pace_tokens -= bytes as f64;
            None
        } else {
            let wait = (bytes as f64 - self.pace_tokens) / rate;
            Some(Duration::from_secs_f64(wait.clamp(0.0005, 0.05)))
        }
    }

    // --- transmit path ------------------------------------------------------

    /// First transmission of a DATA datagram, through the chaos stage.
    fn transmit_new(&mut self, encoded: Vec<u8>) {
        let fault = match self.cfg.chaos {
            Some(c) => {
                let idx = self.chaos_tx_index;
                self.chaos_tx_index += 1;
                let f = c.fault_for(idx);
                if f != ChaosFault::Pass {
                    if let Some(m) = &self.metrics {
                        m.chaos_faults.inc();
                    }
                }
                (f, idx, c)
            }
            None => {
                let _ = self.sock.send(&encoded);
                return;
            }
        };
        let (fault, idx, chaos) = fault;
        match fault {
            ChaosFault::Pass => {
                let _ = self.sock.send(&encoded);
            }
            ChaosFault::Drop => {}
            ChaosFault::Duplicate => {
                let _ = self.sock.send(&encoded);
                let _ = self.sock.send(&encoded);
            }
            ChaosFault::Reorder => {
                // Hold this one back; if a previous datagram is already
                // held, release it first so at most one is ever in limbo.
                if let Some((prev, _)) = self.held.take() {
                    let _ = self.sock.send(&prev);
                }
                self.held = Some((encoded, Instant::now()));
                return; // held datagram must not be followed by a flush
            }
            ChaosFault::BitFlip => {
                let mut corrupted = encoded.clone();
                let bit = chaos.flip_bit(idx, corrupted.len());
                corrupted[bit / 8] ^= 1 << (bit % 8);
                let _ = self.sock.send(&corrupted);
            }
        }
        // A non-reorder transmission displaces any held datagram.
        if let Some((prev, _)) = self.held.take() {
            let _ = self.sock.send(&prev);
        }
    }

    /// Admit one chunk into the window (blocking) and transmit it.
    fn send_chunk(&mut self, chunk: &[u8], flags: u8) -> io::Result<()> {
        let mut last_acked = self.cum_acked;
        let mut last_progress = Instant::now();
        loop {
            self.drain_incoming()?;
            self.pump_timers()?;
            if self.cum_acked > last_acked {
                last_acked = self.cum_acked;
                last_progress = Instant::now();
            }
            if self.inflight_bytes + chunk.len() <= self.window_bytes() {
                match self.pace_delay(UDP_HEADER_LEN + chunk.len()) {
                    None => break,
                    Some(d) => {
                        self.wait_one(d)?;
                        continue;
                    }
                }
            }
            if !self.inflight.is_empty()
                && last_progress.elapsed() > self.cfg.stall_timeout
            {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "udp send stalled: no ACK progress for {:?} ({} datagrams inflight)",
                        self.cfg.stall_timeout,
                        self.inflight.len()
                    ),
                ));
            }
            self.wait_one(Duration::from_millis(2))?;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let encoded = encode_datagram(KIND_DATA, flags, seq, chunk);
        self.inflight.insert(
            seq,
            Inflight { buf: encoded.clone(), len: chunk.len(), sent_at: Instant::now(), retx: 0 },
        );
        self.inflight_bytes += chunk.len();
        self.transmit_new(encoded);
        Ok(())
    }

    /// Wait until everything inflight is acked (used by close).
    fn flush(&mut self) -> io::Result<()> {
        let mut last_acked = self.cum_acked;
        let mut last_progress = Instant::now();
        while !self.inflight.is_empty() {
            self.drain_incoming()?;
            self.pump_timers()?;
            if self.cum_acked > last_acked {
                last_acked = self.cum_acked;
                last_progress = Instant::now();
            }
            if self.inflight.is_empty() {
                break;
            }
            if last_progress.elapsed() > self.cfg.stall_timeout {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "udp close: unacked data at stall deadline",
                ));
            }
            self.wait_one(Duration::from_millis(5))?;
        }
        Ok(())
    }
}

impl Link for UdpLink {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.ensure_open()?;
        if frame.len() > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("frame of {} bytes exceeds MAX_FRAME {MAX_FRAME}", frame.len()),
            ));
        }
        let mss = self.cfg.mss;
        let n_chunks = frame.len().div_ceil(mss).max(1);
        for i in 0..n_chunks {
            let start = i * mss;
            let end = (start + mss).min(frame.len());
            let flags = if i == n_chunks - 1 { FLAG_FRAME_END } else { 0 };
            self.send_chunk(&frame[start..end], flags)?;
        }
        Ok(())
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        self.ensure_open()?;
        let deadline = self.recv_timeout.map(|t| Instant::now() + t);
        loop {
            if let Some(f) = self.ready.pop_front() {
                return Ok(f);
            }
            if let Some(fence) = self.peer_fin {
                if self.rx_next >= fence {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "udp peer closed the link",
                    ));
                }
            }
            self.drain_incoming()?;
            self.pump_timers()?;
            if !self.ready.is_empty() {
                continue;
            }
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "udp recv timed out",
                    ));
                }
            }
            self.wait_one(Duration::from_millis(10))?;
        }
    }

    fn close(&mut self) -> io::Result<()> {
        if self.closed {
            return Ok(());
        }
        self.closed = true;
        // Release anything chaos is still holding, then drain the window.
        if let Some((buf, _)) = self.held.take() {
            let _ = self.sock.send(&buf);
        }
        self.flush()?;
        // FIN dance, best effort: the fence tells the peer where the
        // stream ends; 8 tries x 40 ms bounds shutdown latency.
        let fence = self.next_seq;
        for _ in 0..8 {
            if self.fin_acked {
                break;
            }
            let fin = encode_datagram(KIND_FIN, 0, fence, &[]);
            let _ = self.sock.send(&fin);
            let _ = self.wait_one(Duration::from_millis(40));
            let _ = self.drain_incoming();
        }
        Ok(())
    }

    fn set_recv_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.recv_timeout = timeout;
        Ok(())
    }
}

impl std::fmt::Debug for UdpLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UdpLink")
            .field("local", &self.sock.local_addr().ok())
            .field("peer", &self.sock.peer_addr().ok())
            .field("cc", &self.cc.name())
            .field("next_seq", &self.next_seq)
            .field("inflight", &self.inflight.len())
            .field("rx_next", &self.rx_next)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn listener(cfg: UdpConfig) -> (UdpListener, SocketAddr) {
        let l = UdpListener::bind("127.0.0.1:0".parse().unwrap(), cfg).unwrap();
        let addr = l.local_addr().unwrap();
        (l, addr)
    }

    fn pattern(len: usize, salt: u64) -> Vec<u8> {
        (0..len).map(|i| (splitmix64(salt ^ i as u64 / 7) >> ((i % 8) * 8)) as u8).collect()
    }

    #[test]
    fn header_roundtrip() {
        let payload = b"MODE E over datagrams";
        let raw = encode_datagram(KIND_DATA, FLAG_FRAME_END, 0x0123_4567_89ab_cdef, payload);
        assert_eq!(raw.len(), UDP_HEADER_LEN + payload.len());
        let dg = decode_datagram(&raw).expect("roundtrip");
        assert_eq!(dg.kind, KIND_DATA);
        assert_eq!(dg.flags, FLAG_FRAME_END);
        assert_eq!(dg.seq, 0x0123_4567_89ab_cdef);
        assert_eq!(dg.payload, payload);
    }

    #[test]
    fn checksum_rejects_any_single_bit_flip_in_header() {
        let raw = encode_datagram(KIND_DATA, 0, 42, b"payload");
        for bit in 0..raw.len() * 8 {
            let mut bad = raw.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(
                decode_datagram(&bad).is_none(),
                "flip of bit {bit} went undetected"
            );
        }
    }

    #[test]
    fn decode_rejects_truncation_and_padding() {
        let raw = encode_datagram(KIND_DATA, 0, 7, b"abc");
        assert!(decode_datagram(&raw[..raw.len() - 1]).is_none());
        let mut padded = raw.clone();
        padded.push(0);
        assert!(decode_datagram(&padded).is_none());
        assert!(decode_datagram(&[]).is_none());
    }

    #[test]
    fn chaos_schedule_is_pure_and_seed_sensitive() {
        let c = DatagramChaos::uniform(0xC0FFEE, 0.05);
        let a: Vec<ChaosFault> = (0..500).map(|i| c.fault_for(i)).collect();
        let b: Vec<ChaosFault> = (0..500).map(|i| c.fault_for(i)).collect();
        assert_eq!(a, b, "same seed must give the same schedule");
        let other = DatagramChaos::uniform(0xDECAF, 0.05);
        let d: Vec<ChaosFault> = (0..500).map(|i| other.fault_for(i)).collect();
        assert_ne!(a, d, "different seeds should differ");
        let faults = a.iter().filter(|f| **f != ChaosFault::Pass).count();
        // 4 x 5% over 500 draws: expect ~100, allow wide slack.
        assert!((30..300).contains(&faults), "fault count {faults} implausible");
    }

    /// Start an echo peer: accepts one link, echoes `frames` frames back.
    fn spawn_echo(l: UdpListener, frames: usize) -> thread::JoinHandle<()> {
        thread::spawn(move || {
            let mut link = l.accept(Duration::from_secs(5)).unwrap();
            for _ in 0..frames {
                let f = link.recv().unwrap();
                link.send(&f).unwrap();
            }
            link.close().unwrap();
        })
    }

    /// Start a sink peer: accepts one link, receives until EOF, returns
    /// all frames.
    fn spawn_sink(l: UdpListener) -> thread::JoinHandle<Vec<Vec<u8>>> {
        thread::spawn(move || {
            let mut link = l.accept(Duration::from_secs(5)).unwrap();
            let mut got = Vec::new();
            loop {
                match link.recv() {
                    Ok(f) => got.push(f),
                    Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
                    Err(e) => panic!("sink recv: {e}"),
                }
            }
            let _ = link.close();
            got
        })
    }

    #[test]
    fn loopback_frames_roundtrip_all_sizes() {
        let (l, addr) = listener(UdpConfig::default());
        let h = spawn_echo(l, 4);
        let mut c = UdpLink::connect(addr, UdpConfig::default()).unwrap();
        for frame in [
            Vec::new(),                 // empty frame still delimits
            b"x".to_vec(),              // single byte
            pattern(UDP_DEFAULT_MSS, 1), // exactly one datagram
            pattern(300 * 1024, 2),     // hundreds of datagrams
        ] {
            c.send(&frame).unwrap();
            assert_eq!(c.recv().unwrap(), frame);
        }
        c.close().unwrap();
        h.join().unwrap();
    }

    #[test]
    fn eof_after_peer_close() {
        let (l, addr) = listener(UdpConfig::default());
        let h = spawn_sink(l);
        let mut c = UdpLink::connect(addr, UdpConfig::default()).unwrap();
        let payload = pattern(10_000, 3);
        c.send(&payload).unwrap();
        c.close().unwrap();
        let got = h.join().unwrap();
        assert_eq!(got, vec![payload]);
    }

    #[test]
    fn recv_timeout_is_typed() {
        let (l, addr) = listener(UdpConfig::default());
        // Keep the acceptor alive but silent.
        let h = thread::spawn(move || {
            let link = l.accept(Duration::from_secs(5)).unwrap();
            thread::sleep(Duration::from_millis(400));
            drop(link);
        });
        let mut c = UdpLink::connect(addr, UdpConfig::default()).unwrap();
        c.set_recv_timeout(Some(Duration::from_millis(80))).unwrap();
        let err = c.recv().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        h.join().unwrap();
    }

    #[test]
    fn oversize_frame_rejected() {
        let (l, addr) = listener(UdpConfig::default());
        let h = thread::spawn(move || {
            let _link = l.accept(Duration::from_secs(5)).unwrap();
            thread::sleep(Duration::from_millis(100));
        });
        let mut c = UdpLink::connect(addr, UdpConfig::default()).unwrap();
        let err = c.send(&vec![0u8; MAX_FRAME + 1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        h.join().unwrap();
    }

    #[test]
    fn handshake_times_out_against_dead_port() {
        // Bind-then-drop: nothing listens there afterwards.
        let dead = {
            let s = UdpSocket::bind("127.0.0.1:0").unwrap();
            s.local_addr().unwrap()
        };
        let cfg = UdpConfig {
            handshake_timeout: Duration::from_millis(200),
            ..UdpConfig::default()
        };
        let err = UdpLink::connect(dead, cfg).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    fn chaos_transfer(chaos: DatagramChaos, bytes: usize) -> (Vec<Vec<u8>>, u64, u64) {
        let obs = Obs::new("udp-chaos-test");
        let (l, addr) = listener(UdpConfig::default());
        let h = spawn_sink(l);
        let cfg = UdpConfig::default()
            .with_chaos(chaos)
            .with_obs(obs.clone())
            .with_stall_timeout(Duration::from_secs(20));
        let mut c = UdpLink::connect(addr, cfg).unwrap();
        let payload = pattern(bytes, chaos.seed);
        c.send(&payload).unwrap();
        c.close().unwrap();
        let got = h.join().unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0], payload, "payload corrupted in flight");
        let m = obs.metrics();
        (got, m.counter_value("udp.chaos_faults"), m.counter_value("udp.retransmits"))
    }

    #[test]
    fn recovers_from_drops() {
        let chaos = DatagramChaos { seed: 0xD409, drop: 0.05, ..DatagramChaos::default() };
        let (_, faults, retx) = chaos_transfer(chaos, 200 * 1024);
        assert!(faults > 0, "chaos never fired");
        assert!(retx > 0, "drops must force retransmits");
    }

    #[test]
    fn recovers_from_bitflips() {
        let chaos = DatagramChaos { seed: 0xF11b, bitflip: 0.05, ..DatagramChaos::default() };
        let (_, faults, retx) = chaos_transfer(chaos, 200 * 1024);
        assert!(faults > 0, "chaos never fired");
        assert!(retx > 0, "corrupt datagrams must force retransmits");
    }

    #[test]
    fn recovers_from_reorder_and_duplicates() {
        let chaos = DatagramChaos {
            seed: 0x07D3,
            duplicate: 0.08,
            reorder: 0.08,
            ..DatagramChaos::default()
        };
        let (_, faults, _) = chaos_transfer(chaos, 200 * 1024);
        assert!(faults > 0, "chaos never fired");
    }

    #[test]
    fn recovers_from_the_full_fault_mix() {
        let chaos = DatagramChaos::uniform(0xA11, 0.02);
        let (_, faults, _) = chaos_transfer(chaos, 300 * 1024);
        assert!(faults > 0, "chaos never fired");
    }

    #[test]
    fn recovers_even_when_every_first_transmission_drops() {
        // drop = 1.0 kills every first copy; the RTO backstop (which
        // bypasses chaos) must still deliver everything.
        let chaos = DatagramChaos { seed: 2, drop: 1.0, ..DatagramChaos::default() };
        let (_, faults, retx) = chaos_transfer(chaos, 48 * 1024);
        assert!(faults >= 40, "every datagram should fault, got {faults}");
        assert!(retx >= faults, "each dropped datagram needs a retransmit");
    }

    #[test]
    fn unresponsive_peer_fails_typed() {
        let (l, addr) = listener(UdpConfig::default());
        let h = thread::spawn(move || {
            let _link = l.accept(Duration::from_secs(5)).unwrap();
            // Never polls: no ACKs ever come back.
            thread::sleep(Duration::from_secs(2));
        });
        let cfg = UdpConfig::default().with_stall_timeout(Duration::from_millis(300));
        let mut c = UdpLink::connect(addr, cfg).unwrap();
        // Either admission control stalls mid-send or close() fails to
        // flush; both must surface TimedOut, not hang or succeed.
        let r = c.send(&pattern(256 * 1024, 9)).and_then(|_| c.close());
        assert_eq!(r.unwrap_err().kind(), io::ErrorKind::TimedOut);
        h.join().unwrap();
    }

    #[test]
    fn seeded_chaos_replay_is_reproducible() {
        let chaos = DatagramChaos::uniform(0x5EED, 0.03);
        let (a, fa, _) = chaos_transfer(chaos, 100 * 1024);
        let (b, fb, _) = chaos_transfer(chaos, 100 * 1024);
        assert_eq!(a, b, "delivered bytes must be identical under replay");
        assert_eq!(fa, fb, "fault schedule must be identical under replay");
    }

    #[test]
    fn bidirectional_interleaved_traffic() {
        let (l, addr) = listener(UdpConfig::default());
        let h = spawn_echo(l, 6);
        let mut c = UdpLink::connect(addr, UdpConfig::default()).unwrap();
        for i in 0..6usize {
            let frame = pattern(1 + i * 7000, i as u64);
            c.send(&frame).unwrap();
            assert_eq!(c.recv().unwrap(), frame, "echo {i} mismatch");
        }
        c.close().unwrap();
        h.join().unwrap();
    }

    #[test]
    fn all_controllers_carry_traffic() {
        for algo in [CcAlgo::Reno, CcAlgo::Cubic, CcAlgo::Bbr] {
            let cfg = UdpConfig::default().with_cc(algo);
            let (l, addr) = listener(cfg.clone());
            let h = spawn_sink(l);
            let mut c = UdpLink::connect(addr, cfg).unwrap();
            let payload = pattern(150 * 1024, algo as u64);
            c.send(&payload).unwrap();
            c.close().unwrap();
            assert_eq!(h.join().unwrap(), vec![payload], "{} failed", algo.label());
        }
    }

    #[test]
    fn listener_serves_multiple_connections() {
        let (l, addr) = listener(UdpConfig::default());
        let h = thread::spawn(move || {
            for _ in 0..2 {
                let mut link = l.accept(Duration::from_secs(5)).unwrap();
                let f = link.recv().unwrap();
                link.send(&f).unwrap();
                link.close().unwrap();
            }
        });
        for i in 0..2u64 {
            let mut c = UdpLink::connect(addr, UdpConfig::default()).unwrap();
            let frame = pattern(20_000, i);
            c.send(&frame).unwrap();
            assert_eq!(c.recv().unwrap(), frame);
            c.close().unwrap();
        }
        h.join().unwrap();
    }

    #[test]
    fn window_cap_respected_on_the_wire() {
        // A tiny window still completes (slowly): admission control must
        // never exceed it, and the transfer must still finish.
        let cfg = UdpConfig::default().with_window_cap(4 * 1200);
        let (l, addr) = listener(UdpConfig::default());
        let h = spawn_sink(l);
        let mut c = UdpLink::connect(addr, cfg).unwrap();
        let payload = pattern(60 * 1024, 0xCA9);
        c.send(&payload).unwrap();
        c.close().unwrap();
        assert_eq!(h.join().unwrap(), vec![payload]);
    }

    #[test]
    fn transport_labels_parse() {
        assert_eq!(DataTransport::parse("udp"), Some(DataTransport::Udp));
        assert_eq!(DataTransport::parse(" TCP "), Some(DataTransport::Tcp));
        assert_eq!(DataTransport::parse("carrier-pigeon"), None);
        assert_eq!(DataTransport::Udp.label(), "udp");
        assert_eq!(DataTransport::default(), DataTransport::Tcp);
    }
}
