//! # ig-xio — an XIO-style extensible I/O driver stack
//!
//! Globus GridFTP's "extensible I/O interface allows GridFTP to target
//! high-performance wide-area communication protocols" (§II-A, citing the
//! Globus XIO paper). This crate reproduces the architecture: a
//! message-oriented [`link::Link`] trait plus stackable drivers —
//!
//! * [`link::pipe`] — an in-process transport pair carrying real bytes
//!   (tests and the in-process simulator);
//! * [`link::TcpLink`] — length-framed TCP (real data channels);
//! * [`throttle::Throttle`] — token-bucket rate limiting (models per-NIC
//!   limits in the striping experiment E5);
//! * [`obs::ObsLink`] — per-message latency histograms and byte counters
//!   into an `ig-obs` registry (DTP block latency for `SITE STATS`);
//! * [`secure::SecureLink`] — a GSI security context as a driver, so a
//!   data channel gains DCAU + `PROT` protection by pushing one more
//!   driver onto the stack, exactly the XIO composition model;
//! * [`chaos::ChaosLink`] — seeded, deterministic fault injection (drop,
//!   delay, truncate, duplicate, reorder, bit-flip, one-way partition,
//!   reset) so recovery paths are testable and failures replay exactly;
//! * [`retry::RetryPolicy`] — the shared retry/timeout/backoff policy
//!   every retrying layer (client dial, third-party transfer, hosted
//!   service) consumes instead of hand-rolled loops;
//! * [`test_support`] — the deterministic [`test_support::ManualClock`]
//!   and bounded-retry measurement helpers the timing-sensitive tests
//!   across the workspace share (not used by production paths);
//! * [`epoll`] (Linux) + [`nb::NbFramed`] + [`wheel::DeadlineWheel`] —
//!   the readiness, nonblocking-framing, and timer primitives behind
//!   the server's reactor (`ig_server::GridFtpServer`).

#![deny(rust_2018_idioms)]

pub mod chaos;
#[cfg(target_os = "linux")]
pub mod epoll;
pub mod link;
pub mod nb;
pub mod obs;
pub mod retry;
pub mod secure;
pub mod test_support;
#[cfg(target_os = "linux")]
pub mod uds;
pub mod throttle;
pub mod wheel;

// `ig-gcmu` reaches the poison-ignoring locks through here: its manifest is
// frozen by benchmark/staged/ and cannot name `ig-obs` (ROADMAP item 1).
pub use ig_obs::sync;
pub use chaos::{ChaosConfig, ChaosHook, ChaosLink, Direction, FaultKind, FaultSpec, Trigger};
#[cfg(target_os = "linux")]
pub use epoll::{wait_readable, wait_writable, Epoll, Event, Interest, WakeFd};
pub use link::{pipe, Link, PipeLink, TcpLink};
pub use nb::{FrameBuf, NbFramed};
pub use wheel::DeadlineWheel;
pub use obs::ObsLink;
pub use retry::{splitmix64, RetryError, RetryPolicy};
pub use secure::{secure_accept, secure_connect, SecureLink};
pub use throttle::Throttle;
#[cfg(target_os = "linux")]
pub use uds::UdsListener;
