//! # ig-server — the Globus-style GridFTP server
//!
//! Reproduces the architecture of Fig 2: a **server protocol
//! interpreter** ([`session`]) that speaks the control channel, and a
//! **data transfer process** ([`dtp`]) that moves bytes over MODE E
//! parallel data channels — optionally striped across several data mover
//! nodes ([`striped`]), each behind its own (simulated) NIC.
//!
//! Security follows §IIC exactly:
//! * control-channel authentication is obligatory (`AUTH GSSAPI` +
//!   `ADAT` token pump over [`ig_gsi`]), the control channel is
//!   `ENC`-protected by default;
//! * after authentication an **authorization callout** ([`authz`]) maps
//!   the validated identity to a local account — either the classic
//!   gridmap file, or the GCMU callout that parses the username straight
//!   out of the DN when the certificate came from the local online CA
//!   (§IV-C), eliminating the gridmap;
//! * the server then confines the session to that user's view of storage
//!   ([`users::UserContext`], the stand-in for the `setuid` the real
//!   server performs);
//! * data channels default to DCAU with the delegated credential and
//!   `PROT C`, switchable per session — and the **`DCSC`** command swaps
//!   the data-channel credential/trust without touching the control
//!   channel (§V).
//!
//! Storage access goes through the **DSI** trait ([`dsi`]), mirroring
//! the Globus Data Storage Interface that lets "any storage system that
//! can implement its data storage interface" (§II-A) sit under a GridFTP
//! server; in-memory and POSIX backends are provided.
//!
//! Control sessions are multiplexed by one epoll reactor ([`listener`]
//! starts it), transfers block on `poll`/eventfd, and the admin plane
//! checks `SO_PEERCRED`: the crate needs Linux, and says so once, here.

#[cfg(not(target_os = "linux"))]
compile_error!("ig-server needs Linux: epoll, eventfd and SO_PEERCRED (see ig_xio::epoll)");

pub mod admin;
pub mod authz;
pub mod config;
pub mod data;
pub mod dsi;
pub mod dtp;
pub mod error;
pub mod introspect;
pub mod listener;
mod pool;
mod reactor;
pub mod session;
pub mod striped;
pub mod tunables;
pub mod usage;
pub mod users;

pub use admin::SchedulerControl;
pub use authz::{AuthzCallout, ChainAuthz, GcmuAuthz, GridmapAuthz};
pub use config::ServerConfig;
pub use dsi::{expand_stream, memory::MemDsi, posix::PosixDsi, read_all, walk, Dsi, ExpandOutcome, WalkEntry};
pub use dtp::RecvFault;
pub use error::ServerError;
pub use introspect::{SessionIndex, SessionState, SessionTicket, TransferScope};
pub use listener::{DrainReport, GridFtpServer};
pub use tunables::{ReloadError, TunableSlot, Tunables};
pub use usage::{stats_json, UsageReporter, UsageSnapshot};
pub use users::UserContext;
