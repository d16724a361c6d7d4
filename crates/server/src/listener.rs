//! Server front door: binds the control port and starts the epoll
//! reactor ([`crate::reactor`]) that serves it.

use crate::config::ServerConfig;
use crate::error::Result;
use ig_obs::json::kv;
use ig_protocol::HostPort;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outcome of a graceful drain (the admin plane's `drain` command).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// A drain had already run (or was running) when this one started;
    /// the call observed its outcome instead of waiting again.
    pub already: bool,
    /// Every in-flight transfer finished inside the deadline.
    pub clean: bool,
    /// How long this call waited for transfers to quiesce.
    pub waited_ms: u64,
    /// Transfers still in flight when the deadline expired (0 on a
    /// clean drain). Interrupted transfers checkpointed restart markers
    /// on their control channels, so clients resume the remainder.
    pub transfers_interrupted: u64,
    /// Control sessions still registered at drain completion (idle
    /// sessions are not waited for — only transfers carry state that
    /// must not be lost).
    pub sessions_active: u64,
}

/// A running GridFTP server.
pub struct GridFtpServer {
    config: Arc<ServerConfig>,
    addr: HostPort,
    stop: Arc<AtomicBool>,
    /// Set by [`GridFtpServer::drain`]: the reactor sheds new
    /// connections while transfers quiesce.
    draining: Arc<AtomicBool>,
    /// Serializes concurrent drain calls so the second observes the
    /// first's outcome instead of re-waiting (drain is idempotent).
    drain_lock: ig_obs::sync::Mutex<()>,
    /// Reactor wakeup handle: shutdown pokes the event loop out of
    /// `epoll_wait`.
    wake: Arc<ig_xio::WakeFd>,
}

impl GridFtpServer {
    /// Bind the control channel on `config.data_ip:0` and start serving.
    ///
    /// `seed` makes all session randomness deterministic (each session
    /// derives `seed + n` in accept order).
    pub fn start(config: ServerConfig, seed: u64) -> Result<Arc<Self>> {
        let listener = TcpListener::bind((config.data_ip, 0))?;
        let addr = HostPort::from_socket_addr(listener.local_addr()?)?;
        let config = Arc::new(config);
        let stop = Arc::new(AtomicBool::new(false));
        let draining = Arc::new(AtomicBool::new(false));
        let wake = crate::reactor::spawn(
            listener,
            Arc::clone(&config),
            seed,
            Arc::clone(&stop),
            Arc::clone(&draining),
        )?;
        let server = Arc::new(GridFtpServer {
            config,
            addr,
            stop,
            draining,
            drain_lock: ig_obs::sync::Mutex::new(()),
            wake,
        });
        if server.config.admin_socket.is_some() {
            crate::admin::spawn_admin(&server)?;
        }
        Ok(server)
    }

    /// Control-channel address clients connect to.
    pub fn addr(&self) -> HostPort {
        self.addr
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The shared config handle (admin plane, internal).
    pub(crate) fn config_arc(&self) -> &Arc<ServerConfig> {
        &self.config
    }

    /// The stop flag (admin plane, internal).
    pub(crate) fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Has [`GridFtpServer::shutdown`] (or a completed drain) run?
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Is a drain in progress or complete?
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Gracefully retire the server: stop accepting new connections
    /// immediately, wait up to `deadline` for in-flight transfers to
    /// finish, then shut down. Transfers still running at the deadline
    /// are interrupted — their clients hold `111` restart markers and
    /// resume the remainder elsewhere, so no acknowledged byte is lost
    /// either way.
    ///
    /// Idempotent: concurrent or repeated calls serialize, and any call
    /// after the first reports the existing outcome (`already`) instead
    /// of waiting again.
    pub fn drain(&self, deadline: Duration) -> DrainReport {
        let _serialize = self.drain_lock.lock();
        let already = self.draining.swap(true, Ordering::SeqCst);
        let metrics = self.config.obs.metrics();
        let active =
            || metrics.gauge_value("server.transfers_active").max(0.0).round() as u64;
        if already {
            let interrupted = active();
            return DrainReport {
                already: true,
                clean: interrupted == 0,
                waited_ms: 0,
                transfers_interrupted: interrupted,
                sessions_active: self.config.sessions.len() as u64,
            };
        }
        self.config
            .obs
            .event_unstable("admin.drain", vec![kv("deadline_ms", deadline.as_millis() as u64)]);
        let start = Instant::now();
        while active() > 0 && start.elapsed() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        self.shutdown();
        let interrupted = active();
        let report = DrainReport {
            already: false,
            clean: interrupted == 0,
            waited_ms: start.elapsed().as_millis() as u64,
            transfers_interrupted: interrupted,
            sessions_active: self.config.sessions.len() as u64,
        };
        self.config.obs.event_unstable(
            "admin.drained",
            vec![
                kv("clean", report.clean),
                kv("waited_ms", report.waited_ms),
                kv("interrupted", report.transfers_interrupted),
            ],
        );
        report
    }

    /// Stop the server. No new session is accepted. A command already
    /// executing (a transfer included) runs to its final reply, and for
    /// up to five seconds so do the commands its client had pipelined
    /// behind it; then every session, idle or not, is closed.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.wake.wake();
    }
}

impl Drop for GridFtpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authz::GcmuAuthz;
    use crate::dsi::memory::MemDsi;
    use ig_gsi::context::test_support::ca_and_credential;
    use ig_pki::time::Clock;
    use ig_pki::TrustStore;
    use ig_protocol::Reply;
    use ig_xio::{Link, TcpLink};

    fn test_config() -> ServerConfig {
        let mut rng = ig_crypto::rng::seeded(500);
        let (ca, cred) = ca_and_credential(&mut rng, "/O=Host CA", "/CN=ep.example.org");
        let mut trust = TrustStore::new();
        trust.add_root(ca.root_cert().clone());
        ServerConfig::new(
            "ep.example.org",
            cred,
            trust,
            Arc::new(GcmuAuthz::new("ep.example.org")),
            Arc::new(MemDsi::new()),
        )
        .with_clock(Clock::Fixed(1000))
    }

    fn roundtrip(link: &mut TcpLink, cmd: &str) -> Reply {
        link.send(cmd.as_bytes()).unwrap();
        Reply::parse(&String::from_utf8(link.recv().unwrap()).unwrap()).unwrap()
    }

    /// A server over loopback and a raw control link to it, banner read.
    fn connect(config: ServerConfig, seed: u64) -> (Arc<GridFtpServer>, TcpLink, Reply) {
        let server = GridFtpServer::start(config, seed).unwrap();
        let mut link = TcpLink::connect(server.addr().to_socket_addr()).unwrap();
        let banner = Reply::parse(&String::from_utf8(link.recv().unwrap()).unwrap()).unwrap();
        (server, link, banner)
    }

    #[test]
    fn banner_feat_noop_quit() {
        let (server, mut client, banner) = connect(test_config(), 1);
        assert_eq!(banner.code, 220);
        let feat = roundtrip(&mut client, "FEAT");
        assert_eq!(feat.code, 211);
        assert!(feat.lines.iter().any(|l| l.contains("DCSC")));
        let noop = roundtrip(&mut client, "NOOP");
        assert_eq!(noop.code, 200);
        // Unauthenticated data command refused.
        let retr = roundtrip(&mut client, "RETR /x");
        assert_eq!(retr.code, 530);
        // Garbage command gets 500, not a hangup.
        let bad = roundtrip(&mut client, "TYPE Q");
        assert_eq!(bad.code, 500);
        let bye = roundtrip(&mut client, "QUIT");
        assert_eq!(bye.code, 221);
        server.shutdown();
    }

    #[test]
    fn legacy_server_rejects_dcsc_in_feat() {
        let (server, mut client, _banner) = connect(test_config().legacy(), 2);
        let feat = roundtrip(&mut client, "FEAT");
        assert!(!feat.lines.iter().any(|l| l.contains("DCSC")));
        let bye = roundtrip(&mut client, "QUIT");
        assert_eq!(bye.code, 221);
        server.shutdown();
    }

    #[test]
    fn adat_without_auth_rejected() {
        let (server, mut client, _banner) = connect(test_config(), 3);
        let r = roundtrip(&mut client, "ADAT aGVsbG8=");
        assert_eq!(r.code, 503);
        let r = roundtrip(&mut client, "AUTH KERBEROS");
        assert_eq!(r.code, 504);
        roundtrip(&mut client, "QUIT");
        server.shutdown();
    }
}
