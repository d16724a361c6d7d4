//! The server protocol interpreter (PI): one control-channel session.
//!
//! Message mapping: every inbound [`Link`] message is one command line;
//! every outbound message is one complete (possibly multiline) reply.
//! After `AUTH GSSAPI`/`ADAT` completes, commands arrive inside
//! `ENC`/`MIC` envelopes and replies leave the same way (§IIC: control
//! channel protected by default).

use crate::config::ServerConfig;
use crate::data::{
    CachedChannels, ChainExpiry, ChannelShape, DataListener, DataSecurity, DataStack, Flow,
};
use crate::dtp::{send_dir, send_ranges, send_slices, Progress, Receiver, Streams};
use crate::error::{Result, ServerError};
use crate::usage::TransferRecord;
use crate::users::UserContext;
use ig_crypto::encode::{base64_decode, base64_encode};
use ig_gsi::context::{GsiConfig, SecureContext};
use ig_gsi::delegation::{self, PendingDelegation};
use ig_gsi::handshake::{Acceptor, Step};
use ig_gsi::ProtectionLevel;
use ig_pki::validate::ValidatedIdentity;
use ig_pki::Credential;
use ig_protocol::command::{Command, DcauMode, ModeCode, ProtectedKind};
use ig_protocol::markers::{PerfMarker, RestartMarker};
use ig_protocol::secure_line;
use ig_obs::kv;
use ig_protocol::{dcsc, stream_dir, ByteRanges, HostPort, Reply};
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

pub(crate) enum LoopControl {
    Continue,
    Quit,
}

/// Per-session state.
pub struct Session<R: Rng> {
    config: Arc<ServerConfig>,
    rng: R,
    ctx: Option<SecureContext>,
    acceptor: Option<Acceptor>,
    identity: Option<ValidatedIdentity>,
    user: Option<UserContext>,
    delegated: Option<Credential>,
    pending_deleg: Option<PendingDelegation>,
    dcsc: Option<Credential>,
    mode: ModeCode,
    parallelism: usize,
    prot: ProtectionLevel,
    dcau: DcauMode,
    restart: Option<ByteRanges>,
    /// Declared command-pipelining window (`PIPE <n>`). The reactor
    /// already answers queued commands strictly in order, so the window
    /// is declarative — stored for introspection, echoed in the reply.
    pipe_window: u32,
    listeners: Vec<DataListener>,
    port_targets: Vec<HostPort>,
    /// The data channels of the last transfer that completed, kept for the
    /// next `RETR`/`STOR` (DESIGN §8, "Data-channel lifecycle").
    cached: Option<CachedChannels>,
    cwd: String,
    /// The session-lifetime span; command events hang off it.
    span: ig_obs::Span,
    /// Cached handle for the per-command RTT histogram.
    cmd_rtt: Arc<ig_obs::Histogram>,
    /// Handle into the shared [`crate::introspect::SessionIndex`] the
    /// admin `sessions` command snapshots; deregisters on drop.
    ticket: crate::introspect::SessionTicket,
    /// Live-session gauge: +1 in `new`, -1 when this guard drops. Declared
    /// after `span` on purpose: fields drop in declaration order, so
    /// the span's `span.end` is already in the trace by the time the
    /// gauge reads zero (tests poll the gauge, then export).
    _sessions_active: ActiveSessionGuard,
}

/// Decrements `server.sessions_active` when the session is dropped.
struct ActiveSessionGuard(Arc<ig_obs::Gauge>);

impl Drop for ActiveSessionGuard {
    fn drop(&mut self) {
        self.0.add(-1.0);
    }
}

/// Decrements `server.transfers_active` when one transfer's scope ends.
/// The drain state machine polls this gauge to zero, so the guard must
/// cover every exit from a transfer method — including error replies.
struct ActiveTransferGuard(Arc<ig_obs::Gauge>);

impl Drop for ActiveTransferGuard {
    fn drop(&mut self) {
        self.0.add(-1.0);
    }
}

fn send_reply(
    ctx: &mut Option<SecureContext>,
    link: &mut Box<dyn Link>,
    wrap: bool,
    reply: &Reply,
) -> Result<()> {
    let wire = if wrap {
        let ctx = ctx.as_mut().expect("wrap only after auth");
        secure_line::protect_reply(ctx, ProtectedKind::Enc, reply).to_wire()
    } else {
        reply.to_wire()
    };
    link.send(wire.as_bytes())
        .map_err(|e| ServerError::Data(format!("control send: {e}")))
}

impl<R: Rng> Session<R> {
    /// Fresh pre-auth session state.
    pub(crate) fn new(config: Arc<ServerConfig>, rng: R) -> Session<R> {
        let span = config.obs.span("session", vec![kv("endpoint", config.name.as_str())]);
        let cmd_rtt = config.obs.metrics().histogram("server.cmd_rtt_ns");
        let sessions_active = config.obs.metrics().gauge("server.sessions_active");
        sessions_active.add(1.0);
        let sessions_active = ActiveSessionGuard(sessions_active);
        let ticket = config.sessions.register();
        Session {
            config,
            rng,
            ctx: None,
            acceptor: None,
            identity: None,
            user: None,
            delegated: None,
            pending_deleg: None,
            dcsc: None,
            mode: ModeCode::Stream,
            parallelism: 1,
            prot: ProtectionLevel::Clear,
            dcau: DcauMode::Self_,
            restart: None,
            pipe_window: 1,
            listeners: Vec::new(),
            port_targets: Vec::new(),
            cached: None,
            cwd: "/".to_string(),
            span,
            cmd_rtt,
            ticket,
            _sessions_active: sessions_active,
        }
    }

    /// Send the 220 service-ready banner (always unwrapped).
    pub(crate) fn greet(&mut self, link: &mut Box<dyn Link>) -> Result<()> {
        let banner = Reply::service_ready(&self.config.banner);
        send_reply(&mut self.ctx, link, false, &banner)
    }

    /// One resumable step of the protocol machine: decode a complete
    /// inbound message, dispatch it, and write the reply to `link`.
    /// The reactor calls it from a pool worker with a frame the event
    /// loop buffered. An `Err` is session-fatal and has already sent
    /// the 421 (best effort).
    pub(crate) fn process_message(
        &mut self,
        link: &mut Box<dyn Link>,
        msg: Vec<u8>,
    ) -> Result<LoopControl> {
        let line = match String::from_utf8(msg) {
            Ok(l) => l,
            Err(_) => {
                send_reply(
                    &mut self.ctx,
                    link,
                    false,
                    &Reply::syntax_error("Command not UTF-8."),
                )?;
                return Ok(LoopControl::Continue);
            }
        };
        let parsed = Command::parse(&line);
        let cmd = match parsed {
            Ok(c) => c,
            Err(e) => {
                send_reply(
                    &mut self.ctx,
                    link,
                    false,
                    &Reply::syntax_error(&format!("Syntax error: {e}")),
                )?;
                return Ok(LoopControl::Continue);
            }
        };
        // Unwrap RFC 2228 envelopes.
        let (cmd, wrapped) = match &cmd {
            Command::Protected { .. } => {
                if self.ctx.is_none() {
                    send_reply(
                        &mut self.ctx,
                        link,
                        false,
                        &Reply::new(503, "Protected commands require completed AUTH."),
                    )?;
                    return Ok(LoopControl::Continue);
                }
                let ctx = self.ctx.as_mut().expect("checked above");
                match secure_line::unprotect_command(ctx, &cmd) {
                    Ok(inner) => (inner, true),
                    Err(e) => {
                        send_reply(
                            &mut self.ctx,
                            link,
                            false,
                            &Reply::new(535, format!("Protection error: {e}")),
                        )?;
                        return Ok(LoopControl::Continue);
                    }
                }
            }
            _ => (cmd, false),
        };
        match self.handle(link, cmd, wrapped) {
            Ok(ctl) => Ok(ctl),
            Err(e) => {
                // Session-fatal error: try to notify, then drop.
                let _ = send_reply(
                    &mut self.ctx,
                    link,
                    false,
                    &Reply::new(421, format!("Service error: {e}")),
                );
                Err(e)
            }
        }
    }
    fn reply(&mut self, link: &mut Box<dyn Link>, wrap: bool, reply: Reply) -> Result<()> {
        self.config.obs.metrics().add(&format!("server.reply_{}", reply.code), 1);
        send_reply(&mut self.ctx, link, wrap, &reply)
    }

    fn authed(&self) -> bool {
        self.user.is_some()
    }

    fn resolve_path(&self, path: &str) -> String {
        if path.starts_with('/') {
            path.to_string()
        } else if self.cwd == "/" {
            format!("/{path}")
        } else {
            format!("{}/{path}", self.cwd)
        }
    }

    /// Assemble how this session's data streams are built. §V: a DCSC
    /// context replaces both the presented credential and (via its
    /// self-signed chain certs) the accepted trust anchors; `DCSC D` has
    /// cleared `self.dcsc`, falling back to the login (delegated)
    /// credential. Every stream is metered as `server.dtp.*`.
    fn data_stack(&self) -> DataStack {
        let (credential, trust) = match &self.dcsc {
            Some(cred) => (
                Some(cred.clone()),
                self.config.trust.with_extra_roots(cred.chain().iter()),
            ),
            None => (self.delegated.clone(), self.config.trust.clone()),
        };
        DataStack {
            security: DataSecurity {
                dcau: self.dcau.clone(),
                prot: self.prot,
                credential,
                trust,
                clock: self.config.clock,
            },
            stripe_rate: self.config.live().stripe_rate,
            deadline: Some(self.config.live().stall_timeout),
            chaos: self.config.data_chaos.clone(),
            meter: Some((Arc::clone(&self.config.obs), "server.dtp")),
            expiry: ChainExpiry::default(),
        }
    }

    /// What a transfer moving payload `flow`-wards opens its channels as.
    fn channel_shape(&self, flow: Flow) -> ChannelShape {
        ChannelShape {
            flow,
            mode: self.mode,
            parallelism: self.parallelism,
        }
    }

    /// Forget every data channel this session has negotiated or kept: the
    /// one place listeners, `PORT` targets and cached channels are dropped.
    fn drop_data_channels(&mut self) {
        self.listeners.clear();
        self.port_targets.clear();
        if let Some(cached) = self.cached.take() {
            cached.close();
        }
    }

    /// The kept channels, for a transfer that arrived with no
    /// `PASV`/`PORT`/`SPAS`/`SPOR` since the last one — if `stack` and the
    /// session's state would build exactly them again, and their chains are
    /// still valid. Anything else has closed them.
    fn rearm_cached(&mut self, stack: &DataStack, flow: Flow) -> Option<Streams> {
        let shape = self.channel_shape(flow);
        let now = self.config.clock.now();
        let rearmed = CachedChannels::rearm(&mut self.cached, &shape, stack, now)?;
        self.config.obs.metrics().add("server.dtp.channels_reused", rearmed.len() as u64);
        Some(rearmed)
    }

    /// Dispatch one command, recording a replay-stable `cmd.dispatch`
    /// event on the session span and the command RTT (recv-to-reply on
    /// the server side) in `server.cmd_rtt_ns`.
    fn handle(
        &mut self,
        link: &mut Box<dyn Link>,
        cmd: Command,
        wrap: bool,
    ) -> Result<LoopControl> {
        let verb = cmd.verb();
        self.span.event("cmd.dispatch", vec![kv("verb", verb)]);
        self.ticket.touch(verb);
        self.config.obs.metrics().add("server.commands", 1);
        let t0 = Instant::now();
        let out = self.handle_inner(link, cmd, wrap);
        self.cmd_rtt.record(t0.elapsed().as_nanos() as u64);
        if let Err(e) = &out {
            // Error text can carry addresses/OS details: unstable.
            self.span
                .event_unstable("cmd.error", vec![kv("verb", verb), kv("error", e.to_string())]);
        }
        out
    }

    fn handle_inner(
        &mut self,
        link: &mut Box<dyn Link>,
        cmd: Command,
        wrap: bool,
    ) -> Result<LoopControl> {
        // Commands allowed before authentication.
        match &cmd {
            Command::Quit => {
                self.reply(link, wrap, Reply::goodbye())?;
                return Ok(LoopControl::Quit);
            }
            Command::Noop => {
                self.reply(link, wrap, Reply::ok("NOOP ok."))?;
                return Ok(LoopControl::Continue);
            }
            Command::Feat => {
                let mut lines = vec!["Features:".to_string()];
                for f in [
                    "AUTH GSSAPI",
                    "MODE E",
                    "PARALLEL",
                    "SPAS",
                    "SPOR",
                    "ERET P,DIR",
                    "ESTO DIR",
                    "PIPE",
                    "SIZE",
                    "MLST type*;size*;",
                    "REST STREAM",
                    "CKSM SHA256",
                    "PBSZ",
                    "PROT",
                    "DCAU",
                ] {
                    lines.push(format!(" {f}"));
                }
                if self.config.dcsc_enabled {
                    lines.push(" DCSC P,D".to_string());
                }
                lines.push("End".to_string());
                self.reply(link, wrap, Reply::multiline(211, lines))?;
                return Ok(LoopControl::Continue);
            }
            Command::Auth(mech) => {
                if mech.to_ascii_uppercase() != "GSSAPI" {
                    self.reply(link, wrap, Reply::new(504, "Only GSSAPI is supported."))?;
                    return Ok(LoopControl::Continue);
                }
                let cfg = GsiConfig {
                    credential: Some(self.config.credential.clone()),
                    trust: self.config.trust.clone(),
                    require_peer_auth: true,
                    clock: self.config.clock,
                    insecure_skip_peer_validation: false,
                };
                match Acceptor::new(cfg) {
                    Ok(a) => {
                        self.acceptor = Some(a);
                        self.reply(link, wrap, Reply::new(334, "Using authentication type GSSAPI; ADAT must follow."))?;
                    }
                    Err(e) => {
                        self.reply(link, wrap, Reply::new(431, format!("Security init failed: {e}")))?;
                    }
                }
                return Ok(LoopControl::Continue);
            }
            Command::Adat(b64) => {
                return self.handle_adat(link, wrap, b64.clone());
            }
            _ => {}
        }
        if !self.authed() {
            self.reply(
                link,
                wrap,
                Reply::not_logged_in("Please authenticate with AUTH GSSAPI first."),
            )?;
            return Ok(LoopControl::Continue);
        }
        // Authenticated command set.
        match cmd {
            Command::User(_) | Command::Pass(_) => {
                self.reply(link, wrap, Reply::new(230, "Already authenticated via GSI."))?;
            }
            Command::Type(_t) => {
                self.reply(link, wrap, Reply::ok("Type set."))?;
            }
            Command::Mode(m) => {
                self.mode = m;
                self.reply(link, wrap, Reply::ok("Mode set."))?;
            }
            Command::Pbsz(_) => {
                self.reply(link, wrap, Reply::ok("PBSZ=0."))?;
            }
            Command::Prot(level) => {
                match ProtectionLevel::from_code(level) {
                    Some(p) => {
                        self.prot = p;
                        self.reply(link, wrap, Reply::ok("Protection level set."))?;
                    }
                    None => {
                        self.reply(link, wrap, Reply::new(536, "Unsupported protection level."))?;
                    }
                }
            }
            Command::Dcau(mode) => {
                self.dcau = mode;
                self.reply(link, wrap, Reply::ok("DCAU set."))?;
            }
            Command::Pipe(n) => {
                if (1..=64).contains(&n) {
                    self.pipe_window = n;
                    let w = self.pipe_window;
                    self.reply(
                        link,
                        wrap,
                        Reply::ok(&format!("Pipelining window {w} accepted; replies stay ordered.")),
                    )?;
                } else {
                    self.reply(link, wrap, Reply::new(501, "PIPE window must be 1..=64."))?;
                }
            }
            Command::Dcsc { context_type, blob } => {
                if !self.config.dcsc_enabled {
                    // The legacy-server behaviour of §IV-B.
                    self.reply(link, wrap, Reply::syntax_error("DCSC not understood."))?;
                    return Ok(LoopControl::Continue);
                }
                match dcsc::interpret(context_type, blob.as_deref()) {
                    Ok(dcsc::DcscAction::Install(cred)) => {
                        self.dcsc = Some(*cred);
                        self.reply(link, wrap, Reply::ok("Data channel security context installed."))?;
                    }
                    Ok(dcsc::DcscAction::RevertToDefault) => {
                        self.dcsc = None;
                        self.reply(link, wrap, Reply::ok("Data channel security context reverted."))?;
                    }
                    Err(e) => {
                        self.reply(link, wrap, Reply::syntax_error(&format!("Bad DCSC: {e}")))?;
                    }
                }
            }
            Command::Opts { .. } => {
                if let Some(p) = cmd.parallelism() {
                    self.parallelism = (p as usize).max(1);
                    self.reply(link, wrap, Reply::ok("Parallelism set."))?;
                } else {
                    self.reply(link, wrap, Reply::ok("Option ignored."))?;
                }
            }
            Command::Pasv => {
                self.drop_data_channels();
                let l = DataListener::bind(self.config.data_ip)?;
                let addr = l.addr();
                self.listeners.push(l);
                self.reply(
                    link,
                    wrap,
                    Reply::new(227, format!("Entering Passive Mode ({addr})")),
                )?;
            }
            Command::Spas => {
                if self.config.stripes < 2 {
                    self.reply(link, wrap, Reply::syntax_error("Server is not striped."))?;
                    return Ok(LoopControl::Continue);
                }
                self.drop_data_channels();
                let mut lines = vec!["Entering Striped Passive Mode".to_string()];
                for _ in 0..self.config.stripes {
                    let l = DataListener::bind(self.config.data_ip)?;
                    lines.push(format!(" {}", l.addr()));
                    self.listeners.push(l);
                }
                self.reply(link, wrap, Reply::multiline(229, lines))?;
            }
            Command::Port(hp) => {
                self.drop_data_channels();
                self.port_targets = vec![hp];
                self.reply(link, wrap, Reply::ok("PORT ok."))?;
            }
            Command::Spor(list) => {
                self.drop_data_channels();
                self.port_targets = list;
                self.reply(link, wrap, Reply::ok("SPOR ok."))?;
            }
            Command::Rest(marker) => {
                match ByteRanges::parse_marker(&marker) {
                    Ok(r) => {
                        self.restart = Some(r);
                        self.reply(link, wrap, Reply::new(350, "Restart marker accepted."))?;
                    }
                    Err(_) => match marker.parse::<u64>() {
                        Ok(offset) => {
                            let mut r = ByteRanges::new();
                            r.add(0, offset);
                            self.restart = Some(r);
                            self.reply(link, wrap, Reply::new(350, "Restart offset accepted."))?;
                        }
                        Err(_) => {
                            self.reply(link, wrap, Reply::syntax_error("Bad REST marker."))?;
                        }
                    },
                }
            }
            Command::Size(path) => {
                let user = self.user.clone().expect("authed");
                let p = self.resolve_path(&path);
                match self.config.dsi.size(&user, &p) {
                    Ok(s) => self.reply(link, wrap, Reply::new(213, s.to_string()))?,
                    Err(e) => self.reply(link, wrap, Reply::action_failed(&e.to_string()))?,
                }
            }
            Command::Mdtm(path) => {
                let user = self.user.clone().expect("authed");
                let p = self.resolve_path(&path);
                if self.config.dsi.exists(&user, &p) {
                    self.reply(link, wrap, Reply::new(213, self.config.clock.now().to_string()))?;
                } else {
                    self.reply(link, wrap, Reply::action_failed("No such file."))?;
                }
            }
            Command::Dele(path) => {
                let user = self.user.clone().expect("authed");
                let p = self.resolve_path(&path);
                match self.config.dsi.delete(&user, &p) {
                    Ok(()) => self.reply(link, wrap, Reply::new(250, "File deleted."))?,
                    Err(e) => self.reply(link, wrap, Reply::action_failed(&e.to_string()))?,
                }
            }
            Command::Mkd(path) => {
                let user = self.user.clone().expect("authed");
                let p = self.resolve_path(&path);
                match self.config.dsi.mkdir(&user, &p) {
                    Ok(()) => self.reply(link, wrap, Reply::new(257, format!("\"{p}\" created.")))?,
                    Err(e) => self.reply(link, wrap, Reply::action_failed(&e.to_string()))?,
                }
            }
            Command::Rmd(path) => {
                let user = self.user.clone().expect("authed");
                let p = self.resolve_path(&path);
                match self.config.dsi.rmdir(&user, &p) {
                    Ok(()) => self.reply(link, wrap, Reply::new(250, "Directory removed."))?,
                    Err(e) => self.reply(link, wrap, Reply::action_failed(&e.to_string()))?,
                }
            }
            Command::Cwd(path) => {
                let user = self.user.clone().expect("authed");
                let p = self.resolve_path(&path);
                if self.config.dsi.list(&user, &p).is_ok() {
                    self.cwd = p;
                    self.reply(link, wrap, Reply::new(250, "Directory changed."))?;
                } else {
                    self.reply(link, wrap, Reply::action_failed("No such directory."))?;
                }
            }
            Command::Cdup => {
                let parent = match self.cwd.rfind('/') {
                    Some(0) | None => "/".to_string(),
                    Some(i) => self.cwd[..i].to_string(),
                };
                self.cwd = parent;
                self.reply(link, wrap, Reply::new(250, "Directory changed."))?;
            }
            Command::Pwd => {
                let cwd = self.cwd.clone();
                self.reply(link, wrap, Reply::new(257, format!("\"{cwd}\" is the current directory.")))?;
            }
            Command::Mlst(path) => {
                let user = self.user.clone().expect("authed");
                let p = self.resolve_path(path.as_deref().unwrap_or("."));
                match self.config.dsi.size(&user, &p) {
                    Ok(s) => {
                        self.reply(
                            link,
                            wrap,
                            Reply::multiline(
                                250,
                                vec![
                                    "Listing:".into(),
                                    format!(" type=file;size={s}; {p}"),
                                    "End".into(),
                                ],
                            ),
                        )?;
                    }
                    Err(_) => {
                        if self.config.dsi.list(&user, &p).is_ok() {
                            self.reply(
                                link,
                                wrap,
                                Reply::multiline(
                                    250,
                                    vec![
                                        "Listing:".into(),
                                        format!(" type=dir;size=0; {p}"),
                                        "End".into(),
                                    ],
                                ),
                            )?;
                        } else {
                            self.reply(link, wrap, Reply::action_failed("No such path."))?;
                        }
                    }
                }
            }
            Command::List(path) | Command::Nlst(path) | Command::Mlsd(path) => {
                let user = self.user.clone().expect("authed");
                let p = self.resolve_path(path.as_deref().unwrap_or("."));
                let entries = match self.config.dsi.list(&user, &p) {
                    Ok(e) => e,
                    Err(e) => {
                        self.reply(link, wrap, Reply::action_failed(&e.to_string()))?;
                        return Ok(LoopControl::Continue);
                    }
                };
                let text: String =
                    entries.iter().map(|e| format!("{}\r\n", e.to_mlsd())).collect();
                self.run_send_transfer(link, wrap, TransferSource::Buffer(text.into_bytes()))?;
            }
            Command::Retr(path) => {
                let p = self.resolve_path(&path);
                self.run_send_transfer(link, wrap, TransferSource::File(p))?;
            }
            Command::Eret { module, args } => match module.to_ascii_uppercase().as_str() {
                // `ERET P <offset>,<length> <path>` — partial file
                // retrieval (the classic GridFTP ERET module).
                "P" => {
                    let Some((range, path)) = args.split_once(' ') else {
                        self.reply(link, wrap, Reply::syntax_error("ERET P needs <offset>,<length> <path>."))?;
                        return Ok(LoopControl::Continue);
                    };
                    let parsed = range.split_once(',').and_then(|(o, l)| {
                        Some((o.trim().parse::<u64>().ok()?, l.trim().parse::<u64>().ok()?))
                    });
                    let Some((offset, length)) = parsed else {
                        self.reply(link, wrap, Reply::syntax_error("Bad ERET P range."))?;
                        return Ok(LoopControl::Continue);
                    };
                    let p = self.resolve_path(path.trim());
                    self.run_send_transfer(link, wrap, TransferSource::Partial { path: p, offset, length })?;
                }
                // `ERET DIR <skip> <path>` — stream the tree under
                // <path> as one directory stream, skipping the first
                // <skip> walk entries (file-granular resume).
                "DIR" => {
                    let Some((skip, path)) = args.split_once(' ') else {
                        self.reply(link, wrap, Reply::syntax_error("ERET DIR needs <skip> <path>."))?;
                        return Ok(LoopControl::Continue);
                    };
                    let Ok(skip) = skip.trim().parse::<u64>() else {
                        self.reply(link, wrap, Reply::syntax_error("Bad ERET DIR skip count."))?;
                        return Ok(LoopControl::Continue);
                    };
                    let p = self.resolve_path(path.trim());
                    self.run_send_transfer(link, wrap, TransferSource::Dir { path: p, skip })?;
                }
                _ => {
                    self.reply(link, wrap, Reply::new(504, "Only the P (partial) and DIR ERET modules are supported."))?;
                }
            },
            Command::Stor(path) => {
                let p = self.resolve_path(&path);
                self.run_receive_transfer(link, wrap, &p)?;
            }
            Command::Esto { module, args } => match module.to_ascii_uppercase().as_str() {
                // `ESTO DIR <path>` — receive a directory stream and
                // expand it under <path>.
                "DIR" => {
                    let p = self.resolve_path(args.trim());
                    self.run_receive_dir(link, wrap, &p)?;
                }
                // Unknown ESTO modules used to fall through to a plain
                // STOR of the args' last token — silently wrong data
                // layout. They are now refused up front.
                _ => {
                    self.reply(link, wrap, Reply::new(504, "Only the DIR ESTO module is supported."))?;
                }
            },
            Command::Allo(_) => {
                self.reply(link, wrap, Reply::ok("ALLO noted."))?;
            }
            Command::Cksm { algorithm, offset, length, path } => {
                if algorithm != "SHA256" {
                    self.reply(link, wrap, Reply::new(504, "Only SHA256 checksums supported."))?;
                    return Ok(LoopControl::Continue);
                }
                let user = self.user.clone().expect("authed");
                let p = self.resolve_path(&path);
                match checksum(self.config.dsi.as_ref(), &user, &p, offset, length) {
                    Ok(hex) => self.reply(link, wrap, Reply::new(213, hex))?,
                    Err(e) => self.reply(link, wrap, Reply::action_failed(&e.to_string()))?,
                }
            }
            Command::Abor => {
                self.reply(link, wrap, Reply::new(226, "No transfer in progress."))?;
            }
            Command::Site(arg) => {
                self.handle_site(link, wrap, &arg)?;
            }
            Command::Unknown { verb, .. } => {
                self.reply(link, wrap, Reply::syntax_error(&format!("Unknown command {verb}.")))?;
            }
            // Already handled above.
            Command::Quit
            | Command::Noop
            | Command::Feat
            | Command::Auth(_)
            | Command::Adat(_)
            | Command::Protected { .. } => unreachable!("handled in pre-auth dispatch"),
        }
        Ok(LoopControl::Continue)
    }

    fn handle_adat(
        &mut self,
        link: &mut Box<dyn Link>,
        wrap: bool,
        b64: String,
    ) -> Result<LoopControl> {
        let Some(acceptor) = self.acceptor.as_mut() else {
            self.reply(link, wrap, Reply::new(503, "ADAT before AUTH."))?;
            return Ok(LoopControl::Continue);
        };
        let token = match base64_decode(&b64) {
            Ok(t) => t,
            Err(e) => {
                self.acceptor = None;
                self.reply(link, wrap, Reply::new(535, format!("Bad ADAT base64: {e}")))?;
                return Ok(LoopControl::Continue);
            }
        };
        match acceptor.step(&token, &mut self.rng) {
            Ok(Step::Send(t)) => {
                self.reply(link, wrap, Reply::adat_continue(&base64_encode(&t)))?;
            }
            Ok(Step::Done(est)) => {
                self.acceptor = None;
                let peer = match est.peer.clone() {
                    Some(p) => p,
                    None => {
                        self.reply(link, wrap, Reply::new(535, "Anonymous clients not allowed."))?;
                        return Ok(LoopControl::Continue);
                    }
                };
                // Authorization callout (Fig 3 step 5).
                match self.config.authz.authorize(&peer) {
                    Ok(local) => {
                        self.ctx = Some(SecureContext::from_established(est));
                        self.user = Some(UserContext::user(&local));
                        self.ticket.set_user(&local);
                        self.cwd = format!("/home/{local}");
                        self.identity = Some(peer);
                        self.reply(link, wrap, Reply::adat_done(None))?;
                    }
                    Err(e) => {
                        self.reply(link, wrap, Reply::new(535, format!("Authorization failed: {e}")))?;
                    }
                }
            }
            Ok(Step::SendAndDone(..)) => {
                self.acceptor = None;
                self.reply(link, wrap, Reply::new(535, "Unexpected handshake state."))?;
            }
            Err(e) => {
                self.acceptor = None;
                self.reply(link, wrap, Reply::new(535, format!("Authentication failed: {e}")))?;
            }
        }
        Ok(LoopControl::Continue)
    }

    fn handle_site(&mut self, link: &mut Box<dyn Link>, wrap: bool, arg: &str) -> Result<()> {
        let mut parts = arg.split_whitespace();
        match (
            parts.next().map(str::to_ascii_uppercase).as_deref(),
            parts.next().map(str::to_ascii_uppercase).as_deref(),
        ) {
            (Some("DELEG"), Some("REQ")) => {
                // Server generates a key + CSR (GSI delegation, §IIC).
                let (req, pending) = delegation::offer(&mut self.rng, self.config.key_bits)
                    .map_err(ServerError::Gsi)?;
                self.pending_deleg = Some(pending);
                self.reply(link, wrap, Reply::new(250, format!("DELEG={}", base64_encode(&req))))
            }
            (Some("DELEG"), Some("PUT")) => {
                let b64 = parts.next().unwrap_or("");
                let Some(pending) = self.pending_deleg.take() else {
                    return self.reply(link, wrap, Reply::new(503, "No delegation in progress."));
                };
                let grant = match base64_decode(b64) {
                    Ok(g) => g,
                    Err(e) => {
                        return self
                            .reply(link, wrap, Reply::syntax_error(&format!("Bad base64: {e}")))
                    }
                };
                match delegation::complete(pending, &grant) {
                    Ok(cred) => {
                        self.delegated = Some(cred);
                        self.reply(link, wrap, Reply::new(250, "Delegation complete."))
                    }
                    Err(e) => {
                        self.reply(link, wrap, Reply::new(535, format!("Delegation failed: {e}")))
                    }
                }
            }
            (Some("STATS"), _) => {
                // Observability surface (§ DESIGN.md 10): one line of JSON
                // holding the usage totals (the E1 pipeline's source) and a
                // snapshot of the same metrics registry every layer records
                // into. Rendered by the same serializer as the admin
                // plane's `metrics` command, so the two surfaces can
                // never drift apart.
                let stats = crate::usage::stats_json(
                    self.config.obs.component(),
                    &self.config.usage,
                    self.config.obs.metrics(),
                );
                self.reply(link, wrap, Reply::new(250, stats))
            }
            _ => self.reply(link, wrap, Reply::ok("SITE command ignored.")),
        }
    }

    /// Arm the per-transfer accounting: bump `server.transfers_active`
    /// (the gauge the drain state machine polls to zero) and flip the
    /// session's introspection state to `Transfer`. Both roll back when
    /// the returned guards drop, so every exit path — clean, error
    /// reply, or unwind — leaves the books balanced.
    fn begin_transfer(&self) -> (ActiveTransferGuard, crate::introspect::TransferScope) {
        let gauge = self.config.obs.metrics().gauge("server.transfers_active");
        gauge.add(1.0);
        (ActiveTransferGuard(gauge), self.ticket.transfer_scope())
    }

    /// The data streams of an outgoing (sending) transfer: dialled or
    /// accepted now, or — with no `PORT`/`PASV` since the last transfer —
    /// the kept ones.
    fn open_send_streams(&mut self, stack: &DataStack) -> Result<Streams> {
        let mut streams: Streams = Vec::new();
        if !self.port_targets.is_empty() {
            // Active: connect out (we are the sender, the canonical case).
            for target in self.port_targets.clone() {
                for _ in 0..self.parallelism {
                    streams.push(stack.connect(target, &mut self.rng)?);
                }
            }
        } else if !self.listeners.is_empty() {
            // Passive sender (two-party GET): accept `parallelism`
            // connections per listener.
            let stall = self.config.live().stall_timeout;
            for l in &self.listeners {
                for _ in 0..self.parallelism {
                    streams.push(stack.accept(l.accept(stall)?, &mut self.rng)?);
                }
            }
        } else {
            return self.rearm_cached(stack, Flow::Send).ok_or_else(no_data_channel);
        }
        Ok(streams)
    }

    /// Where an inbound transfer's streams come from: `None` when they
    /// will arrive through the negotiated listeners or targets, the kept
    /// ones when nothing was negotiated since the last transfer, and with
    /// neither the 425 that refuses the command before its 150.
    fn inbound_channels(
        &mut self,
        stack: &DataStack,
    ) -> std::result::Result<Option<Streams>, Reply> {
        if !self.listeners.is_empty() || !self.port_targets.is_empty() {
            return Ok(None);
        }
        self.rearm_cached(stack, Flow::Receive).map(Some).ok_or_else(|| {
            Reply::new(425, format!("Cannot open data channel: {}", no_data_channel()))
        })
    }

    /// Close one transfer's books and send its terminal reply. The only
    /// place `usage.record` and the `server.transfers_*`/`bytes_*`
    /// counters move, side by side, so SITE STATS can never drift from
    /// usage.rs.
    fn finish_transfer(
        &mut self,
        link: &mut Box<dyn Link>,
        wrap: bool,
        tspan: ig_obs::Span,
        stack: DataStack,
        end: TransferEnd,
    ) -> Result<()> {
        // Whatever this transfer was negotiated on is spent; only one that
        // completed leaves its channels behind for the next.
        self.drop_data_channels();
        let metrics = self.config.obs.metrics();
        match end {
            TransferEnd::Complete { inbound, streams, bytes, reply, ran_on } => {
                self.config.usage.record(TransferRecord {
                    timestamp: self.config.clock.now(),
                    bytes,
                    user: self.user.as_ref().expect("authed").username.clone(),
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
                self.reply(link, wrap, reply)?;
                // After the 226, so that channels which cannot be kept are
                // closed while the peer, done as well, closes its ends.
                if let Some(links) = ran_on {
                    let flow = if inbound { Flow::Receive } else { Flow::Send };
                    self.cached = CachedChannels::keep(links, self.channel_shape(flow), stack);
                }
                Ok(())
            }
            TransferEnd::Failed { counter, outcome, reply } => {
                if let Some(counter) = counter {
                    metrics.add(counter, 1);
                }
                tspan.end_with(outcome);
                self.reply(link, wrap, reply)
            }
        }
    }

    fn run_send_transfer(
        &mut self,
        link: &mut Box<dyn Link>,
        wrap: bool,
        source: TransferSource,
    ) -> Result<()> {
        let user = self.user.clone().expect("authed");
        let stack = self.data_stack();
        // Determine ranges before opening data channels, and with them
        // `announced`: the payload bytes the 150 says are about to be sent.
        let (ranges, total_len, announced) = match &source {
            TransferSource::File(path) => {
                let size = match self.config.dsi.size(&user, path) {
                    Ok(s) => s,
                    Err(e) => {
                        self.reply(link, wrap, Reply::action_failed(&e.to_string()))?;
                        return Ok(());
                    }
                };
                let ranges = match self.restart.take() {
                    // REST semantics for RETR: send only what the ranges say
                    // is still missing (stream offset N = resend [N, size)).
                    Some(have) => have.missing(size),
                    None => vec![(0, size)],
                };
                let missing = ranges.iter().map(|(from, to)| to - from).sum();
                (ranges, size, missing)
            }
            TransferSource::Partial { path, offset, length } => {
                let size = match self.config.dsi.size(&user, path) {
                    Ok(s) => s,
                    Err(e) => {
                        self.reply(link, wrap, Reply::action_failed(&e.to_string()))?;
                        return Ok(());
                    }
                };
                let start = (*offset).min(size);
                let end = start.saturating_add(*length).min(size);
                (vec![(start, end)], end - start, end - start)
            }
            TransferSource::Buffer(buf) => {
                let len = buf.len() as u64;
                (vec![(0, len)], len, len)
            }
            TransferSource::Dir { path, skip } => {
                // Validate root + skip before the 150 so a bad request
                // fails cheaply, without opening data channels.
                let entries = match crate::dsi::walk(self.config.dsi.as_ref(), &user, path) {
                    Ok(e) => e,
                    Err(e) => {
                        self.reply(link, wrap, Reply::action_failed(&e.to_string()))?;
                        return Ok(());
                    }
                };
                if *skip > entries.len() as u64 {
                    self.reply(
                        link,
                        wrap,
                        Reply::action_failed(&format!(
                            "resume skip {skip} beyond the tree's {} entries",
                            entries.len()
                        )),
                    )?;
                    return Ok(());
                }
                // Payload bytes for the span; the stream adds the framing
                // the 150's figure includes.
                let framed: u64 = entries[*skip as usize..]
                    .iter()
                    .map(|e| stream_dir::framed_len(&e.rel_path, (!e.is_dir).then_some(e.size)))
                    .sum();
                let payload = entries.iter().map(|e| e.size).sum();
                (Vec::new(), payload, framed + stream_dir::END_LEN as u64)
            }
        };
        let streams = match self.open_send_streams(&stack) {
            Ok(s) => s,
            Err(e) => {
                self.reply(link, wrap, Reply::new(425, format!("Cannot open data channel: {e}")))?;
                return Ok(());
            }
        };
        let stream_count = streams.len() as u32;
        let tspan = self.config.obs.span(
            "transfer",
            vec![
                kv("direction", "send"),
                kv("streams", stream_count),
                kv("bytes_expected", total_len),
            ],
        );
        let _active = self.begin_transfer();
        self.reply(link, wrap, Reply::sending_data(announced))?;
        // One coherent tunable snapshot for the whole transfer: a
        // reload mid-flight affects the next transfer, not this one.
        let block_size = self.config.live().block_size;
        let progress = Progress::on(&self.config.obs);
        let dsi = Arc::clone(&self.config.dsi);
        // This thread is the feeder: with one stream it also puts the
        // blocks on the wire, with more it fills the stream workers'
        // queues. Between blocks it reports: a 112 once `MARKER_PERIOD`
        // has passed and bytes moved, and one closing marker when the
        // transfer ended past the last one sent — every non-empty transfer,
        // however short, reports its final count. There is no stall check
        // here: a peer that stops reading fails the blocked send on the
        // stack's write deadline.
        let start = Instant::now();
        let total_stripes = self.config.stripes as u32;
        let mut markers = PerfMarkers { start, total_stripes, last: start, last_bytes: 0 };
        let mut between = || -> Result<()> {
            if markers.last.elapsed() >= MARKER_PERIOD {
                self.perf_marker(link, wrap, &mut markers, &progress)?;
            }
            Ok(())
        };
        let outcome = match source {
            TransferSource::File(path) | TransferSource::Partial { path, .. } => send_ranges(
                streams,
                &dsi,
                &user,
                &path,
                &ranges,
                block_size,
                &progress,
                &mut between,
            ),
            TransferSource::Buffer(buf) => send_slices(streams, &buf, &ranges, block_size, &progress),
            TransferSource::Dir { path, skip } => {
                send_dir(streams, &dsi, &user, &path, skip, block_size, &progress, &mut between)
            }
        };
        self.perf_marker(link, wrap, &mut markers, &progress)?;
        let end = match outcome {
            Ok((bytes, streams)) => TransferEnd::Complete {
                inbound: false,
                streams: stream_count,
                bytes,
                reply: Reply::transfer_complete(),
                ran_on: Some(streams),
            },
            // Thread exhaustion is an operational signal, not a
            // session-fatal bug: count it, fail this transfer, keep the
            // control channel up.
            Err(ServerError::Spawn(why)) => TransferEnd::spawn_error(why),
            Err(e) => TransferEnd::error(Reply::new(426, format!("Transfer failed: {e}"))),
        };
        self.finish_transfer(link, wrap, tspan, stack, end)
    }

    /// Report a sending transfer's progress as a 112, if bytes moved since
    /// the last one. A 112 is advisory: whether to send it is decided
    /// before it is sealed (a sealed reply that is not sent leaves a hole
    /// in the context's sequence numbers), and one the control socket has
    /// no room for is skipped, never waited for — a client that reads the
    /// control channel only once the data has arrived cannot stall the
    /// data by it.
    fn perf_marker(
        &mut self,
        link: &mut Box<dyn Link>,
        wrap: bool,
        markers: &mut PerfMarkers,
        progress: &Progress,
    ) -> Result<()> {
        // The marker carries this transfer's own count; the gauge (the
        // latest count of any session) is for `SITE STATS`.
        let bytes = progress.bytes();
        markers.last = Instant::now();
        if bytes == markers.last_bytes || link.send_would_block() {
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
        self.reply(link, wrap, marker.to_reply())
    }

    fn run_receive_transfer(
        &mut self,
        link: &mut Box<dyn Link>,
        wrap: bool,
        path: &str,
    ) -> Result<()> {
        let user = self.user.clone().expect("authed");
        let stack = self.data_stack();
        let rearmed = match self.inbound_channels(&stack) {
            Ok(rearmed) => rearmed,
            Err(refusal) => return self.reply(link, wrap, refusal),
        };
        let resuming = self.restart.take();
        if resuming.is_none() {
            // Fresh upload: start from scratch.
            let _ = self.config.dsi.truncate(&user, path, 0);
        }
        let tspan = self.config.obs.span(
            "transfer",
            vec![kv("direction", "recv"), kv("resuming", resuming.is_some())],
        );
        let _active = self.begin_transfer();
        self.reply(link, wrap, Reply::opening_data())?;
        let progress = Progress::on(&self.config.obs);
        if let Some(have) = &resuming {
            // Seed progress with what already landed so markers are global.
            let mut r = progress.ranges.lock();
            for &(s, e) in have.ranges() {
                r.add(s, e);
            }
        }
        let receiver = Receiver::new(
            Arc::clone(&self.config.dsi),
            user.clone(),
            path,
            Arc::clone(&progress),
        )
        .with_idle(self.config.live().stall_timeout)
        .with_wake(WakeFd::new()?);
        let (streams, fin) =
            match self.pump_receiver(link, wrap, &stack, receiver, &progress, rearmed)? {
                Ok(pumped) => pumped,
                Err(failed) => return self.finish_transfer(link, wrap, tspan, stack, failed),
            };
        let end = match fin {
            Ok((bytes, links)) => TransferEnd::Complete {
                inbound: true,
                streams,
                bytes,
                reply: Reply::transfer_complete(),
                ran_on: Some(links),
            },
            Err(e) => TransferEnd::error(Reply::new(426, format!("Transfer failed: {e}"))),
        };
        self.finish_transfer(link, wrap, tspan, stack, end)
    }

    /// Drive the accept/connect + 111-marker loop for an inbound
    /// transfer until the receiver drains, errors, or stalls, then join
    /// its streams: returns how many there were (connected now, or
    /// `rearmed` — the kept ones, which then are all there will be) and
    /// what they received.
    /// Emits only in-transfer markers; the terminal reply is the caller's
    /// job — an inner `Err` is the ready-made [`TransferEnd::Failed`] for
    /// a stream that could not be added. Shared by plain `STOR` and
    /// `ESTO DIR` so both directions of pipelined sessions exercise one
    /// code path.
    fn pump_receiver(
        &mut self,
        link: &mut Box<dyn Link>,
        wrap: bool,
        stack: &DataStack,
        receiver: Receiver,
        progress: &Arc<Progress>,
        rearmed: Option<Streams>,
    ) -> Result<std::result::Result<Pumped, TransferEnd>> {
        let live = self.config.live();
        let listening: Vec<RawFd> = self.listeners.iter().map(|l| l.as_raw_fd()).collect();
        let mut connected = 0u32;
        for stream in rearmed.unwrap_or_default() {
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
            if !self.port_targets.is_empty() && connected == 0 {
                // Active receive: we connect out (unusual but legal).
                for target in self.port_targets.clone() {
                    for _ in 0..self.parallelism {
                        let stream = stack.connect(target, &mut self.rng)?;
                        if let Err(e) = receiver.add_stream(stream) {
                            return Ok(Err(TransferEnd::spawn_error(e.to_string())));
                        }
                        connected += 1;
                    }
                }
            }
            for l in &self.listeners {
                while let Some(conn) = l.try_accept()? {
                    match stack.accept(conn, &mut self.rng) {
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
            // The one wait of an inbound transfer: a stream's end (EOD or
            // fault) or a queued connection wakes it; the marker period is
            // only its timeout.
            receiver.wait(&listening, RESTART_MARKER_PERIOD)?;
            // Emit 111 restart markers as new ranges land.
            let snapshot = progress.ranges_snapshot();
            if snapshot != last_marker {
                last_marker = snapshot.clone();
                last_progress = Instant::now();
                self.reply(link, wrap, RestartMarker { ranges: snapshot }.to_reply())?;
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
            self.reply(link, wrap, RestartMarker { ranges: landed }.to_reply())?;
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
    fn run_receive_dir(
        &mut self,
        link: &mut Box<dyn Link>,
        wrap: bool,
        root: &str,
    ) -> Result<()> {
        let user = self.user.clone().expect("authed");
        let stack = self.data_stack();
        let rearmed = match self.inbound_channels(&stack) {
            Ok(rearmed) => rearmed,
            Err(refusal) => return self.reply(link, wrap, refusal),
        };
        // REST does not apply here; resume is entry-granular via the
        // count in the terminal reply. Drop any stale marker so it
        // cannot leak into this transfer.
        self.restart = None;
        let tspan = self
            .config
            .obs
            .span("transfer", vec![kv("direction", "recv-dir")]);
        let _active = self.begin_transfer();
        self.reply(link, wrap, Reply::opening_data())?;
        let progress = Progress::on(&self.config.obs);
        // Stage the raw stream in session-private memory: expansion must
        // be entry-atomic even though MODE E blocks land out of order.
        let staging = crate::dsi::memory::MemDsi::new();
        let staging: Arc<dyn crate::dsi::Dsi> = Arc::new(staging);
        let su = UserContext::superuser();
        let receiver =
            Receiver::new(Arc::clone(&staging), su.clone(), "/stream", Arc::clone(&progress))
                .with_idle(self.config.live().stall_timeout)
                .with_wake(WakeFd::new()?);
        let (streams, fin) =
            match self.pump_receiver(link, wrap, &stack, receiver, &progress, rearmed)? {
                Ok(pumped) => pumped,
                Err(failed) => return self.finish_transfer(link, wrap, tspan, stack, failed),
            };
        // Expand whatever complete prefix landed — holes left by lost
        // blocks fail a header magic or trailer checksum and stop the
        // decoder at the last complete entry, never mid-file.
        let staged = crate::dsi::read_all(staging.as_ref(), &su, "/stream", 256 * 1024)
            .unwrap_or_default();
        let end = match crate::dsi::expand_stream(self.config.dsi.as_ref(), &user, root, &staged) {
            Err(e) => TransferEnd::error(Reply::new(
                426,
                format!("Directory stream failed after 0 entries: {e}"),
            )),
            // Every entry decoded, every checksum passed, count matched:
            // the tree is complete even if the transport died after the
            // final block.
            Ok(out) if out.finished && out.error.is_none() => TransferEnd::Complete {
                inbound: true,
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
        };
        self.finish_transfer(link, wrap, tspan, stack, end)
    }
}

/// What [`Session::pump_receiver`] got out of an inbound transfer: how many
/// streams it had, and what [`Receiver::finish`] made of them.
type Pumped = (u32, Result<(u64, Streams)>);

/// How a transfer ended after its 150, for [`Session::finish_transfer`].
enum TransferEnd {
    /// Everything landed: book it, send `reply` (a 226), then keep the
    /// channels it ran on — or close them, if they are not of a kind that
    /// can be kept.
    Complete {
        inbound: bool,
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

/// What a transfer command gets when there is nothing to run it on.
fn no_data_channel() -> ServerError {
    ServerError::Data("no data channel established (use PASV/PORT)".into())
}

enum TransferSource {
    File(String),
    Partial { path: String, offset: u64, length: u64 },
    Buffer(Vec<u8>),
    /// A whole tree as one directory stream, resuming at walk entry
    /// `skip` (`ERET DIR <skip> <path>`).
    Dir { path: String, skip: u64 },
}

/// SHA-256 over a byte range of a DSI file, streamed in 256 KiB reads.
fn checksum(
    dsi: &dyn crate::dsi::Dsi,
    user: &UserContext,
    path: &str,
    offset: u64,
    length: Option<u64>,
) -> Result<String> {
    let size = dsi.size(user, path)?;
    let start = offset.min(size);
    let end = match length {
        Some(l) => (start + l).min(size),
        None => size,
    };
    let mut hasher = ig_crypto::Sha256::new();
    let mut pos = start;
    while pos < end {
        let want = (256 * 1024).min((end - pos) as usize);
        let chunk = dsi.read(user, path, pos, want)?;
        if chunk.is_empty() {
            break;
        }
        pos += chunk.len() as u64;
        hasher.update(&chunk);
    }
    Ok(ig_crypto::encode::hex_encode(&hasher.finalize()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsi::{memory::MemDsi, Dsi};
    use ig_gsi::context::test_support::{ca_and_credential, config_with};
    use ig_obs::sync::Mutex;
    use ig_pki::TrustStore;
    use ig_protocol::mode_e::Block;
    use ig_xio::TcpLink;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// A control link that keeps what is sent on it and says, for the
    /// first `blocked` times it is asked, that a send would have to wait.
    struct FullFor {
        blocked: AtomicU32,
        sent: Sent,
    }

    type Sent = Arc<Mutex<Vec<Vec<u8>>>>;

    impl Link for FullFor {
        fn send(&mut self, data: &[u8]) -> std::io::Result<()> {
            self.sent.lock().push(data.to_vec());
            Ok(())
        }
        fn recv(&mut self) -> std::io::Result<Vec<u8>> {
            Err(std::io::ErrorKind::Unsupported.into())
        }
        fn close(&mut self) -> std::io::Result<()> {
            Ok(())
        }
        fn send_would_block(&self) -> bool {
            let decrement = |left: u32| left.checked_sub(1);
            self.blocked.fetch_update(Ordering::Relaxed, Ordering::Relaxed, decrement).is_ok()
        }
    }

    #[test]
    fn a_112_the_control_link_has_no_room_for_is_skipped_unsealed() {
        // A secured session past its login, with `PORT` given: what
        // `AUTH`/`ADAT`, `DCAU N`, `MODE E` and `PORT` would have left.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x112);
        let (ca, host) = ca_and_credential(&mut rng, "/O=CA", "/CN=host");
        let (client, server) = ig_gsi::handshake::pump(
            config_with(Some(host.clone()), &[&ca], true),
            config_with(Some(host.clone()), &[&ca], true),
            &mut rng,
        )
        .unwrap();
        let mut client = SecureContext::from_established(client);
        let dsi = MemDsi::new();
        // 1 KiB blocks at 100 kB/s, 32 of them past the throttle's 16 KiB
        // burst: a block every 10 ms for 0.3 s, six marker periods.
        let file = vec![5u8; 48 * 1024];
        dsi.put("/home/alice/f", &file);
        let obs = ig_obs::Obs::new("advisory-112");
        let config = ServerConfig::new(
            "host",
            host,
            TrustStore::new(),
            Arc::new(crate::authz::GcmuAuthz::new("host")),
            Arc::new(dsi),
        )
        .with_stripes(1, Some(100_000.0))
        .with_block_size(1024)
        .with_obs(Arc::clone(&obs));
        let sink = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut session = Session::new(Arc::new(config), rng);
        session.ctx = Some(SecureContext::from_established(server));
        session.user = Some(UserContext::user("alice"));
        session.dcau = DcauMode::None;
        session.mode = ModeCode::Extended;
        let sink_addr = HostPort::from_socket_addr(sink.local_addr().unwrap()).unwrap();
        session.port_targets = vec![sink_addr];

        let sent = Arc::new(Mutex::new(Vec::new()));
        let mut link: Box<dyn Link> =
            Box::new(FullFor { blocked: AtomicU32::new(2), sent: Arc::clone(&sent) });
        let retr = secure_line::protect_command(
            &mut client,
            ProtectedKind::Enc,
            &Command::Retr("/home/alice/f".into()),
        );
        session.process_message(&mut link, retr.to_string().into_bytes()).unwrap();

        // The data arrived whole (loopback buffered it; nobody had to read).
        let mut peer = TcpLink::new(sink.accept().unwrap().0);
        let mut got = 0;
        loop {
            let block = Block::decode(&peer.recv().unwrap()).unwrap();
            got += block.payload.len();
            if block.is_eod() {
                break;
            }
        }
        assert_eq!(got, file.len());
        // Every reply that was sealed was sent: the client's context opens
        // them all, in order, with no sequence number missing.
        let replies: Vec<Reply> = sent
            .lock()
            .iter()
            .map(|wire| {
                let sealed = Reply::parse(std::str::from_utf8(wire).unwrap()).unwrap();
                secure_line::unprotect_reply(&mut client, &sealed).expect("dense sequence numbers")
            })
            .collect();
        let codes: Vec<u16> = replies.iter().map(|r| r.code).collect();
        assert_eq!(codes.first(), Some(&150), "{codes:?}");
        assert_eq!(codes.last(), Some(&226), "{codes:?}");
        let markers: Vec<u64> = replies
            .iter()
            .filter(|r| r.code == 112)
            .map(|r| PerfMarker::from_reply(r).unwrap().stripe_bytes)
            .collect();
        assert_eq!(codes.len(), markers.len() + 2, "{codes:?}");
        // Two periods' markers were skipped, not queued: the series starts
        // late, still rises, and ends at the file's size.
        assert!(markers.len() >= 2 && markers.windows(2).all(|w| w[0] < w[1]), "{markers:?}");
        assert!(markers[0] > 16 * 1024, "{markers:?}");
        assert_eq!(markers.last(), Some(&(file.len() as u64)), "{markers:?}");
        assert_eq!(obs.metrics().counter_value("server.reply_112"), markers.len() as u64);
    }

    // ---- The table: every state × every verb -----------------------------
    //
    // One sweep, no proptest: each line below is given to a session in each
    // of seven states, and what came back — who answered, with which reply
    // codes, and the state the session was left in — is compared with the
    // literal `TABLE`. A cell reads `<who><codes>/<state after>`:
    //
    // * who: `D` the decoder refused the line (nothing was dispatched), `R`
    //   a verb's one reply, `Q` a reply and the end of the session, `T` a
    //   transfer (its opening and terminal replies; 111/112 markers left
    //   out), `F` a session-fatal error (the 421 is the last code);
    // * state: `F` fresh, `H` handshaking, and once logged in the data
    //   channels — `N` none, `L` listening, `T` targets, `K` kept — with an
    //   `r` when a `REST` is pending.
    //
    // The same seven tags, in this order, are the columns.
    const STATES: [&str; 7] = ["F", "H", "N", "L", "T", "K", "Nr"];

    /// `PORT` to a port nothing listens on: a connect is refused at once.
    const DEAD: &str = "127,0,0,1,0,1";

    enum Line {
        Text(&'static str),
        Bytes(&'static [u8]),
        /// The first token of a real handshake, as `ADAT <base64>`.
        Adat,
        /// A well-formed `DCSC P <blob>` carrying the host credential.
        DcscP,
    }

    struct Fixture {
        host: Credential,
        server: ig_gsi::context::Established,
        client: ig_gsi::context::Established,
        adat: String,
        dcsc_p: String,
    }

    fn again(est: &ig_gsi::context::Established) -> SecureContext {
        SecureContext::from_established(ig_gsi::context::Established {
            role: est.role,
            keys: est.keys.clone(),
            peer: est.peer.clone(),
        })
    }

    impl Fixture {
        fn new() -> Fixture {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0x7ab1e);
            let (ca, host) = ca_and_credential(&mut rng, "/O=CA", "/CN=host");
            let gsi = || config_with(Some(host.clone()), &[&ca], true);
            let (client, server) = ig_gsi::handshake::pump(gsi(), gsi(), &mut rng).unwrap();
            let (_, hello) = ig_gsi::handshake::Initiator::start(gsi(), &mut rng);
            let adat = format!("ADAT {}", base64_encode(&hello));
            let dcsc_p = dcsc::encode_dcsc_p(&host).to_string();
            Fixture { host, server, client, adat, dcsc_p }
        }

        /// A server of its own for every cell: `DELE` and `STOR` really do
        /// change the store.
        fn config(&self) -> Arc<ServerConfig> {
            let dsi = MemDsi::new();
            dsi.put("/home/alice/f", &[7u8; 3000]);
            dsi.put("/home/alice/d/g", &[9u8; 500]);
            let root = UserContext::superuser();
            dsi.mkdir(&root, "/home/alice/e").unwrap();
            let mut config = ServerConfig::new(
                "host",
                self.host.clone(),
                TrustStore::new(),
                Arc::new(crate::authz::GcmuAuthz::new("host")),
                Arc::new(dsi),
            )
            .with_stripes(2, None)
            .with_block_size(1024)
            .with_stall_timeout(Duration::from_millis(30))
            .with_obs(ig_obs::Obs::new("sweep"));
            config.key_bits = 512;
            Arc::new(config)
        }

        fn bytes(&self, line: &Line) -> Vec<u8> {
            match line {
                Line::Text(t) => t.as_bytes().to_vec(),
                Line::Bytes(b) => b.to_vec(),
                Line::Adat => self.adat.clone().into_bytes(),
                Line::DcscP => self.dcsc_p.clone().into_bytes(),
            }
        }
    }

    /// The line as `TABLE` spells it.
    fn literal(line: &Line) -> String {
        match line {
            Line::Text(t) => format!("Text({t:?})"),
            Line::Bytes(b) => format!("Bytes(b\"{}\")", b.escape_ascii()),
            Line::Adat => "Adat".into(),
            Line::DcscP => "DcscP".into(),
        }
    }

    /// A control link that takes every send, and what was sent on it.
    fn recorder() -> (Box<dyn Link>, Sent) {
        let sent = Arc::new(Mutex::new(Vec::new()));
        (Box::new(FullFor { blocked: AtomicU32::new(0), sent: Arc::clone(&sent) }), sent)
    }

    /// Put a new session into the state of column `from`. What it returns
    /// is the far end of whatever data channels the state holds.
    fn enter(
        fx: &Fixture,
        config: &Arc<ServerConfig>,
        from: &str,
    ) -> (Session<rand::rngs::StdRng>, Option<ig_xio::PipeLink>) {
        let mut s = Session::new(Arc::clone(config), rand::rngs::StdRng::seed_from_u64(7));
        match from {
            "F" => return (s, None),
            "H" => {
                let (mut link, _) = recorder();
                s.process_message(&mut link, b"AUTH GSSAPI".to_vec()).unwrap();
                return (s, None);
            }
            _ => {}
        }
        s.ctx = Some(again(&fx.server));
        s.user = Some(UserContext::user("alice"));
        s.cwd = "/home/alice".into();
        s.mode = ModeCode::Extended;
        let mut far = None;
        match from {
            "N" => {}
            "L" => s.listeners.push(DataListener::bind(config.data_ip).unwrap()),
            "T" => s.port_targets = vec![HostPort::parse(DEAD).unwrap()],
            "K" => {
                let (near, peer) = ig_xio::pipe();
                let shape = s.channel_shape(Flow::Send);
                s.cached = CachedChannels::keep(vec![Box::new(near)], shape, s.data_stack());
                far = Some(peer);
            }
            "Nr" => {
                let mut have = ByteRanges::new();
                have.add(0, 100);
                s.restart = Some(have);
            }
            other => panic!("no such state {other}"),
        }
        (s, far)
    }

    /// The state tag of a session, in the notation of `STATES`.
    fn state_of(s: &Session<rand::rngs::StdRng>) -> String {
        if s.user.is_none() {
            return if s.acceptor.is_some() { "H" } else { "F" }.into();
        }
        let held = [!s.listeners.is_empty(), !s.port_targets.is_empty(), s.cached.is_some()];
        assert!(held.iter().filter(|h| **h).count() <= 1, "two kinds of data channel at once");
        let channels = match held {
            [true, _, _] => "L",
            [_, true, _] => "T",
            [_, _, true] => "K",
            _ => "N",
        };
        format!("{channels}{}", if s.restart.is_some() { "r" } else { "" })
    }

    /// Give `line` to a session in state `from`: one cell of the table.
    fn cell(fx: &Fixture, from: &str, line: &Line) -> String {
        let config = fx.config();
        let (mut s, _far) = enter(fx, &config, from);
        let mut client = again(&fx.client);
        let (mut link, sent) = recorder();
        let commands = || config.obs.metrics().counter_value("server.commands");
        let before = commands();
        let result = s.process_message(&mut link, fx.bytes(line));
        let codes: Vec<String> = sent
            .lock()
            .iter()
            .map(|wire| Reply::parse(std::str::from_utf8(wire).unwrap()).unwrap())
            .map(|r| match r.code {
                631..=633 => secure_line::unprotect_reply(&mut client, &r).unwrap().code,
                code => code,
            })
            .filter(|code| !matches!(code, 111 | 112))
            .map(|code| code.to_string())
            .collect();
        let who = match result {
            Err(_) => 'F',
            Ok(LoopControl::Quit) => 'Q',
            Ok(LoopControl::Continue) if commands() == before => 'D',
            Ok(LoopControl::Continue) if matches!(codes[0].as_str(), "150" | "425") => 'T',
            Ok(LoopControl::Continue) => 'R',
        };
        format!("{who}{}/{}", codes.join("-"), state_of(&s))
    }

    use Line::{Adat, Bytes, DcscP, Text};

    #[rustfmt::skip]
    const TABLE: &[(Line, &str)] = &[
        (Text("USER alice"), "R530/F R530/H R230/N R230/L R230/T R230/K R230/Nr"),
        (Text("USER"), "D500/F D500/H D500/N D500/L D500/T D500/K D500/Nr"),
        (Text("PASS secret"), "R530/F R530/H R230/N R230/L R230/T R230/K R230/Nr"),
        (Text("PASS"), "R530/F R530/H R230/N R230/L R230/T R230/K R230/Nr"),
        (Text("AUTH GSSAPI"), "R334/H R334/H R334/N R334/L R334/T R334/K R334/Nr"),
        (Text("AUTH KERBEROS"), "R504/F R504/H R504/N R504/L R504/T R504/K R504/Nr"),
        (Adat, "R503/F R335/H R503/N R503/L R503/T R503/K R503/Nr"),
        (Text("ADAT !!!"), "R503/F R535/F R503/N R503/L R503/T R503/K R503/Nr"),
        (Text("TYPE I"), "R530/F R530/H R200/N R200/L R200/T R200/K R200/Nr"),
        (Text("TYPE X"), "D500/F D500/H D500/N D500/L D500/T D500/K D500/Nr"),
        (Text("MODE E"), "R530/F R530/H R200/N R200/L R200/T R200/K R200/Nr"),
        (Text("MODE S"), "R530/F R530/H R200/N R200/L R200/T R200/K R200/Nr"),
        (Text("MODE Q"), "D500/F D500/H D500/N D500/L D500/T D500/K D500/Nr"),
        (Text("PASV"), "R530/F R530/H R227/L R227/L R227/L R227/L R227/Lr"),
        (Text("PASV now"), "R530/F R530/H R227/L R227/L R227/L R227/L R227/Lr"),
        (Text("PORT 127,0,0,1,0,1"), "R530/F R530/H R200/T R200/T R200/T R200/T R200/Tr"),
        (Text("PORT 1,2,3"), "D500/F D500/H D500/N D500/L D500/T D500/K D500/Nr"),
        (Text("SPAS"), "R530/F R530/H R229/L R229/L R229/L R229/L R229/Lr"),
        (Text("SPOR 127,0,0,1,0,1 127,0,0,1,0,1"),
            "R530/F R530/H R200/T R200/T R200/T R200/T R200/Tr"),
        (Text("SPOR"), "D500/F D500/H D500/N D500/L D500/T D500/K D500/Nr"),
        (Text("RETR /home/alice/f"), "R530/F R530/H T425/N T425/L T425/T T150-226/K T425/N"),
        (Text("RETR f"), "R530/F R530/H T425/N T425/L T425/T T150-226/K T425/N"),
        (Text("RETR /home/alice/nope"), "R530/F R530/H R550/N R550/L R550/T R550/K R550/Nr"),
        (Text("RETR"), "D500/F D500/H D500/N D500/L D500/T D500/K D500/Nr"),
        (Text("STOR /home/alice/up"), "R530/F R530/H T425/N T150-426/N F150-421/T T425/N T425/Nr"),
        (Text("STOR"), "D500/F D500/H D500/N D500/L D500/T D500/K D500/Nr"),
        (Text("ERET P 1,10 /home/alice/f"),
            "R530/F R530/H T425/N T425/L T425/T T150-226/K T425/Nr"),
        (Text("ERET P 1,18446744073709551615 /home/alice/f"),
            "R530/F R530/H T425/N T425/L T425/T T150-226/K T425/Nr"),
        (Text("ERET P x,y /home/alice/f"), "R530/F R530/H R500/N R500/L R500/T R500/K R500/Nr"),
        (Text("ERET P 1,10"), "R530/F R530/H R500/N R500/L R500/T R500/K R500/Nr"),
        (Text("ERET P 1,10 /home/alice/nope"), "R530/F R530/H R550/N R550/L R550/T R550/K R550/Nr"),
        (Text("ERET DIR 0 /home/alice/d"), "R530/F R530/H T425/N T425/L T425/T T150-226/K T425/Nr"),
        (Text("ERET DIR 9 /home/alice/d"), "R530/F R530/H R550/N R550/L R550/T R550/K R550/Nr"),
        (Text("ERET DIR x /home/alice/d"), "R530/F R530/H R500/N R500/L R500/T R500/K R500/Nr"),
        (Text("ERET DIR 0 /home/alice/nope"), "R530/F R530/H R550/N R550/L R550/T R550/K R550/Nr"),
        (Text("ERET X 1 /home/alice/f"), "R530/F R530/H R504/N R504/L R504/T R504/K R504/Nr"),
        (Text("ERET P"), "D500/F D500/H D500/N D500/L D500/T D500/K D500/Nr"),
        (Text("ESTO DIR /home/alice/up"),
            "R530/F R530/H T425/N T150-426/N F150-421/T T425/N T425/Nr"),
        (Text("ESTO X /home/alice/up"), "R530/F R530/H R504/N R504/L R504/T R504/K R504/Nr"),
        (Text("ESTO"), "D500/F D500/H D500/N D500/L D500/T D500/K D500/Nr"),
        (Text("LIST /home/alice/d"), "R530/F R530/H T425/N T425/L T425/T T150-226/K T425/Nr"),
        (Text("LIST"), "R530/F R530/H T425/N T425/L T425/T T150-226/K T425/Nr"),
        (Text("LIST /home/alice/nope"), "R530/F R530/H R550/N R550/L R550/T R550/K R550/Nr"),
        (Text("NLST /home/alice/d"), "R530/F R530/H T425/N T425/L T425/T T150-226/K T425/Nr"),
        (Text("NLST /home/alice/nope"), "R530/F R530/H R550/N R550/L R550/T R550/K R550/Nr"),
        (Text("MLSD /home/alice/d"), "R530/F R530/H T425/N T425/L T425/T T150-226/K T425/Nr"),
        (Text("MLSD /home/alice/nope"), "R530/F R530/H R550/N R550/L R550/T R550/K R550/Nr"),
        (Text("MLST /home/alice/f"), "R530/F R530/H R250/N R250/L R250/T R250/K R250/Nr"),
        (Text("MLST /home/alice/d"), "R530/F R530/H R250/N R250/L R250/T R250/K R250/Nr"),
        (Text("MLST /home/alice/nope"), "R530/F R530/H R550/N R550/L R550/T R550/K R550/Nr"),
        (Text("SIZE /home/alice/f"), "R530/F R530/H R213/N R213/L R213/T R213/K R213/Nr"),
        (Text("SIZE /home/alice/nope"), "R530/F R530/H R550/N R550/L R550/T R550/K R550/Nr"),
        (Text("SIZE"), "D500/F D500/H D500/N D500/L D500/T D500/K D500/Nr"),
        (Text("MDTM /home/alice/f"), "R530/F R530/H R213/N R213/L R213/T R213/K R213/Nr"),
        (Text("MDTM /home/alice/nope"), "R530/F R530/H R550/N R550/L R550/T R550/K R550/Nr"),
        (Text("DELE /home/alice/f"), "R530/F R530/H R250/N R250/L R250/T R250/K R250/Nr"),
        (Text("DELE /home/alice/nope"), "R530/F R530/H R550/N R550/L R550/T R550/K R550/Nr"),
        (Text("MKD /home/alice/new"), "R530/F R530/H R257/N R257/L R257/T R257/K R257/Nr"),
        (Text("MKD /home/alice/f"), "R530/F R530/H R257/N R257/L R257/T R257/K R257/Nr"),
        (Text("RMD /home/alice/e"), "R530/F R530/H R250/N R250/L R250/T R250/K R250/Nr"),
        (Text("RMD /home/alice/nope"), "R530/F R530/H R550/N R550/L R550/T R550/K R550/Nr"),
        (Text("CWD /home/alice/d"), "R530/F R530/H R250/N R250/L R250/T R250/K R250/Nr"),
        (Text("CWD /home/alice/nope"), "R530/F R530/H R550/N R550/L R550/T R550/K R550/Nr"),
        (Text("CDUP"), "R530/F R530/H R250/N R250/L R250/T R250/K R250/Nr"),
        (Text("PWD"), "R530/F R530/H R257/N R257/L R257/T R257/K R257/Nr"),
        (Text("REST 100"), "R530/F R530/H R350/Nr R350/Lr R350/Tr R350/Kr R350/Nr"),
        (Text("REST 0-100,200-300"), "R530/F R530/H R350/Nr R350/Lr R350/Tr R350/Kr R350/Nr"),
        (Text("REST soon"), "R530/F R530/H R500/N R500/L R500/T R500/K R500/Nr"),
        (Text("REST"), "D500/F D500/H D500/N D500/L D500/T D500/K D500/Nr"),
        (Text("PBSZ 0"), "R530/F R530/H R200/N R200/L R200/T R200/K R200/Nr"),
        (Text("PBSZ x"), "D500/F D500/H D500/N D500/L D500/T D500/K D500/Nr"),
        (Text("PROT P"), "R530/F R530/H R200/N R200/L R200/T R200/K R200/Nr"),
        (Text("PROT E"), "R530/F R530/H R200/N R200/L R200/T R200/K R200/Nr"),
        (Text("PROT X"), "D500/F D500/H D500/N D500/L D500/T D500/K D500/Nr"),
        (Text("DCAU N"), "R530/F R530/H R200/N R200/L R200/T R200/K R200/Nr"),
        (Text("DCAU S /CN=host"), "R530/F R530/H R200/N R200/L R200/T R200/K R200/Nr"),
        (Text("DCAU X"), "D500/F D500/H D500/N D500/L D500/T D500/K D500/Nr"),
        (Text("DCSC D"), "R530/F R530/H R200/N R200/L R200/T R200/K R200/Nr"),
        (DcscP, "R530/F R530/H R200/N R200/L R200/T R200/K R200/Nr"),
        (Text("DCSC P garbage"), "R530/F R530/H R500/N R500/L R500/T R500/K R500/Nr"),
        (Text("DCSC X"), "D500/F D500/H D500/N D500/L D500/T D500/K D500/Nr"),
        (Text("PIPE 8"), "R530/F R530/H R200/N R200/L R200/T R200/K R200/Nr"),
        (Text("PIPE 0"), "R530/F R530/H R501/N R501/L R501/T R501/K R501/Nr"),
        (Text("PIPE 65"), "R530/F R530/H R501/N R501/L R501/T R501/K R501/Nr"),
        (Text("PIPE x"), "D500/F D500/H D500/N D500/L D500/T D500/K D500/Nr"),
        (Text("OPTS RETR Parallelism=4,4,4;"), "R530/F R530/H R200/N R200/L R200/T R200/K R200/Nr"),
        (Text("OPTS RETR Parallelism=64,64,64;"),
            "R530/F R530/H R200/N R200/L R200/T R200/K R200/Nr"),
        (Text("OPTS RETR Parallelism=0,0,0;"), "R530/F R530/H R200/N R200/L R200/T R200/K R200/Nr"),
        (Text("OPTS RETR Parallelism=65,65,65;"),
            "R530/F R530/H R200/N R200/L R200/T R200/K R200/Nr"),
        (Text("OPTS RETR Parallelism=lots;"), "R530/F R530/H R200/N R200/L R200/T R200/K R200/Nr"),
        (Text("OPTS RETR Window=4;"), "R530/F R530/H R200/N R200/L R200/T R200/K R200/Nr"),
        (Text("OPTS"), "D500/F D500/H D500/N D500/L D500/T D500/K D500/Nr"),
        (Text("SITE STATS"), "R530/F R530/H R250/N R250/L R250/T R250/K R250/Nr"),
        (Text("SITE DELEG REQ"), "R530/F R530/H R250/N R250/L R250/T R250/K R250/Nr"),
        (Text("SITE DELEG PUT !!!"), "R530/F R530/H R503/N R503/L R503/T R503/K R503/Nr"),
        (Text("SITE HELP"), "R530/F R530/H R200/N R200/L R200/T R200/K R200/Nr"),
        (Text("SITE"), "D500/F D500/H D500/N D500/L D500/T D500/K D500/Nr"),
        (Text("FEAT"), "R211/F R211/H R211/N R211/L R211/T R211/K R211/Nr"),
        (Text("NOOP"), "R200/F R200/H R200/N R200/L R200/T R200/K R200/Nr"),
        (Text("ABOR"), "R530/F R530/H R226/N R226/L R226/T R226/K R226/Nr"),
        (Text("QUIT"), "Q221/F Q221/H Q221/N Q221/L Q221/T Q221/K Q221/Nr"),
        (Text("ALLO 100"), "R530/F R530/H R200/N R200/L R200/T R200/K R200/Nr"),
        (Text("ALLO x"), "D500/F D500/H D500/N D500/L D500/T D500/K D500/Nr"),
        (Text("CKSM SHA256 0 -1 /home/alice/f"),
            "R530/F R530/H R213/N R213/L R213/T R213/K R213/Nr"),
        (Text("CKSM SHA256 1 10 /home/alice/f"),
            "R530/F R530/H R213/N R213/L R213/T R213/K R213/Nr"),
        (Text("CKSM MD5 0 -1 /home/alice/f"), "R530/F R530/H R504/N R504/L R504/T R504/K R504/Nr"),
        (Text("CKSM SHA256 0 -1 /home/alice/nope"),
            "R530/F R530/H R550/N R550/L R550/T R550/K R550/Nr"),
        (Text("CKSM SHA256"), "D500/F D500/H D500/N D500/L D500/T D500/K D500/Nr"),
        (Text("ENC AAAA"), "D503/F D503/H D535/N D535/L D535/T D535/K D535/Nr"),
        (Text("MIC AAAA"), "D503/F D503/H D535/N D535/L D535/T D535/K D535/Nr"),
        (Text("ENC"), "D500/F D500/H D500/N D500/L D500/T D500/K D500/Nr"),
        (Text("XYZZY"), "R530/F R530/H R500/N R500/L R500/T R500/K R500/Nr"),
        (Bytes(b"NOOP \xff"), "D500/F D500/H D500/N D500/L D500/T D500/K D500/Nr"),
    ];

    #[test]
    fn every_state_answers_every_verb_as_the_table_says() {
        let fx = Fixture::new();
        let mut wrong = Vec::new();
        let mut actual = String::new();
        for (line, expected) in TABLE {
            let cells: Vec<String> = STATES.iter().map(|from| cell(&fx, from, line)).collect();
            let expected: Vec<&str> = expected.split_whitespace().collect();
            if cells != expected {
                wrong.push(literal(line));
            }
            // Wrapped as the literal is: a row over 100 columns breaks after the line.
            let (line, cells) = (literal(line), cells.join(" "));
            let gap = if line.len() + cells.len() > 85 { "\n            " } else { " " };
            actual.push_str(&format!("        ({line},{gap}\"{cells}\"),\n"));
        }
        assert!(wrong.is_empty(), "rows {wrong:?} differ; the table as it is now:\n{actual}");
    }
}
