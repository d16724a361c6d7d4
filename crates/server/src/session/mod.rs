//! The server protocol interpreter (PI): one control-channel session.
//!
//! Message mapping: every inbound [`Link`] message is one command line;
//! every outbound message is one complete (possibly multiline) reply.
//! After `AUTH GSSAPI`/`ADAT` completes, commands arrive inside
//! `ENC`/`MIC` envelopes and replies leave the same way (§IIC: control
//! channel protected by default).
//!
//! DESIGN §11, "The session: states and rows": [`Login`] is how far the
//! login got and, once `Authed`, [`Channels`] which data channels are
//! held; [`Session::step`] is the table, one [`Outcome`] per row and no
//! link in sight; [`Session::handle`] sends that reply, or runs the
//! planned transfer ([`transfer`]), at one site.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

mod auth;
mod channels;
mod files;
#[cfg(test)]
mod tests;
mod transfer;

use crate::config::ServerConfig;
use crate::data::DataListener;
use crate::error::{Result, ServerError};
use crate::users::UserContext;
use channels::Channels;
use files::gone;
use ig_gsi::context::SecureContext;
use ig_gsi::delegation::PendingDelegation;
use ig_gsi::handshake::Acceptor;
use ig_gsi::ProtectionLevel;
use ig_obs::kv;
use ig_pki::Credential;
use ig_protocol::command::{Command, DcauMode, ModeCode, ProtectedKind};
use ig_protocol::{secure_line, ByteRanges, Reply};
use ig_xio::Link;
use rand::Rng;
use std::sync::Arc;
use std::time::Instant;

/// The most a session may ask for: of parallel streams per listener or
/// target (`OPTS RETR Parallelism`), and of commands in flight (`PIPE`).
const WIDTH_MAX: u32 = 64;

const NOT_LOGGED_IN: &str = "Please authenticate with AUTH GSSAPI first.";

pub(crate) enum LoopControl {
    Continue,
    Quit,
}

/// Per-session state.
pub struct Session<R: Rng> {
    config: Arc<ServerConfig>,
    rng: R,
    login: Login,
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
    _sessions_active: Counted,
}

/// How far the login got. Everything a logged-in session has is inside
/// `Authed`, so no verb can reach for it earlier. (Both boxed: a herd of
/// idle connections that never log in carries neither.)
enum Login {
    Fresh,
    /// `AUTH` accepted: `ADAT` tokens feed the handshake until it ends.
    Handshaking(Box<Acceptor>),
    /// It completed, and the authorization callout named a local account.
    Authed(Box<Authed>),
}

struct Authed {
    ctx: SecureContext,
    user: UserContext,
    cwd: String,
    delegated: Option<Credential>,
    pending_deleg: Option<PendingDelegation>,
    dcsc: Option<Credential>,
    mode: ModeCode,
    parallelism: usize,
    prot: ProtectionLevel,
    dcau: DcauMode,
    restart: Option<ByteRanges>,
    channels: Channels,
}

impl Authed {
    /// What `ADAT` leaves behind when it succeeds as `local`.
    fn new(ctx: SecureContext, local: &str) -> Authed {
        Authed {
            ctx,
            user: UserContext::user(local),
            cwd: format!("/home/{local}"),
            delegated: None,
            pending_deleg: None,
            dcsc: None,
            mode: ModeCode::Stream,
            parallelism: 1,
            prot: ProtectionLevel::Clear,
            dcau: DcauMode::Self_,
            restart: None,
            channels: Channels::None,
        }
    }
}

/// What one command comes to: every row of [`Session::step`] is one of
/// these.
enum Outcome {
    /// The verb's one reply.
    Reply(Reply),
    /// Its one reply, and the end of the session.
    Quit(Reply),
    /// A transfer that passed every check that needs no data channel;
    /// [`transfer::Frame::run`] opens them and sends its replies.
    Transfer(transfer::Plan),
}

impl From<transfer::Planned> for Outcome {
    fn from(planned: transfer::Planned) -> Outcome {
        match planned {
            Ok(plan) => Outcome::Transfer(plan),
            Err(refusal) => Outcome::Reply(refusal),
        }
    }
}

/// One more of what `gauge` counts — live sessions, running transfers —
/// for as long as this lives, every way out included.
struct Counted(Arc<ig_obs::Gauge>);

impl Counted {
    fn on(config: &ServerConfig, gauge: &str) -> Counted {
        let gauge = config.obs.metrics().gauge(gauge);
        gauge.add(1.0);
        Counted(gauge)
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        self.0.add(-1.0);
    }
}

/// Put one reply on the control link, sealed if `seal` holds the context
/// to seal it with.
fn send_reply(
    seal: Option<&mut SecureContext>,
    link: &mut Box<dyn Link>,
    reply: &Reply,
) -> Result<()> {
    let wire = match seal {
        Some(ctx) => secure_line::protect_reply(ctx, ProtectedKind::Enc, reply).to_wire(),
        None => reply.to_wire(),
    };
    link.send(wire.as_bytes())
        .map_err(|e| ServerError::Data(format!("control send: {e}")))
}

fn features(dcsc_enabled: bool) -> Reply {
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
    if dcsc_enabled {
        lines.push(" DCSC P,D".to_string());
    }
    lines.push("End".to_string());
    Reply::multiline(211, lines)
}

impl<R: Rng> Session<R> {
    /// Fresh pre-auth session state.
    pub(crate) fn new(config: Arc<ServerConfig>, rng: R) -> Session<R> {
        let span = config.obs.span("session", vec![kv("endpoint", config.name.as_str())]);
        let cmd_rtt = config.obs.metrics().histogram("server.cmd_rtt_ns");
        let sessions_active = Counted::on(&config, "server.sessions_active");
        let ticket = config.sessions.register();
        Session {
            config,
            rng,
            login: Login::Fresh,
            span,
            cmd_rtt,
            ticket,
            _sessions_active: sessions_active,
        }
    }

    /// Send the 220 service-ready banner (always unwrapped).
    pub(crate) fn greet(&mut self, link: &mut Box<dyn Link>) -> Result<()> {
        send_reply(None, link, &Reply::service_ready(&self.config.banner))
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
        let (cmd, wrap) = match self.decode(msg) {
            Ok(decoded) => decoded,
            Err(refusal) => {
                send_reply(None, link, &refusal)?;
                return Ok(LoopControl::Continue);
            }
        };
        let handled = self.handle(link, cmd, wrap);
        if let Err(e) = &handled {
            // Session-fatal error: try to notify, then drop.
            let _ = send_reply(None, link, &Reply::new(421, format!("Service error: {e}")));
        }
        handled
    }

    /// One inbound message as the command to dispatch, and whether it
    /// came in an RFC 2228 envelope (its replies then leave in one) — or
    /// the reply, sent unsealed, to a message that holds no command.
    fn decode(&mut self, msg: Vec<u8>) -> std::result::Result<(Command, bool), Reply> {
        let line =
            String::from_utf8(msg).map_err(|_| Reply::syntax_error("Command not UTF-8."))?;
        let cmd = Command::parse(&line)
            .map_err(|e| Reply::syntax_error(&format!("Syntax error: {e}")))?;
        match (&mut self.login, &cmd) {
            (Login::Authed(a), Command::Protected { .. }) => {
                secure_line::unprotect_command(&mut a.ctx, &cmd)
                    .map(|inner| (inner, true))
                    .map_err(|e| Reply::new(535, format!("Protection error: {e}")))
            }
            (_, Command::Protected { .. }) => {
                Err(Reply::new(503, "Protected commands require completed AUTH."))
            }
            _ => Ok((cmd, false)),
        }
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
        let out = self.step(cmd).and_then(|outcome| self.carry_out(link, wrap, outcome));
        self.cmd_rtt.record(t0.elapsed().as_nanos() as u64);
        if let Err(e) = &out {
            // Error text can carry addresses/OS details: unstable.
            self.span
                .event_unstable("cmd.error", vec![kv("verb", verb), kv("error", e.to_string())]);
        }
        out
    }

    /// The one place a verb's reply is sent, or its transfer run.
    fn carry_out(
        &mut self,
        link: &mut Box<dyn Link>,
        wrap: bool,
        outcome: Outcome,
    ) -> Result<LoopControl> {
        let (reply, then) = match (outcome, &mut self.login) {
            (Outcome::Reply(reply), _) => (reply, LoopControl::Continue),
            (Outcome::Quit(reply), _) => (reply, LoopControl::Quit),
            (Outcome::Transfer(plan), Login::Authed(a)) => {
                let (config, rng, ticket) = (&*self.config, &mut self.rng, &self.ticket);
                transfer::Frame { config, rng, ticket, a, link, wrap }.run(plan)?;
                return Ok(LoopControl::Continue);
            }
            // Only `Authed` rows plan a transfer.
            (Outcome::Transfer(_), _) => {
                (Reply::not_logged_in(NOT_LOGGED_IN), LoopControl::Continue)
            }
        };
        let seal = match &mut self.login {
            Login::Authed(a) if wrap => Some(&mut a.ctx),
            _ => None,
        };
        self.config.obs.metrics().add(&format!("server.reply_{}", reply.code), 1);
        send_reply(seal, link, &reply)?;
        Ok(then)
    }

    /// The table: what a session in state `self.login` makes of `cmd`.
    /// Takes no link — a row changes the state and says what to answer.
    /// An `Err` is the host failing (no port to listen on, no key for a
    /// delegation): session-fatal like any other.
    fn step(&mut self, cmd: Command) -> Result<Outcome> {
        use Login::{Authed, Fresh, Handshaking};
        let (config, rng) = (&*self.config, &mut self.rng);
        let reply = match (&mut self.login, cmd) {
            // Any state.
            (_, Command::Quit) => return Ok(Outcome::Quit(Reply::goodbye())),
            (_, Command::Noop) => Reply::ok("NOOP ok."),
            (_, Command::Feat) => features(config.dcsc_enabled),
            // `decode` opened the envelope this one came in.
            (_, Command::Protected { .. }) => Reply::new(503, "Nested protection envelope."),
            (login, Command::Auth(mech)) => auth::auth(config, login, &mech),
            (login, Command::Adat(b64)) => auth::adat(config, rng, &self.ticket, login, &b64),
            (Fresh | Handshaking(_), _) => Reply::not_logged_in(NOT_LOGGED_IN),

            // Logged in: session settings.
            (Authed(_), Command::User(_) | Command::Pass(_)) => {
                Reply::new(230, "Already authenticated via GSI.")
            }
            (Authed(_), Command::Type(_)) => Reply::ok("Type set."),
            (Authed(a), Command::Mode(m)) => {
                a.mode = m;
                Reply::ok("Mode set.")
            }
            (Authed(_), Command::Pbsz(_)) => Reply::ok("PBSZ=0."),
            (Authed(a), Command::Prot(level)) => match ProtectionLevel::from_code(level) {
                Some(p) => {
                    a.prot = p;
                    Reply::ok("Protection level set.")
                }
                None => Reply::new(536, "Unsupported protection level."),
            },
            (Authed(a), Command::Dcau(mode)) => {
                a.dcau = mode;
                Reply::ok("DCAU set.")
            }
            // The reactor already answers queued commands strictly in
            // order, so the window is declarative: checked and echoed.
            (Authed(_), Command::Pipe(n)) if (1..=WIDTH_MAX).contains(&n) => {
                Reply::ok(&format!("Pipelining window {n} accepted; replies stay ordered."))
            }
            (Authed(_), Command::Pipe(_)) => Reply::new(501, "PIPE window must be 1..=64."),
            (Authed(a), cmd @ Command::Opts { .. }) => match cmd.parallelism() {
                Some(n) if (1..=WIDTH_MAX).contains(&n) => {
                    a.parallelism = n as usize;
                    Reply::ok("Parallelism set.")
                }
                Some(_) => Reply::new(501, "Parallelism must be 1..=64."),
                None => Reply::ok("Option ignored."),
            },
            (Authed(a), Command::Dcsc { context_type, blob }) => {
                auth::dcsc(config, a, context_type, blob.as_deref())
            }
            (Authed(a), Command::Site(arg)) => auth::site(config, rng, a, &arg)?,

            // Logged in: data channels. Each of the four verbs replaces
            // whatever was held (`Channels::set`).
            (Authed(a), Command::Pasv) => {
                let l = DataListener::bind(config.data_ip)?;
                let reply = Reply::new(227, format!("Entering Passive Mode ({})", l.addr()));
                a.channels.set(Channels::Listening(vec![l]));
                reply
            }
            (Authed(_), Command::Spas) if config.stripes < 2 => {
                Reply::syntax_error("Server is not striped.")
            }
            (Authed(a), Command::Spas) => {
                let listeners = (0..config.stripes)
                    .map(|_| DataListener::bind(config.data_ip))
                    .collect::<Result<Vec<_>>>()?;
                let mut lines = vec!["Entering Striped Passive Mode".to_string()];
                lines.extend(listeners.iter().map(|l| format!(" {}", l.addr())));
                a.channels.set(Channels::Listening(listeners));
                Reply::multiline(229, lines)
            }
            (Authed(a), Command::Port(hp)) => {
                a.channels.set(Channels::Targets(vec![hp]));
                Reply::ok("PORT ok.")
            }
            (Authed(a), Command::Spor(list)) => {
                a.channels.set(Channels::Targets(list));
                Reply::ok("SPOR ok.")
            }

            // Logged in: the store.
            (Authed(a), Command::Size(path)) => {
                let size = config.dsi.size(&a.user, &a.resolve_path(&path));
                size.map_or_else(gone, |s| Reply::new(213, s.to_string()))
            }
            (Authed(a), Command::Mdtm(path)) => {
                if config.dsi.exists(&a.user, &a.resolve_path(&path)) {
                    Reply::new(213, config.clock.now().to_string())
                } else {
                    Reply::action_failed("No such file.")
                }
            }
            (Authed(a), Command::Dele(path)) => {
                let deleted = config.dsi.delete(&a.user, &a.resolve_path(&path));
                deleted.map_or_else(gone, |()| Reply::new(250, "File deleted."))
            }
            (Authed(a), Command::Mkd(path)) => {
                let p = a.resolve_path(&path);
                let made = config.dsi.mkdir(&a.user, &p);
                made.map_or_else(gone, |()| Reply::new(257, format!("\"{p}\" created.")))
            }
            (Authed(a), Command::Rmd(path)) => {
                let removed = config.dsi.rmdir(&a.user, &a.resolve_path(&path));
                removed.map_or_else(gone, |()| Reply::new(250, "Directory removed."))
            }
            (Authed(a), Command::Cwd(path)) => {
                let p = a.resolve_path(&path);
                if config.dsi.list(&a.user, &p).is_ok() {
                    a.cwd = p;
                    Reply::new(250, "Directory changed.")
                } else {
                    Reply::action_failed("No such directory.")
                }
            }
            (Authed(a), Command::Cdup) => {
                a.cwd = match a.cwd.rfind('/') {
                    Some(0) | None => "/".to_string(),
                    Some(i) => a.cwd[..i].to_string(),
                };
                Reply::new(250, "Directory changed.")
            }
            (Authed(a), Command::Pwd) => {
                Reply::new(257, format!("\"{}\" is the current directory.", a.cwd))
            }
            (Authed(a), Command::Mlst(path)) => a.mlst(config, path.as_deref()),
            (Authed(_), Command::Cksm { algorithm, .. }) if algorithm != "SHA256" => {
                Reply::new(504, "Only SHA256 checksums supported.")
            }
            (Authed(a), Command::Cksm { offset, length, path, .. }) => {
                let digest = a.checksum(config.dsi.as_ref(), &path, offset, length);
                digest.map_or_else(gone, |hex| Reply::new(213, hex))
            }
            (Authed(_), Command::Allo(_)) => Reply::ok("ALLO noted."),

            // Logged in: transfers, planned here and run by `handle`.
            (Authed(a), Command::Rest(marker)) => a.rest(&marker),
            (Authed(a), Command::List(path) | Command::Nlst(path) | Command::Mlsd(path)) => {
                return Ok(transfer::listing(config, a, path.as_deref()).into())
            }
            (Authed(a), Command::Retr(path)) => return Ok(transfer::retr(config, a, &path).into()),
            (Authed(a), Command::Eret { module, args }) => {
                return Ok(transfer::eret(config, a, &module, &args).into())
            }
            (Authed(a), Command::Stor(path)) => {
                return Ok(Outcome::Transfer(transfer::Plan::Receive(a.resolve_path(&path))))
            }
            (Authed(a), Command::Esto { module, args }) => {
                match module.to_ascii_uppercase().as_str() {
                    // `ESTO DIR <path>` — receive a directory stream and
                    // expand it under <path>.
                    "DIR" => {
                        let root = a.resolve_path(args.trim());
                        return Ok(Outcome::Transfer(transfer::Plan::ReceiveDir(root)));
                    }
                    // Never a plain STOR of the args' last token: that
                    // would be a silently wrong data layout.
                    _ => Reply::new(504, "Only the DIR ESTO module is supported."),
                }
            }
            (Authed(_), Command::Abor) => Reply::new(226, "No transfer in progress."),
            (Authed(_), Command::Unknown { verb, .. }) => {
                Reply::syntax_error(&format!("Unknown command {verb}."))
            }
        };
        Ok(Outcome::Reply(reply))
    }
}
