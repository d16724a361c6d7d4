//! The client protocol interpreter: one control-channel session.

use crate::error::{io_to_client, ClientError, Result};
use ig_crypto::encode::{base64_decode, base64_encode};
use ig_obs::kv;
use ig_gsi::context::{GsiConfig, SecureContext};
use ig_gsi::handshake::{Initiator, Step};
use ig_gsi::{GsiError, ProtectionLevel};
use ig_pki::proxy::ProxyOptions;
use ig_pki::time::Clock;
use ig_pki::{Credential, TrustStore};
use ig_protocol::command::{Command, DcauMode, ModeCode, ProtectedKind};
use ig_protocol::secure_line;
use ig_protocol::{HostPort, Reply};
use ig_server::data::CachedChannels;
use ig_xio::{Link, RetryPolicy, TcpLink};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::Arc;

/// Client-side configuration (one user identity at one endpoint).
#[derive(Clone)]
pub struct ClientConfig {
    /// The user's credential for this endpoint (e.g. the short-lived
    /// certificate from `myproxy-logon`, §IV-E).
    pub credential: Credential,
    /// Trust roots to validate the server.
    pub trust: TrustStore,
    /// Clock for validity checks.
    pub clock: Clock,
    /// Delegate a proxy to the server at login (needed for DCAU and for
    /// third-party transfers; on by default as in globus-url-copy).
    pub delegate: bool,
    /// RSA key size for delegated proxies.
    pub key_bits: usize,
    /// Deterministic seed for this session's randomness.
    pub seed: u64,
    /// Retry/timeout policy for connecting and control-channel reads.
    /// The default is [`RetryPolicy::once`]: one attempt, no deadlines —
    /// exactly the legacy behaviour before the policy existed.
    pub retry: RetryPolicy,
    /// Observability hub: the session span, command RTT metrics, and
    /// retry/marker events. Defaults to [`ig_obs::Obs::global`]; tests
    /// pass a private hub per client.
    pub obs: Arc<ig_obs::Obs>,
}

impl ClientConfig {
    /// Config with defaults.
    pub fn new(credential: Credential, trust: TrustStore) -> Self {
        ClientConfig {
            credential,
            trust,
            clock: Clock::System,
            delegate: true,
            key_bits: 512,
            seed: 0x1951_07_05,
            retry: RetryPolicy::once(),
            obs: ig_obs::Obs::global(),
        }
    }

    /// Builder: fixed clock.
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }

    /// Builder: seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: disable login-time delegation.
    pub fn no_delegation(mut self) -> Self {
        self.delegate = false;
        self
    }

    /// Builder: retry/timeout policy for connect and control reads.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Builder: a private observability hub (tests isolate metrics and
    /// traces per client instance this way).
    pub fn with_obs(mut self, obs: Arc<ig_obs::Obs>) -> Self {
        self.obs = obs;
        self
    }
}

/// An authenticated control-channel session.
pub struct ClientSession {
    link: Box<dyn Link>,
    /// `link`'s socket, when it is one ([`ClientSession::connect`]): what a
    /// transfer polls beside its data listener, to read a refusal when it
    /// arrives. A session over any other link cannot be waited on.
    pub(crate) control_fd: Option<RawFd>,
    ctx: Option<SecureContext>,
    pub(crate) config: ClientConfig,
    pub(crate) rng: StdRng,
    /// Current data-channel security knobs (mirrors what we've told the
    /// server).
    pub(crate) dcau: DcauMode,
    pub(crate) prot: ProtectionLevel,
    pub(crate) parallelism: usize,
    /// Transfer mode last asked of the server (`MODE`; it refuses none),
    /// noted as the command leaves `send_cmd`.
    mode: ModeCode,
    /// The data channels of the last `get_bytes`/`put_bytes` (or pipelined
    /// fetch) that completed, kept for the next one — the client's end of
    /// what the server keeps (DESIGN §8, "Data-channel lifecycle").
    pub(crate) channels: Option<CachedChannels>,
    /// Client-side record of the DCSC credential installed on the server
    /// (used to pick the matching credential for our own data endpoints).
    pub(crate) dcsc: Option<Credential>,
    /// Session-lifetime span; command events hang off it.
    pub(crate) span: ig_obs::Span,
    /// Cached handle for the per-command RTT histogram.
    cmd_rtt: Arc<ig_obs::Histogram>,
}

impl ClientSession {
    /// Connect over TCP and read the banner. The dial is retried under
    /// `config.retry`; the control channel inherits the policy's
    /// per-attempt timeout as its read deadline.
    pub fn connect(addr: HostPort, config: ClientConfig) -> Result<Self> {
        let policy = config.retry.clone();
        let link = policy
            .run_with_obs(&config.obs, "dial", |_attempt| {
                TcpLink::connect(addr.to_socket_addr())
            })
            .map_err(|e| match e.into_last() {
                Some(io) => io_to_client(io, "control connect"),
                None => ClientError::Timeout("control connect: deadline exceeded".into()),
            })?;
        let fd = link.stream().as_raw_fd();
        let mut session = Self::from_link(Box::new(link), config)?;
        session.control_fd = Some(fd);
        Ok(session)
    }

    /// Start a session over an arbitrary link (pipes in tests).
    pub fn from_link(mut link: Box<dyn Link>, config: ClientConfig) -> Result<Self> {
        let _ = link.set_recv_timeout(config.retry.attempt_timeout);
        let rng = StdRng::seed_from_u64(config.seed);
        let span = config.obs.span("session", vec![kv("seed", config.seed)]);
        let cmd_rtt = config.obs.metrics().histogram("client.cmd_rtt_ns");
        let mut s = ClientSession {
            link,
            control_fd: None,
            ctx: None,
            config,
            rng,
            dcau: DcauMode::Self_,
            prot: ProtectionLevel::Clear,
            parallelism: 1,
            mode: ModeCode::Stream,
            channels: None,
            dcsc: None,
            span,
            cmd_rtt,
        };
        let banner = s.read_reply()?;
        if banner.code != 220 {
            return Err(ClientError::UnexpectedReply { expected: "220 banner", got: banner });
        }
        Ok(s)
    }

    /// Read one reply message (unwrapping protection if present).
    pub fn read_reply(&mut self) -> Result<Reply> {
        let msg = self.link.recv().map_err(|e| match e.kind() {
            std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => {
                ClientError::Timeout(format!("control recv: {e}"))
            }
            _ => ClientError::Data(format!("control recv: {e}")),
        })?;
        let text = String::from_utf8(msg)
            .map_err(|_| ClientError::Data("reply not UTF-8".into()))?;
        let reply = Reply::parse(&text)?;
        if (reply.code == 631 || reply.code == 633) && self.ctx.is_some() {
            let ctx = self.ctx.as_mut().expect("checked");
            Ok(secure_line::unprotect_reply(ctx, &reply)?)
        } else {
            Ok(reply)
        }
    }

    /// Send a command (wrapped in `ENC` once the channel is secured). The
    /// one place commands leave the client, and so the one place its kept
    /// data channels end: a verb that negotiates channels, or changes what
    /// they would be built as, goes out over their closed remains.
    pub fn send_cmd(&mut self, cmd: &Command) -> Result<()> {
        if matches!(
            cmd,
            Command::Pasv
                | Command::Port(_)
                | Command::Spas
                | Command::Spor(_)
                | Command::Mode(_)
                | Command::Prot(_)
                | Command::Dcau(_)
                | Command::Dcsc { .. }
                | Command::Opts { .. }
        ) {
            if let Some(kept) = self.channels.take() {
                kept.close();
            }
        }
        if let Command::Mode(mode) = cmd {
            self.mode = *mode;
        }
        let line = match self.ctx.as_mut() {
            Some(ctx) => secure_line::protect_command(ctx, ProtectedKind::Enc, cmd).to_string(),
            None => cmd.to_string(),
        };
        self.link
            .send(line.as_bytes())
            .map_err(|e| ClientError::Data(format!("control send: {e}")))
    }

    /// Send a command and collect replies until a final one arrives.
    /// Preliminary (1xx) replies are passed to `on_marker`.
    pub fn command_with(
        &mut self,
        cmd: &Command,
        mut on_marker: impl FnMut(&Reply),
    ) -> Result<Reply> {
        self.span.event("cmd.dispatch", vec![kv("verb", cmd.verb())]);
        let t0 = std::time::Instant::now();
        self.send_cmd(cmd)?;
        loop {
            let reply = self.read_reply()?;
            if reply.is_preliminary() {
                on_marker(&reply);
                continue;
            }
            self.cmd_rtt.record(t0.elapsed().as_nanos() as u64);
            self.config.obs.metrics().add(&format!("client.reply_{}", reply.code), 1);
            return Ok(reply);
        }
    }

    /// Send a command, expect a non-error final reply.
    pub fn command(&mut self, cmd: &Command) -> Result<Reply> {
        let reply = self.command_with(cmd, |_| {})?;
        if reply.is_error() {
            return Err(ClientError::ServerError(reply));
        }
        Ok(reply)
    }

    /// Pipeline a window of commands: send them all before reading any
    /// reply, then collect one final reply per command, in order
    /// (preliminary 1xx replies are skipped). The server answers queued
    /// commands strictly in order, so `replies[i]` is the
    /// answer to `cmds[i]`. Error finals are returned in place, not
    /// raised — a pipelined 5xx must not desynchronise the remaining
    /// replies.
    pub fn pipeline(&mut self, cmds: &[Command]) -> Result<Vec<Reply>> {
        self.span
            .event("cmd.pipeline", vec![kv("window", cmds.len() as u64)]);
        let t0 = std::time::Instant::now();
        for cmd in cmds {
            self.send_cmd(cmd)?;
        }
        let mut replies = Vec::with_capacity(cmds.len());
        while replies.len() < cmds.len() {
            let reply = self.read_reply()?;
            if reply.is_preliminary() {
                continue;
            }
            self.config.obs.metrics().add(&format!("client.reply_{}", reply.code), 1);
            replies.push(reply);
        }
        self.cmd_rtt.record(t0.elapsed().as_nanos() as u64);
        Ok(replies)
    }

    /// Authenticate with `AUTH GSSAPI` + `ADAT`, then (by default)
    /// delegate a proxy so the server can act on the data channel.
    pub fn login(&mut self) -> Result<()> {
        let t0 = std::time::Instant::now();
        let out = self.login_inner();
        self.config.obs.metrics().observe("client.login_ns", t0.elapsed().as_nanos() as u64);
        if out.is_ok() {
            self.span.event("login.ok", vec![kv("delegated", self.config.delegate)]);
        }
        out
    }

    fn login_inner(&mut self) -> Result<()> {
        let reply = self.command(&Command::Auth("GSSAPI".into()))?;
        if reply.code != 334 {
            return Err(ClientError::UnexpectedReply { expected: "334", got: reply });
        }
        let gsi_cfg = GsiConfig {
            credential: Some(self.config.credential.clone()),
            trust: self.config.trust.clone(),
            require_peer_auth: true,
            clock: self.config.clock,
            insecure_skip_peer_validation: false,
        };
        let (mut initiator, first) = Initiator::start(gsi_cfg, &mut self.rng);
        let mut outgoing = first;
        loop {
            let reply = self.command_with(&Command::Adat(base64_encode(&outgoing)), |_| {})?;
            match reply.code {
                335 => {
                    let token_b64 = reply.adat_payload().ok_or_else(|| {
                        ClientError::UnexpectedReply { expected: "335 ADAT=", got: reply.clone() }
                    })?;
                    let token = base64_decode(token_b64)
                        .map_err(|e| ClientError::Gsi(GsiError::Decode(e.to_string())))?;
                    match initiator.step(&token, &mut self.rng)? {
                        Step::Send(t) => outgoing = t,
                        Step::SendAndDone(t, est) => {
                            // Final token rides in one more ADAT; server
                            // answers 235.
                            let done =
                                self.command_with(&Command::Adat(base64_encode(&t)), |_| {})?;
                            if done.code != 235 {
                                return Err(ClientError::UnexpectedReply {
                                    expected: "235",
                                    got: done,
                                });
                            }
                            self.ctx = Some(SecureContext::from_established(est));
                            break;
                        }
                        Step::Done(est) => {
                            self.ctx = Some(SecureContext::from_established(est));
                            break;
                        }
                    }
                }
                235 => {
                    return Err(ClientError::UnexpectedReply {
                        expected: "handshake still in flight",
                        got: reply,
                    })
                }
                _ => return Err(ClientError::ServerError(reply)),
            }
        }
        if self.config.delegate {
            self.delegate()?;
        }
        Ok(())
    }

    /// Run the delegation exchange (`SITE DELEG REQ` / `SITE DELEG PUT`).
    pub fn delegate(&mut self) -> Result<()> {
        let reply = self.command(&Command::Site("DELEG REQ".into()))?;
        let b64 = reply
            .text()
            .strip_prefix("DELEG=")
            .ok_or_else(|| ClientError::UnexpectedReply {
                expected: "250 DELEG=",
                got: reply.clone(),
            })?;
        let req = base64_decode(b64)
            .map_err(|e| ClientError::Gsi(GsiError::Decode(e.to_string())))?;
        let grant = ig_gsi::delegation::grant(
            &mut self.rng,
            &self.config.credential,
            &req,
            self.config.clock.now(),
            ProxyOptions::default(),
        )?;
        self.command(&Command::Site(format!("DELEG PUT {}", base64_encode(&grant))))?;
        Ok(())
    }

    /// `OPTS RETR Parallelism=n,n,n;` + local bookkeeping.
    pub fn set_parallelism(&mut self, n: usize) -> Result<()> {
        assert!(n >= 1);
        self.command(&Command::Opts {
            target: "RETR".into(),
            params: format!("Parallelism={n},{n},{n};"),
        })?;
        self.parallelism = n;
        Ok(())
    }

    /// `FEAT` — the server's feature lines (without the 211 framing).
    pub fn feat(&mut self) -> Result<Vec<String>> {
        let reply = self.command(&Command::Feat)?;
        Ok(reply.lines.iter().map(|l| l.trim().to_string()).collect())
    }

    /// `PROT <level>` + local bookkeeping.
    pub fn set_prot(&mut self, level: ProtectionLevel) -> Result<()> {
        self.command(&Command::Pbsz(1 << 20))?;
        self.command(&Command::Prot(level.code()))?;
        self.prot = level;
        Ok(())
    }

    /// `DCAU <mode>` + local bookkeeping.
    pub fn set_dcau(&mut self, mode: DcauMode) -> Result<()> {
        self.command(&Command::Dcau(mode.clone()))?;
        self.dcau = mode;
        Ok(())
    }

    /// `MODE E` (required before parallel transfers) + local bookkeeping:
    /// sent only while the session is in another mode.
    pub fn set_mode_extended(&mut self) -> Result<()> {
        if self.mode != ModeCode::Extended {
            self.command(&Command::Mode(ModeCode::Extended))?;
        }
        Ok(())
    }

    /// Install a DCSC P context on the server (§V) and remember it.
    pub fn install_dcsc(&mut self, credential: &Credential) -> Result<()> {
        self.command(&ig_protocol::dcsc::encode_dcsc_p(credential))?;
        self.dcsc = Some(credential.clone());
        Ok(())
    }

    /// Revert to the default context (`DCSC D`).
    pub fn revert_dcsc(&mut self) -> Result<()> {
        self.command(&ig_protocol::dcsc::encode_dcsc_d())?;
        self.dcsc = None;
        Ok(())
    }

    /// `CKSM SHA256 <offset> <length> <path>` — server-side checksum.
    pub fn cksm(&mut self, path: &str, offset: u64, length: Option<u64>) -> Result<String> {
        let reply = self.command(&Command::Cksm {
            algorithm: "SHA256".into(),
            offset,
            length,
            path: path.into(),
        })?;
        Ok(reply.text().trim().to_string())
    }

    /// `SIZE <path>`.
    pub fn size(&mut self, path: &str) -> Result<u64> {
        let reply = self.command(&Command::Size(path.into()))?;
        reply
            .text()
            .trim()
            .parse()
            .map_err(|_| ClientError::UnexpectedReply { expected: "213 <size>", got: reply })
    }

    /// `PASV` — returns the server's data address.
    pub fn pasv(&mut self) -> Result<HostPort> {
        let reply = self.command(&Command::Pasv)?;
        parse_pasv_addr(&reply)
            .ok_or(ClientError::UnexpectedReply { expected: "227 (h,p)", got: reply })
    }

    /// `SPAS` — returns all stripe addresses.
    pub fn spas(&mut self) -> Result<Vec<HostPort>> {
        let reply = self.command(&Command::Spas)?;
        let mut out = Vec::new();
        for line in &reply.lines[1..] {
            let line = line.trim();
            if line.is_empty() || !line.contains(',') {
                continue;
            }
            if let Ok(hp) = HostPort::parse(line) {
                out.push(hp);
            }
        }
        if out.is_empty() {
            return Err(ClientError::UnexpectedReply { expected: "229 addresses", got: reply });
        }
        Ok(out)
    }

    /// `QUIT`.
    pub fn quit(mut self) -> Result<()> {
        let reply = self.command_with(&Command::Quit, |_| {})?;
        if reply.code != 221 {
            return Err(ClientError::UnexpectedReply { expected: "221", got: reply });
        }
        let obs = Arc::clone(&self.config.obs);
        drop(self); // ends the session span before the trace is dumped
        obs.dump_if_env();
        Ok(())
    }

    /// The user credential this session authenticates as.
    pub fn credential(&self) -> &Credential {
        &self.config.credential
    }

    /// The session's clock.
    pub fn clock(&self) -> Clock {
        self.config.clock
    }
}

/// Extract the host-port from a `227 Entering Passive Mode (h1,h2,...)`.
fn parse_pasv_addr(reply: &Reply) -> Option<HostPort> {
    let text = reply.text();
    let start = text.find('(')?;
    let end = text.rfind(')')?;
    HostPort::parse(&text[start + 1..end]).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pasv_parsing() {
        let r = Reply::new(227, "Entering Passive Mode (127,0,0,1,4,210)");
        let hp = parse_pasv_addr(&r).unwrap();
        assert_eq!(hp.port, 4 * 256 + 210);
        assert!(parse_pasv_addr(&Reply::new(227, "no parens")).is_none());
        assert!(parse_pasv_addr(&Reply::new(227, "(bogus)")).is_none());
    }
}
