//! Logging in, and the credentials a logged-in session holds: the
//! `AUTH`/`ADAT` rows that move [`Login`] along, `SITE DELEG` and `DCSC`.

use super::{Authed, Login};
use crate::config::ServerConfig;
use crate::error::{Result, ServerError};
use crate::introspect::SessionTicket;
use ig_crypto::encode::{base64_decode, base64_encode};
use ig_gsi::context::{GsiConfig, SecureContext};
use ig_gsi::delegation;
use ig_gsi::handshake::{Acceptor, Step};
use ig_protocol::{dcsc, Reply};
use rand::Rng;

/// `AUTH <mech>`: start a handshake, from any state. Per RFC 2228 an
/// accepted `AUTH` discards the security state before it, a login
/// included: the session is `Handshaking` until `ADAT` ends it.
pub(super) fn auth(config: &ServerConfig, login: &mut Login, mech: &str) -> Reply {
    if !mech.eq_ignore_ascii_case("GSSAPI") {
        return Reply::new(504, "Only GSSAPI is supported.");
    }
    let cfg = GsiConfig {
        credential: Some(config.credential.clone()),
        trust: config.trust.clone(),
        require_peer_auth: true,
        clock: config.clock,
        insecure_skip_peer_validation: false,
    };
    match Acceptor::new(cfg) {
        Ok(acceptor) => {
            *login = Login::Handshaking(Box::new(acceptor));
            Reply::new(334, "Using authentication type GSSAPI; ADAT must follow.")
        }
        Err(e) => Reply::new(431, format!("Security init failed: {e}")),
    }
}

/// `ADAT <token>`: one step of the handshake `AUTH` started. It ends in
/// `Authed` or, at the first thing wrong, back in `Fresh`.
pub(super) fn adat<R: Rng>(
    config: &ServerConfig,
    rng: &mut R,
    ticket: &SessionTicket,
    login: &mut Login,
    b64: &str,
) -> Reply {
    let Login::Handshaking(acceptor) = login else {
        return Reply::new(503, "ADAT before AUTH.");
    };
    let step = match base64_decode(b64) {
        Ok(token) => acceptor.step(&token, rng),
        Err(e) => {
            *login = Login::Fresh;
            return Reply::new(535, format!("Bad ADAT base64: {e}"));
        }
    };
    let est = match step {
        Ok(Step::Send(t)) => return Reply::adat_continue(&base64_encode(&t)),
        Ok(Step::Done(est)) => est,
        Ok(Step::SendAndDone(..)) => {
            *login = Login::Fresh;
            return Reply::new(535, "Unexpected handshake state.");
        }
        Err(e) => {
            *login = Login::Fresh;
            return Reply::new(535, format!("Authentication failed: {e}"));
        }
    };
    *login = Login::Fresh;
    let Some(peer) = &est.peer else {
        return Reply::new(535, "Anonymous clients not allowed.");
    };
    // Authorization callout (Fig 3 step 5).
    match config.authz.authorize(peer) {
        Ok(local) => {
            ticket.set_user(&local);
            let ctx = SecureContext::from_established(est);
            *login = Login::Authed(Box::new(Authed::new(ctx, &local)));
            Reply::adat_done(None)
        }
        Err(e) => Reply::new(535, format!("Authorization failed: {e}")),
    }
}

/// `DCSC <type> [blob]` (§V): swap the data channels' credential and
/// trust without touching the control channel.
pub(super) fn dcsc(
    config: &ServerConfig,
    a: &mut Authed,
    context_type: char,
    blob: Option<&str>,
) -> Reply {
    if !config.dcsc_enabled {
        // The legacy-server behaviour of §IV-B.
        return Reply::syntax_error("DCSC not understood.");
    }
    match dcsc::interpret(context_type, blob) {
        Ok(dcsc::DcscAction::Install(cred)) => {
            a.dcsc = Some(*cred);
            Reply::ok("Data channel security context installed.")
        }
        Ok(dcsc::DcscAction::RevertToDefault) => {
            a.dcsc = None;
            Reply::ok("Data channel security context reverted.")
        }
        Err(e) => Reply::syntax_error(&format!("Bad DCSC: {e}")),
    }
}

/// `SITE <subcommand>`: GSI delegation in two steps, and `STATS`.
pub(super) fn site<R: Rng>(
    config: &ServerConfig,
    rng: &mut R,
    a: &mut Authed,
    arg: &str,
) -> Result<Reply> {
    let mut parts = arg.split_whitespace();
    let reply = match (
        parts.next().map(str::to_ascii_uppercase).as_deref(),
        parts.next().map(str::to_ascii_uppercase).as_deref(),
    ) {
        (Some("DELEG"), Some("REQ")) => {
            // Server generates a key + CSR (GSI delegation, §IIC).
            let (req, pending) =
                delegation::offer(rng, config.key_bits).map_err(ServerError::Gsi)?;
            a.pending_deleg = Some(pending);
            Reply::new(250, format!("DELEG={}", base64_encode(&req)))
        }
        (Some("DELEG"), Some("PUT")) => {
            let Some(pending) = a.pending_deleg.take() else {
                return Ok(Reply::new(503, "No delegation in progress."));
            };
            let grant = match base64_decode(parts.next().unwrap_or("")) {
                Ok(g) => g,
                Err(e) => return Ok(Reply::syntax_error(&format!("Bad base64: {e}"))),
            };
            match delegation::complete(pending, &grant) {
                Ok(cred) => {
                    a.delegated = Some(cred);
                    Reply::new(250, "Delegation complete.")
                }
                Err(e) => Reply::new(535, format!("Delegation failed: {e}")),
            }
        }
        // Observability surface (§ DESIGN.md 10): one line of JSON
        // holding the usage totals (the E1 pipeline's source) and a
        // snapshot of the same metrics registry every layer records
        // into. Rendered by the same serializer as the admin
        // plane's `metrics` command, so the two surfaces can
        // never drift apart.
        (Some("STATS"), _) => Reply::new(
            250,
            crate::usage::stats_json(config.obs.component(), &config.usage, config.obs.metrics()),
        ),
        _ => Reply::ok("SITE command ignored."),
    };
    Ok(reply)
}
