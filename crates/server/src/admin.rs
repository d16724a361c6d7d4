//! The operator surface: a local unix-socket admin plane.
//!
//! A hosted fleet endpoint (§VI) is operated, not just run: operators
//! need live metrics, a view of who is connected, a way to retire an
//! instance without losing acknowledged bytes, and a way to adjust
//! tunables without a restart. This module is that surface, served on a
//! mode-`0600` unix socket ([`ig_xio::UdsListener`]) next to the
//! daemon:
//!
//! * **Authentication** is the kernel's: `SO_PEERCRED` must report the
//!   configured UID (default: this process's euid) or the connection is
//!   dropped *before a single byte is read*.
//! * **Handshake** is one text line each way (`IGADMIN 1\n` →
//!   `IGADMIN 1 OK\n`), so a version mismatch fails fast and legibly.
//! * **Framing** after the handshake is the control channel's own
//!   4-byte big-endian length prefix ([`ig_xio::FrameBuf`]), one JSON
//!   object per frame in both directions, capped at
//!   [`ADMIN_MAX_FRAME`] before it reaches the parser. Requests are
//!   parsed by [`ig_obs::json`], the tree's one codec (nesting capped,
//!   typed errors → `bad-request`); the operator client and the tests
//!   read replies with the same parser.
//!
//! Commands: `metrics` (the same serialized snapshot `SITE STATS`
//! serves — one serializer, two surfaces), `sessions` (live session
//! index), `trace` (cursor-bounded stable-trace streaming, optionally
//! `follow`ing), `drain` (graceful retirement), `reload` (validated
//! tunable hot-swap), `limits` (per-tenant scheduler adjustment).
//!
//! The admin plane records metrics (`admin.requests`,
//! `admin.rejected_uid`, `admin.rtt_ns`) and *unstable* trace events
//! only — like the reactor, it must never perturb the stable trace
//! stream it is itself exporting, or `trace follow` would fail the
//! replay byte-identity gate by observing itself.

/// Hook the admin plane uses to adjust a fair-share scheduler at
/// runtime (`limits set`). Implemented by `ig-gol`'s `FairScheduler`;
/// defined here so `ig-server` needs no dependency on the scheduler
/// crate.
pub trait SchedulerControl: Send + Sync {
    /// Reconfigure an *existing* tenant's share. Unknown tenants are a
    /// typed error string (`unknown tenant ...`), not a silent create —
    /// an admin typo must not mint a tenant.
    fn set_limits(
        &self,
        tenant: &str,
        weight: u32,
        rate_per_s: Option<f64>,
        burst: f64,
        queue_cap: usize,
    ) -> std::result::Result<(), String>;

    /// JSON array describing every tenant's share and queue state.
    fn tenants_json(&self) -> String;
}

/// Admin protocol version spoken by this build.
pub const ADMIN_PROTO_VERSION: u32 = 1;

/// Cap on a single admin frame, both directions. Far below the control
/// channel's `MAX_FRAME`: admin requests are small JSON objects, and a
/// huge announced length is an attack or a bug either way.
pub const ADMIN_MAX_FRAME: usize = 1024 * 1024;

pub use plane::spawn_admin;

mod plane {
    use super::{ADMIN_MAX_FRAME, ADMIN_PROTO_VERSION};
    use crate::config::ServerConfig;
    use crate::error::{Result, ServerError};
    use crate::listener::GridFtpServer;
    use crate::tunables::tunables_json;
    use crate::usage::stats_json;
    use ig_obs::json::{self, kv, Value};
    use ig_xio::{FrameBuf, UdsListener};
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Weak};
    use std::time::{Duration, Instant};

    /// Poll interval for the nonblocking accept loop and the trace
    /// follow stream.
    const POLL: Duration = Duration::from_millis(20);

    /// Spawn the admin listener thread for `server`. Holds only a
    /// `Weak` back-reference, so the admin plane can never keep a
    /// dropped server alive; it exits when the server stops.
    pub fn spawn_admin(server: &Arc<GridFtpServer>) -> Result<()> {
        let config = Arc::clone(server.config_arc());
        let path = config
            .admin_socket
            .clone()
            .expect("spawn_admin called without admin_socket configured");
        let listener = UdsListener::bind_private(&path)
            .map_err(|e| ServerError::Spawn(format!("admin socket {}: {e}", path.display())))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| ServerError::Spawn(format!("admin socket: {e}")))?;
        let allowed_uid = config.admin_uid.unwrap_or_else(ig_xio::uds::process_euid);
        let weak = Arc::downgrade(server);
        let stop = server.stop_flag();
        std::thread::Builder::new()
            .name("ig-admin".into())
            .spawn(move || accept_loop(listener, config, weak, stop, allowed_uid))
            .map_err(|e| ServerError::Spawn(format!("admin thread: {e}")))?;
        Ok(())
    }

    fn accept_loop(
        listener: UdsListener,
        config: Arc<ServerConfig>,
        weak: Weak<GridFtpServer>,
        stop: Arc<AtomicBool>,
        allowed_uid: u32,
    ) {
        let rejected = config.obs.metrics().counter("admin.rejected_uid");
        while !stop.load(Ordering::SeqCst) && weak.strong_count() > 0 {
            match listener.accept() {
                Ok((stream, uid)) => {
                    // The peer-credential gate: enforced before any byte
                    // of the connection is read or parsed.
                    if uid != allowed_uid {
                        rejected.inc();
                        drop(stream);
                        continue;
                    }
                    let config = Arc::clone(&config);
                    let weak = weak.clone();
                    let stop = Arc::clone(&stop);
                    let _ = std::thread::Builder::new()
                        .name("ig-admin-conn".into())
                        .spawn(move || {
                            let _ = serve_connection(stream, config, weak, stop);
                        });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        // UdsListener drop unlinks the socket file.
    }

    /// Read the one-line client hello, bounded at 64 bytes.
    fn read_hello(stream: &mut UnixStream) -> std::io::Result<String> {
        let mut line = Vec::with_capacity(16);
        let mut byte = [0u8; 1];
        while line.len() < 64 {
            match stream.read(&mut byte) {
                Ok(0) => break,
                Ok(_) if byte[0] == b'\n' => {
                    return Ok(String::from_utf8_lossy(&line).into_owned())
                }
                Ok(_) => line.push(byte[0]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "admin hello missing or oversized",
        ))
    }

    fn serve_connection(
        mut stream: UnixStream,
        config: Arc<ServerConfig>,
        weak: Weak<GridFtpServer>,
        stop: Arc<AtomicBool>,
    ) -> std::io::Result<()> {
        // Version handshake: one text line each way, then framed JSON.
        let hello = read_hello(&mut stream)?;
        let ours = format!("IGADMIN {ADMIN_PROTO_VERSION}");
        if hello.trim() != ours {
            stream.write_all(format!("{ours} ERR version-mismatch\n").as_bytes())?;
            return Ok(());
        }
        stream.write_all(format!("{ours} OK\n").as_bytes())?;

        let requests = config.obs.metrics().counter("admin.requests");
        let rtt = config.obs.metrics().histogram("admin.rtt_ns");
        stream.set_read_timeout(Some(Duration::from_millis(200)))?;
        let mut inbuf = FrameBuf::new();
        let mut chunk = [0u8; 4096];
        loop {
            if stop.load(Ordering::SeqCst) && inbuf.pending() == 0 {
                return Ok(());
            }
            match stream.read(&mut chunk) {
                Ok(0) => return Ok(()), // peer closed
                Ok(n) => inbuf.push(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
            loop {
                let frame = match inbuf.next_frame() {
                    Ok(Some(f)) => f,
                    Ok(None) => break,
                    // Announced length beyond the control-channel cap:
                    // protocol violation, drop the connection.
                    Err(e) => return Err(e),
                };
                if frame.len() > ADMIN_MAX_FRAME {
                    send_frame(&mut stream, &err_reply("frame-too-large", ""))?;
                    return Ok(());
                }
                let started = Instant::now();
                requests.inc();
                let keep_going =
                    dispatch(&frame, &mut stream, &config, &weak, &stop)?;
                let elapsed = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                rtt.record(elapsed);
                if !keep_going {
                    return Ok(());
                }
            }
        }
    }

    fn send_frame(stream: &mut UnixStream, payload: &str) -> std::io::Result<()> {
        stream.write_all(&FrameBuf::encode(payload.as_bytes()))
    }

    fn err_reply(code: &str, detail: &str) -> String {
        let mut fields = vec![kv("ok", false), kv("error", code)];
        if !detail.is_empty() {
            fields.push(kv("detail", detail));
        }
        json::to_string(&Value::Obj(fields))
    }

    /// Handle one request frame. Returns `false` when the connection
    /// should close after the reply.
    fn dispatch(
        frame: &[u8],
        stream: &mut UnixStream,
        config: &Arc<ServerConfig>,
        weak: &Weak<GridFtpServer>,
        stop: &Arc<AtomicBool>,
    ) -> std::io::Result<bool> {
        let req = match json::parse_slice(frame) {
            Ok(v) => v,
            Err(e) => {
                send_frame(stream, &err_reply("bad-request", &e.to_string()))?;
                return Ok(true);
            }
        };
        let cmd = req.get("cmd").and_then(Value::as_str).unwrap_or("").to_string();
        config.obs.event_unstable("admin.cmd", vec![kv("verb", cmd.as_str())]);
        match cmd.as_str() {
            "metrics" => {
                let mut out = String::from("{\"ok\":true,\"stats\":");
                out.push_str(&stats_json(
                    config.obs.component(),
                    &config.usage,
                    config.obs.metrics(),
                ));
                out.push('}');
                send_frame(stream, &out)?;
                Ok(true)
            }
            "sessions" => {
                let mut out = String::from("{\"ok\":true,\"active\":");
                out.push_str(&config.sessions.len().to_string());
                out.push_str(",\"sessions\":");
                out.push_str(&config.sessions.snapshot_json());
                out.push('}');
                send_frame(stream, &out)?;
                Ok(true)
            }
            "trace" => {
                let since = req.get("since").and_then(Value::as_u64).unwrap_or(0);
                let follow = req.get("follow").and_then(Value::as_bool).unwrap_or(false);
                let max_ms =
                    req.get("max_ms").and_then(Value::as_u64).unwrap_or(1000).min(60_000);
                serve_trace(stream, config, stop, since, follow, max_ms)?;
                Ok(true)
            }
            "drain" => {
                let deadline_ms =
                    req.get("deadline_ms").and_then(Value::as_u64).unwrap_or(5000);
                let Some(server) = weak.upgrade() else {
                    send_frame(stream, &err_reply("server-gone", ""))?;
                    return Ok(false);
                };
                let report = server.drain(Duration::from_millis(deadline_ms));
                let out = json::to_string(&Value::Obj(vec![
                    kv("ok", true),
                    kv("drained", true),
                    kv("already", report.already),
                    kv("clean", report.clean),
                    kv("waited_ms", report.waited_ms),
                    kv("transfers_interrupted", report.transfers_interrupted),
                ]));
                send_frame(stream, &out)?;
                Ok(true)
            }
            "reload" => {
                let Some(Value::Obj(updates)) = req.get("set") else {
                    send_frame(stream, &err_reply("bad-request", "missing \"set\" object"))?;
                    return Ok(true);
                };
                match config.reload(updates) {
                    Ok(active) => {
                        let mut out = String::from("{\"ok\":true,\"tunables\":");
                        out.push_str(&tunables_json(&active));
                        out.push('}');
                        send_frame(stream, &out)?;
                    }
                    Err(e) => {
                        let out = json::to_string(&Value::Obj(vec![
                            kv("ok", false),
                            kv("error", e.code()),
                            kv("field", e.field()),
                            kv("detail", e.to_string()),
                        ]));
                        send_frame(stream, &out)?;
                    }
                }
                Ok(true)
            }
            "limits" => {
                let Some(sched) = config.scheduler.as_ref() else {
                    send_frame(stream, &err_reply("no-scheduler", ""))?;
                    return Ok(true);
                };
                match req.get("op").and_then(Value::as_str).unwrap_or("list") {
                    "list" => {
                        let mut out = String::from("{\"ok\":true,\"tenants\":");
                        out.push_str(&sched.tenants_json());
                        out.push('}');
                        send_frame(stream, &out)?;
                    }
                    "set" => {
                        let tenant = req.get("tenant").and_then(Value::as_str);
                        let weight = req.get("weight").and_then(Value::as_u64);
                        let queue_cap = req.get("queue_cap").and_then(Value::as_u64);
                        let (Some(tenant), Some(weight), Some(queue_cap)) =
                            (tenant, weight, queue_cap)
                        else {
                            send_frame(
                                stream,
                                &err_reply(
                                    "bad-request",
                                    "limits set needs tenant, weight, queue_cap",
                                ),
                            )?;
                            return Ok(true);
                        };
                        let rate = req.get("rate_per_s").and_then(Value::as_f64);
                        let burst = req.get("burst").and_then(Value::as_f64).unwrap_or(1.0);
                        match sched.set_limits(
                            tenant,
                            weight.min(u64::from(u32::MAX)) as u32,
                            rate,
                            burst,
                            queue_cap as usize,
                        ) {
                            Ok(()) => send_frame(stream, "{\"ok\":true}")?,
                            Err(e) => {
                                send_frame(stream, &err_reply("limits-rejected", &e))?
                            }
                        }
                    }
                    other => send_frame(
                        stream,
                        &err_reply("bad-request", &format!("unknown limits op {other:?}")),
                    )?,
                }
                Ok(true)
            }
            other => {
                send_frame(
                    stream,
                    &err_reply("unknown-command", &format!("no such command {other:?}")),
                )?;
                Ok(true)
            }
        }
    }

    /// One trace chunk as a reply frame. The JSONL payload travels as a
    /// single JSON string so the framing stays one-object-per-frame.
    fn trace_reply(export: &ig_obs::trace::StableExport, done: bool) -> String {
        json::to_string(&Value::Obj(vec![
            kv("ok", true),
            kv("next", export.next),
            kv("dropped", export.dropped),
            kv("done", done),
            kv("jsonl", export.jsonl.as_str()),
        ]))
    }

    fn serve_trace(
        stream: &mut UnixStream,
        config: &Arc<ServerConfig>,
        stop: &Arc<AtomicBool>,
        since: u64,
        follow: bool,
        max_ms: u64,
    ) -> std::io::Result<()> {
        let mut cursor = since;
        if !follow {
            let export = config.obs.export_stable_since(cursor);
            return send_frame(stream, &trace_reply(&export, true));
        }
        // Follow mode: poll the cursor until the window closes or the
        // server stops, emitting a frame per non-empty chunk. The
        // cursor API makes each poll O(new events), not O(buffer).
        let deadline = Instant::now() + Duration::from_millis(max_ms);
        loop {
            let export = config.obs.export_stable_since(cursor);
            let closing =
                Instant::now() >= deadline || stop.load(Ordering::SeqCst);
            if !export.jsonl.is_empty() || export.dropped > 0 || closing {
                cursor = export.next;
                send_frame(stream, &trace_reply(&export, closing))?;
                if closing {
                    return Ok(());
                }
            }
            std::thread::sleep(POLL);
        }
    }
}
