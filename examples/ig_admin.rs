//! ig-admin — a minimal operator client for the admin unix socket
//! (DESIGN.md §15), plus a self-contained `serve` mode so CI can smoke
//! the whole plane without standing up a real deployment.
//!
//! ```text
//! cargo run --example ig_admin -- serve /tmp/ig-admin.sock &
//! cargo run --example ig_admin -- metrics /tmp/ig-admin.sock
//! cargo run --example ig_admin -- sessions /tmp/ig-admin.sock
//! cargo run --example ig_admin -- reload block_size=8192 /tmp/ig-admin.sock
//! cargo run --example ig_admin -- trace /tmp/ig-admin.sock
//! cargo run --example ig_admin -- drain --deadline-ms 2000 /tmp/ig-admin.sock
//! ```
//!
//! Every command prints the server's JSON reply on stdout and exits 0
//! iff the reply carries `"ok":true`; `serve` exits 0 once the endpoint
//! has been drained. The admin plane is unix-socket-only, so this tool
//! is too.

#[cfg(not(target_os = "linux"))]
fn main() {
    eprintln!("ig-admin: the admin plane needs SO_PEERCRED and is linux-only");
}

#[cfg(target_os = "linux")]
fn main() {
    std::process::exit(linux::run());
}

#[cfg(target_os = "linux")]
mod linux {
    use instant_gridftp::pki::{Gridmap, TrustStore};
    use ig_obs::json::{parse, Value};
    use instant_gridftp::server::{Dsi, GridFtpServer, GridmapAuthz, MemDsi, ServerConfig};
    use instant_gridftp::xio::FrameBuf;
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;
    use std::path::Path;
    use std::sync::Arc;
    use std::time::Duration;

    fn usage() -> i32 {
        eprintln!(
            "usage: ig_admin serve <socket>\n       \
             ig_admin (metrics|sessions|trace) <socket>\n       \
             ig_admin drain [--deadline-ms N] <socket>\n       \
             ig_admin reload KEY=VALUE... <socket>"
        );
        2
    }

    pub fn run() -> i32 {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.len() < 2 {
            return usage();
        }
        let (Some(cmd), Some(sock)) = (args.first(), args.last()) else {
            return usage();
        };
        let sock = Path::new(sock);
        let middle = &args[1..args.len().saturating_sub(1)];
        match cmd.as_str() {
            "serve" => serve(sock),
            "metrics" => request(sock, "{\"cmd\":\"metrics\"}".into()),
            "sessions" => request(sock, "{\"cmd\":\"sessions\"}".into()),
            "trace" => request(sock, "{\"cmd\":\"trace\",\"since\":0}".into()),
            "drain" => {
                let mut deadline_ms = 2000u64;
                let mut it = middle.iter();
                while let Some(a) = it.next() {
                    if a == "--deadline-ms" {
                        match it.next().and_then(|v| v.parse().ok()) {
                            Some(n) => deadline_ms = n,
                            None => return usage(),
                        }
                    } else {
                        return usage();
                    }
                }
                request(sock, format!("{{\"cmd\":\"drain\",\"deadline_ms\":{deadline_ms}}}"))
            }
            "reload" => {
                if middle.is_empty() {
                    return usage();
                }
                let mut set = Vec::new();
                for pair in middle {
                    let Some((key, value)) = pair.split_once('=') else {
                        return usage();
                    };
                    // Tunables are numeric, boolean, or null — anything
                    // else is a typo the server would reject anyway.
                    let ok = value == "null"
                        || value == "true"
                        || value == "false"
                        || value.parse::<u64>().is_ok()
                        || value.parse::<f64>().is_ok();
                    if !ok {
                        eprintln!("ig-admin: bad value in {pair:?}");
                        return 2;
                    }
                    set.push(format!("\"{key}\":{value}"));
                }
                request(sock, format!("{{\"cmd\":\"reload\",\"set\":{{{}}}}}", set.join(",")))
            }
            _ => usage(),
        }
    }

    /// A throwaway endpoint whose only open surface is the admin socket:
    /// seeded one-host PKI, empty gridmap, in-memory storage. It serves
    /// until an operator (the smoke test) drains it.
    fn serve(sock: &Path) -> i32 {
        let mut rng = instant_gridftp::crypto::rng::seeded(0xAD417);
        let (ca, host_cred) = instant_gridftp::gsi::context::test_support::ca_and_credential(
            &mut rng,
            "/O=Smoke CA",
            "/CN=smoke.example.org",
        );
        let mut trust = TrustStore::new();
        trust.add_root(ca.root_cert().clone());
        let cfg = ServerConfig::new(
            "smoke.example.org",
            host_cred,
            trust,
            Arc::new(GridmapAuthz::new(Gridmap::new())),
            Arc::new(MemDsi::new()) as Arc<dyn Dsi>,
        )
        .with_obs(ig_obs::Obs::new("ig-admin-smoke"))
        .with_admin_socket(sock);
        let server = match GridFtpServer::start(cfg, 7) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("ig-admin: serve failed: {e:?}");
                return 1;
            }
        };
        println!("serving control={} admin={}", server.addr(), sock.display());
        while !server.stopped() {
            std::thread::sleep(Duration::from_millis(25));
        }
        println!("drained; exiting");
        0
    }

    /// One request/reply over the admin wire: hello handshake, one
    /// length-prefixed JSON frame each way.
    fn request(sock: &Path, body: String) -> i32 {
        match talk(sock, &body) {
            Ok((text, ok)) => {
                println!("{text}");
                i32::from(!ok)
            }
            Err(e) => {
                eprintln!("ig-admin: {e}");
                1
            }
        }
    }

    fn talk(sock: &Path, body: &str) -> Result<(String, bool), String> {
        let mut stream =
            UnixStream::connect(sock).map_err(|e| format!("connect {}: {e}", sock.display()))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        stream.write_all(b"IGADMIN 1\n").map_err(|e| e.to_string())?;
        let mut line = Vec::new();
        let mut byte = [0u8; 1];
        loop {
            match stream.read(&mut byte).map_err(|e| format!("handshake: {e}"))? {
                0 => return Err("server closed during handshake".into()),
                _ if byte[0] == b'\n' => break,
                _ => line.push(byte[0]),
            }
        }
        let hello = String::from_utf8_lossy(&line).to_string();
        if hello != "IGADMIN 1 OK" {
            return Err(format!("handshake refused: {hello}"));
        }
        stream.write_all(&FrameBuf::encode(body.as_bytes())).map_err(|e| e.to_string())?;
        let mut inbuf = FrameBuf::new();
        let mut chunk = [0u8; 4096];
        let frame = loop {
            if let Some(f) = inbuf.next_frame().map_err(|e| e.to_string())? {
                break f;
            }
            match stream.read(&mut chunk).map_err(|e| format!("read: {e}"))? {
                0 => return Err("server closed before replying".into()),
                n => inbuf.push(&chunk[..n]),
            }
        };
        let text = String::from_utf8(frame).map_err(|e| e.to_string())?;
        let ok = parse(&text)
            .map_err(|e| format!("bad reply: {e}"))?
            .get("ok")
            .and_then(Value::as_bool)
            == Some(true);
        Ok((text, ok))
    }
}
