//! The SCP model: single encrypted stream, client-routed third-party.

use ig_gsi::context::GsiConfig;
use ig_gsi::ProtectionLevel;
use ig_netsim::TcpParams;
use ig_pki::time::Clock;
use ig_pki::{Credential, TrustStore};
use ig_protocol::HostPort;
use ig_server::{Dsi, UserContext};
use ig_xio::{secure_accept, secure_connect, Link, TcpLink};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ig_obs::json::{from_slice, to_vec};
use std::io;
use std::net::{Ipv4Addr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// SCP copy chunk size (OpenSSH-era channel packet).
pub const SCP_CHUNK: usize = 32 * 1024;

/// netsim parameters for one scp stream: 64 KiB window cap + cipher
/// rate ceiling (see `TcpParams::scp_like`).
pub fn scp_netsim_params() -> TcpParams {
    TcpParams::scp_like()
}

enum ScpRequest {
    /// Fetch a file.
    Get {
        /// Path.
        path: String,
    },
    /// Store a file of the given length.
    Put {
        /// Path.
        path: String,
        /// Payload bytes to follow.
        len: u64,
    },
}

enum ScpReply {
    /// Proceed; for Get, the file length follows.
    Ok {
        /// File length (Get) or 0 (Put).
        len: u64,
    },
    /// Refused.
    Err {
        /// Reason.
        message: String,
    },
}

ig_obs::json_codec!(enum ScpRequest { Get { path }, Put { path, len } });
ig_obs::json_codec!(enum ScpReply { Ok { len }, Err { message } });

/// An SCP "host": a daemon serving encrypted single-stream copies.
pub struct ScpHost {
    addr: HostPort,
    stop: Arc<AtomicBool>,
    /// Bytes served (both directions).
    pub bytes: Arc<AtomicU64>,
}

impl ScpHost {
    /// Start a host over `dsi`, presenting `credential`.
    pub fn start(
        dsi: Arc<dyn Dsi>,
        credential: Credential,
        clock: Clock,
        seed: u64,
    ) -> io::Result<Arc<Self>> {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
        let addr = HostPort::from_socket_addr(listener.local_addr()?).expect("ipv4");
        let host = Arc::new(ScpHost {
            addr,
            stop: Arc::new(AtomicBool::new(false)),
            bytes: Arc::new(AtomicU64::new(0)),
        });
        let host2 = Arc::clone(&host);
        let session_seed = Arc::new(AtomicU64::new(seed));
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if host2.stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { break };
                let dsi = Arc::clone(&dsi);
                let cred = credential.clone();
                let bytes = Arc::clone(&host2.bytes);
                let seed = session_seed.fetch_add(1, Ordering::SeqCst);
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let cfg = GsiConfig {
                        credential: Some(cred),
                        trust: TrustStore::new(),
                        require_peer_auth: false, // scp: host key + password model
                        clock,
                        insecure_skip_peer_validation: false,
                    };
                    // SCP encrypts everything, always.
                    let Ok(mut link) = secure_accept(
                        TcpLink::new(stream),
                        cfg,
                        ProtectionLevel::Private,
                        &mut rng,
                    ) else {
                        return;
                    };
                    let user = UserContext::superuser();
                    let Ok(raw) = link.recv() else { return };
                    let Ok(req) = from_slice::<ScpRequest>(&raw) else { return };
                    match req {
                        ScpRequest::Get { path } => match dsi.size(&user, &path) {
                            Ok(len) => {
                                let _ = link.send(&to_vec(&ScpReply::Ok { len }));
                                let mut off = 0u64;
                                while off < len {
                                    let want = SCP_CHUNK.min((len - off) as usize);
                                    let Ok(chunk) = dsi.read(&user, &path, off, want) else {
                                        return;
                                    };
                                    if chunk.is_empty() || link.send(&chunk).is_err() {
                                        return;
                                    }
                                    off += chunk.len() as u64;
                                    bytes.fetch_add(chunk.len() as u64, Ordering::Relaxed);
                                }
                            }
                            Err(e) => {
                                let _ = link.send(&to_vec(&ScpReply::Err {
                                    message: e.to_string(),
                                }));
                            }
                        },
                        ScpRequest::Put { path, len } => {
                            if link.send(&to_vec(&ScpReply::Ok { len: 0 })).is_err() {
                                return;
                            }
                            let mut off = 0u64;
                            while off < len {
                                let Ok(chunk) = link.recv() else { return };
                                if dsi.write(&user, &path, off, &chunk).is_err() {
                                    return;
                                }
                                off += chunk.len() as u64;
                                bytes.fetch_add(chunk.len() as u64, Ordering::Relaxed);
                            }
                            let _ = link.send(&to_vec(&ScpReply::Ok { len }));
                        }
                    }
                    let _ = link.close();
                });
            }
        });
        Ok(host)
    }

    /// The host's address.
    pub fn addr(&self) -> HostPort {
        self.addr
    }

    /// Stop the daemon.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = std::net::TcpStream::connect(self.addr.to_socket_addr());
    }
}

impl Drop for ScpHost {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn connect(addr: HostPort, clock: Clock, seed: u64) -> io::Result<impl Link> {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = GsiConfig::anonymous(TrustStore::new()).with_clock(clock).bootstrap();
    secure_connect(TcpLink::connect(addr.to_socket_addr())?, cfg, ProtectionLevel::Private, &mut rng)
}

/// `scp host:path .` — fetch a file (one encrypted stream).
pub fn scp_get(addr: HostPort, path: &str, clock: Clock, seed: u64) -> io::Result<Vec<u8>> {
    let mut link = connect(addr, clock, seed)?;
    link.send(&to_vec(&ScpRequest::Get { path: path.to_string() }))?;
    let raw = link.recv()?;
    let reply: ScpReply = from_slice(&raw)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let len = match reply {
        ScpReply::Ok { len } => len,
        ScpReply::Err { message } => {
            return Err(io::Error::new(io::ErrorKind::NotFound, message))
        }
    };
    let mut out = Vec::with_capacity(len as usize);
    while (out.len() as u64) < len {
        let chunk = link.recv()?;
        out.extend_from_slice(&chunk);
    }
    Ok(out)
}

/// `scp . host:path` — store a file.
pub fn scp_put(addr: HostPort, path: &str, data: &[u8], clock: Clock, seed: u64) -> io::Result<()> {
    let mut link = connect(addr, clock, seed)?;
    link.send(&to_vec(&ScpRequest::Put { path: path.to_string(), len: data.len() as u64 }))?;
    let raw = link.recv()?;
    if let ScpReply::Err { message } =
        from_slice(&raw).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
    {
        return Err(io::Error::new(io::ErrorKind::PermissionDenied, message));
    }
    for chunk in data.chunks(SCP_CHUNK) {
        link.send(chunk)?;
    }
    let raw = link.recv()?;
    match from_slice(&raw)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
    {
        ScpReply::Ok { .. } => Ok(()),
        ScpReply::Err { message } => Err(io::Error::new(io::ErrorKind::Other, message)),
    }
}

/// `scp hostA:path hostB:path` — §VII: "SCP routes data through the
/// client for transfers between two remote hosts". The bytes make two
/// trips; with a slow client link this is the E6 disadvantage.
pub fn scp_third_party(
    src: HostPort,
    src_path: &str,
    dst: HostPort,
    dst_path: &str,
    clock: Clock,
    seed: u64,
) -> io::Result<u64> {
    let data = scp_get(src, src_path, clock, seed)?;
    scp_put(dst, dst_path, &data, clock, seed + 1)?;
    // Two trips over the client's links.
    Ok(2 * data.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ig_gsi::context::test_support::ca_and_credential;
    use ig_server::dsi::read_all;
    use ig_server::MemDsi;

    fn host(seed: u64) -> (Arc<ScpHost>, Arc<MemDsi>) {
        let mut rng = ig_crypto::rng::seeded(seed);
        let (_ca, cred) = ca_and_credential(&mut rng, "/O=SSH", "/CN=scp-host");
        let dsi = Arc::new(MemDsi::new());
        let h = ScpHost::start(
            Arc::clone(&dsi) as Arc<dyn Dsi>,
            cred,
            Clock::Fixed(1000),
            seed * 10,
        )
        .unwrap();
        (h, dsi)
    }

    #[test]
    fn get_roundtrip() {
        let (h, dsi) = host(1);
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        dsi.put("/f.bin", &data);
        let got = scp_get(h.addr(), "/f.bin", Clock::Fixed(1000), 77).unwrap();
        assert_eq!(got, data);
        assert!(scp_get(h.addr(), "/missing", Clock::Fixed(1000), 78).is_err());
    }

    #[test]
    fn put_roundtrip() {
        let (h, dsi) = host(2);
        let data = vec![7u8; 70_000];
        scp_put(h.addr(), "/up.bin", &data, Clock::Fixed(1000), 79).unwrap();
        let user = UserContext::superuser();
        assert_eq!(read_all(dsi.as_ref(), &user, "/up.bin", 1 << 16).unwrap(), data);
    }

    #[test]
    fn third_party_routes_through_client() {
        let (a, dsi_a) = host(3);
        let (b, dsi_b) = host(4);
        let data = vec![9u8; 50_000];
        dsi_a.put("/src.bin", &data);
        let wire = scp_third_party(
            a.addr(),
            "/src.bin",
            b.addr(),
            "/dst.bin",
            Clock::Fixed(1000),
            80,
        )
        .unwrap();
        // The client carried every byte twice.
        assert_eq!(wire, 2 * data.len() as u64);
        let user = UserContext::superuser();
        assert_eq!(read_all(dsi_b.as_ref(), &user, "/dst.bin", 1 << 16).unwrap(), data);
    }

    #[test]
    fn netsim_params_have_scp_ceilings() {
        let p = scp_netsim_params();
        assert_eq!(p.window_cap_bytes, Some(64 * 1024));
        assert!(p.rate_cap_bps.is_some());
    }
}
