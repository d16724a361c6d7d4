//! Legacy stream-mode FTP: one cleartext TCP stream, no restart, no
//! parallelism — "Legacy FTP, SFTP, and HTTP also suffer from low
//! performance" (§VII).

use ig_netsim::TcpParams;
use ig_protocol::HostPort;
use ig_server::{Dsi, UserContext};
use ig_xio::{Link, TcpLink};
use ig_obs::json::{from_slice, to_vec};
use std::io;
use std::net::{Ipv4Addr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Stream chunk size.
pub const FTP_CHUNK: usize = 64 * 1024;

/// netsim parameters for plain FTP: untuned default buffers (a modest
/// 256 KiB window — better than scp, far below a tuned GridFTP), single
/// stream, no cipher ceiling.
pub fn ftp_netsim_params() -> TcpParams {
    TcpParams::tuned().with_window_cap(256 * 1024)
}

enum FtpMsg {
    /// RETR equivalent.
    Get {
        /// Path.
        path: String,
    },
    /// STOR equivalent.
    Put {
        /// Path.
        path: String,
        /// Length to follow.
        len: u64,
    },
    /// Go ahead / size notice.
    Ok {
        /// File length for Get.
        len: u64,
    },
    /// Refusal.
    Err {
        /// Reason.
        message: String,
    },
}

ig_obs::json_codec!(enum FtpMsg { Get { path }, Put { path, len }, Ok { len }, Err { message } });

fn decode(raw: &[u8]) -> io::Result<FtpMsg> {
    from_slice(raw).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// A plain-FTP host.
pub struct PlainFtpHost {
    addr: HostPort,
    stop: Arc<AtomicBool>,
}

impl PlainFtpHost {
    /// Start serving `dsi`.
    pub fn start(dsi: Arc<dyn Dsi>) -> io::Result<Arc<Self>> {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
        let addr = HostPort::from_socket_addr(listener.local_addr()?).expect("ipv4");
        let host = Arc::new(PlainFtpHost { addr, stop: Arc::new(AtomicBool::new(false)) });
        let host2 = Arc::clone(&host);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if host2.stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { break };
                let dsi = Arc::clone(&dsi);
                std::thread::spawn(move || {
                    let mut link = TcpLink::new(stream);
                    let user = UserContext::superuser();
                    let Ok(raw) = link.recv() else { return };
                    let Ok(msg) = decode(&raw) else { return };
                    match msg {
                        FtpMsg::Get { path } => match dsi.size(&user, &path) {
                            Ok(len) => {
                                let _ = link.send(&to_vec(&FtpMsg::Ok { len }));
                                let mut off = 0u64;
                                while off < len {
                                    let want = FTP_CHUNK.min((len - off) as usize);
                                    let Ok(chunk) = dsi.read(&user, &path, off, want) else {
                                        return;
                                    };
                                    if chunk.is_empty() || link.send(&chunk).is_err() {
                                        return;
                                    }
                                    off += chunk.len() as u64;
                                }
                            }
                            Err(e) => {
                                let _ =
                                    link.send(&to_vec(&FtpMsg::Err { message: e.to_string() }));
                            }
                        },
                        FtpMsg::Put { path, len } => {
                            if link.send(&to_vec(&FtpMsg::Ok { len: 0 })).is_err() {
                                return;
                            }
                            let mut off = 0u64;
                            while off < len {
                                let Ok(chunk) = link.recv() else { return };
                                if dsi.write(&user, &path, off, &chunk).is_err() {
                                    return;
                                }
                                off += chunk.len() as u64;
                            }
                            let _ = link.send(&to_vec(&FtpMsg::Ok { len }));
                        }
                        _ => {}
                    }
                    let _ = link.close();
                });
            }
        });
        Ok(host)
    }

    /// Address.
    pub fn addr(&self) -> HostPort {
        self.addr
    }

    /// Stop.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = std::net::TcpStream::connect(self.addr.to_socket_addr());
    }
}

impl Drop for PlainFtpHost {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Fetch a file over one cleartext stream.
pub fn ftp_get(addr: HostPort, path: &str) -> io::Result<Vec<u8>> {
    let mut link = TcpLink::connect(addr.to_socket_addr())?;
    link.send(&to_vec(&FtpMsg::Get { path: path.to_string() }))?;
    let len = match decode(&link.recv()?)? {
        FtpMsg::Ok { len } => len,
        FtpMsg::Err { message } => return Err(io::Error::new(io::ErrorKind::NotFound, message)),
        _ => return Err(io::Error::new(io::ErrorKind::InvalidData, "bad reply")),
    };
    let mut out = Vec::with_capacity(len as usize);
    while (out.len() as u64) < len {
        out.extend_from_slice(&link.recv()?);
    }
    Ok(out)
}

/// Store a file over one cleartext stream.
pub fn ftp_put(addr: HostPort, path: &str, data: &[u8]) -> io::Result<()> {
    let mut link = TcpLink::connect(addr.to_socket_addr())?;
    link.send(&to_vec(&FtpMsg::Put { path: path.to_string(), len: data.len() as u64 }))?;
    match decode(&link.recv()?)? {
        FtpMsg::Ok { .. } => {}
        FtpMsg::Err { message } => {
            return Err(io::Error::new(io::ErrorKind::PermissionDenied, message))
        }
        _ => return Err(io::Error::new(io::ErrorKind::InvalidData, "bad reply")),
    }
    for chunk in data.chunks(FTP_CHUNK) {
        link.send(chunk)?;
    }
    match decode(&link.recv()?)? {
        FtpMsg::Ok { .. } => Ok(()),
        _ => Err(io::Error::new(io::ErrorKind::Other, "upload not acknowledged")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ig_server::dsi::read_all;
    use ig_server::MemDsi;

    #[test]
    fn get_and_put_roundtrip() {
        let dsi = Arc::new(MemDsi::new());
        let data: Vec<u8> = (0..150_000u32).map(|i| (i % 241) as u8).collect();
        dsi.put("/f.bin", &data);
        let host = PlainFtpHost::start(Arc::clone(&dsi) as Arc<dyn Dsi>).unwrap();
        assert_eq!(ftp_get(host.addr(), "/f.bin").unwrap(), data);
        ftp_put(host.addr(), "/up.bin", &data).unwrap();
        let user = UserContext::superuser();
        assert_eq!(read_all(dsi.as_ref(), &user, "/up.bin", 1 << 16).unwrap(), data);
        assert!(ftp_get(host.addr(), "/none").is_err());
        host.shutdown();
    }

    #[test]
    fn netsim_params_modest_window_no_cipher() {
        let p = ftp_netsim_params();
        assert_eq!(p.window_cap_bytes, Some(256 * 1024));
        assert!(p.rate_cap_bps.is_none());
    }
}
