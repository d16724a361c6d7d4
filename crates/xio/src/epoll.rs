//! A std-only epoll driver: the readiness backend for the server's reactor.
//!
//! GridFTP's event-driven frontends multiplex tens of thousands of
//! mostly-idle control sessions over one thread; the enabling primitive
//! is a readiness queue. This module wraps `epoll(7)` (plus `eventfd(2)`
//! for cross-thread wakeups and `poll(2)` for one-shot readiness waits)
//! through minimal `extern "C"` declarations — libc is already linked
//! into every Rust binary, so no new dependency is needed.
//!
//! Only compiled on Linux, which `ig-server` therefore requires: its
//! reactor runs on this module and its data plane blocks in
//! [`wait_readable`] on its listeners and a [`WakeFd`].

#![cfg(target_os = "linux")]

use std::io;
use std::os::raw::{c_int, c_uint, c_void};
use std::os::unix::io::RawFd;
use std::time::Duration;

// epoll_event is packed on x86_64 only (kernel ABI quirk).
#[cfg(target_arch = "x86_64")]
#[repr(C, packed)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

#[cfg(not(target_arch = "x86_64"))]
#[repr(C)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int)
        -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn poll(fds: *mut PollFd, nfds: u64, timeout: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
}

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

/// Which readiness kinds a registration asks for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    pub const READ: Interest = Interest { readable: true, writable: false };
    pub const WRITE: Interest = Interest { readable: false, writable: true };
    pub const BOTH: Interest = Interest { readable: true, writable: true };

    fn mask(self) -> u32 {
        let mut m = EPOLLRDHUP;
        if self.readable {
            m |= EPOLLIN;
        }
        if self.writable {
            m |= EPOLLOUT;
        }
        m
    }
}

/// One delivered readiness event: the registered token plus what fired.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    /// Error or hangup — the fd needs attention regardless of interest.
    pub error: bool,
}

/// Thin owning wrapper over an epoll instance.
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    pub fn new() -> io::Result<Epoll> {
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = EpollEvent { events: interest.mask(), data: token };
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        let rc = unsafe { epoll_ctl(self.fd, EPOLL_CTL_DEL, fd, std::ptr::null_mut()) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Wait for readiness, appending into `out`. `None` blocks forever.
    /// Returns the number of events delivered. EINTR retries.
    pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        let ms: c_int = match timeout {
            None => -1,
            Some(d) => d.as_millis().min(i32::MAX as u128) as c_int,
        };
        let mut buf = [EpollEvent { events: 0, data: 0 }; 256];
        let n = loop {
            let rc =
                unsafe { epoll_wait(self.fd, buf.as_mut_ptr(), buf.len() as c_int, ms) };
            if rc >= 0 {
                break rc as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for e in &buf[..n] {
            let bits = e.events;
            out.push(Event {
                token: e.data,
                readable: bits & (EPOLLIN | EPOLLRDHUP) != 0,
                writable: bits & EPOLLOUT != 0,
                error: bits & (EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(n)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

/// An `eventfd(2)` wakeup handle: any thread may [`WakeFd::wake`] the
/// reactor; the reactor registers the fd for readability and
/// [`WakeFd::drain`]s it on delivery.
pub struct WakeFd {
    fd: RawFd,
}

impl WakeFd {
    pub fn new() -> io::Result<WakeFd> {
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(WakeFd { fd })
    }

    pub fn raw_fd(&self) -> RawFd {
        self.fd
    }

    /// Signal the reactor. Safe from any thread; saturation (EAGAIN on a
    /// full counter) still leaves the fd readable, so it is ignored.
    pub fn wake(&self) {
        let one: u64 = 1;
        unsafe { write(self.fd, &one as *const u64 as *const c_void, 8) };
    }

    /// Consume all pending wakeups.
    pub fn drain(&self) {
        let mut buf: u64 = 0;
        loop {
            let rc = unsafe { read(self.fd, &mut buf as *mut u64 as *mut c_void, 8) };
            if rc <= 0 {
                break;
            }
        }
    }
}

impl Drop for WakeFd {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

// Safety: the fd is only ever written (wake) or read (drain); both are
// atomic syscalls on an eventfd.
unsafe impl Send for WakeFd {}
unsafe impl Sync for WakeFd {}

/// Block the *calling* thread until `fd` is writable or `timeout`
/// elapses. Used by pool workers that share a reactor-owned nonblocking
/// socket: a short stall waits here instead of spinning.
///
/// Returns `true` if writable, `false` on timeout.
pub fn wait_writable(fd: RawFd, timeout: Duration) -> io::Result<bool> {
    poll_ready(&mut [PollFd { fd, events: POLLOUT, revents: 0 }], timeout)
}

/// Block the *calling* thread until any of `fds` is readable (a listening
/// socket with a connection queued, a raised [`WakeFd`]) or `timeout`
/// elapses — the one wait of a transfer that has no reactor behind it.
///
/// Returns `true` if one is readable, `false` on timeout.
pub fn wait_readable(fds: &[RawFd], timeout: Duration) -> io::Result<bool> {
    let mut pfds: Vec<PollFd> =
        fds.iter().map(|&fd| PollFd { fd, events: POLLIN, revents: 0 }).collect();
    poll_ready(&mut pfds, timeout)
}

/// `poll(2)` with EINTR retried; sub-millisecond timeouts round up so a
/// short remaining deadline still blocks instead of spinning.
fn poll_ready(pfds: &mut [PollFd], timeout: Duration) -> io::Result<bool> {
    let ms = timeout.as_micros().div_ceil(1000).min(i32::MAX as u128) as c_int;
    loop {
        // SAFETY: `pfds` is a live, exclusively borrowed slice of `repr(C)`
        // pollfd records and its exact length is passed alongside.
        let rc = unsafe { poll(pfds.as_mut_ptr(), pfds.len() as u64, ms) };
        if rc >= 0 {
            return Ok(rc > 0);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn wakefd_wakes_epoll() {
        let ep = Epoll::new().unwrap();
        let wake = WakeFd::new().unwrap();
        ep.add(wake.raw_fd(), 7, Interest::READ).unwrap();

        // Nothing pending: a short wait times out.
        let mut evs = Vec::new();
        assert_eq!(ep.wait(&mut evs, Some(Duration::from_millis(10))).unwrap(), 0);

        wake.wake();
        wake.wake();
        let n = ep.wait(&mut evs, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        assert_eq!(evs[0].token, 7);
        assert!(evs[0].readable);
        wake.drain();

        // Drained: back to quiescent.
        evs.clear();
        assert_eq!(ep.wait(&mut evs, Some(Duration::from_millis(10))).unwrap(), 0);
    }

    #[test]
    fn tcp_readability_and_writability() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let ep = Epoll::new().unwrap();
        ep.add(server.as_raw_fd(), 42, Interest::BOTH).unwrap();

        // A fresh socket is writable immediately.
        let mut evs = Vec::new();
        ep.wait(&mut evs, Some(Duration::from_secs(5))).unwrap();
        assert!(evs.iter().any(|e| e.token == 42 && e.writable));

        // Narrow to read interest; nothing to read yet.
        ep.modify(server.as_raw_fd(), 42, Interest::READ).unwrap();
        evs.clear();
        assert_eq!(ep.wait(&mut evs, Some(Duration::from_millis(10))).unwrap(), 0);

        client.write_all(b"ping").unwrap();
        evs.clear();
        ep.wait(&mut evs, Some(Duration::from_secs(5))).unwrap();
        assert!(evs.iter().any(|e| e.token == 42 && e.readable));

        let mut buf = [0u8; 8];
        let n = (&server).read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping");

        ep.delete(server.as_raw_fd()).unwrap();
    }

    #[test]
    fn wait_writable_reports_timeout_and_readiness() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (_server, _) = listener.accept().unwrap();
        // Loopback socket with an empty send buffer: writable at once.
        assert!(wait_writable(client.as_raw_fd(), Duration::from_secs(1)).unwrap());
    }
}
