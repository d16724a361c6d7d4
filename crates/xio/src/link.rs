//! The `Link` trait and its two base transports.

use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

/// Maximum frame size accepted from the wire (16 MiB + sealing overhead).
pub const MAX_FRAME: usize = 16 * 1024 * 1024 + 64;

/// A blocking, message-oriented, bidirectional transport.
///
/// GridFTP's MODE E data channel is block-structured, so a message
/// abstraction (rather than a byte stream) is the natural driver
/// interface; stream transports add 4-byte length framing underneath.
///
/// The zero-copy data plane uses two extension methods: [`Link::recv_into`]
/// receives into a caller-owned buffer (reused across blocks, so the
/// steady-state receive loop does not allocate) and [`Link::send_vectored`]
/// gathers a message from multiple segments (frame header + payload slice)
/// without concatenating them first. Both have default implementations in
/// terms of `recv`/`send`, so existing transports keep working; transports
/// that can do better (TCP) override them.
pub trait Link: Send {
    /// Send one message.
    fn send(&mut self, data: &[u8]) -> io::Result<()>;
    /// Receive one message; `UnexpectedEof` when the peer closed.
    fn recv(&mut self) -> io::Result<Vec<u8>>;
    /// Close the transport (idempotent).
    fn close(&mut self) -> io::Result<()>;

    /// Receive one message into `buf`, returning its length. `buf` is
    /// cleared first; its capacity is reused, so a steady-state receive
    /// loop over same-sized messages performs no allocations.
    ///
    /// The default implementation delegates to [`Link::recv`] and copies.
    fn recv_into(&mut self, buf: &mut Vec<u8>) -> io::Result<usize> {
        let msg = self.recv()?;
        buf.clear();
        buf.extend_from_slice(&msg);
        Ok(buf.len())
    }

    /// Send one message gathered from `parts` (they form a single frame
    /// on the wire, exactly as if concatenated).
    ///
    /// The default implementation concatenates into a scratch `Vec` and
    /// delegates to [`Link::send`].
    fn send_vectored(&mut self, parts: &[IoSlice<'_>]) -> io::Result<()> {
        let total: usize = parts.iter().map(|p| p.len()).sum();
        let mut joined = Vec::with_capacity(total);
        for part in parts {
            joined.extend_from_slice(part);
        }
        self.send(&joined)
    }

    /// Bound how long a single `recv`/`recv_into` may block; a blocked
    /// receive then fails with [`io::ErrorKind::TimedOut`] instead of
    /// hanging on a partitioned peer. `None` restores "wait forever".
    ///
    /// The default implementation ignores the deadline (drivers that
    /// cannot time out simply keep their legacy blocking behaviour);
    /// wrapper drivers must forward it to the transport they stack on.
    fn set_recv_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        let _ = timeout;
        Ok(())
    }

    /// The same bound for a single `send`/`send_vectored`: a peer that
    /// keeps the connection open without reading fails the blocked send
    /// with [`io::ErrorKind::TimedOut`]. Same default and forwarding rule
    /// as [`Link::set_recv_timeout`].
    fn set_send_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        let _ = timeout;
        Ok(())
    }

    /// Would a `send` right now have to wait for the peer to read? Asked
    /// before composing a message that is worth sending only if it costs
    /// no wait (an advisory progress marker). A transport that cannot tell
    /// says `false`: its sends go out and block as they always did.
    fn send_would_block(&self) -> bool {
        false
    }
}

impl<L: Link + ?Sized> Link for Box<L> {
    fn send(&mut self, data: &[u8]) -> io::Result<()> {
        (**self).send(data)
    }
    fn recv(&mut self) -> io::Result<Vec<u8>> {
        (**self).recv()
    }
    fn close(&mut self) -> io::Result<()> {
        (**self).close()
    }
    fn recv_into(&mut self, buf: &mut Vec<u8>) -> io::Result<usize> {
        (**self).recv_into(buf)
    }
    fn send_vectored(&mut self, parts: &[IoSlice<'_>]) -> io::Result<()> {
        (**self).send_vectored(parts)
    }
    fn set_recv_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        (**self).set_recv_timeout(timeout)
    }
    fn set_send_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        (**self).set_send_timeout(timeout)
    }
    fn send_would_block(&self) -> bool {
        (**self).send_would_block()
    }
}

// ---------------------------------------------------------------------------
// In-process pipe
// ---------------------------------------------------------------------------

/// One end of an in-process message pipe.
pub struct PipeLink {
    tx: Option<mpsc::SyncSender<Vec<u8>>>,
    rx: mpsc::Receiver<Vec<u8>>,
    recv_timeout: Option<Duration>,
}

/// Create a connected pair of pipe links. The channel is bounded so a
/// fast sender experiences backpressure like a real socket buffer.
pub fn pipe() -> (PipeLink, PipeLink) {
    let (tx_a, rx_a) = mpsc::sync_channel(64);
    let (tx_b, rx_b) = mpsc::sync_channel(64);
    (
        PipeLink { tx: Some(tx_a), rx: rx_b, recv_timeout: None },
        PipeLink { tx: Some(tx_b), rx: rx_a, recv_timeout: None },
    )
}

impl Link for PipeLink {
    fn send(&mut self, data: &[u8]) -> io::Result<()> {
        match &self.tx {
            Some(tx) => tx
                .send(data.to_vec())
                .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "pipe peer closed")),
            None => Err(io::Error::new(io::ErrorKind::BrokenPipe, "pipe closed locally")),
        }
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        match self.recv_timeout {
            None => self
                .rx
                .recv()
                .map_err(|_| io::Error::new(io::ErrorKind::UnexpectedEof, "pipe peer closed")),
            Some(t) => self.rx.recv_timeout(t).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => {
                    io::Error::new(io::ErrorKind::TimedOut, "pipe recv timed out")
                }
                mpsc::RecvTimeoutError::Disconnected => {
                    io::Error::new(io::ErrorKind::UnexpectedEof, "pipe peer closed")
                }
            }),
        }
    }

    fn close(&mut self) -> io::Result<()> {
        self.tx = None;
        Ok(())
    }

    fn recv_into(&mut self, buf: &mut Vec<u8>) -> io::Result<usize> {
        // The channel hands over an owned Vec; moving it into `buf` avoids
        // the default implementation's copy.
        *buf = self.recv()?;
        Ok(buf.len())
    }

    fn set_recv_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.recv_timeout = timeout;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// TCP with length framing
// ---------------------------------------------------------------------------

/// Most segments one [`TcpLink`] frame is gathered from (MODE E sends
/// two: block header and payload slice).
const MAX_PARTS: usize = 3;

/// A TCP stream carrying length-framed messages.
pub struct TcpLink {
    stream: TcpStream,
    closed: bool,
}

impl TcpLink {
    /// Wrap a connected stream.
    pub fn new(stream: TcpStream) -> Self {
        // Nagle hurts small control messages badly; GridFTP disables it.
        let _ = stream.set_nodelay(true);
        TcpLink { stream, closed: false }
    }

    /// Connect to an address.
    pub fn connect<A: std::net::ToSocketAddrs>(addr: A) -> io::Result<Self> {
        Ok(Self::new(TcpStream::connect(addr)?))
    }

    /// The underlying stream (e.g. for peer-address logging).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }
}

/// Put `parts` on `stream` as one length-framed message: the framer
/// behind [`TcpLink`] and behind every other writer of the same wire
/// format (the server's reactor writes control replies through a
/// borrowed, nonblocking fd). `blocked` says what a `WouldBlock` means
/// to the caller: return `Ok` once the socket is writable again to go
/// on, or the error that ends the send.
///
/// One frame on the wire, and one `writev` to put it there: length
/// prefix, then each segment in order, no concatenation buffer. A frame
/// that goes out whole cannot have its tail refused by a peer that
/// closed on reading its head, so whether a short transfer's sender sees
/// the receiver give up does not depend on scheduling.
pub fn write_frame(
    mut stream: &TcpStream,
    parts: &[IoSlice<'_>],
    mut blocked: impl FnMut() -> io::Result<()>,
) -> io::Result<()> {
    let total: usize = parts.iter().map(|p| p.len()).sum();
    if total > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {total} bytes exceeds maximum"),
        ));
    }
    if parts.len() > MAX_PARTS {
        let mut joined = Vec::with_capacity(total);
        parts.iter().for_each(|p| joined.extend_from_slice(p));
        return write_frame(stream, &[IoSlice::new(&joined)], blocked);
    }
    let prefix = (total as u32).to_be_bytes();
    let mut frame = [IoSlice::new(&prefix); MAX_PARTS + 1];
    frame[1..=parts.len()].copy_from_slice(parts);
    let mut left = &mut frame[..=parts.len()];
    while !left.is_empty() {
        match stream.write_vectored(left) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut left, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => blocked()?,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Normalize a deadline failure: non-blocking sockets report
/// `WouldBlock` on some platforms where others report `TimedOut`.
fn map_timeout(e: io::Error) -> io::Error {
    if e.kind() == io::ErrorKind::WouldBlock {
        io::Error::new(io::ErrorKind::TimedOut, "tcp deadline passed")
    } else {
        e
    }
}

impl Link for TcpLink {
    fn send(&mut self, data: &[u8]) -> io::Result<()> {
        self.send_vectored(&[IoSlice::new(data)])
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        let mut buf = Vec::new();
        self.recv_into(&mut buf)?;
        Ok(buf)
    }

    fn recv_into(&mut self, buf: &mut Vec<u8>) -> io::Result<usize> {
        let mut len_buf = [0u8; 4];
        self.stream.read_exact(&mut len_buf).map_err(map_timeout)?;
        let len = u32::from_be_bytes(len_buf) as usize;
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame of {len} bytes exceeds maximum"),
            ));
        }
        buf.clear();
        buf.resize(len, 0);
        self.stream.read_exact(buf).map_err(map_timeout)?;
        Ok(len)
    }

    fn set_recv_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    fn set_send_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_write_timeout(timeout)
    }

    fn send_vectored(&mut self, parts: &[IoSlice<'_>]) -> io::Result<()> {
        // A blocking socket only reports `WouldBlock` when its send
        // deadline (`set_send_timeout`) passed.
        write_frame(&self.stream, parts, || {
            Err(io::Error::new(io::ErrorKind::TimedOut, "tcp deadline passed"))
        })
    }

    fn close(&mut self) -> io::Result<()> {
        if !self.closed {
            self.closed = true;
            // Ignore NotConnected: peer may have shut down first.
            match self.stream.shutdown(Shutdown::Both) {
                Err(e) if e.kind() != io::ErrorKind::NotConnected => return Err(e),
                _ => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn pipe_roundtrip() {
        let (mut a, mut b) = pipe();
        a.send(b"hello").unwrap();
        a.send(b"world").unwrap();
        assert_eq!(b.recv().unwrap(), b"hello");
        assert_eq!(b.recv().unwrap(), b"world");
        b.send(b"reply").unwrap();
        assert_eq!(a.recv().unwrap(), b"reply");
    }

    #[test]
    fn pipe_close_gives_eof() {
        let (mut a, mut b) = pipe();
        a.send(b"last").unwrap();
        a.close().unwrap();
        assert_eq!(b.recv().unwrap(), b"last");
        assert_eq!(b.recv().unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(a.send(b"x").unwrap_err().kind(), io::ErrorKind::BrokenPipe);
        // close is idempotent
        a.close().unwrap();
    }

    #[test]
    fn pipe_send_after_peer_drop_fails() {
        let (mut a, b) = pipe();
        drop(b);
        assert!(a.send(b"x").is_err());
    }

    #[test]
    fn tcp_roundtrip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            let mut link = TcpLink::new(s);
            let msg = link.recv().unwrap();
            link.send(&msg).unwrap(); // echo
            let empty = link.recv().unwrap();
            assert!(empty.is_empty());
            link.send(b"done").unwrap();
        });
        let mut link = TcpLink::connect(addr).unwrap();
        link.send(b"echo me").unwrap();
        assert_eq!(link.recv().unwrap(), b"echo me");
        link.send(b"").unwrap();
        assert_eq!(link.recv().unwrap(), b"done");
        link.close().unwrap();
        link.close().unwrap(); // idempotent
        server.join().unwrap();
    }

    #[test]
    fn tcp_peer_close_gives_eof() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            drop(s);
        });
        let mut link = TcpLink::connect(addr).unwrap();
        server.join().unwrap();
        assert!(link.recv().is_err());
    }

    #[test]
    fn oversized_frame_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            // Claim a bogus gigantic frame.
            s.write_all(&u32::MAX.to_be_bytes()).unwrap();
        });
        let mut link = TcpLink::connect(addr).unwrap();
        t.join().unwrap();
        assert_eq!(link.recv().unwrap_err().kind(), io::ErrorKind::InvalidData);
        let big = vec![0u8; MAX_FRAME + 1];
        assert_eq!(link.send(&big).unwrap_err().kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn pipe_recv_timeout_yields_timed_out() {
        let (_a, mut b) = pipe();
        b.set_recv_timeout(Some(Duration::from_millis(20))).unwrap();
        assert_eq!(b.recv().unwrap_err().kind(), io::ErrorKind::TimedOut);
        // Clearing the deadline restores blocking behaviour; peer close
        // still surfaces as EOF, not a timeout.
        let (a2, mut b2) = pipe();
        b2.set_recv_timeout(Some(Duration::from_millis(20))).unwrap();
        drop(a2);
        assert_eq!(b2.recv().unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn tcp_recv_timeout_yields_timed_out() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = std::thread::spawn(move || listener.accept().map(|(s, _)| s));
        let mut link = TcpLink::connect(addr).unwrap();
        link.set_recv_timeout(Some(Duration::from_millis(30))).unwrap();
        let err = link.recv().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
        drop(hold.join().unwrap().unwrap());
    }

    #[test]
    fn boxed_link_works() {
        let (a, mut b) = pipe();
        let mut boxed: Box<dyn Link> = Box::new(a);
        boxed.send(b"via box").unwrap();
        assert_eq!(b.recv().unwrap(), b"via box");
        boxed.close().unwrap();
    }

    #[test]
    fn recv_into_reuses_buffer() {
        let (mut a, mut b) = pipe();
        let mut buf = Vec::new();
        a.send(b"first message").unwrap();
        assert_eq!(b.recv_into(&mut buf).unwrap(), 13);
        assert_eq!(&buf, b"first message");
        // A shorter message must fully replace the previous contents.
        a.send(b"2nd").unwrap();
        assert_eq!(b.recv_into(&mut buf).unwrap(), 3);
        assert_eq!(&buf, b"2nd");
    }

    #[test]
    fn send_vectored_matches_concatenated() {
        let (mut a, mut b) = pipe();
        a.send_vectored(&[
            IoSlice::new(b"head"),
            IoSlice::new(b""),
            IoSlice::new(b"-body"),
        ])
        .unwrap();
        assert_eq!(b.recv().unwrap(), b"head-body");
    }

    #[test]
    fn tcp_vectored_and_recv_into_roundtrip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            let mut link = TcpLink::new(s);
            let mut buf = Vec::new();
            let n = link.recv_into(&mut buf).unwrap();
            assert_eq!(n, buf.len());
            link.send(&buf).unwrap(); // echo
            let n = link.recv_into(&mut buf).unwrap();
            assert_eq!(n, 0);
            assert!(buf.is_empty());
        });
        let mut link = TcpLink::connect(addr).unwrap();
        link.send_vectored(&[IoSlice::new(b"hdr|"), IoSlice::new(b"payload")])
            .unwrap();
        assert_eq!(link.recv().unwrap(), b"hdr|payload");
        link.send_vectored(&[]).unwrap();
        server.join().unwrap();
    }

    #[test]
    fn tcp_vectored_oversize_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _keep = std::thread::spawn(move || {
            let _ = listener.accept();
        });
        let mut link = TcpLink::connect(addr).unwrap();
        let big = vec![0u8; MAX_FRAME];
        let err = link
            .send_vectored(&[IoSlice::new(&big), IoSlice::new(b"x")])
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
