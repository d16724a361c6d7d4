//! Token-bucket rate limiting driver.
//!
//! Experiment E5 (striping) needs per-DTP-node bandwidth limits so that
//! adding stripes actually adds capacity, as on a real cluster where each
//! data mover has its own NIC.

use crate::link::Link;
use std::io;
use std::time::{Duration, Instant};

/// A rate-limiting wrapper around any [`Link`].
pub struct Throttle<L: Link> {
    inner: L,
    rate_bytes_per_sec: f64,
    burst_bytes: f64,
    tokens: f64,
    last_refill: Instant,
}

impl<L: Link> Throttle<L> {
    /// Limit `inner` to `rate_bytes_per_sec`, allowing bursts of
    /// `burst_bytes` (burst also bounds the largest single message that
    /// can pass without waiting multiple refill cycles).
    pub fn new(inner: L, rate_bytes_per_sec: f64, burst_bytes: f64) -> Self {
        assert!(rate_bytes_per_sec > 0.0, "rate must be positive");
        assert!(burst_bytes > 0.0, "burst must be positive");
        Throttle {
            inner,
            rate_bytes_per_sec,
            burst_bytes,
            tokens: burst_bytes,
            last_refill: Instant::now(),
        }
    }

    fn refill(&mut self) {
        let now = Instant::now();
        let dt = now.duration_since(self.last_refill).as_secs_f64();
        self.last_refill = now;
        self.tokens = (self.tokens + dt * self.rate_bytes_per_sec).min(self.burst_bytes);
    }

    fn acquire(&mut self, bytes: usize) {
        let mut need = bytes as f64;
        loop {
            self.refill();
            if self.tokens >= need {
                self.tokens -= need;
                return;
            }
            // Large messages may exceed the burst: consume what's there
            // and wait for the rest in bounded chunks.
            let take = self.tokens.max(0.0);
            self.tokens -= take;
            need -= take;
            let wait_s = (need.min(self.burst_bytes) / self.rate_bytes_per_sec).max(0.0005);
            std::thread::sleep(Duration::from_secs_f64(wait_s));
        }
    }

    /// The configured rate.
    pub fn rate(&self) -> f64 {
        self.rate_bytes_per_sec
    }

    /// Unwrap the inner link.
    pub fn into_inner(self) -> L {
        self.inner
    }
}

impl<L: Link> Link for Throttle<L> {
    fn send(&mut self, data: &[u8]) -> io::Result<()> {
        self.acquire(data.len());
        self.inner.send(data)
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        let msg = self.inner.recv()?;
        // Pace the receive path too: delaying the next recv backpressures
        // the sender, modelling an ingress-limited NIC.
        self.acquire(msg.len());
        Ok(msg)
    }

    fn close(&mut self) -> io::Result<()> {
        self.inner.close()
    }

    fn recv_into(&mut self, buf: &mut Vec<u8>) -> io::Result<usize> {
        let n = self.inner.recv_into(buf)?;
        self.acquire(n);
        Ok(n)
    }

    fn send_vectored(&mut self, parts: &[io::IoSlice<'_>]) -> io::Result<()> {
        self.acquire(parts.iter().map(|p| p.len()).sum());
        self.inner.send_vectored(parts)
    }

    fn set_recv_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.set_recv_timeout(timeout)
    }

    fn set_send_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.set_send_timeout(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::pipe;

    #[test]
    fn throttle_enforces_rate() {
        let (a, mut b) = pipe();
        // 1 MB/s, 64 KB burst.
        let mut t = Throttle::new(a, 1_000_000.0, 65_536.0);
        let reader = std::thread::spawn(move || {
            let mut total = 0usize;
            while let Ok(m) = b.recv() {
                total += m.len();
            }
            total
        });
        let payload = vec![0u8; 32 * 1024];
        let start = Instant::now();
        // 512 KB total; at 1 MB/s should take >= ~0.4s (minus the burst).
        for _ in 0..16 {
            t.send(&payload).unwrap();
        }
        let elapsed = start.elapsed().as_secs_f64();
        t.close().unwrap();
        assert_eq!(reader.join().unwrap(), 512 * 1024);
        assert!(elapsed >= 0.35, "sent too fast: {elapsed}s");
        assert!(elapsed < 2.0, "sent too slow: {elapsed}s");
    }

    #[test]
    fn message_larger_than_burst_passes() {
        let (a, mut b) = pipe();
        let mut t = Throttle::new(a, 10_000_000.0, 4096.0);
        let big = vec![1u8; 64 * 1024];
        t.send(&big).unwrap();
        assert_eq!(b.recv().unwrap().len(), 64 * 1024);
    }

    #[test]
    fn recv_is_throttled_too() {
        let (a, mut b) = pipe();
        // 100 KB/s with a 1 KB burst: 20 KB inbound needs ~0.19 s.
        let mut t = Throttle::new(a, 100_000.0, 1_000.0);
        b.send(&vec![0u8; 10_000]).unwrap();
        b.send(&vec![0u8; 10_000]).unwrap();
        let start = Instant::now();
        assert_eq!(t.recv().unwrap().len(), 10_000);
        assert_eq!(t.recv().unwrap().len(), 10_000);
        let elapsed = start.elapsed().as_secs_f64();
        assert!(elapsed >= 0.15, "recv not paced: {elapsed}s");
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        let (a, _b) = pipe();
        let _ = Throttle::new(a, 0.0, 10.0);
    }
}
