//! Observability driver: per-message latency histograms for any link.
//!
//! The one link meter: every `send`/`recv` records its duration into
//! log-linear histograms in an [`ig_obs::Obs`] registry
//! (`{label}.send_ns`, `{label}.recv_ns`; their counts are the message
//! counts) plus byte counters (`{label}.bytes_sent`,
//! `{label}.bytes_received`) — this is how DTP block latency reaches
//! `SITE STATS` without threading timing code through the
//! sender/receiver. Push it onto the stack like any other XIO driver.
//!
//! Link open/close emit *unstable* trace events (they happen on worker
//! threads at wall-clock-dependent points, so they stay out of the
//! replay-stable export).

use crate::link::Link;
use ig_obs::{kv, Histogram, Obs};
use std::io;
use std::sync::Arc;
use std::time::Instant;

/// A timing wrapper around any [`Link`], reporting into an [`Obs`] hub.
pub struct ObsLink<L: Link> {
    inner: L,
    obs: Arc<Obs>,
    label: String,
    send_ns: Arc<Histogram>,
    recv_ns: Arc<Histogram>,
    bytes_sent: Arc<ig_obs::Counter>,
    bytes_received: Arc<ig_obs::Counter>,
}

impl<L: Link> ObsLink<L> {
    /// Wrap `inner`; metrics land under `{label}.*` in `obs`'s registry.
    /// Metric handles are resolved once here, so the per-message cost is
    /// two `Instant::now()` calls and a few relaxed atomics.
    pub fn new(inner: L, obs: Arc<Obs>, label: &str) -> Self {
        let send_ns = obs.metrics().histogram(&format!("{label}.send_ns"));
        let recv_ns = obs.metrics().histogram(&format!("{label}.recv_ns"));
        let bytes_sent = obs.metrics().counter(&format!("{label}.bytes_sent"));
        let bytes_received = obs.metrics().counter(&format!("{label}.bytes_received"));
        obs.event_unstable("link.open", vec![kv("label", label)]);
        ObsLink {
            inner,
            obs,
            label: label.to_string(),
            send_ns,
            recv_ns,
            bytes_sent,
            bytes_received,
        }
    }

    /// Unwrap.
    pub fn into_inner(self) -> L {
        self.inner
    }
}

impl<L: Link> Link for ObsLink<L> {
    fn send(&mut self, data: &[u8]) -> io::Result<()> {
        let t0 = Instant::now();
        self.inner.send(data)?;
        self.send_ns.record(t0.elapsed().as_nanos() as u64);
        self.bytes_sent.add(data.len() as u64);
        Ok(())
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        let t0 = Instant::now();
        let msg = self.inner.recv()?;
        self.recv_ns.record(t0.elapsed().as_nanos() as u64);
        self.bytes_received.add(msg.len() as u64);
        Ok(msg)
    }

    fn recv_into(&mut self, buf: &mut Vec<u8>) -> io::Result<usize> {
        let t0 = Instant::now();
        let n = self.inner.recv_into(buf)?;
        self.recv_ns.record(t0.elapsed().as_nanos() as u64);
        self.bytes_received.add(n as u64);
        Ok(n)
    }

    fn send_vectored(&mut self, parts: &[io::IoSlice<'_>]) -> io::Result<()> {
        let t0 = Instant::now();
        self.inner.send_vectored(parts)?;
        self.send_ns.record(t0.elapsed().as_nanos() as u64);
        let total: u64 = parts.iter().map(|p| p.len() as u64).sum();
        self.bytes_sent.add(total);
        Ok(())
    }

    fn close(&mut self) -> io::Result<()> {
        self.obs.event_unstable("link.close", vec![kv("label", self.label.as_str())]);
        self.inner.close()
    }

    fn set_recv_timeout(&mut self, timeout: Option<std::time::Duration>) -> io::Result<()> {
        self.inner.set_recv_timeout(timeout)
    }

    fn set_send_timeout(&mut self, timeout: Option<std::time::Duration>) -> io::Result<()> {
        self.inner.set_send_timeout(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::pipe;

    #[test]
    fn times_and_counts_both_directions() {
        let (a, b) = pipe();
        let obs = Obs::new("xio-test");
        let mut la = ObsLink::new(a, Arc::clone(&obs), "dtp");
        let mut lb = ObsLink::new(b, Arc::clone(&obs), "dtp");
        la.send(&[9u8; 300]).unwrap();
        la.send_vectored(&[io::IoSlice::new(b"ab"), io::IoSlice::new(b"cd")]).unwrap();
        assert_eq!(lb.recv().unwrap().len(), 300);
        let mut buf = Vec::new();
        assert_eq!(lb.recv_into(&mut buf).unwrap(), 4);
        lb.close().unwrap();

        let m = obs.metrics();
        assert_eq!(m.counter_value("dtp.bytes_sent"), 304);
        assert_eq!(m.counter_value("dtp.bytes_received"), 304);
        assert_eq!(m.histogram("dtp.send_ns").count(), 2);
        assert_eq!(m.histogram("dtp.recv_ns").count(), 2);
        assert!(m.histogram("dtp.recv_ns").quantile(0.5) > 0);
        // Lifecycle events are unstable: present in the full export,
        // absent from the replay-stable one.
        assert!(obs.export_full().contains("link.open"));
        assert!(obs.export_full().contains("link.close"));
        assert!(!obs.export_stable().contains("link.open"));
    }

    #[test]
    fn failed_io_records_nothing() {
        let (a, b) = pipe();
        drop(b);
        let obs = Obs::new("xio-test");
        let mut l = ObsLink::new(a, Arc::clone(&obs), "x");
        assert!(l.send(b"lost").is_err());
        assert_eq!(obs.metrics().counter_value("x.bytes_sent"), 0);
        assert_eq!(obs.metrics().histogram("x.send_ns").count(), 0);
    }
}
