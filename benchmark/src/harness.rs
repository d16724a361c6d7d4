//! One GCMU endpoint and one closed-loop client in this process, over real
//! loopback TCP: set-up, one verified operation, and the timed window.
//!
//! Closed loop, one client: the next operation is issued only after the
//! previous one returned and its output was compared with the input.

use crate::stats::{allocated, process_cpu, SiteStats};
use crate::trace::{self, SpanId, Tracer};
use crate::workload::{Direction, Workload};
use ig_client::{transfer, ClientSession, TransferOpts};
use ig_gcmu::{GcmuEndpoint, InstallOptions};
use ig_pki::time::Clock;
use ig_protocol::Command;
use ig_server::UserContext;
use std::time::{Duration, Instant};

const USER: &str = "alice";
const PASSWORD: &str = "correct horse";
/// The fixed clock every component runs on, so certificate validity never
/// depends on the wall clock.
const NOW: u64 = 1_700_000_000;
/// Chunk in which an uploaded file is read back for comparison: small enough
/// that verification adds nothing to the peak resident set.
const VERIFY_CHUNK: usize = 4 << 20;

pub type Error = Box<dyn std::error::Error + Send + Sync>;
pub type Result<T> = std::result::Result<T, Error>;

/// splitmix64: the harness's own generator, so inputs depend on the seed alone.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

/// What a workload reads and writes, a pure function of `(workload, seed)`.
pub struct Inputs {
    pub paths: Vec<String>,
    pub payloads: Vec<Vec<u8>>,
    /// File fetched by operation `i` is `order[i % order.len()]`.
    pub order: Vec<usize>,
}

impl Inputs {
    pub fn generate(w: &Workload, seed: u64) -> Inputs {
        let mut rng = SplitMix(seed ^ 0x1657_4654_5042_454E);
        let per_dir = w.files.div_ceil(w.dirs);
        let mut paths = Vec::with_capacity(w.files);
        let mut payloads = Vec::with_capacity(w.files);
        for i in 0..w.files {
            paths.push(if w.is_bulk() {
                format!("/home/{USER}/bulk.bin")
            } else {
                format!("/home/{USER}/d{:02}/f{:03}.bin", i / per_dir, i)
            });
            let mut data = vec![0u8; w.file_bytes];
            rng.fill(&mut data);
            payloads.push(data);
        }
        let mut order: Vec<usize> = (0..w.files).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        Inputs {
            paths,
            payloads,
            order,
        }
    }

    fn file_for(&self, op: u64) -> usize {
        self.order[(op % self.order.len() as u64) as usize]
    }

    /// Path that operation `op` reads or writes.
    pub fn path_for(&self, op: u64) -> &str {
        &self.paths[self.file_for(op)]
    }
}

/// Seconds spent in each phase of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub install_s: f64,
    pub stage_s: f64,
    pub logon_s: f64,
    pub connect_login_s: f64,
    pub negotiate_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.install_s + self.stage_s + self.logon_s + self.connect_login_s + self.negotiate_s
    }
}

/// One timed operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub wall: Duration,
    /// Process CPU (client and server threads) over the same span as `wall`.
    pub cpu: Duration,
    /// Blocks and bytes every thread asked the allocator for over that span
    /// (0 unless the binary installs `stats::CountingAlloc`).
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Did the output match the input byte for byte?
    pub ok: bool,
    pub traced: bool,
}

/// A live endpoint with one logged-in session, ready for its first operation.
pub struct Rig {
    pub ep: GcmuEndpoint,
    session: ClientSession,
    opts: TransferOpts,
    superuser: UserContext,
}

fn timed<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    parent: Option<SpanId>,
    f: impl FnOnce() -> Result<T>,
) -> Result<(T, f64)> {
    let span = trace::begin(tracer, name, parent, None);
    let t0 = Instant::now();
    let out = f();
    let secs = t0.elapsed().as_secs_f64();
    trace::end(tracer, span);
    Ok((out?, secs))
}

impl Rig {
    /// Workload start to ready for the first operation: install the endpoint,
    /// stage what a GET will read, log on through MyProxy, connect, log in and
    /// negotiate protection, mode and parallelism.
    pub fn setup(
        w: &Workload,
        inputs: &Inputs,
        seed: u64,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<(Rig, SetupTimes)> {
        let root = trace::begin(&mut tracer, "setup", None, None);
        let superuser = UserContext::superuser();
        let (ep, install_s) = timed(&mut tracer, "core.install", root, || {
            Ok(InstallOptions::new("bench.example.org")
                .account(USER, PASSWORD)
                .clock(Clock::Fixed(NOW))
                .seed(seed)
                .install()?)
        })?;
        let ((), stage_s) = timed(&mut tracer, "server.dsi.stage", root, || {
            if w.direction == Direction::Get {
                for (path, data) in inputs.paths.iter().zip(&inputs.payloads) {
                    let (dir, _) = path.rsplit_once('/').expect("absolute path");
                    if !ep.dsi.exists(&superuser, dir) {
                        ep.dsi.mkdir(&superuser, dir)?;
                    }
                    ep.dsi.write(&superuser, path, 0, data)?;
                }
            }
            Ok(())
        })?;
        let (logon, logon_s) = timed(&mut tracer, "myproxy.logon", root, || {
            Ok(ep.logon(USER, PASSWORD, 3600, seed.wrapping_add(1))?)
        })?;
        let (mut session, connect_login_s) =
            timed(&mut tracer, "client.connect_login", root, || {
                let config = ep.client_config(&logon, seed.wrapping_add(2));
                let mut session = ClientSession::connect(ep.gridftp_addr(), config)?;
                session.login()?;
                Ok(session)
            })?;
        let ((), negotiate_s) = timed(&mut tracer, "client.negotiate", root, || {
            session.set_prot(w.prot)?;
            session.set_mode_extended()?;
            session.set_parallelism(w.parallelism)?;
            Ok(())
        })?;
        trace::end(&mut tracer, root);
        let opts = TransferOpts::default()
            .parallel(w.parallelism)
            .block(w.block_bytes);
        let times = SetupTimes {
            install_s,
            stage_s,
            logon_s,
            connect_login_s,
            negotiate_s,
        };
        Ok((
            Rig {
                ep,
                session,
                opts,
                superuser,
            },
            times,
        ))
    }

    /// Log out, release the staged files and stop the endpoint's listeners.
    pub fn teardown(self, inputs: &Inputs) {
        let _ = self.session.quit();
        for path in &inputs.paths {
            let _ = self.ep.dsi.delete(&self.superuser, path);
        }
        self.ep.shutdown();
    }

    /// The registry snapshot the server prints for `SITE STATS`.
    pub fn site_stats(&mut self) -> Result<SiteStats> {
        let reply = self.session.command(&Command::Site("STATS".into()))?;
        Ok(SiteStats(reply.text().to_string()))
    }

    /// Median round trip of `n` `NOOP` commands, in microseconds.
    pub fn noop_rtt_us(&mut self, n: usize) -> Result<f64> {
        let mut rtts = Vec::with_capacity(n);
        for _ in 0..n {
            let t0 = Instant::now();
            self.session.command(&Command::Noop)?;
            rtts.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        Ok(crate::stats::median(&rtts))
    }

    /// Overwrite one byte of a staged file, so that fetching it must be
    /// reported as a failed operation.
    pub fn corrupt_staged(&self, path: &str) -> Result<()> {
        let byte = self.ep.dsi.read(&self.superuser, path, 0, 1)?;
        self.ep.dsi.write(&self.superuser, path, 0, &[!byte[0]])?;
        Ok(())
    }

    /// Does the server hold exactly `want` at `path`? Compared chunk by chunk.
    fn stored_equals(&self, path: &str, want: &[u8]) -> bool {
        if self.ep.dsi.size(&self.superuser, path).ok() != Some(want.len() as u64) {
            return false;
        }
        want.chunks(VERIFY_CHUNK).enumerate().all(|(i, chunk)| {
            let offset = (i * VERIFY_CHUNK) as u64;
            self.ep
                .dsi
                .read(&self.superuser, path, offset, chunk.len())
                .is_ok_and(|got| got == chunk)
        })
    }

    /// Run operation number `op` and compare its output byte for byte. Only the
    /// client API call is inside the timed span.
    pub fn run_op(
        &mut self,
        inputs: &mut Inputs,
        w: &Workload,
        op: u64,
        mut tracer: Option<&mut Tracer>,
    ) -> Sample {
        let file = inputs.file_for(op);
        let path = inputs.paths[file].as_str();
        let op_span = trace::begin(&mut tracer, "op", None, Some(op));
        let call_name = match w.direction {
            Direction::Get => "client.get_bytes",
            Direction::Put => "client.put_bytes",
        };
        if w.direction == Direction::Put {
            // Make every upload distinct, so a stale file cannot pass for this one.
            let payload = &mut inputs.payloads[file];
            let stamp = op.to_le_bytes();
            let last = payload.len() - stamp.len();
            for at in [0, last / 2, last] {
                payload[at..at + stamp.len()].copy_from_slice(&stamp);
            }
        }
        let payload = inputs.payloads[file].as_slice();
        let call_span = trace::begin(&mut tracer, call_name, op_span, Some(op));
        let (alloc0, cpu0, t0) = (allocated(), process_cpu(), Instant::now());
        let outcome = match w.direction {
            Direction::Get => transfer::get_bytes(&mut self.session, path, &self.opts).map(Some),
            Direction::Put => {
                transfer::put_bytes(&mut self.session, path, payload, &self.opts).map(|_| None)
            }
        };
        let (wall, cpu) = (t0.elapsed(), process_cpu().saturating_sub(cpu0));
        let alloc1 = allocated();
        trace::end(&mut tracer, call_span);
        let verify_span = trace::begin(&mut tracer, "verify", op_span, Some(op));
        let ok = match outcome {
            Ok(Some(received)) => received == payload,
            Ok(None) => {
                let ok = self.stored_equals(path, payload);
                let _ = self.ep.dsi.delete(&self.superuser, path);
                ok
            }
            Err(e) => {
                eprintln!("igbench: operation {op} on {path} failed: {e}");
                false
            }
        };
        trace::end(&mut tracer, verify_span);
        trace::end(&mut tracer, op_span);
        Sample {
            wall,
            cpu,
            allocs: alloc1.0 - alloc0.0,
            alloc_bytes: alloc1.1 - alloc0.1,
            ok,
            traced: tracer.is_some(),
        }
    }

    /// Operations `first_op..` back to back until `seconds` have passed; the
    /// operation in flight then is the last. With a tracer, every second
    /// operation records spans, so traced and untraced operations share the
    /// same conditions.
    pub fn run_window(
        &mut self,
        inputs: &mut Inputs,
        w: &Workload,
        first_op: u64,
        seconds: f64,
        mut tracer: Option<&mut Tracer>,
    ) -> Vec<Sample> {
        let mut samples = Vec::new();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            let n = samples.len();
            let op_tracer = if n % 2 == 1 {
                tracer.as_deref_mut()
            } else {
                None
            };
            samples.push(self.run_op(inputs, w, first_op + n as u64, op_tracer));
        }
        samples
    }
}
