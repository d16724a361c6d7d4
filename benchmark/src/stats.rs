//! Order statistics, process clocks and memory, and the `SITE STATS` reader.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Mean of the middle half of `values`: the samples between the first and the
/// third quartile. Unlike a mean it ignores the few operations a noisy host
/// stalls; unlike a median it moves smoothly when operation times sit on a grid
/// (the server's 50 ms completion poll), because it averages over the grid steps
/// the middle half spans.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "interquartile mean of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// The highest percentile that still has at least ten samples beyond it, as
/// `(percentile, value)`. With eleven samples or fewer that is the smallest one.
pub fn tail(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "tail of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = sorted.len().saturating_sub(11);
    (100.0 * (idx + 1) as f64 / sorted.len() as f64, sorted[idx])
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("igbench reads Linux process clocks and /proc; it runs on 64-bit Linux only");

#[cfg(not(target_env = "gnu"))]
compile_error!("igbench configures glibc's malloc; build it for a -gnu target");

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

const M_TRIM_THRESHOLD: i32 = -1;
const M_MMAP_MAX: i32 = -4;
const M_ARENA_MAX: i32 = -8;

/// Make glibc's malloc keep what the program frees: no `mmap` for large blocks,
/// no trimming of the heap top, and one arena, because a thread's own arena
/// falls back to `mmap` for anything over its 64 MiB heaps whatever
/// `M_MMAP_MAX` says (measured: without it the 650 to 2600 ms below come back).
/// Call it first thing in `main`.
///
/// Every bulk operation allocates and frees buffers of the file's size. By
/// default each is a fresh `mmap`, and the virtual machines this runs on hand
/// freed guest pages back to their host (a virtio balloon with free-page
/// reporting), so the first touch of a fresh page is a fault in the host:
/// identical 384 MiB operations took 650 to 2600 ms, against 400 ms with the
/// heap retained. That cost is the host's, not the program's, and it is random.
/// What the gate no longer sees is the kernel's own fault and zeroing time for
/// fresh memory; the bytes and blocks the program asks for are counted exactly
/// by [`CountingAlloc`] instead. See `CALIBRATION.md`, "The allocator".
pub fn retain_freed_memory() {
    // SAFETY: `mallopt` is the glibc function std already links (the
    // `compile_error!` above requires glibc); it takes two integers and changes
    // allocator parameters only, which any thread may do at any time.
    let accepted = unsafe {
        mallopt(M_ARENA_MAX, 1) == 1
            && mallopt(M_MMAP_MAX, 0) == 1
            && mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1
    };
    assert!(accepted, "glibc refused a malloc parameter");
}

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator with two counters beside it: blocks requested and
/// bytes requested (a `realloc` counts as one block and the bytes it grows by).
/// `main.rs` installs it, so the counts cover client and server alike. They
/// are what shows a file-sized buffer that a change adds to, or removes from,
/// an operation, which the retained heap (above) makes nearly free in time.
pub struct CountingAlloc;

fn count(bytes: usize) {
    // Relaxed: statistics only, read after the threads that allocate have been joined
    // or are idle.
    ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// `(blocks, bytes)` requested from the allocator so far, by every thread.
/// Both stay 0 in a binary that does not install [`CountingAlloc`].
pub fn allocated() -> (u64, u64) {
    (
        ALLOC_CALLS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock_id: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the libc function std already links; `ts` is a
    // valid, writable `struct timespec` (two 64-bit fields on 64-bit Linux, which
    // the `compile_error!` above enforces) that outlives the call.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time consumed so far by every thread of this process, user plus system.
/// Client and server share the process, so a delta is whole-path CPU.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed so far by the calling thread.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// One `SITE STATS` reply: the registry snapshot the server prints as JSON.
///
/// The registry writes `"name":number` for counters and
/// `"name":{"count":..,"sum":..,..,"p50":..}` for histograms, with names in
/// sorted order and no whitespace, so two string searches find any number.
pub struct SiteStats(pub String);

impl SiteStats {
    fn number_after(&self, from: usize) -> Option<u64> {
        let rest = &self.0[from..];
        let end = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        rest[..end].parse().ok()
    }

    /// Value of counter `name`; 0 when the program has not created it yet.
    pub fn counter(&self, name: &str) -> u64 {
        let key = format!("\"{name}\":");
        self.0
            .find(&key)
            .and_then(|at| self.number_after(at + key.len()))
            .unwrap_or(0)
    }

    /// `field` (`count`, `sum`, `p50`, ..) of histogram `name`; 0 when absent.
    pub fn histogram(&self, name: &str, field: &str) -> u64 {
        let key = format!("\"{name}\":{{");
        let Some(start) = self.0.find(&key).map(|at| at + key.len()) else {
            return 0;
        };
        let body = &self.0[start..];
        let body = &body[..body.find('}').unwrap_or(body.len())];
        let field_key = format!("\"{field}\":");
        body.find(&field_key)
            .and_then(|at| self.number_after(start + at + field_key.len()))
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail_follow_their_definitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(
            interquartile_mean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]),
            3.5
        );
        assert_eq!(interquartile_mean(&[2.0, 4.0]), 3.0);
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(
            tail(&values),
            (90.0, 90.0),
            "ten samples lie beyond the 90th"
        );
        assert_eq!(tail(&[5.0, 7.0]), (50.0, 5.0));
    }

    #[test]
    fn site_stats_numbers_are_found_by_name() {
        let stats = SiteStats(
            "{\"metrics\":{\"counters\":{\"server.commands\":133,\"server.commands_x\":7},\
             \"histograms\":{\"gsi.seal_ns\":{\"count\":16970,\"sum\":2472568770,\"p50\":5247}}}}"
                .into(),
        );
        assert_eq!(stats.counter("server.commands"), 133);
        assert_eq!(stats.counter("absent"), 0);
        assert_eq!(stats.histogram("gsi.seal_ns", "sum"), 2_472_568_770);
        assert_eq!(stats.histogram("gsi.seal_ns", "p50"), 5247);
        assert_eq!(stats.histogram("gsi.open_ns", "sum"), 0);
    }

    #[test]
    fn process_clocks_advance_with_work() {
        let (p0, t0) = (process_cpu(), thread_cpu());
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu() > p0 && thread_cpu() > t0);
        assert!(peak_rss_mib() > 0.5);
    }
}
