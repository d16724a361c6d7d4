//! Auto-tuning: "Globus Online also has the ability to automatically
//! tune GridFTP transfer options for high performance" (§VI-A).
//!
//! The heuristic mirrors the published Globus Online behaviour in shape:
//! small files get no parallelism (stream setup dominates), mid-size
//! files get moderate parallelism, large files get aggressive
//! parallelism and bigger blocks.

use ig_client::TransferOpts;

/// Pick transfer options for a file of `size` bytes.
pub fn tune(size: u64) -> TransferOpts {
    let (parallelism, block) = match size {
        0..=1_048_575 => (1, 64 * 1024),                  // < 1 MiB
        1_048_576..=104_857_599 => (4, 256 * 1024),       // 1 MiB .. 100 MiB
        _ => (8, 1024 * 1024),                            // >= 100 MiB
    };
    TransferOpts::default().parallel(parallelism).block(block)
}

/// Concurrency (simultaneous files) for a batch of `files` files with
/// mean size `mean_size` — lots-of-small-files batches get concurrency
/// instead of per-file parallelism (the §II optimization split).
pub fn tune_concurrency(files: usize, mean_size: u64) -> usize {
    if files <= 1 {
        return 1;
    }
    if mean_size < 1_048_576 {
        files.min(8)
    } else {
        files.min(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_files_single_stream() {
        assert_eq!(tune(10_000).parallelism, 1);
        assert_eq!(tune(1_048_575).parallelism, 1);
    }

    #[test]
    fn medium_files_moderate() {
        assert_eq!(tune(1_048_576).parallelism, 4);
        assert_eq!(tune(50 << 20).parallelism, 4);
    }

    #[test]
    fn large_files_aggressive() {
        let opts = tune(1 << 30);
        assert_eq!(opts.parallelism, 8);
        assert_eq!(opts.block_size, 1024 * 1024);
    }

    #[test]
    fn concurrency_heuristic() {
        assert_eq!(tune_concurrency(1, 1000), 1);
        assert_eq!(tune_concurrency(100, 4096), 8);
        assert_eq!(tune_concurrency(3, 4096), 3);
        assert_eq!(tune_concurrency(100, 10 << 20), 4);
    }
}
