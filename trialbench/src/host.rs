//! Facts about the host a run executed on. They are recorded next to the
//! results so drift between runs can be seen, and no metric is ever divided
//! by them.

use std::hint::black_box;
use std::time::Instant;

/// Threads the host can run at once.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Times a fixed, allocation-free integer loop (a splitmix64 chain), in
/// milliseconds. Taken at the start and end of a run, it shows how fast
/// the host ran while the run measured.
pub fn reference_loop_ms() -> f64 {
    const STEPS: u64 = 1 << 22;
    let start = Instant::now();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    for _ in 0..STEPS {
        x = crate::splitmix64(x);
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}
