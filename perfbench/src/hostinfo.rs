//! Readings that tell a slow period on the host apart from a slower
//! program: a fixed CPU loop timed at the start and end of each run,
//! the machine's steal time, and the process's peak resident memory.

use std::time::Instant;

/// Wall time in ms of a fixed, allocation-free integer and float loop
/// (about 10 ms on a 2020s x86 core). Its work never changes, so a
/// higher reading means a slower host, not a slower program.
pub fn calib_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = std::hint::black_box(0x1234_5678_9abc_def0u64);
    let mut acc = 0.0f64;
    for i in 0..4_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += (x >> 40) as f64 * 1e-9 + i as f64 * 1e-12;
    }
    std::hint::black_box((x, acc));
    t0.elapsed().as_secs_f64() * 1e3
}

/// Cumulative steal ticks of all CPUs (`/proc/stat`, 8th field of the
/// `cpu` line); `None` where the file is unavailable.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// Peak resident set size (`VmHWM`) of this process in MiB; `None`
/// where `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
