//! Host and process probes read from `/proc`, with no `unsafe`: thread CPU
//! time, peak resident set, and the host stamp every result carries.

use crate::stats::{obj, text, Value};

/// CPU time the calling thread has run, in nanoseconds (first field of
/// `/proc/thread-self/schedstat`); `0` where the file is unavailable.
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Resets the process's peak-RSS mark (`VmHWM`) to its current RSS.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size since the last reset, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Where a result was measured: machine, SIMD kernel, build and commit.
pub fn stamp() -> Value {
    use hifind_sketch::simd;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let forced = std::env::var(simd::FORCE_KERNEL_ENV).unwrap_or_else(|_| "none".into());
    obj([
        ("nproc", Value::UInt(nproc as u64)),
        ("cpu_model", text(cpu_model())),
        ("kernel", text(simd::kernel().isa().name())),
        ("detected_isa", text(simd::detect_isa().name())),
        ("force_kernel", text(forced)),
        (
            "build_profile",
            text(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "git_commit",
            text(std::env::var("PERFBENCH_GIT_COMMIT").unwrap_or_else(|_| "unknown".into())),
        ),
    ])
}
