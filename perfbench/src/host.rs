//! The host a run was measured on, the process's own memory peak, and
//! pinning the process to one CPU.

use std::process::Command;

use jouppi_serve::json::Json;

/// `nproc`, CPU model, rustc version, the CPU the run is pinned to and
/// the sweep engine's thread count, so numbers from different hosts are
/// never compared silently.
pub fn describe(nproc: usize, pinned_cpu: Option<usize>) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    Json::obj([
        ("nproc", Json::Int(nproc as i64)),
        ("cpu", Json::str(cpu)),
        ("rustc", Json::str(rustc)),
        (
            "pinned_cpu",
            pinned_cpu.map_or(Json::Null, |c| Json::Int(c as i64)),
        ),
        (
            "sweep_threads",
            Json::Int(jouppi_experiments::sweep::thread_count() as i64),
        ),
    ])
}

/// This process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// `(all ticks, steal ticks)` of `cpu` (or of all CPUs) from
/// `/proc/stat`.
pub fn cpu_ticks(cpu: Option<usize>) -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let label = cpu.map_or_else(|| "cpu".to_owned(), |c| format!("cpu{c}"));
    let line = stat
        .lines()
        .find(|l| l.split_whitespace().next() == Some(label.as_str()))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    // Fields: user nice system idle iowait irq softirq steal ...
    Some((ticks.iter().take(8).sum(), *ticks.get(7)?))
}

/// Share of `cpu`'s time between two [`cpu_ticks`] readings that the
/// hypervisor gave to other guests (steal): how much of a run's wall time
/// the host took away.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((all0, steal0), (all1, steal1)) = (before?, after?);
    let all = all1.checked_sub(all0).filter(|&d| d > 0)?;
    Some(steal1.saturating_sub(steal0) as f64 / all as f64)
}

/// Words in the kernel's CPU mask (`cpu_set_t`: 1024 CPUs).
const CPU_MASK_WORDS: usize = 16;

/// Pins the calling thread, and every thread and process it starts
/// afterwards, to the highest-numbered CPU it may run on. Returns that
/// CPU, or `None` when the kernel refuses.
///
/// The client, the server's threads and the sweep engine then hand work
/// to each other on one CPU: a request's wake-ups never cross CPUs, so
/// latency measures the program rather than cross-CPU scheduling.
#[allow(unsafe_code)]
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; CPU_MASK_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `size` bytes, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..CPU_MASK_WORDS * 64)
        .rev()
        .find(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)?;
    let mut one = [0u64; CPU_MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly `size` bytes, and pid
    // 0 names the calling thread.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return None;
    }
    Some(cpu)
}
