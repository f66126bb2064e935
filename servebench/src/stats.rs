//! Order statistics and process readings.

/// Nearest-rank percentile (`p` in `[0, 1]`) of `values`; `None` when
/// empty. Sorts a copy.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(rank(&sorted, p))
}

/// Nearest-rank percentile of already-sorted values.
pub fn rank(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let index = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
    sorted[index]
}

/// Median of `values` (mean of the middle pair when even).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// This process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    memory_mb("VmHWM")
}

/// This process's current resident set (`VmRSS`), MiB.
pub fn rss_mb() -> Result<f64, String> {
    memory_mb("VmRSS")
}

/// Give freed heap back to the system (`malloc_trim`), then restart
/// `VmHWM` from the current resident set (`/proc/self/clear_refs`),
/// so a later [`peak_rss_mb`] covers only what happens from here on.
/// Returns whether the peak was restarted; where the kernel refuses,
/// `VmHWM` keeps counting from process start.
pub fn reset_peak_rss() -> bool {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointers and only releases
    // memory no allocation holds.
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// One `kB` field of `/proc/self/status`, MiB.
fn memory_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or_else(|| format!("no {field} line in /proc/self/status"))?;
    Ok(kib / 1024.0)
}

/// Cumulative CPU time of the machine's `cpu` line in `/proc/stat`:
/// (stolen by the hypervisor, total), in clock ticks.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Share of the machine's CPU time the hypervisor stole between two
/// [`cpu_ticks`] readings; 0 when none passed.
pub fn steal_share(from: (u64, u64), to: (u64, u64)) -> f64 {
    let total = to.1.saturating_sub(from.1);
    if total == 0 {
        0.0
    } else {
        to.0.saturating_sub(from.0) as f64 / total as f64
    }
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}
