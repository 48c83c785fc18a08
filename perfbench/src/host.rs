//! Host facts recorded with every run: a cache-contention canary, the
//! CPU, and the process's peak resident memory.
//!
//! The simulator's working set is L3-sized, so its speed follows the
//! load other tenants put on the shared L3. The two probes chase a
//! random cyclic permutation through a buffer that fits in L2 and one
//! that only fits in L3: when the L3 probe slows while the L2 probe
//! holds, throughput figures from the same run were taken under cache
//! contention, not slowed by the code.

use std::time::Instant;

/// Mean nanoseconds per dependent load over a `bytes`-sized buffer.
pub fn chase_ns(bytes: usize, loads: usize) -> f64 {
    let n = (bytes / std::mem::size_of::<usize>()).max(2);
    // Sattolo's shuffle: one cycle through every slot, so the chase
    // visits the whole buffer.
    let mut next: Vec<usize> = (0..n).collect();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    for i in (1..n).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x % i as u64) as usize;
        next.swap(i, j);
    }
    let mut at = 0usize;
    for _ in 0..n {
        at = next[at]; // warm the buffer into cache
    }
    let start = Instant::now();
    for _ in 0..loads {
        at = next[at];
    }
    let ns = start.elapsed().as_nanos() as f64;
    std::hint::black_box(at);
    ns / loads as f64
}

/// The L2-resident probe (256 KiB).
pub fn l2_probe_ns() -> f64 {
    chase_ns(256 << 10, 2_000_000)
}

/// The L3-resident probe (8 MiB).
pub fn l3_probe_ns() -> f64 {
    chase_ns(8 << 20, 1_000_000)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model string (`unknown` where `/proc/cpuinfo` has none).
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_measure_something() {
        let ns = chase_ns(64 << 10, 10_000);
        assert!(ns > 0.0 && ns.is_finite());
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
