//! Order statistics and the process's own resource counters.

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`); 0 when
/// the slice is empty.
pub fn percentile<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (sorts them); 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 0.5)
}

/// An ascending copy of `samples`.
pub fn sorted(samples: &[u32]) -> Vec<u32> {
    let mut out = samples.to_vec();
    out.sort_unstable();
    out
}

/// CPU seconds this process (all threads) has spent on a core: the sum of
/// every thread's `sum_exec_runtime` from `/proc/self/task/*/schedstat`,
/// which has nanosecond resolution, so a 0.1 s round can be costed. Falls
/// back to the 10 ms ticks of `/proc/self/stat` (user + system) where the
/// kernel keeps no schedstat, and to 0 where there is no procfs.
pub fn cpu_seconds() -> f64 {
    let on_cpu_ns = std::fs::read_dir("/proc/self/task").ok().map(|tasks| {
        tasks
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("schedstat")).ok())
            .filter_map(|stat| stat.split_whitespace().next()?.parse::<u64>().ok())
            .sum::<u64>()
    });
    match on_cpu_ns {
        Some(ns) if ns > 0 => ns as f64 / 1e9,
        _ => cpu_ticks() / TICKS_PER_SECOND,
    }
}

/// Kernel clock ticks per second behind `/proc/self/stat` (`USER_HZ`, fixed
/// at 100 on Linux).
const TICKS_PER_SECOND: f64 = 100.0;

/// `utime + stime` of this process in clock ticks.
fn cpu_ticks() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields count from the
    // closing parenthesis. utime and stime are fields 14 and 15.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    rest.split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum()
}

/// Pins this process to one CPU — the last one it is allowed on — and
/// returns it; threads started afterwards inherit the mask. The closed loop
/// never has client and worker busy at once, so one CPU loses no
/// parallelism, while on two vCPUs of a sandbox every request pays a
/// cross-CPU wake-up whose cost is bimodal (a ping-pong round trip reads
/// 8 us or 55 us depending on where the scheduler put the threads). std has
/// no affinity call, so util-linux `taskset` sets it; `None` where that
/// fails, and the run goes on unpinned.
pub fn pin_to_one_cpu() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let allowed = status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))?;
    let cpu: usize = allowed.trim().rsplit([',', '-']).next()?.parse().ok()?;
    let done = std::process::Command::new("taskset")
        .args(["-pc", &cpu.to_string(), &std::process::id().to_string()])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .ok()?;
    done.success().then_some(cpu)
}

/// Peak resident set (`VmHWM`) in MB, from `/proc/self/status`; 0 where
/// procfs is missing.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile::<u32>(&[], 0.5), 0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn process_counters_read() {
        assert!(peak_rss_mb() > 0.0);
        let before = cpu_seconds();
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 30 {
            std::hint::black_box(0);
        }
        assert!(cpu_seconds() > before);
    }
}
