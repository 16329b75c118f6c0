//! Summary statistics and process resource readers.

/// The percentile reported as a latency tail: the highest of p99, p95,
/// p90, p75 and p50 that still has at least [`TAIL_MIN_BEYOND`] samples
/// above it, so a tail is never read off a handful of outliers.
pub const TAIL_CANDIDATES: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The tail percentile for `n` samples, or `None` when even the median
/// lacks ten samples beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n > 0 && n - rank(n, p) >= TAIL_MIN_BEYOND)
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // Multiply before dividing: 90 * 100 / 100 is exact, 0.9 * 100 is not.
    ((p * n as f64) / 100.0).ceil().clamp(1.0, n.max(1) as f64) as usize
}

/// Nearest-rank percentile of already sorted samples (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Latency summary of one measurement window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    pub samples: usize,
    pub p50_us: f64,
    /// Which percentile `tail_us` is (see [`tail_percentile`]).
    pub tail_pct: f64,
    pub tail_us: f64,
}

/// Summarize per-request latencies; the tail falls back to the median
/// when there are too few samples for any tail.
pub fn summarize(latencies_us: &[f64]) -> LatencySummary {
    let mut sorted = latencies_us.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail_pct = tail_percentile(sorted.len()).unwrap_or(50.0);
    LatencySummary {
        samples: sorted.len(),
        p50_us: percentile(&sorted, 50.0),
        tail_pct,
        tail_us: percentile(&sorted, tail_pct),
    }
}

/// Process user + system CPU time in seconds, from `/proc/self/stat`.
/// Counts every thread of the process, exited ones included.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let ticks = parse_stat_cpu_ticks(&stat).expect("parse /proc/self/stat");
    ticks as f64 / clock_ticks_per_s()
}

/// `utime + stime` (fields 14 and 15) of a `/proc/<pid>/stat` line. The
/// command name (field 2) is parenthesised and may hold spaces, so
/// fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime is field 14.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Clock ticks per second of the `/proc` CPU counters.
pub fn clock_ticks_per_s() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf only reads a configuration value; _SC_CLK_TCK is 2
    // on Linux and the call has no other preconditions.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as f64
    } else {
        100.0
    }
}

/// Machine-wide CPU time stolen by the hypervisor, in clock ticks, from
/// the `cpu` line of `/proc/stat` (0 when unavailable): how much the
/// neighbours took. It chooses sub-windows and is never a metric.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_steal_ticks(&s))
        .unwrap_or(0)
}

/// The steal field (the 8th value) of the aggregate `cpu` line.
pub fn parse_steal_ticks(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// The sub-windows the end-to-end metrics are taken from: one in
/// `every` (rounded up), those with the least hypervisor steal. The
/// ranking sees only the steal, which the program under test does not
/// cause, never a latency or a count, so what the program does in the
/// kept windows is a fair sample of what it does in all of them. Ties
/// go to windows `0, every, 2 * every, ...` first, then `1, every + 1,
/// ...`, so a quiet run keeps windows spread evenly over the whole run.
pub fn least_stolen(steal_ticks: &[u64], every: usize) -> Vec<usize> {
    let every = every.max(1);
    let mut order: Vec<usize> = (0..steal_ticks.len()).collect();
    order.sort_by_key(|&w| (steal_ticks[w], w % every, w));
    order.truncate(steal_ticks.len().div_ceil(every));
    order.sort_unstable();
    order
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vmhwm_kb(&status).expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

/// The `VmHWM` value in kB of a `/proc/<pid>/status` text.
pub fn parse_vmhwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
    }

    #[test]
    fn summary_reports_the_sample_count_and_tail() {
        let lat: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = summarize(&lat);
        assert_eq!(s.samples, 1000);
        assert_eq!(s.p50_us, 500.0);
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(s.tail_us, 990.0);
        // Exactly ten samples lie beyond the reported tail.
        assert_eq!(lat.iter().filter(|&&x| x > s.tail_us).count(), 10);

        let few = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((few.samples, few.tail_pct, few.p50_us), (3, 50.0, 2.0));
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn stat_parsing_skips_a_command_name_with_spaces() {
        let line = "4242 (perf bench) S 1 4242 4242 0 -1 4194560 512 0 0 0 \
                    173 29 0 0 20 0 5 0 1234 0 0";
        assert_eq!(parse_stat_cpu_ticks(line), Some(173 + 29));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
        assert!(
            parse_stat_cpu_ticks(&std::fs::read_to_string("/proc/self/stat").unwrap()).is_some()
        );
    }

    #[test]
    fn steal_parsing_reads_the_aggregate_cpu_line() {
        let stat = "cpu  138795 0 17196 246790 483 0 209 12986 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n";
        assert_eq!(parse_steal_ticks(stat), Some(12986));
        assert_eq!(parse_steal_ticks("intr 1 2 3\n"), None);
    }

    #[test]
    fn window_choice_follows_steal_and_spreads_ties_over_the_run() {
        assert_eq!(least_stolen(&[5, 0, 9, 1, 0], 2), vec![1, 3, 4]);
        assert_eq!(least_stolen(&[0; 8], 2), vec![0, 2, 4, 6]);
        assert_eq!(least_stolen(&[0; 12], 4), vec![0, 4, 8]);
        assert_eq!(least_stolen(&[3, 3, 0, 0, 3, 3], 2), vec![0, 2, 3]);
        assert_eq!(least_stolen(&[2, 9, 0, 0, 9, 1, 9, 9], 4), vec![2, 3]);
        assert!(least_stolen(&[], 4).is_empty());
    }

    #[test]
    fn vmhwm_parsing_reads_kilobytes() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  300000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vmhwm_kb(status), Some(123456));
        assert_eq!(parse_vmhwm_kb("Name:\tx\n"), None);
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_s() >= 0.0);
    }
}
