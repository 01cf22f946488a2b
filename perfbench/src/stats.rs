//! Summary statistics and the resident-memory sampler.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Percentiles a latency tail is reported at, highest first, in per mille.
const TAIL_PER_MILLE: [u64; 4] = [999, 990, 900, 500];

/// Samples a reported percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted`, `per_mille` in 1..=1000.
pub fn percentile(sorted: &[f64], per_mille: u64) -> f64 {
    let rank = (per_mille as usize * sorted.len()).div_ceil(1000).max(1);
    sorted[rank - 1]
}

/// The highest tail percentile (in per mille) of `n` samples that leaves
/// at least [`MIN_BEYOND`] samples beyond it, or `None` when even the
/// median does not.
pub fn tail_per_mille(n: usize) -> Option<u64> {
    TAIL_PER_MILLE
        .into_iter()
        .find(|&pm| n - (pm as usize * n).div_ceil(1000) >= MIN_BEYOND)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Max over mean of `values`; 0 when they sum to 0.
pub fn skew(values: &[u64]) -> f64 {
    let total: u64 = values.iter().sum();
    let max = values.iter().copied().max().unwrap_or(0);
    ratio(max as f64 * values.len() as f64, total as f64)
}

/// Current resident set size in KiB, from `/proc/self/status`.
pub fn rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Cumulative (steal, total) CPU time of the machine in clock ticks, from
/// the first line of `/proc/stat`; (0, 0) when it cannot be read. Steal is
/// time the host ran something else while this machine's CPUs had work.
pub fn cpu_steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|t| t.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Samples the resident set every few milliseconds on its own thread and
/// keeps the peak.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    peak: Arc<AtomicU64>,
    thread: JoinHandle<()>,
}

impl RssSampler {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let peak = Arc::new(AtomicU64::new(rss_kib()));
        let thread = {
            let (stop, peak) = (stop.clone(), peak.clone());
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    peak.fetch_max(rss_kib(), Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(5));
                }
            })
        };
        Self { stop, peak, thread }
    }

    /// Stops sampling and returns the peak in MiB.
    pub fn finish(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("rss sampler thread panicked");
        self.peak.fetch_max(rss_kib(), Ordering::Relaxed);
        self.peak.load(Ordering::Relaxed) as f64 / 1024.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_per_mille(19), None);
        assert_eq!(tail_per_mille(20), Some(500));
        assert_eq!(tail_per_mille(99), Some(500));
        assert_eq!(tail_per_mille(100), Some(900));
        assert_eq!(tail_per_mille(999), Some(900));
        assert_eq!(tail_per_mille(1000), Some(990));
        assert_eq!(tail_per_mille(10_000), Some(999));
        for n in 0..3000 {
            if let Some(pm) = tail_per_mille(n) {
                let sorted: Vec<f64> = (0..n).map(|i| i as f64).collect();
                let cut = percentile(&sorted, pm);
                assert!(
                    sorted.iter().filter(|&&x| x > cut).count() >= MIN_BEYOND,
                    "n={n}"
                );
            }
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 500), 50.0);
        assert_eq!(percentile(&sorted, 900), 90.0);
        assert_eq!(percentile(&sorted, 1000), 100.0);
        assert_eq!(percentile(&[7.0], 900), 7.0);
    }

    #[test]
    fn median_and_skew() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(skew(&[2, 2, 2]), 1.0);
        assert_eq!(skew(&[3, 1]), 1.5);
        assert_eq!(skew(&[0, 0]), 0.0);
    }
}
