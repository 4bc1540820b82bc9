//! Order statistics and process memory readings.

use std::time::Duration;

/// Samples at least this many must lie strictly beyond a percentile before
/// it is reported.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (0..=1) of `values` by nearest rank, or `None` when the
/// slice is empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// The median of `values` (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Arithmetic mean (`None` when empty).
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// The `q`-quantile, reported only when at least [`MIN_BEYOND`] samples lie
/// strictly above it.
pub fn percentile_with_support(values: &[f64], q: f64) -> Option<f64> {
    let p = quantile(values, q)?;
    let beyond = values.iter().filter(|&&v| v > p).count();
    (beyond >= MIN_BEYOND).then_some(p)
}

/// Completions per second: the median over `buckets` equal slices of the
/// window, so a burst of outside load in one slice does not move it.
/// `done_s` holds each completion's offset into the window.
pub fn bucketed_rate(done_s: &[f64], window_s: f64, buckets: usize) -> Option<f64> {
    if done_s.is_empty() || window_s <= 0.0 || buckets == 0 {
        return None;
    }
    let width = window_s / buckets as f64;
    let mut counts = vec![0usize; buckets];
    for &t in done_s {
        counts[((t / width) as usize).min(buckets - 1)] += 1;
    }
    let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / width).collect();
    median(&rates)
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The peak resident set (`VmHWM`) of process `pid` in MiB, from
/// `/proc/<pid>/status`; `pid == None` reads the calling process.
pub fn vm_hwm_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn bucketed_rate_ignores_one_slow_slice() {
        // 10 completions per second for 4 s, then 1 in the last second.
        let mut done: Vec<f64> = (0..40).map(|i| f64::from(i) / 10.0).collect();
        done.push(4.5);
        assert_eq!(bucketed_rate(&done, 5.0, 5), Some(10.0));
        assert_eq!(bucketed_rate(&[], 5.0, 5), None);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // 1000 distinct samples: exactly 10 lie above p99.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile_with_support(&v, 0.99), Some(990.0));
        // 999 samples: only 9 lie above p99, so it is withheld.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile_with_support(&v, 0.99), None);
        assert_eq!(percentile_with_support(&v, 0.9), Some(900.0));
        // Ties at the top do not count as beyond.
        let v = vec![1.0; 2000];
        assert_eq!(percentile_with_support(&v, 0.9), None);
        // 109 samples: exactly 10 lie above p90; 99 samples: only 9.
        let v: Vec<f64> = (1..=109).map(f64::from).collect();
        assert_eq!(percentile_with_support(&v, 0.9), Some(99.0));
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile_with_support(&v, 0.9), None);
    }
}
