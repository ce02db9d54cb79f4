//! Latency percentiles and simple summaries.
//!
//! Percentiles use the nearest-rank rule of
//! [`jouppi_bench::LatencySummary`], the one the repository's `loadgen`
//! reports with. Samples are handed to it in whole nanoseconds, which
//! its three-decimal rounding leaves exact, and converted back to
//! milliseconds here.

use jouppi_bench::LatencySummary;

/// Fewest samples that must rank above a percentile for it to be
/// reported.
pub const MIN_BEYOND: usize = 10;

/// Fewest samples that give p90 [`MIN_BEYOND`] samples beyond it.
pub const MIN_SAMPLES: usize = 100;

/// One reported percentile.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The percentile's latency in milliseconds.
    pub ms: f64,
    /// Samples it was taken over.
    pub samples: usize,
    /// Samples ranked above it.
    pub beyond: usize,
}

/// Samples ranked above the nearest-rank `p`-quantile of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((n as f64 * p).ceil() as usize).clamp(1, n);
    n - rank
}

/// The median and 90th percentile of `samples_ns`, each `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn p50_p90(samples_ns: &[u64]) -> (Option<Percentile>, Option<Percentile>) {
    let as_f64: Vec<f64> = samples_ns.iter().map(|&ns| ns as f64).collect();
    let Some(summary) = LatencySummary::from_samples("op", &as_f64) else {
        return (None, None);
    };
    let n = summary.requests;
    let pick = |value_ns: f64, p: f64| {
        let beyond = beyond(n, p);
        (beyond >= MIN_BEYOND).then_some(Percentile {
            ms: value_ns / 1e6,
            samples: n,
            beyond,
        })
    };
    (pick(summary.p50_ms, 0.50), pick(summary.p90_ms, 0.90))
}

/// The median of `values` (the upper median for an even count); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.get(sorted.len() / 2).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_latency_summary() {
        let samples: Vec<u64> = (1..=200).map(|i| i * 1_000_000).collect();
        let (p50, p90) = p50_p90(&samples);
        let p50 = p50.unwrap();
        let p90 = p90.unwrap();
        assert_eq!(p50.ms, 100.0);
        assert_eq!(p90.ms, 180.0);
        assert_eq!((p50.samples, p50.beyond), (200, 100));
        assert_eq!((p90.samples, p90.beyond), (200, 20));
    }

    #[test]
    fn nanosecond_samples_keep_every_digit() {
        let samples: Vec<u64> = (0..100).map(|i| 1_234_567 + i).collect();
        let (p50, _) = p50_p90(&samples);
        assert_eq!(p50.unwrap().ms, 1.234_616);
    }

    #[test]
    fn percentile_withheld_with_fewer_than_ten_beyond() {
        // 99 samples: ceil(89.1) = 90, so only 9 rank above p90.
        let samples: Vec<u64> = (1..=99).collect();
        let (p50, p90) = p50_p90(&samples);
        assert!(p50.is_some());
        assert!(p90.is_none());
        // 100 samples: exactly 10 rank above p90.
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(p50_p90(&samples).1.unwrap().beyond, 10);
        // 19 samples: 9 above the median.
        let samples: Vec<u64> = (1..=19).collect();
        assert_eq!(p50_p90(&samples), (None, None));
        assert_eq!(p50_p90(&[]), (None, None));
    }

    #[test]
    fn min_samples_is_the_least_that_reports_p90() {
        assert!(beyond(MIN_SAMPLES, 0.9) >= MIN_BEYOND);
        assert!(beyond(MIN_SAMPLES - 1, 0.9) < MIN_BEYOND);
    }

    #[test]
    fn beyond_counts() {
        assert_eq!(beyond(0, 0.5), 0);
        assert_eq!(beyond(1, 0.5), 0);
        assert_eq!(beyond(20, 0.5), 10);
        assert_eq!(beyond(100, 0.9), 10);
    }

    #[test]
    fn median_of_values() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(3.0));
    }
}
