//! Percentile and median arithmetic for the benchmark's reports.
//!
//! Percentiles are exact nearest-rank values over the raw samples (no
//! bucketing), so a figure carries every digit it was measured with. A
//! percentile is only *resolved* when at least [`MIN_BEYOND`] samples lie
//! beyond it; below that, one outlier more or less moves it arbitrarily.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// One percentile of a sample set, with the count it was read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quantile {
    /// The sample at the percentile; `None` when it is unresolved (fewer
    /// than [`MIN_BEYOND`] samples beyond it).
    pub value: Option<u64>,
    /// Samples the percentile was read from.
    pub samples: usize,
}

/// The `percent`-th nearest-rank percentile of `sorted` (ascending): the
/// smallest sample with at least `percent`% of the samples at or below it.
/// The rank is computed in integers so that e.g. p99 of 1000 samples is
/// exactly the 990th, never the 991st through a rounding error.
pub fn quantile(sorted: &[u64], percent: u32) -> Quantile {
    debug_assert!((1..=100).contains(&percent));
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let n = sorted.len();
    let rank = (n * percent as usize).div_ceil(100).max(1);
    let value = (n >= rank && n - rank >= MIN_BEYOND).then(|| sorted[rank - 1]);
    Quantile { value, samples: n }
}

/// Median of `values` (the mean of the middle two for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// `numerator / denominator`, or 0 when nothing was counted.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: u64) -> Vec<u64> {
        (1..=n).collect()
    }

    #[test]
    fn nearest_rank_is_exact_at_round_counts() {
        let samples = ramp(1000);
        assert_eq!(quantile(&samples, 99).value, Some(990));
        assert_eq!(quantile(&samples, 50).value, Some(500));
        assert_eq!(quantile(&samples, 99).samples, 1000);
        // One more sample moves the p99 rank up (ceil), never down.
        assert_eq!(quantile(&ramp(1001), 99).value, Some(991));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990 leaves exactly 10 beyond.
        assert!(quantile(&ramp(1000), 99).value.is_some());
        // 999 samples: rank 990 (ceil 989.01) leaves 9 beyond.
        let short = quantile(&ramp(999), 99);
        assert_eq!(short.value, None);
        assert_eq!(short.samples, 999);
        // p50 resolves from 20 samples on.
        assert_eq!(quantile(&ramp(20), 50).value, Some(10));
        assert_eq!(quantile(&ramp(19), 50).value, None);
        assert_eq!(
            quantile(&[], 50),
            Quantile {
                value: None,
                samples: 0
            }
        );
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(6.0, 4.0), 1.5);
    }
}
