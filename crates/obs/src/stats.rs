//! Robust statistics over per-trial samples and over ledger series.
//!
//! Benchmark trials on a shared host are contaminated by scheduler noise;
//! the measurement suite therefore reports medians, the median absolute
//! deviation (MAD), and the interquartile range rather than means and
//! standard deviations ([`summarize`] fills a row's [`StageStats`]). The
//! suite's regression gate (`suite::gate::noise_threshold` in the bench
//! crate) derives its per-stage noise threshold from the baseline's MAD,
//! and [`crate::trend`]'s step detector reads series levels and noise
//! through the same [`median`] and [`mad`].

use crate::bench::StageStats;

/// Linear-interpolated `q`-quantile (`q` in `[0, 1]`) of `sorted`
/// (ascending). Returns 0 on an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let frac = pos - lo as f64;
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        }
    }
}

/// Median of arbitrary (unsorted) samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    quantile_sorted(&s, 0.5)
}

/// Median absolute deviation from the median.
pub fn mad(samples: &[f64]) -> f64 {
    let m = median(samples);
    let deviations: Vec<f64> = samples.iter().map(|v| (v - m).abs()).collect();
    median(&deviations)
}

/// Summarize per-trial durations (milliseconds) into the schema's
/// [`StageStats`].
pub fn summarize(samples_ms: &[f64]) -> StageStats {
    if samples_ms.is_empty() {
        return StageStats::default();
    }
    let mut sorted = samples_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    let median_ms = quantile_sorted(&sorted, 0.5);
    let deviations: Vec<f64> = sorted.iter().map(|v| (v - median_ms).abs()).collect();
    StageStats {
        trials: sorted.len() as u64,
        median_ms,
        mean_ms: sorted.iter().sum::<f64>() / sorted.len() as f64,
        mad_ms: median(&deviations),
        iqr_ms: quantile_sorted(&sorted, 0.75) - quantile_sorted(&sorted, 0.25),
        min_ms: sorted[0],
        max_ms: sorted[sorted.len() - 1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_single() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn mad_is_robust_to_one_outlier() {
        // One wildly descheduled trial barely moves the MAD…
        let clean = [10.0, 10.2, 9.8, 10.1, 9.9];
        let dirty = [10.0, 10.2, 9.8, 10.1, 500.0];
        assert!(mad(&clean) <= 0.2);
        assert!(mad(&dirty) <= 0.3, "mad = {}", mad(&dirty));
        // …while the mean explodes.
        let mean_dirty = dirty.iter().sum::<f64>() / dirty.len() as f64;
        assert!(mean_dirty > 100.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(quantile_sorted(&s, 1.0), 4.0);
        assert_eq!(quantile_sorted(&s, 0.5), 2.5);
        assert_eq!(quantile_sorted(&s, 0.25), 1.75);
    }

    #[test]
    fn summarize_fills_all_fields() {
        let s = summarize(&[2.0, 1.0, 3.0]);
        assert_eq!(s.trials, 3);
        assert_eq!(s.median_ms, 2.0);
        assert_eq!(s.mean_ms, 2.0);
        assert_eq!(s.mad_ms, 1.0);
        assert_eq!(s.iqr_ms, 1.0);
        assert_eq!(s.min_ms, 1.0);
        assert_eq!(s.max_ms, 3.0);

        let one = summarize(&[5.0]);
        assert_eq!(one.trials, 1);
        assert_eq!(one.median_ms, 5.0);
        assert_eq!(one.mad_ms, 0.0);
        assert_eq!(one.iqr_ms, 0.0);

        assert_eq!(summarize(&[]), StageStats::default());
    }
}
