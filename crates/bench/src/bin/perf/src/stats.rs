//! Order statistics for timing samples: medians, quartiles, and a p99
//! that is only reported when the sample supports it.

/// A tail percentile is reported only when at least this many samples lie
/// strictly beyond it; with fewer, the "percentile" is one or two
/// outliers and moves from run to run for no reason.
pub const MIN_BEYOND: usize = 10;

/// Linear-interpolated percentile (`p` in `0..=100`) of an ascending
/// slice. `NaN` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let rank = (n - 1) as f64 * p / 100.0;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// The distribution of one timing: sample count, median, quartiles, and
/// p99 when at least [`MIN_BEYOND`] samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    /// Samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// 99th percentile, when the sample supports it.
    pub p99: Option<f64>,
}

impl Dist {
    /// Summarizes `samples` (any order).
    pub fn of(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let p99 = percentile(&sorted, 99.0);
        let beyond = sorted.iter().filter(|&&x| x > p99).count();
        Self {
            n: sorted.len(),
            p50: percentile(&sorted, 50.0),
            q1: percentile(&sorted, 25.0),
            q3: percentile(&sorted, 75.0),
            p99: (beyond >= MIN_BEYOND).then_some(p99),
        }
    }
}

/// Median of `samples` (any order); `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    Dist::of(samples).p50
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 100.0), 4.0);
        assert_eq!(percentile(&sorted, 50.0), 2.5);
        assert_eq!(percentile(&sorted, 25.0), 1.75);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn median_and_quartiles_ignore_input_order() {
        let d = Dist::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((d.n, d.q1, d.p50, d.q3), (5, 2.0, 3.0, 4.0));
        assert_eq!(median(&[3.0, 1.0]), 2.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 902 distinct samples: p99 sits at rank 891.99, so exactly ten
        // samples (892..=901) lie beyond it and it is reported.
        let ranks: Vec<f64> = (0..902).map(f64::from).collect();
        let p99 = Dist::of(&ranks).p99.expect("902 samples support p99");
        assert!((p99 - 891.99).abs() < 1e-9, "{p99}");
        // 901 samples put p99 exactly on 891 with nine beyond: not reported.
        assert_eq!(Dist::of(&ranks[..901]).p99, None);
        // Ties at the top do not count as "beyond".
        let mut flat = vec![1.0; 2000];
        flat[0] = 0.0;
        assert_eq!(Dist::of(&flat).p99, None);
    }
}
