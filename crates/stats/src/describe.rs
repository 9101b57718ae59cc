//! Online descriptive statistics.
//!
//! The central type is [`Accumulator`], a Welford-style online accumulator
//! that tracks count, mean, variance, and extrema in a single pass with good
//! numerical stability. The paper's evaluation reports the *mean* and
//! *standard deviation* of percentage error over a design space; every such
//! number in this workspace flows through an `Accumulator`.

/// Single-pass (Welford) accumulator for mean, variance, and extrema.
///
/// # Example
///
/// ```
/// use archpredict_stats::describe::Accumulator;
/// let acc: Accumulator = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].into_iter().collect();
/// assert_eq!(acc.mean(), 5.0);
/// assert_eq!(acc.population_std_dev(), 2.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Accumulator {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Accumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    #[inline]
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &Accumulator) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = (self.n + other.n) as f64;
        let delta = other.mean - self.mean;
        self.mean += delta * other.n as f64 / n;
        self.m2 += other.m2 + delta * delta * self.n as f64 * other.n as f64 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (dividing by `n`); `0.0` when fewer than one
    /// observation has been added.
    pub fn population_variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample variance (dividing by `n - 1`); `0.0` when fewer than two
    /// observations have been added.
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn population_std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Sample standard deviation.
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Smallest observation; `+inf` when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation; `-inf` when empty.
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl FromIterator<f64> for Accumulator {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut acc = Accumulator::new();
        for x in iter {
            acc.add(x);
        }
        acc
    }
}

impl Extend<f64> for Accumulator {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.add(x);
        }
    }
}

/// Returns the `q`-quantile (`0.0 ..= 1.0`) of `data` using linear
/// interpolation between order statistics. `data` does not need to be sorted.
///
/// # Panics
///
/// Panics if `data` is empty or `q` is outside `[0, 1]`.
///
/// # Example
///
/// ```
/// use archpredict_stats::describe::quantile;
/// let median = quantile(&[3.0, 1.0, 2.0], 0.5);
/// assert_eq!(median, 2.0);
/// ```
pub fn quantile(data: &[f64], q: f64) -> f64 {
    assert!(!data.is_empty(), "quantile of empty data");
    assert!((0.0..=1.0).contains(&q), "quantile fraction out of range");
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Absolute percentage error (in percent) of one prediction:
/// `100 · |predicted − actual| / max(|actual|, 1e-12)`.
///
/// This is the error metric the paper reports throughout its evaluation:
/// its mean and standard deviation over a set of points, accumulated in an
/// [`Accumulator`], are the two series in every figure. The `1e-12` floor
/// keeps a zero actual from dividing by zero; simulated IPC is positive,
/// so it never binds on real data.
pub fn percent_error(predicted: f64, actual: f64) -> f64 {
    100.0 * (predicted - actual).abs() / actual.abs().max(1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_basic_moments() {
        let acc: Accumulator = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
        assert_eq!(acc.count(), 4);
        assert_eq!(acc.mean(), 2.5);
        assert!((acc.population_variance() - 1.25).abs() < 1e-12);
        assert!((acc.sample_variance() - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(acc.min(), 1.0);
        assert_eq!(acc.max(), 4.0);
    }

    #[test]
    fn empty_accumulator_is_safe() {
        let acc = Accumulator::new();
        assert_eq!(acc.count(), 0);
        assert_eq!(acc.mean(), 0.0);
        assert_eq!(acc.population_variance(), 0.0);
        assert_eq!(acc.sample_variance(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let seq: Accumulator = xs.iter().copied().collect();
        let mut a: Accumulator = xs[..37].iter().copied().collect();
        let b: Accumulator = xs[37..].iter().copied().collect();
        a.merge(&b);
        assert_eq!(a.count(), seq.count());
        assert!((a.mean() - seq.mean()).abs() < 1e-10);
        assert!((a.population_variance() - seq.population_variance()).abs() < 1e-10);
        assert_eq!(a.min(), seq.min());
        assert_eq!(a.max(), seq.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a: Accumulator = [1.0, 2.0].into_iter().collect();
        let before = a;
        a.merge(&Accumulator::new());
        assert_eq!(a, before);
        let mut e = Accumulator::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn quantile_interpolates() {
        let data = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&data, 0.0), 10.0);
        assert_eq!(quantile(&data, 1.0), 40.0);
        assert_eq!(quantile(&data, 0.5), 25.0);
        assert!((quantile(&data, 0.25) - 17.5).abs() < 1e-12);
    }

    #[test]
    fn mape_matches_hand_computation() {
        let acc: Accumulator = [(110.0, 100.0), (90.0, 100.0)]
            .into_iter()
            .map(|(p, a)| percent_error(p, a))
            .collect();
        assert!((acc.mean() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn percentage_errors_std_dev() {
        let acc: Accumulator = [102.0, 98.0, 100.0]
            .into_iter()
            .map(|p| percent_error(p, 100.0))
            .collect();
        // errors: 2, 2, 0 -> mean 4/3, pop var = (2*(2-4/3)^2 + (4/3)^2)/3
        assert!((acc.mean() - 4.0 / 3.0).abs() < 1e-12);
        assert!((acc.population_variance() - 8.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn percent_error_uses_magnitudes_and_guards_a_zero_actual() {
        assert_eq!(percent_error(-0.5, -1.0), 50.0);
        assert_eq!(percent_error(1.5, 1.0), 50.0);
        assert_eq!(percent_error(0.5, 0.0), 100.0 * 0.5 / 1e-12);
        assert_eq!(percent_error(0.0, 0.0), 0.0);
    }
}
