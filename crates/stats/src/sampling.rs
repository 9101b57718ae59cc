//! Shuffling and sampling without replacement.
//!
//! The paper's refinement loop repeatedly draws *additional* random design
//! points that have not been simulated yet ("repeat steps 2–6 with N
//! additional simulations", §3.3). [`IncrementalSampler`] implements exactly
//! that: a stream of indices drawn uniformly without replacement from
//! `0..population`, delivered in arbitrary-size batches.

use crate::rng::Xoshiro256;
use std::collections::HashMap;

/// Fisher–Yates shuffles `items` in place.
///
/// # Example
///
/// ```
/// use archpredict_stats::rng::Xoshiro256;
/// use archpredict_stats::sampling::shuffle;
/// let mut rng = Xoshiro256::seed_from(3);
/// let mut v = vec![1, 2, 3, 4, 5];
/// shuffle(&mut v, &mut rng);
/// v.sort();
/// assert_eq!(v, [1, 2, 3, 4, 5]);
/// ```
pub fn shuffle<T>(items: &mut [T], rng: &mut Xoshiro256) {
    for i in (1..items.len()).rev() {
        let j = rng.index(i + 1);
        items.swap(i, j);
    }
}

/// Partial Fisher–Yates: after this call, the first `k` elements of `items`
/// are a uniform random sample (in random order) of the whole slice. Costs
/// `k` swaps regardless of the slice length, so it is the cheap way to draw
/// a small random subset of a large materialized set.
///
/// # Panics
///
/// Panics if `k > items.len()`.
pub fn partial_shuffle<T>(items: &mut [T], k: usize, rng: &mut Xoshiro256) {
    assert!(k <= items.len(), "cannot shuffle {k} of {}", items.len());
    for i in 0..k {
        let j = i + rng.index(items.len() - i);
        items.swap(i, j);
    }
}

/// Draws `k` distinct indices uniformly from `0..population`.
///
/// Uses a sparse Fisher–Yates (hash-map backed) so it is efficient even when
/// `population` is large (e.g. a 23,040-point design space) and `k` is small.
/// The returned indices are in random order.
///
/// # Panics
///
/// Panics if `k > population`.
pub fn sample_without_replacement(population: usize, k: usize, rng: &mut Xoshiro256) -> Vec<usize> {
    assert!(k <= population, "cannot sample {k} from {population}");
    let mut swapped: HashMap<usize, usize> = HashMap::with_capacity(k * 2);
    let mut out = Vec::with_capacity(k);
    for i in 0..k {
        let j = i + rng.index(population - i);
        let vi = *swapped.get(&i).unwrap_or(&i);
        let vj = *swapped.get(&j).unwrap_or(&j);
        out.push(vj);
        swapped.insert(j, vi);
    }
    out
}

/// A stream of indices drawn without replacement from `0..population`,
/// delivered incrementally.
///
/// This backs the paper's incremental data collection: each call to
/// [`IncrementalSampler::next_batch`] returns design-point indices that have
/// never been returned before, so the training set can grow by (say) 50
/// simulations per round until the cross-validation error estimate is
/// acceptable.
///
/// # Example
///
/// ```
/// use archpredict_stats::rng::Xoshiro256;
/// use archpredict_stats::sampling::IncrementalSampler;
/// let mut s = IncrementalSampler::new(1000, Xoshiro256::seed_from(1));
/// let a = s.next_batch(50);
/// let b = s.next_batch(50);
/// assert_eq!(s.drawn(), 100);
/// assert!(a.iter().all(|i| !b.contains(i)));
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalSampler {
    population: usize,
    swapped: HashMap<usize, usize>,
    drawn: usize,
    rng: Xoshiro256,
}

impl IncrementalSampler {
    /// Creates a sampler over `0..population`.
    pub fn new(population: usize, rng: Xoshiro256) -> Self {
        Self {
            population,
            swapped: HashMap::new(),
            drawn: 0,
            rng,
        }
    }

    /// Total population size.
    pub fn population(&self) -> usize {
        self.population
    }

    /// Number of indices drawn so far.
    pub fn drawn(&self) -> usize {
        self.drawn
    }

    /// Number of indices still available.
    pub fn remaining(&self) -> usize {
        self.population - self.drawn
    }

    /// Draws up to `k` fresh indices (fewer if the population is nearly
    /// exhausted). Never repeats an index across the lifetime of the sampler.
    pub fn next_batch(&mut self, k: usize) -> Vec<usize> {
        let k = k.min(self.remaining());
        let mut out = Vec::with_capacity(k);
        for _ in 0..k {
            let i = self.drawn;
            let j = i + self.rng.index(self.population - i);
            let vi = *self.swapped.get(&i).unwrap_or(&i);
            let vj = *self.swapped.get(&j).unwrap_or(&j);
            out.push(vj);
            self.swapped.insert(j, vi);
            self.drawn += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn partial_shuffle_prefix_is_a_distinct_sample() {
        let mut rng = Xoshiro256::seed_from(11);
        let mut items: Vec<usize> = (0..500).collect();
        partial_shuffle(&mut items, 40, &mut rng);
        let prefix: HashSet<usize> = items[..40].iter().copied().collect();
        assert_eq!(prefix.len(), 40);
        // Still a permutation of the original slice.
        let mut sorted = items.clone();
        sorted.sort();
        assert_eq!(sorted, (0..500).collect::<Vec<_>>());
        // Deterministic given the seed.
        let mut rng2 = Xoshiro256::seed_from(11);
        let mut items2: Vec<usize> = (0..500).collect();
        partial_shuffle(&mut items2, 40, &mut rng2);
        assert_eq!(items[..40], items2[..40]);
    }

    #[test]
    fn sample_without_replacement_is_distinct_and_in_range() {
        let mut rng = Xoshiro256::seed_from(4);
        let s = sample_without_replacement(100, 40, &mut rng);
        assert_eq!(s.len(), 40);
        let set: HashSet<_> = s.iter().copied().collect();
        assert_eq!(set.len(), 40);
        assert!(s.iter().all(|&i| i < 100));
    }

    #[test]
    fn sample_full_population_is_permutation() {
        let mut rng = Xoshiro256::seed_from(5);
        let mut s = sample_without_replacement(64, 64, &mut rng);
        s.sort();
        assert_eq!(s, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn sampling_is_roughly_uniform() {
        // Each of 10 items should appear in a 3-element sample ~30% of the time.
        let mut rng = Xoshiro256::seed_from(6);
        let mut counts = [0usize; 10];
        let trials = 30_000;
        for _ in 0..trials {
            for i in sample_without_replacement(10, 3, &mut rng) {
                counts[i] += 1;
            }
        }
        for &c in &counts {
            let frac = c as f64 / trials as f64;
            assert!((frac - 0.3).abs() < 0.02, "fraction {frac}");
        }
    }

    #[test]
    fn incremental_sampler_never_repeats_and_exhausts() {
        let mut s = IncrementalSampler::new(500, Xoshiro256::seed_from(7));
        let mut seen = HashSet::new();
        loop {
            let batch = s.next_batch(64);
            if batch.is_empty() {
                break;
            }
            for i in batch {
                assert!(seen.insert(i), "repeated index {i}");
                assert!(i < 500);
            }
        }
        assert_eq!(seen.len(), 500);
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn incremental_sampler_matches_one_shot_distributionally() {
        // First batch of k from the incremental sampler should be uniform:
        // check per-item inclusion frequency.
        let trials = 20_000;
        let mut counts = [0usize; 20];
        for t in 0..trials {
            let mut s = IncrementalSampler::new(20, Xoshiro256::seed_from(t as u64));
            for i in s.next_batch(5) {
                counts[i] += 1;
            }
        }
        for &c in &counts {
            let frac = c as f64 / trials as f64;
            assert!((frac - 0.25).abs() < 0.03, "fraction {frac}");
        }
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn oversampling_panics() {
        let mut rng = Xoshiro256::seed_from(1);
        sample_without_replacement(3, 4, &mut rng);
    }
}

/// Walker alias table for O(1) sampling from a fixed discrete distribution.
///
/// The paper trains for *percentage* error by presenting each training
/// point at a frequency proportional to the inverse of its target value
/// (§3.3); with thousands of presentations per epoch, sampling must be
/// constant-time.
///
/// # Example
///
/// ```
/// use archpredict_stats::rng::Xoshiro256;
/// use archpredict_stats::sampling::WeightedAlias;
/// let table = WeightedAlias::new(&[1.0, 0.0, 3.0]);
/// let mut rng = Xoshiro256::seed_from(1);
/// let i = table.sample(&mut rng);
/// assert!(i == 0 || i == 2);
/// ```
#[derive(Debug, Clone)]
pub struct WeightedAlias {
    prob: Vec<f64>,
    alias: Vec<usize>,
}

impl WeightedAlias {
    /// Builds the table from (unnormalized) non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// value, or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "empty weights");
        assert!(
            weights.iter().all(|&w| w >= 0.0 && w.is_finite()),
            "weights must be non-negative and finite"
        );
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must sum to a positive value");
        let n = weights.len();
        let mut prob: Vec<f64> = weights.iter().map(|w| w * n as f64 / total).collect();
        let mut alias = vec![0usize; n];
        let mut small: Vec<usize> = (0..n).filter(|&i| prob[i] < 1.0).collect();
        let mut large: Vec<usize> = (0..n).filter(|&i| prob[i] >= 1.0).collect();
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            alias[s] = l;
            prob[l] = prob[l] + prob[s] - 1.0;
            if prob[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Numerical slack: leftovers are certain.
        for i in small.into_iter().chain(large) {
            prob[i] = 1.0;
        }
        Self { prob, alias }
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Whether the table is empty (never true for a constructed table).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws one index according to the weights.
    #[inline]
    pub fn sample(&self, rng: &mut Xoshiro256) -> usize {
        let i = rng.index(self.prob.len());
        if rng.next_f64() < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }
}

#[cfg(test)]
mod alias_tests {
    use super::*;

    #[test]
    fn matches_weights_statistically() {
        let weights = [1.0, 2.0, 3.0, 4.0];
        let table = WeightedAlias::new(&weights);
        let mut rng = Xoshiro256::seed_from(31);
        let mut counts = [0usize; 4];
        let n = 100_000;
        for _ in 0..n {
            counts[table.sample(&mut rng)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let expect = weights[i] / 10.0;
            let got = c as f64 / n as f64;
            assert!((got - expect).abs() < 0.01, "bucket {i}: {got} vs {expect}");
        }
    }

    #[test]
    fn zero_weight_entries_never_drawn() {
        let table = WeightedAlias::new(&[0.0, 5.0, 0.0]);
        let mut rng = Xoshiro256::seed_from(32);
        for _ in 0..10_000 {
            assert_eq!(table.sample(&mut rng), 1);
        }
    }

    #[test]
    fn single_outcome() {
        let table = WeightedAlias::new(&[7.0]);
        let mut rng = Xoshiro256::seed_from(33);
        assert_eq!(table.sample(&mut rng), 0);
        assert_eq!(table.len(), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn all_zero_weights_panic() {
        WeightedAlias::new(&[0.0, 0.0]);
    }
}
