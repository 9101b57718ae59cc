//! SimPoint-style representative-interval selection.
//!
//! Reimplements the technique of Sherwood et al. (ASPLOS 2002) that the
//! paper composes with its ANN models (§5.3): program execution is divided
//! into fixed-length intervals; each interval is fingerprinted by its
//! **basic-block vector** (BBV); BBVs are reduced by random projection and
//! clustered with k-means (cluster count chosen by the Bayesian Information
//! Criterion); one representative interval per cluster is selected and
//! weighted by its cluster's share of the program. Whole-program metrics are
//! the weighted average of the representatives' metrics: `SimPointEvaluator`,
//! in the `archpredict` crate's `simulate` module, computes that estimate
//! through the same packed-interval path as full simulation.
//!
//! The result is a *fast but noisy* estimator of the simulator function —
//! exactly the kind of data source the paper shows ANN ensembles tolerate
//! well.
//!
//! # Example
//!
//! ```
//! use archpredict_simpoint::SimPointPlan;
//! use archpredict_workloads::{Benchmark, TraceGenerator};
//!
//! let generator = TraceGenerator::new(Benchmark::Mgrid);
//! let plan = SimPointPlan::build(&generator, 5_000, 10);
//! assert!(plan.points().len() <= 10);
//! // Weights cover the whole program.
//! let total: f64 = plan.points().iter().map(|p| p.weight).sum();
//! assert!((total - 1.0).abs() < 1e-9);
//! ```

pub mod project;

use archpredict_stats::kmeans::kmeans_best_bic;
use archpredict_stats::rng::Xoshiro256;
use archpredict_workloads::TraceGenerator;

/// Dimensionality BBVs are reduced to before clustering (SimPoint uses 15).
pub const PROJECTED_DIMS: usize = 15;

/// One selected simulation point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimPoint {
    /// Interval index to simulate in detail.
    pub interval: usize,
    /// Fraction of program execution this point represents.
    pub weight: f64,
}

/// A complete SimPoint selection for one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct SimPointPlan {
    points: Vec<SimPoint>,
    interval_len: usize,
    total_intervals: usize,
}

impl SimPointPlan {
    /// Profiles all intervals of `generator` (BBVs over `interval_len`
    /// instructions each), clusters them, and selects one representative
    /// per cluster, weighted by cluster population.
    ///
    /// `max_k` caps the number of simulation points, as in SimPoint's
    /// "maxK" parameter.
    ///
    /// # Panics
    ///
    /// Panics if `interval_len` is zero or `max_k` is zero.
    pub fn build(generator: &TraceGenerator, interval_len: usize, max_k: usize) -> Self {
        assert!(interval_len > 0, "interval_len must be positive");
        assert!(max_k > 0, "max_k must be positive");
        let total_intervals = generator.num_intervals();
        // 1. Profile: one BBV per interval.
        let bbvs: Vec<Vec<f64>> = (0..total_intervals)
            .map(|i| generator.bbv(i, interval_len))
            .collect();
        // 2. Random projection to a tractable dimensionality.
        let seed = generator.profile().seed ^ 0x51D0_9001;
        let projected = project::random_projection(&bbvs, PROJECTED_DIMS, seed);
        // 3. Cluster with BIC-selected k.
        let mut rng = Xoshiro256::seed_from(seed ^ 0xC105_7E12);
        let (_, clustering) =
            kmeans_best_bic(&projected, max_k.min(total_intervals), 100, &mut rng);
        // 4. One representative per cluster, weighted by cluster size.
        let reps = clustering.representatives(&projected);
        let sizes = clustering.cluster_sizes();
        let points = reps
            .iter()
            .zip(&sizes)
            .filter(|&(_, &size)| size > 0)
            .map(|(&rep, &size)| SimPoint {
                interval: rep,
                weight: size as f64 / total_intervals as f64,
            })
            .collect();
        Self {
            points,
            interval_len,
            total_intervals,
        }
    }

    /// The selected simulation points.
    pub fn points(&self) -> &[SimPoint] {
        &self.points
    }

    /// Interval length (instructions) used for profiling and simulation.
    pub fn interval_len(&self) -> usize {
        self.interval_len
    }

    /// Number of intervals in the whole program.
    pub fn total_intervals(&self) -> usize {
        self.total_intervals
    }

    /// Instructions that must be simulated under this plan.
    pub fn simulated_instructions(&self) -> u64 {
        (self.points.len() * self.interval_len) as u64
    }

    /// Instructions a full-program simulation would cost.
    pub fn full_instructions(&self) -> u64 {
        (self.total_intervals * self.interval_len) as u64
    }

    /// The factor by which this plan reduces simulated instructions.
    pub fn reduction_factor(&self) -> f64 {
        self.full_instructions() as f64 / self.simulated_instructions() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archpredict_workloads::Benchmark;

    const LEN: usize = 4000;

    #[test]
    fn plan_covers_all_phases() {
        let generator = TraceGenerator::new(Benchmark::Mgrid);
        let plan = SimPointPlan::build(&generator, LEN, 10);
        // mgrid has 3 phases; the representatives must span at least 3
        // distinct phases (clusters track phases).
        let mut phases: Vec<usize> = plan
            .points()
            .iter()
            .map(|p| generator.phase_of_interval(p.interval))
            .collect();
        phases.sort();
        phases.dedup();
        assert!(phases.len() >= 3, "only phases {phases:?} covered");
    }

    #[test]
    fn weights_sum_to_one_and_are_positive() {
        for b in [Benchmark::Gzip, Benchmark::Twolf, Benchmark::Equake] {
            let generator = TraceGenerator::new(b);
            let plan = SimPointPlan::build(&generator, LEN, 8);
            let total: f64 = plan.points().iter().map(|p| p.weight).sum();
            assert!((total - 1.0).abs() < 1e-9, "{}: {total}", b.name());
            assert!(plan.points().iter().all(|p| p.weight > 0.0));
        }
    }

    #[test]
    fn reduction_factor_is_meaningful() {
        let generator = TraceGenerator::new(Benchmark::Mcf);
        let plan = SimPointPlan::build(&generator, LEN, 6);
        assert!(
            plan.reduction_factor() >= 4.0,
            "reduction {}",
            plan.reduction_factor()
        );
    }

    #[test]
    fn plan_is_deterministic() {
        let generator = TraceGenerator::new(Benchmark::Mesa);
        let a = SimPointPlan::build(&generator, LEN, 8);
        let b = SimPointPlan::build(&generator, LEN, 8);
        assert_eq!(a, b);
    }

    #[test]
    fn interval_indices_are_in_range() {
        let generator = TraceGenerator::new(Benchmark::Applu);
        let plan = SimPointPlan::build(&generator, LEN, 8);
        assert!(plan
            .points()
            .iter()
            .all(|p| p.interval < generator.num_intervals()));
    }
}
