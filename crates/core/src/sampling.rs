//! Point-selection strategies for the refinement loop.
//!
//! The paper samples the space uniformly at random ([`Strategy::Random`]).
//! Its future-work section (§7) proposes **active learning**: let the
//! model pick the points it would learn most from.
//! [`Strategy::Active`] implements query-by-committee — candidate points
//! are scored by the disagreement (standard deviation) among the
//! cross-validation ensemble's member networks, and the most contentious
//! candidates are simulated first.

use crate::campaign::Encoder;
use crate::space::DesignSpace;
use archpredict_ann::{Ensemble, Parallelism};
use archpredict_stats::sampling::IncrementalSampler;

/// How each refinement round chooses its new design points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// Uniform random sampling without replacement (the paper's method).
    Random,
    /// Query-by-committee active learning (§7 future work): draw
    /// `pool_factor × batch` random candidates and keep the `batch` with
    /// the highest ensemble disagreement.
    Active {
        /// Candidate pool multiplier (e.g. 4 ⇒ score 4× the batch size).
        pool_factor: usize,
    },
}

/// Draws the next batch under the active-learning strategy.
///
/// Falls back to plain random sampling for the first round (no ensemble
/// exists to disagree yet). A pool of `batch * pool_factor` fresh
/// candidates is drawn from the sampler, encoded through the campaign's
/// [`Encoder`], and scored by committee disagreement through the batched
/// inference path ([`crate::infer::disagreement_encoded`]), parallelized
/// per `parallelism`; the top `batch` are simulated. Scores are
/// bit-for-bit identical at every thread count, so the selected batch is
/// too. Rejected candidates are permanently skipped (never simulated),
/// trading a little coverage for informativeness — acceptable because the
/// pool is a vanishing fraction of the space.
pub(crate) fn active_batch<C: Encoder + ?Sized>(
    sampler: &mut IncrementalSampler,
    ensemble: Option<&Ensemble>,
    batch: usize,
    pool_factor: usize,
    parallelism: Parallelism,
    space: &DesignSpace,
    encoder: &C,
) -> Vec<usize> {
    let Some(ensemble) = ensemble else {
        return sampler.next_batch(batch);
    };
    let pool = sampler.next_batch(batch * pool_factor.max(1));
    if pool.len() <= batch {
        return pool;
    }
    let scores = crate::infer::disagreement_encoded(ensemble, space, encoder, &pool, parallelism);
    let mut scored: Vec<(f64, usize)> = scores.into_iter().zip(pool).collect();
    // Highest disagreement first; the sort is stable, so ties keep the
    // pool's (random) draw order.
    scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite disagreement"));
    scored.into_iter().take(batch).map(|(_, i)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::PlainEncoder;
    use crate::param::Param;
    use archpredict_stats::rng::Xoshiro256;

    fn space() -> DesignSpace {
        DesignSpace::new(vec![
            Param::cardinal("a", (0..10).map(f64::from).collect::<Vec<_>>()),
            Param::cardinal("b", (0..10).map(f64::from).collect::<Vec<_>>()),
        ])
        .unwrap()
    }

    #[test]
    fn first_round_falls_back_to_random() {
        let space = space();
        let mut sampler = IncrementalSampler::new(space.size(), Xoshiro256::seed_from(1));
        let batch = active_batch(
            &mut sampler,
            None,
            10,
            4,
            Parallelism::Auto,
            &space,
            &PlainEncoder,
        );
        assert_eq!(batch.len(), 10);
    }

    #[test]
    fn active_batch_returns_requested_size_and_fresh_points() {
        use archpredict_ann::{fit_ensemble, Dataset, Sample, TrainConfig};
        let space = space();
        // Train a tiny ensemble so disagreement is defined.
        let data: Dataset = (0..40)
            .map(|i| {
                let p = space.point(i);
                Sample::new(space.encode(&p), 0.5 + 0.1 * (i % 7) as f64)
            })
            .collect();
        let config = TrainConfig {
            max_epochs: 30,
            ..TrainConfig::default()
        };
        let fit = fit_ensemble(&data, 5, &config, 3);
        let mut sampler = IncrementalSampler::new(space.size(), Xoshiro256::seed_from(4));
        let batch = active_batch(
            &mut sampler,
            Some(&fit.ensemble),
            8,
            3,
            Parallelism::Auto,
            &space,
            &PlainEncoder,
        );
        assert_eq!(batch.len(), 8);
        let unique: std::collections::HashSet<_> = batch.iter().collect();
        assert_eq!(unique.len(), 8);
    }

    #[test]
    fn selection_is_identical_at_every_thread_count() {
        use archpredict_ann::{fit_ensemble, Dataset, Sample, TrainConfig};
        let space = space();
        let data: Dataset = (0..40)
            .map(|i| {
                let p = space.point(i);
                Sample::new(space.encode(&p), 0.5 + 0.1 * (i % 7) as f64)
            })
            .collect();
        let config = TrainConfig {
            max_epochs: 30,
            ..TrainConfig::default()
        };
        let fit = fit_ensemble(&data, 5, &config, 3);
        let run = |parallelism| {
            let mut sampler = IncrementalSampler::new(space.size(), Xoshiro256::seed_from(9));
            active_batch(
                &mut sampler,
                Some(&fit.ensemble),
                8,
                3,
                parallelism,
                &space,
                &PlainEncoder,
            )
        };
        let reference = run(Parallelism::Fixed(1));
        assert_eq!(reference, run(Parallelism::Fixed(4)));
        assert_eq!(reference, run(Parallelism::Auto));
    }
}
