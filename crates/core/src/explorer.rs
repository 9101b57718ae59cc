//! The incremental design-space exploration loop (§3.3's procedure).
//!
//! Since the campaign-engine refactor this module is a thin façade over
//! [`crate::campaign`]: an [`Explorer`] *is* a [`Campaign`] running the
//! paper's plain design-point encoding ([`PlainEncoder`]), and
//! [`ExplorerConfig`] is the engine's [`CampaignConfig`]. The canonical
//! round loop — select batch, simulate with quarantine/resample, encode,
//! fit the cross-validation ensemble, record the error estimate — lives in
//! [`Campaign::try_step`]; every name here is an alias or re-export kept
//! so existing callers are unaffected.

use crate::campaign::{Campaign, PlainEncoder};

pub use crate::campaign::{CampaignConfig, ExploreError, Round, TrueError};

/// Exploration policy (the engine's [`CampaignConfig`] under its
/// pre-refactor name).
pub type ExplorerConfig = CampaignConfig;

/// The incremental explorer: the campaign engine with the paper's plain
/// design-point encoding. See [`Campaign`] for every method.
pub type Explorer<'a, E> = Campaign<'a, E, PlainEncoder>;

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::param::Param;
    use crate::sampling::Strategy;
    use crate::simulate::{PointEvaluator, SimError, SimResult};
    use crate::space::{DesignPoint, DesignSpace};
    use archpredict_ann::Parallelism;

    /// A cheap synthetic "simulator" over a 3-parameter space.
    struct Synthetic {
        space: DesignSpace,
    }

    fn space() -> DesignSpace {
        DesignSpace::new(vec![
            Param::cardinal("a", (0..12).map(|i| i as f64).collect::<Vec<_>>()),
            Param::cardinal("b", (0..12).map(|i| i as f64).collect::<Vec<_>>()),
            Param::nominal("mode", ["x", "y", "z"]),
        ])
        .unwrap()
    }

    impl PointEvaluator for Synthetic {
        fn evaluate(&self, point: &DesignPoint) -> f64 {
            let a = self.space.number(point, "a") / 11.0;
            let b = self.space.number(point, "b") / 11.0;
            let mode = point.level(2) as f64;
            0.3 + 0.5 * (a * 2.0).sin().abs() + 0.3 * a * b + 0.1 * mode
        }
        fn instructions_per_evaluation(&self) -> u64 {
            1
        }
    }

    fn explorer_config() -> ExplorerConfig {
        ExplorerConfig {
            batch: 40,
            folds: 10,
            target_error: 1.0,
            max_samples: 240,
            ..ExplorerConfig::default()
        }
    }

    #[test]
    fn error_estimate_decreases_with_more_data() {
        let space = space();
        let synthetic = Synthetic {
            space: space.clone(),
        };
        let mut explorer = Explorer::new(&space, &synthetic, explorer_config());
        let first = explorer.step().estimate.mean;
        for _ in 0..4 {
            explorer.step();
        }
        let last = explorer.history().last().unwrap().estimate.mean;
        assert!(
            last < first,
            "estimate should fall: first {first:.2}%, last {last:.2}%"
        );
    }

    #[test]
    fn run_stops_at_target_or_cap() {
        let space = space();
        let synthetic = Synthetic {
            space: space.clone(),
        };
        let mut explorer = Explorer::new(&space, &synthetic, explorer_config());
        let final_round = explorer.run().clone();
        assert!(
            final_round.estimate.mean <= 1.0 || final_round.samples >= 240,
            "{final_round:?}"
        );
        assert_eq!(explorer.samples(), final_round.samples);
    }

    #[test]
    fn estimate_tracks_true_error() {
        let space = space();
        let synthetic = Synthetic {
            space: space.clone(),
        };
        let mut explorer = Explorer::new(&space, &synthetic, explorer_config());
        for _ in 0..4 {
            explorer.step();
        }
        let held_out = explorer.held_out_set(120);
        let true_error = explorer.true_error(&held_out);
        let estimate = explorer.history().last().unwrap().estimate;
        assert!(
            (true_error.mean - estimate.mean).abs() < estimate.mean.max(1.5),
            "true {:.2}% vs estimated {:.2}%",
            true_error.mean,
            estimate.mean
        );
    }

    #[test]
    fn held_out_set_is_disjoint_from_training() {
        let space = space();
        let synthetic = Synthetic {
            space: space.clone(),
        };
        let mut explorer = Explorer::new(&space, &synthetic, explorer_config());
        explorer.step();
        let held_out = explorer.held_out_set(100);
        let trained: std::collections::HashSet<_> =
            explorer.sampled_indices().iter().copied().collect();
        assert!(held_out.iter().all(|i| !trained.contains(i)));
        assert_eq!(held_out.len(), 100);
    }

    #[test]
    fn tiny_first_batch_errors_then_recovers() {
        // Regression: batch=2 used to panic inside fit_ensemble (folds
        // clamped to dataset len 2, tripping the folds >= 3 assertion).
        let space = space();
        let synthetic = Synthetic {
            space: space.clone(),
        };
        let config = ExplorerConfig {
            batch: 2,
            ..explorer_config()
        };
        let mut explorer = Explorer::new(&space, &synthetic, config);
        assert_eq!(
            explorer.try_step(),
            Err(ExploreError::TooFewSamples { have: 2 })
        );
        // The two simulated points were kept; the next batch reaches 4
        // samples and trains with the fold count clamped to 4.
        let round = explorer.try_step().expect("4 samples can train").clone();
        assert_eq!(round.samples, 4);
        assert_eq!(round.folds.len(), 4);
        assert!(explorer.ensemble().is_some());
    }

    #[test]
    #[should_panic(expected = "cross-validation needs at least 3")]
    fn step_panics_with_typed_message_on_tiny_batch() {
        let space = space();
        let synthetic = Synthetic {
            space: space.clone(),
        };
        let config = ExplorerConfig {
            batch: 1,
            ..explorer_config()
        };
        Explorer::new(&space, &synthetic, config).step();
    }

    #[test]
    fn held_out_set_truncates_near_space_exhaustion() {
        // Regression: the old rejection loop degenerated (and silently
        // under-filled) once most of the space was sampled.
        let space = space(); // 12 * 12 * 3 = 432 points
        let synthetic = Synthetic {
            space: space.clone(),
        };
        let config = ExplorerConfig {
            batch: 100,
            max_samples: 400,
            target_error: 0.0,
            ..explorer_config()
        };
        let mut explorer = Explorer::new(&space, &synthetic, config);
        for _ in 0..4 {
            explorer.step(); // 400 of 432 points simulated
        }
        let trained: std::collections::HashSet<_> =
            explorer.sampled_indices().iter().copied().collect();
        assert_eq!(trained.len(), 400);

        // Asking for more than the 32 remaining points returns all 32.
        let held_out = explorer.held_out_set(100);
        assert_eq!(held_out.len(), 32);
        assert!(held_out.iter().all(|i| !trained.contains(i)));
        let distinct: std::collections::HashSet<_> = held_out.iter().copied().collect();
        assert_eq!(distinct.len(), 32);

        // A smaller request draws from the same deterministic stream.
        let smaller = explorer.held_out_set(10);
        assert_eq!(smaller.len(), 10);
        assert_eq!(smaller, explorer.held_out_set(10));
        assert!(smaller.iter().all(|i| !trained.contains(i)));
    }

    #[test]
    fn round_records_fold_telemetry() {
        let space = space();
        let synthetic = Synthetic {
            space: space.clone(),
        };
        let mut explorer = Explorer::new(&space, &synthetic, explorer_config());
        let round = explorer.step().clone();
        assert_eq!(round.folds.len(), 10);
        assert!(round.mean_epochs() > 0.0);
        assert!(round.simulation_seconds >= 0.0);
        // The oracle accounted for every point in the batch: a bare
        // evaluator simulates all of them, hitting no cache.
        assert_eq!(round.simulation.unique_simulations, round.samples as u64);
        assert_eq!(round.simulation.cache_hits, 0);
        assert_eq!(
            round.simulation.simulated_instructions,
            round.samples as u64
        );
        // Per-fold wall time is a breakdown of (overlapping) training work.
        assert!(round.folds.iter().all(|f| f.seconds >= 0.0 && f.epochs > 0));
        let pooled: usize = round.folds.iter().map(|f| f.test_samples).sum();
        assert_eq!(pooled, round.samples);
    }

    #[test]
    fn batches_never_repeat_points() {
        let space = space();
        let synthetic = Synthetic {
            space: space.clone(),
        };
        let mut explorer = Explorer::new(&space, &synthetic, explorer_config());
        for _ in 0..5 {
            explorer.step();
        }
        let mut seen = std::collections::HashSet::new();
        for &i in explorer.sampled_indices() {
            assert!(seen.insert(i), "index {i} simulated twice");
        }
    }

    #[test]
    fn predict_space_is_identical_at_every_thread_count() {
        let space = space();
        let synthetic = Synthetic {
            space: space.clone(),
        };
        let mut explorer = Explorer::new(&space, &synthetic, explorer_config());
        explorer.step();
        let reference = explorer.predict_space_with(Parallelism::Fixed(1));
        assert_eq!(reference.len(), space.size());
        for parallelism in [Parallelism::Fixed(4), Parallelism::Auto] {
            assert_eq!(
                reference,
                explorer.predict_space_with(parallelism),
                "{parallelism:?}"
            );
        }
        // And the batched sweep is bit-for-bit the point-at-a-time path.
        for (i, &batched) in reference.iter().enumerate().step_by(37) {
            assert_eq!(explorer.predict(i), batched, "index {i}");
        }
        assert_eq!(explorer.predict_space(), reference);
    }

    #[test]
    fn rank_space_orders_best_first_with_index_tiebreak() {
        let space = space();
        let synthetic = Synthetic {
            space: space.clone(),
        };
        let mut explorer = Explorer::new(&space, &synthetic, explorer_config());
        explorer.step();
        let predictions = explorer.predict_space();
        let order = explorer.rank_space();
        assert_eq!(order.len(), space.size());
        for pair in order.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            assert!(
                predictions[a] > predictions[b] || (predictions[a] == predictions[b] && a < b),
                "rank order violated at {a} -> {b}"
            );
        }
    }

    #[test]
    fn prediction_seconds_recorded_only_when_scoring() {
        let space = space();
        let synthetic = Synthetic {
            space: space.clone(),
        };
        // Random sampling never predicts during selection.
        let mut random = Explorer::new(&space, &synthetic, explorer_config());
        random.step();
        assert_eq!(random.history()[0].prediction_seconds, 0.0);
        // Active learning scores candidates from round 2 on.
        let config = ExplorerConfig {
            strategy: Strategy::Active { pool_factor: 3 },
            ..explorer_config()
        };
        let mut active = Explorer::new(&space, &synthetic, config);
        active.step();
        assert_eq!(active.history()[0].prediction_seconds, 0.0);
        active.step();
        assert!(active.history()[1].prediction_seconds > 0.0);
    }

    /// A synthetic simulator that permanently fails on every 7th index.
    struct Faulty {
        space: DesignSpace,
    }

    impl PointEvaluator for Faulty {
        fn evaluate(&self, point: &DesignPoint) -> f64 {
            Synthetic {
                space: self.space.clone(),
            }
            .evaluate(point)
        }
        fn try_evaluate(&self, point: &DesignPoint) -> SimResult {
            if self.space.index(point).is_multiple_of(7) {
                Err(SimError::Crashed)
            } else {
                Ok(self.evaluate(point))
            }
        }
        fn instructions_per_evaluation(&self) -> u64 {
            1
        }
    }

    #[test]
    fn failed_points_are_quarantined_and_resampled_to_budget() {
        let space = space();
        let faulty = Faulty {
            space: space.clone(),
        };
        let mut explorer = Explorer::new(&space, &faulty, explorer_config());
        let round = explorer.step().clone();
        // Every round still reaches its 40-point budget despite ~1/7 of
        // draws failing, via replacement draws.
        assert_eq!(round.samples, 40);
        assert!(round.simulation.failures > 0, "{:?}", round.simulation);
        assert!(round.simulation.resampled >= round.simulation.failures);
        let quarantined = explorer.quarantined();
        assert!(!quarantined.is_empty());
        assert!(quarantined.iter().all(|i| i % 7 == 0));
        // Quarantined points never enter the training set or held-out set
        // (the held-out filter can only know about *observed* failures).
        assert!(explorer.sampled_indices().iter().all(|i| i % 7 != 0));
        let held_out = explorer.held_out_set(200);
        assert!(held_out.iter().all(|i| !quarantined.contains(i)));
        // And the whole faulty run is deterministic.
        let mut again = Explorer::new(&space, &faulty, explorer_config());
        let round2 = again.step().clone();
        assert_eq!(round2.samples, round.samples);
        assert_eq!(round2.simulation.failures, round.simulation.failures);
        assert_eq!(again.sampled_indices(), explorer.sampled_indices());
    }

    #[test]
    fn true_error_skips_failed_held_out_points() {
        let space = space();
        let faulty = Faulty {
            space: space.clone(),
        };
        let mut explorer = Explorer::new(&space, &faulty, explorer_config());
        explorer.step();
        // Hand-pick a held-out set that includes perma-failing indices not
        // yet quarantined (held_out_set already excludes known ones).
        let sampled: std::collections::HashSet<_> =
            explorer.sampled_indices().iter().copied().collect();
        let held_out: Vec<usize> = (0..space.size()).filter(|i| !sampled.contains(i)).collect();
        let failing = held_out.iter().filter(|i| *i % 7 == 0).count();
        assert!(failing > 0);
        let error = explorer.try_true_error(&held_out).expect("some survive");
        assert_eq!(error.points as usize, held_out.len() - failing);
        assert_eq!(
            explorer.try_true_error(&[]),
            Err(ExploreError::EmptyHeldOut)
        );
    }

    #[test]
    fn predict_before_first_round_is_a_typed_error() {
        let space = space();
        let synthetic = Synthetic {
            space: space.clone(),
        };
        let explorer = Explorer::new(&space, &synthetic, explorer_config());
        assert_eq!(explorer.try_predict(0), Err(ExploreError::NoEnsemble));
        assert_eq!(explorer.try_predict_space(), Err(ExploreError::NoEnsemble));
        assert_eq!(explorer.try_rank_space(), Err(ExploreError::NoEnsemble));
    }

    #[test]
    #[should_panic(expected = "no ensemble trained yet")]
    fn predict_before_first_round_panics_with_stable_message() {
        let space = space();
        let synthetic = Synthetic {
            space: space.clone(),
        };
        Explorer::new(&space, &synthetic, explorer_config()).predict(0);
    }

    #[test]
    fn prediction_is_close_after_training() {
        let space = space();
        let synthetic = Synthetic {
            space: space.clone(),
        };
        let mut explorer = Explorer::new(&space, &synthetic, explorer_config());
        for _ in 0..5 {
            explorer.step();
        }
        let idx = explorer.held_out_set(1)[0];
        let predicted = explorer.predict(idx);
        let actual = synthetic.evaluate(&space.point(idx));
        assert!(
            (predicted - actual).abs() / actual < 0.10,
            "{predicted} vs {actual}"
        );
    }
}
