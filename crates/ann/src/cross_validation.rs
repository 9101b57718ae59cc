//! k-fold cross-validation ensembles with error estimation (paper §3.2).
//!
//! The dataset is split into `k` folds. Model `m` trains on all folds
//! except `m` (its test fold) and `m+1 mod k` (its early-stopping fold) —
//! the rotation of Fig. 3.3. The `k` networks are averaged into an
//! [`Ensemble`]; the per-point percentage errors each model makes on its
//! own held-out test fold are pooled into the **error estimate**, the
//! quantity that lets the architect decide when to stop simulating.
//!
//! The `k` folds are independent — each trains from its own RNG stream
//! derived from the fit seed — so [`fit_ensemble`] fans them out across
//! worker threads (see [`crate::train::Parallelism`]). Fold results are
//! joined in fold index order before the error estimate is pooled, making
//! the parallel and sequential paths bit-for-bit identical.

use crate::dataset::{fold_ranges, Dataset, Sample};
use crate::ensemble::Ensemble;
use crate::network::{transpose, PredictScratch};
use crate::train::{train_network, TrainConfig};
use archpredict_stats::describe::{percent_error, Accumulator};
use archpredict_stats::rng::Xoshiro256;

/// Cross-validation estimate of model error over the full design space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorEstimate {
    /// Estimated mean absolute percentage error.
    pub mean: f64,
    /// Estimated standard deviation of the percentage error.
    pub std_dev: f64,
    /// Number of held-out points the estimate pools.
    pub points: u64,
}

/// Training telemetry from one fold's model.
#[derive(Debug, Clone, PartialEq)]
pub struct FoldRecord {
    /// Fold index (also the model's test-fold index).
    pub fold: usize,
    /// Samples the model trained on.
    pub train_samples: usize,
    /// Samples in the early-stopping fold.
    pub es_samples: usize,
    /// Samples in the test fold pooled into the error estimate.
    pub test_samples: usize,
    /// Epochs actually run before early stopping.
    pub epochs: usize,
    /// Best mean absolute percentage error on the early-stopping fold.
    pub best_es_error: f64,
    /// Wall-clock seconds spent training this fold (when folds train in
    /// parallel these overlap, so they sum to more than elapsed time).
    pub seconds: f64,
    /// Times this fold was reinitialized after detecting training
    /// divergence (non-finite early-stopping error). `0` on healthy folds.
    pub reinits: u32,
}

/// Bounded attempts at re-training a diverged fold before giving up and
/// keeping its best finite snapshot.
pub const MAX_FOLD_REINITS: u32 = 3;

/// Learning-rate decay applied on each divergence reinit. A divergence is
/// almost always a step-size instability, so a fresh seed alone rarely
/// helps; shrinking the step makes recovery deterministic.
pub const REINIT_LR_DECAY: f64 = 0.1;

/// Result of fitting a cross-validation ensemble.
#[derive(Debug, Clone, PartialEq)]
pub struct CvFit {
    /// The averaged ensemble of `k` networks.
    pub ensemble: Ensemble,
    /// Cross-validation error estimate.
    pub estimate: ErrorEstimate,
    /// Per-fold training telemetry, in fold order.
    pub folds: Vec<FoldRecord>,
}

/// Everything one fold produces, carried back to the join point.
struct FoldOutput {
    model: crate::train::TrainedModel,
    /// Per-test-point percentage errors, in test-fold sample order.
    errors: Vec<f64>,
    record: FoldRecord,
}

/// Trains a `folds`-fold cross-validation ensemble on `dataset`.
///
/// The sample order is randomized (seeded) before fold assignment, then
/// each of the `folds` models trains per Fig. 3.3. Folds fan out across
/// worker threads per `config.parallelism`; each fold seeds its network
/// from its own derived RNG stream and results are joined in fold order,
/// so the returned fit is **bit-for-bit identical** for any thread count.
/// Returns the ensemble, the pooled error estimate, and per-fold telemetry
/// (wall seconds in [`FoldRecord::seconds`] are the only fields that vary
/// between runs).
///
/// # Panics
///
/// Panics if `folds < 3` (a model needs disjoint train/ES/test folds) or
/// the dataset has fewer samples than folds.
pub fn fit_ensemble(dataset: &Dataset, folds: usize, config: &TrainConfig, seed: u64) -> CvFit {
    assert!(folds >= 3, "cross validation needs at least 3 folds");
    assert!(
        dataset.len() >= folds,
        "dataset smaller than fold count ({} < {folds})",
        dataset.len()
    );
    let mut rng = Xoshiro256::seed_from(seed);
    let mut order: Vec<usize> = (0..dataset.len()).collect();
    archpredict_stats::sampling::shuffle(&mut order, &mut rng);
    let (rng, order) = (rng, order); // freeze: folds only derive() from here
                                     // Position → fold lookup table: O(n) once, instead of a linear scan
                                     // over the fold ranges for every (fold, position) pair.
    let ranges = fold_ranges(dataset.len(), folds);
    let mut fold_of = vec![0usize; dataset.len()];
    for (fold, &(start, end)) in ranges.iter().enumerate() {
        for entry in &mut fold_of[start..end] {
            *entry = fold;
        }
    }

    let samples = dataset.samples();
    // `derive` is pure (it does not advance `rng`), so fold RNGs do not
    // depend on the order folds are trained in.
    let run_fold = |m: usize| -> FoldOutput {
        let started = std::time::Instant::now();
        let es_fold = (m + 1) % folds;
        let mut train: Vec<&Sample> = Vec::new();
        let mut es: Vec<&Sample> = Vec::new();
        let mut test: Vec<&Sample> = Vec::new();
        for (position, &sample_idx) in order.iter().enumerate() {
            let sample = &samples[sample_idx];
            if fold_of[position] == m {
                test.push(sample);
            } else if fold_of[position] == es_fold {
                es.push(sample);
            } else {
                train.push(sample);
            }
        }
        let mut model_rng = rng.derive(m as u64 + 1);
        let mut fold_config = *config;
        let mut model = train_network(&train, &es, &fold_config, &mut model_rng);
        let mut reinits = 0u32;
        while model.diverged && reinits < MAX_FOLD_REINITS {
            reinits += 1;
            // Base fold streams are 1..=folds, so reinit streams start at
            // folds + 1 and can never collide with another fold's stream.
            model_rng = rng.derive(m as u64 + 1 + (folds as u64) * reinits as u64);
            fold_config.learning_rate *= REINIT_LR_DECAY;
            model = train_network(&train, &es, &fold_config, &mut model_rng);
        }
        // The test fold is scored as one feature-major block.
        let rows: Vec<f64> = test
            .iter()
            .flat_map(|s| s.features.iter().copied())
            .collect();
        let errors: Vec<f64> = model
            .predict_block(
                &transpose(&rows, model.input_dims()),
                test.len(),
                &mut PredictScratch::default(),
            )
            .zip(&test)
            .map(|(predicted, s)| percent_error(predicted, s.target))
            .collect();
        let record = FoldRecord {
            fold: m,
            train_samples: train.len(),
            es_samples: es.len(),
            test_samples: test.len(),
            epochs: model.epochs,
            best_es_error: model.best_es_error,
            seconds: started.elapsed().as_secs_f64(),
            reinits,
        };
        FoldOutput {
            model,
            errors,
            record,
        }
    };

    let workers = config.parallelism.worker_count(folds);
    let outputs: Vec<FoldOutput> = if workers <= 1 {
        (0..folds).map(run_fold).collect()
    } else {
        // Fan folds out round-robin across workers (fold m goes to worker
        // m % workers, keeping chunk sizes balanced), writing each result
        // into its own slot so the join below reads them in fold order.
        let mut slots: Vec<Option<FoldOutput>> = (0..folds).map(|_| None).collect();
        std::thread::scope(|scope| {
            for (worker, slot_chunk) in slots.chunks_mut(folds.div_ceil(workers)).enumerate() {
                let first = worker * folds.div_ceil(workers);
                let run_fold = &run_fold;
                scope.spawn(move || {
                    for (offset, slot) in slot_chunk.iter_mut().enumerate() {
                        *slot = Some(run_fold(first + offset));
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every fold trains"))
            .collect()
    };

    // Join in fold index order: the estimate pools per-point errors in
    // exactly the order the sequential loop produced them.
    let mut models = Vec::with_capacity(folds);
    let mut records = Vec::with_capacity(folds);
    let mut errors = Accumulator::new();
    for output in outputs {
        for &e in &output.errors {
            errors.add(e);
        }
        models.push(output.model);
        records.push(output.record);
    }

    CvFit {
        ensemble: Ensemble::new(models),
        estimate: ErrorEstimate {
            mean: errors.mean(),
            std_dev: errors.population_std_dev(),
            points: errors.count(),
        },
        folds: records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn target_fn(a: f64, b: f64, c: f64) -> f64 {
        0.2 + 0.6 * (a * 2.5).sin().abs() + 0.3 * b * c + 0.2 * c
    }

    fn dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = Xoshiro256::seed_from(seed);
        (0..n)
            .map(|_| {
                let (a, b, c) = (rng.next_f64(), rng.next_f64(), rng.next_f64());
                Sample::new(vec![a, b, c], target_fn(a, b, c))
            })
            .collect()
    }

    #[test]
    fn estimate_tracks_true_error() {
        let train = dataset(500, 1);
        let fit = fit_ensemble(&train, 10, &TrainConfig::default(), 42);

        // True error on unseen points.
        let test = dataset(400, 2);
        let mut acc = Accumulator::new();
        for s in test.iter() {
            acc.add(percent_error(fit.ensemble.predict(&s.features), s.target));
        }
        let true_mean = acc.mean();
        let est = fit.estimate.mean;
        assert!(est > 0.0);
        assert!(
            (true_mean - est).abs() < est.max(1.0),
            "estimate {est:.2}% vs true {true_mean:.2}%"
        );
        // And the model must actually be good on this smooth function.
        assert!(true_mean < 6.0, "true error {true_mean:.2}%");
    }

    #[test]
    fn more_data_reduces_error() {
        let small = fit_ensemble(&dataset(60, 3), 10, &TrainConfig::default(), 7);
        let large = fit_ensemble(&dataset(600, 3), 10, &TrainConfig::default(), 7);
        assert!(
            large.estimate.mean < small.estimate.mean,
            "600 pts {:.2}% should beat 60 pts {:.2}%",
            large.estimate.mean,
            small.estimate.mean
        );
    }

    #[test]
    fn ensemble_beats_typical_member() {
        // Averaging reduces variance: the ensemble's true error should not
        // exceed the pooled member test error (which is what the estimate
        // measures) by any meaningful margin — usually it is lower (§3.2).
        let train = dataset(300, 4);
        let fit = fit_ensemble(&train, 10, &TrainConfig::default(), 8);
        let test = dataset(300, 5);
        let mut acc = Accumulator::new();
        for s in test.iter() {
            acc.add(percent_error(fit.ensemble.predict(&s.features), s.target));
        }
        assert!(
            acc.mean() <= fit.estimate.mean * 1.25,
            "ensemble {:.2}% vs member estimate {:.2}%",
            acc.mean(),
            fit.estimate.mean
        );
    }

    #[test]
    fn estimate_pools_every_point_once() {
        let train = dataset(100, 6);
        let fit = fit_ensemble(&train, 10, &TrainConfig::default(), 9);
        assert_eq!(fit.estimate.points, 100);
        assert_eq!(fit.ensemble.len(), 10);
    }

    #[test]
    fn deterministic_given_seed() {
        let train = dataset(100, 10);
        let a = fit_ensemble(&train, 5, &TrainConfig::default(), 11);
        let b = fit_ensemble(&train, 5, &TrainConfig::default(), 11);
        assert_eq!(a.estimate, b.estimate);
        assert_eq!(
            a.ensemble.predict(&[0.2, 0.4, 0.6]),
            b.ensemble.predict(&[0.2, 0.4, 0.6])
        );
    }

    #[test]
    #[should_panic(expected = "at least 3 folds")]
    fn too_few_folds_panics() {
        fit_ensemble(&dataset(30, 1), 2, &TrainConfig::default(), 1);
    }

    #[test]
    fn parallel_matches_sequential_bit_for_bit() {
        use crate::train::Parallelism;
        let train = dataset(120, 12);
        let fit_with = |parallelism| {
            let config = TrainConfig {
                parallelism,
                ..TrainConfig::default()
            };
            fit_ensemble(&train, 6, &config, 13)
        };
        let sequential = fit_with(Parallelism::Fixed(1));
        for parallel in [fit_with(Parallelism::Fixed(3)), fit_with(Parallelism::Auto)] {
            // The pooled estimate is identical to the last bit: same
            // per-point errors accumulated in the same order.
            assert_eq!(sequential.estimate, parallel.estimate);
            // Every member model is identical, not just the average.
            for x in [[0.1, 0.2, 0.3], [0.9, 0.5, 0.4], [0.5, 0.5, 0.5]] {
                assert_eq!(
                    sequential.ensemble.member_predictions(&x),
                    parallel.ensemble.member_predictions(&x)
                );
            }
            // Telemetry matches except wall-clock seconds.
            for (s, p) in sequential.folds.iter().zip(&parallel.folds) {
                assert_eq!((s.fold, s.epochs), (p.fold, p.epochs));
                assert_eq!(s.best_es_error, p.best_es_error);
                assert_eq!(
                    (s.train_samples, s.es_samples, s.test_samples),
                    (p.train_samples, p.es_samples, p.test_samples)
                );
            }
        }
    }

    #[test]
    fn diverged_folds_recover_via_reinit_with_damped_learning_rate() {
        // lr = 10 explodes every fold (linear output layer, geometric error
        // growth). The reinit loop must retrain each fold with a damped
        // step until it converges, leaving a finite, usable ensemble.
        let train = dataset(150, 16);
        let config = TrainConfig {
            learning_rate: 10.0,
            max_epochs: 300,
            ..TrainConfig::default()
        };
        let fit = fit_ensemble(&train, 5, &config, 17);
        assert!(
            fit.folds.iter().any(|r| r.reinits > 0),
            "expected at least one fold to reinit, got {:?}",
            fit.folds.iter().map(|r| r.reinits).collect::<Vec<_>>()
        );
        assert!(
            fit.folds.iter().all(|r| r.reinits <= MAX_FOLD_REINITS),
            "reinits must stay bounded"
        );
        assert!(
            fit.estimate.mean.is_finite(),
            "estimate {} must be finite after recovery",
            fit.estimate.mean
        );
        assert!(fit.ensemble.predict(&[0.3, 0.5, 0.7]).is_finite());
        // Recovery is deterministic: same seed, same result.
        let again = fit_ensemble(&train, 5, &config, 17);
        assert_eq!(fit.estimate, again.estimate);
    }

    #[test]
    fn fold_records_cover_the_dataset() {
        let n = 97;
        let folds = 5;
        let fit = fit_ensemble(&dataset(n, 14), folds, &TrainConfig::default(), 15);
        assert_eq!(fit.folds.len(), folds);
        for (m, record) in fit.folds.iter().enumerate() {
            assert_eq!(record.fold, m);
            assert_eq!(
                record.train_samples + record.es_samples + record.test_samples,
                n
            );
            assert!(record.epochs > 0);
            assert!(record.best_es_error.is_finite() && record.best_es_error > 0.0);
            assert!(record.seconds >= 0.0);
        }
        // Each sample appears in exactly one test fold.
        let pooled: usize = fit.folds.iter().map(|r| r.test_samples).sum();
        assert_eq!(pooled, n);
        assert_eq!(fit.estimate.points, n as u64);
    }
}
