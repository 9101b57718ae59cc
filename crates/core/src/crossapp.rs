//! Cross-application predictive modeling (paper §7, future work).
//!
//! The paper's studies train one model per benchmark. Its future-work
//! section proposes exploiting similarity *between* benchmarks: "make the
//! application name an input into the models and train one large model for
//! all of the benchmarks". This module implements that idea: design-point
//! features are extended with a one-hot application identifier (the
//! engine's [`AppEncoder`]), training samples from several applications
//! are pooled through the campaign engine's quarantine-and-resample
//! primitive ([`crate::campaign::collect_batch`]), and a single
//! cross-validation ensemble models them all — reducing the
//! per-application sampling requirement when response surfaces share
//! structure. [`CrossAppModel::encoder`] hands out one application's
//! encoder, so predictions, sweeps and true error run through the same
//! [`crate::infer`] functions as every other driver.
//!
//! Seeds follow the audited [`seed_stream`] map: application slot `s`
//! samples from stream [`seed_stream::APP_SAMPLER_BASE`]` + s`, and the
//! pooled fit seed comes from stream [`seed_stream::CROSSAPP_FIT`].

use crate::campaign::{collect_batch, seed_stream, AppEncoder, Encoder, Round};
use crate::simulate::{Oracle, SimStats};
use crate::space::DesignSpace;
use archpredict_ann::cross_validation::{fit_ensemble, ErrorEstimate, FoldRecord};
use archpredict_ann::{Dataset, Ensemble, Parallelism, Sample, TrainConfig};
use archpredict_stats::rng::Xoshiro256;
use archpredict_stats::sampling::IncrementalSampler;
use archpredict_workloads::Benchmark;

/// A single model spanning several applications over one design space.
///
/// # Example
///
/// See `CrossAppModel::fit` and the crate's integration tests; fitting
/// requires evaluators, so a self-contained doctest would be misleadingly
/// synthetic.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossAppModel {
    ensemble: Ensemble,
    apps: Vec<Benchmark>,
    /// Pooled cross-validation error estimate.
    pub estimate: ErrorEstimate,
    /// Per-fold training telemetry from the pooled fit.
    pub folds: Vec<FoldRecord>,
    /// Simulation telemetry pooled over every application's sampling.
    pub simulation: SimStats,
    /// Pooled training-set size (short of `apps × per_app_samples` only
    /// when faults exhaust an application's sampler).
    pub samples: usize,
    /// Wall-clock seconds spent simulating the pooled sample.
    pub simulation_seconds: f64,
    /// Wall-clock seconds spent fitting the pooled ensemble.
    pub training_seconds: f64,
    /// Fraction of the pooled (space × applications) population simulated.
    pub fraction_sampled: f64,
}

impl CrossAppModel {
    /// Pools `per_app_samples` random simulations from each `(benchmark,
    /// evaluator)` pair and fits one ensemble over the joint input space
    /// (design-point encoding ⧺ one-hot application id).
    ///
    /// Failed evaluations are dropped and replaced with fresh draws (the
    /// engine's quarantine-and-resample policy, via
    /// [`crate::campaign::collect_batch`]) so every application still
    /// contributes its full sample quota under a faulty backend.
    ///
    /// # Panics
    ///
    /// Panics if `evaluators` is empty or `per_app_samples` is zero.
    pub fn fit<E: Oracle>(
        space: &DesignSpace,
        evaluators: &[(Benchmark, E)],
        per_app_samples: usize,
        train: &TrainConfig,
        seed: u64,
    ) -> Self {
        assert!(!evaluators.is_empty(), "need at least one application");
        assert!(per_app_samples > 0, "need samples per application");
        let apps: Vec<Benchmark> = evaluators.iter().map(|(b, _)| *b).collect();
        let mut dataset = Dataset::new();
        let mut simulation = SimStats::default();
        let sim_started = std::time::Instant::now();
        for (slot, (_, evaluator)) in evaluators.iter().enumerate() {
            let encoder = AppEncoder {
                slot,
                apps: apps.len(),
            };
            let rng =
                Xoshiro256::seed_from(seed).derive(seed_stream::APP_SAMPLER_BASE + slot as u64);
            let mut sampler = IncrementalSampler::new(space.size(), rng);
            let initial = sampler.next_batch(per_app_samples);
            collect_batch(
                evaluator,
                space,
                &mut sampler,
                initial,
                &mut simulation,
                |index, value| dataset.push(Sample::new(encoder.encode(space, index), value)),
                |_| {},
            );
        }
        let simulation_seconds = sim_started.elapsed().as_secs_f64();
        // One deterministic delta per pooled fit, mirrored after the
        // per-fit bookkeeping is final (see `telemetry::record_sim`).
        crate::telemetry::record_sim(&simulation);
        let fit_seed = Xoshiro256::seed_from(seed)
            .derive(seed_stream::CROSSAPP_FIT)
            .next_u64();
        let train_started = std::time::Instant::now();
        let fit = fit_ensemble(&dataset, 10.min(dataset.len()), train, fit_seed);
        let training_seconds = train_started.elapsed().as_secs_f64();
        let samples = dataset.len();
        Self {
            ensemble: fit.ensemble,
            estimate: fit.estimate,
            folds: fit.folds,
            simulation,
            samples,
            simulation_seconds,
            training_seconds,
            fraction_sampled: samples as f64 / (space.size() * apps.len()) as f64,
            apps,
        }
    }

    /// The applications this model covers, in input-slot order.
    pub fn apps(&self) -> &[Benchmark] {
        &self.apps
    }

    /// The pooled ensemble itself — the persistable artifact (the rest of
    /// the struct is fit telemetry). [`crate::registry`] callers store
    /// this and rebuild predictions with [`CrossAppModel::encoder`].
    pub fn ensemble(&self) -> &Ensemble {
        &self.ensemble
    }

    /// This fit as a campaign [`Round`] record, so cross-application runs
    /// flow into the same learning-curve CSVs
    /// ([`crate::report::LearningCurve`]) as explorer rounds —
    /// single-round, with no prediction work during selection.
    pub fn round(&self) -> Round {
        Round {
            samples: self.samples,
            fraction_sampled: self.fraction_sampled,
            estimate: self.estimate,
            training_seconds: self.training_seconds,
            simulation_seconds: self.simulation_seconds,
            simulation: self.simulation,
            prediction_seconds: 0.0,
            folds: self.folds.clone(),
        }
    }

    /// The pooled model's encoder for `benchmark`: design-point features
    /// with `benchmark`'s one-hot application id appended, the exact §7
    /// construction (the application is a *nominal* parameter). Predict
    /// through it with [`crate::infer::predict_encoded`] or
    /// [`crate::infer::true_error`] on [`CrossAppModel::ensemble`].
    ///
    /// # Panics
    ///
    /// Panics if `benchmark` was not part of the training set.
    pub fn encoder(&self, benchmark: Benchmark) -> AppEncoder {
        let slot = self
            .apps
            .iter()
            .position(|&b| b == benchmark)
            .unwrap_or_else(|| panic!("{benchmark} was not in the training set"));
        AppEncoder {
            slot,
            apps: self.apps.len(),
        }
    }

    /// Predicts the metric for `benchmark` at each design-point index via
    /// the batched inference path, parallelized per `parallelism`; the
    /// result is bit-for-bit identical at every thread count.
    ///
    /// # Panics
    ///
    /// Panics if `benchmark` was not part of the training set.
    pub fn predict_indices(
        &self,
        space: &DesignSpace,
        indices: &[usize],
        benchmark: Benchmark,
        parallelism: Parallelism,
    ) -> Vec<f64> {
        crate::infer::predict_encoded(
            &self.ensemble,
            space,
            &self.encoder(benchmark),
            indices,
            parallelism,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Param;
    use crate::simulate::PointEvaluator;
    use crate::space::DesignPoint;

    /// Two synthetic "applications" sharing surface structure: same
    /// functional form, different scales — the regime where pooling helps.
    struct SyntheticApp {
        space: DesignSpace,
        scale: f64,
        offset: f64,
    }

    impl PointEvaluator for SyntheticApp {
        fn evaluate(&self, point: &DesignPoint) -> f64 {
            let a = self.space.number(point, "a") / 9.0;
            let b = self.space.number(point, "b") / 9.0;
            self.offset + self.scale * (0.4 * (a * 2.0).sin().abs() + 0.3 * a * b)
        }
        fn instructions_per_evaluation(&self) -> u64 {
            1
        }
    }

    fn space() -> DesignSpace {
        DesignSpace::new(vec![
            Param::cardinal("a", (0..10).map(f64::from).collect::<Vec<_>>()),
            Param::cardinal("b", (0..10).map(f64::from).collect::<Vec<_>>()),
        ])
        .unwrap()
    }

    fn apps(space: &DesignSpace) -> Vec<(Benchmark, SyntheticApp)> {
        vec![
            (
                Benchmark::Gzip,
                SyntheticApp {
                    space: space.clone(),
                    scale: 1.0,
                    offset: 0.5,
                },
            ),
            (
                Benchmark::Mcf,
                SyntheticApp {
                    space: space.clone(),
                    scale: 0.4,
                    offset: 0.2,
                },
            ),
        ]
    }

    #[test]
    fn pooled_model_predicts_each_app() {
        let space = space();
        let evaluators = apps(&space);
        let model = CrossAppModel::fit(&space, &evaluators, 40, &TrainConfig::scaled_to(80), 7);
        assert_eq!(model.apps(), &[Benchmark::Gzip, Benchmark::Mcf]);
        assert_eq!(model.folds.len(), 10);
        assert!(model.folds.iter().all(|f| f.epochs > 0));
        // 40 samples per application, pooled over two applications.
        assert_eq!(model.simulation.unique_simulations, 80);
        assert_eq!(model.simulation.cache_hits, 0);
        assert_eq!(model.samples, 80);
        assert!((model.fraction_sampled - 80.0 / 200.0).abs() < 1e-12);
        let held_out: Vec<usize> = (0..space.size()).step_by(7).collect();
        for (benchmark, evaluator) in &evaluators {
            let mean = crate::infer::true_error(
                model.ensemble(),
                &space,
                &model.encoder(*benchmark),
                evaluator,
                &held_out,
                Parallelism::Auto,
            )
            .unwrap()
            .mean;
            assert!(mean < 5.0, "{benchmark}: pooled error {mean:.2}%");
        }
    }

    #[test]
    fn apps_get_distinct_predictions() {
        let space = space();
        let evaluators = apps(&space);
        let model = CrossAppModel::fit(&space, &evaluators, 40, &TrainConfig::scaled_to(80), 8);
        let predict = |benchmark| {
            let features = model.encoder(benchmark).encode(&space, 50);
            model.ensemble().predict(&features)
        };
        let (gzip, mcf) = (predict(Benchmark::Gzip), predict(Benchmark::Mcf));
        assert!(
            (gzip - mcf).abs() > 0.1,
            "one-hot app id must separate the surfaces: {gzip} vs {mcf}"
        );
    }

    #[test]
    #[should_panic(expected = "was not in the training set")]
    fn unknown_app_panics() {
        let space = space();
        let evaluators = apps(&space);
        let model = CrossAppModel::fit(
            &space,
            &evaluators,
            20,
            &TrainConfig {
                max_epochs: 30,
                ..TrainConfig::default()
            },
            9,
        );
        model.encoder(Benchmark::Twolf);
    }

    #[test]
    fn encode_appends_one_hot() {
        let space = space();
        let base = space.encode(&space.point(3));
        let with = AppEncoder { slot: 1, apps: 3 }.encode(&space, 3);
        assert_eq!(with.len(), base.len() + 3);
        assert_eq!(&with[..base.len()], &base[..]);
        assert_eq!(&with[base.len()..], &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn round_record_mirrors_fit_telemetry() {
        let space = space();
        let evaluators = apps(&space);
        let model = CrossAppModel::fit(&space, &evaluators, 30, &TrainConfig::scaled_to(60), 5);
        let round = model.round();
        assert_eq!(round.samples, model.samples);
        assert_eq!(round.estimate, model.estimate);
        assert_eq!(round.simulation, model.simulation);
        assert_eq!(round.prediction_seconds, 0.0);
        assert_eq!(round.folds.len(), model.folds.len());
        // Round records feed straight into learning-curve CSVs.
        let mut curve = crate::report::LearningCurve::new("crossapp");
        curve.push(&round, None);
        assert_eq!(curve.to_csv_deterministic().lines().count(), 2);
    }
}
