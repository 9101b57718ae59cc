//! Shared experiment logic behind the table/figure binaries.
//!
//! The registry-backed entrypoints ([`registered_curve_for`],
//! [`run_figure`]) are what the figure binaries call: each learning curve
//! is keyed in the model registry by what produced it, the final ensemble
//! is persisted as the artifact, and the whole curve rides along as the
//! entry's payload — so a warm re-run of a figure binary performs **zero
//! fits and zero simulations** (assert via [`StudyCurve::warm`] and
//! [`Registry::fits_performed`]).

use archpredict::campaign::{seed_stream, Encoder, PlainEncoder};
use archpredict::explorer::{Explorer, ExplorerConfig, TrueError};
use archpredict::registry::{ModelKey, Registry};
use archpredict::report::LearningCurve;
use archpredict::simulate::{
    CachedEvaluator, Oracle, PointEvaluator, SimBudget, SimPointEvaluator, SimStats, StudyEvaluator,
};
use archpredict::studies::Study;
use archpredict_ann::{Ensemble, Parallelism, TrainConfig};
use archpredict_stats::describe::Accumulator;
use archpredict_stats::json::{JsonError, Value};
use archpredict_stats::rng::Xoshiro256;
use archpredict_workloads::{Benchmark, TraceGenerator};
use std::path::Path;

/// SimPoint profiling/simulation interval length used by §5.3 experiments.
pub const SIMPOINT_INTERVAL_LEN: usize = 4_000;
/// SimPoint maximum cluster count ("maxK").
pub const SIMPOINT_MAX_K: usize = 16;

/// Options for one application × study learning-curve run.
#[derive(Debug, Clone, PartialEq)]
pub struct CurveOpts {
    /// Which study's space to explore.
    pub study: Study,
    /// Which application to model.
    pub benchmark: Benchmark,
    /// Simulations per refinement round.
    pub batch: usize,
    /// Final training-set size.
    pub max_samples: usize,
    /// Held-out points for true-error measurement (0 = skip).
    pub eval_points: usize,
    /// Train on SimPoint-estimated (noisy) results instead of full
    /// simulations (§5.3); truth is always full simulation.
    pub simpoint: bool,
    /// Master seed.
    pub seed: u64,
    /// Directory for the persistent simulation cache (`None` = in-memory).
    pub cache_dir: Option<String>,
    /// Use the quick simulation budget ([`SimBudget::quick`]) — for tests
    /// and smoke gates; keyed separately in the registry.
    pub quick: bool,
}

impl CurveOpts {
    /// Standard options for an application/study pair.
    pub fn new(study: Study, benchmark: Benchmark) -> Self {
        Self {
            study,
            benchmark,
            batch: 50,
            max_samples: 950,
            eval_points: 300,
            simpoint: false,
            seed: 0x1BEC,
            cache_dir: Some("results/simcache".into()),
            quick: false,
        }
    }

    /// Toggles SimPoint-estimated training (builder style).
    pub fn with_simpoint(mut self, simpoint: bool) -> Self {
        self.simpoint = simpoint;
        self
    }

    /// Overrides the final training-set size (builder style).
    pub fn with_max_samples(mut self, max_samples: usize) -> Self {
        self.max_samples = max_samples;
        self
    }

    /// Toggles the quick simulation budget (builder style).
    pub fn with_quick(mut self, quick: bool) -> Self {
        self.quick = quick;
        self
    }

    /// The registry key for this curve run. The encoder string carries
    /// every pipeline knob that changes the artifact beyond the key's
    /// seed/budget fields: batch size, held-out count, SimPoint training,
    /// quick budget.
    pub fn key(&self) -> ModelKey {
        let mut encoder = format!("curve-b{}-e{}", self.batch, self.eval_points);
        if self.simpoint {
            encoder.push_str("-sp");
        }
        if self.quick {
            encoder.push_str("-quick");
        }
        ModelKey::new(
            self.study.name(),
            encoder,
            self.benchmark.name(),
            self.seed,
            self.max_samples,
        )
    }

    /// The space/encoder fingerprint this curve's artifact is stamped with.
    pub fn fingerprint(&self) -> u64 {
        PlainEncoder.fingerprint(&self.study.space())
    }
}

/// A finished learning-curve run with its simulation accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyCurve {
    /// The curve (estimated + true error per round).
    pub curve: LearningCurve,
    /// Design-space size.
    pub space_size: usize,
    /// Instructions one *training* evaluation simulates.
    pub instructions_per_training_eval: u64,
    /// Instructions one *full* (truth) evaluation simulates.
    pub instructions_per_full_eval: u64,
    /// `true` when this result was reconstructed from a warm registry
    /// entry — zero fits and zero simulations were performed.
    pub warm: bool,
}

fn truth_budget(study: Study, benchmark: Benchmark, simpoint: bool, quick: bool) -> StudyEvaluator {
    let generator = TraceGenerator::new(benchmark);
    let budget = if simpoint {
        // Truth for SimPoint experiments is the whole program at the
        // SimPoint interval length (the quantity SimPoint estimates).
        SimBudget::whole_intervals(
            SIMPOINT_INTERVAL_LEN,
            (0..generator.num_intervals()).collect(),
        )
    } else if quick {
        SimBudget::quick(&generator)
    } else {
        SimBudget::spread(&generator, 3, 8_000, 16_000)
    };
    StudyEvaluator::with_budget(study, benchmark, budget)
}

/// Runs one application × study learning curve: explore with batches,
/// recording the cross-validation estimate and the measured true error on
/// a fixed held-out set after every round. Always cold — the registry
/// entrypoint [`registered_curve_for`] wraps this with load-or-fit.
pub fn curve_for(opts: &CurveOpts) -> StudyCurve {
    curve_for_cold(opts).0
}

/// The cold path: runs the curve and also returns the final ensemble (the
/// artifact [`registered_curve_for`] persists).
fn curve_for_cold(opts: &CurveOpts) -> (StudyCurve, Option<Ensemble>) {
    let space = opts.study.space();
    let truth = CachedEvaluator::new(
        truth_budget(opts.study, opts.benchmark, opts.simpoint, opts.quick),
        space.clone(),
    );
    let cache_tag = format!(
        "{}_{}_{}truth",
        opts.study.name(),
        opts.benchmark.name(),
        if opts.simpoint { "sp_" } else { "" }
    );
    load_cache(&truth, opts.cache_dir.as_deref(), &cache_tag);

    let label = format!(
        "{} ({}{})",
        opts.benchmark.name(),
        opts.study.name(),
        if opts.simpoint { "/ANN+SimPoint" } else { "" }
    );
    let mut curve = LearningCurve::new(label);

    // Fixed held-out evaluation set, disjoint from anything trained on by
    // construction (the explorer's sampler and this RNG are decorrelated
    // streams of the audited seed map; overlaps are filtered after
    // exploration).
    let mut eval_rng = Xoshiro256::seed_from(opts.seed).derive(seed_stream::BENCH_EVAL);
    let eval_set: Vec<usize> = archpredict_stats::sampling::sample_without_replacement(
        space.size(),
        opts.eval_points.min(space.size()),
        &mut eval_rng,
    );

    let explorer_config = |train: TrainConfig| ExplorerConfig {
        batch: opts.batch,
        folds: 10,
        target_error: 0.0, // run to the sample cap; curves want every round
        max_samples: opts.max_samples,
        train,
        seed: opts.seed,
        ..ExplorerConfig::default()
    };

    let finish = |curve: LearningCurve, training_instr: u64| -> StudyCurve {
        StudyCurve {
            curve,
            space_size: space.size(),
            instructions_per_training_eval: training_instr,
            instructions_per_full_eval: truth.inner().instructions_per_evaluation(),
            warm: false,
        }
    };

    if opts.simpoint {
        let training = CachedEvaluator::new(
            SimPointEvaluator::new(
                opts.study,
                opts.benchmark,
                SIMPOINT_INTERVAL_LEN,
                SIMPOINT_MAX_K,
            ),
            space.clone(),
        );
        let train_tag = format!("{}_{}_sp_train", opts.study.name(), opts.benchmark.name());
        load_cache(&training, opts.cache_dir.as_deref(), &train_tag);
        let per_eval = training.inner().instructions_per_evaluation();

        let mut explorer =
            Explorer::new(&space, &training, explorer_config(TrainConfig::default()));
        run_curve(&mut explorer, &truth, &eval_set, opts, &mut curve, || {
            save_cache(&training, opts.cache_dir.as_deref(), &train_tag);
            save_cache(&truth, opts.cache_dir.as_deref(), &cache_tag);
        });
        let ensemble = explorer.ensemble().cloned();
        (finish(curve, per_eval), ensemble)
    } else {
        let per_eval = truth.inner().instructions_per_evaluation();
        let mut explorer = Explorer::new(&space, &truth, explorer_config(TrainConfig::default()));
        run_curve(&mut explorer, &truth, &eval_set, opts, &mut curve, || {
            save_cache(&truth, opts.cache_dir.as_deref(), &cache_tag)
        });
        let ensemble = explorer.ensemble().cloned();
        (finish(curve, per_eval), ensemble)
    }
}

/// Serializes a finished curve as a registry payload.
fn study_curve_payload(result: &StudyCurve) -> Value {
    Value::Object(vec![
        ("curve".into(), result.curve.to_json_value()),
        ("space_size".into(), Value::num(result.space_size as f64)),
        (
            "instructions_per_training_eval".into(),
            Value::num(result.instructions_per_training_eval as f64),
        ),
        (
            "instructions_per_full_eval".into(),
            Value::num(result.instructions_per_full_eval as f64),
        ),
    ])
}

/// Reconstructs a [`StudyCurve`] from a warm registry payload.
fn study_curve_from_payload(payload: &Value, warm: bool) -> Result<StudyCurve, JsonError> {
    Ok(StudyCurve {
        curve: LearningCurve::from_json_value(payload.get("curve")?)?,
        space_size: payload.get("space_size")?.as_usize()?,
        instructions_per_training_eval: payload.get("instructions_per_training_eval")?.as_u64()?,
        instructions_per_full_eval: payload.get("instructions_per_full_eval")?.as_u64()?,
        warm,
    })
}

/// Load-or-run a learning curve through the model registry: a warm hit
/// reconstructs the whole curve from the persisted payload — zero fits,
/// zero simulations — while a miss runs [`curve_for`] once, persisting the
/// final ensemble and the curve for every future caller.
///
/// # Panics
///
/// Panics on registry I/O/corruption or when the cold run produces no
/// ensemble (acceptable in experiment binaries).
pub fn registered_curve_for(registry: &Registry, opts: &CurveOpts) -> StudyCurve {
    let key = opts.key();
    let outcome = registry
        .get_or_fit(&key, opts.fingerprint(), || {
            let (result, ensemble) = curve_for_cold(opts);
            let ensemble = ensemble.ok_or("curve run produced no ensemble")?;
            Ok((ensemble, study_curve_payload(&result)))
        })
        .unwrap_or_else(|e| panic!("registry {key}: {e}"));
    study_curve_from_payload(&outcome.payload, outcome.warm)
        .unwrap_or_else(|e| panic!("registry payload for {key} unreadable: {e}"))
}

/// Runs each curve through `registry`, printing its table and warm/cold
/// provenance. The shared loop body of every figure binary.
pub fn run_curves(registry: &Registry, all_opts: &[CurveOpts]) -> Vec<StudyCurve> {
    all_opts
        .iter()
        .map(|opts| {
            let result = registered_curve_for(registry, opts);
            println!("{}", result.curve.to_table());
            println!(
                "  [{}] {}\n",
                opts.key().slug(),
                if result.warm {
                    "warm from registry (0 fits, 0 simulations)"
                } else {
                    "cold run, persisted to registry"
                }
            );
            result
        })
        .collect()
}

/// The whole figure pipeline: run every curve through the registry,
/// invoke `inspect` per curve (figure-specific commentary), concatenate
/// the curve CSVs and write them to `out`. Returns the curves for
/// further analysis.
pub fn run_figure(
    registry: &Registry,
    all_opts: &[CurveOpts],
    out: &Path,
    mut inspect: impl FnMut(&StudyCurve),
) -> Vec<StudyCurve> {
    let results = run_curves(registry, all_opts);
    let mut csv = String::new();
    for result in &results {
        inspect(result);
        csv.push_str(&result.curve.to_csv());
    }
    write_artifact(out, &csv);
    results
}

/// Steps `explorer` to the sample cap, measuring true error on `eval_set`
/// and running `save_caches` after every round. A run killed at any point
/// therefore leaves a simcache holding every completed round, and running
/// it again replays those rounds from the cache without simulating.
fn run_curve<E: Oracle, T: Oracle>(
    explorer: &mut Explorer<'_, E>,
    truth: &T,
    eval_set: &[usize],
    opts: &CurveOpts,
    curve: &mut LearningCurve,
    save_caches: impl Fn(),
) {
    let space = opts.study.space();
    let rounds = opts.max_samples.div_ceil(opts.batch);
    for round in 0..rounds {
        // Retrain to a depth matched to the current training-set size.
        let n = (round + 1) * opts.batch;
        explorer_set_train(explorer, TrainConfig::scaled_to(n));
        explorer.step();
        let record = explorer.history().last().expect("stepped").clone();
        let true_error = if eval_set.is_empty() {
            None
        } else {
            Some(measure_true_error(
                explorer.ensemble().expect("trained"),
                &space,
                truth,
                eval_set,
                explorer.sampled_indices(),
            ))
        };
        curve.push(&record, true_error);
        save_caches();
        eprintln!(
            "  [{}] n={:4} ({:.2}%) est={:.2}%±{:.2} true={}",
            curve.label,
            record.samples,
            100.0 * record.fraction_sampled,
            record.estimate.mean,
            record.estimate.std_dev,
            true_error
                .map(|t| format!("{:.2}%±{:.2}", t.mean, t.std_dev))
                .unwrap_or_else(|| "-".into()),
        );
    }
}

fn explorer_set_train<E: Oracle>(explorer: &mut Explorer<'_, E>, train: TrainConfig) {
    explorer.set_train_config(train);
}

/// True error of `ensemble` against `truth` on `eval_set`, excluding any
/// points that ended up in the training set.
pub fn measure_true_error<T: Oracle>(
    ensemble: &Ensemble,
    space: &archpredict::DesignSpace,
    truth: &T,
    eval_set: &[usize],
    trained: &[usize],
) -> TrueError {
    let trained: std::collections::HashSet<usize> = trained.iter().copied().collect();
    let held_out: Vec<usize> = eval_set
        .iter()
        .copied()
        .filter(|i| !trained.contains(i))
        .collect();
    let mut stats = SimStats::default();
    let actuals = truth.evaluate_batch(space, &held_out, &mut stats);
    let predictions =
        archpredict::infer::predict_indices(ensemble, space, &held_out, Parallelism::Auto);
    let mut acc = Accumulator::new();
    for (&predicted, actual) in predictions.iter().zip(&actuals) {
        // Held-out points whose truth evaluation failed are skipped; the
        // error is measured over the surviving points.
        let Ok(actual) = actual else { continue };
        acc.add(100.0 * (predicted - actual).abs() / actual.abs().max(1e-12));
    }
    TrueError {
        mean: acc.mean(),
        std_dev: acc.population_std_dev(),
        points: acc.count(),
    }
}

/// One row of the Fig. 5.6/5.7 reduction analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct ReductionRow {
    /// Application name.
    pub app: String,
    /// Error level the row targets (percent).
    pub target_error: f64,
    /// Error actually achieved (percent true error).
    pub achieved_error: f64,
    /// Simulations used to get there.
    pub samples: usize,
    /// Factor from modeling: space size / simulations.
    pub ann_factor: f64,
    /// Factor from SimPoint: full-run instructions / SimPoint instructions.
    pub simpoint_factor: f64,
    /// Combined multiplicative factor.
    pub combined_factor: f64,
}

/// Derives reduction factors (Figs. 5.6/5.7) from a finished curve: for
/// each target error, the first round whose *true* error meets it.
pub fn reduction_analysis(result: &StudyCurve, targets: &[f64]) -> Vec<ReductionRow> {
    let simpoint_factor =
        result.instructions_per_full_eval as f64 / result.instructions_per_training_eval as f64;
    targets
        .iter()
        .filter_map(|&target| {
            let point = result
                .curve
                .points
                .iter()
                .find(|p| p.true_mean.is_some_and(|m| m <= target))
                .or(result.curve.points.last())?;
            let achieved = point.true_mean?;
            let ann_factor = result.space_size as f64 / point.samples as f64;
            Some(ReductionRow {
                app: result.curve.label.clone(),
                target_error: target,
                achieved_error: achieved,
                samples: point.samples,
                ann_factor,
                simpoint_factor,
                combined_factor: ann_factor * simpoint_factor,
            })
        })
        .collect()
}

/// Atomically writes `content` to `path`, creating parent directories
/// (temp file, fsync, rename — a kill mid-write never tears an artifact).
///
/// # Panics
///
/// Panics on I/O failure (acceptable in experiment binaries).
pub fn write_artifact(path: &Path, content: &str) {
    archpredict::persist::write_atomic(path, content).expect("write artifact");
    eprintln!("wrote {}", path.display());
}

fn cache_path(dir: &str, tag: &str) -> std::path::PathBuf {
    Path::new(dir).join(format!("{tag}.csv"))
}

/// Preloads the simcache written by [`CachedEvaluator::persist`], if the
/// run has a cache directory and the file exists.
fn load_cache<E: PointEvaluator>(evaluator: &CachedEvaluator<E>, dir: Option<&str>, tag: &str) {
    let Some(dir) = dir else { return };
    let path = cache_path(dir, tag);
    match evaluator.load(&path) {
        Ok(loaded) => eprintln!("loaded {loaded} cached sims from {}", path.display()),
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            eprintln!("ignoring unreadable cache {}: {e}", path.display())
        }
        Err(_) => {}
    }
}

fn save_cache<E: PointEvaluator>(evaluator: &CachedEvaluator<E>, dir: Option<&str>, tag: &str) {
    let Some(dir) = dir else { return };
    evaluator
        .persist(&cache_path(dir, tag))
        .expect("write cache");
}

#[cfg(test)]
mod tests {
    use super::*;
    use archpredict::report::CurvePoint;

    fn fake_curve() -> StudyCurve {
        let mut curve = LearningCurve::new("x");
        for (n, true_mean) in [(50, 6.0), (100, 3.0), (200, 1.5), (400, 0.9)] {
            curve.points.push(CurvePoint {
                samples: n,
                percent_sampled: n as f64 / 100.0,
                estimated_mean: true_mean * 1.1,
                estimated_std_dev: 1.0,
                true_mean: Some(true_mean),
                true_std_dev: Some(1.0),
                training_seconds: 0.1,
                simulation_seconds: 0.2,
                prediction_seconds: 0.0,
                mean_fold_epochs: 100.0,
                unique_simulations: n as u64,
                simulation_cache_hits: 0,
                simulated_instructions: n as u64 * 10_000,
                sim_failures: 0,
                sim_retries: 0,
                sim_quarantined: 0,
                sim_resampled: 0,
            });
        }
        StudyCurve {
            curve,
            space_size: 20_000,
            instructions_per_training_eval: 10_000,
            instructions_per_full_eval: 80_000,
            warm: false,
        }
    }

    #[test]
    fn curve_keys_separate_pipeline_variants() {
        let base = CurveOpts::new(Study::Processor, Benchmark::Mesa);
        let sp = base.clone().with_simpoint(true);
        let bigger = base.clone().with_max_samples(1_900);
        assert_eq!(
            base.key().slug(),
            "processor-curve-b50-e300-mesa-0000000000001bec-950"
        );
        assert_ne!(base.key(), sp.key());
        assert_ne!(base.key(), bigger.key());
        assert_eq!(base.fingerprint(), sp.fingerprint());
    }

    #[test]
    fn study_curve_payload_round_trips() {
        let result = fake_curve();
        let payload = study_curve_payload(&result);
        let text = payload.to_json();
        let back = study_curve_from_payload(&Value::parse(&text).unwrap(), true).unwrap();
        assert!(back.warm);
        assert_eq!(back.curve, result.curve);
        assert_eq!(back.space_size, result.space_size);
        assert_eq!(
            back.instructions_per_full_eval,
            result.instructions_per_full_eval
        );
    }

    #[test]
    fn reduction_rows_compose_multiplicatively() {
        let rows = reduction_analysis(&fake_curve(), &[1.0, 2.0, 3.5]);
        assert_eq!(rows.len(), 3);
        let at_1 = &rows[0];
        assert_eq!(at_1.samples, 400);
        assert!((at_1.ann_factor - 50.0).abs() < 1e-9);
        assert!((at_1.simpoint_factor - 8.0).abs() < 1e-9);
        assert!((at_1.combined_factor - 400.0).abs() < 1e-9);
        let at_2 = &rows[1];
        assert_eq!(at_2.samples, 200, "first round reaching 2%");
    }

    #[test]
    fn unreachable_target_falls_back_to_best() {
        let rows = reduction_analysis(&fake_curve(), &[0.1]);
        assert_eq!(rows[0].samples, 400);
        assert!(rows[0].achieved_error > 0.1);
    }
}
