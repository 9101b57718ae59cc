//! Fault-tolerance integration tests over the full oracle stack
//! (`RetryingOracle<CachedEvaluator<_>>` with the `oracle.evaluate`
//! failpoint armed): the leaf simulator runs exactly once per surviving
//! index no matter the fault schedule, exploration and cross-application
//! fits under faults are bit-for-bit deterministic at every parallelism
//! setting, and a run killed between rounds replays from its persisted
//! simcache into the identical learning curve.
//!
//! The determinism tests take two leaves: a cheap counting stand-in, and
//! the real memory-study simulator at quickstart scale, whose
//! deterministic CSVs are pinned by digest.
//!
//! Every test arms the plan through [`oracle_faults::arm`], which holds a
//! file-wide lock and disarms on drop.

mod oracle_faults;

use archpredict::crossapp::CrossAppModel;
use archpredict::explorer::{Explorer, ExplorerConfig, Round};
use archpredict::failpoint::{self, FailAction};
use archpredict::report::LearningCurve;
use archpredict::simulate::{
    CachedEvaluator, Oracle, PointEvaluator, RetryPolicy, RetryingOracle, SimBudget, SimError,
    SimStats, StudyEvaluator, FP_ORACLE_EVALUATE,
};
use archpredict::space::{DesignPoint, DesignSpace};
use archpredict::studies::Study;
use archpredict_ann::{Parallelism, TrainConfig};
use archpredict_stats::hash::fnv1a_64;
use archpredict_workloads::{Benchmark, TraceGenerator};
use oracle_faults::arm;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// A cheap deterministic stand-in for the cycle simulator that counts how
/// often it actually runs.
struct CountingEvaluator {
    space: DesignSpace,
    calls: AtomicUsize,
}

impl CountingEvaluator {
    fn new(space: DesignSpace) -> Self {
        Self {
            space,
            calls: AtomicUsize::new(0),
        }
    }
}

impl PointEvaluator for CountingEvaluator {
    fn evaluate(&self, point: &DesignPoint) -> f64 {
        self.calls.fetch_add(1, Ordering::SeqCst);
        // A smooth nonlinear response over the encoded features.
        let features = self.space.encode(point);
        1.0 + features
            .iter()
            .enumerate()
            .map(|(i, &f)| (1.0 + i as f64).recip() * (f + 0.3 * f * f))
            .sum::<f64>()
    }

    fn instructions_per_evaluation(&self) -> u64 {
        1_000
    }
}

/// The real simulator at quickstart scale: memory-study points of `app`
/// over two intervals of 4 000 warm-up and 8 000 measured instructions.
fn study_leaf(app: Benchmark) -> StudyEvaluator {
    let budget = SimBudget::spread(&TraceGenerator::new(app), 2, 4_000, 8_000);
    StudyEvaluator::with_budget(Study::MemorySystem, app, budget)
}

type Stack<E = CountingEvaluator> = RetryingOracle<CachedEvaluator<E>>;

/// `leaf` behind the dedup cache and the retrying oracle, whose fault
/// schedule under the armed plan is drawn by `retry_seed`.
fn faulted<E: PointEvaluator>(
    leaf: E,
    space: &DesignSpace,
    retry_seed: u64,
    parallelism: Parallelism,
) -> Stack<E> {
    RetryingOracle::with_policy(
        CachedEvaluator::with_parallelism(leaf, space.clone(), parallelism),
        RetryPolicy {
            seed: retry_seed,
            ..RetryPolicy::default()
        },
    )
}

/// The counting leaf's faulted stack.
fn stack(space: &DesignSpace, retry_seed: u64, parallelism: Parallelism) -> Stack {
    faulted(
        CountingEvaluator::new(space.clone()),
        space,
        retry_seed,
        parallelism,
    )
}

fn leaf_calls(oracle: &Stack) -> usize {
    oracle.inner().inner().calls.load(Ordering::SeqCst)
}

/// The plan and retry seed of the exploration tests: transient faults on
/// 30% of attempts, so an index is quarantined after three (2.7%).
const PLAN_SEED: u64 = 0xFA_17ED;
const RETRY_SEED: u64 = 0x5EED_BACC;
const RATE: f64 = 0.3;

/// The real leaf's fault rate: an index is quarantined after three
/// faulted attempts (6.4%).
const STUDY_RATE: f64 = 0.4;
/// The real leaf's retry seed for `app`: one schedule per application.
fn study_retry_seed(app: Benchmark) -> u64 {
    RetryPolicy::default().seed + app as u64
}

/// FNV-1a digests of the real leaf's deterministic CSVs at one thread:
/// the gzip exploration (20 points a round, two rounds) and the gzip+mcf
/// cross-application fit (20 points each). Re-record them only with a
/// change that moves simulated values (and the golden constants with
/// them).
const STUDY_CURVE_DIGEST: u64 = 0xc11f_37c2_bb4d_a28a;
const STUDY_CROSSAPP_DIGEST: u64 = 0x21c8_895d_f802_8636;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whatever the fault schedule does, the leaf simulator runs exactly
    /// once per index that ends up with a value: injected faults never
    /// reach it, retries re-enter through the dedup cache, and duplicate
    /// occurrences are served from cache. Every fired check is one
    /// counted failure, and an index that never succeeds ends with the
    /// error its action maps to.
    #[test]
    fn leaf_simulates_exactly_once_per_surviving_index(
        seed in 0u64..u64::MAX,
        probability in 0.0f64..0.6,
        action in 0usize..4,
    ) {
        let (action, error) = [
            (FailAction::Error, SimError::Transient),
            (FailAction::Panic, SimError::Crashed),
            (FailAction::Delay(Duration::from_millis(50)), SimError::TimedOut),
            (FailAction::Torn, SimError::NonFinite),
        ][action];
        let _armed = arm(seed, action, probability);
        let space = Study::MemorySystem.space();
        let oracle = stack(&space, RETRY_SEED, Parallelism::Fixed(2));
        // Distinct indices plus a duplicated tail.
        let mut indices: Vec<usize> = (0..120).map(|i| i * 7 % space.size()).collect();
        indices.extend_from_slice(&indices.clone()[..20]);
        let mut stats = SimStats::default();
        let results = oracle.evaluate_batch(&space, &indices, &mut stats);
        prop_assert_eq!(results.len(), indices.len());
        let survivors: std::collections::BTreeSet<usize> = indices
            .iter()
            .zip(&results)
            .filter(|(_, r)| r.is_ok())
            .map(|(&i, _)| i)
            .collect();
        prop_assert_eq!(leaf_calls(&oracle), survivors.len());
        prop_assert_eq!(stats.unique_simulations as usize, survivors.len());
        prop_assert_eq!(stats.failures, failpoint::fired(FP_ORACLE_EVALUATE));
        for result in &results {
            if let Err(e) = result {
                prop_assert_eq!(*e, error);
            }
        }
    }
}

fn faulted_config(parallelism: Parallelism) -> ExplorerConfig {
    ExplorerConfig {
        batch: 25,
        target_error: 0.0,
        max_samples: 75,
        train: TrainConfig {
            max_epochs: 25,
            patience: 8,
            parallelism,
            ..TrainConfig::default()
        },
        seed: 0xFA_0175,
        ..ExplorerConfig::default()
    }
}

/// The real leaf's campaign: two rounds of 20 points.
fn study_config(parallelism: Parallelism) -> ExplorerConfig {
    ExplorerConfig {
        batch: 20,
        target_error: 0.0,
        max_samples: 40,
        train: TrainConfig {
            max_epochs: 40,
            patience: 10,
            parallelism,
            ..TrainConfig::default()
        },
        seed: 0x1BEC,
        ..ExplorerConfig::default()
    }
}

fn curve_of(label: &str, history: &[Round]) -> LearningCurve {
    let mut curve = LearningCurve::new(label);
    for round in history {
        curve.push(round, None);
    }
    curve
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|x| x.to_bits()).collect()
}

/// What the determinism tests compare: the deterministic CSV, every
/// round's estimate bits (the CSV prints estimates to four decimals),
/// the sampled indices and a few predictions' bits.
#[derive(Debug, PartialEq)]
struct Outcome {
    csv: String,
    estimates: Vec<(u64, u64)>,
    indices: Vec<usize>,
    probes: Vec<u64>,
}

impl Outcome {
    fn new(curve: &LearningCurve, indices: &[usize], probes: &[f64]) -> Self {
        Self {
            csv: curve.to_csv_deterministic(),
            estimates: curve
                .points
                .iter()
                .map(|p| (p.estimated_mean.to_bits(), p.estimated_std_dev.to_bits()))
                .collect(),
            indices: indices.to_vec(),
            probes: bits(probes),
        }
    }
}

/// Explores the memory space through `leaf`'s faulted stack to the
/// configured sample cap; returns the outcome and the simulation totals.
fn explore<E: PointEvaluator>(
    leaf: E,
    retry_seed: u64,
    config: ExplorerConfig,
    label: &str,
) -> (Outcome, SimStats) {
    let space = Study::MemorySystem.space();
    let oracle = faulted(leaf, &space, retry_seed, config.train.parallelism);
    let (batch, max_samples) = (config.batch, config.max_samples);
    let mut explorer = Explorer::new(&space, &oracle, config);
    explorer.run();
    let mut totals = SimStats::default();
    for (round_number, round) in explorer.history().iter().enumerate() {
        assert_eq!(
            round.samples,
            batch * (round_number + 1),
            "[{label}] round {round_number} fell short of its budget"
        );
        totals.merge(&round.simulation);
    }
    assert_eq!(explorer.samples(), max_samples, "[{label}]");
    let outcome = Outcome::new(
        &curve_of(label, explorer.history()),
        explorer.sampled_indices(),
        &explorer.predict_indices(&[0, 123, 4_567, 11_000]),
    );
    (outcome, totals)
}

/// Asserts `run` gives the same outcome at four threads and at auto
/// parallelism as at one thread, and returns the one-thread outcome.
fn assert_deterministic<T: std::fmt::Debug + PartialEq>(run: impl Fn(Parallelism) -> T) -> T {
    let one_thread = run(Parallelism::Fixed(1));
    for parallelism in [Parallelism::Fixed(4), Parallelism::Auto] {
        assert_eq!(run(parallelism), one_thread, "diverged at {parallelism:?}");
    }
    one_thread
}

/// Exploration under injected faults is bit-for-bit identical at one
/// thread, four threads, and auto parallelism: same sampled indices,
/// same learning curve and estimate bits, same predictions. The counting
/// leaf runs at a 30% fault rate, the real simulator at 40%; every round
/// of both reaches its budget, and the real leaf's CSV is pinned.
#[test]
fn faulted_exploration_is_deterministic_across_parallelism() {
    {
        let _armed = arm(PLAN_SEED, FailAction::Error, RATE);
        let space = Study::MemorySystem.space();
        assert_deterministic(|parallelism| {
            let leaf = CountingEvaluator::new(space.clone());
            explore(leaf, RETRY_SEED, faulted_config(parallelism), "counting").0
        });
    }

    let _armed = arm(PLAN_SEED, FailAction::Error, STUDY_RATE);
    let app = Benchmark::Gzip;
    let (outcome, totals) = assert_deterministic(|parallelism| {
        let config = study_config(parallelism);
        explore(study_leaf(app), study_retry_seed(app), config, "gzip")
    });
    assert!(
        totals.quarantined > 0 && totals.resampled > 0,
        "the real leaf never quarantined and resampled a point: {totals:?}"
    );
    assert_eq!(
        fnv1a_64(outcome.csv.as_bytes()),
        STUDY_CURVE_DIGEST,
        "the real leaf's curve moved:\n{}",
        outcome.csv
    );
}

/// A run killed after any round and re-run against the simcache it
/// persisted after each round, with a torn temp file beside it, replays
/// into the uninterrupted run: the same samples, estimates, fold
/// telemetry and predictions, and the same deterministic CSV except that
/// the replayed rounds read their evaluations as cache hits. The leaf
/// simulator runs only the rounds after the kill.
#[test]
fn killed_run_replays_into_identical_curve() {
    let space = Study::MemorySystem.space();
    let parallelism = Parallelism::Fixed(2);
    let dir = std::env::temp_dir().join(format!("archpredict_fault_replay_{}", std::process::id()));
    let cache = dir.join("simcache.csv");
    let _ = std::fs::remove_dir_all(&dir);
    let _armed = arm(PLAN_SEED, FailAction::Error, RATE);

    let oracle = stack(&space, RETRY_SEED, parallelism);
    let mut uninterrupted = Explorer::new(&space, &oracle, faulted_config(parallelism));
    uninterrupted.run();
    let history = uninterrupted.history();
    for (round_number, round) in history.iter().enumerate() {
        assert_eq!(
            round.samples,
            25 * (round_number + 1),
            "round {round_number} fell short of its budget"
        );
    }
    let predictions = bits(&uninterrupted.predict_space());

    // Every kill point replays a round that quarantines and resamples a
    // point; killed after its last round, the run replays whole.
    let round_1 = history[0].simulation;
    assert!(
        round_1.quarantined > 0 && round_1.resampled > 0,
        "round 1 never quarantined and resampled: {round_1:?}"
    );
    for killed_after in 1..=history.len() {
        {
            let oracle = stack(&space, RETRY_SEED, parallelism);
            let mut explorer = Explorer::new(&space, &oracle, faulted_config(parallelism));
            let simcache = oracle.inner();
            for _ in 0..killed_after {
                explorer.try_step().expect("round");
                simcache.persist(&cache).expect("persist simcache");
            }
            // Killed here: the explorer and its oracle stack are dropped
            // without any shutdown path.
        }
        std::fs::write(dir.join("simcache.csv.0.0.tmp"), "index,value\n17,0.")
            .expect("plant torn temp file");

        let oracle = stack(&space, RETRY_SEED, parallelism);
        oracle.inner().load(&cache).expect("load simcache");
        let mut replayed = Explorer::new(&space, &oracle, faulted_config(parallelism));
        replayed.try_run().expect("replay the study");

        let mut expected = curve_of("counting", history);
        for point in &mut expected.points[..killed_after] {
            *point = point.replayed();
        }
        assert_eq!(
            curve_of("counting", replayed.history()).to_csv_deterministic(),
            expected.to_csv_deterministic(),
            "killed after round {killed_after}"
        );
        assert_eq!(replayed.sampled_indices(), uninterrupted.sampled_indices());
        assert_eq!(replayed.history().len(), history.len());
        for (a, b) in replayed.history().iter().zip(history) {
            assert_eq!(a.estimate, b.estimate);
            let folds = |round: &Round| -> Vec<(usize, u64, u32)> {
                round
                    .folds
                    .iter()
                    .map(|f| (f.epochs, f.best_es_error.to_bits(), f.reinits))
                    .collect()
            };
            assert_eq!(folds(a), folds(b), "killed after round {killed_after}");
        }
        assert_eq!(bits(&replayed.predict_space()), predictions);
        let simulated_after_kill: u64 = history[killed_after..]
            .iter()
            .map(|round| round.simulation.unique_simulations)
            .sum();
        assert_eq!(leaf_calls(&oracle) as u64, simulated_after_kill);
    }
    std::fs::remove_dir_all(&dir).expect("clean up simcache dir");
}

/// A pooled gzip+mcf fit through `leaf`'s faulted stacks, with the
/// retry seed `retry_seed(app)` per application; returns the fit's
/// simulation totals, its sample count and its outcome (no sampled
/// indices: the pool has its own per app).
fn crossapp_run<E: PointEvaluator>(
    leaf: impl Fn(Benchmark) -> E,
    retry_seed: impl Fn(Benchmark) -> u64,
    per_app: usize,
    train: TrainConfig,
    seed: u64,
    label: &str,
) -> (SimStats, usize, Outcome) {
    let space = Study::MemorySystem.space();
    let parallelism = train.parallelism;
    let evaluators: Vec<_> = [Benchmark::Gzip, Benchmark::Mcf]
        .into_iter()
        .map(|app| {
            (
                app,
                faulted(leaf(app), &space, retry_seed(app), parallelism),
            )
        })
        .collect();
    let model = CrossAppModel::fit(&space, &evaluators, per_app, &train, seed);
    let mut curve = LearningCurve::new(label);
    curve.push(&model.round(), None);
    let probes = model.predict_indices(&space, &[0, 123, 4_567], Benchmark::Mcf, parallelism);
    let outcome = Outcome::new(&curve, &[], &probes);
    (model.simulation, model.samples, outcome)
}

/// A pooled cross-application fit under injected faults fills every
/// application's quota, records the faults in its telemetry, and is
/// bit-for-bit identical at one thread, four threads, and auto
/// parallelism. The counting leaf runs at a 50% fault rate, where the
/// resample loop fires; the real simulator at 40%, where its CSV is
/// pinned.
#[test]
fn faulted_crossapp_fit_is_deterministic_across_parallelism() {
    let train = |max_epochs, patience, parallelism| TrainConfig {
        max_epochs,
        patience,
        parallelism,
        ..TrainConfig::default()
    };
    {
        // An index is quarantined after three faulted attempts (12.5%).
        let _armed = arm(PLAN_SEED, FailAction::Error, 0.5);
        let space = Study::MemorySystem.space();
        let (stats, samples, _) = assert_deterministic(|parallelism| {
            crossapp_run(
                |_| CountingEvaluator::new(space.clone()),
                |app| match app {
                    Benchmark::Gzip => 0xA9_01,
                    _ => 0xA9_02,
                },
                40,
                train(25, 8, parallelism),
                0xCA_FA17,
                "crossapp-faulted",
            )
        });
        assert_eq!(samples, 80, "both apps reach their quota");
        assert!(
            stats.failures > 0 && stats.retries > 0,
            "fault schedule never fired: {stats:?}"
        );
        assert!(
            stats.resampled > 0,
            "resample loop never exercised: {stats:?}"
        );
    }

    let _armed = arm(PLAN_SEED, FailAction::Error, STUDY_RATE);
    let (stats, samples, outcome) = assert_deterministic(|parallelism| {
        crossapp_run(
            study_leaf,
            study_retry_seed,
            20,
            train(40, 10, parallelism),
            0x1BEC,
            "crossapp",
        )
    });
    assert_eq!(samples, 40, "both apps reach their quota");
    assert!(
        stats.failures > 0 && stats.retries > 0,
        "fault schedule never fired: {stats:?}"
    );
    assert_eq!(
        fnv1a_64(outcome.csv.as_bytes()),
        STUDY_CROSSAPP_DIGEST,
        "the real leaf's cross-application curve moved:\n{}",
        outcome.csv
    );
}
