//! Fault-tolerance integration tests over the full oracle stack
//! (`RetryingOracle<CachedEvaluator<_>>` with the `oracle.evaluate`
//! failpoint armed): the leaf simulator runs exactly once per surviving
//! index no matter the fault schedule, exploration under faults is
//! bit-for-bit deterministic at every parallelism setting, and a run
//! killed between rounds replays from its persisted simcache into the
//! identical learning curve.
//!
//! Every test arms the plan through [`oracle_faults::arm`], which holds a
//! file-wide lock and disarms on drop.

mod oracle_faults;

use archpredict::crossapp::CrossAppModel;
use archpredict::explorer::{Explorer, ExplorerConfig, Round};
use archpredict::failpoint::{self, FailAction};
use archpredict::report::LearningCurve;
use archpredict::simulate::{
    CachedEvaluator, Oracle, PointEvaluator, RetryPolicy, RetryingOracle, SimError, SimStats,
    FP_ORACLE_EVALUATE,
};
use archpredict::space::{DesignPoint, DesignSpace};
use archpredict::studies::Study;
use archpredict_ann::{Parallelism, TrainConfig};
use archpredict_workloads::Benchmark;
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

type Stack = RetryingOracle<CachedEvaluator<CountingEvaluator>>;

/// A faulted stack whose schedule under the armed plan is drawn by
/// `retry_seed`.
fn stack(space: &DesignSpace, retry_seed: u64, parallelism: Parallelism) -> Stack {
    RetryingOracle::with_policy(
        CachedEvaluator::with_parallelism(
            CountingEvaluator::new(space.clone()),
            space.clone(),
            parallelism,
        ),
        RetryPolicy {
            seed: retry_seed,
            ..RetryPolicy::default()
        },
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

fn curve_of(history: &[Round]) -> LearningCurve {
    let mut curve = LearningCurve::new("counting");
    for round in history {
        curve.push(round, None);
    }
    curve
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|x| x.to_bits()).collect()
}

fn run_curve(parallelism: Parallelism) -> (String, Vec<usize>, Vec<u64>) {
    let space = Study::MemorySystem.space();
    let oracle = stack(&space, RETRY_SEED, parallelism);
    let mut explorer = Explorer::new(&space, &oracle, faulted_config(parallelism));
    explorer.run();
    (
        curve_of(explorer.history()).to_csv_deterministic(),
        explorer.sampled_indices().to_vec(),
        bits(&explorer.predict_indices(&[0, 123, 4_567, 11_000])),
    )
}

/// Exploration under a 30% injected fault rate is bit-for-bit identical at
/// one thread, four threads, and auto parallelism: same sampled indices,
/// same learning curve, same predictions.
#[test]
fn faulted_exploration_is_deterministic_across_parallelism() {
    let _armed = arm(PLAN_SEED, FailAction::Error, RATE);
    let (csv_1, indices_1, probes_1) = run_curve(Parallelism::Fixed(1));
    for parallelism in [Parallelism::Fixed(4), Parallelism::Auto] {
        let (csv, indices, probes) = run_curve(parallelism);
        assert_eq!(csv_1, csv, "curve diverged at {parallelism:?}");
        assert_eq!(indices_1, indices, "samples diverged at {parallelism:?}");
        assert_eq!(probes_1, probes, "predictions diverged at {parallelism:?}");
    }
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

        let mut expected = curve_of(history);
        for point in &mut expected.points[..killed_after] {
            *point = point.replayed();
        }
        assert_eq!(
            curve_of(replayed.history()).to_csv_deterministic(),
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

fn crossapp_run(parallelism: Parallelism) -> (CrossAppModel, String, Vec<u64>) {
    let space = Study::MemorySystem.space();
    // Under a 50% fault rate (an index is quarantined after three, 12.5%),
    // with a distinct schedule per app, the pooled sampler goes through
    // its quarantine-and-resample loop.
    let evaluators = vec![
        (Benchmark::Gzip, stack(&space, 0xA9_01, parallelism)),
        (Benchmark::Mcf, stack(&space, 0xA9_02, parallelism)),
    ];
    let train = TrainConfig {
        max_epochs: 25,
        patience: 8,
        parallelism,
        ..TrainConfig::default()
    };
    let model = CrossAppModel::fit(&space, &evaluators, 40, &train, 0xCA_FA17);
    let mut curve = LearningCurve::new("crossapp-faulted");
    curve.push(&model.round(), None);
    let probes: Vec<u64> = model
        .predict_indices(&space, &[0, 123, 4_567], Benchmark::Mcf, parallelism)
        .iter()
        .map(|p| p.to_bits())
        .collect();
    (model, curve.to_csv_deterministic(), probes)
}

/// A pooled cross-application fit under a 50% injected fault rate still
/// fills every application's quota (the resample loop fires), records the
/// faults in its telemetry, and is bit-for-bit identical at one thread,
/// four threads, and auto parallelism.
#[test]
fn faulted_crossapp_fit_is_deterministic_across_parallelism() {
    let _armed = arm(PLAN_SEED, FailAction::Error, 0.5);
    let (model, csv_1, probes_1) = crossapp_run(Parallelism::Fixed(1));
    assert_eq!(model.samples, 80, "both apps reach their quota");
    assert!(
        model.simulation.failures > 0 && model.simulation.retries > 0,
        "fault schedule never fired: {:?}",
        model.simulation
    );
    assert!(
        model.simulation.resampled > 0,
        "resample loop never exercised: {:?}",
        model.simulation
    );
    for parallelism in [Parallelism::Fixed(4), Parallelism::Auto] {
        let (_, csv, probes) = crossapp_run(parallelism);
        assert_eq!(csv_1, csv, "curve diverged at {parallelism:?}");
        assert_eq!(probes_1, probes, "predictions diverged at {parallelism:?}");
    }
}
