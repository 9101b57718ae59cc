//! Fault-tolerance smoke gate: a quickstart-scale exploration driven
//! through the full fault-tolerant oracle stack
//! (`RetryingOracle<FaultInjectingOracle<CachedEvaluator<StudyEvaluator>>>`)
//! with a 10% injected fault rate. Asserts, with zero panics along the way:
//!
//! 1. every round still reaches its full sample budget — failed points are
//!    quarantined and replacements are drawn until the batch is whole;
//! 2. the learning-curve CSV (deterministic flavor, wall-clock columns
//!    excluded) is **bit-for-bit identical** at `Fixed(1)`, `Fixed(4)` and
//!    `Auto` parallelism — fault schedules, retries and resampling never
//!    depend on thread timing;
//! 3. a run killed after a round and re-run against the simcache it
//!    persisted after each round, with a torn `.tmp` file planted beside
//!    it, replays into the uninterrupted run's CSV: identical, except that
//!    the replayed rounds read every evaluation as a cache hit;
//! 4. a pooled cross-application fit through the same faulted stack fills
//!    every application's quota and emits an identical deterministic CSV
//!    at every parallelism setting.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p archpredict-bench --bin fault_tolerance \
//!     [batch] [rounds] [fault_percent]
//! ```

use archpredict::crossapp::CrossAppModel;
use archpredict::explorer::{Explorer, ExplorerConfig};
use archpredict::fault::{FaultConfig, FaultInjectingOracle};
use archpredict::report::LearningCurve;
use archpredict::simulate::{CachedEvaluator, RetryingOracle, SimBudget, SimStats, StudyEvaluator};
use archpredict::studies::Study;
use archpredict_ann::{Parallelism, TrainConfig};
use archpredict_bench::write_artifact;
use archpredict_workloads::{Benchmark, TraceGenerator};
use std::path::Path;

type Stack = RetryingOracle<FaultInjectingOracle<CachedEvaluator<StudyEvaluator>>>;

fn main() {
    let mut args = std::env::args().skip(1);
    let batch: usize = args
        .next()
        .map(|a| a.parse().expect("batch must be a number"))
        .unwrap_or(50);
    let rounds: usize = args
        .next()
        .map(|a| a.parse().expect("rounds must be a number"))
        .unwrap_or(3);
    let fault_percent: f64 = args
        .next()
        .map(|a| a.parse().expect("fault_percent must be a number"))
        .unwrap_or(10.0);
    assert!(batch > 0 && rounds > 0 && (0.0..100.0).contains(&fault_percent));

    let study = Study::MemorySystem;
    let space = study.space();
    let benchmark = Benchmark::Gzip;
    let generator = TraceGenerator::new(benchmark);
    let budget = SimBudget::spread(&generator, 2, 4_000, 8_000);

    let fault = FaultConfig {
        probability: fault_percent / 100.0,
        ..FaultConfig::default()
    };
    let stack = |parallelism: Parallelism| -> Stack {
        RetryingOracle::new(FaultInjectingOracle::with_config(
            CachedEvaluator::with_parallelism(
                StudyEvaluator::with_budget(study, benchmark, budget.clone()),
                space.clone(),
                parallelism,
            ),
            fault.clone(),
        ))
    };
    let config = |parallelism: Parallelism| ExplorerConfig {
        batch,
        target_error: 0.0,
        max_samples: batch * rounds,
        train: TrainConfig {
            max_epochs: 40,
            patience: 10,
            parallelism,
            ..TrainConfig::default()
        },
        seed: 0x1BEC,
        ..ExplorerConfig::default()
    };

    eprintln!(
        "fault_tolerance: {rounds} round(s) x {batch} points at {fault_percent}% \
         injected faults on the {} space",
        study.name()
    );

    // Gate 1+2: full runs at three parallelism settings; every round must
    // reach its budget and the deterministic CSVs must match bit-for-bit.
    let settings = [
        ("fixed_1", Parallelism::Fixed(1)),
        ("fixed_4", Parallelism::Fixed(4)),
        ("auto", Parallelism::Auto),
    ];
    let mut curves: Vec<(&str, LearningCurve)> = Vec::new();
    for &(label, parallelism) in &settings {
        let oracle = stack(parallelism);
        let mut explorer = Explorer::new(&space, &oracle, config(parallelism));
        let mut curve = LearningCurve::new(format!("{benchmark}"));
        let mut totals = SimStats::default();
        for round in 1..=rounds {
            let record = explorer.try_step().expect("step must not fail");
            assert_eq!(
                record.samples,
                batch * round,
                "[{label}] round {round} fell short of its budget \
                 (resampling must replace quarantined points)"
            );
            totals.merge(&record.simulation);
            let record = record.clone();
            curve.push(&record, None);
        }
        eprintln!(
            "  [{label:>7}] {} samples, {} failures, {} retries, {} quarantined, \
             {} resampled, {:.1}s virtual backoff",
            explorer.samples(),
            totals.failures,
            totals.retries,
            totals.quarantined,
            totals.resampled,
            oracle.virtual_backoff_seconds(),
        );
        assert!(
            totals.failures > 0,
            "[{label}] a {fault_percent}% fault rate over {} attempts injected nothing",
            batch * rounds
        );
        curves.push((label, curve));
    }
    let reference = &curves[0].1;
    let reference_csv = reference.to_csv_deterministic();
    for (label, curve) in &curves[1..] {
        assert_eq!(
            reference_csv,
            curve.to_csv_deterministic(),
            "deterministic CSV diverged between fixed_1 and {label}"
        );
    }
    eprintln!("  deterministic CSVs identical across all parallelism settings");

    // Gate 3: kill and replay. A run that persists its simcache after
    // every round is dropped mid-study (as `kill -9` between rounds leaves
    // it), a torn temp file is planted beside the cache, and a fresh stack
    // that loads the cache re-runs the whole study.
    let cache = Path::new("results/fault_tolerance/simcache.csv");
    let _ = std::fs::remove_file(cache);
    let killed_after = rounds.div_ceil(2);
    {
        let oracle = stack(Parallelism::Auto);
        let mut explorer = Explorer::new(&space, &oracle, config(Parallelism::Auto));
        let simcache = oracle.inner().inner();
        for _ in 0..killed_after {
            explorer.try_step().expect("step must not fail");
            simcache.persist(cache).expect("persist simcache");
        }
        // The explorer is dropped here without any shutdown path: the only
        // surviving state is the simcache, written atomically each round.
    }
    std::fs::write(
        cache.with_file_name("simcache.csv.0.0.tmp"),
        "index,value\n17,0.",
    )
    .expect("plant torn temp file");
    let oracle = stack(Parallelism::Auto);
    let loaded = oracle.inner().inner().load(cache).expect("load simcache");
    let mut replayed = Explorer::new(&space, &oracle, config(Parallelism::Auto));
    let mut curve = LearningCurve::new(format!("{benchmark}"));
    for _ in 0..rounds {
        let record = replayed.try_step().expect("step must not fail").clone();
        curve.push(&record, None);
    }
    // The replay is the uninterrupted run, except that the rounds the cache
    // already held report their evaluations as cache hits.
    let mut expected = reference.clone();
    for point in &mut expected.points[..killed_after] {
        *point = point.replayed();
    }
    assert_eq!(
        expected.to_csv_deterministic(),
        curve.to_csv_deterministic(),
        "kill after round {killed_after} + replay diverged from the uninterrupted run"
    );
    eprintln!(
        "  kill after round {killed_after} + replay over {loaded} cached sims reproduced \
         the CSV, its first {killed_after} round(s) as cache hits"
    );

    // Gate 4: cross-application determinism under the same faulted stack.
    // The pooled fit samples each application through the engine's
    // quarantine/resample loop; its single-round CSV must be identical at
    // every parallelism setting.
    let crossapp = |parallelism: Parallelism| -> (String, usize, SimStats) {
        let evaluators = vec![
            (benchmark, stack(parallelism)),
            (Benchmark::Mcf, {
                let generator = TraceGenerator::new(Benchmark::Mcf);
                let budget = SimBudget::spread(&generator, 2, 4_000, 8_000);
                RetryingOracle::new(FaultInjectingOracle::with_config(
                    CachedEvaluator::with_parallelism(
                        StudyEvaluator::with_budget(study, Benchmark::Mcf, budget),
                        space.clone(),
                        parallelism,
                    ),
                    fault.clone(),
                ))
            }),
        ];
        let train = TrainConfig {
            max_epochs: 40,
            patience: 10,
            parallelism,
            ..TrainConfig::default()
        };
        let model = CrossAppModel::fit(&space, &evaluators, batch, &train, 0x1BEC);
        let mut curve = LearningCurve::new("crossapp");
        curve.push(&model.round(), None);
        (
            curve.to_csv_deterministic(),
            model.samples,
            model.simulation,
        )
    };
    let (crossapp_csv, crossapp_samples, crossapp_stats) = crossapp(Parallelism::Fixed(1));
    assert_eq!(
        crossapp_samples,
        batch * 2,
        "crossapp fit fell short of its per-app quota under faults"
    );
    for &(label, parallelism) in &settings[1..] {
        let (csv, ..) = crossapp(parallelism);
        assert_eq!(
            crossapp_csv, csv,
            "crossapp deterministic CSV diverged between fixed_1 and {label}"
        );
    }
    eprintln!(
        "  crossapp fit: {} samples, {} failures, {} resampled — CSV identical \
         across all parallelism settings",
        crossapp_samples, crossapp_stats.failures, crossapp_stats.resampled
    );

    write_artifact(
        Path::new("results/fault_tolerance/curve.csv"),
        &reference_csv,
    );
    write_artifact(
        Path::new("results/fault_tolerance/crossapp_curve.csv"),
        &crossapp_csv,
    );

    eprintln!("fault_tolerance: all gates passed");
}
