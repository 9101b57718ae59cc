//! Integration tests for the distributed simulation oracle
//! (`archpredict::distributed`): bit-for-bit determinism across worker
//! counts (including the 0-worker in-process fallback), crash recovery
//! under SIGKILL, wall-clock span deadlines, and the flow of distributed
//! failures through `RetryingOracle` retry/quarantine.
//!
//! Every test that spawns real workers builds the `archpredict-worker`
//! binary on demand (same profile as this test binary), so the suite
//! passes under both `cargo test` and `cargo test -p archpredict`.

use archpredict::distributed::{
    locate_worker_binary, ProcessPoolOracle, SleepyEvaluator, WorkerSpec,
};
use archpredict::explorer::{Explorer, ExplorerConfig};
use archpredict::report::LearningCurve;
use archpredict::simulate::{
    evaluate_indices, CachedEvaluator, Oracle, RetryingOracle, SimBudget, SimError, SimResult,
    SimStats,
};
use archpredict::studies::Study;
use archpredict_ann::{Parallelism, TrainConfig};
use archpredict_workloads::{Benchmark, TraceGenerator};
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

/// Builds (a no-op when fresh) and locates the worker binary. Built
/// once per process; concurrent tests share the result. Always goes
/// through cargo: `cargo test -p archpredict` does not track the worker
/// as a dependency, so a previously built binary may speak a stale
/// protocol.
fn worker_binary() -> &'static PathBuf {
    static BINARY: OnceLock<PathBuf> = OnceLock::new();
    BINARY.get_or_init(|| {
        let mut build = std::process::Command::new(env!("CARGO"));
        build.args(["build", "-p", "archpredict-worker"]);
        if !cfg!(debug_assertions) {
            build.arg("--release");
        }
        let status = build.status().expect("run cargo build for the worker");
        assert!(status.success(), "building archpredict-worker failed");
        locate_worker_binary().expect("worker binary after building it")
    })
}

/// A pool over `spec` with `workers` processes and no span deadline.
fn pool(spec: &WorkerSpec, workers: usize) -> ProcessPoolOracle {
    if workers > 0 {
        worker_binary();
    }
    let mut pool = ProcessPoolOracle::with_workers(spec.clone(), workers).expect("build pool");
    pool.set_span_timeout(None);
    pool
}

fn sleepy_spec(sleep_micros: u64) -> WorkerSpec {
    WorkerSpec::Sleepy {
        study: Study::MemorySystem,
        sleep_micros,
        crash_index: None,
        nan_index: None,
    }
}

/// Results as comparable bits: `Ok` values via `to_bits` (bit-exact, NaN
/// included), errors as tagged variants.
fn bits(results: &[SimResult]) -> Vec<Result<u64, SimError>> {
    results.iter().map(|r| r.map(f64::to_bits)).collect()
}

/// Raw batches through the pool are bit-for-bit identical at every worker
/// count, 0 (in-process fallback) included — values, error placements,
/// duplicates and all.
#[test]
fn batches_are_bit_identical_across_worker_counts() {
    let spec = WorkerSpec::Sleepy {
        study: Study::MemorySystem,
        sleep_micros: 0,
        crash_index: None,
        nan_index: Some(77),
    };
    let space = spec.space();
    // Scattered indices, the NaN index, and duplicates.
    let mut indices: Vec<usize> = (0..60).map(|i| (i * 389) % space.size()).collect();
    indices.push(77);
    indices.extend_from_slice(&indices.clone()[..10]);

    let reference = {
        let mut stats = SimStats::default();
        bits(&pool(&spec, 0).evaluate_batch(&space, &indices, &mut stats))
    };
    assert!(reference.contains(&Err(SimError::NonFinite)));
    for workers in [1, 2, 4] {
        let distributed = pool(&spec, workers);
        let mut stats = SimStats::default();
        let results = bits(&distributed.evaluate_batch(&space, &indices, &mut stats));
        assert_eq!(reference, results, "diverged at {workers} workers");
        assert_eq!(distributed.respawns(), 0, "clean run respawned a worker");
    }
}

/// Real detailed simulation crosses the pipe bit-exactly: a quick-budget
/// `StudyEvaluator` batch at 2 workers equals the in-process run.
#[test]
fn real_simulation_is_bit_exact_across_the_pipe() {
    let spec = WorkerSpec::Study {
        study: Study::MemorySystem,
        benchmark: Benchmark::Mcf,
        budget: SimBudget::quick(&TraceGenerator::new(Benchmark::Mcf)),
    };
    let space = spec.space();
    let indices: Vec<usize> = (0..24).map(|i| (i * 997) % space.size()).collect();
    let mut stats = SimStats::default();
    let reference = bits(&pool(&spec, 0).evaluate_batch(&space, &indices, &mut stats));
    let mut stats = SimStats::default();
    let results = bits(&pool(&spec, 2).evaluate_batch(&space, &indices, &mut stats));
    assert_eq!(reference, results);
}

fn campaign_config(parallelism: Parallelism) -> ExplorerConfig {
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
        seed: 0xD157,
        ..ExplorerConfig::default()
    }
}

type Stack = RetryingOracle<CachedEvaluator<ProcessPoolOracle>>;

fn stack(spec: &WorkerSpec, workers: usize) -> Stack {
    let space = spec.space();
    RetryingOracle::new(CachedEvaluator::new(pool(spec, workers), space))
}

/// Deterministic campaign outcome: the wall-clock-free learning-curve
/// CSV, the sampled indices, and probe predictions as exact bits.
fn campaign_outcome(spec: &WorkerSpec, workers: usize) -> (String, Vec<usize>, Vec<u64>) {
    let space = spec.space();
    let oracle = stack(spec, workers);
    let mut explorer = Explorer::new(&space, &oracle, campaign_config(Parallelism::Fixed(2)));
    explorer.run();
    let mut curve = LearningCurve::new("distributed");
    for round in explorer.history() {
        curve.push(round, None);
    }
    let probes: Vec<u64> = explorer
        .predict_indices(&[0, 123, 4_567, 11_000])
        .iter()
        .map(|p| p.to_bits())
        .collect();
    (
        curve.to_csv_deterministic(),
        explorer.sampled_indices().to_vec(),
        probes,
    )
}

/// Projects a deterministic learning-curve CSV down to its *value*
/// columns (label..mean_fold_epochs), dropping the simulation-telemetry
/// tail. A crash healed by a retry legitimately changes `sim_failures` /
/// `sim_retries` / `unique_simulations`, but must never change a value.
fn value_columns(csv: &str) -> String {
    csv.lines()
        .map(|line| line.split(',').take(8).collect::<Vec<_>>().join(","))
        .collect::<Vec<_>>()
        .join("\n")
}

/// A full exploration campaign over the distributed stack
/// (`RetryingOracle<CachedEvaluator<ProcessPoolOracle>>`) produces a
/// byte-identical deterministic learning curve at 0, 1, 2 and 4 workers.
#[test]
fn campaign_curves_are_identical_at_every_worker_count() {
    let spec = sleepy_spec(0);
    let (csv_0, sampled_0, probes_0) = campaign_outcome(&spec, 0);
    for workers in [1, 2, 4] {
        let (csv, sampled, probes) = campaign_outcome(&spec, workers);
        assert_eq!(csv_0, csv, "curve diverged at {workers} workers");
        assert_eq!(sampled_0, sampled, "samples diverged at {workers} workers");
        assert_eq!(
            probes_0, probes,
            "predictions diverged at {workers} workers"
        );
    }
}

/// SIGKILL-ing a worker mid-span surfaces exactly the in-flight index as
/// `SimError::Crashed`, leaves every batchmate's value intact, and
/// respawns the worker to finish the reassigned remainder.
#[test]
fn sigkill_mid_span_blames_one_index_and_respawns() {
    // 20 ms per evaluation: a 20-index span is in flight for ~400 ms,
    // a wide-open window for the kill below.
    let spec = sleepy_spec(20_000);
    let space = spec.space();
    let distributed = pool(&spec, 1);
    let indices: Vec<usize> = (0..20).map(|i| (i * 53) % space.size()).collect();

    let results = std::thread::scope(|scope| {
        let batch = scope.spawn(|| {
            let mut stats = SimStats::default();
            distributed.evaluate_batch(&space, &indices, &mut stats)
        });
        // Wait for the worker to spawn, let it get a few replies deep,
        // then SIGKILL it mid-evaluation.
        let pid = loop {
            if let Some(&pid) = distributed.worker_pids().first() {
                break pid;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        std::thread::sleep(Duration::from_millis(100));
        let killed = std::process::Command::new("/usr/bin/kill")
            .args(["-9", &pid.to_string()])
            .status()
            .expect("run kill");
        assert!(killed.success(), "kill -9 {pid} failed");
        batch.join().expect("batch thread")
    });

    let crashed: Vec<usize> = indices
        .iter()
        .zip(&results)
        .filter(|(_, r)| matches!(r, Err(SimError::Crashed)))
        .map(|(&i, _)| i)
        .collect();
    assert_eq!(
        crashed.len(),
        1,
        "exactly the in-flight index is blamed: {results:?}"
    );
    for (&index, result) in indices.iter().zip(&results) {
        if !crashed.contains(&index) {
            assert_eq!(
                *result,
                Ok(SleepyEvaluator::value_at(&space.point(index))),
                "batchmate {index} was poisoned"
            );
        }
    }
    assert!(distributed.respawns() >= 1, "no respawn recorded");
}

/// A worker killed mid-campaign heals through `RetryingOracle`: the crash
/// is retried against the respawned worker and the final learning curve
/// is byte-identical to a clean in-process run.
#[test]
fn killed_worker_heals_through_retry_into_identical_curve() {
    let spec = sleepy_spec(10_000);
    let space = spec.space();
    let (clean_csv, clean_sampled, clean_probes) = campaign_outcome(&sleepy_spec(0), 0);

    let oracle = stack(&spec, 2);
    let (healed_csv, healed_sampled, healed_probes) = std::thread::scope(|scope| {
        let killer = scope.spawn(|| {
            let distributed = oracle.inner().inner();
            let pid = loop {
                if let Some(&pid) = distributed.worker_pids().first() {
                    break pid;
                }
                std::thread::sleep(Duration::from_millis(1));
            };
            std::thread::sleep(Duration::from_millis(30));
            let _ = std::process::Command::new("/usr/bin/kill")
                .args(["-9", &pid.to_string()])
                .status();
        });
        let mut explorer = Explorer::new(&space, &oracle, campaign_config(Parallelism::Fixed(2)));
        explorer.run();
        killer.join().expect("killer thread");
        let mut curve = LearningCurve::new("distributed");
        let mut stats = SimStats::default();
        for round in explorer.history() {
            stats.merge(&round.simulation);
            curve.push(round, None);
        }
        // The kill almost always lands mid-span (10 ms/eval spans stay
        // busy for >100 ms) and then must show up as a retried failure.
        // On a heavily loaded host it can land in the idle gap between
        // spans, where the coordinator respawns without blaming an index;
        // that degraded case still proves crash recovery, so note it
        // instead of flaking.
        if stats.failures == 0 {
            eprintln!(
                "note: SIGKILL landed between spans (respawn without blame); \
                 retry flow is pinned by the deterministic-crash tests"
            );
        } else {
            assert!(
                stats.retries >= 1,
                "a crashed index was never retried: {stats:?}"
            );
        }
        let probes: Vec<u64> = explorer
            .predict_indices(&[0, 123, 4_567, 11_000])
            .iter()
            .map(|p| p.to_bits())
            .collect();
        (
            curve.to_csv_deterministic(),
            explorer.sampled_indices().to_vec(),
            probes,
        )
    });
    // The retry's extra simulation shows up in the telemetry columns (one
    // more failure, retry and unique simulation — that's the healing); the
    // values, sampled indices and predictions must be untouched by it.
    assert_eq!(
        value_columns(&clean_csv),
        value_columns(&healed_csv),
        "retry did not heal into the clean curve"
    );
    assert_eq!(
        clean_sampled, healed_sampled,
        "sampling diverged after the kill"
    );
    assert_eq!(
        clean_probes, healed_probes,
        "predictions diverged after the kill"
    );
    assert!(
        oracle.inner().inner().respawns() >= 1,
        "no respawn recorded"
    );
}

/// A deterministic crasher (the worker process aborts at one index) is
/// quarantined identically at every worker count — including 0, where the
/// in-process double returns `Crashed` instead of aborting — and never
/// poisons batchmates.
#[test]
fn deterministic_crash_quarantines_identically_at_every_worker_count() {
    let crash_index: usize = 1_234;
    let spec = WorkerSpec::Sleepy {
        study: Study::MemorySystem,
        sleep_micros: 0,
        crash_index: Some(crash_index as u64),
        nan_index: None,
    };
    let space = spec.space();
    let indices: Vec<usize> = vec![10, 600, crash_index, 4_000, 9_999];

    let run = |workers: usize| {
        let oracle = stack(&spec, workers);
        let mut stats = SimStats::default();
        let first = bits(&oracle.evaluate_batch(&space, &indices, &mut stats));
        let second = bits(&oracle.evaluate_batch(&space, &indices, &mut stats));
        (first, second, stats, oracle.quarantined())
    };

    let (first_0, second_0, stats_0, quarantined_0) = run(0);
    // The crasher burns every retry and lands in quarantine…
    assert_eq!(first_0[2], Err(SimError::Crashed));
    assert_eq!(second_0[2], Err(SimError::Quarantined));
    assert_eq!(quarantined_0, vec![crash_index]);
    assert!(stats_0.retries >= 1 && stats_0.quarantined == 1);
    // …while every batchmate keeps its value.
    for (slot, result) in first_0.iter().enumerate() {
        if slot != 2 {
            assert!(result.is_ok(), "batchmate {slot} poisoned: {result:?}");
        }
    }
    for workers in [1, 2, 4] {
        let (first, second, _, quarantined) = run(workers);
        assert_eq!(first_0, first, "first batch diverged at {workers} workers");
        assert_eq!(
            second_0, second,
            "second batch diverged at {workers} workers"
        );
        assert_eq!(quarantined_0, quarantined);
    }
}

/// A span that blows its wall-clock deadline surfaces `TimedOut` on the
/// in-flight index, and repeated timeouts quarantine it through
/// `RetryingOracle` while fast batchmates keep their values.
#[test]
fn span_deadline_times_out_and_quarantines_through_retry() {
    // 300 ms per evaluation vs a 60 ms deadline: the in-flight index can
    // never finish, so every attempt times out deterministically.
    let spec = sleepy_spec(300_000);
    let space = spec.space();
    let mut slow = pool(&spec, 1);
    slow.set_span_timeout(Some(Duration::from_millis(60)));

    let indices = vec![42usize, 43];
    let oracle = RetryingOracle::new(CachedEvaluator::new(slow, space.clone()));
    let mut stats = SimStats::default();
    let first = oracle.evaluate_batch(&space, &indices, &mut stats);
    assert_eq!(first, vec![Err(SimError::TimedOut); 2]);
    let second = oracle.evaluate_batch(&space, &indices, &mut stats);
    assert_eq!(second, vec![Err(SimError::Quarantined); 2]);
    let mut quarantined = oracle.quarantined();
    quarantined.sort_unstable();
    assert_eq!(quarantined, indices);
    let distributed = oracle.inner().inner();
    assert!(distributed.span_timeouts() >= 2, "deadline never fired");
    assert_eq!(distributed.respawns(), distributed.span_timeouts());
}

/// The in-process `SleepyEvaluator` honors its sleep (the knob the
/// deadline tests rely on) without distorting values. The batch runs on
/// one thread, so its two 30 ms sleeps add up instead of overlapping.
#[test]
fn sleepy_evaluator_sleeps_and_keeps_values() {
    let spec = sleepy_spec(30_000);
    let space = spec.space();
    let evaluator = spec.evaluator();
    let start = std::time::Instant::now();
    let mut stats = SimStats::default();
    let results = evaluate_indices(
        &evaluator,
        &space,
        &[5, 6],
        Parallelism::Fixed(1),
        &mut stats,
    );
    assert!(start.elapsed() >= Duration::from_millis(50));
    assert_eq!(results[0], Ok(SleepyEvaluator::value_at(&space.point(5))));
    assert_eq!(results[1], Ok(SleepyEvaluator::value_at(&space.point(6))));
}
