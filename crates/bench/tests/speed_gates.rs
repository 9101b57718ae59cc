//! Speed gates. The paper's refinement loop re-trains a 10-fold ensemble
//! and sweeps the whole space every round, so the inference and training
//! kernels and the simulation cache must stay faster than the paths they
//! replaced, and telemetry must stay close to free. Each gate also checks
//! that the fast path's results are bit-identical to the path it is timed
//! against, so no gate can pass by computing something else.
//!
//! Timings mean nothing in a debug build, so every gate is ignored there
//! and runs under `cargo test --release`:
//!
//! ```text
//! cargo test --release -p archpredict-bench --test speed_gates -- --nocapture
//! ```
//!
//! The gates hold one lock while they run, so none times its work while
//! another one runs, and each prints its reading to stderr.
//!
//! The two ratio gates (batched sweep, training step) divide by a
//! reference path, `Ensemble::predict_reference` or
//! `Network::train_example_reference`, whose own speed depends on the
//! weight layout: when the layers became input-major the references read
//! each output's weights with a stride and got slower, so both ratios
//! rose by more than the fast paths sped up.

use archpredict::infer::predict_indices;
use archpredict::simulate::{
    CachedEvaluator, Oracle, PointEvaluator, SimBudget, SimStats, StudyEvaluator,
};
use archpredict::space::DesignSpace;
use archpredict::studies::Study;
use archpredict::telemetry;
use archpredict_ann::{
    fit_ensemble, CvFit, Dataset, Ensemble, Network, Parallelism, PredictBuffer, Sample,
    TrainConfig,
};
use archpredict_stats::rng::Xoshiro256;
use archpredict_stats::sampling::{sample_without_replacement, shuffle};
use archpredict_workloads::{Benchmark, TraceGenerator};
use std::path::Path;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

static LOCK: Mutex<()> = Mutex::new(());

/// Held for the whole of a gate. The trace sink is disarmed on entry and
/// on drop (panic included), so an armed sink never leaks into another
/// gate's timing.
struct Gate {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for Gate {
    fn drop(&mut self) {
        telemetry::clear_trace();
    }
}

fn gate() -> Gate {
    let guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    telemetry::clear_trace();
    Gate { _lock: guard }
}

/// Runs `run` `repeats` times; returns the fastest wall time in seconds
/// and the last run's output.
fn best_of<T>(repeats: usize, mut run: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..repeats {
        let started = Instant::now();
        let out = run();
        best = best.min(started.elapsed().as_secs_f64());
        last = Some(out);
    }
    (best, last.expect("at least one repeat"))
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// 1, 2, 4, … below `max`, then `max` itself.
fn thread_counts(max: usize) -> Vec<usize> {
    let mut counts: Vec<usize> = std::iter::successors(Some(1), |t| Some(t * 2))
        .take_while(|&t| t < max)
        .collect();
    counts.push(max);
    counts
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// A 10-member memory-study ensemble fitted to synthetic targets:
/// inference cost does not depend on what the targets are.
fn synthetic_ensemble(space: &DesignSpace) -> Ensemble {
    let mut rng = Xoshiro256::seed_from(2);
    let data: Dataset = sample_without_replacement(space.size(), 300, &mut rng)
        .into_iter()
        .map(|i| {
            let f = space.encode(&space.point(i));
            let t = 0.5 + 0.3 * f[0];
            Sample::new(f, t)
        })
        .collect();
    let config = TrainConfig {
        max_epochs: 100,
        ..TrainConfig::default()
    };
    fit_ensemble(&data, 10, &config, 3).ensemble
}

fn gzip_evaluator() -> StudyEvaluator {
    let budget = SimBudget::spread(&TraceGenerator::new(Benchmark::Gzip), 2, 4_000, 8_000);
    StudyEvaluator::with_budget(Study::MemorySystem, Benchmark::Gzip, budget)
}

/// 48 memory-study points spread over the space, each three times,
/// shuffled so duplicates land in different worker spans.
fn duplicated_indices(space: &DesignSpace) -> Vec<usize> {
    let stride = space.size() / 48;
    let mut indices: Vec<usize> = (0..3).flat_map(|_| (0..48).map(|i| i * stride)).collect();
    shuffle(&mut indices, &mut Xoshiro256::seed_from(7));
    indices
}

/// The one-thread batched sweep is at least 4× the point-at-a-time
/// reference loop over 8 192 points, best of 10, and every faster path
/// (per-point blocked kernel, batched sweep at each thread count) is
/// bit-identical to it. At best of 2, host load that covered both
/// ~7 ms batched runs once took it to 3.60× on a busy 2-vCPU host.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing gate: runs under cargo test --release"
)]
fn batched_sweep_is_four_times_the_point_at_a_time_reference() {
    const POINTS: usize = 8_192;
    const REPEATS: usize = 10;
    const MIN_SPEEDUP: f64 = 4.0;
    let _gate = gate();
    let space = Study::MemorySystem.space();
    let ensemble = synthetic_ensemble(&space);
    let indices: Vec<usize> = (0..POINTS).collect();

    let (reference_s, reference) = best_of(REPEATS, || {
        indices
            .iter()
            .map(|&i| ensemble.predict_reference(&space.encode(&space.point(i))))
            .collect::<Vec<f64>>()
    });
    let mut buf = PredictBuffer::default();
    let point_blocked: Vec<f64> = indices
        .iter()
        .map(|&i| ensemble.predict_with(&space.encode(&space.point(i)), &mut buf))
        .collect();
    assert_eq!(
        bits(&point_blocked),
        bits(&reference),
        "per-point blocked path diverged from the reference"
    );
    let mut batched_s = f64::NAN;
    for threads in thread_counts(cores()) {
        let (seconds, swept) = best_of(REPEATS, || {
            predict_indices(&ensemble, &space, &indices, Parallelism::Fixed(threads))
        });
        assert_eq!(
            bits(&swept),
            bits(&reference),
            "{threads}-thread sweep diverged from the reference"
        );
        if threads == 1 {
            batched_s = seconds;
        }
    }

    let speedup = reference_s / batched_s;
    eprintln!(
        "batched sweep: reference {reference_s:.4} s, one-thread batched {batched_s:.4} s, \
         {speedup:.2}x (>= {MIN_SPEEDUP}x required)"
    );
    assert!(
        speedup >= MIN_SPEEDUP,
        "one-thread batched sweep is only {speedup:.2}x the point-at-a-time reference"
    );
}

/// `Network::train_example` is at least 2.5× `train_example_reference`
/// over 120 000 presentations to a [3, 16, 1] network, best of 2, and
/// the two trained networks are bit-identical.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing gate: runs under cargo test --release"
)]
fn vectorized_training_step_is_two_and_a_half_times_the_reference() {
    const STEPS: usize = 120_000;
    const REPEATS: usize = 2;
    const MIN_SPEEDUP: f64 = 2.5;
    let _gate = gate();
    let fresh = Network::new(&[3, 16, 1], &mut Xoshiro256::seed_from(9));
    let mut rng = Xoshiro256::seed_from(11);
    let examples: Vec<([f64; 3], [f64; 1])> = (0..1024)
        .map(|_| {
            let x = [rng.next_f64(), rng.next_f64(), rng.next_f64()];
            (x, [0.3 + 0.4 * x[0] + 0.2 * x[1] * x[2]])
        })
        .collect();
    let train = |step: fn(&mut Network, &[f64], &[f64], f64, f64) -> f64| {
        let mut net = fresh.clone();
        let mut sink = 0.0;
        for (x, t) in examples.iter().cycle().take(STEPS) {
            sink += step(&mut net, x, t, 0.1, 0.5);
        }
        assert!(sink.is_finite(), "training error diverged");
        net
    };

    let (reference_s, reference) = best_of(REPEATS, || train(Network::train_example_reference));
    let (vectorized_s, vectorized) = best_of(REPEATS, || train(Network::train_example));
    assert_eq!(
        vectorized, reference,
        "vectorized trainer diverged from the reference"
    );

    let speedup = reference_s / vectorized_s;
    eprintln!(
        "training step: reference {reference_s:.4} s, vectorized {vectorized_s:.4} s, \
         {speedup:.2}x (>= {MIN_SPEEDUP}x required)"
    );
    assert!(
        speedup >= MIN_SPEEDUP,
        "vectorized training step is only {speedup:.2}x the reference"
    );
}

/// A 10-fold fit of 120 samples is bit-identical at every thread count
/// up to the core count (at most 10), best of 2 each, and with at least
/// 4 cores the fastest is at least 2× the one-thread fit.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing gate: runs under cargo test --release"
)]
fn parallel_fit_is_twice_the_sequential_fit_on_four_cores() {
    const REPEATS: usize = 2;
    const MIN_SPEEDUP: f64 = 2.0;
    const MIN_CORES: usize = 4;
    let _gate = gate();
    let mut rng = Xoshiro256::seed_from(5);
    let data: Dataset = (0..120)
        .map(|_| {
            let (a, b, c) = (rng.next_f64(), rng.next_f64(), rng.next_f64());
            let t = 0.3 + 0.5 * (a * 2.0).sin().abs() + 0.2 * b * c;
            Sample::new(vec![a, b, c], t)
        })
        .collect();
    let fit = |threads| {
        let config = TrainConfig {
            max_epochs: 200,
            patience: 200,
            parallelism: Parallelism::Fixed(threads),
            ..TrainConfig::default()
        };
        fit_ensemble(&data, 10, &config, 7)
    };
    let probes = [[0.1, 0.2, 0.3], [0.5, 0.5, 0.5], [0.9, 0.4, 0.7]];
    let outputs = |fit: &CvFit| -> Vec<Vec<f64>> {
        probes
            .iter()
            .map(|x| fit.ensemble.member_predictions(x))
            .collect()
    };

    let cores = cores();
    let (sequential_s, sequential) = best_of(REPEATS, || fit(1));
    let mut speedup = 1.0_f64;
    for threads in thread_counts(cores.min(10)).into_iter().skip(1) {
        let (seconds, parallel) = best_of(REPEATS, || fit(threads));
        assert_eq!(parallel.estimate, sequential.estimate, "{threads} threads");
        assert_eq!(
            outputs(&parallel),
            outputs(&sequential),
            "{threads} threads"
        );
        speedup = speedup.max(sequential_s / seconds);
    }

    eprintln!(
        "parallel fit: one thread {sequential_s:.4} s, best parallel {speedup:.2}x on \
         {cores} core(s) (>= {MIN_SPEEDUP}x required at >= {MIN_CORES} cores)"
    );
    if cores >= MIN_CORES {
        assert!(
            speedup >= MIN_SPEEDUP,
            "parallel fit is only {speedup:.2}x the one-thread fit on {cores} cores"
        );
    }
}

/// Over 48 gzip memory points each evaluated three times, best of 3, the
/// one-thread cached batch is at least 2× the naive point-at-a-time loop
/// (it simulates each point once, a third of the loop's evaluations),
/// and with at least 4 cores the fastest parallel batch is at least 1.5×
/// the one-thread batch. Every batch equals the loop and counts 48
/// simulations and 96 hits.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing gate: runs under cargo test --release"
)]
fn cached_simulation_batch_beats_the_naive_loop() {
    const REPEATS: usize = 3;
    const MIN_CACHED_SPEEDUP: f64 = 2.0;
    const MIN_PARALLEL_SPEEDUP: f64 = 1.5;
    const MIN_CORES: usize = 4;
    let _gate = gate();
    let space = Study::MemorySystem.space();
    let indices = duplicated_indices(&space);

    let naive = gzip_evaluator();
    let (naive_s, reference) = best_of(REPEATS, || {
        indices
            .iter()
            .map(|&i| naive.evaluate(&space.point(i)))
            .collect::<Vec<f64>>()
    });
    let cores = cores();
    let batches: Vec<f64> = thread_counts(cores)
        .into_iter()
        .map(Parallelism::Fixed)
        .chain([Parallelism::Auto])
        .map(|parallelism| {
            // A fresh cache each run: the timed work is one cold batch
            // (dedup, fan-out, inserts), not a replay of the cache.
            let (seconds, (results, stats)) = best_of(REPEATS, || {
                let cached =
                    CachedEvaluator::with_parallelism(gzip_evaluator(), space.clone(), parallelism);
                let mut stats = SimStats::default();
                (cached.evaluate_batch(&space, &indices, &mut stats), stats)
            });
            let results: Vec<f64> = results
                .into_iter()
                .map(|r| r.expect("fault-free evaluator"))
                .collect();
            assert_eq!(bits(&results), bits(&reference), "{parallelism:?}");
            assert_eq!(stats.unique_simulations, 48, "{parallelism:?}");
            assert_eq!(stats.cache_hits, 96, "{parallelism:?}");
            seconds
        })
        .collect();
    let cached_s = batches[0];
    let parallel_s = batches[1..].iter().copied().fold(f64::INFINITY, f64::min);

    eprintln!(
        "cached simulation: naive {naive_s:.4} s, one-thread cached {cached_s:.4} s \
         ({:.2}x), best parallel {:.2}x on {cores} core(s)",
        naive_s / cached_s,
        cached_s / parallel_s
    );
    assert!(
        naive_s >= cached_s * MIN_CACHED_SPEEDUP,
        "one-thread cached batch ({cached_s:.4} s) is not {MIN_CACHED_SPEEDUP}x the naive \
         loop ({naive_s:.4} s) although it simulates a third of the evaluations"
    );
    if cores >= MIN_CORES {
        assert!(
            parallel_s < cached_s / MIN_PARALLEL_SPEEDUP,
            "parallel cached batch ({parallel_s:.4} s) is not {MIN_PARALLEL_SPEEDUP}x the \
             one-thread batch ({cached_s:.4} s) on {cores} cores"
        );
    }
}

/// Best of `repeats` runs of `run` with the trace sink disarmed and
/// armed (logging to `trace`), each with its last output. The two sides
/// alternate run by run, so drift over the gate (clock ramp-up, warming
/// caches) cannot favour either side.
fn disarmed_and_armed<T>(
    repeats: usize,
    trace: &Path,
    mut run: impl FnMut() -> T,
) -> [(f64, T); 2] {
    let mut timed = |armed: bool| {
        if armed {
            telemetry::install_trace(trace).expect("arm the trace sink");
        }
        let once = best_of(1, &mut run);
        telemetry::clear_trace();
        once
    };
    let mut best = [timed(false), timed(true)];
    for _ in 1..repeats {
        for (armed, slot) in best.iter_mut().enumerate() {
            let (seconds, out) = timed(armed == 1);
            *slot = (slot.0.min(seconds), out);
        }
    }
    best
}

/// With the JSONL trace sink armed, eight one-thread sweeps of 8 192
/// points and one cached batch of 48 × 3 simulations each run less than
/// 2 % slower than disarmed, best of 15; predictions and simulation
/// results are bit-identical either way, and the armed runs write at
/// least one span event per sweep. Best of 5 spread about as wide as the
/// bound and failed about one run in ten with no change to the traced
/// code; the extra repeats narrow the best-of toward each side's floor.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing gate: runs under cargo test --release"
)]
fn armed_tracing_slows_the_hot_paths_by_under_two_percent() {
    const POINTS: usize = 8_192;
    const SWEEPS: usize = 8;
    const REPEATS: usize = 15;
    const MAX_OVERHEAD_PCT: f64 = 2.0;
    let _gate = gate();
    let trace = std::env::temp_dir().join(format!(
        "archpredict_speed_gates_{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&trace);
    let space = Study::MemorySystem.space();

    // Each sweep is one `infer.sweep` span, so the armed run pays one
    // JSONL append per call.
    let ensemble = synthetic_ensemble(&space);
    let points: Vec<usize> = (0..POINTS).collect();
    let [(sweep_disarmed, predictions), (sweep_armed, armed_predictions)] =
        disarmed_and_armed(REPEATS, &trace, || {
            let mut last = Vec::new();
            for _ in 0..SWEEPS {
                last = predict_indices(&ensemble, &space, &points, Parallelism::Fixed(1));
            }
            last
        });
    let indices = duplicated_indices(&space);
    let [(batch_disarmed, (results, stats)), (batch_armed, (armed_results, armed_stats))] =
        disarmed_and_armed(REPEATS, &trace, || {
            let cached = CachedEvaluator::with_parallelism(
                gzip_evaluator(),
                space.clone(),
                Parallelism::Fixed(1),
            );
            let mut stats = SimStats::default();
            (cached.evaluate_batch(&space, &indices, &mut stats), stats)
        });

    assert_eq!(
        bits(&armed_predictions),
        bits(&predictions),
        "arming the trace sink changed the predictions"
    );
    assert!(results.iter().all(Result::is_ok));
    assert_eq!(
        armed_results, results,
        "arming the trace sink changed the simulations"
    );
    assert_eq!(armed_stats.unique_simulations, stats.unique_simulations);
    assert_eq!(armed_stats.cache_hits, stats.cache_hits);
    let events = std::fs::read_to_string(&trace).expect("read the trace log");
    let _ = std::fs::remove_file(&trace);
    let spans = events
        .lines()
        .filter(|l| l.contains("\"event\":\"span\""))
        .count();
    assert!(
        spans >= SWEEPS,
        "armed runs wrote {spans} span events, fewer than {SWEEPS}"
    );

    let legs = [
        ("predict sweep", sweep_disarmed, sweep_armed),
        ("simulation batch", batch_disarmed, batch_armed),
    ];
    for (leg, disarmed, armed) in legs {
        eprintln!(
            "armed tracing, {leg}: disarmed {disarmed:.4} s, armed {armed:.4} s, {:+.2} % \
             (< {MAX_OVERHEAD_PCT} % required)",
            (armed / disarmed - 1.0) * 100.0
        );
    }
    for (leg, disarmed, armed) in legs {
        let overhead = (armed / disarmed - 1.0) * 100.0;
        assert!(
            overhead < MAX_OVERHEAD_PCT,
            "{leg}: the armed run is {overhead:.2} % slower than disarmed"
        );
    }
}
