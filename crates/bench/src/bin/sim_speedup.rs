//! Batched-simulation speedup table: the deduplicating, sharded-cache
//! oracle against the naive point-at-a-time loop, and the cached batch at
//! 1, 2, 4, … worker threads up to the machine's core count — with
//! bit-for-bit determinism of the results checked at every thread count
//! (the determinism checks stay armed even on one core, where the speedup
//! assertions are skipped).
//!
//! The work list repeats each unique design point `dup_factor` times
//! (learning-curve workloads re-touch their training and evaluation sets
//! constantly), so even on one core the cached oracle must beat the naive
//! loop: it simulates each unique point once where the naive path
//! simulates every occurrence. Parallel speedup on top of that is asserted
//! only on machines with enough cores. Usage:
//!
//! ```text
//! cargo run --release --bin sim_speedup [unique_points] [dup_factor] [repeats] [--output-json]
//! ```
//!
//! `--output-json` writes `results/sim_speedup.json` (machine-readable
//! mirror of the CSV rows plus run metadata) alongside the CSV.

use archpredict::simulate::{
    CachedEvaluator, Oracle, PointEvaluator, SimBudget, SimStats, StudyEvaluator,
};
use archpredict::studies::Study;
use archpredict_ann::Parallelism;
use archpredict_bench::write_artifact;
use archpredict_stats::rng::Xoshiro256;
use archpredict_workloads::{Benchmark, TraceGenerator};
use std::path::Path;
use std::time::Instant;

/// Below this many total evaluations, skip the cached-beats-naive
/// assertion: fixed setup costs dominate and the comparison is noise.
const SPEEDUP_ASSERT_MIN_EVALS: usize = 96;

/// Parallel speedup is asserted only with at least this many cores (2-core
/// CI boxes show real but sub-threshold wins).
const PARALLEL_ASSERT_MIN_CORES: usize = 4;

fn main() {
    let (flags, positional): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|a| a.starts_with("--"));
    let output_json = flags.iter().any(|f| f == "--output-json");
    if let Some(unknown) = flags.iter().find(|f| *f != "--output-json") {
        panic!("unknown flag {unknown} (supported: --output-json)");
    }
    let mut args = positional.into_iter();
    let unique_points: usize = args
        .next()
        .map(|a| a.parse().expect("unique_points must be a number"))
        .unwrap_or(48);
    let dup_factor: usize = args
        .next()
        .map(|a| a.parse().expect("dup_factor must be a number"))
        .unwrap_or(3);
    let repeats: usize = args
        .next()
        .map(|a| a.parse().expect("repeats must be a number"))
        .unwrap_or(3);
    assert!(unique_points > 0 && dup_factor > 0 && repeats > 0);

    let study = Study::MemorySystem;
    let space = study.space();
    let benchmark = Benchmark::Gzip;
    let generator = TraceGenerator::new(benchmark);
    let budget = SimBudget::spread(&generator, 2, 4_000, 8_000);
    let evaluator = || StudyEvaluator::with_budget(study, benchmark, budget.clone());

    // Work list: every unique point `dup_factor` times, shuffled so
    // duplicates land in different worker spans.
    let unique_points = unique_points.min(space.size());
    let stride = space.size() / unique_points;
    let unique: Vec<usize> = (0..unique_points).map(|i| i * stride).collect();
    let mut indices: Vec<usize> = Vec::with_capacity(unique_points * dup_factor);
    for _ in 0..dup_factor {
        indices.extend_from_slice(&unique);
    }
    let mut rng = Xoshiro256::seed_from(7);
    archpredict_stats::sampling::shuffle(&mut indices, &mut rng);

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "sim_speedup: {} evaluations ({unique_points} unique × {dup_factor}), \
         best of {repeats} runs, {cores} core(s)",
        indices.len()
    );

    // Reference: the naive loop — every occurrence simulated, no cache.
    let naive_eval = evaluator();
    let mut baseline = f64::INFINITY;
    let mut reference = Vec::new();
    for _ in 0..repeats {
        let started = Instant::now();
        reference = indices
            .iter()
            .map(|&i| naive_eval.evaluate(&space.point(i)))
            .collect();
        baseline = baseline.min(started.elapsed().as_secs_f64());
    }

    // Thread counts: 1, 2, 4, ... up to the core count, plus Auto.
    let mut thread_counts = vec![1usize];
    let mut t = 2;
    while t < cores {
        thread_counts.push(t);
        t *= 2;
    }
    if cores > 1 {
        thread_counts.push(cores);
    }

    let mut rows = vec![("naive".to_string(), baseline, 1.0)];
    let mut cached_1 = f64::NAN;
    let mut run_cached = |label: String, parallelism: Parallelism| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..repeats {
            // A fresh cache each run: the timed work is one cold batch
            // (dedup + fan-out + inserts), not cache replay.
            let cached = CachedEvaluator::with_parallelism(evaluator(), space.clone(), parallelism);
            let mut stats = SimStats::default();
            let started = Instant::now();
            let results = cached.evaluate_batch(&space, &indices, &mut stats);
            best = best.min(started.elapsed().as_secs_f64());
            let results: Vec<f64> = results
                .into_iter()
                .map(|r| r.expect("fault-free evaluator"))
                .collect();
            assert_eq!(
                reference, results,
                "{label} cached batch diverged from the naive results"
            );
            assert_eq!(stats.unique_simulations, unique.len() as u64);
            assert_eq!(
                stats.cache_hits,
                (indices.len() - unique.len()) as u64,
                "in-batch duplicates must be served without simulating"
            );
        }
        rows.push((label, best, baseline / best));
        best
    };
    for &threads in &thread_counts {
        let best = run_cached(format!("cached_{threads}"), Parallelism::Fixed(threads));
        if threads == 1 {
            cached_1 = best;
        }
    }
    run_cached("cached_auto".to_string(), Parallelism::Auto);

    let mut table = String::from("path,seconds,speedup_vs_naive\n");
    eprintln!("{:>14} {:>10} {:>8}", "path", "seconds", "speedup");
    for (path, seconds, speedup) in &rows {
        eprintln!("{path:>14} {seconds:>10.4} {speedup:>7.2}x");
        table.push_str(&format!("{path},{seconds:.6},{speedup:.3}\n"));
    }
    eprintln!("(every thread count produced bit-for-bit identical results)");
    write_artifact(Path::new("results/sim_speedup.csv"), &table);
    if output_json {
        let mut json = String::from("{\n");
        json.push_str(&format!(
            "  \"benchmark\": \"{}\",\n  \"study\": \"{}\",\n  \"evaluations\": {},\n  \
             \"unique_points\": {},\n  \"dup_factor\": {},\n  \"repeats\": {},\n  \
             \"cores\": {},\n  \
             \"determinism\": \"bit_identical_all_paths\",\n  \"rows\": [\n",
            benchmark.name(),
            study.name(),
            indices.len(),
            unique_points,
            dup_factor,
            repeats,
            cores,
        ));
        for (i, (path, seconds, speedup)) in rows.iter().enumerate() {
            let comma = if i + 1 < rows.len() { "," } else { "" };
            json.push_str(&format!(
                "    {{\"path\": \"{path}\", \"seconds\": {seconds:.6}, \
                 \"speedup_vs_naive\": {speedup:.3}}}{comma}\n"
            ));
        }
        json.push_str("  ]\n}\n");
        write_artifact(Path::new("results/sim_speedup.json"), &json);
    }

    if indices.len() >= SPEEDUP_ASSERT_MIN_EVALS && dup_factor >= 2 {
        assert!(
            cached_1 <= baseline,
            "single-thread cached batch ({cached_1:.4}s) should beat the naive loop \
             ({baseline:.4}s): it simulates 1/{dup_factor} of the occurrences"
        );
    } else {
        eprintln!("(smoke run: cached-beats-naive assertion skipped)");
    }
    if cores >= PARALLEL_ASSERT_MIN_CORES && indices.len() >= SPEEDUP_ASSERT_MIN_EVALS {
        let cached_multi = rows
            .iter()
            .filter(|(p, ..)| p.starts_with("cached_") && p != "cached_1")
            .map(|&(_, s, _)| s)
            .fold(f64::INFINITY, f64::min);
        assert!(
            cached_multi < cached_1 / 1.5,
            "parallel cached batch ({cached_multi:.4}s) should be at least 1.5x the \
             single-thread cached path ({cached_1:.4}s) on {cores} cores"
        );
    } else {
        eprintln!("(parallel speedup assertion skipped: needs {PARALLEL_ASSERT_MIN_CORES}+ cores and a full run)");
    }
}
