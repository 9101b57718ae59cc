//! Training speedup table, two sections sharing one CSV:
//!
//! 1. **Kernel section** (always armed, single-thread): the vectorized
//!    backpropagation step (`Network::train_example`) against the textbook
//!    scalar reference (`Network::train_example_reference`) over identical
//!    presentations, asserting the resulting networks are **bit-for-bit
//!    identical** and that the vectorized step is at least
//!    [`MIN_KERNEL_SPEEDUP`]x faster. This gate does not depend on core
//!    count, so it fails loudly on any machine if the kernels regress.
//! 2. **Parallel-fit section**: wall-clock of a 10-fold `fit_ensemble` at
//!    1, 2, 4, … worker threads up to the machine's core count, with
//!    bit-for-bit determinism checked at every thread count. The ≥2x
//!    multi-thread assertion necessarily stays gated on having ≥4 cores.
//!
//! ```text
//! cargo run --release --bin train_speedup [samples] [repeats] [--output-json]
//! ```
//!
//! `--output-json` writes `results/train_speedup.json` (machine-readable
//! mirror of the CSV rows plus run metadata) alongside the CSV.

use archpredict_ann::{fit_ensemble, CvFit, Dataset, Network, Parallelism, Sample, TrainConfig};
use archpredict_bench::write_artifact;
use archpredict_stats::rng::Xoshiro256;
use std::path::Path;
use std::time::Instant;

/// Required speedup of the vectorized backprop step over the scalar
/// reference. On a 2-vCPU Xeon, ten runs of `-- 120 2` read 2.8–3.9× for
/// the input-major step and 1.5–2.4× for the output-major step it
/// replaced, so the gate fails when training falls back to that speed.
const MIN_KERNEL_SPEEDUP: f64 = 2.5;

/// Presentations per timed kernel run. Below roughly a hundred thousand
/// steps the comparison is noise-dominated, so smoke runs skip the gate.
const KERNEL_ASSERT_MIN_STEPS: usize = 100_000;

fn dataset(n: usize) -> Dataset {
    let mut rng = Xoshiro256::seed_from(5);
    (0..n)
        .map(|_| {
            let a = rng.next_f64();
            let b = rng.next_f64();
            let c = rng.next_f64();
            Sample::new(
                vec![a, b, c],
                0.3 + 0.5 * (a * 2.0).sin().abs() + 0.2 * b * c,
            )
        })
        .collect()
}

fn fits_match(a: &CvFit, b: &CvFit) -> bool {
    let probes = [[0.1, 0.2, 0.3], [0.5, 0.5, 0.5], [0.9, 0.4, 0.7]];
    a.estimate == b.estimate
        && probes
            .iter()
            .all(|x| a.ensemble.member_predictions(x) == b.ensemble.member_predictions(x))
}

/// Times `steps` single-example SGD presentations through `step`,
/// returning (seconds, trained network). Inputs/targets are regenerated
/// identically per call from a fixed seed.
fn run_trainer(
    steps: usize,
    mut net: Network,
    step: impl Fn(&mut Network, &[f64; 3], &[f64; 1]) -> f64,
) -> (f64, Network) {
    let mut rng = Xoshiro256::seed_from(11);
    let examples: Vec<([f64; 3], [f64; 1])> = (0..1024)
        .map(|_| {
            let x = [rng.next_f64(), rng.next_f64(), rng.next_f64()];
            let t = [0.3 + 0.4 * x[0] + 0.2 * x[1] * x[2]];
            (x, t)
        })
        .collect();
    let started = Instant::now();
    let mut sink = 0.0;
    for i in 0..steps {
        let (x, t) = &examples[i % examples.len()];
        sink += step(&mut net, x, t);
    }
    assert!(sink.is_finite(), "training error diverged");
    (started.elapsed().as_secs_f64(), net)
}

fn main() {
    let (flags, positional): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|a| a.starts_with("--"));
    let output_json = flags.iter().any(|f| f == "--output-json");
    if let Some(unknown) = flags.iter().find(|f| *f != "--output-json") {
        panic!("unknown flag {unknown} (supported: --output-json)");
    }
    let mut args = positional.into_iter();
    let samples: usize = args
        .next()
        .map(|a| a.parse().expect("samples must be a number"))
        .unwrap_or(200);
    let repeats: usize = args
        .next()
        .map(|a| a.parse().expect("repeats must be a number"))
        .unwrap_or(3);

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut rows: Vec<(String, f64, f64)> = Vec::new();

    // --- Kernel section: scalar reference vs vectorized backprop. ---
    let steps = (samples * 1000).max(KERNEL_ASSERT_MIN_STEPS.min(200_000));
    eprintln!("train_speedup kernel section: {steps} presentations, [3,16,1] network");
    let mut rng = Xoshiro256::seed_from(9);
    let fresh = Network::new(&[3, 16, 1], &mut rng);
    let (mut ref_best, mut vec_best) = (f64::INFINITY, f64::INFINITY);
    let mut nets: Option<(Network, Network)> = None;
    for _ in 0..repeats {
        let (t_ref, net_ref) = run_trainer(steps, fresh.clone(), |n, x, t| {
            n.train_example_reference(x, t, 0.1, 0.5)
        });
        let (t_vec, net_vec) = run_trainer(steps, fresh.clone(), |n, x, t| {
            n.train_example(x, t, 0.1, 0.5)
        });
        ref_best = ref_best.min(t_ref);
        vec_best = vec_best.min(t_vec);
        nets = Some((net_ref, net_vec));
    }
    let (net_ref, net_vec) = nets.expect("at least one repeat");
    assert_eq!(
        net_ref, net_vec,
        "vectorized trainer diverged from the scalar reference"
    );
    eprintln!("(vectorized and reference trainers produced bit-for-bit identical networks)");
    rows.push(("train_step_reference".into(), ref_best, 1.0));
    rows.push((
        "train_step_vectorized".into(),
        vec_best,
        ref_best / vec_best,
    ));

    // --- Parallel-fit section. ---
    let data = dataset(samples);
    let config_with = |parallelism| TrainConfig {
        max_epochs: 200,
        patience: 200,
        parallelism,
        ..TrainConfig::default()
    };

    // Thread counts: 1, 2, 4, ... up to the core count (always including
    // the core count itself, and 10 = fold count if the machine is bigger).
    let mut thread_counts = vec![1usize];
    let mut t = 2;
    while t < cores.min(10) {
        thread_counts.push(t);
        t *= 2;
    }
    if cores > 1 {
        thread_counts.push(cores.min(10));
    }

    eprintln!(
        "train_speedup fit section: {samples} samples, 10 folds, best of {repeats} runs, \
         {cores} core(s)"
    );
    let reference = fit_ensemble(&data, 10, &config_with(Parallelism::Fixed(1)), 7);

    let mut fit_baseline = f64::NAN;
    for &threads in &thread_counts {
        let config = config_with(Parallelism::Fixed(threads));
        let mut best = f64::INFINITY;
        for _ in 0..repeats {
            let started = Instant::now();
            let fit = fit_ensemble(&data, 10, &config, 7);
            best = best.min(started.elapsed().as_secs_f64());
            assert!(
                fits_match(&reference, &fit),
                "{threads}-thread fit diverged from the sequential fit"
            );
        }
        if threads == 1 {
            fit_baseline = best;
        }
        rows.push((format!("fit_threads_{threads}"), best, fit_baseline / best));
    }
    eprintln!("(all thread counts produced bit-for-bit identical fits)");

    let mut table = String::from("path,seconds,speedup_vs_baseline\n");
    eprintln!("{:>22} {:>10} {:>8}", "path", "seconds", "speedup");
    for (path, seconds, speedup) in &rows {
        eprintln!("{path:>22} {seconds:>10.4} {speedup:>7.2}x");
        table.push_str(&format!("{path},{seconds:.6},{speedup:.3}\n"));
    }
    write_artifact(Path::new("results/train_speedup.csv"), &table);

    if output_json {
        let mut json = String::from("{\n");
        json.push_str(&format!(
            "  \"samples\": {samples},\n  \"kernel_steps\": {steps},\n  \
             \"repeats\": {repeats},\n  \"cores\": {cores},\n  \"folds\": 10,\n  \
             \"determinism\": \"bit_identical_all_paths\",\n  \"rows\": [\n"
        ));
        for (i, (path, seconds, speedup)) in rows.iter().enumerate() {
            let comma = if i + 1 < rows.len() { "," } else { "" };
            json.push_str(&format!(
                "    {{\"path\": \"{path}\", \"seconds\": {seconds:.6}, \
                 \"speedup_vs_baseline\": {speedup:.3}}}{comma}\n"
            ));
        }
        json.push_str("  ]\n}\n");
        write_artifact(Path::new("results/train_speedup.json"), &json);
    }

    if steps >= KERNEL_ASSERT_MIN_STEPS {
        let kernel_speedup = ref_best / vec_best;
        assert!(
            kernel_speedup >= MIN_KERNEL_SPEEDUP,
            "vectorized backprop is only {kernel_speedup:.2}x over the scalar reference \
             ({vec_best:.4}s vs {ref_best:.4}s); must deliver >= {MIN_KERNEL_SPEEDUP}x"
        );
        eprintln!(
            "kernel gate: vectorized step is {kernel_speedup:.2}x \
             (>= {MIN_KERNEL_SPEEDUP}x required)"
        );
    } else {
        eprintln!("(smoke run: <{KERNEL_ASSERT_MIN_STEPS} steps, kernel gate skipped)");
    }
    if cores >= 4 {
        let best = rows
            .iter()
            .filter(|r| r.0.starts_with("fit_threads"))
            .map(|r| r.2)
            .fold(0.0, f64::max);
        assert!(
            best >= 2.0,
            "expected >=2x fit speedup with {cores} cores, best was {best:.2}x"
        );
    }
}
