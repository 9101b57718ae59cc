//! The §7 multi-task extension: one network predicting IPC together with
//! correlated auxiliary metrics (L2 MPKI, misprediction rate, L1D MPKI)
//! through a shared hidden layer, compared against a single-task model on
//! an identical simulation budget.
//!
//! Training data flows through the batch-first oracle stack — one cached
//! oracle per metric head — so the fit reports full [`SimStats`]
//! telemetry. The trained multi-output network persists through the model
//! registry (with the training-row indices riding in the payload), so a
//! warm re-run reloads it and re-runs only the baseline and held-out
//! measurements.
//!
//! Run with: `cargo run --release --example multitask`

use archpredict::campaign::{Encoder, PlainEncoder};
use archpredict::multitask::{fit_multitask_oracles, MetricsEvaluator, TargetMetric};
use archpredict::registry::{ModelKey, Registry};
use archpredict::simulate::{CachedEvaluator, Oracle, SimBudget, SimStats};
use archpredict::studies::Study;
use archpredict_ann::{train::train_network, Sample, TrainConfig};
use archpredict_stats::describe::{percent_error, Accumulator};
use archpredict_stats::json::Value;
use archpredict_stats::rng::Xoshiro256;
use archpredict_stats::sampling::sample_without_replacement;
use archpredict_workloads::{Benchmark, TraceGenerator};

fn main() {
    let app = Benchmark::Twolf;
    let study = Study::Processor;
    let space = study.space();

    // One oracle per metric head, each behind its own dedup cache.
    let heads: Vec<CachedEvaluator<MetricsEvaluator>> = [
        TargetMetric::Ipc,
        TargetMetric::L2Mpki,
        TargetMetric::MispredictRate,
        TargetMetric::L1dMpki,
    ]
    .iter()
    .map(|&target| {
        let generator = TraceGenerator::new(app);
        let budget = SimBudget::spread(&generator, 2, 6_000, 12_000);
        CachedEvaluator::new(
            MetricsEvaluator::new(study, app, budget).with_target(target),
            space.clone(),
        )
    })
    .collect();
    let head_refs: Vec<&CachedEvaluator<MetricsEvaluator>> = heads.iter().collect();

    // Multi-task: all four heads, early-stopped on IPC (head 0). The
    // artifact is a MultiTrainedModel, so it goes through the registry's
    // multi-output path; the 4-head target layout is folded into the
    // fingerprint so a single-output artifact can never satisfy this key.
    let registry = Registry::open("results/registry").expect("registry");
    let key = ModelKey::new(study.name(), "multitask-4head", app.name(), 13, 200);
    let fingerprint = PlainEncoder.fingerprint(&space)
        ^ archpredict_stats::hash::fnv1a_64(b"multitask:ipc+l2mpki+mispredict+l1dmpki");
    let config = TrainConfig::scaled_to(200);
    let outcome = registry
        .get_or_fit_multi(&key, fingerprint, || {
            eprintln!("simulating 200 training points x 4 heads...");
            let fit = fit_multitask_oracles(&space, &head_refs, 0, 200, &config, 13);
            println!(
                "multi-task fit: {} rows ({} dropped), {} unique sims, {} cache hits, {:.2}G instructions",
                fit.indices.len(),
                fit.dropped,
                fit.simulation.unique_simulations,
                fit.simulation.cache_hits,
                fit.simulation.simulated_instructions as f64 / 1e9,
            );
            let indices = Value::Array(
                fit.indices
                    .iter()
                    .map(|&i| Value::num(i as f64))
                    .collect(),
            );
            let payload = Value::Object(vec![
                ("indices".into(), indices),
                ("dropped".into(), Value::num(fit.dropped as f64)),
            ]);
            Ok((fit.model, payload))
        })
        .expect("fit or load");
    let model = &outcome.model;
    let indices: Vec<usize> = outcome
        .payload
        .get("indices")
        .expect("payload has training rows")
        .as_array()
        .expect("indices is an array")
        .iter()
        .map(|v| v.as_usize().expect("row index"))
        .collect();
    if outcome.warm {
        println!(
            "multi-task model warm from registry: {} training rows, {} heads",
            indices.len(),
            model.tasks()
        );
    }

    // Single-task baseline on the identical training rows — the primary
    // head's cache serves every repeat lookup.
    let mut reuse = SimStats::default();
    let ipc_rows = head_refs[0].evaluate_batch(&space, &indices, &mut reuse);
    println!(
        "baseline reuse: {} cache hits, {} new sims",
        reuse.cache_hits, reuse.unique_simulations
    );
    let samples: Vec<Sample> = indices
        .iter()
        .zip(&ipc_rows)
        .filter_map(|(&i, r)| {
            r.as_ref()
                .ok()
                .map(|&ipc| Sample::new(space.encode(&space.point(i)), ipc))
        })
        .collect();
    let split = samples.len() * 4 / 5;
    let train_refs: Vec<&Sample> = samples[..split].iter().collect();
    let es_refs: Vec<&Sample> = samples[split..].iter().collect();
    let mut rng = Xoshiro256::seed_from(11);
    let single = train_network(&train_refs, &es_refs, &config, &mut rng);

    // Fresh held-out points, true IPC through the same cached oracle.
    let test_idx = sample_without_replacement(space.size(), 150, &mut rng);
    let mut stats = SimStats::default();
    let actuals = head_refs[0].evaluate_batch(&space, &test_idx, &mut stats);
    let mut multi_err = Accumulator::new();
    let mut single_err = Accumulator::new();
    let mut probe = None;
    for (&i, actual) in test_idx.iter().zip(&actuals) {
        let Ok(ipc) = actual else { continue };
        let x = space.encode(&space.point(i));
        multi_err.add(percent_error(model.predict_primary(&x), *ipc));
        single_err.add(percent_error(single.predict(&x), *ipc));
        probe.get_or_insert(x);
    }

    println!(
        "multi-task  IPC error: {:.2}% ± {:.2}",
        multi_err.mean(),
        multi_err.population_std_dev()
    );
    println!(
        "single-task IPC error: {:.2}% ± {:.2}",
        single_err.mean(),
        single_err.population_std_dev()
    );
    if let Some(x) = probe {
        let preds = model.predict_all(&x);
        println!("\nauxiliary heads at one test point:");
        println!(
            "  ipc={:.3} l2_mpki={:.1} mispredict={:.3} l1d_mpki={:.1}",
            preds[0], preds[1], preds[2], preds[3]
        );
    }
}
