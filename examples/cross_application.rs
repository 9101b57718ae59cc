//! The §7 cross-application extension: one pooled model with a one-hot
//! application input, compared against independent per-application models
//! at the same total simulation budget.
//!
//! Both the pooled ensemble and the per-app baselines persist through the
//! model registry (encoder tags `crossapp` and `crossapp-solo`), so a
//! warm re-run skips every training campaign and only simulates the
//! held-out points used for the error comparison.
//!
//! Run with: `cargo run --release --example cross_application`

use archpredict::campaign::{AppEncoder, Encoder, PlainEncoder};
use archpredict::crossapp::CrossAppModel;
use archpredict::explorer::{Explorer, ExplorerConfig};
use archpredict::infer::true_error;
use archpredict::registry::{ModelKey, Registry};
use archpredict::simulate::{CachedEvaluator, SimBudget, StudyEvaluator};
use archpredict::studies::Study;
use archpredict_ann::{Ensemble, Parallelism, TrainConfig};
use archpredict_stats::json::Value;
use archpredict_stats::rng::Xoshiro256;
use archpredict_stats::sampling::sample_without_replacement;
use archpredict_workloads::{Benchmark, TraceGenerator};

fn main() {
    let study = Study::MemorySystem;
    let space = study.space();
    // Two FP codes with related memory behavior: sharing should help.
    let apps = [Benchmark::Mgrid, Benchmark::Applu];
    let per_app = 150; // small budget: the regime where pooling pays
    let seed = 21;

    let evaluators: Vec<(Benchmark, CachedEvaluator<StudyEvaluator>)> = apps
        .iter()
        .map(|&b| {
            let generator = TraceGenerator::new(b);
            (
                b,
                CachedEvaluator::new(
                    StudyEvaluator::with_budget(
                        study,
                        b,
                        SimBudget::spread(&generator, 2, 6_000, 12_000),
                    ),
                    space.clone(),
                ),
            )
        })
        .collect();

    // The pooled model's input space is the design encoding plus a
    // one-hot app id, so its artifact is fingerprinted with the app list
    // folded in — a run with different apps can never load it.
    let registry = Registry::open("results/registry").expect("registry");
    let app_tag = apps.map(|b| b.name()).join("+");
    let fingerprint = PlainEncoder.fingerprint(&space)
        ^ archpredict_stats::hash::fnv1a_64(format!("crossapp:{app_tag}").as_bytes());
    let key = ModelKey::new(
        study.name(),
        "crossapp",
        &app_tag,
        seed,
        per_app * apps.len(),
    );
    let outcome = registry
        .get_or_fit(&key, fingerprint, || {
            eprintln!("fitting pooled model ({per_app} sims per app)...");
            let pooled = CrossAppModel::fit(
                &space,
                &evaluators,
                per_app,
                &TrainConfig::scaled_to(per_app * apps.len()),
                seed,
            );
            let payload = Value::Object(vec![
                ("estimated_error".into(), Value::num(pooled.estimate.mean)),
                ("samples".into(), Value::num(pooled.samples as f64)),
                (
                    "fraction_sampled".into(),
                    Value::num(pooled.fraction_sampled),
                ),
                (
                    "cache_hits".into(),
                    Value::num(pooled.simulation.cache_hits as f64),
                ),
                (
                    "simulation_seconds".into(),
                    Value::num(pooled.simulation_seconds),
                ),
                (
                    "training_seconds".into(),
                    Value::num(pooled.training_seconds),
                ),
            ]);
            Ok((pooled.ensemble().clone(), payload))
        })
        .expect("fit or load");
    let num = |field: &str| outcome.payload.get(field).unwrap().as_f64().unwrap();
    println!(
        "pooled model over {:?}: estimated error {:.2}%{}",
        apps.map(|b| b.name()),
        num("estimated_error"),
        if outcome.warm { "  [warm]" } else { "" },
    );
    println!(
        "  {} sims ({:.2}% of space x apps), {} cache hits, {:.1}s sim + {:.1}s train",
        num("samples"),
        100.0 * num("fraction_sampled"),
        num("cache_hits"),
        num("simulation_seconds"),
        num("training_seconds"),
    );

    let mut rng = Xoshiro256::seed_from(77);
    let held_out = sample_without_replacement(space.size(), 150, &mut rng);
    let error_on =
        |model: &Ensemble, encoder: &dyn Encoder, evaluator: &CachedEvaluator<StudyEvaluator>| {
            let err = true_error(
                model,
                &space,
                encoder,
                evaluator,
                &held_out,
                Parallelism::Auto,
            )
            .expect("fault-free evaluator");
            (err.mean, err.std_dev)
        };

    for (slot, (benchmark, evaluator)) in evaluators.iter().enumerate() {
        // Per-app baseline on the identical budget, through the registry.
        let solo_key = ModelKey::new(
            study.name(),
            "crossapp-solo",
            benchmark.name(),
            seed,
            per_app,
        );
        let solo = registry
            .get_or_fit(&solo_key, PlainEncoder.fingerprint(&space), || {
                let config = ExplorerConfig {
                    batch: 50,
                    target_error: 0.0,
                    max_samples: per_app,
                    train: TrainConfig::scaled_to(per_app),
                    ..ExplorerConfig::default()
                };
                let mut explorer = Explorer::new(&space, evaluator, config);
                explorer.run();
                let ensemble = explorer.ensemble().expect("explorer fit").clone();
                Ok((ensemble, Value::Null))
            })
            .expect("fit or load");
        let (solo_mean, solo_sd) = error_on(&solo.model, &PlainEncoder, evaluator);
        // A warm run loads only the pooled ensemble, so the pooled model's
        // encoder for this application is built from its slot directly
        // (what `CrossAppModel::encoder` returns after a fit).
        let pooled_encoder = AppEncoder {
            slot,
            apps: apps.len(),
        };
        let (pooled_mean, pooled_sd) = error_on(&outcome.model, &pooled_encoder, evaluator);
        println!(
            "{:6}: per-app model {solo_mean:.2}% ± {solo_sd:.2} | pooled model {pooled_mean:.2}% ± {pooled_sd:.2}",
            benchmark.name(),
        );
    }
}
