//! Ablations of the paper's design choices (DESIGN.md §6), measured on
//! real study data with identical simulation budgets:
//!
//! 1. **percentage-error training** (inverse-target presentation) vs plain
//!    squared-error training;
//! 2. **cross-validation ensembling** vs a single network trained on all
//!    the data;
//! 3. **ANN** vs ordinary least-squares **linear regression** (§3's claim
//!    that the response surface needs nonlinear regression);
//! 4. **random sampling** vs the §7 **active-learning** extension.

use archpredict::campaign::{Encoder, PlainEncoder};
use archpredict::explorer::{Explorer, ExplorerConfig};
use archpredict::registry::ModelKey;
use archpredict::sampling::Strategy;
use archpredict::simulate::{CachedEvaluator, SimBudget, StudyEvaluator};
use archpredict::studies::Study;
use archpredict_ann::train::train_network;
use archpredict_ann::{fit_ensemble, Dataset, Sample, TrainConfig};
use archpredict_bench::ExperimentOpts;
use archpredict_stats::describe::{percent_error, Accumulator};
use archpredict_stats::json::Value;
use archpredict_stats::linear::LinearModel;
use archpredict_stats::rng::Xoshiro256;
use archpredict_stats::sampling::sample_without_replacement;
use archpredict_workloads::{Benchmark, TraceGenerator};

fn main() {
    let opts = ExperimentOpts::from_args(&[Benchmark::Twolf]);
    let benchmark = opts.apps[0];
    let study = Study::MemorySystem;
    let space = study.space();
    let generator = TraceGenerator::new(benchmark);
    let evaluator = CachedEvaluator::new(
        StudyEvaluator::with_budget(
            study,
            benchmark,
            SimBudget::spread(&generator, 3, 8_000, 16_000),
        ),
        space.clone(),
    );

    let mut rng = Xoshiro256::seed_from(opts.seed);
    let n_train = 400;
    let train_idx = sample_without_replacement(space.size(), n_train, &mut rng);
    let test_idx = sample_without_replacement(space.size(), opts.eval_points, &mut rng);
    eprintln!(
        "simulating {} train + {} test points for {benchmark}...",
        n_train,
        test_idx.len()
    );
    let enc = |i: usize| space.encode(&space.point(i));
    let eval = |i: usize| {
        evaluator
            .evaluate(&space.point(i))
            .expect("fault-free evaluator")
    };
    let data: Dataset = train_idx
        .iter()
        .map(|&i| Sample::new(enc(i), eval(i)))
        .collect();
    let test: Vec<(Vec<f64>, f64)> = test_idx.iter().map(|&i| (enc(i), eval(i))).collect();

    let mape = |predict: &dyn Fn(&[f64]) -> f64| -> (f64, f64) {
        let mut acc = Accumulator::new();
        for (x, t) in &test {
            acc.add(percent_error(predict(x), *t));
        }
        (acc.mean(), acc.population_std_dev())
    };

    println!("== ablations: {benchmark} on the memory study, {n_train} training sims ==\n");

    // 1. Percentage-error training.
    let scaled = TrainConfig::scaled_to(n_train);
    for (label, pct) in [
        ("pct-error training (paper)", true),
        ("plain squared error", false),
    ] {
        let config = TrainConfig {
            percentage_error: pct,
            ..scaled
        };
        let fit = fit_ensemble(&data, 10, &config, opts.seed);
        let (mean, sd) = mape(&|x| fit.ensemble.predict(x));
        println!("{label:32} {mean:5.2}% ± {sd:.2}");
    }

    // 2. Ensemble vs single network (same total data; single net uses a
    //    held-aside 10% early-stopping split).
    println!();
    let fit = fit_ensemble(&data, 10, &scaled, opts.seed);
    let (mean, sd) = mape(&|x| fit.ensemble.predict(x));
    println!("{:32} {mean:5.2}% ± {sd:.2}", "10-fold CV ensemble (paper)");
    let samples = data.samples();
    let split = samples.len() * 9 / 10;
    let train_refs: Vec<&Sample> = samples[..split].iter().collect();
    let es_refs: Vec<&Sample> = samples[split..].iter().collect();
    let mut train_rng = Xoshiro256::seed_from(opts.seed ^ 1);
    let single = train_network(&train_refs, &es_refs, &scaled, &mut train_rng);
    let (mean, sd) = mape(&|x| single.predict(x));
    println!("{:32} {mean:5.2}% ± {sd:.2}", "single network");

    // 3. ANN vs linear regression.
    println!();
    let xs: Vec<Vec<f64>> = samples.iter().map(|s| s.features.clone()).collect();
    let ys: Vec<f64> = samples.iter().map(|s| s.target).collect();
    let linear = LinearModel::fit(&xs, &ys).expect("well-posed");
    let (mean, sd) = mape(&|x| linear.predict(x));
    println!("{:32} {mean:5.2}% ± {sd:.2}", "linear regression baseline");
    let (mean, sd) = mape(&|x| fit.ensemble.predict(x));
    println!("{:32} {mean:5.2}% ± {sd:.2}", "ANN ensemble (same data)");

    // 4. Random vs active-learning sampling at the same budget, routed
    //    through the model registry: a warm re-run reuses both persisted
    //    ensembles instead of re-running the explorers.
    println!();
    let registry = opts.registry();
    let fingerprint = PlainEncoder.fingerprint(&space);
    for (label, encoder, strategy) in [
        ("random sampling (paper)", "ablation", Strategy::Random),
        (
            "active learning (QBC, §7)",
            "ablation-qbc4",
            Strategy::Active { pool_factor: 4 },
        ),
    ] {
        let key = ModelKey::new(study.name(), encoder, benchmark.name(), opts.seed, n_train);
        let outcome = registry
            .get_or_fit(&key, fingerprint, || {
                let config = ExplorerConfig {
                    batch: 50,
                    target_error: 0.0,
                    max_samples: n_train,
                    train: scaled,
                    strategy,
                    seed: opts.seed,
                    ..ExplorerConfig::default()
                };
                let mut explorer = Explorer::new(&space, &evaluator, config);
                explorer.run();
                let ensemble = explorer
                    .ensemble()
                    .ok_or("explorer fit no ensemble")?
                    .clone();
                // The trained set rides along so warm runs can exclude it
                // from the error measurement exactly as a cold run would.
                let sampled = Value::Array(
                    explorer
                        .sampled_indices()
                        .iter()
                        .map(|&i| Value::num(i as f64))
                        .collect(),
                );
                Ok((ensemble, Value::Object(vec![("sampled".into(), sampled)])))
            })
            .unwrap_or_else(|e| panic!("registry {key}: {e}"));
        let trained: std::collections::HashSet<usize> = outcome
            .payload
            .get("sampled")
            .expect("payload has sampled set")
            .as_array()
            .expect("sampled is an array")
            .iter()
            .map(|v| v.as_usize().expect("sampled index"))
            .collect();
        let mut acc = Accumulator::new();
        for (&i, (x, t)) in test_idx.iter().zip(&test) {
            if !trained.contains(&i) {
                acc.add(percent_error(outcome.model.predict(x), *t));
            }
        }
        println!(
            "{label:32} {:5.2}% ± {:.2}{}",
            acc.mean(),
            acc.population_std_dev(),
            if outcome.warm { "  (warm)" } else { "" }
        );
    }
}
