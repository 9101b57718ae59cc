//! The §7 active-learning extension: query-by-committee sampling vs the
//! paper's uniform random sampling, on identical budgets.
//!
//! Both fits run through the model registry — the sampling strategy is
//! part of the artifact key (`plain` vs `plain-qbc4`), so each variant
//! persists separately and warm re-runs skip both campaigns.
//!
//! Run with: `cargo run --release --example active_learning`

use archpredict::campaign::{CampaignConfig, PlainEncoder};
use archpredict::infer::true_error;
use archpredict::registry::{Registry, StudyFitSpec};
use archpredict::sampling::Strategy;
use archpredict::studies::Study;
use archpredict_ann::Parallelism;
use archpredict_stats::rng::Xoshiro256;
use archpredict_stats::sampling::sample_without_replacement;
use archpredict_workloads::Benchmark;

fn main() {
    let app = Benchmark::Gzip;
    let study = Study::MemorySystem;
    let space = study.space();
    let evaluator = study.oracle(app);

    // A fresh probe set for the true-error measurement, drawn from a
    // stream the samplers never use. (At 250 of 23,040 points, overlap
    // with either 300-point training set is negligible.)
    let mut rng = Xoshiro256::seed_from(0x9E1D);
    let probe = sample_without_replacement(space.size(), 250, &mut rng);

    let budget = 300;
    let registry = Registry::open("results/registry").expect("registry");
    for (label, strategy) in [
        ("random (paper)", Strategy::Random),
        ("active (QBC)", Strategy::Active { pool_factor: 4 }),
    ] {
        let spec = StudyFitSpec::new(
            study,
            app,
            CampaignConfig {
                batch: 50,
                target_error: 0.0,
                max_samples: budget,
                strategy,
                ..CampaignConfig::default()
            },
        );
        let outcome = registry.get_or_fit_study(&spec).expect("fit or load");
        let err = true_error(
            &outcome.model,
            &space,
            &PlainEncoder,
            &evaluator,
            &probe,
            Parallelism::Auto,
        )
        .expect("fault-free evaluator");
        let estimated = outcome
            .payload
            .get("estimated_error")
            .unwrap()
            .as_f64()
            .unwrap();
        println!(
            "{label:16} {budget} sims: true error {:.2}% ± {:.2} (estimated {:.2}%){}",
            err.mean,
            err.std_dev,
            estimated,
            if outcome.warm { "  [warm]" } else { "" },
        );
    }
}
