//! The §5.3 combination: explore the processor space (Table 4.2) training
//! the ANN ensemble on *SimPoint-accelerated* simulations, then check a
//! few predictions against full simulation.
//!
//! The SimPoint-trained ensemble persists through the registry under its
//! own encoder tag (`simpoint-i4000-k10`), keyed apart from plain fits of
//! the same study; warm re-runs load it and skip every training
//! simulation, leaving only the five full-simulation spot checks.
//!
//! Run with: `cargo run --release --example processor_study_simpoint [app]`

use archpredict::campaign::{Encoder, PlainEncoder};
use archpredict::explorer::{Explorer, ExplorerConfig};
use archpredict::registry::{ModelKey, Registry};
use archpredict::simulate::{PointEvaluator, SimBudget, SimPointEvaluator, StudyEvaluator};
use archpredict::studies::Study;
use archpredict_stats::json::Value;
use archpredict_stats::rng::Xoshiro256;
use archpredict_stats::sampling::sample_without_replacement;
use archpredict_workloads::{Benchmark, TraceGenerator};

fn main() {
    let app = std::env::args()
        .nth(1)
        .and_then(|s| Benchmark::from_name(&s))
        .unwrap_or(Benchmark::Equake);
    let study = Study::Processor;
    let space = study.space();
    let interval_len = 4_000;

    let registry = Registry::open("results/registry").expect("registry");
    let key = ModelKey::new(
        study.name(),
        format!("simpoint-i{interval_len}-k10"),
        app.name(),
        0x1BEC,
        400,
    );
    let outcome = registry
        .get_or_fit(&key, PlainEncoder.fingerprint(&space), || {
            let simpoint = SimPointEvaluator::new(study, app, interval_len, 10);
            let plan = simpoint.plan();
            let config = ExplorerConfig {
                batch: 50,
                target_error: 2.0,
                max_samples: 400,
                ..ExplorerConfig::default()
            };
            let mut explorer = Explorer::new(&space, &simpoint, config);
            let round = explorer.run().clone();
            let ensemble = explorer.ensemble().expect("explorer fit").clone();
            let payload = Value::Object(vec![
                ("samples".into(), Value::num(round.samples as f64)),
                (
                    "fraction_sampled".into(),
                    Value::num(round.fraction_sampled),
                ),
                ("estimated_error".into(), Value::num(round.estimate.mean)),
                (
                    "chosen_intervals".into(),
                    Value::num(plan.points().len() as f64),
                ),
                (
                    "total_intervals".into(),
                    Value::num(plan.total_intervals() as f64),
                ),
                (
                    "reduction_factor".into(),
                    Value::num(plan.reduction_factor()),
                ),
            ]);
            Ok((ensemble, payload))
        })
        .expect("fit or load");
    let num = |field: &str| outcome.payload.get(field).unwrap().as_f64().unwrap();
    println!(
        "{app}: SimPoint chose {} of {} intervals ({:.1}x fewer instructions per simulation)",
        num("chosen_intervals"),
        num("total_intervals"),
        num("reduction_factor"),
    );
    println!(
        "{}: {} SimPoint-accelerated simulations ({:.2}% of space): estimated error {:.2}%",
        if outcome.warm {
            "warm from registry"
        } else {
            "cold fit"
        },
        num("samples"),
        100.0 * num("fraction_sampled"),
        num("estimated_error"),
    );

    // Spot-check against *full* simulation (which the model never saw).
    let generator = TraceGenerator::new(app);
    let full = StudyEvaluator::with_budget(
        study,
        app,
        SimBudget::whole_intervals(interval_len, (0..generator.num_intervals()).collect()),
    );
    let mut rng = Xoshiro256::seed_from(7);
    println!("\nspot checks vs full simulation:");
    for i in sample_without_replacement(space.size(), 5, &mut rng) {
        let actual = full.evaluate(&space.point(i));
        let predicted = outcome.model.predict(&space.encode(&space.point(i)));
        println!(
            "  point {i:>6}: predicted {predicted:.4}, full-sim {actual:.4} ({:+.2}%)",
            100.0 * (predicted - actual) / actual
        );
    }
}
