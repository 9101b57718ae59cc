//! End-to-end integration: workloads -> simulator -> explorer -> ensemble,
//! exercising the full crate stack exactly as the paper's methodology
//! prescribes (sample, simulate, cross-validate, estimate, refine).

use archpredict::explorer::{Explorer, ExplorerConfig};
use archpredict::simulate::{CachedEvaluator, SimBudget, StudyEvaluator};
use archpredict::studies::Study;
use archpredict_ann::TrainConfig;
use archpredict_stats::describe::percent_error;
use archpredict_workloads::{Benchmark, TraceGenerator};

fn quick_evaluator(study: Study, benchmark: Benchmark) -> CachedEvaluator<StudyEvaluator> {
    let generator = TraceGenerator::new(benchmark);
    CachedEvaluator::new(
        StudyEvaluator::with_budget(
            study,
            benchmark,
            SimBudget::spread(&generator, 2, 4_000, 8_000),
        ),
        study.space(),
    )
}

#[test]
fn memory_study_estimate_falls_and_tracks_truth() {
    let study = Study::MemorySystem;
    let space = study.space();
    let evaluator = quick_evaluator(study, Benchmark::Mesa);
    let config = ExplorerConfig {
        batch: 50,
        target_error: 0.0,
        max_samples: 200,
        train: TrainConfig::scaled_to(150),
        ..ExplorerConfig::default()
    };
    let mut explorer = Explorer::new(&space, &evaluator, config);
    let first = explorer.step().estimate.mean;
    for _ in 0..3 {
        explorer.step();
    }
    let last = explorer.history().last().unwrap().estimate;
    assert!(
        last.mean < first,
        "estimate should fall: {first:.2}% -> {:.2}%",
        last.mean
    );
    // Estimated error must track measured error on held-out points.
    let held_out = explorer.held_out_set(60);
    let true_error = explorer.true_error(&held_out);
    assert!(
        (true_error.mean - last.mean).abs() < last.mean.max(2.0),
        "true {:.2}% vs estimated {:.2}%",
        true_error.mean,
        last.mean
    );
    // 200 training sims + 60 eval sims, every one unique.
    assert_eq!(evaluator.unique_evaluations(), 260);
}

#[test]
fn processor_study_pipeline_reaches_low_error() {
    let study = Study::Processor;
    let space = study.space();
    let evaluator = quick_evaluator(study, Benchmark::Gzip);
    let config = ExplorerConfig {
        batch: 50,
        target_error: 2.5,
        max_samples: 300,
        train: TrainConfig::scaled_to(200),
        ..ExplorerConfig::default()
    };
    let mut explorer = Explorer::new(&space, &evaluator, config);
    let round = explorer.run().clone();
    assert!(
        round.estimate.mean <= 2.5 || round.samples >= 300,
        "{round:?}"
    );
    // The model must beat a trivial mean-predictor by a wide margin.
    let held_out = explorer.held_out_set(50);
    let true_error = explorer.true_error(&held_out);
    assert!(true_error.mean < 8.0, "true error {:.2}%", true_error.mean);
}

#[test]
fn full_pipeline_is_deterministic() {
    let study = Study::MemorySystem;
    let space = study.space();
    let run = || {
        let evaluator = quick_evaluator(study, Benchmark::Applu);
        let config = ExplorerConfig {
            batch: 50,
            target_error: 0.0,
            max_samples: 100,
            ..ExplorerConfig::default()
        };
        let mut explorer = Explorer::new(&space, &evaluator, config);
        explorer.step();
        explorer.step();
        let est = explorer.history().last().unwrap().estimate;
        (est, explorer.predict(12345))
    };
    assert_eq!(run(), run());
}

#[test]
fn prediction_beats_mean_baseline() {
    let study = Study::MemorySystem;
    let space = study.space();
    let evaluator = quick_evaluator(study, Benchmark::Equake);
    let config = ExplorerConfig {
        batch: 50,
        target_error: 0.0,
        max_samples: 200,
        train: TrainConfig::scaled_to(200),
        ..ExplorerConfig::default()
    };
    let mut explorer = Explorer::new(&space, &evaluator, config);
    for _ in 0..4 {
        explorer.step();
    }
    let held_out = explorer.held_out_set(60);
    // Mean baseline: predict the training mean everywhere.
    let actuals: Vec<f64> = held_out
        .iter()
        .map(|&i| {
            evaluator
                .evaluate(&space.point(i))
                .expect("fault-free evaluator")
        })
        .collect();
    let mean: f64 = actuals.iter().sum::<f64>() / actuals.len() as f64;
    let baseline: f64 =
        actuals.iter().map(|&a| percent_error(mean, a)).sum::<f64>() / actuals.len() as f64;
    let model = explorer.true_error(&held_out);
    assert!(
        model.mean < baseline * 0.7,
        "model {:.2}% must clearly beat mean baseline {:.2}%",
        model.mean,
        baseline
    );
}
