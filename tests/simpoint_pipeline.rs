//! Integration of the §5.3 combination: ANN ensembles trained on noisy
//! SimPoint estimates, validated against full simulation.

use archpredict::explorer::{Explorer, ExplorerConfig};
use archpredict::simulate::{PointEvaluator, SimBudget, SimPointEvaluator, StudyEvaluator};
use archpredict::studies::Study;
use archpredict_ann::TrainConfig;
use archpredict_stats::describe::{percent_error, Accumulator};
use archpredict_stats::rng::Xoshiro256;
use archpredict_stats::sampling::sample_without_replacement;
use archpredict_workloads::{Benchmark, TraceGenerator};

const INTERVAL_LEN: usize = 3_000;

/// Full simulation of every interval of `benchmark`, whole, at
/// `INTERVAL_LEN`: the quantity SimPoint estimates.
fn whole_program(study: Study, benchmark: Benchmark) -> StudyEvaluator {
    let intervals = (0..TraceGenerator::new(benchmark).num_intervals()).collect();
    StudyEvaluator::with_budget(
        study,
        benchmark,
        SimBudget::whole_intervals(INTERVAL_LEN, intervals),
    )
}

#[test]
fn ann_tolerates_simpoint_noise() {
    let study = Study::Processor;
    let space = study.space();
    let benchmark = Benchmark::Mgrid;
    let simpoint = SimPointEvaluator::new(study, benchmark, INTERVAL_LEN, 8);
    assert!(
        simpoint.plan().reduction_factor() > 3.0,
        "SimPoint must meaningfully reduce simulated instructions"
    );

    let config = ExplorerConfig {
        batch: 50,
        target_error: 0.0,
        max_samples: 200,
        train: TrainConfig::scaled_to(200),
        ..ExplorerConfig::default()
    };
    let mut explorer = Explorer::new(&space, &simpoint, config);
    for _ in 0..4 {
        explorer.step();
    }

    // Truth: full-program simulation at the same interval length.
    let full = whole_program(study, benchmark);
    let mut rng = Xoshiro256::seed_from(3);
    let mut err = Accumulator::new();
    for i in sample_without_replacement(space.size(), 25, &mut rng) {
        let actual = full.evaluate(&space.point(i));
        let predicted = explorer.predict(i);
        err.add(percent_error(predicted, actual));
    }
    assert!(
        err.mean() < 8.0,
        "model trained on SimPoint data has {:.2}% error vs full simulation",
        err.mean()
    );
}

#[test]
fn simpoint_estimator_is_cheaper_and_close() {
    let study = Study::Processor;
    let space = study.space();
    let benchmark = Benchmark::Equake;
    let simpoint = SimPointEvaluator::new(study, benchmark, INTERVAL_LEN, 8);
    let full = whole_program(study, benchmark);
    assert!(simpoint.instructions_per_evaluation() * 3 < full.instructions_per_evaluation());
    let mut rng = Xoshiro256::seed_from(9);
    let mut err = Accumulator::new();
    for i in sample_without_replacement(space.size(), 6, &mut rng) {
        let p = space.point(i);
        let e = simpoint.evaluate(&p);
        let f = full.evaluate(&p);
        err.add(percent_error(e, f));
    }
    assert!(err.mean() < 10.0, "SimPoint noise {:.2}%", err.mean());
}
