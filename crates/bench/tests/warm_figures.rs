//! The acceptance gate for the registry refactor: a warm second run of
//! the figure-bin entrypoint (`run_curves`, shared by every ported
//! `fig_5_*` and `table_5_1` binary) performs **zero fits and zero
//! simulations** for both studies. A curve killed between rounds replays
//! from the simcache it saved after each round.

use archpredict::registry::Registry;
use archpredict::report::LearningCurve;
use archpredict::studies::Study;
use archpredict_bench::{curve_for, run_curves, CurveOpts};
use archpredict_workloads::Benchmark;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("archpredict_warmfig_{tag}_{}", std::process::id()))
}

#[test]
fn warm_second_run_of_figure_curves_skips_all_fits_and_simulations() {
    let root = temp_dir("registry");
    let cache = temp_dir("simcache");
    // One curve per study — the same (study, app) sweeps fig_5_2 and
    // fig_5_3 drive, at the quick smoke budget.
    let quick = |study: Study, benchmark: Benchmark| {
        let mut opts = CurveOpts::new(study, benchmark)
            .with_max_samples(20)
            .with_quick(true);
        opts.batch = 10;
        opts.eval_points = 10;
        opts.cache_dir = Some(cache.to_string_lossy().into_owned());
        opts
    };
    let curves = [
        quick(Study::MemorySystem, Benchmark::Gzip),
        quick(Study::Processor, Benchmark::Mesa),
    ];

    let registry = Registry::open(&root).unwrap();
    let cold = run_curves(&registry, &curves);
    assert_eq!(registry.fits_performed(), 2);
    assert!(cold.iter().all(|c| !c.warm));

    // Remove the simulation cache: if the warm run simulated anything at
    // all, the cache directory would reappear.
    std::fs::remove_dir_all(&cache).ok();
    assert!(!cache.exists());

    let reopened = Registry::open(&root).unwrap();
    let warm = run_curves(&reopened, &curves);
    assert_eq!(reopened.fits_performed(), 0, "warm run must not fit");
    assert!(warm.iter().all(|c| c.warm));
    assert!(
        !cache.exists(),
        "warm run must not simulate (simcache was recreated)"
    );

    // The reconstructed curves are the cold curves, bit for bit.
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(c.curve, w.curve);
        assert_eq!(c.space_size, w.space_size);
        assert_eq!(
            c.instructions_per_training_eval,
            w.instructions_per_training_eval
        );
        assert_eq!(c.instructions_per_full_eval, w.instructions_per_full_eval);
    }

    std::fs::remove_dir_all(&root).ok();
    std::fs::remove_dir_all(&cache).ok();
}

/// A gzip × memory curve killed after its first round, then run again for
/// two rounds over the simcache the killed run saved, reproduces the
/// uninterrupted two-round curve: the replayed round simulates nothing and
/// reads its 10 points as cache hits, and every other column matches.
#[test]
fn killed_figure_curve_replays_from_its_simcache() {
    let opts = |rounds: usize, cache: &PathBuf| {
        let mut opts = CurveOpts::new(Study::MemorySystem, Benchmark::Gzip)
            .with_max_samples(10 * rounds)
            .with_quick(true);
        opts.batch = 10;
        opts.eval_points = 10;
        opts.cache_dir = Some(cache.to_string_lossy().into_owned());
        opts
    };
    let (fresh, killed) = (temp_dir("replay_fresh"), temp_dir("replay_killed"));
    let uninterrupted = curve_for(&opts(2, &fresh)).curve;
    curve_for(&opts(1, &killed));
    let replayed = curve_for(&opts(2, &killed)).curve;

    let first = replayed.points[0];
    assert_eq!(
        (first.unique_simulations, first.simulation_cache_hits),
        (0, 10)
    );
    let mut expected = uninterrupted.clone();
    expected.points[0] = expected.points[0].replayed();
    assert_eq!(
        replayed.to_csv_deterministic(),
        expected.to_csv_deterministic()
    );
    let errors = |curve: &LearningCurve| -> Vec<_> {
        curve
            .points
            .iter()
            .map(|p| {
                (
                    p.estimated_mean.to_bits(),
                    p.estimated_std_dev.to_bits(),
                    p.true_mean.map(f64::to_bits),
                    p.true_std_dev.map(f64::to_bits),
                )
            })
            .collect()
    };
    assert_eq!(errors(&replayed), errors(&uninterrupted));

    std::fs::remove_dir_all(&fresh).ok();
    std::fs::remove_dir_all(&killed).ok();
}
