//! Multi-task training through the batch-first oracle stack: per-head
//! `CachedEvaluator`s dedupe repeat fits, a fault schedule injected at
//! the `oracle.evaluate` failpoint is survived via the campaign engine's
//! quarantine/resample loop, and the whole fit is bit-for-bit
//! deterministic at every parallelism setting.
//!
//! A test that arms the plan does so through [`oracle_faults::arm`],
//! which holds a file-wide lock and disarms on drop.

mod oracle_faults;

use archpredict::failpoint::FailAction;
use archpredict::multitask::{fit_multitask_oracles, MultiTaskFit};
use archpredict::simulate::{CachedEvaluator, PointEvaluator, RetryPolicy, RetryingOracle};
use archpredict::space::{DesignPoint, DesignSpace};
use archpredict::studies::Study;
use archpredict_ann::{Parallelism, TrainConfig};
use oracle_faults::arm;

/// A cheap deterministic stand-in for one simulator statistic: each head
/// computes a different smooth function of the encoded features, so the
/// heads are correlated (as IPC and miss rates are) but not identical.
struct HeadEvaluator {
    space: DesignSpace,
    head: usize,
}

impl PointEvaluator for HeadEvaluator {
    fn evaluate(&self, point: &DesignPoint) -> f64 {
        let features = self.space.encode(point);
        let base: f64 = features
            .iter()
            .enumerate()
            .map(|(i, &f)| (1.0 + i as f64).recip() * (f + 0.3 * f * f))
            .sum();
        match self.head {
            0 => 1.0 + base,
            1 => 3.0 - base,
            _ => 0.5 + base * base,
        }
    }

    fn instructions_per_evaluation(&self) -> u64 {
        1_000
    }
}

fn train_config(parallelism: Parallelism) -> TrainConfig {
    TrainConfig {
        max_epochs: 25,
        patience: 8,
        parallelism,
        ..TrainConfig::default()
    }
}

fn cached_heads(
    space: &DesignSpace,
    parallelism: Parallelism,
) -> Vec<CachedEvaluator<HeadEvaluator>> {
    (0..3)
        .map(|head| {
            CachedEvaluator::with_parallelism(
                HeadEvaluator {
                    space: space.clone(),
                    head,
                },
                space.clone(),
                parallelism,
            )
        })
        .collect()
}

/// Refitting against the same cached heads serves every simulation from
/// cache: nonzero cache hits, zero new leaf work, identical model.
#[test]
fn refit_is_served_from_cache() {
    let space = Study::MemorySystem.space();
    let heads = cached_heads(&space, Parallelism::Fixed(2));
    let refs: Vec<&CachedEvaluator<HeadEvaluator>> = heads.iter().collect();
    let config = train_config(Parallelism::Fixed(2));

    let first = fit_multitask_oracles(&space, &refs, 0, 60, &config, 0x3417A5);
    assert_eq!(first.simulation.unique_simulations, 180, "3 heads × 60");
    assert_eq!(first.simulation.cache_hits, 0);
    assert_eq!(first.indices.len(), 60);
    assert_eq!(first.dropped, 0);
    assert_eq!(
        first.simulation.simulated_instructions,
        180 * 1_000,
        "leaf instruction accounting"
    );

    let second = fit_multitask_oracles(&space, &refs, 0, 60, &config, 0x3417A5);
    assert_eq!(second.simulation.unique_simulations, 0);
    assert_eq!(second.simulation.cache_hits, 180);
    assert_eq!(first.indices, second.indices);
    let probe = space.encode(&space.point(4_321));
    let bits = |fit: &MultiTaskFit| -> Vec<u64> {
        fit.model
            .predict_all(&probe)
            .iter()
            .map(|v| v.to_bits())
            .collect()
    };
    assert_eq!(bits(&first), bits(&second));
}

type FaultedHead = RetryingOracle<CachedEvaluator<HeadEvaluator>>;

/// Heads whose retry seeds draw a distinct fault schedule per head from
/// the armed plan.
fn faulted_heads(space: &DesignSpace, parallelism: Parallelism) -> Vec<FaultedHead> {
    cached_heads(space, parallelism)
        .into_iter()
        .enumerate()
        .map(|(head, cached)| {
            RetryingOracle::with_policy(
                cached,
                RetryPolicy {
                    seed: 0xFA_11 + head as u64,
                    ..RetryPolicy::default()
                },
            )
        })
        .collect()
}

fn faulted_fit(parallelism: Parallelism) -> MultiTaskFit {
    let space = Study::MemorySystem.space();
    let heads = faulted_heads(&space, parallelism);
    let refs: Vec<&FaultedHead> = heads.iter().collect();
    fit_multitask_oracles(&space, &refs, 0, 50, &train_config(parallelism), 0xFA_3417)
}

/// A 30% injected fault rate on every head is survived — the primary head
/// resamples to its full quota, auxiliary failures only drop rows — and
/// the result is identical at one thread, four threads and auto.
#[test]
fn faulted_fit_is_survivable_and_deterministic() {
    let _armed = arm(0xFA_17ED, FailAction::Error, 0.3);
    let space = Study::MemorySystem.space();
    let reference = faulted_fit(Parallelism::Fixed(1));
    assert!(
        reference.simulation.failures > 0 && reference.simulation.retries > 0,
        "fault schedule never fired: {:?}",
        reference.simulation
    );
    assert_eq!(
        reference.indices.len() + reference.dropped,
        50,
        "primary quota minus auxiliary drops"
    );
    assert!(reference.dropped > 0, "no auxiliary head dropped a row");
    assert!(reference.indices.len() >= 40, "dropped too many rows");
    assert!(!reference.model.diverged);
    let probe = space.encode(&space.point(7_890));
    assert!(reference.model.predict_primary(&probe).is_finite());

    let bits = |fit: &MultiTaskFit| -> Vec<u64> {
        fit.model
            .predict_all(&probe)
            .iter()
            .map(|v| v.to_bits())
            .collect()
    };
    for parallelism in [Parallelism::Fixed(4), Parallelism::Auto] {
        let fit = faulted_fit(parallelism);
        assert_eq!(reference.indices, fit.indices, "{parallelism:?}");
        assert_eq!(reference.dropped, fit.dropped, "{parallelism:?}");
        assert_eq!(bits(&reference), bits(&fit), "{parallelism:?}");
    }
}
