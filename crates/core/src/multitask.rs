//! Multi-task learning extension (paper §7, future work).
//!
//! Simulators report many statistics besides IPC (miss rates, misprediction
//! rates, bus occupancies). Those cannot be model *inputs* — they are
//! unknown until a point is simulated — but a network with one output per
//! metric can exploit their correlation with IPC through the shared hidden
//! layer. This module trains such a network: the **primary** head (IPC) is
//! what early stopping and prediction use; the auxiliary heads act as an
//! inductive bias.
//!
//! Training data comes in through the same batch-first [`Oracle`] stack as
//! every other driver ([`fit_multitask_oracles`]): one oracle per metric
//! head, so multi-task fits get deduplicating caches, retry/quarantine,
//! [`SimStats`] telemetry and batch fan-out for free, and the primary
//! head's sampling runs through the campaign engine's [`collect_batch`]
//! quarantine/resample loop with seeds derived from the audited
//! [`seed_stream`] map.

use crate::campaign::{collect_batch, seed_stream, Encoder, PlainEncoder};
use crate::simulate::{Oracle, PointEvaluator, SimBudget, SimStats, StudyEvaluator};
use crate::space::{DesignPoint, DesignSpace};
use crate::studies::Study;
use archpredict_ann::{train_multi_network, MultiTrainedModel, TrainConfig};
use archpredict_stats::rng::Xoshiro256;
use archpredict_stats::sampling::IncrementalSampler;
use archpredict_workloads::Benchmark;

/// The metric vector a detailed simulation yields for multi-task training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics {
    /// Instructions per cycle (the primary target).
    pub ipc: f64,
    /// L2 misses per kilo-instruction.
    pub l2_mpki: f64,
    /// Branch misprediction rate.
    pub mispredict_rate: f64,
    /// L1D misses per kilo-instruction.
    pub l1d_mpki: f64,
}

impl Metrics {
    /// Metric count.
    pub const COUNT: usize = 4;

    /// As an ordered vector (IPC first — the primary task).
    pub fn to_vec(self) -> Vec<f64> {
        vec![self.ipc, self.l2_mpki, self.mispredict_rate, self.l1d_mpki]
    }

    /// The component `target` selects.
    pub fn get(self, target: TargetMetric) -> f64 {
        match target {
            TargetMetric::Ipc => self.ipc,
            TargetMetric::L2Mpki => self.l2_mpki,
            TargetMetric::MispredictRate => self.mispredict_rate,
            TargetMetric::L1dMpki => self.l1d_mpki,
        }
    }
}

/// Which simulator statistic a [`MetricsEvaluator`] exposes through the
/// scalar [`PointEvaluator`] interface — the selector that unifies the
/// multi-metric evaluator with the single-metric oracle stack.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TargetMetric {
    /// Instructions per cycle (the paper's target).
    #[default]
    Ipc,
    /// L2 misses per kilo-instruction.
    L2Mpki,
    /// Branch misprediction rate.
    MispredictRate,
    /// L1D misses per kilo-instruction.
    L1dMpki,
}

/// Evaluates the full metric vector for multi-task training, averaging
/// each metric over the per-interval results of a [`StudyEvaluator`].
///
/// Also a [`PointEvaluator`]: through the scalar interface it exposes the
/// configured [`TargetMetric`] (IPC by default), so the same evaluator
/// plugs into the oracle stack — explorer, cache, batch fan-out — as any
/// single-metric simulator.
#[derive(Debug)]
pub struct MetricsEvaluator {
    simulator: StudyEvaluator,
    target: TargetMetric,
}

impl MetricsEvaluator {
    /// Creates a metrics evaluator with an explicit budget (scalar target:
    /// IPC).
    pub fn new(study: Study, benchmark: Benchmark, budget: SimBudget) -> Self {
        Self {
            simulator: StudyEvaluator::with_budget(study, benchmark, budget),
            target: TargetMetric::default(),
        }
    }

    /// Selects which metric the scalar [`PointEvaluator`] interface
    /// reports.
    pub fn with_target(mut self, target: TargetMetric) -> Self {
        self.target = target;
        self
    }

    /// The metric the scalar interface reports.
    pub fn target(&self) -> TargetMetric {
        self.target
    }

    /// The study's design space.
    pub fn space(&self) -> &DesignSpace {
        self.simulator.space()
    }

    /// Simulates `point` and returns all metrics.
    pub fn evaluate_metrics(&self, point: &DesignPoint) -> Metrics {
        let mut ipc = 0.0;
        let mut l2 = 0.0;
        let mut mispredict = 0.0;
        let mut l1d = 0.0;
        for r in self.simulator.simulate_intervals(point) {
            ipc += r.ipc();
            l2 += 1000.0 * r.l2_misses as f64 / r.instructions.max(1) as f64;
            mispredict += r.mispredict_rate();
            l1d += 1000.0 * r.l1d_misses as f64 / r.instructions.max(1) as f64;
        }
        let n = self.simulator.budget().intervals.len() as f64;
        Metrics {
            ipc: ipc / n,
            l2_mpki: l2 / n,
            mispredict_rate: mispredict / n,
            l1d_mpki: l1d / n,
        }
    }
}

impl PointEvaluator for MetricsEvaluator {
    fn evaluate(&self, point: &DesignPoint) -> f64 {
        self.evaluate_metrics(point).get(self.target)
    }

    fn instructions_per_evaluation(&self) -> u64 {
        self.simulator.instructions_per_evaluation()
    }
}

/// A trained multi-output network with its scalers — a thin wrapper over
/// the ann crate's [`MultiTrainedModel`], which carries the snapshot/
/// restore best-epoch bookkeeping and divergence detection the
/// single-output trainer has.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiTaskModel {
    model: MultiTrainedModel,
    /// Index of the primary task among the outputs.
    pub primary: usize,
    /// Epochs actually run.
    pub epochs: usize,
}

impl MultiTaskModel {
    /// Wraps a trained multi-output network loaded from elsewhere (e.g. a
    /// [`crate::registry`] artifact); the primary-head index and epoch
    /// count ride inside the model itself.
    pub fn from_trained(model: MultiTrainedModel) -> Self {
        Self {
            primary: model.primary,
            epochs: model.epochs,
            model,
        }
    }

    /// The underlying trained network — the persistable artifact that
    /// [`crate::registry`] stores and [`Self::from_trained`] restores.
    pub fn trained(&self) -> &MultiTrainedModel {
        &self.model
    }

    /// Predicts the primary metric (raw scale) for raw features.
    pub fn predict_primary(&self, features: &[f64]) -> f64 {
        self.model.predict_primary(features)
    }

    /// Predicts all metrics (raw scale).
    pub fn predict_all(&self, features: &[f64]) -> Vec<f64> {
        self.model.predict_all(features)
    }

    /// Number of output heads.
    pub fn tasks(&self) -> usize {
        self.model.tasks()
    }

    /// Whether training diverged (non-finite early-stopping error); the
    /// weights are still the best finite snapshot.
    pub fn diverged(&self) -> bool {
        self.model.diverged
    }

    /// Best primary-head percentage error seen on the early-stopping set.
    pub fn best_es_error(&self) -> f64 {
        self.model.best_es_error
    }
}

/// Trains a multi-task network on raw feature rows and metric-vector
/// targets. The final 20 % of the (shuffled) data is the early-stopping
/// set; stopping tracks percentage error on the `primary` head only.
///
/// # Panics
///
/// Panics if inputs are empty/ragged, targets are ragged, or `primary` is
/// out of range.
pub fn fit_multitask(
    features: &[Vec<f64>],
    targets: &[Vec<f64>],
    primary: usize,
    config: &TrainConfig,
    seed: u64,
) -> MultiTaskModel {
    assert!(!features.is_empty(), "no training data");
    assert_eq!(features.len(), targets.len(), "feature/target mismatch");

    let mut rng = Xoshiro256::seed_from(seed);
    let mut order: Vec<usize> = (0..features.len()).collect();
    archpredict_stats::sampling::shuffle(&mut order, &mut rng);
    let es_len = (features.len() / 5).max(1);
    let (train_ids, es_ids) = order.split_at(features.len() - es_len);

    let pairs = |ids: &[usize]| -> Vec<(&[f64], &[f64])> {
        ids.iter()
            .map(|&i| (features[i].as_slice(), targets[i].as_slice()))
            .collect()
    };
    let model = train_multi_network(&pairs(train_ids), &pairs(es_ids), primary, config, &mut rng);
    MultiTaskModel {
        primary: model.primary,
        epochs: model.epochs,
        model,
    }
}

/// Everything a multi-task oracle fit produces: the model plus the
/// sampling outcome and the accumulated simulation telemetry.
#[derive(Debug)]
pub struct MultiTaskFit {
    /// The trained multi-output model.
    pub model: MultiTaskModel,
    /// Design-point indices whose full metric rows made it into training,
    /// in evaluation order.
    pub indices: Vec<usize>,
    /// Telemetry accumulated across every head's oracle — cache hits,
    /// retries, quarantines and resamples all land here.
    pub simulation: SimStats,
    /// Rows dropped because an auxiliary head failed on the index after
    /// whatever retrying its oracle stack performed.
    pub dropped: usize,
}

/// Trains a multi-task model through the batch-first [`Oracle`] stack:
/// one oracle per metric head, in head order.
///
/// The `primary` head drives point selection — `samples` indices are
/// drawn from the seeded sampler stream and evaluated through the
/// campaign engine's quarantine/resample loop, so a failing point is
/// replaced by a fresh draw exactly as in single-metric exploration. The
/// auxiliary heads then evaluate the surviving indices in one batch each;
/// an index any auxiliary head still fails on is dropped from training
/// (and counted in [`MultiTaskFit::dropped`]) rather than resampled,
/// since by then the primary target is already paid for.
///
/// Wrap each head in the usual stack
/// ([`CachedEvaluator`](crate::simulate::CachedEvaluator),
/// [`RetryingOracle`](crate::simulate::RetryingOracle), …) to get
/// deduplication, persistence and retries; all telemetry accumulates into
/// one [`SimStats`]. Sampling and fit seeds derive from `seed` through
/// [`seed_stream`], and results are identical for every parallelism
/// setting of the underlying oracles.
///
/// # Panics
///
/// Panics if `heads` is empty, `primary` is out of range, or every
/// sampled row is dropped.
pub fn fit_multitask_oracles<O: Oracle + ?Sized>(
    space: &DesignSpace,
    heads: &[&O],
    primary: usize,
    samples: usize,
    config: &TrainConfig,
    seed: u64,
) -> MultiTaskFit {
    assert!(!heads.is_empty(), "no metric heads");
    assert!(primary < heads.len(), "primary task out of range");

    let rng = Xoshiro256::seed_from(seed);
    let mut sampler = IncrementalSampler::new(space.size(), rng.derive(seed_stream::SAMPLER));
    let mut simulation = SimStats::default();

    // The primary head samples with quarantine/resample, exactly like a
    // campaign round.
    let initial = sampler.next_batch(samples);
    let mut indices: Vec<usize> = Vec::new();
    let mut rows: Vec<Vec<f64>> = Vec::new();
    collect_batch(
        heads[primary],
        space,
        &mut sampler,
        initial,
        &mut simulation,
        |index, value| {
            let mut row = vec![0.0; heads.len()];
            row[primary] = value;
            indices.push(index);
            rows.push(row);
        },
        |_| {},
    );

    // Auxiliary heads fill in their column over the surviving indices.
    let mut keep = vec![true; indices.len()];
    for (slot, head) in heads.iter().enumerate() {
        if slot == primary {
            continue;
        }
        let results = head.evaluate_batch(space, &indices, &mut simulation);
        for ((row, ok), result) in rows.iter_mut().zip(keep.iter_mut()).zip(results) {
            match result {
                Ok(value) => row[slot] = value,
                Err(_) => *ok = false,
            }
        }
    }

    let mut features = Vec::new();
    let mut targets = Vec::new();
    let mut kept = Vec::new();
    let mut dropped = 0;
    for ((index, row), ok) in indices.into_iter().zip(rows).zip(keep) {
        if ok {
            features.push(PlainEncoder.encode(space, index));
            targets.push(row);
            kept.push(index);
        } else {
            dropped += 1;
        }
    }

    // One deterministic delta per multi-task fit, mirrored after the
    // per-fit bookkeeping is final (see `telemetry::record_sim`).
    crate::telemetry::record_sim(&simulation);
    let fit_seed = Xoshiro256::seed_from(seed)
        .derive(seed_stream::FIT)
        .next_u64();
    let model = fit_multitask(&features, &targets, primary, config, fit_seed);
    MultiTaskFit {
        model,
        indices: kept,
        simulation,
        dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archpredict_workloads::TraceGenerator;

    /// Correlated synthetic tasks: aux = smooth transforms of the primary.
    fn make_data(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let mut rng = Xoshiro256::seed_from(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let a = rng.next_f64();
            let b = rng.next_f64();
            let primary = 0.3 + 0.5 * (a * 2.2).sin().abs() + 0.2 * a * b;
            let aux1 = 2.0 - primary; // perfectly anti-correlated
            let aux2 = primary * primary;
            xs.push(vec![a, b]);
            ys.push(vec![primary, aux1, aux2]);
        }
        (xs, ys)
    }

    #[test]
    fn learns_primary_task() {
        let (xs, ys) = make_data(300, 1);
        let model = fit_multitask(&xs, &ys, 0, &TrainConfig::default(), 2);
        let (test_x, test_y) = make_data(150, 3);
        let mut total = 0.0;
        for (x, y) in test_x.iter().zip(&test_y) {
            total += 100.0 * (model.predict_primary(x) - y[0]).abs() / y[0];
        }
        let mape = total / test_x.len() as f64;
        assert!(mape < 6.0, "primary MAPE {mape:.2}%");
    }

    #[test]
    fn predicts_all_heads() {
        let (xs, ys) = make_data(300, 4);
        let model = fit_multitask(&xs, &ys, 0, &TrainConfig::default(), 5);
        let all = model.predict_all(&[0.5, 0.5]);
        assert_eq!(all.len(), 3);
        // Anti-correlated head should roughly mirror the primary.
        assert!((all[0] + all[1] - 2.0).abs() < 0.25, "{all:?}");
    }

    #[test]
    fn metrics_vector_layout() {
        let m = Metrics {
            ipc: 1.0,
            l2_mpki: 2.0,
            mispredict_rate: 0.05,
            l1d_mpki: 10.0,
        };
        assert_eq!(m.to_vec(), vec![1.0, 2.0, 0.05, 10.0]);
        assert_eq!(Metrics::COUNT, 4);
    }

    #[test]
    fn scalar_interface_reports_selected_metric() {
        let generator = TraceGenerator::new(Benchmark::Gzip);
        let budget = SimBudget::spread(&generator, 2, 2_000, 4_000);
        let ipc_eval = MetricsEvaluator::new(Study::MemorySystem, Benchmark::Gzip, budget.clone());
        let point = ipc_eval.space().point(42);
        let metrics = ipc_eval.evaluate_metrics(&point);
        // Default target is IPC; the selector switches heads; instruction
        // accounting matches the budget.
        assert_eq!(PointEvaluator::evaluate(&ipc_eval, &point), metrics.ipc);
        assert_eq!(
            ipc_eval.instructions_per_evaluation(),
            budget.instructions()
        );
        let l2_eval = MetricsEvaluator::new(Study::MemorySystem, Benchmark::Gzip, budget)
            .with_target(TargetMetric::L2Mpki);
        assert_eq!(l2_eval.target(), TargetMetric::L2Mpki);
        assert_eq!(PointEvaluator::evaluate(&l2_eval, &point), metrics.l2_mpki);
    }

    #[test]
    #[should_panic(expected = "primary task out of range")]
    fn bad_primary_panics() {
        let (xs, ys) = make_data(20, 6);
        fit_multitask(&xs, &ys, 9, &TrainConfig::default(), 7);
    }
}
