//! Single-network training with early stopping (paper §3.1–3.3).
//!
//! Training presents examples stochastically; with
//! [`TrainConfig::percentage_error`] enabled (the paper's default for
//! architectural targets), examples are drawn at a frequency proportional
//! to the inverse of their target value, which makes plain squared-error
//! gradient descent optimize *percentage* error. Early stopping monitors
//! percentage error on a held-aside set and restores the best weights.

use crate::dataset::Sample;
use crate::network::{transpose_into, Network, NetworkSnapshot, PredictScratch};
use crate::scaling::{MinMaxScaler, TargetScaler};
use archpredict_stats::json::{JsonError, Value};
use archpredict_stats::rng::Xoshiro256;
use archpredict_stats::sampling::WeightedAlias;
use std::sync::OnceLock;

/// Worker-thread policy for per-fold ensemble training
/// (see [`crate::cross_validation::fit_ensemble`]).
///
/// Fold results are joined in fold order and each fold trains from its own
/// derived RNG stream, so the trained ensemble and error estimate are
/// bit-for-bit identical for every setting of this knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// One worker per available core (capped at the task count), unless
    /// the `ARCHPREDICT_TRAIN_THREADS` environment variable overrides the
    /// core count.
    #[default]
    Auto,
    /// Exactly this many workers; `Fixed(1)` forces the sequential path.
    Fixed(usize),
}

impl Parallelism {
    /// Environment variable overriding the automatic thread count.
    pub const ENV_THREADS: &'static str = "ARCHPREDICT_TRAIN_THREADS";

    /// Resolves the policy to a concrete worker count for `tasks`
    /// independent tasks (always at least 1, never more than `tasks`).
    pub fn worker_count(self, tasks: usize) -> usize {
        self.worker_count_with_env(tasks, Self::ENV_THREADS)
    }

    /// [`Parallelism::worker_count`] with a caller-chosen environment
    /// override for the `Auto` branch. Subsystems with their own thread
    /// knob (e.g. batch simulation's `ARCHPREDICT_SIM_THREADS`) resolve
    /// through this so `Fixed(n)` semantics stay identical everywhere.
    ///
    /// At most one task needs one worker whatever the policy, so that
    /// case returns before reading the environment or the core count.
    pub fn worker_count_with_env(self, tasks: usize, env_threads: &str) -> usize {
        if tasks <= 1 {
            return 1;
        }
        let workers = match self {
            Parallelism::Fixed(n) => n.max(1),
            Parallelism::Auto => std::env::var(env_threads)
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(available_cores),
        };
        workers.min(tasks)
    }
}

/// `std::thread::available_parallelism`, resolved once per process. Each
/// call re-reads the cgroup CPU quota (several microseconds), which a
/// daemon's sweeps would otherwise pay on every request; a quota changed
/// after the first call is not seen.
fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Hyperparameters for network training.
///
/// Defaults follow the paper's architecture (§3.1): one hidden layer of 16
/// units, weights initialized in ±0.01, and percentage-error training. The
/// default learning rate and momentum are higher than the paper's
/// 0.001/0.5 because our (much smaller) training sets favor faster
/// convergence; [`TrainConfig::paper`] restores the published values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Hidden units in the first hidden layer.
    pub hidden_units: usize,
    /// Units in an optional second hidden layer (paper Fig. 3.1(b); `0`
    /// selects the paper's default single-hidden-layer topology).
    pub second_hidden_units: usize,
    /// Gradient-descent step size (η in Eq. 3.1).
    pub learning_rate: f64,
    /// Momentum coefficient (α in Eq. 3.2).
    pub momentum: f64,
    /// Hard cap on training epochs.
    pub max_epochs: usize,
    /// Stop after this many epochs without improvement on the
    /// early-stopping set.
    pub patience: usize,
    /// Train for percentage error: inverse-target presentation frequency
    /// and percentage-error early stopping (§3.3).
    pub percentage_error: bool,
    /// Worker threads for per-fold cross-validation training. Results are
    /// identical for every setting; this only affects wall-clock time.
    pub parallelism: Parallelism,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            hidden_units: 16,
            second_hidden_units: 0,
            learning_rate: 0.1,
            momentum: 0.7,
            max_epochs: 800,
            patience: 60,
            percentage_error: true,
            parallelism: Parallelism::Auto,
        }
    }
}

impl TrainConfig {
    /// An epoch budget scaled to the training-set size: small sets afford
    /// (and need) many passes; large sets converge in fewer. Used by the
    /// experiment harness so every point on a learning curve is trained to
    /// comparable convergence.
    pub fn scaled_to(n_samples: usize) -> Self {
        let max_epochs = (400_000 / n_samples.max(1)).clamp(1_500, 10_000);
        Self {
            max_epochs,
            patience: (max_epochs / 15).max(50),
            ..Self::default()
        }
    }

    /// The paper's exact published hyperparameters (η = 0.001), which need
    /// more epochs to converge.
    pub fn paper() -> Self {
        Self {
            learning_rate: 0.001,
            momentum: 0.5,
            max_epochs: 4000,
            patience: 150,
            ..Self::default()
        }
    }
}

/// Layer sizes for a config: `[inputs, hidden, (hidden2,) outputs]`.
pub(crate) fn layer_sizes(inputs: usize, config: &TrainConfig, outputs: usize) -> Vec<usize> {
    let mut sizes = vec![inputs, config.hidden_units];
    if config.second_hidden_units > 0 {
        sizes.push(config.second_hidden_units);
    }
    sizes.push(outputs);
    sizes
}

/// A trained network together with the scalers needed to use it on raw
/// feature vectors and to return raw-scale predictions.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainedModel {
    network: Network,
    input_scaler: MinMaxScaler,
    target_scaler: TargetScaler,
    /// Epochs actually run before stopping.
    pub epochs: usize,
    /// Best mean absolute percentage error seen on the early-stopping set
    /// (the error of the restored weights).
    pub best_es_error: f64,
    /// Whether training diverged (non-finite early-stopping error from
    /// exploding weights). The returned weights are still the best finite
    /// snapshot, but callers should prefer to retrain from a fresh seed.
    pub diverged: bool,
}

/// Caller-owned scratch for allocation-free model and ensemble inference:
/// a buffer for one scaled input row, the network's scratch (whose input
/// matrix each member of a batch scales its block into), the ensemble's
/// shared feature-major block of raw features, and the batched committee
/// disagreement's running sums. One buffer per worker thread is the
/// intended usage; it may be shared across models of different widths (it
/// re-sizes as needed).
#[derive(Debug, Clone, Default)]
pub struct PredictBuffer {
    scaled: Vec<f64>,
    pub(crate) scratch: PredictScratch,
    /// One block of raw feature rows, transposed feature-major once and
    /// read by every member of an ensemble.
    pub(crate) block: Vec<f64>,
    /// Per-row Welford running means for batched committee disagreement.
    pub(crate) mean: Vec<f64>,
    /// Per-row Welford running sums of squared deviations.
    pub(crate) m2: Vec<f64>,
}

impl TrainedModel {
    /// Predicts the raw-scale target for raw features.
    ///
    /// Convenience wrapper over [`TrainedModel::predict_with`] that pays
    /// one scratch allocation per call; sweeps should hold a
    /// [`PredictBuffer`] and use `predict_with` or the ensemble's batch
    /// paths.
    pub fn predict(&self, features: &[f64]) -> f64 {
        self.predict_with(features, &mut PredictBuffer::default())
    }

    /// Predicts the raw-scale target for raw features using caller-owned
    /// scratch — zero allocations per call once the buffer has grown, and
    /// bit-for-bit identical to [`TrainedModel::predict`].
    pub fn predict_with(&self, features: &[f64], buf: &mut PredictBuffer) -> f64 {
        buf.scaled.clear();
        self.input_scaler.transform_into(features, &mut buf.scaled);
        let PredictBuffer {
            scaled, scratch, ..
        } = buf;
        self.target_scaler
            .unscale(self.network.predict_into(scaled, scratch)[0])
    }

    /// Width of the raw feature vectors this model consumes.
    pub fn input_dims(&self) -> usize {
        self.input_scaler.dims()
    }

    /// Predicts raw-scale targets for a block of `n` points whose raw
    /// features arrive feature-major (`raw_t[i * n + p]` is feature `i` of
    /// point `p`), yielding one prediction per point in point order. The
    /// model scales each feature row straight into the network scratch's
    /// input matrix and runs [`Network::forward_block`]; per point the
    /// result is bit-for-bit [`TrainedModel::predict`].
    pub(crate) fn predict_block<'s>(
        &self,
        raw_t: &[f64],
        n: usize,
        scratch: &'s mut PredictScratch,
    ) -> impl Iterator<Item = f64> + 's {
        self.input_scaler
            .transform_block(raw_t, n, self.network.block_input(n, scratch));
        let target = self.target_scaler;
        self.network
            .forward_block(n, scratch)
            .iter()
            .map(move |&y| target.unscale(y))
    }

    /// [`TrainedModel::predict_with`] through the textbook per-output
    /// forward loop instead of the blocked kernel — structurally the
    /// pre-kernel production path, kept as the per-member step of
    /// `Ensemble::predict_reference`, the batched-sweep speed gate's
    /// baseline. Bit-for-bit identical to [`TrainedModel::predict`], just
    /// slower. Not for production use.
    #[doc(hidden)]
    pub fn predict_reference_with(&self, features: &[f64], buf: &mut PredictBuffer) -> f64 {
        buf.scaled.clear();
        self.input_scaler.transform_into(features, &mut buf.scaled);
        let PredictBuffer {
            scaled, scratch, ..
        } = buf;
        self.target_scaler
            .unscale(self.network.predict_into_naive(scaled, scratch)[0])
    }

    /// Serializes the model (network plus scalers) to a JSON [`Value`].
    pub fn to_json_value(&self) -> Value {
        Value::Object(vec![
            ("network".into(), self.network.to_json_value()),
            ("input_scaler".into(), self.input_scaler.to_json_value()),
            ("target_scaler".into(), self.target_scaler.to_json_value()),
            ("epochs".into(), Value::num(self.epochs as f64)),
            ("best_es_error".into(), Value::num(self.best_es_error)),
            ("diverged".into(), Value::Bool(self.diverged)),
        ])
    }

    /// Deserializes a model written by [`TrainedModel::to_json_value`].
    pub fn from_json_value(value: &Value) -> Result<Self, JsonError> {
        Ok(Self {
            network: Network::from_json_value(value.get("network")?)?,
            input_scaler: MinMaxScaler::from_json_value(value.get("input_scaler")?)?,
            target_scaler: TargetScaler::from_json_value(value.get("target_scaler")?)?,
            epochs: value.get("epochs")?.as_usize()?,
            best_es_error: value.get("best_es_error")?.as_f64_or(f64::INFINITY)?,
            diverged: value.get("diverged")?.as_bool()?,
        })
    }
}

/// Mean absolute percentage error (in percent) of one output head over
/// the early-stopping block that `scratch` holds, against raw-scale
/// `targets`. The early-stopping loop calls this every epoch, so the block
/// is scaled and transposed once per training run and each epoch only runs
/// [`Network::forward_block`] on it: zero allocations and no scalar
/// forward passes per epoch. Bit-for-bit identical to per-row
/// `predict_into` evaluation.
fn percent_error(
    network: &Network,
    target_scaler: &TargetScaler,
    head: usize,
    targets: &[f64],
    scratch: &mut PredictScratch,
) -> f64 {
    let n = targets.len();
    let out_t = network.forward_block(n, scratch);
    let mut total = 0.0;
    for (&y, &target) in out_t[head * n..(head + 1) * n].iter().zip(targets) {
        let y = target_scaler.unscale(y);
        total += 100.0 * (y - target).abs() / target.abs().max(1e-12);
    }
    total / n as f64
}

/// Trains one network on `train`, early-stopping on `es`, with scalers
/// fitted from both sets (the design-space bounds are known up front in
/// the paper's setting, so scaler fit is not a leak).
///
/// This is the one-head case of [`train_multi_network`]: each sample is
/// lent to it as a `(features, [target])` pair, so nothing is copied.
///
/// # Panics
///
/// Panics if either set is empty or samples are inconsistently sized.
pub fn train_network(
    train: &[&Sample],
    es: &[&Sample],
    config: &TrainConfig,
    rng: &mut Xoshiro256,
) -> TrainedModel {
    let MultiTrainedModel {
        network,
        input_scaler,
        mut target_scalers,
        epochs,
        best_es_error,
        diverged,
        ..
    } = train_multi_network(&one_head(train), &one_head(es), 0, config, rng);
    TrainedModel {
        network,
        input_scaler,
        target_scaler: target_scalers.pop().expect("one head"),
        epochs,
        best_es_error,
        diverged,
    }
}

/// Borrows each sample as a one-head `(features, [target])` pair.
fn one_head<'a>(set: &[&'a Sample]) -> Vec<(&'a [f64], &'a [f64])> {
    set.iter()
        .map(|s| (s.features.as_slice(), std::slice::from_ref(&s.target)))
        .collect()
}

/// A trained multi-output network (one output head per task, shared
/// hidden layers) together with its scalers. The **primary** head is the
/// one early stopping monitored; auxiliary heads act as an inductive bias
/// through the shared hidden layer (the paper's §7 multi-task proposal).
#[derive(Debug, Clone, PartialEq)]
pub struct MultiTrainedModel {
    network: Network,
    input_scaler: MinMaxScaler,
    target_scalers: Vec<TargetScaler>,
    /// Output index of the primary task (the early-stopping head).
    pub primary: usize,
    /// Epochs actually run before stopping.
    pub epochs: usize,
    /// Best primary-head mean absolute percentage error seen on the
    /// early-stopping set (the error of the restored weights).
    pub best_es_error: f64,
    /// Whether training diverged (see [`TrainedModel::diverged`]).
    pub diverged: bool,
}

impl MultiTrainedModel {
    /// Number of output heads.
    pub fn tasks(&self) -> usize {
        self.target_scalers.len()
    }

    /// Width of the raw feature vectors this model consumes.
    pub fn input_dims(&self) -> usize {
        self.input_scaler.dims()
    }

    /// Predicts every task's raw-scale target for raw features, appending
    /// one value per head (in head order) to `out`.
    pub fn predict_all_into(&self, features: &[f64], buf: &mut PredictBuffer, out: &mut Vec<f64>) {
        buf.scaled.clear();
        self.input_scaler.transform_into(features, &mut buf.scaled);
        let PredictBuffer {
            scaled, scratch, ..
        } = buf;
        let heads = self.network.predict_into(scaled, scratch);
        out.extend(
            heads
                .iter()
                .zip(&self.target_scalers)
                .map(|(&y, s)| s.unscale(y)),
        );
    }

    /// Predicts every task's raw-scale target for raw features.
    pub fn predict_all(&self, features: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.tasks());
        self.predict_all_into(features, &mut PredictBuffer::default(), &mut out);
        out
    }

    /// Predicts the primary task's raw-scale target using caller-owned
    /// scratch.
    pub fn predict_primary_with(&self, features: &[f64], buf: &mut PredictBuffer) -> f64 {
        buf.scaled.clear();
        self.input_scaler.transform_into(features, &mut buf.scaled);
        let PredictBuffer {
            scaled, scratch, ..
        } = buf;
        self.target_scalers[self.primary]
            .unscale(self.network.predict_into(scaled, scratch)[self.primary])
    }

    /// Predicts the primary task's raw-scale target for raw features.
    pub fn predict_primary(&self, features: &[f64]) -> f64 {
        self.predict_primary_with(features, &mut PredictBuffer::default())
    }

    /// Serializes the model (network plus all scalers) to a JSON
    /// [`Value`], mirroring [`TrainedModel::to_json_value`].
    pub fn to_json_value(&self) -> Value {
        Value::Object(vec![
            ("network".into(), self.network.to_json_value()),
            ("input_scaler".into(), self.input_scaler.to_json_value()),
            (
                "target_scalers".into(),
                Value::Array(
                    self.target_scalers
                        .iter()
                        .map(TargetScaler::to_json_value)
                        .collect(),
                ),
            ),
            ("primary".into(), Value::num(self.primary as f64)),
            ("epochs".into(), Value::num(self.epochs as f64)),
            ("best_es_error".into(), Value::num(self.best_es_error)),
            ("diverged".into(), Value::Bool(self.diverged)),
        ])
    }

    /// Deserializes a model written by
    /// [`MultiTrainedModel::to_json_value`].
    pub fn from_json_value(value: &Value) -> Result<Self, JsonError> {
        let target_scalers: Vec<TargetScaler> = value
            .get("target_scalers")?
            .as_array()?
            .iter()
            .map(TargetScaler::from_json_value)
            .collect::<Result<_, _>>()?;
        if target_scalers.is_empty() {
            return Err(JsonError::custom(
                "multi-task model needs at least one head",
            ));
        }
        let primary = value.get("primary")?.as_usize()?;
        if primary >= target_scalers.len() {
            return Err(JsonError::custom(format!(
                "primary head {primary} out of range for {} heads",
                target_scalers.len()
            )));
        }
        Ok(Self {
            network: Network::from_json_value(value.get("network")?)?,
            input_scaler: MinMaxScaler::from_json_value(value.get("input_scaler")?)?,
            target_scalers,
            primary,
            epochs: value.get("epochs")?.as_usize()?,
            best_es_error: value.get("best_es_error")?.as_f64_or(f64::INFINITY)?,
            diverged: value.get("diverged")?.as_bool()?,
        })
    }

    /// Serializes the model with a versioned [`ModelHeader`] carrying
    /// `fingerprint`, mirroring [`Ensemble::to_json_fingerprinted`].
    ///
    /// [`ModelHeader`]: crate::ensemble::ModelHeader
    /// [`Ensemble::to_json_fingerprinted`]: crate::ensemble::Ensemble::to_json_fingerprinted
    pub fn to_json_fingerprinted(&self, fingerprint: u64) -> String {
        let mut fields = crate::ensemble::ModelHeader::current(fingerprint).to_json_fields();
        fields.push(("model".into(), self.to_json_value()));
        Value::Object(fields).to_json()
    }

    /// Deserializes a model written by
    /// [`MultiTrainedModel::to_json_fingerprinted`], enforcing the header
    /// (current format, matching fingerprint).
    pub fn from_json_checked(text: &str, expected_fingerprint: u64) -> Result<Self, JsonError> {
        let value = Value::parse(text)?;
        crate::ensemble::ModelHeader::from_json_value(&value)?.check(expected_fingerprint)?;
        Self::from_json_value(value.get("model")?)
    }
}

/// Trains one multi-output network on `train`, early-stopping on the
/// `primary` head's percentage error over `es`. Each element pairs a raw
/// feature row with its target row (one value per task, every row the
/// same width). Scalers are fitted over both sets; under
/// [`TrainConfig::percentage_error`] examples are presented at a frequency
/// inversely proportional to their primary target; the best early-stopping
/// epoch's weights are snapshotted and restored on exit; and a non-finite
/// early-stopping error stops training as diverged. [`train_network`] is
/// the one-head case.
///
/// # Panics
///
/// Panics if either set is empty, target rows are empty or ragged, or
/// `primary` is out of range.
pub fn train_multi_network(
    train: &[(&[f64], &[f64])],
    es: &[(&[f64], &[f64])],
    primary: usize,
    config: &TrainConfig,
    rng: &mut Xoshiro256,
) -> MultiTrainedModel {
    assert!(!train.is_empty(), "empty training set");
    assert!(!es.is_empty(), "empty early-stopping set");
    let tasks = train[0].1.len();
    assert!(tasks > 0, "no target tasks");
    assert!(primary < tasks, "primary task out of range");
    assert!(
        train.iter().chain(es).all(|(_, row)| row.len() == tasks),
        "ragged target rows"
    );

    let input_scaler = MinMaxScaler::fit(train.iter().chain(es).map(|&(x, _)| x));
    let target_scalers: Vec<TargetScaler> = (0..tasks)
        .map(|t| {
            let column: Vec<f64> = train.iter().chain(es).map(|(_, row)| row[t]).collect();
            TargetScaler::fit(&column)
        })
        .collect();

    // Pre-normalize the training set once, into row-major matrices.
    let dims = input_scaler.dims();
    let mut inputs = Vec::with_capacity(train.len() * dims);
    let mut targets = Vec::with_capacity(train.len() * tasks);
    for (x, row) in train {
        input_scaler.transform_into(x, &mut inputs);
        targets.extend(row.iter().zip(&target_scalers).map(|(&v, s)| s.scale(v)));
    }

    // Presentation frequency follows the primary target, so squared-error
    // descent optimizes the primary head's percentage error; the auxiliary
    // heads ride along on whatever presentation the primary dictates.
    let weights: Vec<f64> = if config.percentage_error {
        train
            .iter()
            .map(|(_, row)| 1.0 / row[primary].abs().max(1e-9))
            .collect()
    } else {
        vec![1.0; train.len()]
    };
    let alias = WeightedAlias::new(&weights);

    let mut network = Network::new(&layer_sizes(dims, config, tasks), rng);

    // The early-stopping set is evaluated every epoch: transpose and scale
    // it once, as one feature-major block in its own scratch, which every
    // epoch's forward pass reads without refilling.
    let es_rows: Vec<f64> = es.iter().flat_map(|(x, _)| x.iter().copied()).collect();
    let mut es_raw_t = vec![0.0; es_rows.len()];
    transpose_into(&es_rows, dims, &mut es_raw_t);
    let mut es_scratch = PredictScratch::default();
    input_scaler.transform_block(
        &es_raw_t,
        es.len(),
        network.block_input(es.len(), &mut es_scratch),
    );
    let es_targets: Vec<f64> = es.iter().map(|(_, row)| row[primary]).collect();
    // Best-epoch bookkeeping: a weights/velocity-only snapshot overwritten
    // in place, instead of cloning the network (and its scratch and delta
    // buffers) on every improving epoch.
    let mut best = NetworkSnapshot::default();
    network.snapshot_into(&mut best);
    let mut best_error = f64::INFINITY;
    let mut best_epoch = 0;
    let mut epochs = 0;
    let mut diverged = false;

    for epoch in 0..config.max_epochs {
        epochs = epoch + 1;
        for _ in 0..train.len() {
            let i = alias.sample(rng);
            network.train_example(
                &inputs[i * dims..(i + 1) * dims],
                &targets[i * tasks..(i + 1) * tasks],
                config.learning_rate,
                config.momentum,
            );
        }
        let es_error = percent_error(
            &network,
            &target_scalers[primary],
            primary,
            &es_targets,
            &mut es_scratch,
        );
        if !es_error.is_finite() {
            // Exploding weights: further epochs only compound NaN/Inf.
            // Bail out; the restore below rolls back to the best finite
            // snapshot (the near-zero init if no epoch ever improved) and
            // the caller can reinitialize from a fresh seed.
            diverged = true;
            break;
        }
        if es_error < best_error {
            best_error = es_error;
            network.snapshot_into(&mut best);
            best_epoch = epoch;
        } else if epoch - best_epoch >= config.patience {
            break;
        }
    }
    network.restore(&best);

    MultiTrainedModel {
        network,
        input_scaler,
        target_scalers,
        primary,
        epochs,
        best_es_error: best_error,
        diverged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Sample;

    /// A smooth nonlinear 2-D test function with IPC-like range.
    fn target_fn(a: f64, b: f64) -> f64 {
        0.3 + 0.5 * (a * 3.0).sin().abs() + 0.4 * a * b
    }

    fn make_samples(n: usize, seed: u64) -> Vec<Sample> {
        let mut rng = Xoshiro256::seed_from(seed);
        (0..n)
            .map(|_| {
                let a = rng.next_f64();
                let b = rng.next_f64();
                Sample::new(vec![a, b], target_fn(a, b))
            })
            .collect()
    }

    #[test]
    fn learns_nonlinear_function_within_a_few_percent() {
        let samples = make_samples(400, 1);
        let (train, es) = samples.split_at(320);
        let train_refs: Vec<&Sample> = train.iter().collect();
        let es_refs: Vec<&Sample> = es.iter().collect();
        let mut rng = Xoshiro256::seed_from(2);
        let model = train_network(&train_refs, &es_refs, &TrainConfig::default(), &mut rng);

        let test = make_samples(200, 3);
        let mut total = 0.0;
        for s in &test {
            total += 100.0 * (model.predict(&s.features) - s.target).abs() / s.target;
        }
        let mape = total / test.len() as f64;
        assert!(mape < 5.0, "test MAPE {mape:.2}%");
    }

    #[test]
    fn early_stopping_terminates_before_max_epochs() {
        let samples = make_samples(200, 4);
        let (train, es) = samples.split_at(160);
        let train_refs: Vec<&Sample> = train.iter().collect();
        let es_refs: Vec<&Sample> = es.iter().collect();
        let config = TrainConfig {
            max_epochs: 4000,
            patience: 10,
            ..TrainConfig::default()
        };
        let mut rng = Xoshiro256::seed_from(5);
        let model = train_network(&train_refs, &es_refs, &config, &mut rng);
        assert!(model.epochs < 4000, "ran {} epochs", model.epochs);
        assert!(
            model.best_es_error.is_finite() && model.best_es_error > 0.0,
            "best ES error {}",
            model.best_es_error
        );
    }

    #[test]
    fn percentage_training_helps_small_targets() {
        // An IPC-like target range (0.08..1.3, as across the studied design
        // spaces): percentage-error training should serve the small-target
        // region at least as well as plain squared-error training,
        // averaged over seeds.
        let mut rng = Xoshiro256::seed_from(6);
        let samples: Vec<Sample> = (0..500)
            .map(|_| {
                let a = rng.next_f64();
                let b = rng.next_f64();
                let t = 0.08 + 1.2 * (0.3 * a + 0.7 * a * b).powf(1.5);
                Sample::new(vec![a, b], t)
            })
            .collect();
        let (train, es) = samples.split_at(400);
        let train_refs: Vec<&Sample> = train.iter().collect();
        let es_refs: Vec<&Sample> = es.iter().collect();

        let run = |pct: bool, seed: u64| {
            let config = TrainConfig {
                percentage_error: pct,
                ..TrainConfig::default()
            };
            let mut rng = Xoshiro256::seed_from(seed);
            let model = train_network(&train_refs, &es_refs, &config, &mut rng);
            let mut total = 0.0;
            let mut count = 0;
            for s in &samples {
                if s.target < 0.3 {
                    total += 100.0 * (model.predict(&s.features) - s.target).abs() / s.target;
                    count += 1;
                }
            }
            total / count as f64
        };
        let with: f64 = [7, 8, 9].iter().map(|&s| run(true, s)).sum::<f64>() / 3.0;
        let without: f64 = [7, 8, 9].iter().map(|&s| run(false, s)).sum::<f64>() / 3.0;
        assert!(
            with < without * 1.05,
            "pct training {with:.2}% should not trail plain {without:.2}% on small targets"
        );
    }

    #[test]
    fn two_hidden_layers_also_learn() {
        let samples = make_samples(400, 21);
        let (train, es) = samples.split_at(320);
        let train_refs: Vec<&Sample> = train.iter().collect();
        let es_refs: Vec<&Sample> = es.iter().collect();
        // Near-zero init makes two-layer nets slow starters: give the
        // deeper topology a bigger epoch budget.
        let config = TrainConfig {
            second_hidden_units: 8,
            learning_rate: 0.2,
            max_epochs: 6000,
            patience: 500,
            ..TrainConfig::default()
        };
        let mut rng = Xoshiro256::seed_from(22);
        let model = train_network(&train_refs, &es_refs, &config, &mut rng);
        let test = make_samples(150, 23);
        let mut total = 0.0;
        for s in &test {
            total += 100.0 * (model.predict(&s.features) - s.target).abs() / s.target;
        }
        let mape = total / test.len() as f64;
        assert!(mape < 8.0, "two-layer MAPE {mape:.2}%");
    }

    #[test]
    fn deterministic_given_seed() {
        let samples = make_samples(120, 8);
        let (train, es) = samples.split_at(100);
        let train_refs: Vec<&Sample> = train.iter().collect();
        let es_refs: Vec<&Sample> = es.iter().collect();
        let mut r1 = Xoshiro256::seed_from(9);
        let mut r2 = Xoshiro256::seed_from(9);
        let m1 = train_network(&train_refs, &es_refs, &TrainConfig::default(), &mut r1);
        let m2 = train_network(&train_refs, &es_refs, &TrainConfig::default(), &mut r2);
        assert_eq!(m1.predict(&[0.3, 0.3]), m2.predict(&[0.3, 0.3]));
    }

    #[test]
    fn returned_model_carries_the_best_early_stopping_weights() {
        // Regression for the snapshot refactor (weights-only snapshot +
        // restore-on-exit instead of cloning the whole network every
        // improving epoch): recomputing the early-stopping error from the
        // *returned* model must reproduce `best_es_error` bit for bit.
        let samples = make_samples(200, 31);
        let (train, es) = samples.split_at(160);
        let train_refs: Vec<&Sample> = train.iter().collect();
        let es_refs: Vec<&Sample> = es.iter().collect();
        let config = TrainConfig {
            max_epochs: 400,
            patience: 25,
            ..TrainConfig::default()
        };
        let mut rng = Xoshiro256::seed_from(32);
        let model = train_network(&train_refs, &es_refs, &config, &mut rng);
        // The model keeps training past its best epoch before patience runs
        // out, so restore-on-exit must have rolled weights back.
        let mut total = 0.0;
        for s in &es_refs {
            let y = model.predict(&s.features);
            total += 100.0 * (y - s.target).abs() / s.target.abs().max(1e-12);
        }
        assert_eq!(total / es_refs.len() as f64, model.best_es_error);
    }

    #[test]
    fn zero_epoch_budget_returns_the_initial_network() {
        // max_epochs = 0 exercises the pre-loop snapshot: restore must be
        // a no-op, not a rollback to garbage.
        let samples = make_samples(60, 33);
        let (train, es) = samples.split_at(40);
        let train_refs: Vec<&Sample> = train.iter().collect();
        let es_refs: Vec<&Sample> = es.iter().collect();
        let config = TrainConfig {
            max_epochs: 0,
            ..TrainConfig::default()
        };
        let mut rng = Xoshiro256::seed_from(34);
        let model = train_network(&train_refs, &es_refs, &config, &mut rng);
        assert_eq!(model.epochs, 0);
        assert!(model.predict(&[0.4, 0.6]).is_finite());
    }

    #[test]
    fn divergent_learning_rate_is_detected_and_model_stays_finite() {
        // A huge learning rate on linear outputs explodes geometrically to
        // ±Inf/NaN within an epoch or two. Training must flag the
        // divergence, stop early, and still return finite weights (the
        // best snapshot before the blow-up).
        let samples = make_samples(200, 41);
        let (train, es) = samples.split_at(160);
        let train_refs: Vec<&Sample> = train.iter().collect();
        let es_refs: Vec<&Sample> = es.iter().collect();
        let config = TrainConfig {
            learning_rate: 10.0,
            max_epochs: 200,
            ..TrainConfig::default()
        };
        let mut rng = Xoshiro256::seed_from(42);
        let model = train_network(&train_refs, &es_refs, &config, &mut rng);
        assert!(model.diverged, "lr=10 should diverge");
        assert!(
            model.epochs < 200,
            "should bail early, ran {}",
            model.epochs
        );
        assert!(
            model.predict(&[0.4, 0.6]).is_finite(),
            "returned weights must be the last finite snapshot"
        );
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_train_panics() {
        let mut rng = Xoshiro256::seed_from(1);
        train_network(&[], &[], &TrainConfig::default(), &mut rng);
    }

    /// Correlated multi-task rows: aux heads are smooth transforms of the
    /// primary.
    fn make_multi_rows(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let mut rng = Xoshiro256::seed_from(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let a = rng.next_f64();
            let b = rng.next_f64();
            let primary = 0.3 + 0.5 * (a * 2.2).sin().abs() + 0.2 * a * b;
            xs.push(vec![a, b]);
            ys.push(vec![primary, 2.0 - primary, primary * primary]);
        }
        (xs, ys)
    }

    fn as_pairs<'a>(xs: &'a [Vec<f64>], ys: &'a [Vec<f64>]) -> Vec<(&'a [f64], &'a [f64])> {
        xs.iter()
            .zip(ys)
            .map(|(x, y)| (x.as_slice(), y.as_slice()))
            .collect()
    }

    #[test]
    fn multi_output_learns_every_head() {
        let (xs, ys) = make_multi_rows(300, 51);
        let pairs = as_pairs(&xs, &ys);
        let (train, es) = pairs.split_at(240);
        let mut rng = Xoshiro256::seed_from(52);
        let model = train_multi_network(train, es, 0, &TrainConfig::default(), &mut rng);
        assert_eq!(model.tasks(), 3);
        assert_eq!(model.input_dims(), 2);
        assert!(!model.diverged);

        let (test_x, test_y) = make_multi_rows(150, 53);
        let mut primary_mape = 0.0;
        for (x, y) in test_x.iter().zip(&test_y) {
            primary_mape += 100.0 * (model.predict_primary(x) - y[0]).abs() / y[0];
            let all = model.predict_all(x);
            assert_eq!(all.len(), 3);
            // The anti-correlated head mirrors the primary.
            assert!((all[0] + all[1] - 2.0).abs() < 0.3, "{all:?} vs {y:?}");
        }
        primary_mape /= test_x.len() as f64;
        assert!(primary_mape < 6.0, "primary MAPE {primary_mape:.2}%");
    }

    #[test]
    fn multi_output_is_deterministic_and_restores_best_weights() {
        let (xs, ys) = make_multi_rows(150, 61);
        let pairs = as_pairs(&xs, &ys);
        let (train, es) = pairs.split_at(120);
        let config = TrainConfig {
            max_epochs: 300,
            patience: 20,
            ..TrainConfig::default()
        };
        let run = || {
            let mut rng = Xoshiro256::seed_from(62);
            train_multi_network(train, es, 0, &config, &mut rng)
        };
        let (m1, m2) = (run(), run());
        assert_eq!(m1.predict_all(&[0.3, 0.7]), m2.predict_all(&[0.3, 0.7]));
        // Recomputing the primary-head ES error from the returned model
        // must reproduce `best_es_error` bit for bit (restore-on-exit).
        let mut total = 0.0;
        for &(x, y) in es {
            total += 100.0 * (m1.predict_primary(x) - y[0]).abs() / y[0].abs().max(1e-12);
        }
        assert_eq!(total / es.len() as f64, m1.best_es_error);
    }

    #[test]
    fn multi_output_json_round_trip_is_exact() {
        let (xs, ys) = make_multi_rows(120, 81);
        let pairs = as_pairs(&xs, &ys);
        let (train, es) = pairs.split_at(96);
        let config = TrainConfig {
            max_epochs: 120,
            ..TrainConfig::default()
        };
        let mut rng = Xoshiro256::seed_from(82);
        let model = train_multi_network(train, es, 1, &config, &mut rng);

        // Round-tripped predictions are bit-exact (shortest-round-trip
        // floats); the structs differ only in transient optimizer state
        // (velocity), which serialization intentionally drops.
        let probe = |m: &MultiTrainedModel| {
            [[0.2, 0.9], [0.0, 0.0], [0.77, 0.33]]
                .iter()
                .flat_map(|x| m.predict_all(x))
                .map(f64::to_bits)
                .collect::<Vec<u64>>()
        };
        let back = MultiTrainedModel::from_json_value(
            &Value::parse(&model.to_json_value().to_json()).unwrap(),
        )
        .unwrap();
        assert_eq!(probe(&back), probe(&model));
        assert_eq!(back.primary, model.primary);
        assert_eq!(back.epochs, model.epochs);
        assert_eq!(back.best_es_error.to_bits(), model.best_es_error.to_bits());
        assert_eq!(back.tasks(), model.tasks());

        // Headered round trip enforces the fingerprint.
        let json = model.to_json_fingerprinted(42);
        let back = MultiTrainedModel::from_json_checked(&json, 42).unwrap();
        assert_eq!(probe(&back), probe(&model));
        let err = MultiTrainedModel::from_json_checked(&json, 43).unwrap_err();
        assert!(err.to_string().contains("fingerprint"), "{err}");
    }

    #[test]
    #[should_panic(expected = "primary task out of range")]
    fn multi_output_bad_primary_panics() {
        let (xs, ys) = make_multi_rows(20, 71);
        let pairs = as_pairs(&xs, &ys);
        let (train, es) = pairs.split_at(16);
        let mut rng = Xoshiro256::seed_from(72);
        train_multi_network(train, es, 9, &TrainConfig::default(), &mut rng);
    }

    #[test]
    #[should_panic(expected = "ragged target rows")]
    fn multi_output_ragged_targets_panic() {
        let xs = [vec![0.1, 0.2], vec![0.3, 0.4]];
        let ys = [vec![1.0, 2.0], vec![1.0]];
        let train = [(xs[0].as_slice(), ys[0].as_slice())];
        let es = [(xs[1].as_slice(), ys[1].as_slice())];
        let mut rng = Xoshiro256::seed_from(73);
        train_multi_network(&train, &es, 0, &TrainConfig::default(), &mut rng);
    }
}
