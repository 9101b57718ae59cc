//! The campaign engine: one canonical train–estimate–refine loop shared by
//! every driver in the crate.
//!
//! The paper's contribution is a single procedure — sample, simulate, fit a
//! cross-validation ensemble, estimate error, refine (§3.3). A
//! [`Campaign`] owns that loop once, parameterized by two small knobs:
//!
//! * an [`Encoder`] mapping design-point indices to feature rows —
//!   [`PlainEncoder`] for single-application studies, [`AppEncoder`] for
//!   the cross-application model's one-hot application id
//!   ([`crate::crossapp`]);
//! * the point-selection [`crate::sampling::Strategy`] (uniform random, or
//!   query-by-committee active learning).
//!
//! [`crate::explorer::Explorer`] is a type alias for
//! `Campaign<_, PlainEncoder>`; [`crate::crossapp::CrossAppModel`] and
//! [`crate::multitask::fit_multitask_oracles`] drive their sampling
//! through the engine's [`collect_batch`] primitive. All of them share the
//! batch-first [`Oracle`] stack (caching, retries, quarantine, parallel
//! fan-out) and the audited [`seed_stream`] derivation map.
//!
//! Each [`Campaign::step`]:
//!
//! 1. selects a fresh batch of never-before-simulated design points;
//! 2. simulates them through the oracle, quarantining failures and drawing
//!    replacements until the round's budget is met ([`collect_batch`]);
//! 3. encodes the results and trains a k-fold cross-validation ensemble;
//! 4. records the cross-validation **estimate** of mean and standard
//!    deviation of percentage error over the full space.
//!
//! [`Campaign::run`] repeats until the estimated error reaches the target
//! or the sample budget is exhausted — the paper's "collect simulation
//! results until the error estimate is sufficiently low".
//!
//! # Fault tolerance
//!
//! The oracle is fallible: each batch returns one
//! [`crate::simulate::SimResult`] per point. Points whose evaluation fails
//! (after whatever retrying the oracle stack performs) are **quarantined**
//! — never drawn again, excluded from held-out sets — and the round draws
//! replacement points until its sample budget is met or the space runs
//! out, so a faulty backend degrades throughput, never correctness.
//!
//! # Resuming a killed run
//!
//! A campaign is a pure function of its seed and its oracle's answers:
//! the sampler and the fit seeds come from their own [`seed_stream`]s.
//! So a killed run resumes by running again over a
//! [`crate::simulate::CachedEvaluator`] preloaded from the simcache it
//! persisted after each round. The replay reproduces every completed
//! round from the cache, simulating nothing, and then continues; the
//! replayed rounds report their evaluations as cache hits
//! ([`crate::report::CurvePoint::replayed`]).

// User-reachable failures must surface as typed `ExploreError`s, not
// panics; the lint holds this file to that (tests opt back out).
#![deny(clippy::unwrap_used)]

use crate::sampling::Strategy;
use crate::simulate::{Oracle, SimStats};
use crate::space::DesignSpace;
use crate::telemetry;
use archpredict_ann::cross_validation::{fit_ensemble, ErrorEstimate, FoldRecord};
use archpredict_ann::{Dataset, Ensemble, Parallelism, Sample, TrainConfig};
use archpredict_stats::describe::Accumulator;
use archpredict_stats::rng::Xoshiro256;
use archpredict_stats::sampling::IncrementalSampler;
use std::collections::BTreeSet;

/// The audited map of [`Xoshiro256::derive`] streams.
///
/// Every driver derives all of its decorrelated RNG streams from its one
/// master seed through `Xoshiro256::seed_from(seed).derive(stream)`, with
/// the stream numbers recorded here — no XOR'd magic constants scattered
/// through drivers. Streams are per-driver namespaces: two drivers may use
/// the same stream number because their master seeds differ.
pub mod seed_stream {
    /// Pooled-fit seed of the cross-application model
    /// ([`crate::crossapp::CrossAppModel::fit`]). Streams `1..=apps` of
    /// the same master seed belong to the per-application samplers
    /// ([`APP_SAMPLER_BASE`] + slot).
    pub const CROSSAPP_FIT: u64 = 0;
    /// Batch-selection sampler of a campaign (and of the multi-task
    /// driver, which samples through the same engine primitive).
    pub const SAMPLER: u64 = 1;
    /// Fit-seed stream: one `next_u64` per refinement round.
    pub const FIT: u64 = 2;
    /// Held-out evaluation-set draw ([`super::Campaign::held_out_set`]).
    pub const HELD_OUT: u64 = 3;
    /// The bench runner's truth evaluation-set draw.
    pub const BENCH_EVAL: u64 = 4;
    /// First per-application sampler stream of the cross-application
    /// model: application slot `s` samples from stream
    /// `APP_SAMPLER_BASE + s`.
    pub const APP_SAMPLER_BASE: u64 = 1;
}

/// Maps design-point indices to model feature rows.
///
/// The engine is generic over this so drivers that extend the plain
/// design-point encoding (the cross-application model's one-hot
/// application id, future context features) reuse the whole round loop
/// and prediction sweep unchanged. Implementations
/// must be pure functions of `(space, index)` — the parallel sweeps call
/// them from worker threads and the determinism contract depends on it.
pub trait Encoder: Sync {
    /// Features appended per index (the model's input width).
    fn width(&self, space: &DesignSpace) -> usize;

    /// Appends exactly [`Encoder::width`] features for `index` onto `out`.
    fn encode_into(&self, space: &DesignSpace, index: usize, out: &mut Vec<f64>);

    /// Convenience: the feature row for `index` as a fresh vector.
    fn encode(&self, space: &DesignSpace, index: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.width(space));
        self.encode_into(space, index, &mut out);
        out
    }

    /// A stable fingerprint of this encoding over `space` — the identity
    /// persisted model artifacts are stamped with
    /// ([`archpredict_ann::ModelHeader`]). The default folds the space's
    /// structural fingerprint with the encoded width; encoders whose
    /// output depends on more state than the space (the one-hot
    /// application slot, say) must fold that state in too, so two
    /// encoders that encode differently never fingerprint equal.
    fn fingerprint(&self, space: &DesignSpace) -> u64 {
        use archpredict_stats::hash::fnv1a_64_extend;
        let h = fnv1a_64_extend(
            archpredict_stats::hash::FNV_OFFSET,
            &space.fingerprint().to_le_bytes(),
        );
        fnv1a_64_extend(h, &(self.width(space) as u64).to_le_bytes())
    }
}

/// The paper's encoding: the design point's own normalized features,
/// nothing else.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlainEncoder;

impl Encoder for PlainEncoder {
    fn width(&self, space: &DesignSpace) -> usize {
        space.encoded_width()
    }

    fn encode_into(&self, space: &DesignSpace, index: usize, out: &mut Vec<f64>) {
        space.encode_index_into(index, out);
    }
}

/// Design-point features plus a one-hot application id — the
/// cross-application model's encoding (§4.4): one pooled model over
/// several applications, told which application each row came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppEncoder {
    /// This application's slot in the one-hot block.
    pub slot: usize,
    /// Total applications (the one-hot block's width).
    pub apps: usize,
}

impl Encoder for AppEncoder {
    fn width(&self, space: &DesignSpace) -> usize {
        space.encoded_width() + self.apps
    }

    fn encode_into(&self, space: &DesignSpace, index: usize, out: &mut Vec<f64>) {
        space.encode_index_into(index, out);
        for slot in 0..self.apps {
            out.push(if slot == self.slot { 1.0 } else { 0.0 });
        }
    }

    fn fingerprint(&self, space: &DesignSpace) -> u64 {
        use archpredict_stats::hash::fnv1a_64_extend;
        let mut h = fnv1a_64_extend(
            archpredict_stats::hash::FNV_OFFSET,
            &space.fingerprint().to_le_bytes(),
        );
        h = fnv1a_64_extend(h, b"app-onehot");
        h = fnv1a_64_extend(h, &(self.slot as u64).to_le_bytes());
        h = fnv1a_64_extend(h, &(self.apps as u64).to_le_bytes());
        h
    }
}

/// Evaluates `initial` through the oracle, quarantining failures and
/// drawing replacements until the batch's budget is met or the sampler
/// runs dry — the engine's one shared evaluation primitive.
///
/// Every surviving `(index, value)` is handed to `on_success` in oracle
/// order; every failed index (after whatever retrying the oracle stack
/// performed) goes to `on_failure` and is replaced by a fresh draw from
/// `sampler`, with the replacement count recorded in
/// [`SimStats::resampled`]. Replacements come from the plain sampler
/// stream even under active learning — re-scoring a handful of fill-ins
/// is not worth a second committee sweep.
pub fn collect_batch<O: Oracle + ?Sized>(
    oracle: &O,
    space: &DesignSpace,
    sampler: &mut IncrementalSampler,
    initial: Vec<usize>,
    stats: &mut SimStats,
    mut on_success: impl FnMut(usize, f64),
    mut on_failure: impl FnMut(usize),
) {
    let mut pending = initial;
    loop {
        let results = oracle.evaluate_batch(space, &pending, stats);
        let mut failed = 0usize;
        for (&index, result) in pending.iter().zip(&results) {
            match result {
                Ok(value) => on_success(index, *value),
                Err(_) => {
                    on_failure(index);
                    failed += 1;
                }
            }
        }
        if failed == 0 {
            break;
        }
        let replacements = sampler.next_batch(failed);
        if replacements.is_empty() {
            break;
        }
        stats.resampled += replacements.len() as u64;
        pending = replacements;
    }
}

/// Why a refinement round (or model query) could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExploreError {
    /// The training set (after drawing whatever points remained) is still
    /// smaller than the three folds cross-validation needs. Configure a
    /// larger batch, or step again once more points are available.
    TooFewSamples {
        /// Samples collected so far.
        have: usize,
    },
    /// Every point in the design space has been simulated and the training
    /// set is empty — there is nothing to train on.
    SpaceExhausted,
    /// A prediction was requested before any round trained an ensemble.
    NoEnsemble,
    /// A true-error measurement was requested with no held-out points (or
    /// every held-out evaluation failed).
    EmptyHeldOut,
}

impl std::fmt::Display for ExploreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExploreError::TooFewSamples { have } => write!(
                f,
                "training set has {have} sample(s); cross-validation needs at least 3"
            ),
            ExploreError::SpaceExhausted => {
                write!(f, "design space exhausted with no training data")
            }
            ExploreError::NoEnsemble => write!(f, "no ensemble trained yet"),
            ExploreError::EmptyHeldOut => write!(f, "need held-out points"),
        }
    }
}

impl std::error::Error for ExploreError {}

/// Campaign policy (exploration policy of one driver run).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Simulations added per refinement round (the paper uses 50).
    pub batch: usize,
    /// Cross-validation folds (the paper uses 10).
    pub folds: usize,
    /// Stop once the estimated mean percentage error falls below this.
    pub target_error: f64,
    /// Hard cap on total simulations.
    pub max_samples: usize,
    /// Network training hyperparameters.
    pub train: TrainConfig,
    /// How new design points are chosen each round.
    pub strategy: Strategy,
    /// Master seed for sampling and training (streams derived per
    /// [`seed_stream`]).
    pub seed: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            batch: 50,
            folds: 10,
            target_error: 1.0,
            max_samples: 2_000,
            train: TrainConfig::default(),
            strategy: Strategy::Random,
            seed: 0x00A5_CEED,
        }
    }
}

/// One refinement round's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Round {
    /// Training-set size after this round.
    pub samples: usize,
    /// Fraction of the full space simulated so far.
    pub fraction_sampled: f64,
    /// Cross-validation error estimate.
    pub estimate: ErrorEstimate,
    /// Wall-clock seconds spent training this round's ensemble (all folds,
    /// as observed by the caller — folds training in parallel overlap here).
    pub training_seconds: f64,
    /// Wall-clock seconds spent simulating this round's batch.
    pub simulation_seconds: f64,
    /// Simulation telemetry for this round's batch: unique simulations,
    /// cache hits, and simulated instructions, as reported by the oracle.
    /// Keeps the Figs. 5.6/5.7 reduction-factor accounting honest when
    /// the oracle caches or deduplicates.
    pub simulation: SimStats,
    /// Wall-clock seconds spent in ensemble prediction this round —
    /// query-by-committee candidate scoring under the active-learning
    /// strategy (0 for random sampling, which predicts nothing).
    pub prediction_seconds: f64,
    /// Per-fold training telemetry (epochs, best early-stopping error,
    /// per-fold wall seconds), in fold order.
    pub folds: Vec<FoldRecord>,
}

impl Round {
    /// Mean epochs per fold this round (0 if telemetry is empty).
    pub fn mean_epochs(&self) -> f64 {
        if self.folds.is_empty() {
            return 0.0;
        }
        self.folds.iter().map(|f| f.epochs as f64).sum::<f64>() / self.folds.len() as f64
    }
}

/// True (measured) model error on held-out points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrueError {
    /// Mean absolute percentage error.
    pub mean: f64,
    /// Standard deviation of the percentage error.
    pub std_dev: f64,
    /// Held-out points measured.
    pub points: u64,
}

/// The train–estimate–refine engine, generic over the oracle backend and
/// the feature [`Encoder`].
pub struct Campaign<'a, O: Oracle, C: Encoder = PlainEncoder> {
    space: &'a DesignSpace,
    evaluator: &'a O,
    encoder: C,
    config: CampaignConfig,
    sampler: IncrementalSampler,
    rng: Xoshiro256,
    dataset: Dataset,
    sampled_indices: Vec<usize>,
    /// Indices whose evaluation failed for good; never drawn again.
    quarantined: BTreeSet<usize>,
    ensemble: Option<Ensemble>,
    history: Vec<Round>,
}

impl<'a, O: Oracle> Campaign<'a, O, PlainEncoder> {
    /// Creates a campaign over `space` backed by `evaluator`, with the
    /// paper's plain design-point encoding.
    pub fn new(space: &'a DesignSpace, evaluator: &'a O, config: CampaignConfig) -> Self {
        Self::with_encoder(space, evaluator, config, PlainEncoder)
    }
}

impl<'a, O: Oracle, C: Encoder> Campaign<'a, O, C> {
    /// Creates a campaign with a caller-supplied feature encoder. A replay
    /// of a killed run must pass the same encoder: the simcache it replays
    /// from holds the oracle's answers, not feature rows.
    pub fn with_encoder(
        space: &'a DesignSpace,
        evaluator: &'a O,
        config: CampaignConfig,
        encoder: C,
    ) -> Self {
        let rng = Xoshiro256::seed_from(config.seed);
        Self {
            sampler: IncrementalSampler::new(space.size(), rng.derive(seed_stream::SAMPLER)),
            rng: rng.derive(seed_stream::FIT),
            space,
            evaluator,
            encoder,
            config,
            dataset: Dataset::new(),
            sampled_indices: Vec::new(),
            quarantined: BTreeSet::new(),
            ensemble: None,
            history: Vec::new(),
        }
    }

    /// The exploration history so far (one [`Round`] per step).
    pub fn history(&self) -> &[Round] {
        &self.history
    }

    /// Indices of all design points simulated so far.
    pub fn sampled_indices(&self) -> &[usize] {
        &self.sampled_indices
    }

    /// Indices whose evaluation failed permanently, in ascending order.
    /// These are excluded from future batches and held-out sets.
    pub fn quarantined(&self) -> Vec<usize> {
        self.quarantined.iter().copied().collect()
    }

    /// The current ensemble, once at least one round has run.
    pub fn ensemble(&self) -> Option<&Ensemble> {
        self.ensemble.as_ref()
    }

    /// Training-set size so far.
    pub fn samples(&self) -> usize {
        self.dataset.len()
    }

    /// Replaces the network-training hyperparameters used by subsequent
    /// rounds (e.g. to scale epoch budgets to the growing training set).
    pub fn set_train_config(&mut self, train: TrainConfig) {
        self.config.train = train;
    }

    /// The trained ensemble, or [`ExploreError::NoEnsemble`] before the
    /// first round.
    fn require_ensemble(&self) -> Result<&Ensemble, ExploreError> {
        self.ensemble.as_ref().ok_or(ExploreError::NoEnsemble)
    }

    /// Predicts the metric at an arbitrary design point, or
    /// [`ExploreError::NoEnsemble`] before the first round.
    pub fn try_predict(&self, index: usize) -> Result<f64, ExploreError> {
        let ensemble = self.require_ensemble()?;
        Ok(ensemble.predict(&self.encoder.encode(self.space, index)))
    }

    /// Predicts the metric at an arbitrary design point.
    ///
    /// # Panics
    ///
    /// Panics if no round has run yet ([`Campaign::try_predict`] returns
    /// the condition as a typed error instead).
    pub fn predict(&self, index: usize) -> f64 {
        self.try_predict(index).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Predicts the metric at each of the given design-point indices via
    /// the batched inference path, parallelized per the configured
    /// [`Parallelism`] knob. Bit-for-bit identical to calling
    /// [`Campaign::predict`] per index, at any thread count. Errors with
    /// [`ExploreError::NoEnsemble`] before the first round.
    pub fn try_predict_indices(&self, indices: &[usize]) -> Result<Vec<f64>, ExploreError> {
        let ensemble = self.require_ensemble()?;
        Ok(crate::infer::sweep_encoded(
            ensemble,
            indices,
            self.parallelism(),
            |index, rows| self.encoder.encode_into(self.space, index, rows),
            self.encoder.width(self.space),
        ))
    }

    /// Infallible [`Campaign::try_predict_indices`].
    ///
    /// # Panics
    ///
    /// Panics if no round has run yet.
    pub fn predict_indices(&self, indices: &[usize]) -> Vec<f64> {
        self.try_predict_indices(indices)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Predicts the metric over the **entire** design space, in index
    /// order — the paper's payoff step. Chunked and parallelized per the
    /// configured [`Parallelism`] knob; the output is bit-for-bit
    /// identical for every setting. Errors with
    /// [`ExploreError::NoEnsemble`] before the first round.
    pub fn try_predict_space(&self) -> Result<Vec<f64>, ExploreError> {
        self.try_predict_space_with(self.parallelism())
    }

    /// Infallible [`Campaign::try_predict_space`].
    ///
    /// # Panics
    ///
    /// Panics if no round has run yet.
    pub fn predict_space(&self) -> Vec<f64> {
        self.try_predict_space().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Campaign::try_predict_space`] with an explicit worker policy
    /// (exposed so callers and tests can pin or sweep thread counts).
    pub fn try_predict_space_with(
        &self,
        parallelism: Parallelism,
    ) -> Result<Vec<f64>, ExploreError> {
        let ensemble = self.require_ensemble()?;
        let indices: Vec<usize> = (0..self.space.size()).collect();
        Ok(crate::infer::sweep_encoded(
            ensemble,
            &indices,
            parallelism,
            |index, rows| self.encoder.encode_into(self.space, index, rows),
            self.encoder.width(self.space),
        ))
    }

    /// Infallible [`Campaign::try_predict_space_with`].
    ///
    /// # Panics
    ///
    /// Panics if no round has run yet.
    pub fn predict_space_with(&self, parallelism: Parallelism) -> Vec<f64> {
        self.try_predict_space_with(parallelism)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Ranks every design point by predicted metric, best (highest)
    /// first, with ties broken by index so the ranking is deterministic.
    /// This is "find the best configuration without simulating the
    /// space": a full-space sweep plus one sort. Errors with
    /// [`ExploreError::NoEnsemble`] before the first round.
    pub fn try_rank_space(&self) -> Result<Vec<usize>, ExploreError> {
        let predictions = self.try_predict_space()?;
        let mut order: Vec<usize> = (0..predictions.len()).collect();
        order.sort_by(|&a, &b| predictions[b].total_cmp(&predictions[a]).then(a.cmp(&b)));
        Ok(order)
    }

    /// Infallible [`Campaign::try_rank_space`].
    ///
    /// # Panics
    ///
    /// Panics if no round has run yet.
    pub fn rank_space(&self) -> Vec<usize> {
        self.try_rank_space().unwrap_or_else(|e| panic!("{e}"))
    }

    /// The worker policy governing batched prediction sweeps (shared with
    /// fold training).
    fn parallelism(&self) -> Parallelism {
        self.config.train.parallelism
    }

    /// Runs one refinement round; returns the new round's record.
    ///
    /// Any points drawn and simulated are kept in the training set even on
    /// error, so a failed round wastes no simulations — stepping again with
    /// more points available can succeed.
    pub fn try_step(&mut self) -> Result<&Round, ExploreError> {
        let _round_span = telemetry::span("campaign.round");
        // 1. Choose fresh points. Under active learning with a trained
        // ensemble this scores candidates through the batched inference
        // path — that is the round's prediction work, so time it.
        let scoring =
            self.ensemble.is_some() && matches!(self.config.strategy, Strategy::Active { .. });
        let selection_started = std::time::Instant::now();
        let select_span = telemetry::span("campaign.select");
        let parallelism = self.parallelism();
        let batch = match self.config.strategy {
            Strategy::Random => self.sampler.next_batch(self.config.batch),
            Strategy::Active { pool_factor } => {
                let (space, encoder) = (self.space, &self.encoder);
                crate::sampling::active_batch(
                    &mut self.sampler,
                    self.ensemble.as_ref(),
                    self.config.batch,
                    pool_factor,
                    parallelism,
                    |index, rows| encoder.encode_into(space, index, rows),
                    encoder.width(space),
                )
            }
        };
        drop(select_span);
        let prediction_seconds = if scoring {
            selection_started.elapsed().as_secs_f64()
        } else {
            0.0
        };
        if batch.is_empty() && self.dataset.is_empty() {
            return Err(ExploreError::SpaceExhausted);
        }
        // 2. Simulate them through the batch-first oracle, keeping its
        // telemetry for the round record. Failed points are quarantined
        // and replaced by fresh draws until the round's budget is met or
        // the space runs dry, so a faulty backend cannot starve the
        // training set.
        let sim_started = std::time::Instant::now();
        let collect_span = telemetry::span("campaign.collect");
        let mut simulation = SimStats::default();
        let Self {
            evaluator,
            space,
            encoder,
            sampler,
            dataset,
            sampled_indices,
            quarantined,
            ..
        } = self;
        collect_batch(
            *evaluator,
            space,
            sampler,
            batch,
            &mut simulation,
            |index, value| {
                dataset.push(Sample::new(encoder.encode(space, index), value));
                sampled_indices.push(index);
            },
            |index| {
                quarantined.insert(index);
            },
        );
        drop(collect_span);
        let simulation_seconds = sim_started.elapsed().as_secs_f64();
        // 3. Train the cross-validation ensemble, with the fold count
        // clamped to the training-set size (a tiny first batch would
        // otherwise request more folds than there are samples).
        let folds = self.config.folds.min(self.dataset.len());
        if folds < 3 {
            return Err(ExploreError::TooFewSamples {
                have: self.dataset.len(),
            });
        }
        let started = std::time::Instant::now();
        let fit_span = telemetry::span("campaign.fit");
        let fit_seed = self.rng.next_u64();
        let fit = fit_ensemble(&self.dataset, folds, &self.config.train, fit_seed);
        drop(fit_span);
        let training_seconds = started.elapsed().as_secs_f64();
        self.ensemble = Some(fit.ensemble);
        // 4. Record the estimate. The round's deterministic SimStats delta
        // is mirrored into the process-wide telemetry counters here — once
        // per round, after the per-round bookkeeping is final.
        telemetry::record_sim(&simulation);
        telemetry::CAMPAIGN_ROUNDS.incr();
        self.history.push(Round {
            samples: self.dataset.len(),
            fraction_sampled: self.dataset.len() as f64 / self.space.size() as f64,
            estimate: fit.estimate,
            training_seconds,
            simulation_seconds,
            simulation,
            prediction_seconds,
            folds: fit.folds,
        });
        Ok(self.history.last().expect("just pushed"))
    }

    /// Runs one refinement round; returns the new round's record.
    ///
    /// # Panics
    ///
    /// Panics if the round cannot run ([`Campaign::try_step`] returns the
    /// condition as a typed error instead).
    pub fn step(&mut self) -> &Round {
        if let Err(e) = self.try_step() {
            panic!("exploration step failed: {e}");
        }
        self.history.last().expect("just stepped")
    }

    /// Steps until the estimated mean error reaches the configured target,
    /// the sample cap is hit, or the space is exhausted. Returns the final
    /// round.
    pub fn try_run(&mut self) -> Result<&Round, ExploreError> {
        loop {
            self.try_step()?;
            let round = self.history.last().expect("stepped");
            let done = round.estimate.mean <= self.config.target_error
                || self.dataset.len() >= self.config.max_samples
                || self.sampler.remaining() == 0;
            if done {
                break;
            }
        }
        Ok(self.history.last().expect("at least one round ran"))
    }

    /// Steps until the estimated mean error reaches the configured target,
    /// the sample cap is hit, or the space is exhausted. Returns the final
    /// round.
    ///
    /// # Panics
    ///
    /// Panics if a round cannot run (empty space, or batches too small to
    /// ever reach three samples); [`Campaign::try_run`] surfaces the typed
    /// error instead.
    pub fn run(&mut self) -> &Round {
        if let Err(e) = self.try_run() {
            panic!("exploration failed: {e}");
        }
        self.history.last().expect("at least one round ran")
    }

    /// Measures the model's *true* error on `held_out` point indices
    /// (simulating any that were never simulated — callers typically pass a
    /// fixed random evaluation set disjoint from the training set).
    /// Held-out points whose evaluation fails are skipped — the error is
    /// measured over the surviving points, reported in
    /// [`TrueError::points`].
    ///
    /// Errors if `held_out` is empty, every evaluation failed, or no round
    /// has run yet.
    pub fn try_true_error(&self, held_out: &[usize]) -> Result<TrueError, ExploreError> {
        if held_out.is_empty() {
            return Err(ExploreError::EmptyHeldOut);
        }
        let mut stats = SimStats::default();
        let actuals = self
            .evaluator
            .evaluate_batch(self.space, held_out, &mut stats);
        let predictions = self.try_predict_indices(held_out)?;
        let mut acc = Accumulator::new();
        for (&predicted, actual) in predictions.iter().zip(&actuals) {
            if let Ok(actual) = actual {
                acc.add(100.0 * (predicted - actual).abs() / actual.abs().max(1e-12));
            }
        }
        if acc.count() == 0 {
            return Err(ExploreError::EmptyHeldOut);
        }
        Ok(TrueError {
            mean: acc.mean(),
            std_dev: acc.population_std_dev(),
            points: acc.count(),
        })
    }

    /// Infallible [`Campaign::try_true_error`].
    ///
    /// # Panics
    ///
    /// Panics if no round has run yet or `held_out` is empty.
    pub fn true_error(&self, held_out: &[usize]) -> TrueError {
        self.try_true_error(held_out)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Draws `count` indices that have *not* been simulated, for true-error
    /// evaluation. Deterministic given the campaign's seed (drawn from the
    /// [`seed_stream::HELD_OUT`] stream).
    ///
    /// The complement of the sampled set is built directly and a random
    /// prefix of it is returned, so cost stays `O(space + count)` even when
    /// nearly every point has been simulated (a rejection loop would
    /// degenerate into coupon collecting there). When fewer than `count`
    /// unsimulated points remain, all of them are returned — callers must
    /// not assume the result has exactly `count` elements.
    pub fn held_out_set(&self, count: usize) -> Vec<usize> {
        let sampled: std::collections::HashSet<usize> =
            self.sampled_indices.iter().copied().collect();
        let mut complement: Vec<usize> = (0..self.space.size())
            .filter(|i| !sampled.contains(i) && !self.quarantined.contains(i))
            .collect();
        let want = count.min(complement.len());
        let mut rng = Xoshiro256::seed_from(self.config.seed).derive(seed_stream::HELD_OUT);
        archpredict_stats::sampling::partial_shuffle(&mut complement, want, &mut rng);
        complement.truncate(want);
        complement
    }
}
