//! # archpredict
//!
//! Predictive modeling of architectural design spaces via neural-network
//! ensembles — a from-scratch reproduction of Ïpek et al., *Efficiently
//! Exploring Architectural Design Spaces via Predictive Modeling*
//! (ASPLOS 2006).
//!
//! Detailed cycle-level simulation of a single design point is expensive,
//! and design spaces are exponential in the number of parameters. This
//! crate trains **ensembles of artificial neural networks** on a sparse
//! random sample of the space (typically 1–4 %), predicts the metric (IPC)
//! everywhere else, and — crucially — uses cross-validation to *estimate
//! its own error* so simulation can stop as soon as the model is accurate
//! enough.
//!
//! The moving parts:
//!
//! * [`param`] / [`space`] — design-space algebra: cardinal, nominal,
//!   boolean and linked parameters; point indexing; the §3.3 encoding.
//! * [`studies`] — the paper's two concrete spaces (Tables 4.1/4.2) and
//!   their mapping onto the cycle-level simulator.
//! * [`simulate`] — the batch-first simulation oracle: full simulation,
//!   SimPoint-accelerated (noisy) simulation, a sharded deduplicating
//!   cache with CSV persist/preload, parallel batch fan-out, and
//!   [`simulate::SimStats`] telemetry.
//! * [`failpoint`] — named, seeded fault sites compiled into the persist,
//!   registry, serve and retrying-oracle paths; every injected fault is a
//!   pure function of `(seed, site, hit count)`, or of `(seed, site,
//!   key)` for a keyed site such as `oracle.evaluate`, and therefore
//!   replayable.
//! * [`distributed`] — one environment-variable name that the `perf`
//!   benchmark refuses to run under; no code reads the variable.
//! * [`campaign`] — the train–estimate–refine engine shared by every
//!   driver: the canonical round loop (§3.3's procedure, steps 1–8),
//!   generic over an [`campaign::Encoder`] and the sampling strategy,
//!   with the audited [`campaign::seed_stream`] derivation map. A killed
//!   campaign resumes by running again over the simcache it persisted.
//! * [`explorer`] — the single-application driver: a thin façade aliasing
//!   the engine with the paper's plain design-point encoding.
//! * [`persist`] — atomic (write-temp, fsync, rename) file persistence
//!   shared by simcaches, registry entries and reports.
//! * [`registry`] — the on-disk model registry: content-hashed,
//!   versioned artifacts keyed by `(study, encoder, app, seed, budget)`,
//!   with [`registry::Registry::get_or_fit`] loading warm ensembles
//!   (zero fits, zero simulations) or driving a campaign exactly once.
//! * [`serve`] — the prediction daemon behind `archpredict-served`:
//!   HTTP/1.1 over `std::net`, multiplexing campaigns and prediction
//!   requests, coalescing concurrent predictions into batched `infer`
//!   sweeps by group commit.
//! * [`sampling`] — random (paper) and active-learning (§7) strategies.
//! * [`infer`] — the batched, allocation-free, parallel inference engine
//!   behind full-space sweeps, committee scoring and held-out true error.
//! * [`multitask`] — the §7 multi-task extension (IPC + auxiliary
//!   metrics through a shared hidden layer).
//! * [`crossapp`] — the §7 cross-application extension (one pooled model
//!   over several benchmarks, with a one-hot application input).
//! * [`smarts`] — a SMARTS-style systematic-sampling estimator (§2 names
//!   the combination as future work), another noisy evaluator the
//!   ensembles can train on.
//! * [`report`] — learning curves, CSV/tables for regenerating the
//!   paper's figures.
//! * [`telemetry`] — the unified observability layer: process-wide
//!   metric counters behind the daemon's `GET /metrics`, JSONL span
//!   events (`ARCHPREDICT_TRACE=path`), and per-request trace IDs.
//!
//! # Quickstart
//!
//! ```no_run
//! use archpredict::explorer::{Explorer, ExplorerConfig};
//! use archpredict::simulate::{SimBudget, StudyEvaluator};
//! use archpredict::studies::Study;
//! use archpredict_workloads::Benchmark;
//!
//! // Predict gzip's IPC across the 23,040-point memory-system space.
//! let evaluator = StudyEvaluator::new(Study::MemorySystem, Benchmark::Gzip);
//! let space = Study::MemorySystem.space();
//! let config = ExplorerConfig { target_error: 2.0, ..ExplorerConfig::default() };
//! let mut explorer = Explorer::new(&space, &evaluator, config);
//! let round = explorer.run();
//! println!(
//!     "{} simulations ({:.2}% of space): estimated error {:.2}%",
//!     round.samples,
//!     100.0 * round.fraction_sampled,
//!     round.estimate.mean
//! );
//! let best = (0..space.size()).max_by(|&a, &b| {
//!     explorer.predict(a).total_cmp(&explorer.predict(b))
//! });
//! ```

pub mod campaign;
pub mod crossapp;
pub mod distributed;
pub mod explorer;
pub mod failpoint;
pub mod infer;
pub mod multitask;
pub mod param;
pub mod persist;
pub mod registry;
pub mod report;
pub mod sampling;
pub mod serve;
pub mod simulate;
pub mod smarts;
pub mod space;
pub mod studies;
pub mod telemetry;

pub use campaign::{AppEncoder, Campaign, CampaignConfig, Encoder, PlainEncoder};
pub use explorer::{ExploreError, Explorer, ExplorerConfig, Round, TrueError};
pub use param::{Param, ParamKind, ParamValue};
pub use registry::{FitOutcome, ModelKey, Registry, RegistryError, StudyFitSpec};
pub use serve::{install_signal_handlers, shutdown_signaled, ServeConfig, Server, ServerHandle};
pub use simulate::{
    CachedEvaluator, Oracle, PointEvaluator, RetryPolicy, RetryingOracle, SimBudget, SimError,
    SimPointEvaluator, SimResult, SimStats, StudyEvaluator,
};
pub use space::{DesignPoint, DesignSpace, SpaceError};
pub use studies::Study;
