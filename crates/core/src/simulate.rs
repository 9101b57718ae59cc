//! The simulation oracle: the bridge between design points and the
//! simulator.
//!
//! The paper views the simulator as a function `SIM(p0..pM, A)` (§2). This
//! module makes **batch evaluation the primitive**: an [`Oracle`] answers
//! "what is the metric at each of these design-point indices?" in one
//! call, recording [`SimStats`] telemetry (unique simulations, cache hits,
//! simulated instructions, wall seconds) as it goes. Point-at-a-time
//! simulators implement the leaf trait [`PointEvaluator`] — the literal
//! `SIM(p, A)` function — and become batch-first oracles automatically via
//! a blanket impl whose fan-out respects the shared [`Parallelism`] knob
//! (with an `ARCHPREDICT_SIM_THREADS` override, mirroring training's
//! `ARCHPREDICT_TRAIN_THREADS`).
//!
//! [`StudyEvaluator`] is the one leaf that simulates: it replays its
//! budget's packed intervals at a design point and averages their IPCs.
//! The other leaves reduce its per-interval results their own way: the
//! noisy-but-cheap [`SimPointEvaluator`] (§5.3) by cluster weight, and —
//! in sibling modules — the SMARTS evaluator by mean and confidence and
//! the multi-task evaluator into a metric vector. [`CachedEvaluator`]
//! wraps any of them in a **sharded** memo cache with in-batch
//! deduplication, so a batch containing duplicates — or parallel worker
//! threads — never simulates the same configuration twice, and offers a
//! plain-CSV [`CachedEvaluator::persist`]/[`CachedEvaluator::load`] path
//! so interrupted experiments resume without re-simulating.
//!
//! # Fallibility
//!
//! Real simulator backends crash, hang, and emit garbage. Batch results
//! are therefore **per-index [`SimResult`]s**: a fault at one index
//! ([`SimError`]) never poisons its batchmates. That covers panics too:
//! the fan-out catches a leaf evaluator's panic as [`SimError::Crashed`]
//! for that index alone. [`RetryingOracle`] wraps any oracle with a
//! bounded, deterministically-seeded retry policy and a quarantine set
//! for permanently failing points;
//! [`crate::fault::FaultInjectingOracle`] injects seeded faults for
//! testing the whole stack. Indices that still fail after the stack's
//! retries are replaced with fresh draws by the campaign engine's
//! [`crate::campaign::collect_batch`] loop, which every driver —
//! single-application, cross-application and multi-task — samples
//! through.
//!
//! # Determinism contract
//!
//! Batch results are **bit-for-bit identical** at every [`Parallelism`]
//! setting: each output depends only on its own design-point index,
//! workers own disjoint contiguous spans of the (deduplicated) work list,
//! and spans are merged in input order — the same contract parallel fold
//! training and the batched inference sweep already honor. The guarantee
//! covers errors too: which indices fail, and how, is independent of the
//! thread count.

use crate::persist::write_atomic;
use crate::space::{DesignPoint, DesignSpace};
use crate::studies::Study;
use crate::telemetry::Counter;
use archpredict_ann::Parallelism;
use archpredict_sim::{lookahead, simulate_with_warmup};
use archpredict_simpoint::SimPointPlan;
use archpredict_stats::rng::Xoshiro256;
use archpredict_workloads::{Benchmark, PackedInterval, TraceGenerator};
use std::collections::{BTreeSet, HashMap};
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Why a single design-point evaluation failed.
///
/// The taxonomy mirrors what flaky cycle-accurate backends actually do:
/// transient infrastructure hiccups, hard crashes, garbage output, and
/// hangs. [`SimError::is_retriable`] encodes the retry policy's view of
/// each mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimError {
    /// A transient infrastructure failure (I/O blip, lost worker); the
    /// same point may well succeed on retry.
    Transient,
    /// The simulator panicked on this configuration (caught by the batch
    /// fan-out, so only this index fails).
    Crashed,
    /// The simulator returned a non-finite metric (NaN/Inf). Deterministic
    /// simulators return the same garbage again, so this is not retried.
    NonFinite,
    /// The simulation exceeded its time budget.
    TimedOut,
    /// The point is in a [`RetryingOracle`]'s quarantine set and was not
    /// re-attempted.
    Quarantined,
}

impl SimError {
    /// Whether a retry can plausibly succeed. `NonFinite` (deterministic
    /// garbage) and `Quarantined` (already given up) are permanent;
    /// everything else is worth re-attempting.
    pub fn is_retriable(self) -> bool {
        matches!(
            self,
            SimError::Transient | SimError::Crashed | SimError::TimedOut
        )
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Transient => write!(f, "transient simulation failure"),
            SimError::Crashed => write!(f, "simulator crashed"),
            SimError::NonFinite => write!(f, "simulator returned a non-finite metric"),
            SimError::TimedOut => write!(f, "simulation timed out"),
            SimError::Quarantined => write!(f, "design point is quarantined"),
        }
    }
}

impl std::error::Error for SimError {}

/// Per-index outcome of a batch evaluation.
pub type SimResult = Result<f64, SimError>;

/// Environment variable overriding the `Parallelism::Auto` worker count
/// for batch simulation (the simulation leg's analogue of training's
/// `ARCHPREDICT_TRAIN_THREADS`).
pub const ENV_SIM_THREADS: &str = "ARCHPREDICT_SIM_THREADS";

/// Telemetry for one or more oracle calls: how much simulation actually
/// happened, and how much the cache saved.
///
/// Counters are additive — pass the same record through several calls to
/// accumulate, or [`SimStats::merge`] records from independent calls.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimStats {
    /// Simulator invocations: configurations actually simulated. Under
    /// [`CachedEvaluator`] this counts *unique* points only (duplicates
    /// and cached points are served without simulating).
    pub unique_simulations: u64,
    /// Evaluations served without simulating: memo-cache hits plus
    /// in-batch duplicates of a point already being simulated.
    pub cache_hits: u64,
    /// Instructions simulated (evaluation *attempts* × the evaluator's
    /// per-evaluation budget — failed attempts burn simulator work too) —
    /// the Figs. 5.6/5.7 reduction-factor currency.
    pub simulated_instructions: u64,
    /// Wall-clock seconds spent inside the oracle.
    pub wall_seconds: f64,
    /// Evaluation attempts that returned a [`SimError`], counted where the
    /// error originated (the faulty backend or injector, not the retry
    /// wrapper). Quarantine short-circuits are not counted here.
    pub failures: u64,
    /// Re-attempts issued by [`RetryingOracle`] after retriable failures.
    pub retries: u64,
    /// Indices a [`RetryingOracle`] gave up on and quarantined.
    pub quarantined: u64,
    /// Replacement draws made by the explorer to backfill failed points so
    /// a round still reaches its sample budget.
    pub resampled: u64,
}

impl SimStats {
    /// Total evaluations answered (simulated + served from cache).
    pub fn evaluations(&self) -> u64 {
        self.unique_simulations + self.cache_hits
    }

    /// Adds another record's counters into this one. This is the **only**
    /// way records combine — every accumulation site (campaign rounds,
    /// cross-app pooling, multi-task fits) goes through here. The
    /// exhaustive destructuring makes field coverage a compile error to
    /// miss: adding a field to [`SimStats`] breaks this function (and its
    /// coverage test) until the field is merged.
    pub fn merge(&mut self, other: &SimStats) {
        let SimStats {
            unique_simulations,
            cache_hits,
            simulated_instructions,
            wall_seconds,
            failures,
            retries,
            quarantined,
            resampled,
        } = *other;
        self.unique_simulations += unique_simulations;
        self.cache_hits += cache_hits;
        self.simulated_instructions += simulated_instructions;
        self.wall_seconds += wall_seconds;
        self.failures += failures;
        self.retries += retries;
        self.quarantined += quarantined;
        self.resampled += resampled;
    }
}

/// The batch-first simulation backend: the simulator-as-a-function
/// abstraction of §2, vectorized.
///
/// Implementors answer whole batches at once (fanning out across worker
/// threads, deduplicating, caching — whatever the backend does best) and
/// account for the work in the caller's [`SimStats`]. Point-at-a-time
/// simulators should implement [`PointEvaluator`] instead and inherit this
/// trait through the blanket impl.
pub trait Oracle: Sync {
    /// The target metric (IPC in the paper) at each design-point index of
    /// `space`, in input order — one [`SimResult`] per index, so a fault
    /// at one point never poisons its batchmates. Telemetry is added into
    /// `stats`.
    fn evaluate_batch(
        &self,
        space: &DesignSpace,
        indices: &[usize],
        stats: &mut SimStats,
    ) -> Vec<SimResult>;

    /// Single-point adapter: a one-element batch (telemetry discarded).
    fn evaluate_index(&self, space: &DesignSpace, index: usize) -> SimResult {
        let mut stats = SimStats::default();
        self.evaluate_batch(space, std::slice::from_ref(&index), &mut stats)
            .pop()
            // Invariant: evaluate_batch returns one result per index.
            .expect("one result for one index")
    }
}

/// A point-at-a-time simulator function — the literal `SIM(p, A)` of §2.
///
/// Every `PointEvaluator` is an [`Oracle`]: the blanket impl fans batches
/// out across scoped worker threads per [`PointEvaluator::parallelism`]
/// (deterministically — see the module docs). Implement this trait for
/// anything that simulates one configuration at a time; implement
/// [`Oracle`] directly only for backends with a smarter batch story
/// (e.g. [`CachedEvaluator`]).
pub trait PointEvaluator: Sync {
    /// The target metric (IPC in the paper) at `point`.
    fn evaluate(&self, point: &DesignPoint) -> f64;

    /// Fallible evaluation. The default wraps [`PointEvaluator::evaluate`]
    /// and converts a non-finite metric into [`SimError::NonFinite`], so
    /// every leaf gets garbage-output detection for free; backends with
    /// richer failure modes (crashes, timeouts) override this.
    fn try_evaluate(&self, point: &DesignPoint) -> SimResult {
        let value = self.evaluate(point);
        if value.is_finite() {
            Ok(value)
        } else {
            Err(SimError::NonFinite)
        }
    }

    /// Instructions one evaluation simulates (for the reduction-factor
    /// accounting of Figs. 5.6/5.7).
    fn instructions_per_evaluation(&self) -> u64;

    /// Worker policy for the batch fan-out (`Auto` honors
    /// [`ENV_SIM_THREADS`]). Results are identical for every setting; this
    /// only affects wall-clock time.
    fn parallelism(&self) -> Parallelism {
        Parallelism::Auto
    }
}

impl<E: PointEvaluator> Oracle for E {
    fn evaluate_batch(
        &self,
        space: &DesignSpace,
        indices: &[usize],
        stats: &mut SimStats,
    ) -> Vec<SimResult> {
        evaluate_indices(self, space, indices, self.parallelism(), stats)
    }
}

/// Evaluates `indices` through `evaluator` with an explicit worker policy,
/// fanning out across scoped threads and recording telemetry. Results are
/// in input order and bit-for-bit identical at every `parallelism`.
///
/// This is the raw fan-out (no caching, no deduplication): a batch with
/// duplicate indices simulates each occurrence. Wrap the evaluator in a
/// [`CachedEvaluator`] to get dedup and memoization, and a
/// [`RetryingOracle`] to get retry/quarantine handling of failures.
pub fn evaluate_indices<E: PointEvaluator + ?Sized>(
    evaluator: &E,
    space: &DesignSpace,
    indices: &[usize],
    parallelism: Parallelism,
    stats: &mut SimStats,
) -> Vec<SimResult> {
    let started = Instant::now();
    let results = fan_out(evaluator, space, indices, parallelism);
    let failed = results.iter().filter(|r| r.is_err()).count() as u64;
    stats.unique_simulations += indices.len() as u64 - failed;
    stats.failures += failed;
    // Failed attempts burn simulator work too.
    stats.simulated_instructions += indices.len() as u64 * evaluator.instructions_per_evaluation();
    stats.wall_seconds += started.elapsed().as_secs_f64();
    results
}

/// The scoped-thread fan-out shared by the blanket impl and the cached
/// oracle's miss path. Workers own disjoint contiguous spans of the output
/// and each result depends only on its own index, so the outcome — values
/// *and* errors — is identical at every worker count.
fn fan_out<E: PointEvaluator + ?Sized>(
    evaluator: &E,
    space: &DesignSpace,
    indices: &[usize],
    parallelism: Parallelism,
) -> Vec<SimResult> {
    let workers = parallelism.worker_count_with_env(indices.len(), ENV_SIM_THREADS);
    if workers <= 1 || indices.len() < 2 {
        return indices
            .iter()
            .map(|&i| evaluate_isolated(evaluator, space, i))
            .collect();
    }
    let mut results = vec![Ok(0.0); indices.len()];
    let chunk = indices.len().div_ceil(workers);
    std::thread::scope(|scope| {
        for (slot, work) in results.chunks_mut(chunk).zip(indices.chunks(chunk)) {
            scope.spawn(move || {
                for (out, &i) in slot.iter_mut().zip(work) {
                    *out = evaluate_isolated(evaluator, space, i);
                }
            });
        }
    });
    results
}

/// One evaluation with its panic contained: a simulator that panics (the
/// engine's deadlock watchdog does) fails only its own index, as
/// [`SimError::Crashed`], instead of unwinding through the whole batch.
fn evaluate_isolated<E: PointEvaluator + ?Sized>(
    evaluator: &E,
    space: &DesignSpace,
    index: usize,
) -> SimResult {
    panic::catch_unwind(AssertUnwindSafe(|| {
        evaluator.try_evaluate(&space.point(index))
    }))
    .unwrap_or(Err(SimError::Crashed))
}

/// How much simulation one full evaluation performs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimBudget {
    /// Warmup instructions per interval (caches/predictors, unmeasured).
    pub warmup: u64,
    /// Measured instructions per interval.
    pub measured: u64,
    /// Which trace intervals to simulate (IPC is their mean).
    pub intervals: Vec<usize>,
}

impl SimBudget {
    /// Standard budget: four intervals spread across the program's phase
    /// schedule, 8K warmup + 16K measured each.
    pub fn standard(generator: &TraceGenerator) -> Self {
        Self::spread(generator, 4, 8_000, 16_000)
    }

    /// Quick budget for tests and examples: two intervals, 6K + 10K.
    pub fn quick(generator: &TraceGenerator) -> Self {
        Self::spread(generator, 2, 6_000, 10_000)
    }

    /// `count` intervals spread evenly across the schedule.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn spread(generator: &TraceGenerator, count: usize, warmup: u64, measured: u64) -> Self {
        assert!(count > 0, "need at least one interval");
        let n = generator.num_intervals();
        let count = count.min(n);
        let intervals = (0..count).map(|i| i * n / count).collect();
        Self {
            warmup,
            measured,
            intervals,
        }
    }

    /// SimPoint's convention for whole intervals of `interval_len`
    /// instructions: the first third warms caches and predictors, and the
    /// rest is measured.
    pub fn whole_intervals(interval_len: usize, intervals: Vec<usize>) -> Self {
        let warmup = (interval_len / 3) as u64;
        Self {
            warmup,
            measured: interval_len as u64 - warmup,
            intervals,
        }
    }

    /// Instructions simulated per evaluation under this budget.
    pub fn instructions(&self) -> u64 {
        (self.warmup + self.measured) * self.intervals.len() as u64
    }
}

/// Full detailed simulation of a study's design points for one benchmark.
///
/// The budget's intervals are the same at every design point, so the
/// first evaluation synthesizes each of them once into a
/// [`PackedInterval`] and every later simulation — on any thread —
/// replays those buffers. Construction does no simulation work.
#[derive(Debug)]
pub struct StudyEvaluator {
    study: Study,
    space: DesignSpace,
    generator: TraceGenerator,
    budget: SimBudget,
    traces: OnceLock<Vec<PackedInterval>>,
}

impl StudyEvaluator {
    /// Creates an evaluator with the standard budget.
    pub fn new(study: Study, benchmark: Benchmark) -> Self {
        let generator = TraceGenerator::new(benchmark);
        let budget = SimBudget::standard(&generator);
        Self::with_budget(study, benchmark, budget)
    }

    /// Creates an evaluator with an explicit budget.
    pub fn with_budget(study: Study, benchmark: Benchmark, budget: SimBudget) -> Self {
        Self {
            study,
            space: study.space(),
            generator: TraceGenerator::new(benchmark),
            budget,
            traces: OnceLock::new(),
        }
    }

    /// The study's design space.
    pub fn space(&self) -> &DesignSpace {
        &self.space
    }

    /// The simulation budget in use.
    pub fn budget(&self) -> &SimBudget {
        &self.budget
    }

    /// The budget's intervals, packed on first use. Each holds as many
    /// instructions as a simulation of the study's largest machine can
    /// pull: every cardinal level list ascends, so the space's last point
    /// has its widest fetch and deepest reorder buffer. A simulation that
    /// reads past a buffer continues from the live generator, so results
    /// are exact either way.
    fn traces(&self) -> &[PackedInterval] {
        self.traces.get_or_init(|| {
            let largest = self.space.point(self.space.size() - 1);
            let config = self.study.config_at(&self.space, &largest);
            let len = self.budget.warmup + self.budget.measured + lookahead(&config);
            self.budget
                .intervals
                .iter()
                .map(|&i| PackedInterval::new(&self.generator, i, len as usize))
                .collect()
        })
    }

    /// Simulates `point` on each of the budget's intervals, in budget
    /// order. Every evaluator in the crate reduces these results.
    pub(crate) fn simulate_intervals(
        &self,
        point: &DesignPoint,
    ) -> impl Iterator<Item = archpredict_sim::SimResult> + '_ {
        let config = self.study.config_at(&self.space, point);
        self.traces().iter().map(move |trace| {
            simulate_with_warmup(
                &config,
                trace.replay(&self.generator),
                self.budget.warmup,
                self.budget.measured,
            )
        })
    }
}

impl PointEvaluator for StudyEvaluator {
    fn evaluate(&self, point: &DesignPoint) -> f64 {
        let sum: f64 = self.simulate_intervals(point).map(|r| r.ipc()).sum();
        sum / self.budget.intervals.len() as f64
    }

    fn instructions_per_evaluation(&self) -> u64 {
        self.budget.instructions()
    }
}

/// SimPoint-accelerated evaluation (§5.3): simulates only the plan's
/// representative intervals, whole, and returns their IPCs weighted by
/// cluster size — faster per evaluation, but *noisy* relative to full
/// simulation.
#[derive(Debug)]
pub struct SimPointEvaluator {
    representatives: StudyEvaluator,
    plan: SimPointPlan,
}

impl SimPointEvaluator {
    /// Builds the SimPoint plan for `benchmark` (out-of-the-box settings,
    /// as the paper runs SimPoint) and wraps it as an evaluator.
    pub fn new(study: Study, benchmark: Benchmark, interval_len: usize, max_k: usize) -> Self {
        let plan = SimPointPlan::build(&TraceGenerator::new(benchmark), interval_len, max_k);
        let intervals = plan.points().iter().map(|p| p.interval).collect();
        let budget = SimBudget::whole_intervals(interval_len, intervals);
        Self {
            representatives: StudyEvaluator::with_budget(study, benchmark, budget),
            plan,
        }
    }

    /// The underlying SimPoint plan.
    pub fn plan(&self) -> &SimPointPlan {
        &self.plan
    }
}

impl PointEvaluator for SimPointEvaluator {
    fn evaluate(&self, point: &DesignPoint) -> f64 {
        self.plan
            .points()
            .iter()
            .zip(self.representatives.simulate_intervals(point))
            .map(|(p, r)| p.weight * r.ipc())
            .sum()
    }

    fn instructions_per_evaluation(&self) -> u64 {
        self.representatives.instructions_per_evaluation()
    }
}

/// Shard count for [`CachedEvaluator`] (power of two; indexed by the top
/// bits of a Fibonacci hash so consecutive point indices spread evenly).
const CACHE_SHARDS: usize = 16;

/// Sharded memoizing oracle: each design point is simulated at most once
/// per cache, batches are deduplicated before the fan-out, and the whole
/// cache persists to / preloads from plain CSV.
///
/// Experiments repeatedly touch the same points (learning curves reuse the
/// growing training set; evaluation sets are fixed); caching makes those
/// reuses free and keeps the simulation count honest. The cache is split
/// across `CACHE_SHARDS` independently-mutexed shards so parallel
/// lookups and inserts don't serialize on one lock.
///
/// # Exactly-once guarantee
///
/// Within one [`Oracle::evaluate_batch`] call, every unique index is
/// simulated **exactly once**, no matter how many duplicates the batch
/// contains or how many worker threads fan it out: duplicates are folded
/// before the fan-out, and workers own disjoint spans of the unique miss
/// list. Inserts are per-shard insert-once (`entry().or_insert`), so even
/// two *concurrent* batch calls racing on the same point leave a single
/// consistent entry (the simulator is deterministic, so both compute the
/// same value; at most one redundant simulation can happen across
/// concurrent batches, never within one).
#[derive(Debug)]
pub struct CachedEvaluator<E> {
    inner: E,
    space: DesignSpace,
    shards: Vec<Mutex<HashMap<usize, f64>>>,
    parallelism: Parallelism,
    hits: Counter,
}

impl<E: PointEvaluator> CachedEvaluator<E> {
    /// Wraps `inner`, memoizing by point index within `space`, fanning
    /// batch misses out per `Parallelism::Auto`.
    pub fn new(inner: E, space: DesignSpace) -> Self {
        Self::with_parallelism(inner, space, Parallelism::Auto)
    }

    /// [`CachedEvaluator::new`] with an explicit worker policy for the
    /// batch-miss fan-out. Results are identical for every setting.
    pub fn with_parallelism(inner: E, space: DesignSpace, parallelism: Parallelism) -> Self {
        Self {
            inner,
            space,
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            parallelism,
            hits: Counter::new("sim.cache.hits"),
        }
    }

    /// The shard holding `index`.
    fn shard(&self, index: usize) -> &Mutex<HashMap<usize, f64>> {
        // Fibonacci hashing: consecutive indices land on distinct shards.
        let h = (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(h >> 60) as usize % CACHE_SHARDS]
    }

    fn lookup(&self, index: usize) -> Option<f64> {
        self.shard(index)
            .lock()
            .expect("cache shard")
            .get(&index)
            .copied()
    }

    /// Inserts `value` for `index` unless a racing call got there first.
    fn insert_once(&self, index: usize, value: f64) {
        self.shard(index)
            .lock()
            .expect("cache shard")
            .entry(index)
            .or_insert(value);
    }

    /// Number of distinct points simulated (or preloaded) so far.
    pub fn unique_evaluations(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard").len())
            .sum()
    }

    /// Cumulative evaluations served without simulating, over the cache's
    /// lifetime.
    pub fn cache_hits(&self) -> u64 {
        self.hits.get()
    }

    /// Seeds the cache with previously computed results (e.g. loaded from
    /// disk by an experiment harness).
    pub fn preload(&self, entries: impl IntoIterator<Item = (usize, f64)>) {
        for (index, value) in entries {
            self.insert_once(index, value);
        }
    }

    /// Snapshot of all cached results, keyed by point index.
    pub fn snapshot(&self) -> HashMap<usize, f64> {
        let mut all = HashMap::with_capacity(self.unique_evaluations());
        for shard in &self.shards {
            all.extend(shard.lock().expect("cache shard").iter());
        }
        all
    }

    /// Writes every cached result to `path` as plain CSV
    /// (`index,value` rows under an `index,value` header, sorted by index
    /// so the file is deterministic). Values use Rust's shortest
    /// round-trip float formatting, so [`CachedEvaluator::load`] restores
    /// them bit-for-bit.
    pub fn persist(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut entries: Vec<(usize, f64)> = self.snapshot().into_iter().collect();
        entries.sort_unstable_by_key(|&(i, _)| i);
        let mut out = String::with_capacity(16 * entries.len() + 12);
        out.push_str("index,value\n");
        for (index, value) in entries {
            out.push_str(&format!("{index},{value}\n"));
        }
        // tmp + fsync + rename: a kill mid-write never tears the cache.
        write_atomic(path, &out)
    }

    /// Preloads the cache from a CSV written by
    /// [`CachedEvaluator::persist`]; returns how many entries were loaded.
    /// Unparsable lines (beyond the header) are skipped and logged, so a
    /// truncated file from an interrupted run loads whatever survived
    /// instead of aborting the study.
    pub fn load(&self, path: &Path) -> std::io::Result<usize> {
        let text = std::fs::read_to_string(path)?;
        let mut loaded = 0;
        let mut skipped = 0usize;
        for (number, line) in text.lines().enumerate() {
            if number == 0 && line.trim() == "index,value" {
                continue; // header
            }
            let parsed = line.split_once(',').and_then(|(index, value)| {
                match (index.trim().parse::<usize>(), value.trim().parse::<f64>()) {
                    (Ok(index), Ok(value)) => Some((index, value)),
                    _ => None,
                }
            });
            match parsed {
                Some((index, value)) => {
                    self.insert_once(index, value);
                    loaded += 1;
                }
                None => {
                    skipped += 1;
                    eprintln!(
                        "simcache {}: skipping malformed line {}: {line:?}",
                        path.display(),
                        number + 1
                    );
                }
            }
        }
        if skipped > 0 {
            eprintln!(
                "simcache {}: loaded {loaded} entries, skipped {skipped} malformed lines",
                path.display()
            );
        }
        Ok(loaded)
    }

    /// The wrapped evaluator.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Instructions one (uncached) evaluation simulates.
    pub fn instructions_per_evaluation(&self) -> u64 {
        self.inner.instructions_per_evaluation()
    }

    /// Point-at-a-time adapter through the cache, for callers holding a
    /// [`DesignPoint`] rather than an index: a one-index batch, so a hit,
    /// a miss and a panicking simulation are handled exactly as in
    /// [`Oracle::evaluate_batch`].
    pub fn evaluate(&self, point: &DesignPoint) -> SimResult {
        self.evaluate_index(&self.space, self.space.index(point))
    }
}

impl<E: PointEvaluator> Oracle for CachedEvaluator<E> {
    fn evaluate_batch(
        &self,
        space: &DesignSpace,
        indices: &[usize],
        stats: &mut SimStats,
    ) -> Vec<SimResult> {
        let started = Instant::now();
        let mut results = vec![Ok(0.0); indices.len()];
        // In-batch dedup: `misses` keeps unique uncached indices in first-
        // occurrence order; `pending` remembers which result slots each
        // miss must fill (first occurrence and all its duplicates).
        let mut miss_slot: HashMap<usize, usize> = HashMap::new();
        let mut misses: Vec<usize> = Vec::new();
        let mut pending: Vec<(usize, usize)> = Vec::new();
        for (slot, &index) in indices.iter().enumerate() {
            if let Some(&m) = miss_slot.get(&index) {
                pending.push((slot, m));
            } else if let Some(v) = self.lookup(index) {
                results[slot] = Ok(v);
            } else {
                let m = misses.len();
                miss_slot.insert(index, m);
                misses.push(index);
                pending.push((slot, m));
            }
        }
        // Simulate each unique miss exactly once, fanned out per the
        // cache's worker policy (deterministic at every thread count).
        // Only successes are cached: a transient fault must be
        // re-attemptable in a later batch, and errors must never be
        // served as hits.
        let values = fan_out(&self.inner, space, &misses, self.parallelism);
        for (&index, value) in misses.iter().zip(&values) {
            if let Ok(v) = value {
                self.insert_once(index, *v);
            }
        }
        for (slot, m) in pending {
            results[slot] = values[m];
        }
        let hits = (indices.len() - misses.len()) as u64;
        let failed = values.iter().filter(|r| r.is_err()).count() as u64;
        self.hits.add(hits);
        stats.unique_simulations += misses.len() as u64 - failed;
        stats.failures += failed;
        stats.cache_hits += hits;
        stats.simulated_instructions +=
            misses.len() as u64 * self.inner.instructions_per_evaluation();
        stats.wall_seconds += started.elapsed().as_secs_f64();
        results
    }
}

/// Bounded retry policy for [`RetryingOracle`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per index per batch (first try included). After
    /// this many retriable failures the index is quarantined.
    pub max_attempts: u32,
    /// Base of the exponential backoff schedule, in (virtual) seconds:
    /// attempt `k`'s backoff is `base × 2^(k-1) × jitter`.
    pub base_backoff_seconds: f64,
    /// Seed for the deterministic per-(index, attempt) backoff jitter.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_backoff_seconds: 0.05,
            seed: 0x5EED_BACC,
        }
    }
}

impl RetryPolicy {
    /// Deterministic jittered backoff (in seconds) charged before retry
    /// attempt `attempt` (≥ 2) of `index`: exponential in the attempt
    /// number with a seeded jitter factor in `[0.5, 1.5)`.
    pub fn backoff_seconds(&self, index: usize, attempt: u32) -> f64 {
        let jitter = 0.5
            + Xoshiro256::seed_from(self.seed)
                .derive(index as u64 + 1)
                .derive(attempt as u64)
                .next_f64();
        self.base_backoff_seconds * f64::from(1u32 << (attempt.saturating_sub(2)).min(20)) * jitter
    }
}

/// Retry/quarantine wrapper: turns a flaky [`Oracle`] into one that
/// re-attempts retriable failures a bounded number of times and
/// permanently quarantines indices that never succeed.
///
/// * Retries re-batch all still-failing indices, so the inner oracle's
///   batch fan-out (and its determinism contract) applies to retries too.
/// * Backoff is **accounted, not slept**: this workspace's backends fail
///   deterministically, so sleeping would only slow tests. The schedule a
///   production deployment would sleep is accumulated in
///   [`RetryingOracle::virtual_backoff_seconds`], deterministically
///   seeded per (index, attempt).
/// * Quarantined indices short-circuit to [`SimError::Quarantined`] on
///   later batches without touching the inner oracle. The set lives as
///   long as the oracle: a replay of a killed run starts from an empty
///   quarantine and, since failures here are a pure function of
///   (index, attempt), quarantines and counts the same points the run
///   did.
///
/// Telemetry: `stats.retries` counts re-attempts issued here and
/// `stats.quarantined` counts indices given up on; `stats.failures` is
/// counted by whoever originates the errors (the inner oracle).
#[derive(Debug)]
pub struct RetryingOracle<O> {
    inner: O,
    policy: RetryPolicy,
    quarantine: Mutex<BTreeSet<usize>>,
    backoff_nanos: Counter,
}

impl<O: Oracle> RetryingOracle<O> {
    /// Wraps `inner` with the default [`RetryPolicy`].
    pub fn new(inner: O) -> Self {
        Self::with_policy(inner, RetryPolicy::default())
    }

    /// Wraps `inner` with an explicit policy.
    pub fn with_policy(inner: O, policy: RetryPolicy) -> Self {
        Self {
            inner,
            policy,
            quarantine: Mutex::new(BTreeSet::new()),
            backoff_nanos: Counter::new("sim.retry.virtual_backoff_nanos"),
        }
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// The retry policy in force.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Snapshot of the quarantined indices, sorted.
    pub fn quarantined(&self) -> Vec<usize> {
        self.quarantine
            .lock()
            .expect("quarantine lock")
            .iter()
            .copied()
            .collect()
    }

    /// Total backoff the retry schedule *would* have slept, in seconds.
    pub fn virtual_backoff_seconds(&self) -> f64 {
        self.backoff_nanos.get() as f64 * 1e-9
    }
}

impl<O: Oracle> Oracle for RetryingOracle<O> {
    fn evaluate_batch(
        &self,
        space: &DesignSpace,
        indices: &[usize],
        stats: &mut SimStats,
    ) -> Vec<SimResult> {
        let mut results: Vec<SimResult> = vec![Err(SimError::Quarantined); indices.len()];
        // Quarantined indices short-circuit without touching the inner
        // oracle (and without counting as fresh failures).
        let mut live: Vec<(usize, usize)> = {
            let q = self.quarantine.lock().expect("quarantine lock");
            indices
                .iter()
                .enumerate()
                .filter(|&(_, index)| !q.contains(index))
                .map(|(slot, &index)| (slot, index))
                .collect()
        };
        let mut backoff = 0.0f64;
        for attempt in 1..=self.policy.max_attempts.max(1) {
            if live.is_empty() {
                break;
            }
            let batch: Vec<usize> = live.iter().map(|&(_, index)| index).collect();
            let outcomes = self.inner.evaluate_batch(space, &batch, stats);
            let mut next: Vec<(usize, usize)> = Vec::new();
            for (&(slot, index), outcome) in live.iter().zip(&outcomes) {
                match *outcome {
                    Ok(v) => results[slot] = Ok(v),
                    Err(e) if e.is_retriable() && attempt < self.policy.max_attempts => {
                        backoff += self.policy.backoff_seconds(index, attempt + 1);
                        next.push((slot, index));
                    }
                    Err(e) => {
                        results[slot] = Err(e);
                        // `insert` dedups: a batch with duplicate copies of
                        // a permanently failing index quarantines it once.
                        if self
                            .quarantine
                            .lock()
                            .expect("quarantine lock")
                            .insert(index)
                        {
                            stats.quarantined += 1;
                        }
                    }
                }
            }
            stats.retries += next.len() as u64;
            live = next;
        }
        self.backoff_nanos.add((backoff * 1e9) as u64);
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct CountingEvaluator {
        calls: AtomicUsize,
    }

    impl CountingEvaluator {
        fn new() -> Self {
            Self {
                calls: AtomicUsize::new(0),
            }
        }
    }

    impl PointEvaluator for CountingEvaluator {
        fn evaluate(&self, point: &DesignPoint) -> f64 {
            self.calls.fetch_add(1, Ordering::SeqCst);
            point.0.iter().sum::<usize>() as f64 + 1.0
        }
        fn instructions_per_evaluation(&self) -> u64 {
            100
        }
    }

    #[test]
    fn cached_evaluator_simulates_each_point_once() {
        let space = Study::MemorySystem.space();
        let cached = CachedEvaluator::new(CountingEvaluator::new(), space.clone());
        let p = space.point(17);
        let a = cached.evaluate(&p);
        let b = cached.evaluate(&p);
        assert_eq!(a, b);
        assert_eq!(cached.inner().calls.load(Ordering::SeqCst), 1);
        assert_eq!(cached.unique_evaluations(), 1);
        assert_eq!(cached.cache_hits(), 1);
        cached.evaluate(&space.point(18)).expect("fault-free");
        assert_eq!(cached.unique_evaluations(), 2);
    }

    #[test]
    fn batch_matches_sequential() {
        let space = Study::MemorySystem.space();
        let evaluator = CountingEvaluator::new();
        let indices: Vec<usize> = (0..40).map(|i| i * 13).collect();
        let mut stats = SimStats::default();
        let batch: Vec<f64> = evaluator
            .evaluate_batch(&space, &indices, &mut stats)
            .into_iter()
            .map(|r| r.expect("no faults"))
            .collect();
        let sequential: Vec<f64> = indices
            .iter()
            .map(|&i| evaluator.evaluate(&space.point(i)))
            .collect();
        assert_eq!(batch, sequential);
        assert_eq!(stats.unique_simulations, 40);
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.simulated_instructions, 4_000);
        assert!(stats.wall_seconds >= 0.0);
    }

    #[test]
    fn parallel_batch_with_duplicates_simulates_each_unique_index_exactly_once() {
        let space = Study::MemorySystem.space();
        // Force a genuinely parallel fan-out regardless of host cores.
        let cached = CachedEvaluator::with_parallelism(
            CountingEvaluator::new(),
            space.clone(),
            Parallelism::Fixed(4),
        );
        // 20 unique indices, each appearing 3 times, interleaved so
        // duplicates land in different worker spans.
        let unique: Vec<usize> = (0..20).map(|i| i * 7).collect();
        let mut indices = Vec::new();
        for round in 0..3 {
            for &i in &unique {
                indices.push(i);
                let _ = round;
            }
        }
        let mut stats = SimStats::default();
        let results = cached.evaluate_batch(&space, &indices, &mut stats);
        // Exactly once per unique index, despite duplicates + 4 threads.
        assert_eq!(cached.inner().calls.load(Ordering::SeqCst), 20);
        assert_eq!(cached.unique_evaluations(), 20);
        assert_eq!(stats.unique_simulations, 20);
        assert_eq!(stats.cache_hits, 40);
        assert_eq!(stats.evaluations(), indices.len() as u64);
        assert_eq!(stats.simulated_instructions, 2_000);
        // Every occurrence of an index got the same (correct) value.
        for (&i, v) in indices.iter().zip(&results) {
            assert_eq!(*v, Ok(space.point(i).0.iter().sum::<usize>() as f64 + 1.0));
        }
        // A second batch over the same points is pure cache hits.
        let mut stats2 = SimStats::default();
        let again = cached.evaluate_batch(&space, &unique, &mut stats2);
        assert_eq!(cached.inner().calls.load(Ordering::SeqCst), 20);
        assert_eq!(stats2.unique_simulations, 0);
        assert_eq!(stats2.cache_hits, 20);
        assert_eq!(&results[..20], &again[..]);
    }

    #[test]
    fn batch_results_identical_at_every_parallelism() {
        let space = Study::MemorySystem.space();
        let generator = TraceGenerator::new(Benchmark::Gzip);
        let budget = SimBudget::spread(&generator, 2, 2_000, 4_000);
        let indices: Vec<usize> = (0..23).map(|i| i * 101).collect();
        let run = |parallelism| {
            let cached = CachedEvaluator::with_parallelism(
                StudyEvaluator::with_budget(Study::MemorySystem, Benchmark::Gzip, budget.clone()),
                space.clone(),
                parallelism,
            );
            let mut stats = SimStats::default();
            cached.evaluate_batch(&space, &indices, &mut stats)
        };
        let reference = run(Parallelism::Fixed(1));
        for parallelism in [Parallelism::Fixed(4), Parallelism::Auto] {
            assert_eq!(reference, run(parallelism), "{parallelism:?}");
        }
        // The raw (uncached) fan-out honors the same contract.
        let evaluator =
            StudyEvaluator::with_budget(Study::MemorySystem, Benchmark::Gzip, budget.clone());
        let raw = |parallelism| {
            let mut stats = SimStats::default();
            evaluate_indices(&evaluator, &space, &indices, parallelism, &mut stats)
        };
        let raw_reference = raw(Parallelism::Fixed(1));
        assert_eq!(raw_reference, reference);
        for parallelism in [Parallelism::Fixed(4), Parallelism::Auto] {
            assert_eq!(raw_reference, raw(parallelism), "raw {parallelism:?}");
        }
    }

    /// A simulator that panics at one design point, the way the engine's
    /// deadlock watchdog does.
    struct PanickingEvaluator {
        inner: StudyEvaluator,
        panic_at: usize,
    }

    impl PointEvaluator for PanickingEvaluator {
        fn evaluate(&self, point: &DesignPoint) -> f64 {
            let index = self.inner.space().index(point);
            assert_ne!(index, self.panic_at, "simulated deadlock at {index}");
            self.inner.evaluate(point)
        }
        fn instructions_per_evaluation(&self) -> u64 {
            self.inner.instructions_per_evaluation()
        }
    }

    #[test]
    fn panicking_simulation_fails_only_its_own_index() {
        let space = Study::MemorySystem.space();
        let generator = TraceGenerator::new(Benchmark::Gzip);
        let budget = SimBudget::spread(&generator, 2, 2_000, 4_000);
        let evaluator = || PanickingEvaluator {
            inner: StudyEvaluator::with_budget(
                Study::MemorySystem,
                Benchmark::Gzip,
                budget.clone(),
            ),
            panic_at: 505,
        };
        let indices: Vec<usize> = (0..12).map(|i| i * 101).collect();
        let crash = indices.iter().position(|&i| i == 505).expect("in batch");
        let bits = |results: &[SimResult]| -> Vec<Result<u64, SimError>> {
            results.iter().map(|r| r.map(f64::to_bits)).collect()
        };
        let batchmates =
            |results: &[SimResult]| bits(&[&results[..crash], &results[crash + 1..]].concat());
        let survivors: Vec<usize> = indices.iter().copied().filter(|&i| i != 505).collect();
        let clean = bits(&evaluate_indices(
            &evaluator(),
            &space,
            &survivors,
            Parallelism::Fixed(1),
            &mut SimStats::default(),
        ));
        for parallelism in [Parallelism::Fixed(1), Parallelism::Fixed(4)] {
            let mut stats = SimStats::default();
            let raw = evaluate_indices(&evaluator(), &space, &indices, parallelism, &mut stats);
            assert_eq!(raw[crash], Err(SimError::Crashed), "{parallelism:?}");
            assert_eq!(batchmates(&raw), clean, "raw {parallelism:?}");
            assert_eq!(stats.failures, 1);

            // Crashed is retriable and never cached, so a deterministic
            // panic exhausts its retries and is quarantined.
            let oracle = RetryingOracle::new(CachedEvaluator::with_parallelism(
                evaluator(),
                space.clone(),
                parallelism,
            ));
            let mut stats = SimStats::default();
            let first = oracle.evaluate_batch(&space, &indices, &mut stats);
            assert_eq!(first[crash], Err(SimError::Crashed), "{parallelism:?}");
            assert_eq!(batchmates(&first), clean, "first {parallelism:?}");
            assert_eq!((stats.failures, stats.retries), (3, 2));
            assert_eq!(oracle.quarantined(), vec![505]);
            let second = oracle.evaluate_batch(&space, &indices, &mut stats);
            assert_eq!(second[crash], Err(SimError::Quarantined), "{parallelism:?}");
            assert_eq!(batchmates(&second), clean, "second {parallelism:?}");
            assert_eq!(oracle.quarantined(), vec![505]);
        }

        // The point-at-a-time adapter runs through the same fan-out.
        let cached = CachedEvaluator::new(evaluator(), space.clone());
        assert_eq!(cached.evaluate(&space.point(505)), Err(SimError::Crashed));
    }

    #[test]
    fn persist_and_load_round_trip() {
        let space = Study::MemorySystem.space();
        let cached = CachedEvaluator::new(CountingEvaluator::new(), space.clone());
        let indices: Vec<usize> = (0..30).map(|i| i * 17 + 3).collect();
        let mut stats = SimStats::default();
        let original = cached.evaluate_batch(&space, &indices, &mut stats);
        let path = std::env::temp_dir().join(format!(
            "archpredict_simcache_roundtrip_{}.csv",
            std::process::id()
        ));
        cached.persist(&path).expect("persist cache");

        let resumed = CachedEvaluator::new(CountingEvaluator::new(), space.clone());
        let loaded = resumed.load(&path).expect("load cache");
        assert_eq!(loaded, 30);
        assert_eq!(resumed.unique_evaluations(), 30);
        // Every resumed value is bit-for-bit the original, with zero
        // fresh simulation.
        let mut stats2 = SimStats::default();
        let values = resumed.evaluate_batch(&space, &indices, &mut stats2);
        assert_eq!(values, original);
        assert_eq!(resumed.inner().calls.load(Ordering::SeqCst), 0);
        assert_eq!(stats2.unique_simulations, 0);
        assert_eq!(stats2.cache_hits, 30);
        assert_eq!(resumed.snapshot(), cached.snapshot());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_skips_malformed_lines() {
        let space = Study::MemorySystem.space();
        let path = std::env::temp_dir().join(format!(
            "archpredict_simcache_malformed_{}.csv",
            std::process::id()
        ));
        std::fs::write(&path, "index,value\n5,1.25\nnot a row\n9,oops\n7,2.5\n").unwrap();
        let cached = CachedEvaluator::new(CountingEvaluator::new(), space.clone());
        assert_eq!(cached.load(&path).expect("load"), 2);
        assert_eq!(cached.unique_evaluations(), 2);
        assert_eq!(cached.evaluate_index(&space, 5), Ok(1.25));
        assert_eq!(cached.evaluate_index(&space, 7), Ok(2.5));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = SimStats {
            unique_simulations: 3,
            cache_hits: 2,
            simulated_instructions: 300,
            wall_seconds: 0.5,
            failures: 1,
            retries: 2,
            quarantined: 1,
            resampled: 1,
        };
        a.merge(&SimStats {
            unique_simulations: 1,
            cache_hits: 4,
            simulated_instructions: 100,
            wall_seconds: 0.25,
            failures: 2,
            retries: 1,
            quarantined: 0,
            resampled: 3,
        });
        assert_eq!(a.unique_simulations, 4);
        assert_eq!(a.cache_hits, 6);
        assert_eq!(a.evaluations(), 10);
        assert_eq!(a.simulated_instructions, 400);
        assert!((a.wall_seconds - 0.75).abs() < 1e-12);
        assert_eq!(
            (a.failures, a.retries, a.quarantined, a.resampled),
            (3, 3, 1, 4)
        );
    }

    /// Field-coverage gate for [`SimStats::merge`]: every field is given a
    /// distinct value and every field of the result is checked through an
    /// exhaustive destructuring. Adding a [`SimStats`] field without
    /// merging it fails to compile here (and in `merge` itself) before it
    /// can silently drop telemetry.
    #[test]
    fn stats_merge_covers_every_field() {
        let lhs = SimStats {
            unique_simulations: 1,
            cache_hits: 2,
            simulated_instructions: 4,
            wall_seconds: 8.0,
            failures: 16,
            retries: 32,
            quarantined: 64,
            resampled: 128,
        };
        let rhs = SimStats {
            unique_simulations: 256,
            cache_hits: 512,
            simulated_instructions: 1024,
            wall_seconds: 2048.0,
            failures: 4096,
            retries: 8192,
            quarantined: 16384,
            resampled: 32768,
        };
        let mut merged = lhs;
        merged.merge(&rhs);
        // Exhaustive: a new field must appear here or this stops compiling.
        let SimStats {
            unique_simulations,
            cache_hits,
            simulated_instructions,
            wall_seconds,
            failures,
            retries,
            quarantined,
            resampled,
        } = merged;
        assert_eq!(unique_simulations, 1 + 256);
        assert_eq!(cache_hits, 2 + 512);
        assert_eq!(simulated_instructions, 4 + 1024);
        assert!((wall_seconds - (8.0 + 2048.0)).abs() < 1e-12);
        assert_eq!(failures, 16 + 4096);
        assert_eq!(retries, 32 + 8192);
        assert_eq!(quarantined, 64 + 16384);
        assert_eq!(resampled, 128 + 32768);
    }

    #[test]
    fn study_evaluator_is_deterministic_and_positive() {
        let generator = TraceGenerator::new(Benchmark::Gzip);
        let evaluator = StudyEvaluator::with_budget(
            Study::MemorySystem,
            Benchmark::Gzip,
            SimBudget::quick(&generator),
        );
        let p = evaluator.space().point(100);
        let a = evaluator.evaluate(&p);
        let b = evaluator.evaluate(&p);
        assert_eq!(a, b);
        assert!(a > 0.0 && a < 4.0, "ipc {a}");
    }

    #[test]
    fn study_evaluator_packs_once_and_replays_the_live_result() {
        let generator = TraceGenerator::new(Benchmark::Crafty);
        let budget = SimBudget::spread(&generator, 2, 1_000, 2_000);
        let evaluator =
            StudyEvaluator::with_budget(Study::Processor, Benchmark::Crafty, budget.clone());
        let space = evaluator.space();
        for index in [0, 7_777, space.size() - 1] {
            let point = space.point(index);
            let config = Study::Processor.config_at(space, &point);
            let live: f64 = budget
                .intervals
                .iter()
                .map(|&i| simulate_with_warmup(&config, generator.interval(i), 1_000, 2_000).ipc())
                .sum();
            assert_eq!(evaluator.evaluate(&point), live / 2.0, "point {index}");
        }
        let traces = evaluator.traces();
        assert!(std::ptr::eq(traces, evaluator.traces()), "packed once");
        assert_eq!(traces.len(), 2);
        // Width 8 and a 160-entry ROB: 160 + (2 * 8 + 8) + 1 look-ahead.
        assert!(traces.iter().all(|t| t.len() == 3_000 + 185));
    }

    #[test]
    fn replay_past_a_short_buffer_simulates_identically() {
        let generator = TraceGenerator::new(Benchmark::Gzip);
        let config = archpredict_sim::SimConfig::default();
        let live = simulate_with_warmup(&config, generator.interval(4), 500, 1_500);
        // Far too short: the engine reads past the buffer into the live
        // generator after 300 instructions.
        let packed = PackedInterval::new(&generator, 4, 300);
        let replayed = simulate_with_warmup(&config, packed.replay(&generator), 500, 1_500);
        assert_eq!(replayed, live);
    }

    #[test]
    fn largest_point_bounds_every_lookahead() {
        for study in Study::ALL {
            let space = study.space();
            let largest = lookahead(&study.config_at(&space, &space.point(space.size() - 1)));
            assert!(
                space
                    .iter()
                    .all(|p| lookahead(&study.config_at(&space, &p)) <= largest),
                "{study}"
            );
        }
    }

    #[test]
    fn study_evaluator_distinguishes_configurations() {
        let generator = TraceGenerator::new(Benchmark::Twolf);
        let evaluator = StudyEvaluator::with_budget(
            Study::MemorySystem,
            Benchmark::Twolf,
            SimBudget::quick(&generator),
        );
        let space = evaluator.space();
        // Extremes of the space should differ measurably.
        let low = evaluator.evaluate(&space.point(0));
        let high = evaluator.evaluate(&space.point(space.size() - 1));
        assert!(
            (low - high).abs() / high > 0.02,
            "extremes too similar: {low} vs {high}"
        );
    }

    #[test]
    fn simpoint_evaluator_tracks_full_evaluator() {
        let benchmark = Benchmark::Mgrid;
        let generator = TraceGenerator::new(benchmark);
        let interval_len = 4000;
        // Full reference: every interval.
        let full = StudyEvaluator::with_budget(
            Study::Processor,
            benchmark,
            SimBudget::whole_intervals(interval_len, (0..generator.num_intervals()).collect()),
        );
        let sp = SimPointEvaluator::new(Study::Processor, benchmark, interval_len, 10);
        let space = full.space();
        let p = space.point(4321);
        let f = full.evaluate(&p);
        let e = sp.evaluate(&p);
        let err = (f - e).abs() / f;
        assert!(
            err < 0.12,
            "simpoint {e:.4} vs full {f:.4} ({:.1}%)",
            err * 100.0
        );
        assert!(sp.instructions_per_evaluation() < full.instructions_per_evaluation());
    }

    #[test]
    fn budget_spread_covers_schedule() {
        let generator = TraceGenerator::new(Benchmark::Mesa);
        let budget = SimBudget::spread(&generator, 4, 1000, 2000);
        assert_eq!(budget.intervals.len(), 4);
        assert_eq!(budget.instructions(), 12_000);
        let n = generator.num_intervals();
        assert!(budget.intervals.iter().all(|&i| i < n));
        assert!(budget.intervals.windows(2).all(|w| w[0] < w[1]));
    }

    /// An oracle that fails each index's first `failures_of(index)`
    /// attempts with `Transient`, then succeeds with `index as f64`.
    struct FlakyOracle {
        attempts: Mutex<HashMap<usize, u32>>,
        failures_of: fn(usize) -> u32,
    }

    impl FlakyOracle {
        fn new(failures_of: fn(usize) -> u32) -> Self {
            Self {
                attempts: Mutex::new(HashMap::new()),
                failures_of,
            }
        }
    }

    impl Oracle for FlakyOracle {
        fn evaluate_batch(
            &self,
            _space: &DesignSpace,
            indices: &[usize],
            stats: &mut SimStats,
        ) -> Vec<SimResult> {
            let mut attempts = self.attempts.lock().unwrap();
            indices
                .iter()
                .map(|&index| {
                    let n = attempts.entry(index).or_insert(0);
                    *n += 1;
                    if *n <= (self.failures_of)(index) {
                        stats.failures += 1;
                        Err(SimError::Transient)
                    } else {
                        stats.unique_simulations += 1;
                        Ok(index as f64)
                    }
                })
                .collect()
        }
    }

    #[test]
    fn retrying_oracle_recovers_transient_failures_and_quarantines_the_rest() {
        let space = Study::MemorySystem.space();
        // Index 3 fails once, index 7 twice, index 11 always; the rest
        // succeed immediately.
        let flaky = FlakyOracle::new(|i| match i {
            3 => 1,
            7 => 2,
            11 => u32::MAX,
            _ => 0,
        });
        let oracle = RetryingOracle::new(flaky); // max_attempts = 3
        let mut stats = SimStats::default();
        let results = oracle.evaluate_batch(&space, &[1, 3, 7, 11, 2], &mut stats);
        assert_eq!(results[0], Ok(1.0));
        assert_eq!(results[1], Ok(3.0)); // recovered after 1 retry
        assert_eq!(results[2], Ok(7.0)); // recovered after 2 retries
        assert_eq!(results[3], Err(SimError::Transient));
        assert_eq!(results[4], Ok(2.0));
        assert_eq!(stats.retries, 5); // 3→1, 7→2, 11→2 (then exhausted)
        assert_eq!(stats.failures, 6); // 3×1 + 7×2 + 11×3
        assert_eq!(stats.quarantined, 1);
        assert_eq!(oracle.quarantined(), vec![11]);
        assert!(oracle.virtual_backoff_seconds() > 0.0);

        // A later batch short-circuits the quarantined index without
        // touching the inner oracle again.
        let mut stats2 = SimStats::default();
        let again = oracle.evaluate_batch(&space, &[11, 4], &mut stats2);
        assert_eq!(again[0], Err(SimError::Quarantined));
        assert_eq!(again[1], Ok(4.0));
        assert_eq!(stats2.failures, 0);
        assert_eq!(stats2.quarantined, 0);
        assert_eq!(oracle.inner().attempts.lock().unwrap().get(&11), Some(&3));
    }

    #[test]
    fn non_finite_results_are_not_retried() {
        struct GarbageEvaluator;
        impl PointEvaluator for GarbageEvaluator {
            fn evaluate(&self, point: &DesignPoint) -> f64 {
                if point.0.iter().sum::<usize>() == 0 {
                    f64::NAN
                } else {
                    1.0
                }
            }
            fn instructions_per_evaluation(&self) -> u64 {
                10
            }
        }
        let space = Study::MemorySystem.space();
        let oracle = RetryingOracle::new(GarbageEvaluator);
        let mut stats = SimStats::default();
        let results = oracle.evaluate_batch(&space, &[0, 5], &mut stats);
        assert_eq!(results[0], Err(SimError::NonFinite));
        assert_eq!(results[1], Ok(1.0));
        // NonFinite is permanent: no retry, straight to quarantine.
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.quarantined, 1);
        assert_eq!(oracle.quarantined(), vec![0]);
    }
}
