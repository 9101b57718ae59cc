//! The on-disk model registry: warm ensembles keyed by what produced them.
//!
//! Every driver used to refit its ensemble from scratch on each
//! invocation even though the artifacts round-trip through JSON exactly.
//! The registry closes that loop: a [`ModelKey`] — `(study, encoder, app,
//! seed, budget)` — names one training run's outcome, and
//! [`Registry::get_or_fit`] either loads the persisted artifact (zero
//! fits, zero simulations) or runs the caller's fit exactly once and
//! persists the result for every future caller.
//!
//! # On-disk layout
//!
//! ```text
//! <root>/
//!   entries/<slug>.json    one index record per key
//!   objects/<hash>.json    content-addressed model artifacts
//!   leases/<slug>.lock     cross-process fit leases
//! ```
//!
//! Artifacts are the versioned-header serializations of
//! [`Ensemble`]/[`MultiTrainedModel`] (format version + space/encoder
//! fingerprint), named by the FNV-1a hash of their bytes. Each entry
//! file maps one key to its object name and carries a caller-defined
//! JSON payload (figure bins store their learning-curve rows there, so a
//! warm re-run reconstructs the whole curve without simulating).
//!
//! # Crash safety and concurrency
//!
//! The index is **one file per key**, not a monolithic manifest: a
//! commit is two independent atomic writes (object, then entry — both
//! through [`persist::write_atomic`]) and never a read-modify-write of
//! shared state. Concurrent commits of different keys touch different
//! files and cannot clobber each other *by construction*; concurrent
//! commits of the same key are deterministic duplicates (same key ⇒
//! bit-identical artifact), so last-writer-wins is also correct. The
//! commit order — object first, entry second — means a kill between the
//! two leaves an orphan object (harmless, unreferenced); an entry never
//! references a torn or missing artifact. Loads still verify the
//! object's content hash against the entry before trusting it.
//!
//! Fit *deduplication* is layered on top. Within a process, a per-key
//! mutex collapses concurrent `get_or_fit` calls into exactly one fit
//! (the losers block, then load warm). Across processes, an exclusive OS
//! file lock ([`std::fs::File::try_lock`]) on `leases/<slug>.lock`
//! serializes fitters per key. The holder keeps the file open for the
//! fit; closing it releases the lock, and so does the kernel when the
//! holder dies, so a crashed fitter leaves no lease behind for anyone to
//! steal. Lock files are empty, one per key like `entries/`, and never
//! deleted: unlinking one while another process waits on it would let
//! two processes lock two different inodes. Correctness still rests on
//! the commit structure above, not on the lease, which only saves
//! duplicate fits.
//!
//! Crashed writers leave torn temps that are inert by construction but
//! accumulate forever. [`Registry::open`] sweeps them, removing only
//! files whose embedded writer pid is dead (live writers are never
//! swept). The commit and lease paths also carry [`crate::failpoint`]
//! sites ([`FP_COMMIT_OBJECT`], [`FP_COMMIT_ENTRY`], [`FP_LEASE_ACQUIRE`]) so
//! chaos schedules can inject I/O failures at the exact points the
//! crash-safety argument hinges on.

use crate::campaign::{Campaign, CampaignConfig, Encoder, PlainEncoder};
use crate::failpoint;
use crate::persist;
use crate::sampling::Strategy;
use crate::simulate::{CachedEvaluator, SimBudget, StudyEvaluator};
use crate::studies::Study;
use crate::telemetry::{self, Counter};
use archpredict_ann::{Ensemble, MultiTrainedModel};
use archpredict_stats::hash::fnv1a_64;
use archpredict_stats::json::{JsonError, Value};
use archpredict_workloads::{Benchmark, TraceGenerator};
use std::collections::HashMap;
use std::fs::{File, TryLockError};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// How long a writer waits on another process's lease before giving up
/// (a fit can legitimately take minutes; a poll is cheap).
const LEASE_WAIT: Duration = Duration::from_secs(600);
/// Lease poll interval.
const LEASE_POLL: Duration = Duration::from_millis(50);

/// Failpoint site evaluated at the top of a commit, before the object
/// write: firing fails the commit with nothing durable on disk.
pub const FP_COMMIT_OBJECT: &str = "registry.commit.object";
/// Failpoint site evaluated between the commit's two atomic writes —
/// the "kill -9 after the object, before the entry" shape: the object
/// is durable but unreferenced, the entry untouched, and the next
/// reader sees a clean miss.
pub const FP_COMMIT_ENTRY: &str = "registry.commit.entry";
/// Failpoint site evaluated on lease acquisition (before the lock file
/// is opened); firing fails `get_or_fit` with an I/O error.
pub const FP_LEASE_ACQUIRE: &str = "registry.lease.acquire";

/// What produced a model: the coordinates of one training run.
///
/// Two runs with equal keys produce bit-identical artifacts (the whole
/// pipeline is deterministic in the seed), so the key is also the cache
/// identity. The `encoder` string names the feature encoding *and* any
/// training-pipeline variant that changes the artifact — `"plain"`,
/// `"plain-qbc4"` (active learning, pool factor 4), `"plain-quick"`
/// (quick simulation budget), `"plain-simpoint"`, …
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModelKey {
    /// Study name (`"memory"` / `"processor"` / a caller-defined space).
    pub study: String,
    /// Encoding + pipeline variant (see type docs).
    pub encoder: String,
    /// Application/benchmark name.
    pub app: String,
    /// Master seed of the campaign.
    pub seed: u64,
    /// Sample budget (the campaign's `max_samples`).
    pub budget: usize,
}

impl ModelKey {
    /// Builds a key, taking anything string-like for the text fields.
    pub fn new(
        study: impl Into<String>,
        encoder: impl Into<String>,
        app: impl Into<String>,
        seed: u64,
        budget: usize,
    ) -> Self {
        Self {
            study: study.into(),
            encoder: encoder.into(),
            app: app.into(),
            seed,
            budget,
        }
    }

    /// Filesystem-safe identity: lowercased fields with anything outside
    /// `[a-z0-9._-]` mapped to `_`, joined with the seed (hex) and budget.
    pub fn slug(&self) -> String {
        fn clean(s: &str) -> String {
            s.chars()
                .map(|c| match c.to_ascii_lowercase() {
                    c @ ('a'..='z' | '0'..='9' | '.' | '-') => c,
                    _ => '_',
                })
                .collect()
        }
        format!(
            "{}-{}-{}-{:016x}-{}",
            clean(&self.study),
            clean(&self.encoder),
            clean(&self.app),
            self.seed,
            self.budget
        )
    }
}

impl std::fmt::Display for ModelKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{}/{} seed={:#x} budget={}",
            self.study, self.encoder, self.app, self.seed, self.budget
        )
    }
}

/// Errors from registry operations.
#[derive(Debug)]
pub enum RegistryError {
    /// Filesystem trouble (unreadable entry, failed persist, …).
    Io(std::io::Error),
    /// An on-disk structure exists but cannot be trusted: unparsable
    /// entry, object bytes that don't match their recorded hash, a
    /// model that fails to deserialize, two keys colliding on one slug.
    Corrupt(String),
    /// The artifact exists but was produced for a different space,
    /// encoding, or format era — refitting is required, silently
    /// mispredicting is not an option.
    Incompatible(String),
    /// Another process held the key's write lease past the wait budget.
    LeaseHeld {
        /// The contended key.
        key: ModelKey,
    },
    /// The caller's fit failed (campaign error, degenerate data, …).
    Fit(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Io(e) => write!(f, "registry I/O error: {e}"),
            RegistryError::Corrupt(msg) => write!(f, "registry corrupt: {msg}"),
            RegistryError::Incompatible(msg) => write!(f, "registry artifact incompatible: {msg}"),
            RegistryError::LeaseHeld { key } => write!(
                f,
                "write lease for {key} held by another process past the wait budget"
            ),
            RegistryError::Fit(msg) => write!(f, "fit failed: {msg}"),
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<std::io::Error> for RegistryError {
    fn from(e: std::io::Error) -> Self {
        RegistryError::Io(e)
    }
}

/// A model loaded or fitted through the registry.
#[derive(Debug, Clone)]
pub struct FitOutcome<M> {
    /// The model (an [`Ensemble`] or [`MultiTrainedModel`]).
    pub model: M,
    /// The caller-defined payload persisted alongside it
    /// ([`Value::Null`] when the fit stored none).
    pub payload: Value,
    /// `true` when the artifact came off disk — zero fits and zero
    /// simulations were performed by this call.
    pub warm: bool,
}

/// A campaign-driven fit specification for the paper's studies — the
/// stack assembly (space, oracle, campaign) that every binary used to
/// copy-paste, now behind [`Registry::get_or_fit_study`].
#[derive(Debug, Clone, PartialEq)]
pub struct StudyFitSpec {
    /// Which study's space to model.
    pub study: Study,
    /// Which application to model.
    pub benchmark: Benchmark,
    /// Campaign policy (`seed` and `max_samples` become key fields).
    pub config: CampaignConfig,
    /// Use the quick simulation budget ([`SimBudget::quick`]) instead of
    /// the evaluator's standard budget — for tests and smoke gates; the
    /// variant is part of the key, so quick and standard artifacts never
    /// alias.
    pub quick: bool,
}

impl StudyFitSpec {
    /// A standard-budget spec with the given campaign policy.
    pub fn new(study: Study, benchmark: Benchmark, config: CampaignConfig) -> Self {
        Self {
            study,
            benchmark,
            config,
            quick: false,
        }
    }

    /// The encoder/pipeline-variant string this spec trains under.
    pub fn encoder_name(&self) -> String {
        let mut name = String::from("plain");
        if let Strategy::Active { pool_factor } = self.config.strategy {
            name.push_str(&format!("-qbc{pool_factor}"));
        }
        if self.quick {
            name.push_str("-quick");
        }
        name
    }

    /// The registry key this spec resolves to.
    pub fn key(&self) -> ModelKey {
        ModelKey::new(
            self.study.name(),
            self.encoder_name(),
            self.benchmark.name(),
            self.config.seed,
            self.config.max_samples,
        )
    }

    /// The space/encoder fingerprint artifacts are stamped with.
    pub fn fingerprint(&self) -> u64 {
        PlainEncoder.fingerprint(&self.study.space())
    }
}

/// In-process per-key fit locks, shared by every `Registry` instance so
/// two handles onto the same directory still serialize their fits.
fn key_lock(root: &Path, slug: &str) -> Arc<Mutex<()>> {
    type LockMap = Mutex<HashMap<(PathBuf, String), Arc<Mutex<()>>>>;
    static LOCKS: OnceLock<LockMap> = OnceLock::new();
    let mut map = LOCKS
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .expect("key-lock map poisoned");
    map.entry((root.to_path_buf(), slug.to_owned()))
        .or_default()
        .clone()
}

/// The writer pid of a [`persist`] temp named `<name>.<pid>.<seq>.tmp`,
/// `None` for any other file.
fn classify_debris(name: &str) -> Option<u32> {
    let mut parts = name.strip_suffix(".tmp")?.rsplit('.');
    parts.next()?.parse::<u64>().ok()?;
    parts.next()?.parse().ok()
}

/// The on-disk artifact store (see module docs for layout and
/// guarantees).
#[derive(Debug)]
pub struct Registry {
    root: PathBuf,
    /// Fits this instance actually performed (warm loads excluded) — the
    /// telemetry the zero-fit warm-rerun gates assert on. Mirrored into
    /// the process-wide `registry.fits` counter.
    fits: Counter,
}

/// One index record (internal representation of an entry file).
#[derive(Debug, Clone)]
struct Entry {
    key: ModelKey,
    kind: &'static str,
    fingerprint: u64,
    object: String,
    hash: u64,
    payload: Value,
}

fn hex(x: u64) -> Value {
    Value::Str(format!("{x:016x}"))
}

fn from_hex(value: &Value) -> Result<u64, JsonError> {
    let s = value.as_str()?;
    u64::from_str_radix(s, 16).map_err(|_| JsonError::custom(format!("bad hex u64 {s:?}")))
}

impl Registry {
    /// Opens (creating if necessary) a registry rooted at `root`.
    ///
    /// # Errors
    ///
    /// Fails if the directory tree cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(root.join("entries"))?;
        std::fs::create_dir_all(root.join("objects"))?;
        std::fs::create_dir_all(root.join("leases"))?;
        let registry = Self {
            root,
            fits: Counter::mirroring("registry.fits", &telemetry::REGISTRY_FITS),
        };
        // Crashed writers leave torn temps that nothing ever reads or
        // renames; sweep them (best-effort) so they don't pile up
        // forever. Live writers are never swept — debris is only removed
        // when its embedded writer pid is dead.
        let _ = registry.sweep_debris();
        Ok(registry)
    }

    /// Removes crash debris left by dead writers: torn
    /// `<name>.<pid>.<seq>.tmp` temps in `entries/` and `objects/`. A
    /// temp whose pid is still live is never touched (a live writer's
    /// in-flight temp), and no other file is. Runs on [`Registry::open`].
    /// Returns the number of temps removed.
    ///
    /// # Errors
    ///
    /// Never fails on individual files (they may vanish concurrently);
    /// errors only if a registry directory itself is unreadable.
    fn sweep_debris(&self) -> std::io::Result<usize> {
        let mut removed = 0;
        for dir in ["entries", "objects"] {
            for item in std::fs::read_dir(self.root.join(dir))? {
                let Ok(item) = item else { continue };
                let name = item.file_name();
                let Some(name) = name.to_str() else { continue };
                let Some(pid) = classify_debris(name) else {
                    continue;
                };
                if !process_alive(pid) && std::fs::remove_file(item.path()).is_ok() {
                    removed += 1;
                }
            }
        }
        Ok(removed)
    }

    /// The registry's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Fits this instance has actually run (warm loads don't count).
    pub fn fits_performed(&self) -> u64 {
        self.fits.get()
    }

    fn entry_path(&self, slug: &str) -> PathBuf {
        self.root.join("entries").join(format!("{slug}.json"))
    }

    fn object_path(&self, object: &str) -> PathBuf {
        self.root.join("objects").join(object)
    }

    fn lease_path(&self, slug: &str) -> PathBuf {
        self.root.join("leases").join(format!("{slug}.lock"))
    }

    /// Reads the index record for `key`, `Ok(None)` on a clean miss.
    /// Rejects a record whose stored key differs from the requested one
    /// (two distinct keys sanitizing to one slug).
    fn read_entry(&self, key: &ModelKey, slug: &str) -> Result<Option<Entry>, RegistryError> {
        let path = self.entry_path(slug);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let entry = parse_entry(&text).map_err(|e| {
            RegistryError::Corrupt(format!("entry {} unparsable: {e}", path.display()))
        })?;
        if entry.key != *key {
            return Err(RegistryError::Corrupt(format!(
                "slug collision: {} holds the record for {} but {key} was requested \
                 (rename the study/encoder/app so the sanitized slugs differ)",
                path.display(),
                entry.key
            )));
        }
        Ok(Some(entry))
    }

    /// Loads the warm artifact for `key` if one exists, verifying the
    /// content hash and the versioned header against `fingerprint`.
    ///
    /// # Errors
    ///
    /// `Incompatible` when an artifact exists but was produced for a
    /// different space/encoding/format; `Corrupt` when the on-disk state
    /// fails verification; `Io` on filesystem trouble.
    pub fn get(
        &self,
        key: &ModelKey,
        fingerprint: u64,
    ) -> Result<Option<FitOutcome<Ensemble>>, RegistryError> {
        self.get_with(key, fingerprint, "ensemble", |text, fp| {
            Ensemble::from_json_checked(text, fp)
        })
    }

    /// [`Registry::get`] for multi-task models.
    ///
    /// # Errors
    ///
    /// As [`Registry::get`].
    pub fn get_multi(
        &self,
        key: &ModelKey,
        fingerprint: u64,
    ) -> Result<Option<FitOutcome<MultiTrainedModel>>, RegistryError> {
        self.get_with(key, fingerprint, "multi", |text, fp| {
            MultiTrainedModel::from_json_checked(text, fp)
        })
    }

    fn get_with<M>(
        &self,
        key: &ModelKey,
        fingerprint: u64,
        kind: &str,
        load: impl Fn(&str, u64) -> Result<M, JsonError>,
    ) -> Result<Option<FitOutcome<M>>, RegistryError> {
        let Some(entry) = self.read_entry(key, &key.slug())? else {
            return Ok(None);
        };
        if entry.kind != kind {
            return Err(RegistryError::Incompatible(format!(
                "{key} is a {} artifact, requested as {kind}",
                entry.kind
            )));
        }
        if entry.fingerprint != fingerprint {
            return Err(RegistryError::Incompatible(format!(
                "{key} was trained on space/encoding {:016x}, requested {fingerprint:016x}; refit",
                entry.fingerprint
            )));
        }
        let path = self.object_path(&entry.object);
        let text = std::fs::read_to_string(&path).map_err(|e| {
            RegistryError::Corrupt(format!(
                "entry references missing/unreadable object {}: {e}",
                path.display()
            ))
        })?;
        let hash = fnv1a_64(text.as_bytes());
        if hash != entry.hash {
            return Err(RegistryError::Corrupt(format!(
                "object {} content hash {hash:016x} != recorded {:016x}",
                path.display(),
                entry.hash
            )));
        }
        let model = load(&text, fingerprint).map_err(|e| {
            RegistryError::Incompatible(format!("object {} rejected: {e}", path.display()))
        })?;
        Ok(Some(FitOutcome {
            model,
            payload: entry.payload.clone(),
            warm: true,
        }))
    }

    /// Loads the warm artifact for `key` or runs `fit` exactly once and
    /// persists its result. Concurrent callers (threads or processes) of
    /// the same key collapse into one fit; the rest load warm.
    ///
    /// `fit` returns the model plus a JSON payload persisted with it
    /// (learning-curve rows, telemetry — whatever a warm caller needs to
    /// skip recomputation; [`Value::Null`] for none).
    ///
    /// # Errors
    ///
    /// As [`Registry::get`], plus `Fit` when the closure fails and
    /// `LeaseHeld` when another process holds the key's lease past the
    /// wait budget.
    pub fn get_or_fit(
        &self,
        key: &ModelKey,
        fingerprint: u64,
        fit: impl FnOnce() -> Result<(Ensemble, Value), String>,
    ) -> Result<FitOutcome<Ensemble>, RegistryError> {
        self.get_or_fit_with(
            key,
            fingerprint,
            "ensemble",
            Ensemble::from_json_checked,
            |model, fp| model.to_json_fingerprinted(fp),
            fit,
        )
    }

    /// [`Registry::get_or_fit`] for multi-task models.
    ///
    /// # Errors
    ///
    /// As [`Registry::get_or_fit`].
    pub fn get_or_fit_multi(
        &self,
        key: &ModelKey,
        fingerprint: u64,
        fit: impl FnOnce() -> Result<(MultiTrainedModel, Value), String>,
    ) -> Result<FitOutcome<MultiTrainedModel>, RegistryError> {
        self.get_or_fit_with(
            key,
            fingerprint,
            "multi",
            MultiTrainedModel::from_json_checked,
            |model, fp| model.to_json_fingerprinted(fp),
            fit,
        )
    }

    fn get_or_fit_with<M>(
        &self,
        key: &ModelKey,
        fingerprint: u64,
        kind: &'static str,
        load: impl Fn(&str, u64) -> Result<M, JsonError>,
        store: impl Fn(&M, u64) -> String,
        fit: impl FnOnce() -> Result<(M, Value), String>,
    ) -> Result<FitOutcome<M>, RegistryError> {
        let _span = telemetry::span("registry.get_or_fit");
        // Fast path: warm artifact, no locks.
        if let Some(outcome) = self.get_with(key, fingerprint, kind, &load)? {
            return Ok(outcome);
        }
        let slug = key.slug();
        // One fit per key per process: losers block here, then find the
        // winner's artifact in the re-check.
        let lock = key_lock(&self.root, &slug);
        let _in_process = lock.lock().expect("registry key lock poisoned");
        if let Some(outcome) = self.get_with(key, fingerprint, kind, &load)? {
            return Ok(outcome);
        }
        // One fitter per key across processes.
        let lease = self.acquire_lease(key, &slug)?;
        // A process that beat us to the lease may have committed while we
        // waited for it.
        if let Some(outcome) = self.get_with(key, fingerprint, kind, &load)? {
            drop(lease);
            return Ok(outcome);
        }
        let fit_span = telemetry::span("registry.fit");
        let (model, payload) = fit().map_err(RegistryError::Fit)?;
        drop(fit_span);
        self.fits.incr();
        let text = store(&model, fingerprint);
        self.commit(key, kind, fingerprint, &text, payload.clone())?;
        drop(lease);
        Ok(FitOutcome {
            model,
            payload,
            warm: false,
        })
    }

    /// Loads or campaign-fits a study model: the one-stop stack assembly
    /// behind the figure binaries, the examples, and the serving daemon.
    /// On a miss it builds the study's cached oracle, drives a
    /// [`Campaign`] to the spec's budget, and persists the ensemble with
    /// a telemetry payload (`samples`, `estimated_error`, `rounds`,
    /// `unique_simulations`, `cache_hits`, `simulated_instructions`).
    ///
    /// # Errors
    ///
    /// As [`Registry::get_or_fit`].
    pub fn get_or_fit_study(
        &self,
        spec: &StudyFitSpec,
    ) -> Result<FitOutcome<Ensemble>, RegistryError> {
        let key = spec.key();
        let fingerprint = spec.fingerprint();
        self.get_or_fit(&key, fingerprint, || {
            let space = spec.study.space();
            let oracle = if spec.quick {
                let generator = TraceGenerator::new(spec.benchmark);
                CachedEvaluator::new(
                    StudyEvaluator::with_budget(
                        spec.study,
                        spec.benchmark,
                        SimBudget::quick(&generator),
                    ),
                    space.clone(),
                )
            } else {
                spec.study.oracle(spec.benchmark)
            };
            let mut campaign = Campaign::new(&space, &oracle, spec.config.clone());
            campaign.try_run().map_err(|e| e.to_string())?;
            let ensemble = campaign
                .ensemble()
                .ok_or_else(|| "campaign produced no ensemble".to_owned())?
                .clone();
            let (mut unique, mut hits, mut instructions) = (0u64, 0u64, 0u64);
            for round in campaign.history() {
                unique += round.simulation.unique_simulations;
                hits += round.simulation.cache_hits;
                instructions += round.simulation.simulated_instructions;
            }
            let last = campaign.history().last().expect("ran at least one round");
            let payload = Value::Object(vec![
                ("samples".into(), Value::num(last.samples as f64)),
                ("estimated_error".into(), Value::num(last.estimate.mean)),
                ("rounds".into(), Value::num(campaign.history().len() as f64)),
                ("unique_simulations".into(), Value::num(unique as f64)),
                ("cache_hits".into(), Value::num(hits as f64)),
                (
                    "simulated_instructions".into(),
                    Value::num(instructions as f64),
                ),
            ]);
            Ok((ensemble, payload))
        })
    }

    /// Commits one artifact: object first (atomic), then the entry file
    /// (atomic) — the order the crash-safety guarantee rests on. No
    /// shared state is read back or merged, so commits of different keys
    /// are independent by construction (see module docs).
    ///
    /// Failpoints [`FP_COMMIT_OBJECT`] and [`FP_COMMIT_ENTRY`] bracket
    /// the object write, so chaos schedules can fail a commit with
    /// nothing durable or with an orphaned-but-unreferenced object.
    fn commit(
        &self,
        key: &ModelKey,
        kind: &'static str,
        fingerprint: u64,
        text: &str,
        payload: Value,
    ) -> Result<(), RegistryError> {
        if let Some(failure) = failpoint::check(FP_COMMIT_OBJECT) {
            return Err(failure.into_io_error(FP_COMMIT_OBJECT).into());
        }
        let hash = fnv1a_64(text.as_bytes());
        let object = format!("{hash:016x}.json");
        persist::write_atomic(&self.object_path(&object), text)?;
        if let Some(failure) = failpoint::check(FP_COMMIT_ENTRY) {
            return Err(failure.into_io_error(FP_COMMIT_ENTRY).into());
        }
        let entry = Entry {
            key: key.clone(),
            kind,
            fingerprint,
            object,
            hash,
            payload,
        };
        persist::write_atomic(&self.entry_path(&key.slug()), &render_entry(&entry))?;
        Ok(())
    }

    /// Acquires the cross-process fit lease for `slug`: an exclusive lock
    /// on `leases/<slug>.lock`, polled every `LEASE_POLL` for up to
    /// `LEASE_WAIT` (see module docs). The returned file holds the lock;
    /// dropping it releases the lock (also on panic unwind), and the file
    /// is close-on-exec, so no child process inherits it.
    fn acquire_lease(&self, key: &ModelKey, slug: &str) -> Result<File, RegistryError> {
        if let Some(failure) = failpoint::check(FP_LEASE_ACQUIRE) {
            return Err(failure.into_io_error(FP_LEASE_ACQUIRE).into());
        }
        let file = File::options()
            .create(true)
            .truncate(false)
            .write(true)
            .open(self.lease_path(slug))?;
        let deadline = Instant::now() + LEASE_WAIT;
        loop {
            match file.try_lock() {
                Ok(()) => return Ok(file),
                Err(TryLockError::WouldBlock) if Instant::now() < deadline => {
                    std::thread::sleep(LEASE_POLL);
                }
                Err(TryLockError::WouldBlock) => {
                    return Err(RegistryError::LeaseHeld { key: key.clone() })
                }
                Err(TryLockError::Error(e)) => return Err(e.into()),
            }
        }
    }
}

/// Whether `pid` is a live process (Linux `/proc` probe; elsewhere,
/// assume live, so temps that carry a pid are never swept).
fn process_alive(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        Path::new(&format!("/proc/{pid}")).exists()
    } else {
        true
    }
}

const ENTRY_FORMAT: f64 = 2.0;

fn render_entry(entry: &Entry) -> String {
    Value::Object(vec![
        ("format".into(), Value::num(ENTRY_FORMAT)),
        ("study".into(), Value::Str(entry.key.study.clone())),
        ("encoder".into(), Value::Str(entry.key.encoder.clone())),
        ("app".into(), Value::Str(entry.key.app.clone())),
        ("seed".into(), hex(entry.key.seed)),
        ("budget".into(), Value::num(entry.key.budget as f64)),
        ("kind".into(), Value::Str(entry.kind.into())),
        ("fingerprint".into(), hex(entry.fingerprint)),
        ("object".into(), Value::Str(entry.object.clone())),
        ("hash".into(), hex(entry.hash)),
        ("payload".into(), entry.payload.clone()),
    ])
    .to_json()
}

fn parse_entry(text: &str) -> Result<Entry, JsonError> {
    let value = Value::parse(text)?;
    let format = value.get("format")?.as_f64()?;
    if format != ENTRY_FORMAT {
        return Err(JsonError::custom(format!(
            "entry format {format} unsupported (this build reads {ENTRY_FORMAT})"
        )));
    }
    let kind = match value.get("kind")?.as_str()? {
        "ensemble" => "ensemble",
        "multi" => "multi",
        other => {
            return Err(JsonError::custom(format!(
                "unknown artifact kind {other:?}"
            )))
        }
    };
    Ok(Entry {
        key: ModelKey {
            study: value.get("study")?.as_str()?.to_owned(),
            encoder: value.get("encoder")?.as_str()?.to_owned(),
            app: value.get("app")?.as_str()?.to_owned(),
            seed: from_hex(value.get("seed")?)?,
            budget: value.get("budget")?.as_usize()?,
        },
        kind,
        fingerprint: from_hex(value.get("fingerprint")?)?,
        object: value.get("object")?.as_str()?.to_owned(),
        hash: from_hex(value.get("hash")?)?,
        payload: value.get("payload").ok().cloned().unwrap_or(Value::Null),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    fn temp_root(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("archpredict_registry_{tag}_{}", std::process::id()))
    }

    #[test]
    fn slug_is_filesystem_safe() {
        let key = ModelKey::new("Memory System", "plain/qbc", "gzip", 0xBEEF, 100);
        assert_eq!(
            key.slug(),
            "memory_system-plain_qbc-gzip-000000000000beef-100"
        );
    }

    #[test]
    fn entry_round_trips() {
        let entry = Entry {
            key: ModelKey::new("memory", "plain", "gzip", 0x1BEC, 150),
            kind: "ensemble",
            fingerprint: 0xABCD_EF01_2345_6789,
            object: "0011223344556677.json".into(),
            hash: 0x0011_2233_4455_6677,
            payload: Value::Object(vec![("samples".into(), Value::num(150.0))]),
        };
        let parsed = parse_entry(&render_entry(&entry)).unwrap();
        assert_eq!(parsed.key, entry.key);
        assert_eq!(parsed.kind, "ensemble");
        assert_eq!(parsed.fingerprint, 0xABCD_EF01_2345_6789);
        assert_eq!(parsed.hash, 0x0011_2233_4455_6677);
        assert_eq!(
            parsed.payload.get("samples").unwrap().as_usize().unwrap(),
            150
        );
    }

    #[test]
    fn empty_registry_misses_cleanly() {
        let root = temp_root("miss");
        let registry = Registry::open(&root).unwrap();
        let key = ModelKey::new("memory", "plain", "gzip", 1, 10);
        assert!(registry.get(&key, 42).unwrap().is_none());
        assert_eq!(registry.fits_performed(), 0);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn debris_classification_is_precise() {
        // Writer temps carry a pid and a sequence number.
        assert_eq!(classify_debris("entry.json.4000000.3.tmp"), Some(4_000_000));
        // A temp no writer names that way, lock files and ordinary
        // artifacts are never debris.
        assert_eq!(classify_debris("entry.json.tmp"), None);
        assert_eq!(classify_debris("entry.json.x.3.tmp"), None);
        assert_eq!(classify_debris("slug.lock"), None);
        assert_eq!(classify_debris("entry.json"), None);
        assert_eq!(classify_debris("0011223344556677.json"), None);
    }

    #[test]
    fn open_sweeps_dead_writers_but_never_live_ones() {
        let root = temp_root("sweep");
        {
            let registry = Registry::open(&root).unwrap();
            let me = std::process::id();
            let leases = registry.root().join("leases");
            let entries = registry.root().join("entries");
            // A dead writer's torn temp (pid 4M is beyond this
            // container's pid space).
            std::fs::write(entries.join("e.json.4000000.0.tmp"), "torn").unwrap();
            // Files that must survive: our own in-flight temp, a temp
            // without a writer pid, and a lock file.
            std::fs::write(entries.join(format!("f.json.{me}.0.tmp")), "mine").unwrap();
            std::fs::write(entries.join("other.json.tmp"), "foreign").unwrap();
            std::fs::write(leases.join("k.lock"), "").unwrap();

            assert_eq!(registry.sweep_debris().unwrap(), 1);
            assert!(!entries.join("e.json.4000000.0.tmp").exists());
            assert!(entries.join(format!("f.json.{me}.0.tmp")).exists());
            assert!(entries.join("other.json.tmp").exists());
            assert!(leases.join("k.lock").exists());
        }
        // Reopening sweeps automatically; the survivors still survive.
        let reopened = Registry::open(&root).unwrap();
        assert!(reopened
            .root()
            .join("entries")
            .join("other.json.tmp")
            .exists());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn held_lease_makes_a_second_acquirer_wait_until_it_drops() {
        let root = temp_root("lease_wait");
        let registry = Registry::open(&root).unwrap();
        let key = ModelKey::new("memory", "plain", "gzip", 2, 10);
        let slug = key.slug();
        let first = registry.acquire_lease(&key, &slug).unwrap();
        let released = AtomicBool::new(false);
        let started = Barrier::new(2);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                started.wait();
                let second = registry.acquire_lease(&key, &slug).unwrap();
                let after_release = released.load(Ordering::SeqCst);
                drop(second);
                after_release
            });
            started.wait();
            std::thread::sleep(LEASE_POLL * 4);
            let waited = !waiter.is_finished();
            // Release before asserting: a panic while the lease is held
            // would leave the waiter polling for the whole wait budget.
            released.store(true, Ordering::SeqCst);
            drop(first);
            assert!(waited, "second acquirer did not wait");
            assert!(
                waiter.join().unwrap(),
                "second acquirer got the lease before the first dropped it"
            );
        });
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn leftover_lock_file_is_acquired_at_once() {
        let root = temp_root("lease_leftover");
        let registry = Registry::open(&root).unwrap();
        let key = ModelKey::new("memory", "plain", "gzip", 1, 10);
        let path = registry.lease_path(&key.slug());
        // A lock file whose holder is gone, here one of an older layout
        // that wrote `pid nonce` into it: nobody holds a lock on it.
        std::fs::write(&path, "4000000 0").unwrap();
        let started = Instant::now();
        let lease = registry.acquire_lease(&key, &key.slug()).unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "a leftover lock file made the acquirer wait"
        );
        drop(lease);
        assert!(path.exists(), "lock files are never deleted");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn concurrent_acquirers_never_hold_the_lease_at_once() {
        let root = temp_root("lease_race");
        let registry = Registry::open(&root).unwrap();
        let key = ModelKey::new("memory", "plain", "gzip", 3, 10);
        let slug = key.slug();
        let held = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..20 {
                        let lease = registry.acquire_lease(&key, &slug).unwrap();
                        assert!(!held.swap(true, Ordering::SeqCst), "two holders at once");
                        std::thread::yield_now();
                        assert!(held.swap(false, Ordering::SeqCst));
                        drop(lease);
                    }
                });
            }
        });
        std::fs::remove_dir_all(&root).ok();
    }
}
