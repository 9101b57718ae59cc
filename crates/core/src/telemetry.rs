//! Unified observability: process-wide metric counters, lightweight
//! spans, and trace-ID propagation.
//!
//! Before this module the stack's telemetry was a pile of ad-hoc
//! plumbing: `SimStats` hand-merged at every call site, `ServeStats`
//! hand-building its own JSON, bespoke `AtomicU64` fields on the
//! registry, and nothing correlating a daemon request with the registry
//! fit or inference sweep it triggered. This module is the one place all
//! of that lives now:
//!
//! * **Counters** ([`Counter`]) — named, monotonic, lock-free
//!   (`fetch_add(Relaxed)` on the hot path). The process-wide registry
//!   ([`counters`]) is a fixed set of statics rendered by
//!   [`render_metrics`] in a stable text format (the daemon's
//!   `GET /metrics`). Instance-scoped stats (one server's `/stats`, one
//!   registry handle's `fits_performed`) are `Counter`s too, built with
//!   [`Counter::mirroring`] so every instance increment also lands in
//!   the process-wide registry. The lint in `ci/telemetry_lint.sh`
//!   keeps new stats fields from growing raw `AtomicU64`s outside this
//!   module.
//! * **Spans** ([`span`]) — monotonic timings with parent links,
//!   emitted as JSONL events to the file named by the
//!   [`ENV_TRACE`] environment variable (`ARCHPREDICT_TRACE=path`).
//!   When no sink is installed a span is **one relaxed atomic load** —
//!   the same disarmed-cost discipline as [`crate::failpoint`]. Each
//!   event line is appended with a single `write` call, so concurrent
//!   writers never interleave partial lines.
//! * **Trace IDs** — a `u64` stamped on each daemon request
//!   ([`fresh_trace_id`]), carried in thread-local context
//!   ([`set_trace`] / [`current_trace`]) and written into every span
//!   event. One grep of the event log for a trace ID reconstructs the
//!   request's causal tree.
//!
//! # Determinism contract
//!
//! The counters that feed learning-curve CSVs and equivalence gates
//! (everything in [`SimStats`]) stay **deterministic per-round
//! records**, merged in input order exactly as before — this module
//! only *mirrors* their deltas into the process-wide registry (see
//! [`record_sim`]) after the deterministic bookkeeping is done.
//! Wall-clock time never enters a counter: timings live in spans and in
//! the CSV columns that `to_csv_deterministic` already drops. Arming or
//! disarming the trace sink changes no computed value anywhere.

use crate::simulate::SimStats;
use std::cell::Cell;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Instant, SystemTime};

/// Environment variable naming the JSONL span-event log. When set (and
/// the hosting binary calls [`install_trace_from_env`]), every span is
/// appended to this file; a spawned daemon inherits it through the
/// environment, so one file collects the whole process tree.
pub const ENV_TRACE: &str = "ARCHPREDICT_TRACE";

/// A named monotonic counter: the only sanctioned shape for a stats
/// counter in this workspace. Increments are single relaxed atomic
/// adds; a mirrored counter ([`Counter::mirroring`]) pays exactly one
/// more.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    mirror: Option<&'static Counter>,
}

impl Counter {
    /// A standalone counter (instance-scoped, or one of the process-wide
    /// statics below).
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            value: AtomicU64::new(0),
            mirror: None,
        }
    }

    /// An instance-scoped counter whose every increment is also added to
    /// `mirror` (a process-wide static), so per-instance views (`/stats`)
    /// and the process-wide registry (`/metrics`) stay consistent without
    /// double bookkeeping at call sites.
    pub const fn mirroring(name: &'static str, mirror: &'static Counter) -> Self {
        Self {
            name,
            value: AtomicU64::new(0),
            mirror: Some(mirror),
        }
    }

    /// The counter's registered name (dotted, e.g. `serve.requests`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
        if let Some(mirror) = self.mirror {
            mirror.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

macro_rules! global_counters {
    ($($(#[$doc:meta])* $ident:ident => $name:literal),+ $(,)?) => {
        $($(#[$doc])* pub static $ident: Counter = Counter::new($name);)+

        /// Every process-wide counter, in the stable order
        /// [`render_metrics`] renders them.
        pub fn counters() -> &'static [&'static Counter] {
            static ALL: &[&Counter] = &[$(&$ident),+];
            ALL
        }
    };
}

global_counters! {
    /// Campaign refinement rounds completed.
    CAMPAIGN_ROUNDS => "campaign.rounds",
    /// Unique simulator invocations (mirror of the per-round [`SimStats`]).
    SIM_UNIQUE_SIMULATIONS => "sim.unique_simulations",
    /// Evaluations served without simulating.
    SIM_CACHE_HITS => "sim.cache_hits",
    /// Instructions simulated.
    SIM_SIMULATED_INSTRUCTIONS => "sim.simulated_instructions",
    /// Evaluation attempts that failed.
    SIM_FAILURES => "sim.failures",
    /// Retry attempts issued.
    SIM_RETRIES => "sim.retries",
    /// Indices quarantined.
    SIM_QUARANTINED => "sim.quarantined",
    /// Replacement draws backfilling failed points.
    SIM_RESAMPLED => "sim.resampled",
    /// Batched inference sweeps run.
    INFER_SWEEPS => "infer.sweeps",
    /// Design-point indices pushed through inference sweeps.
    INFER_POINTS => "infer.points",
    /// Model fits performed by registry handles.
    REGISTRY_FITS => "registry.fits",
    /// HTTP requests accepted by serving daemons.
    SERVE_REQUESTS => "serve.requests",
    /// Predictions served.
    SERVE_PREDICTIONS => "serve.predictions",
    /// Coalesced inference batches swept.
    SERVE_PREDICT_BATCHES => "serve.predict_batches",
    /// Prediction jobs merged into coalesced batches.
    SERVE_COALESCED_JOBS => "serve.coalesced_jobs",
    /// Warm in-memory model hits.
    SERVE_MODEL_CACHE_HITS => "serve.model_cache_hits",
    /// In-memory model misses.
    SERVE_MODEL_CACHE_MISSES => "serve.model_cache_misses",
    /// Models loaded warm from registry artifacts.
    SERVE_WARM_LOADS => "serve.warm_loads",
    /// Models evicted from daemon memory (LRU).
    SERVE_MODELS_EVICTED => "serve.models_evicted",
    /// Requests answered with an error status.
    SERVE_ERRORS => "serve.errors",
    /// Connections shed with 503 at a saturated gate.
    SERVE_REQUESTS_SHED => "serve.requests_shed",
    /// Handler panics contained by `catch_unwind`.
    SERVE_PANICS_CAUGHT => "serve.panics_caught",
    /// Span events appended to the trace log.
    TRACE_SPANS_EMITTED => "trace.spans_emitted",
}

/// Renders the process-wide counter registry in a stable text format:
/// one `name value` line per counter, in declaration order, under a
/// fixed header comment. This is the body of the daemon's
/// `GET /metrics`; scrapers may rely on the names and the ordering.
pub fn render_metrics() -> String {
    let all = counters();
    let mut out = String::with_capacity(32 * all.len() + 32);
    out.push_str("# archpredict metrics v1\n");
    for counter in all {
        out.push_str(counter.name());
        out.push(' ');
        out.push_str(&counter.get().to_string());
        out.push('\n');
    }
    out
}

/// Mirrors a **deterministic** [`SimStats`] delta into the process-wide
/// counters. Call this exactly once per accumulated delta (a campaign
/// round, a pooled cross-app round, a multi-task fit) *after* the
/// deterministic per-round bookkeeping is complete — the per-round
/// record stays the source of truth for CSVs and equivalence gates;
/// these counters are an observability view.
pub fn record_sim(delta: &SimStats) {
    SIM_UNIQUE_SIMULATIONS.add(delta.unique_simulations);
    SIM_CACHE_HITS.add(delta.cache_hits);
    SIM_SIMULATED_INSTRUCTIONS.add(delta.simulated_instructions);
    SIM_FAILURES.add(delta.failures);
    SIM_RETRIES.add(delta.retries);
    SIM_QUARANTINED.add(delta.quarantined);
    SIM_RESAMPLED.add(delta.resampled);
}

// ---------------------------------------------------------------------------
// Trace sink (the JSONL span-event log).

/// One relaxed load of this decides the disarmed fast path; it is `true`
/// exactly while [`SINK`] holds an open file.
static ARMED: AtomicBool = AtomicBool::new(false);

/// The open event log. Lines are serialized through this mutex within
/// the process; across processes each line is a single appended write.
static SINK: Mutex<Option<TraceSink>> = Mutex::new(None);

struct TraceSink {
    path: PathBuf,
    file: File,
}

/// The event log's path, if a sink is installed.
pub fn trace_path() -> Option<PathBuf> {
    sink_lock().as_ref().map(|s| s.path.clone())
}

fn sink_lock() -> std::sync::MutexGuard<'static, Option<TraceSink>> {
    // A panic while holding the sink lock (e.g. a panicking handler that
    // was mid-span) must not wedge telemetry for the rest of the process.
    SINK.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// Opens (append mode, creating parents) the JSONL event log at `path`
/// and arms span recording. Replaces any previously installed sink.
///
/// # Errors
///
/// Fails if the file cannot be created or opened for append.
pub fn install_trace(path: impl AsRef<Path>) -> std::io::Result<()> {
    let path = path.as_ref().to_path_buf();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let file = OpenOptions::new().create(true).append(true).open(&path)?;
    let mut sink = sink_lock();
    *sink = Some(TraceSink { path, file });
    ARMED.store(true, Ordering::SeqCst);
    Ok(())
}

/// Installs the trace sink from [`ENV_TRACE`] if set. Returns whether a
/// sink was installed. A set-but-unusable path is an error, never a
/// silently untraced run (same contract as the failpoint env install).
///
/// # Errors
///
/// Fails if [`ENV_TRACE`] is set but the file cannot be opened.
pub fn install_trace_from_env() -> std::io::Result<bool> {
    match std::env::var(ENV_TRACE) {
        Ok(path) if !path.trim().is_empty() => {
            install_trace(path.trim())?;
            Ok(true)
        }
        _ => Ok(false),
    }
}

/// Disarms span recording and closes the event log.
pub fn clear_trace() {
    ARMED.store(false, Ordering::SeqCst);
    *sink_lock() = None;
}

/// Appends one complete event line. A single `write_all` on an
/// append-mode descriptor, so concurrent writers (other threads, other
/// processes sharing the file) never interleave partial lines — the
/// event-log analogue of `persist::write_atomic`'s all-or-nothing
/// discipline.
fn emit_line(line: &str) {
    let mut sink = sink_lock();
    if let Some(sink) = sink.as_mut() {
        let _ = sink.file.write_all(line.as_bytes());
        TRACE_SPANS_EMITTED.incr();
    }
}

// ---------------------------------------------------------------------------
// Trace-ID context and spans.

thread_local! {
    /// (current trace ID, current span ID) for this thread. 0 = none.
    static CONTEXT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// A fresh process-unique (and practically cluster-unique) trace ID:
/// FNV-1a over the pid and a process-wide counter, never zero (zero
/// means "no trace").
pub fn fresh_trace_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed) + 1;
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for byte in u64::from(std::process::id())
        .to_le_bytes()
        .into_iter()
        .chain(n.to_le_bytes())
    {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h | 1
}

/// The trace ID attached to the current thread (0 = none).
pub fn current_trace() -> u64 {
    CONTEXT.with(|c| c.get().0)
}

/// Attaches `trace` to the current thread until the returned guard
/// drops (restoring the previous context). Use this to propagate a
/// trace across thread boundaries: read [`current_trace`] before
/// spawning, call `set_trace` inside the new thread.
pub fn set_trace(trace: u64) -> TraceScope {
    let previous = CONTEXT.with(|c| c.replace((trace, 0)));
    TraceScope { previous }
}

/// Guard restoring the thread's previous trace context on drop.
#[must_use = "dropping the scope immediately detaches the trace"]
pub struct TraceScope {
    previous: (u64, u64),
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        let previous = self.previous;
        CONTEXT.with(|c| c.set(previous));
    }
}

/// Opens a span named `name` (use stable dotted names: `campaign.fit`,
/// `registry.get_or_fit`, `serve.request`, `infer.sweep`). The span
/// carries the thread's current trace ID and parent span, times itself
/// monotonically, and emits one JSONL event line when dropped. With no
/// trace sink installed this is a single relaxed atomic load and an
/// inert guard.
pub fn span(name: &'static str) -> Span {
    if !ARMED.load(Ordering::Relaxed) {
        return Span { active: None };
    }
    static SPAN_IDS: AtomicU64 = AtomicU64::new(0);
    let id = SPAN_IDS.fetch_add(1, Ordering::Relaxed) + 1;
    let (trace, parent) = CONTEXT.with(|c| {
        let (trace, parent) = c.get();
        c.set((trace, id));
        (trace, parent)
    });
    Span {
        active: Some(SpanData {
            name,
            trace,
            id,
            parent,
            started: Instant::now(),
        }),
    }
}

/// An open span; see [`span`]. Emits its event (and restores the
/// thread's parent-span context) on drop, so it must be dropped on the
/// thread that opened it.
#[must_use = "dropping the span immediately records zero elapsed time"]
pub struct Span {
    active: Option<SpanData>,
}

struct SpanData {
    name: &'static str,
    trace: u64,
    id: u64,
    parent: u64,
    started: Instant,
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(data) = self.active.take() else {
            return;
        };
        let (trace, id, parent) = (data.trace, data.id, data.parent);
        CONTEXT.with(|c| {
            let (current_trace, current_span) = c.get();
            if current_span == id {
                c.set((current_trace, parent));
            }
        });
        let elapsed_us = data.started.elapsed().as_micros();
        let start_us = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_micros().saturating_sub(elapsed_us))
            .unwrap_or(0);
        let line = format!(
            "{{\"event\":\"span\",\"name\":\"{}\",\"trace\":\"{trace:016x}\",\"span\":{id},\
             \"parent\":{parent},\"pid\":{},\"start_us\":{start_us},\"elapsed_us\":{elapsed_us}}}\n",
            data.name,
            std::process::id(),
        );
        emit_line(&line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// Trace state is process-global; tests touching it serialize here
    /// and disarm on drop (the `failpoint` test-lock pattern).
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    struct Armed<'a>(#[allow(dead_code)] MutexGuard<'a, ()>);

    impl Drop for Armed<'_> {
        fn drop(&mut self) {
            clear_trace();
        }
    }

    fn arm(path: &Path) -> Armed<'_> {
        let guard = TEST_LOCK
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        install_trace(path).expect("install trace sink");
        Armed(guard)
    }

    fn temp_log(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "archpredict_telemetry_{tag}_{}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn counters_add_and_mirror() {
        static GLOBAL: Counter = Counter::new("test.mirror_target");
        let local = Counter::mirroring("test.local", &GLOBAL);
        let before = GLOBAL.get();
        local.add(3);
        local.incr();
        assert_eq!(local.get(), 4);
        assert_eq!(GLOBAL.get(), before + 4);
        assert_eq!(local.name(), "test.local");
    }

    #[test]
    fn render_metrics_is_stable_and_complete() {
        let text = render_metrics();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "# archpredict metrics v1");
        assert_eq!(lines.len(), counters().len() + 1);
        for (line, counter) in lines[1..].iter().zip(counters()) {
            let (name, value) = line.split_once(' ').expect("name value");
            assert_eq!(name, counter.name());
            assert!(value.parse::<u64>().is_ok(), "unparsable value {value:?}");
        }
        // The registry's order is declaration order — stable across calls.
        assert_eq!(text, render_metrics());
    }

    #[test]
    fn record_sim_mirrors_every_deterministic_field_and_skips_wall_clock() {
        let before: Vec<u64> = [
            &SIM_UNIQUE_SIMULATIONS,
            &SIM_CACHE_HITS,
            &SIM_SIMULATED_INSTRUCTIONS,
            &SIM_FAILURES,
            &SIM_RETRIES,
            &SIM_QUARANTINED,
            &SIM_RESAMPLED,
        ]
        .iter()
        .map(|c| c.get())
        .collect();
        let delta = SimStats {
            unique_simulations: 1,
            cache_hits: 2,
            simulated_instructions: 3,
            failures: 4,
            retries: 5,
            quarantined: 6,
            resampled: 7,
        };
        record_sim(&delta);
        let after: Vec<u64> = [
            &SIM_UNIQUE_SIMULATIONS,
            &SIM_CACHE_HITS,
            &SIM_SIMULATED_INSTRUCTIONS,
            &SIM_FAILURES,
            &SIM_RETRIES,
            &SIM_QUARANTINED,
            &SIM_RESAMPLED,
        ]
        .iter()
        .map(|c| c.get())
        .collect();
        let gained: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
        // Concurrent tests may also bump these, so assert >= the delta.
        for (gain, expect) in gained.iter().zip([1u64, 2, 3, 4, 5, 6, 7]) {
            assert!(*gain >= expect, "gained {gain} < {expect}");
        }
    }

    #[test]
    fn disarmed_spans_are_inert_and_armed_spans_emit_jsonl() {
        let path = temp_log("spans");
        let _ = std::fs::remove_file(&path);
        {
            // Disarmed: no sink, no event, no panic.
            let _quiet = span("test.disarmed");
        }
        let armed = arm(&path);
        {
            let _scope = set_trace(0xABCD);
            let _outer = span("test.outer");
            let _inner = span("test.inner");
        }
        drop(armed);
        let text = std::fs::read_to_string(&path).expect("trace log written");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "two spans, two lines: {text}");
        // Inner drops first; both carry the scope's trace id.
        assert!(lines[0].contains("\"name\":\"test.inner\""));
        assert!(lines[1].contains("\"name\":\"test.outer\""));
        for line in &lines {
            assert!(line.contains("\"trace\":\"000000000000abcd\""), "{line}");
        }
        // Parent links: inner's parent is outer's span id.
        let field = |line: &str, key: &str| -> u64 {
            let tail = line.split(&format!("\"{key}\":")).nth(1).expect("field");
            tail.split(|c: char| !c.is_ascii_digit())
                .next()
                .expect("digits")
                .parse()
                .expect("number")
        };
        assert_eq!(field(lines[0], "parent"), field(lines[1], "span"));
        assert_eq!(field(lines[1], "parent"), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_scope_nests_and_restores() {
        assert_eq!(current_trace(), 0);
        {
            let _outer = set_trace(7);
            assert_eq!(current_trace(), 7);
            {
                let _inner = set_trace(9);
                assert_eq!(current_trace(), 9);
            }
            assert_eq!(current_trace(), 7);
        }
        assert_eq!(current_trace(), 0);
    }

    #[test]
    fn fresh_trace_ids_are_distinct_and_nonzero() {
        let a = fresh_trace_id();
        let b = fresh_trace_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }
}
