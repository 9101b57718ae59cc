//! The prediction daemon: a long-running session layer over the
//! [`crate::registry`] store.
//!
//! Every figure binary pays full process-startup cost — load or fit the
//! model, sweep, exit. The daemon amortizes that across requests: it
//! holds warm ensembles in memory, multiplexes concurrent campaigns and
//! prediction requests over plain HTTP/1.1 on `std::net` (no external
//! dependencies, the same hand-rolled-protocol discipline as the worker
//! crate's pipe protocol), and **coalesces** concurrent predictions
//! against the same model into batched [`crate::infer`] sweeps.
//!
//! # Protocol
//!
//! One request per connection (`Connection: close`), JSON bodies both
//! ways. Seeds travel as 16-digit hex strings (JSON numbers are f64 and
//! cannot carry a u64). Endpoints:
//!
//! | Method & path   | Body                                             | Effect |
//! |-----------------|--------------------------------------------------|--------|
//! | `GET /health`   | —                                                | liveness probe (200 even while draining) |
//! | `GET /ready`    | —                                                | readiness probe (503 once draining) |
//! | `GET /stats`    | —                                                | server counters (JSON view) |
//! | `GET /metrics`  | —                                                | process-wide [`crate::telemetry`] registry (plain text) |
//! | `POST /fit`     | model spec (below)                               | load-or-fit via [`Registry::get_or_fit_study`] |
//! | `POST /predict` | model spec + `"indices":[…]`                     | batched predictions |
//! | `POST /shutdown`| —                                                | graceful drain |
//!
//! A model spec is `{"study":"memory","app":"gzip","seed":"00a5ceed",
//! "budget":40}` plus optional `"quick":true` (quick simulation budget),
//! `"batch"`, `"folds"`, `"target_error"`, and `"pool_factor"` (selects
//! active learning). `/predict` never fits: it serves from memory or the
//! registry's warm artifacts and errors if the model was never fitted —
//! fitting is an explicit, expensive act.
//!
//! # Coalescing and bit-identity
//!
//! Concurrent `/predict` calls for one model group-commit: each queues
//! its job and takes the model's sweep lock, and the holder runs **one**
//! [`infer::predict_indices`] sweep over every queued job. A lone request
//! sweeps at once; jobs queued during a sweep form the next. Because
//! inference is per-index deterministic (each output depends only on
//! its own index — the [`crate::infer`] determinism contract), coalesced
//! predictions are bit-for-bit identical to what each caller would have
//! computed alone, at any batch composition. Responses carry
//! `SimStats`-style telemetry: model cache hit/miss, model age, and the
//! size of the coalesced batch.
//!
//! # Resource bounds and load shedding
//!
//! A long-lived daemon must not let one misbehaving client (or many
//! distinct model specs) grow its footprint without limit:
//!
//! - at most [`ServeConfig::max_connections`] connection threads exist
//!   at once — when all slots are taken the accept loop waits at most
//!   [`ServeConfig::gate_wait`] for one to free, then **sheds** the
//!   connection with `503` + `Retry-After` (`requests_shed` in `/stats`)
//!   instead of blocking the accept loop behind a saturated gate;
//! - request parsing bounds header count and per-line length, and the
//!   socket carries read/write timeouts, so a stalled or malicious
//!   client cannot pin a thread or buffer unbounded memory;
//! - the in-memory model map holds at most [`ServeConfig::max_models`]
//!   ensembles; beyond that the least-recently-used entry is evicted
//!   (`models_evicted` in `/stats`) and reloads warm from the registry
//!   on next use.
//!
//! # Lifecycle
//!
//! `POST /shutdown` — or SIGTERM/SIGINT once the binary calls
//! [`install_signal_handlers`] — triggers a **graceful drain**: the
//! listener closes first (new connections are refused, load balancers
//! see `/ready` flip to 503 beforehand via the draining flag), in-flight
//! connections get up to [`ServeConfig::drain_deadline`] to finish, and
//! a final stats snapshot is flushed to stderr. `/health` stays 200
//! through the drain — liveness and readiness are distinct signals.
//!
//! Each connection runs its handler under `catch_unwind`: a panicking
//! handler answers that client `500`, increments `panics_caught`, and
//! the daemon keeps serving. A panic inside a sweep fails every request
//! in its batch with a `500` as well, and the next request on that model
//! sweeps normally. The dispatch path and the sweep
//! carry [`crate::failpoint`] sites ([`FP_HANDLER`], [`FP_SWEEP`]) so
//! chaos schedules can inject exactly these failures.

use crate::campaign::CampaignConfig;
use crate::failpoint;
use crate::infer;
use crate::registry::{Registry, StudyFitSpec};
use crate::sampling::Strategy;
use crate::space::DesignSpace;
use crate::studies::Study;
use crate::telemetry::{self, Counter};
use archpredict_ann::{Ensemble, Parallelism};
use archpredict_stats::json::Value;
use archpredict_workloads::Benchmark;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Upper bound on request bodies (a full-space index list is ~10 MB of
/// JSON; anything past this is a client bug, not a workload).
const MAX_BODY: usize = 64 << 20;
/// Upper bound on one request/header line.
const MAX_HEADER_LINE: usize = 8 << 10;
/// Upper bound on header count per request.
const MAX_HEADERS: usize = 64;
/// Per-operation socket timeout: a request must arrive, and a response
/// drain, in bounded time (a fit may run for minutes between the two —
/// the timeout is per read/write call, not per request).
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// Longest the accept loop waits in `poll(2)` between flag checks: the
/// bound for a signal that lands between the check and the `poll` call.
#[cfg(unix)]
const SIGNAL_BACKSTOP_MS: i32 = 200;

/// Failpoint site evaluated at the top of every request dispatch. The
/// `panic` action exercises per-connection panic isolation; `error`
/// fails the request with a `500`.
pub const FP_HANDLER: &str = "serve.handler";
/// Failpoint site evaluated inside a coalesced sweep, under the same
/// `catch_unwind` isolation as the inference itself — firing `panic`
/// here must fail every request in the batch, not hang them.
pub const FP_SWEEP: &str = "serve.sweep";

/// Set by the SIGTERM/SIGINT handler; the accept loop treats it exactly
/// like `POST /shutdown`.
static SIGNALED: AtomicBool = AtomicBool::new(false);

/// True once SIGTERM or SIGINT has been delivered after
/// [`install_signal_handlers`].
pub fn shutdown_signaled() -> bool {
    SIGNALED.load(Ordering::SeqCst)
}

/// Routes SIGTERM and SIGINT into the graceful-drain path: the handler
/// only sets an atomic flag. Delivery interrupts the accept loop's
/// `poll(2)`, which then sees the flag, so the daemon drains instead of
/// dying mid-commit. Process-global; call once from the binary's `main`.
#[cfg(unix)]
pub fn install_signal_handlers() {
    extern "C" fn on_signal(_signum: i32) {
        SIGNALED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

/// No-op off Unix: the daemon still drains via `POST /shutdown`.
#[cfg(not(unix))]
pub fn install_signal_handlers() {}

/// Returns once `listener` has a connection pending, a signal handler
/// has run (`poll` fails with `EINTR` then, even under `SA_RESTART`), or
/// [`SIGNAL_BACKSTOP_MS`] has passed.
#[cfg(unix)]
fn wait_for_connection(listener: &TcpListener) {
    /// `struct pollfd` from `<poll.h>`.
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    extern "C" {
        /// `nfds` is `nfds_t`, an `unsigned long` on Linux.
        fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout_ms: i32) -> i32;
    }
    const POLLIN: i16 = 0x1;
    let mut pollfd = PollFd {
        fd: std::os::fd::AsRawFd::as_raw_fd(listener),
        events: POLLIN,
        revents: 0,
    };
    // SAFETY: one initialized `pollfd` (matching `nfds = 1`) that outlives
    // the call, naming the listener's open descriptor.
    unsafe { poll(&mut pollfd, 1, SIGNAL_BACKSTOP_MS) };
}

/// Off Unix no signal needs the accept loop: it blocks in `accept`, and a
/// drain's self-connect wakes it.
#[cfg(not(unix))]
fn wait_for_connection(_listener: &TcpListener) {}

/// Server policy.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Registry root the daemon loads from and fits into.
    pub registry_root: PathBuf,
    /// Most connection threads alive at once (further accepts shed after
    /// [`ServeConfig::gate_wait`]).
    pub max_connections: usize,
    /// Most warm models held in memory (least-recently-used eviction).
    pub max_models: usize,
    /// How long the accept loop waits for a free connection slot before
    /// shedding the connection with `503` + `Retry-After`.
    pub gate_wait: Duration,
    /// How long a drain (shutdown request or signal) waits for in-flight
    /// connections to finish before giving up on them.
    pub drain_deadline: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            registry_root: PathBuf::from("results/registry"),
            max_connections: 64,
            max_models: 32,
            gate_wait: Duration::from_secs(2),
            drain_deadline: Duration::from_secs(30),
        }
    }
}

/// Counting semaphore bounding live connection threads.
struct ConnectionGate {
    capacity: usize,
    free: Mutex<usize>,
    freed: Condvar,
}

impl ConnectionGate {
    fn new(slots: usize) -> Self {
        let capacity = slots.max(1);
        Self {
            capacity,
            free: Mutex::new(capacity),
            freed: Condvar::new(),
        }
    }

    /// Claims a slot (released on drop) if one frees within `wait`;
    /// `None` means the caller should shed the connection — the accept
    /// loop must never block indefinitely behind a saturated gate.
    fn acquire_timeout(self: &Arc<Self>, wait: Duration) -> Option<ConnectionPermit> {
        let free = self.free.lock().expect("connection gate poisoned");
        let (mut free, _) = self
            .freed
            .wait_timeout_while(free, wait, |free| *free == 0)
            .expect("connection gate poisoned");
        if *free == 0 {
            return None;
        }
        *free -= 1;
        Some(ConnectionPermit {
            gate: Arc::clone(self),
        })
    }

    /// Waits until every permit is back (all connection threads done) or
    /// `deadline` passes; `true` means fully idle.
    fn wait_idle(&self, deadline: Instant) -> bool {
        let free = self.free.lock().expect("connection gate poisoned");
        let left = deadline.saturating_duration_since(Instant::now());
        let (free, _) = self
            .freed
            .wait_timeout_while(free, left, |free| *free < self.capacity)
            .expect("connection gate poisoned");
        *free == self.capacity
    }
}

struct ConnectionPermit {
    gate: Arc<ConnectionGate>,
}

impl Drop for ConnectionPermit {
    fn drop(&mut self) {
        *self.gate.free.lock().expect("connection gate poisoned") += 1;
        // Both kinds of waiters (acquirers and the drain's wait_idle) may
        // be parked on this condvar.
        self.gate.freed.notify_all();
    }
}

/// A warm model held in memory, with its per-model coalescing state.
struct ModelEntry {
    space: DesignSpace,
    ensemble: Ensemble,
    loaded_at: Instant,
    /// Logical access stamp (from [`ServerInner::clock`]) for LRU
    /// eviction.
    last_used: AtomicU64,
    /// Jobs waiting for the next sweep.
    queue: Mutex<Vec<Job>>,
    /// Held for the whole of a sweep: one sweep per model at a time.
    sweep: Mutex<()>,
}

struct Job {
    indices: Vec<usize>,
    slot: Arc<JobSlot>,
}

/// Where a job's share of a sweep lands, or why the sweep failed. A sweep
/// fills every slot of its batch before it releases the sweep lock.
type JobSlot = Mutex<Option<Result<(Vec<f64>, BatchTelemetry), String>>>;

/// What one coalesced sweep looked like, reported to every participant.
#[derive(Debug, Clone, Copy)]
struct BatchTelemetry {
    /// Requests merged into the sweep (1 = no coalescing happened).
    jobs: usize,
    /// Total design-point indices in the sweep.
    indices: usize,
}

/// Monotonic server counters, exposed at `GET /stats`.
///
/// Each counter is instance-scoped (this server's `/stats` view) and
/// mirrors into the process-wide [`crate::telemetry`] registry behind
/// `GET /metrics` — one increment updates both, and in-process test
/// servers keep authoritative per-instance counts.
#[derive(Debug)]
struct ServeStats {
    requests: Counter,
    predictions: Counter,
    predict_batches: Counter,
    coalesced_jobs: Counter,
    model_cache_hits: Counter,
    model_cache_misses: Counter,
    warm_loads: Counter,
    models_evicted: Counter,
    errors: Counter,
    /// Connections refused with `503` because the gate stayed saturated
    /// past [`ServeConfig::gate_wait`].
    requests_shed: Counter,
    /// Handler panics contained by the per-connection `catch_unwind`.
    panics_caught: Counter,
}

impl Default for ServeStats {
    fn default() -> Self {
        Self {
            requests: Counter::mirroring("serve.requests", &telemetry::SERVE_REQUESTS),
            predictions: Counter::mirroring("serve.predictions", &telemetry::SERVE_PREDICTIONS),
            predict_batches: Counter::mirroring(
                "serve.predict_batches",
                &telemetry::SERVE_PREDICT_BATCHES,
            ),
            coalesced_jobs: Counter::mirroring(
                "serve.coalesced_jobs",
                &telemetry::SERVE_COALESCED_JOBS,
            ),
            model_cache_hits: Counter::mirroring(
                "serve.model_cache_hits",
                &telemetry::SERVE_MODEL_CACHE_HITS,
            ),
            model_cache_misses: Counter::mirroring(
                "serve.model_cache_misses",
                &telemetry::SERVE_MODEL_CACHE_MISSES,
            ),
            warm_loads: Counter::mirroring("serve.warm_loads", &telemetry::SERVE_WARM_LOADS),
            models_evicted: Counter::mirroring(
                "serve.models_evicted",
                &telemetry::SERVE_MODELS_EVICTED,
            ),
            errors: Counter::mirroring("serve.errors", &telemetry::SERVE_ERRORS),
            requests_shed: Counter::mirroring(
                "serve.requests_shed",
                &telemetry::SERVE_REQUESTS_SHED,
            ),
            panics_caught: Counter::mirroring(
                "serve.panics_caught",
                &telemetry::SERVE_PANICS_CAUGHT,
            ),
        }
    }
}

struct ServerInner {
    registry: Registry,
    config: ServeConfig,
    addr: SocketAddr,
    models: Mutex<HashMap<String, Arc<ModelEntry>>>,
    /// Monotonic logical clock stamping model accesses for LRU eviction.
    clock: AtomicU64,
    gate: Arc<ConnectionGate>,
    stats: ServeStats,
    /// Set when a drain is requested or begins; `/ready` answers 503 from
    /// then on while `/health` stays 200 (readiness vs liveness).
    draining: AtomicBool,
}

/// A bound (but not yet running) daemon.
pub struct Server {
    inner: Arc<ServerInner>,
    listener: TcpListener,
}

/// A daemon running on a background thread (test/embedding convenience).
pub struct ServerHandle {
    inner: Arc<ServerInner>,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

/// An error with an HTTP status attached.
#[derive(Debug)]
struct ServeError {
    status: u16,
    message: String,
}

impl ServeError {
    fn bad_request(message: impl Into<String>) -> Self {
        Self {
            status: 400,
            message: message.into(),
        }
    }

    fn not_found(message: impl Into<String>) -> Self {
        Self {
            status: 404,
            message: message.into(),
        }
    }

    fn internal(message: impl Into<String>) -> Self {
        Self {
            status: 500,
            message: message.into(),
        }
    }

    fn unavailable(message: impl Into<String>) -> Self {
        Self {
            status: 503,
            message: message.into(),
        }
    }
}

impl Server {
    /// Binds the daemon to `addr` (use port 0 for an ephemeral port) over
    /// the registry named in `config`.
    ///
    /// # Errors
    ///
    /// Fails if the socket cannot be bound or the registry root cannot be
    /// created.
    pub fn bind(addr: impl ToSocketAddrs, config: ServeConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let registry = Registry::open(&config.registry_root)?;
        let addr = listener.local_addr()?;
        let gate = Arc::new(ConnectionGate::new(config.max_connections));
        Ok(Self {
            inner: Arc::new(ServerInner {
                registry,
                config,
                addr,
                models: Mutex::new(HashMap::new()),
                clock: AtomicU64::new(0),
                gate,
                stats: ServeStats::default(),
                draining: AtomicBool::new(false),
            }),
            listener,
        })
    }

    /// The bound address (the concrete port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Serves until `POST /shutdown` or a handled signal, then drains
    /// gracefully. Each connection is handled on its own thread; one
    /// request per connection; at most [`ServeConfig::max_connections`]
    /// threads at once — when the gate stays saturated past
    /// [`ServeConfig::gate_wait`], further connections are shed with
    /// `503` + `Retry-After` instead of queueing without bound.
    ///
    /// Between connections the accept loop sleeps in `poll(2)` on the
    /// listener. A connection, a shutdown request's self-connect, or a
    /// signal wakes it at once, so an idle daemon drains promptly too.
    ///
    /// # Errors
    ///
    /// Fails only on accept-loop setup errors; per-connection errors are
    /// reported to that client and counted in `/stats`.
    pub fn run(self) -> std::io::Result<()> {
        // Where `poll(2)` guards the accept, a wake-up with nothing pending
        // must not block in it.
        self.listener.set_nonblocking(cfg!(unix))?;
        loop {
            wait_for_connection(&self.listener);
            let accepted = self.listener.accept();
            // Checked after the accept, so the drain's wake-up connection
            // (or a client racing the drain) is dropped, not served.
            if draining(&self.inner) {
                break;
            }
            let Ok((stream, _)) = accepted else {
                continue;
            };
            // The listener may be nonblocking; the per-connection socket must
            // not be (its reads are bounded by IO_TIMEOUT instead).
            let _ = stream.set_nonblocking(false);
            match self.inner.gate.acquire_timeout(self.inner.config.gate_wait) {
                Some(permit) => {
                    let inner = Arc::clone(&self.inner);
                    std::thread::spawn(move || {
                        let _permit = permit;
                        handle_connection(stream, &inner);
                    });
                }
                None => {
                    self.inner.stats.requests_shed.incr();
                    shed(stream);
                }
            }
        }
        self.drain();
        Ok(())
    }

    /// Graceful drain, with readiness already at 503: close the listener
    /// **first** (new connections are refused from here on), give
    /// in-flight connection threads up to [`ServeConfig::drain_deadline`]
    /// to finish, then flush a final stats snapshot to stderr.
    fn drain(self) {
        let Server { inner, listener } = self;
        drop(listener);
        let deadline = Instant::now() + inner.config.drain_deadline;
        if !inner.gate.wait_idle(deadline) {
            eprintln!(
                "archpredict-served: drain deadline ({:?}) passed with connections in flight",
                inner.config.drain_deadline
            );
        }
        eprintln!(
            "archpredict-served: drained; final stats {}",
            stats_json(&inner).to_json()
        );
    }

    /// Runs the daemon on a background thread and returns a handle for
    /// shutdown. Used by the in-process tests; `archpredict-served` calls
    /// [`Server::run`] directly.
    pub fn spawn(self) -> ServerHandle {
        let inner = Arc::clone(&self.inner);
        let thread = std::thread::spawn(move || self.run());
        ServerHandle { inner, thread }
    }
}

impl ServerHandle {
    /// The daemon's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Stops the daemon (graceful drain included) and joins its thread.
    pub fn shutdown(self) {
        request_shutdown(&self.inner);
        let _ = self.thread.join();
    }
}

/// `POST /shutdown` and [`ServerHandle::shutdown`]: flip readiness, then
/// wake the accept loop out of `poll(2)` with one throwaway connection.
fn request_shutdown(inner: &ServerInner) {
    inner.draining.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(inner.addr);
}

/// Minimal HTTP/1.1 client for the daemon's protocol: one request, one
/// JSON response. Returns `(status, parsed body)`. Shared by the `perf`
/// benchmark and the tests.
///
/// # Errors
///
/// On connection/transport failure or an unparsable response body.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, Value), String> {
    let (status, text) = http_request_text(addr, method, path, body)?;
    let value = Value::parse(&text).map_err(|e| format!("response not JSON: {e}"))?;
    Ok((status, value))
}

/// [`http_request`] without the JSON parse: returns the raw body text.
/// The client for non-JSON endpoints (`GET /metrics`).
///
/// # Errors
///
/// On connection/transport failure or a malformed response envelope.
pub fn http_request_text(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr} failed: {e}"))?;
    let body = body.unwrap_or("");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send failed: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader
        .read_line(&mut status_line)
        .map_err(|e| format!("read status failed: {e}"))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line {status_line:?}"))?;
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("read header failed: {e}"))?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v
                .trim()
                .parse()
                .map_err(|_| format!("bad content-length {line:?}"))?;
        }
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("read body failed: {e}"))?;
    let text = String::from_utf8(body).map_err(|_| "response body not UTF-8".to_owned())?;
    Ok((status, text))
}

/// Polls `GET /ready` at `addr` until the daemon reports itself ready to
/// accept work (200 with `"ready": true`), or `deadline` elapses.
///
/// Transient failures — connection refused during startup, a 500 from an
/// armed handler failpoint — are retried; only the deadline is fatal. A
/// draining daemon answers 503 forever, so a harness waiting on one fails
/// here instead of hanging on its first real request. This is the one
/// readiness wait every harness shares; none of them poll `/health`,
/// which stays 200 on a daemon that will never take their work.
///
/// # Errors
///
/// When the deadline passes without a ready answer; the message carries
/// the last observed probe outcome.
pub fn wait_ready(addr: SocketAddr, deadline: Duration) -> Result<(), String> {
    let give_up = Instant::now() + deadline;
    let mut last: String;
    loop {
        match http_request(addr, "GET", "/ready", None) {
            Ok((200, body)) if matches!(body.get("ready").and_then(|v| v.as_bool()), Ok(true)) => {
                return Ok(());
            }
            Ok((status, _)) => last = format!("last probe answered {status}"),
            Err(e) => last = format!("last probe failed: {e}"),
        }
        if Instant::now() >= give_up {
            return Err(format!(
                "daemon at {addr} not ready after {deadline:?} ({last})"
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn handle_connection(stream: TcpStream, inner: &ServerInner) {
    inner.stats.requests.incr();
    let mut stream = stream;
    // A stalled client must not pin this thread: every socket read and
    // write is individually bounded.
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let parsed = read_request(&mut stream);
    let (method, path, body) = match parsed {
        Ok(r) => r,
        Err(e) => {
            inner.stats.errors.incr();
            respond_error(&mut stream, 400, &format!("malformed request: {e}"));
            return;
        }
    };
    // The metrics scrape is plain text, not JSON, and must stay cheap
    // and infallible — it bypasses the JSON dispatch (and its failpoint)
    // entirely.
    if method == "GET" && path == "/metrics" {
        respond_text(&mut stream, 200, "OK", &telemetry::render_metrics());
        return;
    }
    // Stamp the request with a fresh trace ID: every span this thread
    // opens downstream — registry fit, campaign round, inference sweep,
    // worker dispatch — carries it, reconstructing the causal tree.
    let _trace_scope = telemetry::set_trace(telemetry::fresh_trace_id());
    let _request_span = telemetry::span("serve.request");
    // Panic isolation: one request's panic answers that client with a
    // 500 and leaves the daemon serving. A panicking sweep fills every
    // slot of its batch before unwinding to here.
    let dispatched = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        dispatch(inner, &method, &path, &body)
    }));
    let result = match dispatched {
        Ok(result) => result,
        Err(panic) => {
            inner.stats.panics_caught.incr();
            Err(ServeError::internal(format!(
                "handler panicked: {}",
                panic_message(panic.as_ref())
            )))
        }
    };
    match result {
        Ok(value) => respond(&mut stream, 200, "OK", &value.to_json()),
        Err(e) => {
            inner.stats.errors.incr();
            respond_error(&mut stream, e.status, &e.message);
        }
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    panic.downcast_ref::<&str>().copied().unwrap_or_else(|| {
        panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or("opaque panic payload")
    })
}

/// Whether the daemon is past the point of accepting new work.
fn draining(inner: &ServerInner) -> bool {
    inner.draining.load(Ordering::SeqCst) || shutdown_signaled()
}

fn health_json(inner: &ServerInner) -> Value {
    let draining = draining(inner);
    Value::Object(vec![
        ("ok".into(), Value::Bool(true)),
        ("ready".into(), Value::Bool(!draining)),
        ("draining".into(), Value::Bool(draining)),
    ])
}

fn dispatch(
    inner: &ServerInner,
    method: &str,
    path: &str,
    body: &str,
) -> Result<Value, ServeError> {
    if let Some(failure) = failpoint::check(FP_HANDLER) {
        return Err(ServeError::internal(
            failure.into_io_error(FP_HANDLER).to_string(),
        ));
    }
    match (method, path) {
        // Liveness: 200 as long as the process can answer at all, even
        // mid-drain. Readiness: 503 once draining — load balancers stop
        // routing before the listener actually closes.
        ("GET", "/health") => Ok(health_json(inner)),
        ("GET", "/ready") => {
            if draining(inner) {
                Err(ServeError::unavailable("draining; not accepting new work"))
            } else {
                Ok(health_json(inner))
            }
        }
        ("GET", "/stats") => Ok(stats_json(inner)),
        ("POST", "/fit") => handle_fit(inner, body),
        ("POST", "/predict") => handle_predict(inner, body),
        ("POST", "/shutdown") => {
            request_shutdown(inner);
            Ok(Value::Object(vec![("ok".into(), Value::Bool(true))]))
        }
        _ => Err(ServeError::not_found(format!(
            "no endpoint {method} {path}"
        ))),
    }
}

/// Refuses a connection the gate could not admit: `503` with
/// `Retry-After` so well-behaved clients back off. Written on a
/// short-lived thread with a tight timeout — the accept loop must not
/// stall behind a client that won't read.
fn shed(stream: TcpStream) {
    std::thread::spawn(move || {
        let mut stream = stream;
        let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
        let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
        // Drain (a bounded amount of) the request before closing: a
        // socket closed with unread bytes resets the connection, which
        // would destroy the 503 before the client could read it.
        let mut discard = [0u8; 4096];
        for _ in 0..16 {
            match stream.read(&mut discard) {
                Ok(n) if n == discard.len() => continue,
                _ => break,
            }
        }
        let body = Value::Object(vec![
            ("ok".into(), Value::Bool(false)),
            (
                "error".into(),
                Value::Str("server saturated; retry after backoff".into()),
            ),
        ])
        .to_json();
        let header = format!(
            "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
             Retry-After: 1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        );
        let _ = stream.write_all(header.as_bytes());
        let _ = stream.write_all(body.as_bytes());
        let _ = stream.flush();
    });
}

/// Reads one line, erroring (instead of buffering without bound) past
/// `max` bytes.
fn read_line_bounded(reader: &mut impl BufRead, max: usize) -> Result<String, String> {
    let mut limited = reader.take(max as u64 + 1);
    let mut line = String::new();
    limited.read_line(&mut line).map_err(|e| e.to_string())?;
    if line.len() > max {
        return Err(format!("header line exceeds {max} bytes"));
    }
    Ok(line)
}

fn read_request(stream: &mut TcpStream) -> Result<(String, String, String), String> {
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let request_line = read_line_bounded(&mut reader, MAX_HEADER_LINE)?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or("empty request line")?.to_owned();
    let path = parts.next().ok_or("request line missing path")?.to_owned();
    let mut content_length = 0usize;
    let mut headers = 0usize;
    loop {
        if headers >= MAX_HEADERS {
            return Err(format!("more than {MAX_HEADERS} header lines"));
        }
        headers += 1;
        let line = read_line_bounded(&mut reader, MAX_HEADER_LINE)?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().map_err(|_| "bad content-length")?;
        }
    }
    if content_length > MAX_BODY {
        return Err(format!("body of {content_length} bytes exceeds {MAX_BODY}"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| e.to_string())?;
    let body = String::from_utf8(body).map_err(|_| "body not UTF-8")?;
    Ok((method, path, body))
}

fn respond(stream: &mut TcpStream, status: u16, reason: &str, body: &str) {
    respond_with_type(stream, status, reason, "application/json", body);
}

/// Plain-text response — the `/metrics` scrape format.
fn respond_text(stream: &mut TcpStream, status: u16, reason: &str, body: &str) {
    respond_with_type(stream, status, reason, "text/plain; charset=utf-8", body);
}

fn respond_with_type(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
) {
    let header = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(header.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

fn respond_error(stream: &mut TcpStream, status: u16, message: &str) {
    let reason = match status {
        400 => "Bad Request",
        404 => "Not Found",
        409 => "Conflict",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let body = Value::Object(vec![
        ("ok".into(), Value::Bool(false)),
        ("error".into(), Value::Str(message.to_owned())),
    ])
    .to_json();
    respond(stream, status, reason, &body);
}

fn stats_json(inner: &ServerInner) -> Value {
    let s = &inner.stats;
    let count = |c: &Counter| Value::num(c.get() as f64);
    Value::Object(vec![
        ("ok".into(), Value::Bool(true)),
        ("requests".into(), count(&s.requests)),
        ("predictions".into(), count(&s.predictions)),
        ("predict_batches".into(), count(&s.predict_batches)),
        ("coalesced_jobs".into(), count(&s.coalesced_jobs)),
        ("model_cache_hits".into(), count(&s.model_cache_hits)),
        ("model_cache_misses".into(), count(&s.model_cache_misses)),
        ("warm_loads".into(), count(&s.warm_loads)),
        ("models_evicted".into(), count(&s.models_evicted)),
        ("errors".into(), count(&s.errors)),
        ("requests_shed".into(), count(&s.requests_shed)),
        ("panics_caught".into(), count(&s.panics_caught)),
        (
            "fits_performed".into(),
            Value::num(inner.registry.fits_performed() as f64),
        ),
        (
            "models_in_memory".into(),
            Value::num(inner.models.lock().expect("model map poisoned").len() as f64),
        ),
    ])
}

/// Parses the model-spec fields shared by `/fit` and `/predict`.
fn spec_from_json(body: &Value) -> Result<StudyFitSpec, ServeError> {
    let field = |name: &str| {
        body.get(name)
            .map_err(|_| ServeError::bad_request(format!("missing field {name:?}")))
    };
    let study_name = field("study")?
        .as_str()
        .map_err(|e| ServeError::bad_request(format!("study: {e}")))?;
    let study = Study::from_name(study_name)
        .ok_or_else(|| ServeError::bad_request(format!("unknown study {study_name:?}")))?;
    let app_name = field("app")?
        .as_str()
        .map_err(|e| ServeError::bad_request(format!("app: {e}")))?;
    let benchmark = Benchmark::from_name(app_name)
        .ok_or_else(|| ServeError::bad_request(format!("unknown app {app_name:?}")))?;
    let seed_text = field("seed")?
        .as_str()
        .map_err(|e| ServeError::bad_request(format!("seed: {e}")))?;
    let seed = u64::from_str_radix(seed_text, 16)
        .map_err(|_| ServeError::bad_request(format!("seed {seed_text:?} is not hex")))?;
    let budget = field("budget")?
        .as_usize()
        .map_err(|e| ServeError::bad_request(format!("budget: {e}")))?;
    let mut config = CampaignConfig {
        seed,
        max_samples: budget,
        ..CampaignConfig::default()
    };
    if let Ok(batch) = body.get("batch") {
        config.batch = batch
            .as_usize()
            .map_err(|e| ServeError::bad_request(format!("batch: {e}")))?;
    }
    if let Ok(folds) = body.get("folds") {
        config.folds = folds
            .as_usize()
            .map_err(|e| ServeError::bad_request(format!("folds: {e}")))?;
    }
    if let Ok(target) = body.get("target_error") {
        config.target_error = target
            .as_f64()
            .map_err(|e| ServeError::bad_request(format!("target_error: {e}")))?;
    }
    if let Ok(pool) = body.get("pool_factor") {
        let pool_factor = pool
            .as_usize()
            .map_err(|e| ServeError::bad_request(format!("pool_factor: {e}")))?;
        config.strategy = Strategy::Active { pool_factor };
    }
    let quick = match body.get("quick") {
        Ok(v) => v
            .as_bool()
            .map_err(|e| ServeError::bad_request(format!("quick: {e}")))?,
        Err(_) => false,
    };
    Ok(StudyFitSpec {
        study,
        benchmark,
        config,
        quick,
    })
}

/// Resolves a spec to a warm in-memory model. `fit` controls the miss
/// path: `/fit` may run a campaign, `/predict` only loads what exists.
/// Returns the entry plus how it was found (`"hit"`, `"warm"`, `"fitted"`).
fn resolve_model(
    inner: &ServerInner,
    spec: &StudyFitSpec,
    fit: bool,
) -> Result<(Arc<ModelEntry>, &'static str, Value), ServeError> {
    let slug = spec.key().slug();
    {
        let models = inner.models.lock().expect("model map poisoned");
        if let Some(entry) = models.get(&slug) {
            entry.last_used.store(
                inner.clock.fetch_add(1, Ordering::Relaxed),
                Ordering::Relaxed,
            );
            inner.stats.model_cache_hits.incr();
            return Ok((Arc::clone(entry), "hit", Value::Null));
        }
    }
    inner.stats.model_cache_misses.incr();
    // Fit/load outside the map lock: campaigns take minutes and other
    // models must keep serving. The registry's own per-key discipline
    // collapses duplicate concurrent fits.
    let (outcome, how) = if fit {
        let outcome = inner
            .registry
            .get_or_fit_study(spec)
            .map_err(|e| ServeError::internal(e.to_string()))?;
        let how = if outcome.warm { "warm" } else { "fitted" };
        (outcome, how)
    } else {
        let found = inner
            .registry
            .get(&spec.key(), spec.fingerprint())
            .map_err(|e| ServeError::internal(e.to_string()))?;
        let outcome = found.ok_or_else(|| {
            ServeError::not_found(format!("no model for {}: POST /fit first", spec.key()))
        })?;
        (outcome, "warm")
    };
    if how == "warm" {
        inner.stats.warm_loads.incr();
    }
    let payload = outcome.payload.clone();
    let stamp = inner.clock.fetch_add(1, Ordering::Relaxed);
    let entry = Arc::new(ModelEntry {
        space: spec.study.space(),
        ensemble: outcome.model,
        loaded_at: Instant::now(),
        last_used: AtomicU64::new(stamp),
        queue: Mutex::new(Vec::new()),
        sweep: Mutex::new(()),
    });
    let mut models = inner.models.lock().expect("model map poisoned");
    // Bound the map: evict the least-recently-used model to make room.
    // Evicted ensembles reload warm from the registry on next use; an
    // in-flight coalesced sweep keeps its entry alive through its `Arc`.
    while !models.contains_key(&slug) && models.len() >= inner.config.max_models.max(1) {
        let Some(victim) = models
            .iter()
            .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
            .map(|(k, _)| k.clone())
        else {
            break;
        };
        models.remove(&victim);
        inner.stats.models_evicted.incr();
    }
    let entry = Arc::clone(models.entry(slug).or_insert(entry));
    entry.last_used.store(stamp, Ordering::Relaxed);
    Ok((entry, how, payload))
}

fn handle_fit(inner: &ServerInner, body: &str) -> Result<Value, ServeError> {
    let body =
        Value::parse(body).map_err(|e| ServeError::bad_request(format!("body not JSON: {e}")))?;
    let spec = spec_from_json(&body)?;
    let (_, how, payload) = resolve_model(inner, &spec, true)?;
    Ok(Value::Object(vec![
        ("ok".into(), Value::Bool(true)),
        ("model".into(), Value::Str(spec.key().slug())),
        ("warm".into(), Value::Bool(how != "fitted")),
        ("cache".into(), Value::Str(how.into())),
        ("payload".into(), payload),
        (
            "fits_performed".into(),
            Value::num(inner.registry.fits_performed() as f64),
        ),
    ]))
}

fn handle_predict(inner: &ServerInner, body: &str) -> Result<Value, ServeError> {
    let body =
        Value::parse(body).map_err(|e| ServeError::bad_request(format!("body not JSON: {e}")))?;
    let spec = spec_from_json(&body)?;
    let indices = body
        .get("indices")
        .map_err(|_| ServeError::bad_request("missing field \"indices\""))?
        .as_array()
        .map_err(|e| ServeError::bad_request(format!("indices: {e}")))?
        .iter()
        .map(|v| v.as_usize())
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| ServeError::bad_request(format!("indices: {e}")))?;
    let (entry, how, _) = resolve_model(inner, &spec, false)?;
    let space_size = entry.space.size();
    if let Some(&bad) = indices.iter().find(|&&i| i >= space_size) {
        return Err(ServeError::bad_request(format!(
            "index {bad} out of range for {} ({space_size} points)",
            spec.key()
        )));
    }
    let (predictions, batch) = predict_coalesced(inner, &entry, indices)?;
    inner.stats.predictions.add(predictions.len() as u64);
    let age_ms = entry.loaded_at.elapsed().as_secs_f64() * 1e3;
    Ok(Value::Object(vec![
        ("ok".into(), Value::Bool(true)),
        ("model".into(), Value::Str(spec.key().slug())),
        (
            "predictions".into(),
            Value::Array(predictions.into_iter().map(Value::num).collect()),
        ),
        (
            "stats".into(),
            Value::Object(vec![
                ("cache".into(), Value::Str(how.into())),
                ("model_age_ms".into(), Value::num(age_ms)),
                ("batch_jobs".into(), Value::num(batch.jobs as f64)),
                ("batch_indices".into(), Value::num(batch.indices as f64)),
                ("coalesced".into(), Value::Bool(batch.jobs > 1)),
            ]),
        ),
    ]))
}

/// Queues one prediction job and takes the model's sweep lock. If an
/// earlier holder swept the job, its result is waiting; otherwise this
/// request sweeps every queued job as one batch (see module docs).
///
/// The sweep runs under `catch_unwind`: on a panic (or an injected
/// [`FP_SWEEP`] failure) every slot of the batch gets the error before the
/// panic resumes. The unwind poisons the sweep lock, which the next
/// request recovers, so a failed sweep cannot wedge the model.
fn predict_coalesced(
    inner: &ServerInner,
    entry: &ModelEntry,
    indices: Vec<usize>,
) -> Result<(Vec<f64>, BatchTelemetry), ServeError> {
    let slot = Arc::new(JobSlot::default());
    entry.queue.lock().expect("job queue poisoned").push(Job {
        indices,
        slot: Arc::clone(&slot),
    });
    // The lock guards no data a panicking holder could leave half-updated.
    let _sweeping = entry.sweep.lock().unwrap_or_else(PoisonError::into_inner);
    if slot.lock().expect("job slot poisoned").is_none() {
        let jobs = std::mem::take(&mut *entry.queue.lock().expect("job queue poisoned"));
        let all: Vec<usize> = jobs
            .iter()
            .flat_map(|j| j.indices.iter().copied())
            .collect();
        let swept = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(failure) = failpoint::check(FP_SWEEP) {
                return Err(failure.into_io_error(FP_SWEEP).to_string());
            }
            // The sweeping request's trace covers the whole batch, so the
            // other jobs' work is attributed to the request that swept it.
            let _sweep_span = telemetry::span("serve.sweep");
            Ok(infer::predict_indices(
                &entry.ensemble,
                &entry.space,
                &all,
                Parallelism::Auto,
            ))
        }));
        let fill_all = |message: String| {
            for job in &jobs {
                *job.slot.lock().expect("job slot poisoned") = Some(Err(message.clone()));
            }
        };
        match swept {
            Ok(Ok(predictions)) => {
                let batch = BatchTelemetry {
                    jobs: jobs.len(),
                    indices: all.len(),
                };
                inner.stats.predict_batches.incr();
                inner.stats.coalesced_jobs.add(batch.jobs as u64);
                let mut offset = 0;
                for job in jobs {
                    let span = predictions[offset..offset + job.indices.len()].to_vec();
                    offset += job.indices.len();
                    *job.slot.lock().expect("job slot poisoned") = Some(Ok((span, batch)));
                }
            }
            Ok(Err(message)) => fill_all(format!("coalesced sweep failed: {message}")),
            Err(panic) => {
                fill_all(format!(
                    "coalesced sweep panicked: {}",
                    panic_message(panic.as_ref())
                ));
                // The sweeping request's own connection still reports the
                // panic (500 + panics_caught) through handle_connection.
                std::panic::resume_unwind(panic);
            }
        }
    }
    let share = slot
        .lock()
        .expect("job slot poisoned")
        .take()
        .expect("a sweep fills every slot of its batch before releasing the lock");
    share.map_err(ServeError::internal)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_full_and_minimal_bodies() {
        let minimal =
            Value::parse(r#"{"study":"memory","app":"gzip","seed":"00a5ceed","budget":40}"#)
                .unwrap();
        let spec = spec_from_json(&minimal).unwrap();
        assert_eq!(spec.study, Study::MemorySystem);
        assert_eq!(spec.benchmark, Benchmark::Gzip);
        assert_eq!(spec.config.seed, 0x00A5_CEED);
        assert_eq!(spec.config.max_samples, 40);
        assert!(!spec.quick);
        assert_eq!(spec.encoder_name(), "plain");

        let full = Value::parse(
            r#"{"study":"processor","app":"mcf","seed":"2a","budget":100,"quick":true,
               "batch":25,"folds":5,"target_error":2.5,"pool_factor":4}"#,
        )
        .unwrap();
        let spec = spec_from_json(&full).unwrap();
        assert_eq!(spec.study, Study::Processor);
        assert_eq!(spec.config.seed, 0x2A);
        assert_eq!(spec.config.batch, 25);
        assert_eq!(spec.config.folds, 5);
        assert_eq!(spec.config.target_error, 2.5);
        assert!(matches!(
            spec.config.strategy,
            Strategy::Active { pool_factor: 4 }
        ));
        assert!(spec.quick);
        assert_eq!(spec.encoder_name(), "plain-qbc4-quick");
    }

    #[test]
    fn spec_rejects_bad_fields() {
        for body in [
            r#"{"app":"gzip","seed":"1","budget":40}"#,
            r#"{"study":"memory","app":"nope","seed":"1","budget":40}"#,
            r#"{"study":"nope","app":"gzip","seed":"1","budget":40}"#,
            r#"{"study":"memory","app":"gzip","seed":"zz","budget":40}"#,
        ] {
            let value = Value::parse(body).unwrap();
            assert!(spec_from_json(&value).is_err(), "accepted {body}");
        }
    }

    #[test]
    fn health_stats_and_unknown_endpoints() {
        let root =
            std::env::temp_dir().join(format!("archpredict_serve_http_{}", std::process::id()));
        let server = Server::bind(
            "127.0.0.1:0",
            ServeConfig {
                registry_root: root.clone(),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let handle = server.spawn();
        let addr = handle.addr();

        let (status, body) = http_request(addr, "GET", "/health", None).unwrap();
        assert_eq!(status, 200);
        assert!(body.get("ok").unwrap().as_bool().unwrap());

        let (status, body) = http_request(addr, "GET", "/stats", None).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body.get("predictions").unwrap().as_u64().unwrap(), 0);

        let (status, body) = http_request(addr, "GET", "/nope", None).unwrap();
        assert_eq!(status, 404);
        assert!(!body.get("ok").unwrap().as_bool().unwrap());

        // Predicting a never-fitted model is a loud 404, not a fit.
        let (status, _) = http_request(
            addr,
            "POST",
            "/predict",
            Some(r#"{"study":"memory","app":"gzip","seed":"7","budget":9,"indices":[0]}"#),
        )
        .unwrap();
        assert_eq!(status, 404);

        handle.shutdown();
        std::fs::remove_dir_all(&root).ok();
    }

    /// Sends raw bytes and returns the response status line.
    fn raw_request(addr: SocketAddr, bytes: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(bytes).unwrap();
        let mut reader = BufReader::new(stream);
        let mut status_line = String::new();
        reader.read_line(&mut status_line).unwrap();
        status_line
    }

    #[test]
    fn oversized_and_excessive_headers_are_rejected() {
        let root =
            std::env::temp_dir().join(format!("archpredict_serve_bounds_{}", std::process::id()));
        let server = Server::bind(
            "127.0.0.1:0",
            ServeConfig {
                registry_root: root.clone(),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let handle = server.spawn();
        let addr = handle.addr();

        // One header line far past MAX_HEADER_LINE: refused, not buffered.
        let huge = format!(
            "GET /health HTTP/1.1\r\nX-Junk: {}\r\n\r\n",
            "a".repeat(MAX_HEADER_LINE * 4)
        );
        assert!(raw_request(addr, huge.as_bytes()).contains("400"));

        // More header lines than MAX_HEADERS: refused.
        let mut many = String::from("GET /health HTTP/1.1\r\n");
        for i in 0..(MAX_HEADERS * 2) {
            many.push_str(&format!("X-H{i}: v\r\n"));
        }
        many.push_str("\r\n");
        assert!(raw_request(addr, many.as_bytes()).contains("400"));

        // A sane request still works after the abuse.
        let (status, _) = http_request(addr, "GET", "/health", None).unwrap();
        assert_eq!(status, 200);

        handle.shutdown();
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn connection_gate_bounds_concurrency_and_releases() {
        let gate = Arc::new(ConnectionGate::new(2));
        let a = gate.acquire_timeout(Duration::from_secs(5)).unwrap();
        let _b = gate.acquire_timeout(Duration::from_secs(5)).unwrap();
        // Third acquire waits until a permit drops.
        let gate2 = Arc::clone(&gate);
        let waiter =
            std::thread::spawn(move || gate2.acquire_timeout(Duration::from_secs(5)).is_some());
        std::thread::sleep(Duration::from_millis(20));
        assert!(!waiter.is_finished(), "third connection must wait");
        drop(a);
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn saturated_gate_times_out_instead_of_blocking_forever() {
        let gate = Arc::new(ConnectionGate::new(1));
        let held = gate.acquire_timeout(Duration::from_secs(5)).unwrap();
        let start = Instant::now();
        assert!(
            gate.acquire_timeout(Duration::from_millis(30)).is_none(),
            "saturated gate must shed, not block"
        );
        assert!(start.elapsed() >= Duration::from_millis(25));
        // Idle-wait sees the outstanding permit, then its return.
        assert!(!gate.wait_idle(Instant::now() + Duration::from_millis(20)));
        drop(held);
        assert!(gate.wait_idle(Instant::now() + Duration::from_secs(5)));
    }

    /// Answers every connection at the returned address with `status` and
    /// `body` until the listener is dropped with the thread.
    fn fake_daemon(status: &'static str, body: &'static str) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake daemon");
        let addr = listener.local_addr().expect("local addr");
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { break };
                let mut buf = [0u8; 1024];
                let _ = stream.read(&mut buf);
                let response = format!(
                    "HTTP/1.1 {status}\r\nContent-Type: application/json\r\n\
                     Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                    body.len()
                );
                let _ = stream.write_all(response.as_bytes());
            }
        });
        addr
    }

    #[test]
    fn ready_wait_passes_a_ready_daemon() {
        let addr = fake_daemon("200 OK", r#"{"ok":true,"ready":true,"draining":false}"#);
        wait_ready(addr, Duration::from_secs(5)).expect("ready daemon passes the wait");
    }

    /// Regression for the `/health` -> `/ready` switch: a draining daemon
    /// is alive (its `/health` would answer 200) but answers `/ready`
    /// with 503, and the readiness wait must reject it instead of handing
    /// it to a harness.
    #[test]
    fn ready_wait_rejects_a_draining_daemon() {
        let addr = fake_daemon(
            "503 Service Unavailable",
            r#"{"ok":false,"error":"draining; not accepting new work"}"#,
        );
        let err = wait_ready(addr, Duration::from_millis(200))
            .expect_err("draining daemon must fail the wait");
        assert!(err.contains("503"), "error should carry the probe: {err}");
    }

    #[test]
    fn ready_wait_requires_the_ready_flag_not_just_a_200() {
        // A liveness-style answer (200 without `ready: true`) must not
        // satisfy a readiness wait.
        let addr = fake_daemon("200 OK", r#"{"ok":true,"ready":false,"draining":true}"#);
        wait_ready(addr, Duration::from_millis(200))
            .expect_err("200 with ready=false must fail the wait");
    }
}
