//! Multi-process simulation workers: the distributed oracle.
//!
//! One host's cores are already saturated by the in-process scoped-thread
//! fan-out ([`crate::simulate::evaluate_indices`]); the next scaling step
//! is **processes**. [`ProcessPoolOracle`] fork/execs N copies of the
//! `archpredict-worker` binary and speaks a length-prefixed binary
//! protocol over each worker's stdin/stdout (see [`proto`]): a magic +
//! version handshake, a [`WorkerSpec`] config frame describing the
//! evaluator to build, then `EVAL` span requests answered by per-index
//! `RESULT` replies with bit-exact `f64` encoding (`f64::to_bits`).
//!
//! # Determinism contract
//!
//! The pool honors the batch-oracle contract of [`crate::simulate`]
//! exactly: the coordinator assigns **contiguous index spans** (the same
//! split the in-process fan-out uses) and merges replies in input order,
//! each result depends only on its own design-point index, and workers run
//! the very same evaluator code the coordinator would run in-process — so
//! results are **bit-for-bit identical at every worker count**, including
//! `0`, which skips the pool entirely and falls back to the in-process
//! fan-out.
//!
//! # Fault handling
//!
//! A worker that dies (EOF / nonzero exit) surfaces the index it was
//! evaluating as [`SimError::Crashed`]; a span that exceeds the pool's
//! wall-clock deadline kills the worker and surfaces the in-flight index
//! as [`SimError::TimedOut`]. In both cases the dead worker is respawned
//! and the *rest* of its span is reassigned, so batchmates are never
//! poisoned. Both errors are retriable, so the whole path flows through
//! [`crate::simulate::RetryingOracle`]'s retry/quarantine unchanged.
//!
//! # Layering
//!
//! `ProcessPoolOracle` implements [`PointEvaluator`] (claiming the batch
//! fan-out via [`PointEvaluator::dispatch_batch`]), so it slots beneath
//! [`CachedEvaluator`](crate::simulate::CachedEvaluator) — in-batch dedup,
//! memoization and CSV persist/preload all still apply — and beneath
//! [`RetryingOracle`](crate::simulate::RetryingOracle) above that:
//!
//! ```text
//! RetryingOracle<CachedEvaluator<ProcessPoolOracle>>
//!      retries/quarantine   dedup/persist   process fan-out
//! ```
//!
//! Worker count comes from [`ProcessPoolOracle::with_workers`] or the
//! [`ENV_SIM_WORKERS`] environment knob (mirroring the in-process
//! `ARCHPREDICT_SIM_THREADS`); the per-span deadline from
//! [`ProcessPoolOracle::set_span_timeout`] or [`ENV_SPAN_TIMEOUT_MS`].

use crate::simulate::{PointEvaluator, SimBudget, SimError, SimResult, StudyEvaluator};
use crate::space::{DesignPoint, DesignSpace};
use crate::studies::Study;
use crate::telemetry::{self, Counter};
use archpredict_workloads::{Benchmark, TraceGenerator};
use std::io::{self, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// Environment variable selecting the worker-process count for
/// [`ProcessPoolOracle::from_env`] (the process analogue of
/// `ARCHPREDICT_SIM_THREADS`). Absent or `0` means in-process fallback.
pub const ENV_SIM_WORKERS: &str = "ARCHPREDICT_SIM_WORKERS";

/// Environment variable setting the default per-span wall-clock deadline,
/// in milliseconds. Absent or `0` means no deadline.
pub const ENV_SPAN_TIMEOUT_MS: &str = "ARCHPREDICT_SIM_SPAN_TIMEOUT_MS";

/// Environment variable overriding where the `archpredict-worker` binary
/// is looked up (default: next to the current executable).
pub const ENV_WORKER_BIN: &str = "ARCHPREDICT_WORKER_BIN";

/// How long a freshly spawned worker gets to complete the version
/// handshake before the coordinator gives up on it.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// Failpoint site evaluated before each `EVAL` frame send: firing makes
/// the coordinator treat the worker as dead-idle (reap, respawn, retry
/// the same span) — the between-spans death shape.
pub const FP_SPAN_SEND: &str = "distributed.span.send";
/// Failpoint site evaluated by `archpredict-worker` before each index it
/// evaluates (the worker installs its plan from the environment). The
/// `abort` action is a real mid-span worker death; `error` makes the
/// worker exit after failing the current index.
pub const FP_WORKER_EVAL: &str = "distributed.worker.eval";

/// The coordinator ↔ worker wire protocol.
///
/// Every frame is a little-endian `u32` payload length followed by the
/// payload; the payload's first byte is an opcode. Streams open with an
/// 8-byte un-framed handshake ([`proto::handshake`]: 4 magic bytes, `u16`
/// version, 2 reserved zero bytes) written by the coordinator and echoed
/// verbatim by the worker, so a version skew or a wrong binary is caught
/// before any frame is parsed. Floats travel as `f64::to_bits`, so values
/// cross the pipe bit-exactly — including NaN payloads.
pub mod proto {
    use crate::simulate::{SimError, SimResult};
    use std::io::{self, Read, Write};

    /// Magic bytes opening every stream.
    pub const MAGIC: [u8; 4] = *b"APWK";
    /// Protocol version (bumped on any framing or spec-encoding change).
    /// Version 2 added the `u64` trace ID carried by `EVAL`, `RESULT`
    /// and `SPAN_DONE`, propagating [`crate::telemetry`] trace context
    /// across the process boundary.
    pub const VERSION: u16 = 2;
    /// Frames larger than this are rejected as protocol desync (a length
    /// prefix of garbage bytes must not trigger a giant allocation).
    pub const MAX_FRAME: u32 = 1 << 26;

    /// Coordinator → worker: [`super::WorkerSpec`] configuration.
    pub const OP_CONFIG: u8 = 0x01;
    /// Coordinator → worker: evaluate a span of design-point indices.
    pub const OP_EVAL: u8 = 0x02;
    /// Coordinator → worker: exit cleanly.
    pub const OP_SHUTDOWN: u8 = 0x03;
    /// Worker → coordinator: one index's [`SimResult`].
    pub const OP_RESULT: u8 = 0x81;
    /// Worker → coordinator: span finished (carries the reply count).
    pub const OP_SPAN_DONE: u8 = 0x82;

    /// The 8-byte stream-opening handshake: magic, version, reserved.
    pub fn handshake() -> [u8; 8] {
        let v = VERSION.to_le_bytes();
        [MAGIC[0], MAGIC[1], MAGIC[2], MAGIC[3], v[0], v[1], 0, 0]
    }

    fn bad(message: impl Into<String>) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, message.into())
    }

    /// Writes one length-prefixed frame.
    pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
        w.write_all(&(payload.len() as u32).to_le_bytes())?;
        w.write_all(payload)
    }

    /// Reads one length-prefixed frame. An EOF at a frame boundary (or
    /// mid-frame) surfaces as the underlying read error.
    pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
        let mut len = [0u8; 4];
        r.read_exact(&mut len)?;
        let len = u32::from_le_bytes(len);
        if len == 0 || len > MAX_FRAME {
            return Err(bad(format!("frame length {len} out of range")));
        }
        let mut payload = vec![0u8; len as usize];
        r.read_exact(&mut payload)?;
        Ok(payload)
    }

    /// Encodes an `EVAL` payload: opcode, `u64` trace ID, `u32` count,
    /// `u64` indices. The trace ID (0 = untraced) is echoed back in every
    /// `RESULT` and the closing `SPAN_DONE`, tying worker events to the
    /// coordinator-side request that caused them.
    pub fn encode_eval(trace: u64, indices: &[usize]) -> Vec<u8> {
        let mut p = Vec::with_capacity(13 + 8 * indices.len());
        p.push(OP_EVAL);
        p.extend_from_slice(&trace.to_le_bytes());
        p.extend_from_slice(&(indices.len() as u32).to_le_bytes());
        for &index in indices {
            p.extend_from_slice(&(index as u64).to_le_bytes());
        }
        p
    }

    /// Decodes an `EVAL` body (everything after the opcode byte) into
    /// `(trace, indices)`.
    pub fn decode_eval(body: &[u8]) -> io::Result<(u64, Vec<u64>)> {
        if body.len() < 12 {
            return Err(bad("truncated EVAL frame"));
        }
        let trace = u64::from_le_bytes([
            body[0], body[1], body[2], body[3], body[4], body[5], body[6], body[7],
        ]);
        let count = u32::from_le_bytes([body[8], body[9], body[10], body[11]]) as usize;
        let rest = &body[12..];
        if rest.len() != 8 * count {
            return Err(bad(format!(
                "EVAL frame claims {count} indices but carries {} bytes",
                rest.len()
            )));
        }
        let indices = rest
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
            .collect();
        Ok((trace, indices))
    }

    /// The wire tag for a [`SimResult`]: `0` = ok, else the error code.
    pub fn result_tag(result: &SimResult) -> u8 {
        match result {
            Ok(_) => 0,
            Err(SimError::Transient) => 1,
            Err(SimError::Crashed) => 2,
            Err(SimError::NonFinite) => 3,
            Err(SimError::TimedOut) => 4,
            Err(SimError::Quarantined) => 5,
        }
    }

    /// Inverse of [`result_tag`] for the error range.
    pub fn error_from_tag(tag: u8) -> Option<SimError> {
        match tag {
            1 => Some(SimError::Transient),
            2 => Some(SimError::Crashed),
            3 => Some(SimError::NonFinite),
            4 => Some(SimError::TimedOut),
            5 => Some(SimError::Quarantined),
            _ => None,
        }
    }

    /// Encodes a `RESULT` payload: opcode, `u64` trace ID (echoed from
    /// the `EVAL` frame), `u64` index, tag, `f64` bits.
    pub fn encode_result(trace: u64, index: u64, result: &SimResult) -> Vec<u8> {
        let mut p = Vec::with_capacity(26);
        p.push(OP_RESULT);
        p.extend_from_slice(&trace.to_le_bytes());
        p.extend_from_slice(&index.to_le_bytes());
        p.push(result_tag(result));
        let bits = match result {
            Ok(v) => v.to_bits(),
            Err(_) => 0,
        };
        p.extend_from_slice(&bits.to_le_bytes());
        p
    }

    /// Decodes a `RESULT` body (everything after the opcode byte) into
    /// `(trace, index, result)`.
    pub fn decode_result(body: &[u8]) -> io::Result<(u64, u64, SimResult)> {
        if body.len() != 25 {
            return Err(bad(format!("RESULT frame of {} bytes", body.len())));
        }
        let trace = u64::from_le_bytes([
            body[0], body[1], body[2], body[3], body[4], body[5], body[6], body[7],
        ]);
        let index = u64::from_le_bytes([
            body[8], body[9], body[10], body[11], body[12], body[13], body[14], body[15],
        ]);
        let tag = body[16];
        let bits = u64::from_le_bytes([
            body[17], body[18], body[19], body[20], body[21], body[22], body[23], body[24],
        ]);
        let result = if tag == 0 {
            Ok(f64::from_bits(bits))
        } else {
            Err(error_from_tag(tag).ok_or_else(|| bad(format!("unknown error tag {tag}")))?)
        };
        Ok((trace, index, result))
    }

    /// Encodes a `SPAN_DONE` payload: opcode, `u64` trace ID (echoed),
    /// `u32` reply count.
    pub fn encode_span_done(trace: u64, count: u32) -> Vec<u8> {
        let mut p = Vec::with_capacity(13);
        p.push(OP_SPAN_DONE);
        p.extend_from_slice(&trace.to_le_bytes());
        p.extend_from_slice(&count.to_le_bytes());
        p
    }

    /// Decodes a `SPAN_DONE` body (everything after the opcode byte)
    /// into `(trace, count)`.
    pub fn decode_span_done(body: &[u8]) -> io::Result<(u64, u32)> {
        if body.len() != 12 {
            return Err(bad(format!("SPAN_DONE frame of {} bytes", body.len())));
        }
        let trace = u64::from_le_bytes([
            body[0], body[1], body[2], body[3], body[4], body[5], body[6], body[7],
        ]);
        let count = u32::from_le_bytes([body[8], body[9], body[10], body[11]]);
        Ok((trace, count))
    }
}

/// Cursor over a spec-encoding buffer with typed, bounds-checked reads.
struct SpecReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SpecReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let end =
            end.ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "truncated worker spec"))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> io::Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn opt_u64(&mut self) -> io::Result<Option<u64>> {
        Ok(if self.u8()? == 0 {
            let _ = self.u64()?;
            None
        } else {
            Some(self.u64()?)
        })
    }

    fn done(&self) -> io::Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "trailing bytes after worker spec",
            ))
        }
    }
}

fn push_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    out.push(u8::from(v.is_some()));
    out.extend_from_slice(&v.unwrap_or(0).to_le_bytes());
}

/// A self-contained, wire-encodable description of the evaluator a worker
/// process should build — the unit the `CONFIG` frame carries.
///
/// Both sides of the pipe instantiate the *same* evaluator from the same
/// spec ([`WorkerSpec::evaluator`]), which is what makes the 0-worker
/// in-process fallback bit-for-bit identical to every distributed run.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerSpec {
    /// Full detailed simulation: [`StudyEvaluator`] with an explicit
    /// budget (the budget must travel, or workers would re-derive it —
    /// any drift would silently break bit-exactness).
    Study {
        /// Which design space / configuration mapping.
        study: Study,
        /// Which application's trace to simulate.
        benchmark: Benchmark,
        /// Warmup/measured instruction budget and interval schedule.
        budget: SimBudget,
    },
    /// The [`SleepyEvaluator`] test double: deterministic synthetic
    /// values, an optional per-evaluation sleep (for exercising span
    /// deadlines), an optional hard-crash index (the worker process
    /// aborts — for exercising crash recovery) and an optional NaN index
    /// (for exercising error transport).
    Sleepy {
        /// Which study's space the indices belong to.
        study: Study,
        /// Per-evaluation sleep, in microseconds.
        sleep_micros: u64,
        /// Index at which the worker process aborts (in-process fallback
        /// returns [`SimError::Crashed`] instead, keeping results
        /// identical at every worker count).
        crash_index: Option<u64>,
        /// Index that yields NaN → [`SimError::NonFinite`].
        nan_index: Option<u64>,
    },
}

const SPEC_STUDY: u8 = 0;
const SPEC_SLEEPY: u8 = 1;

fn study_tag(study: Study) -> u8 {
    match study {
        Study::MemorySystem => 0,
        Study::Processor => 1,
    }
}

fn study_from_tag(tag: u8) -> io::Result<Study> {
    match tag {
        0 => Ok(Study::MemorySystem),
        1 => Ok(Study::Processor),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown study tag {other}"),
        )),
    }
}

impl WorkerSpec {
    /// The standard full-simulation spec for `study` × `benchmark`
    /// ([`SimBudget::standard`]).
    pub fn study(study: Study, benchmark: Benchmark) -> Self {
        let generator = TraceGenerator::new(benchmark);
        WorkerSpec::Study {
            study,
            benchmark,
            budget: SimBudget::standard(&generator),
        }
    }

    /// The design space the spec's indices refer to.
    pub fn space(&self) -> DesignSpace {
        match self {
            WorkerSpec::Study { study, .. } | WorkerSpec::Sleepy { study, .. } => study.space(),
        }
    }

    /// Builds the in-process incarnation of this spec's evaluator (used
    /// by the 0-worker fallback and for single-point adapters).
    pub fn evaluator(&self) -> SpecEvaluator {
        self.build(false)
    }

    /// Builds the worker-process incarnation: identical to
    /// [`WorkerSpec::evaluator`] except that a [`WorkerSpec::Sleepy`]
    /// crash index genuinely aborts the process.
    pub fn evaluator_in_worker(&self) -> SpecEvaluator {
        self.build(true)
    }

    fn build(&self, in_worker: bool) -> SpecEvaluator {
        match self {
            WorkerSpec::Study {
                study,
                benchmark,
                budget,
            } => SpecEvaluator::Study(Box::new(StudyEvaluator::with_budget(
                *study,
                *benchmark,
                budget.clone(),
            ))),
            WorkerSpec::Sleepy {
                study,
                sleep_micros,
                crash_index,
                nan_index,
            } => SpecEvaluator::Sleepy(SleepyEvaluator {
                space: study.space(),
                sleep: Duration::from_micros(*sleep_micros),
                crash_index: crash_index.map(|i| i as usize),
                nan_index: nan_index.map(|i| i as usize),
                abort_on_crash: in_worker,
            }),
        }
    }

    /// Serializes the spec for the `CONFIG` frame (little-endian, fixed
    /// layout per variant; see [`proto`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WorkerSpec::Study {
                study,
                benchmark,
                budget,
            } => {
                out.push(SPEC_STUDY);
                out.push(study_tag(*study));
                let app = Benchmark::ALL
                    .iter()
                    .position(|b| b == benchmark)
                    .expect("benchmark is in ALL") as u8;
                out.push(app);
                out.extend_from_slice(&budget.warmup.to_le_bytes());
                out.extend_from_slice(&budget.measured.to_le_bytes());
                out.extend_from_slice(&(budget.intervals.len() as u32).to_le_bytes());
                for &interval in &budget.intervals {
                    out.extend_from_slice(&(interval as u32).to_le_bytes());
                }
            }
            WorkerSpec::Sleepy {
                study,
                sleep_micros,
                crash_index,
                nan_index,
            } => {
                out.push(SPEC_SLEEPY);
                out.push(study_tag(*study));
                out.extend_from_slice(&sleep_micros.to_le_bytes());
                push_opt_u64(&mut out, *crash_index);
                push_opt_u64(&mut out, *nan_index);
            }
        }
        out
    }

    /// Deserializes a spec from a `CONFIG` frame body.
    pub fn decode(bytes: &[u8]) -> io::Result<Self> {
        let mut r = SpecReader::new(bytes);
        let spec = match r.u8()? {
            SPEC_STUDY => {
                let study = study_from_tag(r.u8()?)?;
                let app = r.u8()? as usize;
                let benchmark = *Benchmark::ALL.get(app).ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unknown benchmark tag {app}"),
                    )
                })?;
                let warmup = r.u64()?;
                let measured = r.u64()?;
                let count = r.u32()? as usize;
                let mut intervals = Vec::with_capacity(count);
                for _ in 0..count {
                    intervals.push(r.u32()? as usize);
                }
                WorkerSpec::Study {
                    study,
                    benchmark,
                    budget: SimBudget {
                        warmup,
                        measured,
                        intervals,
                    },
                }
            }
            SPEC_SLEEPY => WorkerSpec::Sleepy {
                study: study_from_tag(r.u8()?)?,
                sleep_micros: r.u64()?,
                crash_index: r.opt_u64()?,
                nan_index: r.opt_u64()?,
            },
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown spec tag {other}"),
                ))
            }
        };
        r.done()?;
        Ok(spec)
    }
}

/// The evaluator a [`WorkerSpec`] describes, instantiable on either side
/// of the pipe.
#[derive(Debug)]
pub enum SpecEvaluator {
    /// Full detailed simulation (boxed: it carries a trace generator and
    /// its packed intervals).
    Study(Box<StudyEvaluator>),
    /// The synthetic sleepy/crashy/NaN test double.
    Sleepy(SleepyEvaluator),
}

impl PointEvaluator for SpecEvaluator {
    fn evaluate(&self, point: &DesignPoint) -> f64 {
        match self {
            SpecEvaluator::Study(e) => e.evaluate(point),
            SpecEvaluator::Sleepy(e) => e.evaluate(point),
        }
    }

    fn try_evaluate(&self, point: &DesignPoint) -> SimResult {
        match self {
            SpecEvaluator::Study(e) => e.try_evaluate(point),
            SpecEvaluator::Sleepy(e) => e.try_evaluate(point),
        }
    }

    fn instructions_per_evaluation(&self) -> u64 {
        match self {
            SpecEvaluator::Study(e) => e.instructions_per_evaluation(),
            SpecEvaluator::Sleepy(e) => e.instructions_per_evaluation(),
        }
    }
}

/// A deterministic test double that sleeps before answering — the
/// evaluator behind [`WorkerSpec::Sleepy`].
///
/// Values are a pure function of the design point (sum of level indices
/// plus one), so runs are reproducible at any worker count. The optional
/// fault knobs exercise the three distributed failure paths: `sleep`
/// drives the pool's span deadline into [`SimError::TimedOut`],
/// `crash_index` kills the worker process mid-span (in-process it returns
/// [`SimError::Crashed`], keeping placements identical), and `nan_index`
/// exercises error transport with [`SimError::NonFinite`].
#[derive(Debug)]
pub struct SleepyEvaluator {
    space: DesignSpace,
    sleep: Duration,
    crash_index: Option<usize>,
    nan_index: Option<usize>,
    abort_on_crash: bool,
}

impl SleepyEvaluator {
    /// A fault-free sleepy evaluator over `study`'s space.
    pub fn new(study: Study, sleep: Duration) -> Self {
        Self {
            space: study.space(),
            sleep,
            crash_index: None,
            nan_index: None,
            abort_on_crash: false,
        }
    }

    /// The synthetic metric at `point`: `Σ level + 1`, strictly positive.
    pub fn value_at(point: &DesignPoint) -> f64 {
        point.0.iter().sum::<usize>() as f64 + 1.0
    }
}

impl PointEvaluator for SleepyEvaluator {
    fn evaluate(&self, point: &DesignPoint) -> f64 {
        Self::value_at(point)
    }

    fn try_evaluate(&self, point: &DesignPoint) -> SimResult {
        if !self.sleep.is_zero() {
            std::thread::sleep(self.sleep);
        }
        let index = self.space.index(point);
        if Some(index) == self.crash_index {
            if self.abort_on_crash {
                // A genuine hard death: no unwinding, no cleanup, no exit
                // code 0 — exactly what a segfaulting simulator looks like
                // to the coordinator.
                std::process::abort();
            }
            return Err(SimError::Crashed);
        }
        if Some(index) == self.nan_index {
            return Err(SimError::NonFinite);
        }
        Ok(Self::value_at(point))
    }

    fn instructions_per_evaluation(&self) -> u64 {
        1
    }
}

/// A message the per-worker reader thread forwards to the coordinator.
enum Msg {
    /// The worker echoed the handshake correctly.
    Hello,
    /// One index's result, echoing the span's trace ID.
    Result {
        trace: u64,
        index: u64,
        result: SimResult,
    },
    /// The worker finished its span (`count` replies sent), echoing the
    /// span's trace ID.
    SpanDone { trace: u64, count: u32 },
    /// The worker spoke garbage; the stream is unusable.
    Malformed(String),
}

/// A live worker process: the child, its stdin, and the channel its
/// reader thread forwards replies on.
struct Worker {
    child: Child,
    stdin: ChildStdin,
    rx: mpsc::Receiver<Msg>,
    reader: Option<std::thread::JoinHandle<()>>,
    pid: u32,
}

/// Why a span round ended.
enum SpanOutcome {
    /// Every remaining index answered and `SPAN_DONE` seen.
    Done,
    /// The span deadline expired with the worker still busy.
    TimedOut,
    /// The worker died (EOF) or desynced (garbage frames).
    Died,
}

/// The multi-process simulation oracle: fan batches out across worker
/// *processes* instead of threads.
///
/// See the [module docs](self) for the protocol, determinism and fault
/// semantics. With `workers == 0` (the default of [`ENV_SIM_WORKERS`])
/// every batch runs in-process through the ordinary scoped-thread
/// fan-out — same evaluator, same results.
#[derive(Debug)]
pub struct ProcessPoolOracle {
    spec: WorkerSpec,
    fallback: SpecEvaluator,
    space_size: usize,
    binary: Option<PathBuf>,
    workers: usize,
    span_timeout: Option<Duration>,
    slots: Vec<Mutex<Option<Worker>>>,
    /// Live PID per slot (0 = empty), kept outside the slot mutexes so
    /// [`ProcessPoolOracle::worker_pids`] never blocks on a running span
    /// (crash tests SIGKILL a worker *while* its span is in flight).
    pids: Vec<AtomicU32>,
    respawns: Counter,
    timeouts: Counter,
}

impl std::fmt::Debug for Worker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Worker").field("pid", &self.pid).finish()
    }
}

impl ProcessPoolOracle {
    /// Builds a pool sized by [`ENV_SIM_WORKERS`] (0 = in-process) with
    /// the deadline from [`ENV_SPAN_TIMEOUT_MS`] (absent = none).
    pub fn from_env(spec: WorkerSpec) -> io::Result<Self> {
        Self::with_workers(spec, Self::workers_from_env())
    }

    /// Builds a pool with an explicit worker count. `workers == 0` never
    /// spawns anything; `workers >= 1` requires the `archpredict-worker`
    /// binary to be locatable (see [`locate_worker_binary`]). Workers are
    /// spawned lazily, on the first batch that needs them.
    pub fn with_workers(spec: WorkerSpec, workers: usize) -> io::Result<Self> {
        let binary = if workers == 0 {
            None
        } else {
            Some(locate_worker_binary()?)
        };
        let fallback = spec.evaluator();
        let space_size = spec.space().size();
        Ok(Self {
            spec,
            fallback,
            space_size,
            binary,
            workers,
            span_timeout: span_timeout_from_env(),
            slots: (0..workers).map(|_| Mutex::new(None)).collect(),
            pids: (0..workers).map(|_| AtomicU32::new(0)).collect(),
            respawns: Counter::mirroring("distributed.respawns", &telemetry::DISTRIBUTED_RESPAWNS),
            timeouts: Counter::mirroring("distributed.timeouts", &telemetry::DISTRIBUTED_TIMEOUTS),
        })
    }

    /// The configured worker count (0 = in-process fallback).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The spec every worker is configured with.
    pub fn spec(&self) -> &WorkerSpec {
        &self.spec
    }

    /// Replaces the per-span wall-clock deadline (`None` disables it).
    pub fn set_span_timeout(&mut self, timeout: Option<Duration>) {
        self.span_timeout = timeout;
    }

    /// The per-span deadline in force.
    pub fn span_timeout(&self) -> Option<Duration> {
        self.span_timeout
    }

    /// Workers replaced after a crash, desync or deadline kill.
    pub fn respawns(&self) -> u64 {
        self.respawns.get()
    }

    /// Spans whose deadline expired (each also counts a respawn).
    pub fn span_timeouts(&self) -> u64 {
        self.timeouts.get()
    }

    /// PIDs of the currently live workers (spawned lazily, so this is
    /// empty until the first distributed batch). Never blocks, even while
    /// spans are in flight.
    pub fn worker_pids(&self) -> Vec<u32> {
        self.pids
            .iter()
            .map(|pid| pid.load(Ordering::Relaxed))
            .filter(|&pid| pid != 0)
            .collect()
    }

    /// Resolves [`ENV_SIM_WORKERS`] (absent/unparsable = 0).
    pub fn workers_from_env() -> usize {
        std::env::var(ENV_SIM_WORKERS)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(0)
    }

    fn spawn_worker(&self) -> io::Result<Worker> {
        let binary = self.binary.as_ref().expect("spawn requires workers >= 1");
        let mut child = Command::new(binary)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let pid = child.id();
        let mut stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::Builder::new()
            .name(format!("archpredict-worker-io-{pid}"))
            .spawn(move || reader_loop(stdout, &tx))?;
        let sent = (|| {
            stdin.write_all(&proto::handshake())?;
            let mut config = vec![proto::OP_CONFIG];
            config.extend_from_slice(&self.spec.encode());
            proto::write_frame(&mut stdin, &config)?;
            stdin.flush()
        })();
        let hello = sent.is_ok() && matches!(rx.recv_timeout(HANDSHAKE_TIMEOUT), Ok(Msg::Hello));
        if !hello {
            let _ = child.kill();
            let _ = child.wait();
            let _ = reader.join();
            return Err(io::Error::other(format!(
                "worker {pid} failed the version handshake"
            )));
        }
        Ok(Worker {
            child,
            stdin,
            rx,
            reader: Some(reader),
            pid,
        })
    }

    /// Kills (if needed), reaps and joins a worker. Safe on workers that
    /// already died: `kill` on a reaped-by-nobody zombie is a no-op and
    /// `wait` collects it.
    fn reap(worker: Option<Worker>) {
        if let Some(mut w) = worker {
            let _ = w.child.kill();
            let _ = w.child.wait();
            if let Some(reader) = w.reader.take() {
                let _ = reader.join();
            }
        }
    }

    /// Drives one worker slot through one span: send the `EVAL` frame,
    /// stream replies into `out`, and on death/deadline blame exactly the
    /// in-flight index, respawn, and reassign the unfinished remainder.
    fn run_span(&self, slot_index: usize, span: &[usize], out: &mut [SimResult]) {
        let _span_event = telemetry::span("distributed.span");
        // The thread's trace ID rides the EVAL frame to the worker, which
        // echoes it in every RESULT and the closing SPAN_DONE — a reply
        // carrying the wrong trace is a protocol desync like any other.
        let trace = telemetry::current_trace();
        let mut slot = self.slots[slot_index].lock().expect("worker slot");
        // (position in `out`, design-point index) pairs still unanswered.
        let mut remaining: Vec<(usize, usize)> = span.iter().copied().enumerate().collect();
        let mut consecutive_failures = 0u32;
        while !remaining.is_empty() {
            if consecutive_failures >= 3 {
                // A worker that cannot even start a span (spawn or write
                // failing back-to-back) fails the remainder outright; the
                // retry layer above decides what happens next.
                for &(pos, _) in &remaining {
                    out[pos] = Err(SimError::Crashed);
                }
                return;
            }
            if slot.is_none() {
                match self.spawn_worker() {
                    Ok(worker) => {
                        self.pids[slot_index].store(worker.pid, Ordering::Relaxed);
                        *slot = Some(worker);
                    }
                    Err(e) => {
                        consecutive_failures += 1;
                        eprintln!("archpredict distributed: spawn failed: {e}");
                        continue;
                    }
                }
            }
            let worker = slot.as_mut().expect("slot filled above");
            let indices: Vec<usize> = remaining.iter().map(|&(_, index)| index).collect();
            // An injected send failure looks exactly like a worker that
            // died idle between spans: the coordinator reaps, respawns,
            // and retries the same indices.
            let sent = match crate::failpoint::check(FP_SPAN_SEND) {
                Some(failure) => Err(failure.into_io_error(FP_SPAN_SEND)),
                None => proto::write_frame(&mut worker.stdin, &proto::encode_eval(trace, &indices))
                    .and_then(|_| worker.stdin.flush()),
            };
            if sent.is_err() {
                // The worker died idle, between spans: nothing was in
                // flight, so nothing is blamed — just replace it.
                self.pids[slot_index].store(0, Ordering::Relaxed);
                Self::reap(slot.take());
                self.respawns.incr();
                consecutive_failures += 1;
                continue;
            }
            consecutive_failures = 0;
            let deadline = self.span_timeout.map(|t| Instant::now() + t);
            let mut answered = 0usize;
            let outcome = loop {
                let received = match deadline {
                    Some(d) => {
                        let now = Instant::now();
                        if now >= d {
                            break SpanOutcome::TimedOut;
                        }
                        match worker.rx.recv_timeout(d - now) {
                            Ok(msg) => msg,
                            Err(mpsc::RecvTimeoutError::Timeout) => break SpanOutcome::TimedOut,
                            Err(mpsc::RecvTimeoutError::Disconnected) => break SpanOutcome::Died,
                        }
                    }
                    None => match worker.rx.recv() {
                        Ok(msg) => msg,
                        Err(_) => break SpanOutcome::Died,
                    },
                };
                match received {
                    Msg::Result {
                        trace: echoed,
                        index,
                        result,
                    } if echoed == trace
                        && answered < remaining.len()
                        && index as usize == remaining[answered].1 =>
                    {
                        out[remaining[answered].0] = result;
                        answered += 1;
                    }
                    Msg::SpanDone {
                        trace: echoed,
                        count,
                    } if echoed == trace
                        && answered == remaining.len()
                        && count as usize == answered =>
                    {
                        break SpanOutcome::Done;
                    }
                    Msg::Malformed(why) => {
                        eprintln!(
                            "archpredict distributed: worker {} desynced: {why}",
                            worker.pid
                        );
                        break SpanOutcome::Died;
                    }
                    // Out-of-order replies are a protocol desync too.
                    _ => break SpanOutcome::Died,
                }
            };
            match outcome {
                SpanOutcome::Done => remaining.clear(),
                SpanOutcome::TimedOut | SpanOutcome::Died => {
                    if matches!(outcome, SpanOutcome::TimedOut) {
                        self.timeouts.incr();
                    }
                    self.pids[slot_index].store(0, Ordering::Relaxed);
                    Self::reap(slot.take());
                    self.respawns.incr();
                    if answered >= remaining.len() {
                        // Death after the final reply but before
                        // SPAN_DONE: every result already landed.
                        remaining.clear();
                    } else {
                        // Blame exactly the in-flight index — the worker
                        // answers strictly in order, so the first
                        // unanswered index is the one it was evaluating —
                        // and reassign the untouched remainder.
                        let error = if matches!(outcome, SpanOutcome::TimedOut) {
                            SimError::TimedOut
                        } else {
                            SimError::Crashed
                        };
                        out[remaining[answered].0] = Err(error);
                        remaining.drain(..=answered);
                    }
                }
            }
        }
    }
}

impl PointEvaluator for ProcessPoolOracle {
    fn evaluate(&self, point: &DesignPoint) -> f64 {
        self.fallback.evaluate(point)
    }

    fn try_evaluate(&self, point: &DesignPoint) -> SimResult {
        self.fallback.try_evaluate(point)
    }

    fn instructions_per_evaluation(&self) -> u64 {
        self.fallback.instructions_per_evaluation()
    }

    fn dispatch_batch(&self, space: &DesignSpace, indices: &[usize]) -> Option<Vec<SimResult>> {
        if self.workers == 0 || indices.is_empty() {
            return None;
        }
        assert_eq!(
            space.size(),
            self.space_size,
            "batch space does not match the pool's worker spec"
        );
        // The same contiguous-span split the in-process fan-out uses;
        // merging in input order keeps results identical at every count.
        let workers = self.workers.min(indices.len());
        let chunk = indices.len().div_ceil(workers);
        let mut results = vec![Ok(0.0); indices.len()];
        // Trace context is thread-local; capture it here and re-attach
        // inside each scoped worker thread so span frames carry the
        // caller's trace ID across the process boundary.
        let trace = telemetry::current_trace();
        std::thread::scope(|scope| {
            for (slot_index, (out, span)) in results
                .chunks_mut(chunk)
                .zip(indices.chunks(chunk))
                .enumerate()
            {
                scope.spawn(move || {
                    let _trace_scope = telemetry::set_trace(trace);
                    self.run_span(slot_index, span, out);
                });
            }
        });
        Some(results)
    }
}

impl Drop for ProcessPoolOracle {
    fn drop(&mut self) {
        for (slot_index, slot) in self.slots.iter().enumerate() {
            if let Ok(mut slot) = slot.lock() {
                if let Some(worker) = slot.as_mut() {
                    // Best-effort graceful shutdown before the reap kill.
                    let _ = proto::write_frame(&mut worker.stdin, &[proto::OP_SHUTDOWN])
                        .and_then(|_| worker.stdin.flush());
                }
                self.pids[slot_index].store(0, Ordering::Relaxed);
                Self::reap(slot.take());
            }
        }
    }
}

/// Reads frames off a worker's stdout and forwards them as [`Msg`]s until
/// EOF (worker death or shutdown) or a send failure (coordinator gone).
fn reader_loop(stdout: ChildStdout, tx: &mpsc::Sender<Msg>) {
    let mut reader = std::io::BufReader::new(stdout);
    let mut echo = [0u8; 8];
    if std::io::Read::read_exact(&mut reader, &mut echo).is_err() || echo != proto::handshake() {
        let _ = tx.send(Msg::Malformed("bad handshake echo".into()));
        return;
    }
    if tx.send(Msg::Hello).is_err() {
        return;
    }
    loop {
        let payload = match proto::read_frame(&mut reader) {
            Ok(payload) => payload,
            // EOF: dropping the sender disconnects the channel, which the
            // coordinator observes as worker death.
            Err(_) => return,
        };
        let msg = match payload.split_first() {
            Some((&proto::OP_RESULT, body)) => match proto::decode_result(body) {
                Ok((trace, index, result)) => Msg::Result {
                    trace,
                    index,
                    result,
                },
                Err(e) => Msg::Malformed(e.to_string()),
            },
            Some((&proto::OP_SPAN_DONE, body)) => match proto::decode_span_done(body) {
                Ok((trace, count)) => Msg::SpanDone { trace, count },
                Err(e) => Msg::Malformed(e.to_string()),
            },
            Some((&op, _)) => Msg::Malformed(format!("unexpected opcode {op:#04x}")),
            None => Msg::Malformed("empty frame".into()),
        };
        let malformed = matches!(msg, Msg::Malformed(_));
        if tx.send(msg).is_err() || malformed {
            return;
        }
    }
}

/// Resolves the per-span deadline from [`ENV_SPAN_TIMEOUT_MS`].
fn span_timeout_from_env() -> Option<Duration> {
    std::env::var(ENV_SPAN_TIMEOUT_MS)
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&ms| ms > 0)
        .map(Duration::from_millis)
}

/// Finds the `archpredict-worker` binary: [`ENV_WORKER_BIN`] if set, else
/// next to the current executable, else one directory up (test binaries
/// live in `target/<profile>/deps/`, the worker in `target/<profile>/`).
pub fn locate_worker_binary() -> io::Result<PathBuf> {
    if let Ok(path) = std::env::var(ENV_WORKER_BIN) {
        let path = PathBuf::from(path);
        if path.is_file() {
            return Ok(path);
        }
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "{ENV_WORKER_BIN} points at {}, which does not exist",
                path.display()
            ),
        ));
    }
    let exe = std::env::current_exe()?;
    let mut dir = exe.parent();
    for _ in 0..2 {
        if let Some(d) = dir {
            let candidate = d.join("archpredict-worker");
            if candidate.is_file() {
                return Ok(candidate);
            }
            dir = d.parent();
        }
    }
    Err(io::Error::new(
        io::ErrorKind::NotFound,
        "archpredict-worker binary not found: build it with \
         `cargo build -p archpredict-worker` or set ARCHPREDICT_WORKER_BIN",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handshake_is_magic_then_version() {
        let h = proto::handshake();
        assert_eq!(&h[..4], b"APWK");
        assert_eq!(u16::from_le_bytes([h[4], h[5]]), proto::VERSION);
        assert_eq!(&h[6..], &[0, 0]);
    }

    #[test]
    fn frame_round_trip() {
        let mut pipe: Vec<u8> = Vec::new();
        proto::write_frame(&mut pipe, &[1, 2, 3]).unwrap();
        proto::write_frame(&mut pipe, &proto::encode_span_done(0xFEED, 7)).unwrap();
        let mut cursor = &pipe[..];
        assert_eq!(proto::read_frame(&mut cursor).unwrap(), vec![1, 2, 3]);
        let done = proto::read_frame(&mut cursor).unwrap();
        assert_eq!(done[0], proto::OP_SPAN_DONE);
        assert_eq!(proto::decode_span_done(&done[1..]).unwrap(), (0xFEED, 7));
        // EOF at a frame boundary is an error the reader maps to death.
        assert!(proto::read_frame(&mut cursor).is_err());
    }

    #[test]
    fn oversized_and_empty_frames_are_rejected() {
        let mut pipe: Vec<u8> = Vec::new();
        pipe.extend_from_slice(&(proto::MAX_FRAME + 1).to_le_bytes());
        assert!(proto::read_frame(&mut &pipe[..]).is_err());
        let zero = 0u32.to_le_bytes();
        assert!(proto::read_frame(&mut &zero[..]).is_err());
    }

    #[test]
    fn eval_round_trip() {
        let indices = vec![0usize, 7, 23_039, usize::MAX >> 1];
        let trace = 0xDEAD_BEEF_0123_4567u64;
        let payload = proto::encode_eval(trace, &indices);
        assert_eq!(payload[0], proto::OP_EVAL);
        let (echoed, decoded) = proto::decode_eval(&payload[1..]).unwrap();
        let expected: Vec<u64> = indices.iter().map(|&i| i as u64).collect();
        assert_eq!(echoed, trace);
        assert_eq!(decoded, expected);
        assert!(proto::decode_eval(&payload[1..payload.len() - 1]).is_err());
    }

    #[test]
    fn result_round_trip_is_bit_exact() {
        let cases: Vec<SimResult> = vec![
            Ok(1.25),
            Ok(-0.0),
            Ok(f64::MIN_POSITIVE / 2.0),               // subnormal
            Ok(f64::from_bits(0x7FF8_0000_0000_1234)), // NaN with payload
            Err(SimError::Transient),
            Err(SimError::Crashed),
            Err(SimError::NonFinite),
            Err(SimError::TimedOut),
            Err(SimError::Quarantined),
        ];
        let trace = 0x0123_4567_89AB_CDEFu64;
        for (i, result) in cases.iter().enumerate() {
            let payload = proto::encode_result(trace, i as u64, result);
            assert_eq!(payload[0], proto::OP_RESULT);
            let (echoed, index, decoded) = proto::decode_result(&payload[1..]).unwrap();
            assert_eq!(echoed, trace);
            assert_eq!(index, i as u64);
            match (result, &decoded) {
                (Ok(a), Ok(b)) => assert_eq!(a.to_bits(), b.to_bits(), "case {i}"),
                (Err(a), Err(b)) => assert_eq!(a, b, "case {i}"),
                _ => panic!("case {i}: {result:?} decoded as {decoded:?}"),
            }
        }
        assert!(proto::decode_result(&[0u8; 16]).is_err());
        // Unknown error tag.
        let mut bogus = proto::encode_result(trace, 0, &Err(SimError::Crashed));
        bogus[17] = 99;
        assert!(proto::decode_result(&bogus[1..]).is_err());
    }

    #[test]
    fn spec_round_trips() {
        let generator = TraceGenerator::new(Benchmark::Twolf);
        let specs = vec![
            WorkerSpec::Study {
                study: Study::Processor,
                benchmark: Benchmark::Twolf,
                budget: SimBudget::spread(&generator, 3, 5_000, 9_000),
            },
            WorkerSpec::study(Study::MemorySystem, Benchmark::Gzip),
            WorkerSpec::Sleepy {
                study: Study::MemorySystem,
                sleep_micros: 1_500,
                crash_index: Some(42),
                nan_index: None,
            },
            WorkerSpec::Sleepy {
                study: Study::Processor,
                sleep_micros: 0,
                crash_index: None,
                nan_index: Some(7),
            },
        ];
        for spec in specs {
            let decoded = WorkerSpec::decode(&spec.encode()).unwrap();
            assert_eq!(spec, decoded);
        }
        assert!(WorkerSpec::decode(&[]).is_err());
        assert!(WorkerSpec::decode(&[99]).is_err());
        // Trailing garbage is rejected, not ignored.
        let mut padded = WorkerSpec::study(Study::MemorySystem, Benchmark::Gzip).encode();
        padded.push(0);
        assert!(WorkerSpec::decode(&padded).is_err());
    }

    #[test]
    fn sleepy_evaluator_matches_spec_fallback_and_faults_deterministically() {
        let spec = WorkerSpec::Sleepy {
            study: Study::MemorySystem,
            sleep_micros: 0,
            crash_index: Some(5),
            nan_index: Some(9),
        };
        let space = spec.space();
        let evaluator = spec.evaluator();
        assert_eq!(
            evaluator.try_evaluate(&space.point(5)),
            Err(SimError::Crashed)
        );
        assert_eq!(
            evaluator.try_evaluate(&space.point(9)),
            Err(SimError::NonFinite)
        );
        let p = space.point(100);
        assert_eq!(
            evaluator.try_evaluate(&p),
            Ok(SleepyEvaluator::value_at(&p))
        );
        assert_eq!(evaluator.instructions_per_evaluation(), 1);
    }

    #[test]
    fn zero_worker_pool_needs_no_binary_and_defers_to_in_process() {
        let spec = WorkerSpec::Sleepy {
            study: Study::MemorySystem,
            sleep_micros: 0,
            crash_index: None,
            nan_index: None,
        };
        let space = spec.space();
        // workers == 0 must construct even with no worker binary on disk.
        let pool = ProcessPoolOracle::with_workers(spec, 0).expect("no binary needed");
        assert_eq!(pool.workers(), 0);
        assert!(pool.dispatch_batch(&space, &[1, 2, 3]).is_none());
        assert!(pool.worker_pids().is_empty());
        let p = space.point(12);
        assert_eq!(pool.try_evaluate(&p), Ok(SleepyEvaluator::value_at(&p)));
    }
}
