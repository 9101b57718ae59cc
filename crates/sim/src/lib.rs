//! Cycle-level out-of-order processor and memory-hierarchy simulator.
//!
//! This crate plays the role SESC plays in the paper (§4): a detailed,
//! execution-ordered timing model of an out-of-order core and its memory
//! subsystem, with latency and contention modeled at all levels. It is
//! trace-driven — instruction streams come from `archpredict-workloads` —
//! which is sufficient here because every parameter the paper varies
//! (Tables 4.1/4.2) is a *timing* parameter, not a functional one.
//!
//! Modeled structures:
//!
//! * fetch/issue/commit-width-limited pipeline with a reorder buffer,
//!   separate load/store queues, physical register files, and an in-flight
//!   branch cap;
//! * per-family functional-unit throughput (integer ALU / FP / multiply);
//! * 21264-style tournament branch predictor and a 2-way BTB;
//! * L1I/L1D/L2 set-associative caches (write-through or write-back L1D),
//!   an occupancy-tracked L2 bus at core frequency, an occupancy-tracked
//!   front-side bus, and fixed-latency SDRAM;
//! * cache latencies derived from geometry via `archpredict-cacti`, and a
//!   branch misprediction penalty derived from core frequency.
//!
//! # Example
//!
//! ```
//! use archpredict_sim::{simulate, SimConfig};
//! use archpredict_workloads::{Benchmark, TraceGenerator};
//!
//! let config = SimConfig::default();
//! let generator = TraceGenerator::new(Benchmark::Gzip);
//! let result = simulate(&config, generator.interval(0), 2000);
//! assert_eq!(result.instructions, 2000);
//! assert!(result.ipc() > 0.0);
//! ```

pub mod branch;
pub mod cache;
pub mod config;
pub mod dram;
mod engine;
pub mod memory;
pub mod result;

pub use config::{CacheParams, ConfigError, DerivedTiming, SimConfig, WritePolicy};
pub use engine::lookahead;
pub use result::SimResult;

use archpredict_workloads::Instruction;

/// Runs the simulator: commits up to `instructions` instructions from
/// `trace` under `config`, returning timing and event statistics.
///
/// If the trace ends early, the pipeline drains and the result reports the
/// instructions actually committed.
///
/// # Panics
///
/// Panics if `config` is invalid (validate with [`SimConfig::derive`]
/// first when configurations come from untrusted input) or if the engine
/// detects an internal deadlock (a simulator bug, not a user error).
pub fn simulate<I>(config: &SimConfig, trace: I, instructions: u64) -> SimResult
where
    I: Iterator<Item = Instruction>,
{
    engine::Engine::with_warmup(config, trace, 0, instructions).run()
}

/// Like [`simulate`], but commits `warmup` instructions first to warm
/// caches and predictors; statistics cover only the following `measured`
/// instructions. This is the standard remedy for compulsory-miss bias when
/// measuring short traces.
///
/// # Panics
///
/// Same conditions as [`simulate`].
pub fn simulate_with_warmup<I>(
    config: &SimConfig,
    trace: I,
    warmup: u64,
    measured: u64,
) -> SimResult
where
    I: Iterator<Item = Instruction>,
{
    engine::Engine::with_warmup(config, trace, warmup, measured).run()
}
