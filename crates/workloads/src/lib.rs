//! Synthetic SPEC CPU2000-like statistical workloads.
//!
//! The paper runs four SPEC CINT2000 (gzip, mcf, crafty, twolf) and four
//! SPEC CFP2000 (mgrid, applu, mesa, equake) benchmarks with MinneSPEC
//! reduced inputs. SPEC binaries and inputs are proprietary and outside the
//! scope of a pure-Rust reproduction, so this crate substitutes each
//! benchmark with a **deterministic statistical trace generator** whose
//! published qualitative character is preserved:
//!
//! * instruction mix (integer vs floating point, load/store/branch density),
//! * instruction-level parallelism (producer–consumer dependency distances),
//! * branch behavior (per-static-branch bias, loop periodicity, entropy),
//! * memory behavior (a hierarchy of working sets with sequential, strided,
//!   and pointer-chasing access components), and
//! * program **phases** (the generator cycles through distinct phase
//!   profiles, which is what gives SimPoint something to find).
//!
//! Determinism is the load-bearing property: `SIM(config, app)` must be a
//! pure function for the paper's methodology to be measurable, so a given
//! `(benchmark, interval)` pair always produces the identical instruction
//! sequence, independent of the architecture simulating it.
//!
//! # Example
//!
//! ```
//! use archpredict_workloads::{Benchmark, TraceGenerator};
//!
//! let generator = TraceGenerator::new(Benchmark::Mcf);
//! let a: Vec<_> = generator.interval(0).take(100).collect();
//! let b: Vec<_> = generator.interval(0).take(100).collect();
//! assert_eq!(a, b); // bit-reproducible
//! ```

pub mod instr;
pub mod packed;
pub mod profile;
pub mod spec;
pub mod trace;

pub use instr::{Instruction, OpClass};
pub use packed::{PackedInterval, Replay};
pub use profile::{BranchMix, MemoryMix, OpMix, Phase, WorkloadProfile};
pub use spec::Benchmark;
pub use trace::{IntervalTrace, TraceGenerator};
