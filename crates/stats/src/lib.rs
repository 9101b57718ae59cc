//! Statistical substrate for the `archpredict` workspace.
//!
//! This crate collects the deterministic, dependency-free numerical building
//! blocks that every other crate in the workspace relies on:
//!
//! * [`rng`] — fast, seedable, portable pseudo-random number generators
//!   ([`rng::SplitMix64`], [`rng::Xoshiro256`]). Every stochastic component in
//!   the workspace (workload generation, design-space sampling, neural-network
//!   initialization) draws from these so that experiments are bit-reproducible
//!   across runs and platforms.
//! * [`describe`] — online (Welford) accumulators and summaries for mean,
//!   variance, standard deviation and extrema, and the paper's error metric
//!   ([`describe::percent_error`]).
//! * [`sampling`] — shuffling and sampling without replacement, including the
//!   incremental batch sampler that backs the paper's "collect 50 more
//!   simulations" refinement loop.
//! * [`kmeans`] — k-means clustering with k-means++ seeding and BIC model
//!   selection, used by the SimPoint reimplementation.
//! * [`plackett_burman`] — Plackett–Burman fractional-factorial designs with
//!   foldover, used to rank design-parameter significance (Yi et al.,
//!   HPCA 2003; paper §4).
//! * [`linear`] — ordinary least-squares linear regression, the ablation
//!   baseline against the paper's neural-network surrogate.
//! * [`fastmath`] — deterministic, autovectorizable elementary functions
//!   (currently `exp`), used by the neural-network kernels so hot loops
//!   containing the sigmoid still vectorize.
//! * [`hash`] — FNV-1a content hashing, used by the model registry for
//!   artifact addressing and design-space fingerprints.
//!
//! # Example
//!
//! ```
//! use archpredict_stats::rng::Xoshiro256;
//! use archpredict_stats::describe::Accumulator;
//!
//! let mut rng = Xoshiro256::seed_from(42);
//! let mut acc = Accumulator::new();
//! for _ in 0..10_000 {
//!     acc.add(rng.next_f64());
//! }
//! assert!((acc.mean() - 0.5).abs() < 0.02);
//! ```

pub mod describe;
pub mod fastmath;
pub mod hash;
pub mod json;
pub mod kmeans;
pub mod linear;
pub mod plackett_burman;
pub mod rng;
pub mod sampling;

pub use describe::Accumulator;
pub use rng::{SplitMix64, Xoshiro256};
