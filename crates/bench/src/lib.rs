//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each binary in `src/bin/` reproduces one artifact:
//!
//! | binary       | paper artifact                                         |
//! |--------------|--------------------------------------------------------|
//! | `spaces`     | Tables 4.1 / 4.2 (design-space definitions & sizes)    |
//! | `table_5_1`  | Table 5.1 (true & estimated error at ≈1/2/4 % samples) |
//! | `fig_5_1`    | Fig. 5.1 / A.1 (learning curves, both studies)         |
//! | `fig_5_2`    | Fig. 5.2 / A.2 (estimated vs true, memory study)       |
//! | `fig_5_3`    | Fig. 5.3 / A.3 (estimated vs true, processor study)    |
//! | `fig_5_4`    | Fig. 5.4 (learning curves, ANN + SimPoint)             |
//! | `fig_5_5`    | Fig. 5.5 (estimated vs true, ANN + SimPoint)           |
//! | `fig_5_6`    | Fig. 5.6 (reduction factors at error targets)          |
//! | `fig_5_7`    | Fig. 5.7 (SimPoint vs ANN contribution decomposition)  |
//! | `fig_5_8`    | Fig. 5.8 (ensemble training time vs training-set size) |
//! | `pb_ranking` | §4's Plackett–Burman parameter-significance check      |
//!
//! All binaries share [`ExperimentOpts`] (a tiny `--flag value` parser) and
//! default to *scaled* experiments sized for a laptop: true error is
//! measured on a fixed random held-out subset rather than the entire space,
//! and learning curves use coarser batch steps. `--full` restores
//! paper-scale settings where feasible. Outputs are printed as aligned
//! tables and written as CSV under `results/`.

pub mod daemon;
pub mod opts;
pub mod runner;

pub use archpredict::serve::wait_ready;
pub use daemon::locate_served_binary;
pub use opts::ExperimentOpts;
pub use runner::{
    curve_for, reduction_analysis, registered_curve_for, run_curves, run_figure, write_artifact,
    CurveOpts, ReductionRow, StudyCurve,
};
