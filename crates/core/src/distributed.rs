//! One constant that the `perf` benchmark still names. All simulation
//! runs in-process, through the scoped-thread fan-out of
//! [`crate::simulate`].

/// Once the worker-process count of a process-pool oracle. No code reads
/// this variable; the `perf` benchmark still refuses to start while it
/// is set.
pub const ENV_SIM_WORKERS: &str = "ARCHPREDICT_SIM_WORKERS";
