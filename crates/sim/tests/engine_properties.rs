//! Property tests for the out-of-order engine on random machines: every
//! width, reorder buffer, resource count, unit and port count the draws
//! reach must simulate deterministically and keep the engine's
//! accounting identities.

use archpredict_sim::{simulate_with_warmup, SimConfig, SimResult};
use archpredict_workloads::{Benchmark, TraceGenerator};
use proptest::prelude::*;

/// Instructions committed before and during measurement: a few thousand
/// cycles per simulation, so a case takes milliseconds in a debug build.
const WARMUP: u64 = 200;
const MEASURED: u64 = 600;

fn run(config: &SimConfig, generator: &TraceGenerator, interval: usize) -> SimResult {
    simulate_with_warmup(config, generator.interval(interval), WARMUP, MEASURED)
}

/// `config` with its register, queue and branch counts set to `counts`.
fn with_counts(config: &SimConfig, counts: [u32; 5]) -> SimConfig {
    let [int_regs, fp_regs, lsq_loads, lsq_stores, max_branches] = counts;
    SimConfig {
        int_regs,
        fp_regs,
        lsq_loads,
        lsq_stores,
        max_branches,
        ..config.clone()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_machines_keep_the_engine_invariants(
        width in 1u32..9,
        rob_size in 1u32..257,
        counts in prop::collection::vec(1u32..301, 5),
        units in (1u32..9, 1u32..3, 1u32..3),
        workload in (0usize..Benchmark::ALL.len(), 0usize..1_000),
    ) {
        let (functional_units, load_ports, store_ports) = units;
        let counts: [u32; 5] = counts.try_into().expect("five counts");
        let config = with_counts(
            &SimConfig {
                width,
                rob_size,
                functional_units,
                load_ports,
                store_ports,
                ..SimConfig::default()
            },
            counts,
        );
        let generator = TraceGenerator::new(Benchmark::ALL[workload.0]);
        let interval = workload.1 % generator.num_intervals();
        let result = run(&config, &generator, interval);

        prop_assert_eq!(result, run(&config, &generator, interval));
        prop_assert!(
            result.ipc() <= f64::from(width),
            "ipc {} above width {width}",
            result.ipc()
        );
        prop_assert_eq!(
            result.fetch_stall_cycles,
            result.icache_stall_cycles + result.branch_stall_cycles + result.btb_stall_cycles
        );
        // Measurement starts after the first cycle whose commits reach
        // the warmup, which can overshoot it by up to `width - 1`.
        prop_assert!(
            result.instructions <= MEASURED
                && result.instructions + u64::from(width - 1) >= MEASURED,
            "{} measured instructions at width {width}",
            result.instructions
        );
        // At most `rob_size` instructions are in flight, so no count above
        // it can bind.
        let clamped = with_counts(&config, counts.map(|count| count.min(rob_size)));
        prop_assert_eq!(run(&clamped, &generator, interval), result);
    }
}

/// The largest reorder buffer `SimConfig::derive` accepts, with every
/// count at its maximum, simulates like the same machine with every count
/// equal to the reorder buffer.
#[test]
fn largest_reorder_buffer_simulates() {
    let config = with_counts(
        &SimConfig {
            width: 8,
            rob_size: SimConfig::MAX_ROB_SIZE,
            ..SimConfig::default()
        },
        [u32::MAX; 5],
    );
    assert!(config.derive().is_ok());
    let generator = TraceGenerator::new(Benchmark::Mgrid);
    let result = run(&config, &generator, 0);
    assert!(result.instructions > 0);
    let at_rob = with_counts(&config, [SimConfig::MAX_ROB_SIZE; 5]);
    assert_eq!(run(&at_rob, &generator, 0), result);
}
