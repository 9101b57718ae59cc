//! Golden simulator digests: every field of every `SimResult` for a fixed
//! set of seeded design points, hashed and compared against constants
//! recorded from the simulator's reference behaviour.
//!
//! The simulator's results are the ground truth every model in this
//! repository learns from, so a performance change to the engine, the
//! caches or the trace path must leave them bit-identical. These digests
//! are that contract: they cover both studies × all eight benchmarks under
//! the points' own configurations and two memory-system variants
//! (next-line prefetch with banked SDRAM, write-through L1D), a finite
//! trace that drains the pipeline, machines on which one structural
//! resource binds, full `StudyEvaluator` IPCs, which run
//! through the evaluator's own trace path, and the outputs of the SimPoint,
//! SMARTS and multi-task evaluators. A mismatch means simulated values
//! changed; only a deliberate fidelity change may re-record them.
//!
//! Training is pinned the same way: seeded ensemble and multi-task fits
//! are digested down to their serialized weights, so a faster training
//! kernel must leave every trained bit where it was.

use archpredict::multitask::MetricsEvaluator;
use archpredict::simulate::{PointEvaluator, SimBudget, SimPointEvaluator, StudyEvaluator};
use archpredict::smarts::{SmartsConfig, SmartsEvaluator};
use archpredict::studies::Study;
use archpredict_ann::{
    fit_ensemble, train_multi_network, Dataset, Parallelism, Sample, TrainConfig,
};
use archpredict_sim::{simulate, simulate_with_warmup, SimConfig, SimResult, WritePolicy};
use archpredict_stats::hash::{fnv1a_64_extend, FNV_OFFSET};
use archpredict_stats::rng::Xoshiro256;
use archpredict_workloads::{Benchmark, TraceGenerator};

/// Seed of the sampled design points.
const SEED: u64 = 0x0060_1DE4;

/// Folds each word of `words` into `h`, little-endian.
fn extend_words(h: u64, words: &[u64]) -> u64 {
    words
        .iter()
        .fold(h, |h, word| fnv1a_64_extend(h, &word.to_le_bytes()))
}

/// Folds every field of `result` into `h`. The exhaustive destructuring
/// makes a new `SimResult` field a compile error here until it is hashed.
fn extend(h: u64, result: &SimResult) -> u64 {
    let SimResult {
        instructions,
        cycles,
        l1i_misses,
        l1d_misses,
        l2_misses,
        branches,
        mispredicts,
        btb_misses,
        l2_bus_busy,
        fsb_busy,
        fetch_stall_cycles,
        icache_stall_cycles,
        branch_stall_cycles,
        btb_stall_cycles,
    } = *result;
    [
        instructions,
        cycles,
        l1i_misses,
        l1d_misses,
        l2_misses,
        branches,
        mispredicts,
        btb_misses,
        l2_bus_busy,
        fsb_busy,
        fetch_stall_cycles,
        icache_stall_cycles,
        branch_stall_cycles,
        btb_stall_cycles,
    ]
    .iter()
    .fold(h, |h, field| fnv1a_64_extend(h, &field.to_le_bytes()))
}

/// A design point's configuration under the three memory variants.
fn variants(config: SimConfig) -> [SimConfig; 3] {
    let prefetch_banked = SimConfig {
        prefetch_nextline: true,
        sdram_banks: 8,
        ..config.clone()
    };
    let mut write_through = config.clone();
    write_through.l1d.write_policy = WritePolicy::WriteThrough;
    [config, prefetch_banked, write_through]
}

/// Two seeded points per study × benchmark, each under three variants,
/// simulated on a seeded interval of the benchmark.
#[test]
fn study_points_under_memory_variants() {
    let mut rng = Xoshiro256::seed_from(SEED);
    let mut h = FNV_OFFSET;
    let mut simulated = 0;
    for study in Study::ALL {
        let space = study.space();
        for benchmark in Benchmark::ALL {
            let generator = TraceGenerator::new(benchmark);
            for _ in 0..2 {
                let index = rng.below(space.size() as u64) as usize;
                let interval = rng.below(generator.num_intervals() as u64) as usize;
                let config = study.config_at(&space, &space.point(index));
                for config in variants(config) {
                    let trace = generator.interval(interval);
                    let result = simulate_with_warmup(&config, trace, 2_000, 8_000);
                    h = extend(h, &result);
                    simulated += 1;
                }
            }
        }
    }
    assert_eq!(simulated, 96);
    assert_eq!(
        h, 0x7190_8518_a6ee_4dc0,
        "simulated values changed: {h:#018x}"
    );
}

/// A trace shorter than the commit target: the pipeline drains and the
/// result reports what was committed.
#[test]
fn finite_trace_drains() {
    let generator = TraceGenerator::new(Benchmark::Crafty);
    let mut h = FNV_OFFSET;
    for config in variants(SimConfig::default()) {
        let trace: Vec<_> = generator.interval(3).take(700).collect();
        let result = simulate(&config, trace.into_iter(), 10_000);
        assert_eq!(result.instructions, 700);
        h = extend(h, &result);
    }
    assert_eq!(
        h, 0xcce7_85b0_a06a_c0bd,
        "simulated values changed: {h:#018x}"
    );
}

/// Machines on which one structural limit binds, each run on three
/// benchmarks, one digest per machine. No study point has fewer than 64
/// registers, 32 load/store-queue entries or 16 branch slots, so the
/// other pins never make a resource bind on its own. Counts far above the
/// reorder buffer must simulate exactly like counts equal to it: at most
/// `rob_size` instructions are in flight, so neither can bind.
#[test]
fn starved_resources() {
    fn with(edit: impl FnOnce(&mut SimConfig)) -> SimConfig {
        let mut config = SimConfig::default();
        edit(&mut config);
        config
    }
    let counts = |n: u32| {
        with(|c| {
            [
                c.int_regs,
                c.fp_regs,
                c.lsq_loads,
                c.lsq_stores,
                c.max_branches,
            ] = [n; 5]
        })
    };
    let machines = [
        ("int_regs", with(|c| c.int_regs = 1)),
        ("fp_regs", with(|c| c.fp_regs = 1)),
        ("lsq_loads", with(|c| c.lsq_loads = 1)),
        ("lsq_stores", with(|c| c.lsq_stores = 1)),
        ("max_branches", with(|c| c.max_branches = 1)),
        (
            "units_and_ports",
            with(|c| [c.functional_units, c.load_ports, c.store_ports] = [1; 3]),
        ),
        ("width_1_rob_2", with(|c| [c.width, c.rob_size] = [1, 2])),
        (
            "width_8_rob_24",
            with(|c| {
                [c.width, c.rob_size] = [8, 24];
                [
                    c.int_regs,
                    c.fp_regs,
                    c.lsq_loads,
                    c.lsq_stores,
                    c.max_branches,
                ] = [12, 6, 5, 3, 2];
            }),
        ),
        ("counts_1e6", counts(1_000_000)),
    ];
    let run = |config: &SimConfig, benchmark: Benchmark| {
        let generator = TraceGenerator::new(benchmark);
        simulate_with_warmup(config, generator.interval(1), 1_000, 4_000)
    };
    let benchmarks = [Benchmark::Gzip, Benchmark::Mgrid, Benchmark::Mcf];
    let digests: Vec<u64> = machines
        .iter()
        .map(|(_, config)| {
            benchmarks
                .iter()
                .fold(FNV_OFFSET, |h, &b| extend(h, &run(config, b)))
        })
        .collect();
    let at_rob = counts(SimConfig::default().rob_size);
    for benchmark in benchmarks {
        assert_eq!(
            run(&machines[8].1, benchmark),
            run(&at_rob, benchmark),
            "{}: counts above the reorder buffer must not bind",
            benchmark.name()
        );
    }
    let expected: [u64; 9] = [
        0x8b5c_9864_14d6_93ac,
        0xc3be_1d53_dde8_cd33,
        0x24e8_e3e2_de39_b58d,
        0x5eab_237c_83c7_6949,
        0x5028_baec_f0a4_fbda,
        0x124e_977b_0837_d448,
        0x92f9_037e_7f18_c0f1,
        0xb6c3_9c83_75f8_e979,
        0xf91c_ac51_991b_8ebf,
    ];
    for (((name, _), digest), expected) in machines.iter().zip(&digests).zip(expected) {
        assert_eq!(
            *digest, expected,
            "{name}: simulated values changed: {digest:#018x}"
        );
    }
}

/// Full evaluations through `StudyEvaluator`, two intervals each, for a
/// few seeded points of each study: the IPC bits the oracle returns.
#[test]
fn study_evaluator_ipcs() {
    let mut rng = Xoshiro256::seed_from(SEED).derive(1);
    let mut bits = Vec::new();
    for (study, benchmark) in [
        (Study::MemorySystem, Benchmark::Gzip),
        (Study::MemorySystem, Benchmark::Mcf),
        (Study::Processor, Benchmark::Twolf),
        (Study::Processor, Benchmark::Applu),
    ] {
        let generator = TraceGenerator::new(benchmark);
        let budget = SimBudget::spread(&generator, 2, 1_000, 3_000);
        let evaluator = StudyEvaluator::with_budget(study, benchmark, budget);
        let space = evaluator.space();
        for _ in 0..2 {
            let point = space.point(rng.below(space.size() as u64) as usize);
            bits.push(evaluator.evaluate(&point).to_bits());
        }
    }
    let expected: [u64; 8] = [
        0x3fab_8fd9_ad0a_db7c,
        0x3fb1_9f50_18d9_6a56,
        0x3fa3_5606_3696_1bb5,
        0x3fa0_59a6_fd11_bade,
        0x3fab_91bf_b534_ffd2,
        0x3f9c_26db_1f6c_a442,
        0x3fb7_8c8d_09dc_94a7,
        0x3fa8_02eb_7c9e_1262,
    ];
    assert_eq!(bits, expected, "evaluator IPCs changed");
}

/// The SimPoint estimate, the SMARTS estimate (mean, confidence, units) and
/// the four multi-task metrics for seeded points of each study, one digest
/// per evaluator.
#[test]
fn interval_evaluator_outputs() {
    let mut rng = Xoshiro256::seed_from(SEED).derive(2);
    let mut digests = [FNV_OFFSET; 3];
    for (study, benchmark) in [
        (Study::MemorySystem, Benchmark::Gzip),
        (Study::Processor, Benchmark::Mgrid),
    ] {
        let generator = TraceGenerator::new(benchmark);
        let simpoint = SimPointEvaluator::new(study, benchmark, 3_000, 10);
        let smarts = SmartsEvaluator::new(
            study,
            benchmark,
            SmartsConfig {
                period: 6,
                ..SmartsConfig::default()
            },
        );
        let budget = SimBudget::spread(&generator, 2, 1_000, 3_000);
        let metrics = MetricsEvaluator::new(study, benchmark, budget);
        let space = study.space();
        for _ in 0..2 {
            let point = space.point(rng.below(space.size() as u64) as usize);
            digests[0] = extend_words(digests[0], &[simpoint.evaluate(&point).to_bits()]);
            let estimate = smarts.estimate(&point);
            digests[1] = extend_words(
                digests[1],
                &[
                    estimate.ipc.to_bits(),
                    estimate.confidence.to_bits(),
                    estimate.units as u64,
                ],
            );
            let m = metrics.evaluate_metrics(&point);
            digests[2] = extend_words(
                digests[2],
                &[
                    m.ipc.to_bits(),
                    m.l2_mpki.to_bits(),
                    m.mispredict_rate.to_bits(),
                    m.l1d_mpki.to_bits(),
                ],
            );
        }
    }
    assert_eq!(
        digests,
        [
            0xedfd_6975_9ded_4535,
            0x54a1_81d3_9d06_a948,
            0x36e0_cfc5_d1c2_6ba8,
        ],
        "SimPoint, SMARTS and multi-task outputs changed: {digests:#018x?}"
    );
}

/// Seeded fits at the memory study's `[10, 16, 1]` shape: a 5-fold
/// ensemble at the default configuration, the same fit with a second
/// hidden layer of 8 units, and a 4-head multi-task network. Each digest
/// covers the error estimate, every fold's epochs, best early-stopping
/// error and reinits, member (or head) predictions at four probe rows,
/// and the serialized artifact text.
#[test]
fn trained_model_outputs() {
    let mut rng = Xoshiro256::seed_from(SEED).derive(3);
    let rows: Vec<Vec<f64>> = (0..60)
        .map(|_| (0..10).map(|_| rng.next_f64()).collect())
        .collect();
    let ipc = |x: &[f64]| {
        0.3 + 0.5 * (2.0 * x[0]).sin().abs()
            + 0.3 * x[1] * x[2]
            + 0.1 * x[3..].iter().sum::<f64>() / 7.0
    };
    let data: Dataset = rows
        .iter()
        .map(|x| Sample::new(x.clone(), ipc(x)))
        .collect();
    let probes = &rows[..4];
    let mut digests = [FNV_OFFSET; 3];
    for (digest, second_hidden_units) in digests.iter_mut().zip([0, 8]) {
        let config = TrainConfig {
            second_hidden_units,
            parallelism: Parallelism::Fixed(1),
            ..TrainConfig::default()
        };
        let fit = fit_ensemble(&data, 5, &config, 0x7EA1);
        let estimate = fit.estimate;
        let mut words = vec![
            estimate.mean.to_bits(),
            estimate.std_dev.to_bits(),
            estimate.points,
        ];
        for record in &fit.folds {
            words.extend([
                record.epochs as u64,
                record.best_es_error.to_bits(),
                u64::from(record.reinits),
            ]);
        }
        for probe in probes {
            words.extend(
                fit.ensemble
                    .member_predictions(probe)
                    .iter()
                    .map(|y| y.to_bits()),
            );
        }
        let text = fit.ensemble.to_json_fingerprinted(0x5EED);
        *digest = fnv1a_64_extend(extend_words(*digest, &words), text.as_bytes());
    }

    let targets: Vec<Vec<f64>> = rows
        .iter()
        .map(|x| {
            let y = ipc(x);
            vec![y, 2.0 - y, y * y, 0.5 + x[4]]
        })
        .collect();
    let pairs: Vec<(&[f64], &[f64])> = rows
        .iter()
        .zip(&targets)
        .map(|(x, t)| (x.as_slice(), t.as_slice()))
        .collect();
    let (train, es) = pairs.split_at(48);
    let mut rng = Xoshiro256::seed_from(SEED).derive(4);
    let model = train_multi_network(train, es, 0, &TrainConfig::default(), &mut rng);
    let words: Vec<u64> = probes
        .iter()
        .flat_map(|probe| model.predict_all(probe))
        .map(f64::to_bits)
        .collect();
    let text = model.to_json_fingerprinted(0x5EED);
    digests[2] = fnv1a_64_extend(extend_words(digests[2], &words), text.as_bytes());

    assert_eq!(
        digests,
        [
            0xa525_9e8a_e73c_d067,
            0xb9c7_c4a2_1681_9c31,
            0x6c9d_bb66_4c42_fad8,
        ],
        "trained models changed: {digests:#018x?}"
    );
}
