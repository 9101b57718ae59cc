//! `campaign_cold` and `campaign_cached`: the paper's end-to-end job, an
//! [`Explorer`] campaign over the gzip × memory study, run in process.
//!
//! Both workloads run identical campaigns from identical seeds, so they
//! produce identical models; they differ only in the oracle. Cold
//! simulates every point through a fresh [`CachedEvaluator`]; cached
//! answers every point from a simcache CSV written by the cold campaigns
//! beforehand. A simulator change therefore shows on cold and must not
//! show on cached; a training change shows mostly on cached.
//!
//! A campaign here runs a fixed number of rounds instead of stopping at a
//! target error, so every seed simulates and trains on the same number of
//! points. Early stopping still makes training time depend on the points
//! a seed draws, so each run cycles through several campaign seeds derived
//! from the run seed and reports medians over all of them.
//!
//! Timed campaigns run on one thread. On a small shared machine, work
//! split across both cores waits for whichever core a neighbour is
//! loading: the two-thread full-space sweep varied ±15 % from run to run
//! where the one-thread sweep varied ±2.5 %.

use crate::metrics::{Report, Workload};
use crate::stats::median;
use crate::trace;
use crate::Ctx;
use archpredict::simulate::{CachedEvaluator, SimBudget, StudyEvaluator};
use archpredict::studies::Study;
use archpredict::telemetry;
use archpredict::{CampaignConfig, DesignSpace, Explorer, Round};
use archpredict_ann::{Parallelism, TrainConfig};
use archpredict_sim::memory::MemoryHierarchy;
use archpredict_sim::{simulate_with_warmup, SimConfig};
use archpredict_stats::hash::{fnv1a_64_extend, FNV_OFFSET};
use archpredict_stats::rng::Xoshiro256;
use archpredict_stats::sampling::sample_without_replacement;
use archpredict_workloads::{Benchmark, Instruction, OpClass, TraceGenerator};
use std::cell::Cell;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

const STUDY: Study = Study::MemorySystem;
const APP: Benchmark = Benchmark::Gzip;
/// Set-ups timed per run; their median is `setup_s`. Set-up takes
/// microseconds, so one sample would be mostly noise.
const SETUP_REPS: usize = 101;
/// Full-space prediction sweeps timed after each untraced campaign.
const SWEEPS_PER_REP: usize = 5;
/// Indices whose predictions enter the campaign digest.
const PROBE: usize = 256;
/// Sampled points the traced pass times layer by layer.
const MICRO_POINTS: usize = 16;
/// Seed streams (of the run seed): the digest probe, the campaign seeds.
const PROBE_STREAM: u64 = 0x9E07;
const CAMPAIGN_STREAM: u64 = 0xCA0;

/// The size of one campaign.
#[derive(Clone, Copy)]
pub struct Shape {
    budget: fn(&TraceGenerator) -> SimBudget,
    batch: usize,
    rounds: usize,
    /// Campaign seeds a run cycles through.
    seeds: usize,
    /// Worker policy for simulation, training and prediction sweeps.
    parallelism: Parallelism,
}

impl Shape {
    /// The benchmark's campaign: the quick simulation budget, three rounds
    /// of 50 points, eight seeds per run. The quick budget simulates a
    /// third of the standard budget's instructions per point, which is
    /// what lets one run cover several seeds. `smoke` shrinks it to two
    /// rounds of 20 and two seeds.
    pub fn new(smoke: bool) -> Self {
        let (batch, rounds, seeds) = if smoke { (20, 2, 2) } else { (50, 3, 8) };
        Self {
            budget: SimBudget::quick,
            batch,
            rounds,
            seeds,
            parallelism: Parallelism::Fixed(1),
        }
    }

    /// The campaign seeds of a run.
    fn seeds(self, run_seed: u64) -> Vec<u64> {
        let root = Xoshiro256::seed_from(run_seed);
        (0..self.seeds as u64)
            .map(|k| root.derive(CAMPAIGN_STREAM + k).next_u64())
            .collect()
    }

    fn config(self, seed: u64) -> CampaignConfig {
        CampaignConfig {
            batch: self.batch,
            // Never reached, so the campaign stops at the sample cap.
            target_error: 0.0,
            max_samples: self.batch * self.rounds,
            seed,
            train: TrainConfig {
                parallelism: self.parallelism,
                ..TrainConfig::default()
            },
            ..CampaignConfig::default()
        }
    }
}

/// The study's space and a fresh caching oracle over it.
struct Stack {
    space: DesignSpace,
    evaluator: CachedEvaluator<StudyEvaluator>,
}

/// Builds a [`Stack`], preloading `simcache` when given. Returns it with
/// the whole set-up time and the part spent loading the simcache.
fn build(shape: Shape, simcache: Option<&Path>) -> Result<(Stack, f64, f64), String> {
    let started = Instant::now();
    let space = STUDY.space();
    let budget = (shape.budget)(&TraceGenerator::new(APP));
    let evaluator = CachedEvaluator::with_parallelism(
        StudyEvaluator::with_budget(STUDY, APP, budget),
        space.clone(),
        shape.parallelism,
    );
    let mut load_s = 0.0;
    if let Some(path) = simcache {
        let loading = Instant::now();
        evaluator
            .load(path)
            .map_err(|e| format!("load simcache {}: {e}", path.display()))?;
        load_s = loading.elapsed().as_secs_f64();
    }
    Ok((
        Stack { space, evaluator },
        started.elapsed().as_secs_f64(),
        load_s,
    ))
}

/// What one campaign produced.
struct Rep {
    /// Which of the run's campaign seeds it ran.
    seed: usize,
    seconds: f64,
    digest: u64,
    rounds: Vec<Round>,
    sampled: Vec<usize>,
    sweep_rates: Vec<f64>,
}

/// The digest probe: `PROBE` indices drawn from the run seed.
fn probe(seed: u64) -> Vec<usize> {
    let mut rng = Xoshiro256::seed_from(seed).derive(PROBE_STREAM);
    sample_without_replacement(STUDY.space().size(), PROBE, &mut rng)
}

/// FNV-1a over the sampled indices, each round's error estimate, and the
/// model's predictions at `probe`: equal digests mean equal campaigns.
fn digest(
    explorer: &Explorer<'_, CachedEvaluator<StudyEvaluator>>,
    probe: &[usize],
) -> Result<u64, String> {
    let mut h = FNV_OFFSET;
    for &index in explorer.sampled_indices() {
        h = fnv1a_64_extend(h, &(index as u64).to_le_bytes());
    }
    for round in explorer.history() {
        let e = round.estimate;
        for word in [e.mean.to_bits(), e.std_dev.to_bits(), e.points] {
            h = fnv1a_64_extend(h, &word.to_le_bytes());
        }
    }
    let predictions = explorer
        .try_predict_indices(probe)
        .map_err(|e| e.to_string())?;
    for p in predictions {
        h = fnv1a_64_extend(h, &p.to_bits().to_le_bytes());
    }
    Ok(h)
}

/// Runs one timed campaign on `stack`, then `sweeps` timed full-space
/// prediction sweeps of its model.
fn run_rep(
    stack: &Stack,
    shape: Shape,
    (seed, campaign_seed): (usize, u64),
    probe: &[usize],
    sweeps: usize,
) -> Result<Rep, String> {
    let mut explorer = Explorer::new(&stack.space, &stack.evaluator, shape.config(campaign_seed));
    let started = Instant::now();
    explorer.try_run().map_err(|e| format!("campaign: {e}"))?;
    let seconds = started.elapsed().as_secs_f64();
    let digest = digest(&explorer, probe)?;
    let mut sweep_rates = Vec::with_capacity(sweeps);
    for _ in 0..sweeps {
        let started = Instant::now();
        let predictions = explorer.try_predict_space().map_err(|e| e.to_string())?;
        sweep_rates.push(black_box(predictions).len() as f64 / started.elapsed().as_secs_f64());
    }
    Ok(Rep {
        seed,
        seconds,
        digest,
        rounds: explorer.history().to_vec(),
        sampled: explorer.sampled_indices().to_vec(),
        sweep_rates,
    })
}

/// Runs one cold campaign per campaign seed of the run, all through one
/// cache, and persists that cache to `path`; returns the campaign digests
/// in seed order. This is how `campaign_cached` gets its CSV: in a child
/// process, so the cold campaigns' memory and time stay out of the
/// measured run. Untimed, so it uses every core; the determinism contract
/// makes its digests equal the one-thread campaigns'.
pub fn prepare_simcache(run_seed: u64, smoke: bool, path: &Path) -> Result<Vec<u64>, String> {
    let shape = Shape {
        parallelism: Parallelism::Auto,
        ..Shape::new(smoke)
    };
    let (stack, _, _) = build(shape, None)?;
    let probe = probe(run_seed);
    let digests = shape
        .seeds(run_seed)
        .into_iter()
        .enumerate()
        .map(|seed| run_rep(&stack, shape, seed, &probe, 0).map(|rep| rep.digest))
        .collect::<Result<Vec<u64>, String>>()?;
    stack
        .evaluator
        .persist(path)
        .map_err(|e| format!("persist simcache {}: {e}", path.display()))?;
    Ok(digests)
}

/// Runs `prepare_simcache` in a child `perf` process.
fn simcache_from_child(ctx: &Ctx, path: &Path) -> Result<Vec<u64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = std::process::Command::new(exe);
    command
        .args(["simcache", "--seed", &ctx.seed.to_string(), "--out"])
        .arg(path);
    if ctx.smoke {
        command.arg("--smoke");
    }
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn simcache child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let digests: Result<Vec<u64>, _> = stdout
        .lines()
        .map(|l| u64::from_str_radix(l.trim(), 16))
        .collect();
    match (output.status.success(), digests) {
        (true, Ok(digests)) => Ok(digests),
        _ => Err(format!(
            "simcache child failed ({}): {stdout}",
            output.status
        )),
    }
}

/// Runs one pass of a campaign workload.
pub fn run(workload: Workload, ctx: &Ctx, traced: bool) -> Result<Report, String> {
    let shape = Shape::new(ctx.smoke);
    let seeds = shape.seeds(ctx.seed);
    let mut report = Report::new(workload, traced);
    let probe = probe(ctx.seed);
    let simcache = ctx.dir.join("simcache.csv");
    let cold_digests = match workload {
        Workload::CampaignCached => Some(simcache_from_child(ctx, &simcache)?),
        _ => None,
    };
    let simcache = cold_digests.as_ref().map(|_| simcache.as_path());

    let (mut setups, mut loads) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        let (_, setup, load) = build(shape, simcache)?;
        setups.push(setup);
        loads.push(load);
    }

    // Campaigns cycle through the seeds. The traced pass runs each seed
    // untraced and then traced: the untraced campaigns are the baseline
    // for the tracing overhead.
    let trace_path = ctx.dir.join("campaign.jsonl");
    let sweeps = if traced { 0 } else { SWEEPS_PER_REP };
    let min_reps = if traced { 2 } else { seeds.len() };
    let mut reps: Vec<(Option<u64>, Rep)> = Vec::new();
    let started = Instant::now();
    while reps.len() < min_reps || started.elapsed().as_secs_f64() < ctx.seconds {
        let i = reps.len();
        let seed = if traced { i / 2 } else { i } % seeds.len();
        let (stack, _, _) = build(shape, simcache)?;
        let trace_id = (traced && i % 2 == 1).then(telemetry::fresh_trace_id);
        if trace_id.is_some() {
            telemetry::install_trace(&trace_path).map_err(|e| format!("trace sink: {e}"))?;
        }
        let rep = {
            let _scope = telemetry::set_trace(trace_id.unwrap_or(0));
            run_rep(&stack, shape, (seed, seeds[seed]), &probe, sweeps)
        };
        telemetry::clear_trace();
        reps.push((trace_id, rep?));
    }

    for (_, rep) in &reps {
        for round in &rep.rounds {
            report.attempted += round.simulation.evaluations() + round.simulation.failures;
            report.failed += round.simulation.failures;
        }
    }
    // Each seed's first campaign is untraced; every later one must match it.
    let mut expected: Vec<Option<u64>> = vec![None; seeds.len()];
    for (_, rep) in &reps {
        expected[rep.seed].get_or_insert(rep.digest);
    }
    let matches = |traced_reps: bool| {
        reps.iter()
            .filter(|(id, _)| id.is_some() == traced_reps)
            .all(|(_, r)| expected[r.seed] == Some(r.digest))
    };
    report.check("campaigns of one seed have one digest", matches(false));
    if traced {
        report.check(
            "traced campaigns have their seed's untraced digest",
            matches(true),
        );
    }
    if let Some(cold) = cold_digests {
        let agree = expected
            .iter()
            .zip(&cold)
            .all(|(e, c)| e.is_none_or(|e| e == *c));
        report.check(
            "cached campaign digests equal the cold (all-core) campaigns'",
            agree,
        );
        let simulated: u64 = reps
            .iter()
            .flat_map(|(_, r)| &r.rounds)
            .map(|round| round.simulation.unique_simulations)
            .sum();
        report.check("cached campaigns simulate nothing", simulated == 0);
    }

    if traced {
        traced_metrics(&mut report, shape, &reps, &loads, &trace_path)?;
    } else {
        let campaign_s: Vec<f64> = reps.iter().map(|(_, r)| r.seconds).collect();
        let rates: Vec<f64> = reps
            .iter()
            .flat_map(|(_, r)| r.sweep_rates.clone())
            .collect();
        let setup = report.dist("setup_s", "s", &setups).p50;
        let campaign = report.dist("campaign_s", "s", &campaign_s).p50;
        let sweep = report.dist("space_sweep_preds_per_s", "1/s", &rates).p50;
        report.set("setup_s", setup);
        report.set("latency_p50_ms", campaign * 1e3);
        report.set("preds_per_s", sweep);
        report.set("peak_rss_mb", crate::peak_rss_mb("self")?);
        if simcache.is_some() {
            report.dist("simcache_load_s", "s", &loads);
        }
    }
    Ok(report)
}

/// The traced pass's per-layer metrics, from the traced campaigns' span
/// log and round records, plus the micro-timed points.
fn traced_metrics(
    report: &mut Report,
    shape: Shape,
    reps: &[(Option<u64>, Rep)],
    loads: &[f64],
    trace_path: &Path,
) -> Result<(), String> {
    let events = trace::read(trace_path)?;
    let selfs = trace::self_us(&events);
    let traced: Vec<(u64, &Rep)> = reps
        .iter()
        .filter_map(|(id, r)| id.map(|id| (id, r)))
        .collect();
    let untraced: Vec<f64> = reps
        .iter()
        .filter(|(id, _)| id.is_none())
        .map(|(_, r)| r.seconds)
        .collect();

    // Per traced campaign: self seconds of select/collect/fit.
    let phase_s = |trace_id: u64, name: &str| {
        trace::self_s(&events, &selfs, &format!("{trace_id:016x}"), name)
    };
    let per_rep = |f: &dyn Fn(u64, &Rep) -> f64| -> f64 {
        median(&traced.iter().map(|&(id, r)| f(id, r)).collect::<Vec<_>>())
    };
    let attributed = |id: u64| {
        trace::CAMPAIGN_PHASES
            .map(|n| phase_s(id, n))
            .iter()
            .sum::<f64>()
    };
    let total = |r: &Rep, f: fn(&Round) -> f64| r.rounds.iter().map(f).sum::<f64>();

    report.set("campaign.rounds", per_rep(&|_, r| r.rounds.len() as f64));
    report.set(
        "campaign.select_s",
        per_rep(&|id, _| phase_s(id, "campaign.select")),
    );
    report.set(
        "campaign.collect_s",
        per_rep(&|id, _| phase_s(id, "campaign.collect")),
    );
    report.set(
        "campaign.fit_s",
        per_rep(&|id, _| phase_s(id, "campaign.fit")),
    );
    report.set(
        "campaign.unattributed_s",
        per_rep(&|id, r| r.seconds - attributed(id)),
    );
    report.set(
        "campaign.attributed_pct",
        per_rep(&|id, r| 100.0 * attributed(id) / r.seconds),
    );
    report.set(
        "simulate.unique_sims",
        per_rep(&|_, r| total(r, |x| x.simulation.unique_simulations as f64)),
    );
    report.set(
        "simulate.cache_hits",
        per_rep(&|_, r| total(r, |x| x.simulation.cache_hits as f64)),
    );
    report.set(
        "simulate.minst",
        per_rep(&|_, r| total(r, |x| x.simulation.simulated_instructions as f64) / 1e6),
    );
    report.set(
        "simulate.minst_per_s",
        per_rep(&|_, r| {
            total(r, |x| x.simulation.simulated_instructions as f64)
                / 1e6
                / total(r, |x| x.simulation_seconds)
        }),
    );
    report.set(
        "ann.fits",
        per_rep(&|_, r| total(r, |x| x.folds.len() as f64)),
    );
    report.set(
        "ann.epochs_mean",
        per_rep(&|_, r| {
            total(r, |x| x.folds.iter().map(|f| f.epochs as f64).sum())
                / total(r, |x| x.folds.len() as f64)
        }),
    );
    report.set(
        "ann.fold_s_sum",
        per_rep(&|_, r| total(r, |x| x.folds.iter().map(|f| f.seconds).sum())),
    );
    if report.workload == Workload::CampaignCached {
        report.set("persist.simcache_load_s", median(loads));
    }
    let traced_s = per_rep(&|_, r| r.seconds);
    report.set(
        "trace.overhead_pct",
        (traced_s / median(&untraced) - 1.0) * 100.0,
    );

    // The first campaign always runs the first seed, so these points (and
    // the modelled statistics below) do not depend on how many campaigns
    // fit in the run.
    let first = &reps[0].1;
    let points = &first.sampled[..MICRO_POINTS.min(first.sampled.len())];
    let micro = micro(shape, points);
    report.check(
        "materialized traces simulate identically to the live generator",
        micro.identical,
    );
    report.set("simulate.eval_ms", micro.live_ms);
    report.set("workloads.synth_ms_per_eval", micro.synth_ms);
    report.set(
        "workloads.trace_bytes_per_interval",
        micro.bytes_per_interval,
    );
    report.set("sim.engine_ms_per_eval", micro.engine_ms);
    report.set("sim.memhier_ms_per_eval", micro.memhier_ms);
    report.set("sim.ipc_mean", micro.ipc_mean);
    report.set("sim.l1d_mpki", micro.l1d_mpki);
    report.set("sim.l2_mpki", micro.l2_mpki);
    report.set("sim.mispredict_rate", micro.mispredict_rate);
    Ok(())
}

/// Host time per evaluation split by layer, over a few sampled points,
/// and the modelled statistics of those evaluations.
struct Micro {
    /// `simulate_with_warmup` on the live generator, as the oracle runs it.
    live_ms: f64,
    /// Materializing the intervals the engine consumes.
    synth_ms: f64,
    /// `simulate_with_warmup` on the materialized intervals.
    engine_ms: f64,
    /// The memory hierarchy alone, replaying the materialized intervals.
    memhier_ms: f64,
    bytes_per_interval: f64,
    ipc_mean: f64,
    l1d_mpki: f64,
    l2_mpki: f64,
    mispredict_rate: f64,
    /// Whether every replayed and live result matched the reference.
    identical: bool,
}

fn micro(shape: Shape, points: &[usize]) -> Micro {
    let space = STUDY.space();
    let generator = TraceGenerator::new(APP);
    let budget = (shape.budget)(&generator);
    let (warmup, measured) = (budget.warmup, budget.measured);
    let ms = |started: Instant| started.elapsed().as_secs_f64() * 1e3;
    let (mut live, mut synth, mut engine, mut memhier) = (0.0, 0.0, 0.0, 0.0);
    let (mut bytes, mut intervals, mut ipc) = (0usize, 0usize, 0.0);
    let (mut instructions, mut l1d, mut l2, mut branches, mut mispredicts) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut identical = true;
    for &index in points {
        let config = STUDY.config_at(&space, &space.point(index));
        let mut point_ipc = 0.0;
        for &interval in &budget.intervals {
            // How many instructions the engine pulls, counted untimed.
            let pulled = Cell::new(0usize);
            let counted = generator
                .interval(interval)
                .inspect(|_| pulled.set(pulled.get() + 1));
            let reference = simulate_with_warmup(&config, counted, warmup, measured);

            let started = Instant::now();
            let fresh =
                simulate_with_warmup(&config, generator.interval(interval), warmup, measured);
            live += ms(started);
            let started = Instant::now();
            let materialized: Vec<Instruction> =
                generator.interval(interval).take(pulled.get()).collect();
            synth += ms(started);
            let started = Instant::now();
            let replayed =
                simulate_with_warmup(&config, materialized.iter().copied(), warmup, measured);
            engine += ms(started);
            let started = Instant::now();
            black_box(replay_hierarchy(&config, &materialized));
            memhier += ms(started);

            identical &= fresh == reference && replayed == reference;
            bytes += std::mem::size_of_val(materialized.as_slice());
            intervals += 1;
            point_ipc += reference.ipc();
            instructions += reference.instructions;
            l1d += reference.l1d_misses;
            l2 += reference.l2_misses;
            branches += reference.branches;
            mispredicts += reference.mispredicts;
        }
        ipc += point_ipc / budget.intervals.len() as f64;
    }
    let evals = points.len().max(1) as f64;
    let kinst = instructions.max(1) as f64 / 1e3;
    Micro {
        live_ms: live / evals,
        synth_ms: synth / evals,
        engine_ms: engine / evals,
        memhier_ms: memhier / evals,
        bytes_per_interval: bytes as f64 / intervals.max(1) as f64,
        ipc_mean: ipc / evals,
        l1d_mpki: l1d as f64 / kinst,
        l2_mpki: l2 as f64 / kinst,
        mispredict_rate: mispredicts as f64 / branches.max(1) as f64,
        identical,
    }
}

/// Drives the memory hierarchy alone with a trace's fetches, loads and
/// stores, one instruction per cycle: an isolated proxy for its cost, not
/// a share of engine time.
fn replay_hierarchy(config: &SimConfig, trace: &[Instruction]) -> u64 {
    let mut memory = MemoryHierarchy::new(config);
    let mut ready = 0;
    for (cycle, instruction) in (0u64..).zip(trace) {
        ready = memory.fetch(instruction.pc, cycle);
        match instruction.op {
            OpClass::Load => ready = memory.load(instruction.addr, cycle),
            OpClass::Store => memory.store(instruction.addr, cycle),
            _ => {}
        }
    }
    ready
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A campaign small enough for a debug build.
    fn tiny() -> Shape {
        Shape {
            budget: |g| SimBudget::spread(g, 1, 300, 700),
            batch: 12,
            rounds: 2,
            seeds: 2,
            parallelism: Parallelism::Fixed(1),
        }
    }

    #[test]
    fn cached_campaign_reproduces_the_cold_digest() {
        // The simcache is written on every core and read on one, as in a
        // run: the determinism contract makes the digests equal anyway.
        let shape = tiny();
        let all_cores = Shape {
            parallelism: Parallelism::Auto,
            ..shape
        };
        let seeds = shape.seeds(0xA5CEED);
        let probe = probe(0xA5CEED);
        let (cold, _, _) = build(all_cores, None).expect("cold stack");
        let cold_rep = run_rep(&cold, all_cores, (0, seeds[0]), &probe, 0).expect("cold campaign");
        let path = std::env::temp_dir().join(format!("perf_simcache_{}.csv", std::process::id()));
        cold.evaluator.persist(&path).expect("persist");

        let (cached, _, _) = build(shape, Some(&path)).expect("cached stack");
        let cached_rep =
            run_rep(&cached, shape, (0, seeds[0]), &probe, 1).expect("cached campaign");
        std::fs::remove_file(&path).ok();
        assert_eq!(cached_rep.digest, cold_rep.digest);
        assert!(cached_rep
            .rounds
            .iter()
            .all(|r| r.simulation.unique_simulations == 0));
        assert_eq!(cached_rep.sweep_rates.len(), 1);

        // Another seed samples other points: another digest.
        let (other, _, _) = build(shape, None).expect("stack");
        let other_rep = run_rep(&other, shape, (1, seeds[1]), &probe, 0).expect("campaign");
        assert_ne!(other_rep.digest, cold_rep.digest);
    }

    #[test]
    fn micro_timing_replays_identically() {
        let shape = tiny();
        let micro = micro(shape, &[0, 9_999]);
        assert!(micro.identical);
        // The engine consumes at least warmup + measured instructions.
        assert!(micro.bytes_per_interval >= 1_000.0 * std::mem::size_of::<Instruction>() as f64);
        assert!(micro.ipc_mean > 0.0);
    }
}
