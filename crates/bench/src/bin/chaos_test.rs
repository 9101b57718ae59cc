//! End-to-end chaos harness for the serving stack: drives the real
//! `archpredict-served` daemon and real `archpredict-worker` processes
//! under concurrent fit/predict load while a **seeded** disruption
//! schedule SIGTERMs the daemon mid-flight, SIGKILLs it outright,
//! injects registry/persist I/O faults through the failpoint layer, and
//! kills pool workers mid-span — then proves the stack healed:
//!
//! * every accepted request was answered or cleanly shed (clients retry
//!   to completion; none time out),
//! * a SIGTERM'd daemon always exits 0 (graceful drain), a SIGKILL'd
//!   one never does,
//! * the post-chaos registry holds zero torn temps or orphaned lease
//!   files, and every surviving artifact passes its content-hash check,
//! * the chaos-fitted model artifact is **byte-identical** to a
//!   clean-room in-process fit of the same spec, and post-chaos served
//!   predictions are **bit-identical** to local inference on that
//!   clean-room model.
//!
//! Every disruption decision flows from `--seed` (daemon failpoint
//! schedules, worker kill schedules, round kinds, kill timing), so a
//! failing run replays exactly.
//!
//! ```text
//! cargo run --release --bin chaos_test -- [--rounds 20] [--clients 4]
//!     [--requests 6] [--budget 12] [--seed 0xC4A05] [--output-json]
//!     [--keep-root]
//! ```

use archpredict::campaign::CampaignConfig;
use archpredict::distributed::{
    locate_worker_binary, ProcessPoolOracle, WorkerSpec, FP_WORKER_EVAL,
};
use archpredict::failpoint::{render_plan, FailAction, SiteSpec, ENV_FAILPOINTS};
use archpredict::infer;
use archpredict::persist::FP_WRITE_ATOMIC;
use archpredict::registry::{Registry, StudyFitSpec, FP_COMMIT_ENTRY, FP_COMMIT_OBJECT};
use archpredict::serve::{http_request, FP_HANDLER};
use archpredict::simulate::{Oracle, RetryPolicy, RetryingOracle, SimStats};
use archpredict::studies::Study;
use archpredict::telemetry::Counter;
use archpredict_ann::Parallelism;
use archpredict_bench::{locate_served_binary, write_artifact, Daemon};
use archpredict_stats::rng::Xoshiro256;
use archpredict_workloads::Benchmark;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// No request is in flight longer than this before the harness declares
/// the stack wedged; generous because a SIGKILL mid-fit forces a full
/// refit on the restarted daemon.
const CLIENT_DEADLINE: Duration = Duration::from_secs(180);

/// One round's disruption.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Disruption {
    /// No process-level disruption: pure load under the failpoint plan.
    LoadOnly,
    /// SIGTERM the daemon mid-round, assert exit 0, restart it.
    Sigterm,
    /// SIGKILL the daemon mid-round (never exit 0), restart it.
    Sigkill,
}

impl Disruption {
    fn label(self) -> &'static str {
        match self {
            Disruption::LoadOnly => "load",
            Disruption::Sigterm => "sigterm",
            Disruption::Sigkill => "sigkill",
        }
    }
}

/// Per-spec request bodies plus the clean-room reference the chaos run
/// must reproduce byte- and bit-identically.
struct SpecRef {
    spec: StudyFitSpec,
    fit_body: String,
    predict_body: String,
    /// `to_json_fingerprinted` bytes of the clean-room model.
    reference_json: String,
    /// Probe indices and the clean-room model's predictions for them.
    probe: Vec<usize>,
    local: Vec<f64>,
}

/// Counters shared by the client threads of one round (and summed into
/// run totals): the evidence that every request was answered or shed.
struct RoundCounters {
    ok: Counter,
    retried: Counter,
    shed: Counter,
    refits: Counter,
}

impl Default for RoundCounters {
    fn default() -> Self {
        Self {
            ok: Counter::new("chaos.ok"),
            retried: Counter::new("chaos.retried"),
            shed: Counter::new("chaos.shed"),
            refits: Counter::new("chaos.refits"),
        }
    }
}

/// The daemon's current address; disruption rounds replace the daemon,
/// so clients re-read this on every attempt.
struct AddrCell(Mutex<SocketAddr>);

impl AddrCell {
    fn get(&self) -> SocketAddr {
        *self.0.lock().expect("addr cell")
    }
    fn set(&self, addr: SocketAddr) {
        *self.0.lock().expect("addr cell") = addr;
    }
}

fn main() {
    let mut rounds = 20usize;
    let mut clients = 4usize;
    let mut requests = 6usize;
    let mut budget = 12usize;
    let mut seed = 0xC4A05u64;
    let mut output_json = false;
    let mut keep_root = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("flag {name} needs a value"))
        };
        match arg.as_str() {
            "--rounds" => rounds = value("--rounds").parse().expect("number"),
            "--clients" => clients = value("--clients").parse().expect("number"),
            "--requests" => requests = value("--requests").parse().expect("number"),
            "--budget" => budget = value("--budget").parse().expect("number"),
            "--seed" => {
                let text = value("--seed");
                let text = text.trim();
                seed = match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
                    Some(hex) => u64::from_str_radix(hex, 16).expect("hex seed"),
                    None => text.parse().expect("seed"),
                };
            }
            "--output-json" => output_json = true,
            "--keep-root" => keep_root = true,
            other => panic!("unknown flag {other}"),
        }
    }

    let scratch = std::env::temp_dir().join(format!("archpredict-chaos-{}", std::process::id()));
    let registry_root = scratch.join("registry");
    let clean_root = scratch.join("cleanroom");
    let _ = std::fs::remove_dir_all(&scratch);

    // ---- Clean-room references: fit both specs in-process, undisturbed.
    let batch = budget.div_ceil(2);
    let make_spec = |study: Study, benchmark: Benchmark| StudyFitSpec {
        study,
        benchmark,
        config: CampaignConfig {
            seed,
            max_samples: budget,
            batch,
            ..CampaignConfig::default()
        },
        quick: true,
    };
    let specs = [
        make_spec(Study::MemorySystem, Benchmark::Gzip),
        make_spec(Study::Processor, Benchmark::Mcf),
    ];
    eprintln!("chaos_test: fitting clean-room references (budget {budget}, seed {seed:#x})");
    let clean_registry = Registry::open(&clean_root).expect("open clean-room registry");
    let refs: Vec<SpecRef> = specs
        .iter()
        .map(|spec| {
            let outcome = clean_registry
                .get_or_fit_study(spec)
                .expect("clean-room fit");
            let space = spec.study.space();
            let stride = (space.size() / 32).max(1);
            let probe: Vec<usize> = (0..32).map(|i| (i * stride) % space.size()).collect();
            let local = infer::predict_indices(&outcome.model, &space, &probe, Parallelism::Auto);
            let indices_json = probe
                .iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(",");
            let head = format!(
                r#""study":"{}","app":"{}","seed":"{seed:x}","budget":{budget},"batch":{batch},"quick":true"#,
                spec.study.name(),
                spec.benchmark.name()
            );
            SpecRef {
                reference_json: outcome.model.to_json_fingerprinted(spec.fingerprint()),
                fit_body: format!("{{{head}}}"),
                predict_body: format!("{{{head},\"indices\":[{indices_json}]}}"),
                probe,
                local,
                spec: spec.clone(),
            }
        })
        .collect();

    // ---- Phase 1: worker-pool chaos (seeded mid-span worker deaths).
    let worker_respawns = worker_chaos_phase(seed);

    // ---- Phase 2: daemon chaos rounds.
    let bin = ensure_served_binary();
    let plan = render_plan(
        seed,
        &[
            (FP_WRITE_ATOMIC, site(FailAction::Torn, 0.05, None)),
            (FP_COMMIT_OBJECT, site(FailAction::Error, 0.10, Some(4))),
            (FP_COMMIT_ENTRY, site(FailAction::Error, 0.10, Some(4))),
            (FP_HANDLER, site(FailAction::Error, 0.02, None)),
        ],
    );
    eprintln!("chaos_test: daemon failpoint plan {plan}");
    let mut daemon =
        Daemon::spawn(&bin, &daemon_args(&registry_root), Some(&plan)).expect("spawn daemon");
    let addr = AddrCell(Mutex::new(daemon.addr()));
    eprintln!(
        "chaos_test: daemon at {} (root {})",
        daemon.addr(),
        registry_root.display()
    );

    // Warm both models through the chaotic daemon before the kill rounds
    // begin, so most rounds exercise the hot predict path.
    let warm_counters = RoundCounters::default();
    for spec_ref in &refs {
        fit_until_ok(&addr, spec_ref, &warm_counters);
    }

    let mut rng = Xoshiro256::seed_from(seed).derive(0xD150);
    let mut rows: Vec<(usize, &'static str, u64, u64, u64, u64, f64)> = Vec::new();
    let totals = RoundCounters::default();
    let (mut sigterms, mut sigkills) = (0usize, 0usize);
    for round in 0..rounds {
        // Cycle guarantees coverage of all three kinds regardless of
        // seed; every fourth round's kind (and every kill delay) is
        // drawn from the seeded stream.
        let kind = match round % 4 {
            0 => Disruption::LoadOnly,
            1 => Disruption::Sigterm,
            2 => Disruption::Sigkill,
            _ => match (rng.next_f64() * 3.0) as u32 {
                0 => Disruption::LoadOnly,
                1 => Disruption::Sigterm,
                _ => Disruption::Sigkill,
            },
        };
        let delay = Duration::from_millis(20 + (rng.next_f64() * 120.0) as u64);
        let counters = RoundCounters::default();
        let started = Instant::now();
        std::thread::scope(|scope| {
            for client in 0..clients {
                let (addr, refs, counters) = (&addr, &refs, &counters);
                scope.spawn(move || {
                    for i in 0..requests {
                        let spec_ref = &refs[(client + i) % refs.len()];
                        let served = predict_until_ok(addr, spec_ref, counters);
                        assert_served_matches(spec_ref, &served);
                    }
                });
            }
            std::thread::sleep(delay);
            match kind {
                Disruption::LoadOnly => {}
                Disruption::Sigterm => {
                    sigterms += 1;
                    daemon.signal("TERM").expect("deliver SIGTERM");
                    let status = daemon.wait().expect("reap daemon");
                    assert!(
                        status.success(),
                        "round {round}: SIGTERM'd daemon must drain and exit 0, got {status}"
                    );
                    daemon = Daemon::spawn(&bin, &daemon_args(&registry_root), Some(&plan))
                        .expect("restart daemon after SIGTERM");
                    addr.set(daemon.addr());
                }
                Disruption::Sigkill => {
                    sigkills += 1;
                    daemon.signal("KILL").expect("deliver SIGKILL");
                    let status = daemon.wait().expect("reap daemon");
                    assert!(
                        !status.success(),
                        "round {round}: SIGKILL'd daemon cannot have exited cleanly"
                    );
                    daemon = Daemon::spawn(&bin, &daemon_args(&registry_root), Some(&plan))
                        .expect("restart daemon after SIGKILL");
                    addr.set(daemon.addr());
                }
            }
        });
        health_check(&addr);
        let wall = started.elapsed().as_secs_f64();
        let row = (
            round,
            kind.label(),
            counters.ok.get(),
            counters.retried.get(),
            counters.shed.get(),
            counters.refits.get(),
            wall,
        );
        eprintln!(
            "chaos_test: round {:>2} [{:>7}] ok {:>3} retried {:>3} shed {:>2} refits {} \
             ({:.2}s)",
            row.0, row.1, row.2, row.3, row.4, row.5, row.6
        );
        for (total, value) in [
            (&totals.ok, row.2),
            (&totals.retried, row.3),
            (&totals.shed, row.4),
            (&totals.refits, row.5),
        ] {
            total.add(value);
        }
        rows.push(row);
    }

    // ---- Final drain: SIGTERM the chaotic daemon one last time.
    daemon.signal("TERM").expect("deliver final SIGTERM");
    let status = daemon.wait().expect("reap daemon");
    assert!(status.success(), "final drain must exit 0, got {status}");
    drop(daemon);

    // ---- Post-chaos registry verification.
    // Opening sweeps whatever debris the last kill left behind; after
    // that sweep the tree must be byte-perfect.
    let registry = Registry::open(&registry_root).expect("reopen chaos registry");
    let swept = registry.sweep_debris().expect("sweep");
    let debris = remaining_debris(&registry_root);
    assert!(
        debris.is_empty(),
        "registry still holds crash debris after sweep: {debris:?}"
    );
    for spec_ref in &refs {
        let outcome = registry
            .get(&spec_ref.spec.key(), spec_ref.spec.fingerprint())
            .expect("post-chaos artifact readable (hash verified)")
            .expect("post-chaos artifact present");
        let chaos_json = outcome
            .model
            .to_json_fingerprinted(spec_ref.spec.fingerprint());
        assert_eq!(
            chaos_json,
            spec_ref.reference_json,
            "{}: chaos-fitted artifact differs from the clean-room fit",
            spec_ref.spec.key()
        );
    }
    eprintln!(
        "chaos_test: registry verified ({} artifacts byte-identical to clean room, \
         {} debris files swept on reopen)",
        refs.len(),
        swept.total()
    );

    // ---- Post-chaos serving: a clean daemon over the chaos registry
    // answers warm and bit-identical to clean-room local inference.
    let mut clean_daemon =
        Daemon::spawn(&bin, &daemon_args(&registry_root), None).expect("spawn clean daemon");
    let clean_addr = AddrCell(Mutex::new(clean_daemon.addr()));
    let clean_counters = RoundCounters::default();
    for spec_ref in &refs {
        let reply = fit_until_ok(&clean_addr, spec_ref, &clean_counters);
        assert!(
            reply.get("warm").unwrap().as_bool().unwrap(),
            "{}: post-chaos daemon refitted instead of loading warm",
            spec_ref.spec.key()
        );
        let served = predict_until_ok(&clean_addr, spec_ref, &clean_counters);
        assert_served_matches(spec_ref, &served);
    }
    let (status, _) = http_request(clean_addr.get(), "POST", "/shutdown", None).expect("shutdown");
    assert_eq!(status, 200);
    let exit = clean_daemon.wait().expect("reap clean daemon");
    assert!(exit.success(), "clean daemon exited {exit}");

    let total_requests = clients as u64 * requests as u64 * rounds as u64;
    eprintln!(
        "chaos_test: PASS — {rounds} rounds ({sigterms} sigterm, {sigkills} sigkill), \
         {total_requests} requests all answered ({} retried, {} shed, {} refits), \
         {worker_respawns} worker respawns healed",
        totals.retried.get(),
        totals.shed.get(),
        totals.refits.get(),
    );

    // ---- Artifacts.
    let mut table = String::from("round,kind,ok,retried,shed,refits,wall_s\n");
    for (round, kind, ok, retried, shed, refits, wall) in &rows {
        table.push_str(&format!(
            "{round},{kind},{ok},{retried},{shed},{refits},{wall:.3}\n"
        ));
    }
    write_artifact(Path::new("results/chaos_test.csv"), &table);
    if output_json {
        let mut json = String::from("{\n");
        json.push_str(&format!(
            "  \"seed\": \"{seed:#x}\",\n  \"rounds\": {rounds},\n  \"clients\": {clients},\n  \
             \"requests_per_client\": {requests},\n  \"budget\": {budget},\n  \
             \"sigterm_rounds\": {sigterms},\n  \"sigkill_rounds\": {sigkills},\n  \
             \"requests_ok\": {},\n  \"requests_retried\": {},\n  \"requests_shed\": {},\n  \
             \"refits\": {},\n  \"worker_respawns\": {worker_respawns},\n  \
             \"debris_swept_on_reopen\": {},\n  \
             \"verdicts\": {{\n    \"artifacts_byte_identical\": true,\n    \
             \"predictions_bit_identical\": true,\n    \"registry_debris_free\": true\n  }},\n",
            totals.ok.get(),
            totals.retried.get(),
            totals.shed.get(),
            totals.refits.get(),
            swept.total(),
        ));
        json.push_str("  \"rows\": [\n");
        for (i, (round, kind, ok, retried, shed, refits, wall)) in rows.iter().enumerate() {
            let comma = if i + 1 < rows.len() { "," } else { "" };
            json.push_str(&format!(
                "    {{\"round\": {round}, \"kind\": \"{kind}\", \"ok\": {ok}, \
                 \"retried\": {retried}, \"shed\": {shed}, \"refits\": {refits}, \
                 \"wall_s\": {wall:.3}}}{comma}\n"
            ));
        }
        json.push_str("  ]\n}\n");
        write_artifact(Path::new("results/chaos_test.json"), &json);
    }

    if keep_root {
        eprintln!("chaos_test: kept scratch tree at {}", scratch.display());
    } else {
        let _ = std::fs::remove_dir_all(&scratch);
    }
}

fn site(action: FailAction, probability: f64, max_fires: Option<u64>) -> SiteSpec {
    SiteSpec {
        action,
        probability,
        max_fires,
    }
}

fn daemon_args(root: &Path) -> Vec<String> {
    [
        "--addr",
        "127.0.0.1:0",
        "--root",
        &root.display().to_string(),
        "--gate-wait-ms",
        "2000",
        "--drain-ms",
        "20000",
    ]
    .iter()
    .map(ToString::to_string)
    .collect()
}

/// Locates the served binary, building it first when this harness was
/// built without it (`cargo run --bin chaos_test` straight from clean).
fn ensure_served_binary() -> PathBuf {
    ensure_binary("archpredict-served", locate_served_binary)
}

fn ensure_binary(package: &str, locate: impl Fn() -> Result<PathBuf, String>) -> PathBuf {
    if let Ok(path) = locate() {
        return path;
    }
    let mut build = std::process::Command::new(env!("CARGO"));
    build.args(["build", "-p", package]);
    if !cfg!(debug_assertions) {
        build.arg("--release");
    }
    let status = build.status().expect("run cargo build");
    assert!(status.success(), "building {package} failed");
    locate().expect("binary after building it")
}

/// Seeded worker-pool chaos: real worker processes die mid-span under a
/// deterministic `exit:9` schedule; the pool respawns and re-blames, the
/// retry layer heals, and the healed batch must be bit-identical to the
/// undisturbed in-process run. Returns the respawn count.
fn worker_chaos_phase(seed: u64) -> u64 {
    ensure_binary("archpredict-worker", || {
        locate_worker_binary().map_err(|e| e.to_string())
    });
    let spec = WorkerSpec::Sleepy {
        study: Study::MemorySystem,
        sleep_micros: 100,
        crash_index: None,
        nan_index: None,
    };
    let space = spec.space();
    let indices: Vec<usize> = (0..240).map(|i| (i * 7919) % space.size()).collect();

    let mut reference_pool =
        ProcessPoolOracle::with_workers(spec.clone(), 0).expect("in-process pool");
    reference_pool.set_span_timeout(None);
    let mut stats = SimStats::default();
    let reference: Vec<u64> = reference_pool
        .evaluate_batch(&space, &indices, &mut stats)
        .iter()
        .map(|r| r.expect("sleepy evaluator never fails").to_bits())
        .collect();

    // Workers inherit the kill schedule through the environment; this
    // process never installs it locally, so only children die.
    std::env::set_var(
        ENV_FAILPOINTS,
        render_plan(
            seed,
            &[(FP_WORKER_EVAL, site(FailAction::Exit(9), 0.05, None))],
        ),
    );
    let mut chaotic_pool = ProcessPoolOracle::with_workers(spec, 2).expect("chaotic pool");
    chaotic_pool.set_span_timeout(None);
    let healing = RetryingOracle::with_policy(
        chaotic_pool,
        RetryPolicy {
            max_attempts: 10,
            ..RetryPolicy::default()
        },
    );
    let mut stats = SimStats::default();
    let healed: Vec<u64> = healing
        .evaluate_batch(&space, &indices, &mut stats)
        .iter()
        .map(|r| r.expect("retry layer heals every worker death").to_bits())
        .collect();
    std::env::remove_var(ENV_FAILPOINTS);

    assert_eq!(
        healed, reference,
        "healed worker-chaos batch diverged from the undisturbed run"
    );
    let respawns = healing.inner().respawns();
    assert!(
        respawns >= 1,
        "worker chaos schedule killed nobody; raise the probability or change the seed"
    );
    eprintln!(
        "chaos_test: worker phase healed {} evaluations through {respawns} respawns \
         ({} retries)",
        indices.len(),
        stats.retries
    );
    respawns
}

/// POSTs `/fit` until it answers 200, riding out injected faults, kills
/// and restarts. Returns the final reply.
fn fit_until_ok(
    addr: &AddrCell,
    spec_ref: &SpecRef,
    counters: &RoundCounters,
) -> archpredict_stats::json::Value {
    let deadline = Instant::now() + CLIENT_DEADLINE;
    loop {
        match http_request(addr.get(), "POST", "/fit", Some(&spec_ref.fit_body)) {
            Ok((200, reply)) => {
                counters.ok.incr();
                return reply;
            }
            Ok((503, _)) => counters.shed.incr(),
            Ok((_, _)) | Err(_) => counters.retried.incr(),
        };
        assert!(
            Instant::now() < deadline,
            "fit for {} did not succeed within {CLIENT_DEADLINE:?}",
            spec_ref.spec.key()
        );
        std::thread::sleep(Duration::from_millis(40));
    }
}

/// POSTs `/predict` until it answers 200; a 404 (the model vanished
/// because a kill beat its registry commit) triggers a refit first.
fn predict_until_ok(addr: &AddrCell, spec_ref: &SpecRef, counters: &RoundCounters) -> Vec<f64> {
    let deadline = Instant::now() + CLIENT_DEADLINE;
    loop {
        match http_request(addr.get(), "POST", "/predict", Some(&spec_ref.predict_body)) {
            Ok((200, reply)) => {
                counters.ok.incr();
                return reply
                    .get("predictions")
                    .unwrap()
                    .as_array()
                    .unwrap()
                    .iter()
                    .map(|v| v.as_f64().unwrap())
                    .collect();
            }
            Ok((503, _)) => counters.shed.incr(),
            Ok((404, _)) => {
                counters.refits.incr();
                fit_until_ok(addr, spec_ref, counters);
                continue;
            }
            Ok((_, _)) | Err(_) => counters.retried.incr(),
        };
        assert!(
            Instant::now() < deadline,
            "predict for {} did not succeed within {CLIENT_DEADLINE:?}",
            spec_ref.spec.key()
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn assert_served_matches(spec_ref: &SpecRef, served: &[f64]) {
    assert_eq!(served.len(), spec_ref.local.len());
    for (i, (s, l)) in served.iter().zip(&spec_ref.local).enumerate() {
        assert_eq!(
            s.to_bits(),
            l.to_bits(),
            "{}: served prediction for index {} diverged from clean-room inference: {s} != {l}",
            spec_ref.spec.key(),
            spec_ref.probe[i]
        );
    }
}

/// The daemon must answer `/ready` 200 with `ready: true` shortly after
/// every round (injected handler faults can 500 a few probes; kills
/// cannot linger). Readiness is the right probe here, not liveness: a
/// draining daemon still answers `/health` 200 but will never take the
/// next round's work.
fn health_check(addr: &AddrCell) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok((200, ready)) = http_request(addr.get(), "GET", "/ready", None) {
            assert!(ready.get("ok").unwrap().as_bool().unwrap());
            assert!(ready.get("ready").unwrap().as_bool().unwrap());
            return;
        }
        assert!(
            Instant::now() < deadline,
            "daemon not ready 30s after the round ended"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Debris-shaped files left on disk after the final sweep: torn temps
/// anywhere, claim/grave files under `leases/`.
fn remaining_debris(root: &Path) -> Vec<String> {
    let mut found = Vec::new();
    for dir in ["entries", "objects", "leases"] {
        let Ok(listing) = std::fs::read_dir(root.join(dir)) else {
            continue;
        };
        for item in listing.flatten() {
            let name = item.file_name().to_string_lossy().into_owned();
            let torn = name.ends_with(".tmp");
            let lease_debris =
                dir == "leases" && (name.contains(".claim-") || name.contains(".stale-"));
            if torn || lease_debris {
                found.push(format!("{dir}/{name}"));
            }
        }
    }
    found.sort();
    found
}
