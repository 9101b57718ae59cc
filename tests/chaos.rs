//! End-to-end chaos test of the serving stack: drives the real
//! `archpredict-served` daemon under concurrent predict load, with a
//! failpoint plan that arms handler, registry and persist faults, while
//! a **seeded** disruption schedule SIGTERMs it mid-flight and SIGKILLs
//! it in the middle of a fit, then proves the stack healed:
//!
//! * every request was answered or cleanly shed (clients retry to
//!   completion; none time out), and injected faults did answer some;
//! * a SIGTERM'd daemon always drains and exits 0, a SIGKILL'd one never
//!   does;
//! * a fit killed before its commit is fitted again by the restarted
//!   daemon;
//! * after the sweep on reopen the registry holds no torn temps, and
//!   every artifact passes its content-hash check and is **byte-identical**
//!   to a clean-room in-process fit of the same spec;
//! * a clean daemon over the chaos registry loads every model warm and
//!   serves predictions **bit-identical** to local inference on the
//!   clean-room model.
//!
//! Every disruption decision flows from [`SEED`]: each daemon
//! incarnation's failpoint plan, the round kinds and the kill timing.

mod daemon;

use archpredict::campaign::CampaignConfig;
use archpredict::failpoint::{render_plan, FailAction, SiteSpec};
use archpredict::infer;
use archpredict::persist::FP_WRITE_ATOMIC;
use archpredict::registry::{Registry, StudyFitSpec, FP_COMMIT_ENTRY, FP_COMMIT_OBJECT};
use archpredict::serve::{http_request, wait_ready, FP_HANDLER};
use archpredict::studies::Study;
use archpredict::telemetry::Counter;
use archpredict_ann::Parallelism;
use archpredict_stats::json::Value;
use archpredict_stats::rng::Xoshiro256;
use archpredict_workloads::Benchmark;
use daemon::Daemon;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The schedule seed.
const SEED: u64 = 0xC4A05;
/// Disruption rounds.
const ROUNDS: usize = 10;
/// Concurrent clients per round, and `/predict` requests per client.
const CLIENTS: usize = 4;
const REQUESTS: usize = 6;
/// The served specs' sample budget (two rounds of half of it), and the
/// killed specs', whose longer fits leave the kill a wider window
/// before the commit.
const BUDGET: usize = 12;
const KILLED_BUDGET: usize = 40;

/// No request is in flight longer than this before the test declares
/// the stack wedged; generous because a SIGKILL mid-fit forces a full
/// refit on the restarted daemon.
const CLIENT_DEADLINE: Duration = Duration::from_secs(180);
/// How long a SIGTERM'd daemon may take to drain, and a daemon to be
/// ready again after a round.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);
const READY_LIMIT: Duration = Duration::from_secs(30);

/// One round's disruption.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Disruption {
    /// No process-level disruption: pure load under the failpoint plan.
    LoadOnly,
    /// SIGTERM the daemon mid-round, assert exit 0, restart it.
    Sigterm,
    /// Start a fit no earlier round made, SIGKILL the daemon before it
    /// commits (never exit 0), restart it.
    Sigkill,
}

/// A spec's request bodies plus the clean-room reference the chaos run
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

impl SpecRef {
    /// Fits `spec` into the clean-room registry and records its
    /// reference.
    fn fit(clean_room: &Registry, spec: StudyFitSpec) -> Self {
        let outcome = clean_room.get_or_fit_study(&spec).expect("clean-room fit");
        let space = spec.study.space();
        let stride = (space.size() / 32).max(1);
        let probe: Vec<usize> = (0..32).map(|i| (i * stride) % space.size()).collect();
        let local = infer::predict_indices(&outcome.model, &space, &probe, Parallelism::Auto);
        let indices = probe
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let head = format!(
            r#""study":"{}","app":"{}","seed":"{:x}","budget":{},"batch":{},"quick":true"#,
            spec.study.name(),
            spec.benchmark.name(),
            spec.config.seed,
            spec.config.max_samples,
            spec.config.batch,
        );
        SpecRef {
            reference_json: outcome.model.to_json_fingerprinted(spec.fingerprint()),
            fit_body: format!("{{{head}}}"),
            predict_body: format!("{{{head},\"indices\":[{indices}]}}"),
            probe,
            local,
            spec,
        }
    }
}

/// Client outcomes over the run, warm-up included: the evidence that
/// every request was answered or shed.
struct Counters {
    ok: Counter,
    retried: Counter,
    /// Retried requests that the handler failpoint answered.
    injected: Counter,
    shed: Counter,
    refits: Counter,
}

impl Default for Counters {
    fn default() -> Self {
        Self {
            ok: Counter::new("chaos.ok"),
            retried: Counter::new("chaos.retried"),
            injected: Counter::new("chaos.injected"),
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

/// The seeded round kinds and the delay after which each round's
/// disruption starts. Every fourth round's kind is drawn; the cycle
/// covers all three kinds whatever the seed.
fn schedule() -> Vec<(Disruption, Duration)> {
    let mut rng = Xoshiro256::seed_from(SEED).derive(0xD150);
    (0..ROUNDS)
        .map(|round| {
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
            (kind, delay)
        })
        .collect()
}

/// Spawns daemon incarnation `incarnation` over `root`. Each incarnation
/// draws its own failpoint schedule: a site's hits count from 1 in every
/// process, so one plan shared by all of them would replay the same
/// first fires in each and never reach a later one.
fn spawn_incarnation(root: &Path, incarnation: u64) -> Daemon {
    let site = |action, probability, max_fires| SiteSpec {
        action,
        probability,
        max_fires,
    };
    let plan = render_plan(
        Xoshiro256::seed_from(SEED).derive(incarnation).next_u64(),
        &[
            (FP_WRITE_ATOMIC, site(FailAction::Torn, 0.05, None)),
            (FP_COMMIT_OBJECT, site(FailAction::Error, 0.10, Some(4))),
            (FP_COMMIT_ENTRY, site(FailAction::Error, 0.10, Some(4))),
            (FP_HANDLER, site(FailAction::Error, 0.02, None)),
        ],
    );
    let args = ["--gate-wait-ms", "2000", "--drain-ms", "20000"];
    Daemon::spawn(root, Some(&plan), &args)
}

#[test]
fn daemon_heals_from_faults_and_kills_with_identical_artifacts() {
    let scratch = std::env::temp_dir().join(format!("archpredict_chaos_{}", std::process::id()));
    let registry_root = scratch.join("registry");
    let _ = std::fs::remove_dir_all(&scratch);

    // ---- Clean-room references, fitted in-process and undisturbed: the
    // two served specs, and one spec per SIGKILL round that only that
    // round fits.
    let schedule = schedule();
    let spec = |study, benchmark, seed, budget: usize| StudyFitSpec {
        study,
        benchmark,
        config: CampaignConfig {
            seed,
            max_samples: budget,
            batch: budget.div_ceil(2),
            ..CampaignConfig::default()
        },
        quick: true,
    };
    let clean_room = Registry::open(scratch.join("cleanroom")).expect("open clean-room registry");
    let served = [
        spec(Study::MemorySystem, Benchmark::Gzip, SEED, BUDGET),
        spec(Study::Processor, Benchmark::Mcf, SEED, BUDGET),
    ]
    .map(|spec| SpecRef::fit(&clean_room, spec));
    let kills = schedule
        .iter()
        .filter(|(kind, _)| *kind == Disruption::Sigkill);
    let killed: Vec<SpecRef> = (1..=kills.count() as u64)
        .map(|n| {
            spec(
                Study::MemorySystem,
                Benchmark::Gzip,
                SEED + n,
                KILLED_BUDGET,
            )
        })
        .map(|spec| SpecRef::fit(&clean_room, spec))
        .collect();

    // ---- Warm both served models through the chaotic daemon, so most
    // rounds exercise the hot predict path.
    let mut incarnation = 0;
    let mut daemon = spawn_incarnation(&registry_root, incarnation);
    let addr = AddrCell(Mutex::new(daemon.addr()));
    let counters = Counters::default();
    for spec_ref in &served {
        fit_until_ok(&addr, spec_ref, &counters);
    }
    let injected_in_warm_up = counters.injected.get();

    // ---- Disruption rounds.
    let mut killed_refs = killed.iter();
    let mut cold_refits_after_kill = 0;
    for (round, &(kind, delay)) in schedule.iter().enumerate() {
        std::thread::scope(|scope| {
            for client in 0..CLIENTS {
                let (addr, served, counters) = (&addr, &served, &counters);
                scope.spawn(move || {
                    for i in 0..REQUESTS {
                        let spec_ref = &served[(client + i) % served.len()];
                        let predictions = predict_until_ok(addr, spec_ref, counters);
                        assert_served_matches(spec_ref, &predictions);
                    }
                });
            }
            std::thread::sleep(delay);
            if kind == Disruption::LoadOnly {
                return;
            }
            // A SIGKILL round starts a fit that no earlier round made and
            // kills the daemon as soon as the fit holds its lease file,
            // which it takes before fitting and keeps until it commits.
            let fit = (kind == Disruption::Sigkill).then(|| {
                let spec_ref = killed_refs.next().expect("one spec per SIGKILL round");
                let (addr, counters) = (&addr, &counters);
                let fit = scope.spawn(move || fit_until_ok(addr, spec_ref, counters));
                let lease = registry_root
                    .join("leases")
                    .join(format!("{}.lock", spec_ref.spec.key().slug()));
                let give_up = Instant::now() + CLIENT_DEADLINE;
                while !lease.exists() {
                    assert!(
                        Instant::now() < give_up,
                        "round {round}: the fit never started"
                    );
                    std::thread::sleep(Duration::from_millis(1));
                }
                fit
            });
            daemon.signal(if fit.is_some() { "KILL" } else { "TERM" });
            let status = daemon.exit_within(DRAIN_LIMIT);
            assert_eq!(
                status.success(),
                fit.is_none(),
                "round {round}: a SIGTERM'd daemon drains and exits 0, a SIGKILL'd one \
                 cannot; the {kind:?} round's exited {status}"
            );
            incarnation += 1;
            daemon = spawn_incarnation(&registry_root, incarnation);
            addr.set(daemon.addr());
            if let Some(fit) = fit {
                let reply = fit.join().expect("fit client");
                if !reply.get("warm").unwrap().as_bool().unwrap() {
                    cold_refits_after_kill += 1;
                }
            }
        });
        wait_ready(addr.get(), READY_LIMIT)
            .unwrap_or_else(|e| panic!("round {round}: daemon not ready after the round: {e}"));
    }
    let injected_in_rounds = counters.injected.get() - injected_in_warm_up;
    assert!(
        injected_in_rounds > 0,
        "no request in the rounds was answered by an injected fault"
    );
    assert!(
        cold_refits_after_kill > 0,
        "no fit killed before its commit was fitted again after the restart"
    );

    // ---- Final drain: SIGTERM the chaotic daemon one last time.
    daemon.signal("TERM");
    let status = daemon.exit_within(DRAIN_LIMIT);
    assert!(status.success(), "final drain must exit 0, got {status}");
    drop(daemon);

    // ---- Registry verification. Reopening sweeps whatever debris the
    // kills left behind; after that the tree must be byte-perfect.
    let swept = remaining_debris(&registry_root).len();
    let registry = Registry::open(&registry_root).expect("reopen chaos registry");
    let debris = remaining_debris(&registry_root);
    assert!(
        debris.is_empty(),
        "registry still holds crash debris after the sweep: {debris:?}"
    );
    for spec_ref in served.iter().chain(&killed) {
        let outcome = registry
            .get(&spec_ref.spec.key(), spec_ref.spec.fingerprint())
            .expect("post-chaos artifact readable (hash verified)")
            .expect("post-chaos artifact present");
        assert_eq!(
            outcome
                .model
                .to_json_fingerprinted(spec_ref.spec.fingerprint()),
            spec_ref.reference_json,
            "{}: chaos-fitted artifact differs from the clean-room fit",
            spec_ref.spec.key()
        );
    }

    // ---- A clean daemon over the chaos registry answers warm and
    // bit-identical to clean-room local inference.
    let mut clean = Daemon::spawn(&registry_root, None, &[]);
    let clean_addr = AddrCell(Mutex::new(clean.addr()));
    let clean_counters = Counters::default();
    for spec_ref in served.iter().chain(&killed) {
        let reply = fit_until_ok(&clean_addr, spec_ref, &clean_counters);
        assert!(
            reply.get("warm").unwrap().as_bool().unwrap(),
            "{}: post-chaos daemon refitted instead of loading warm",
            spec_ref.spec.key()
        );
        let predictions = predict_until_ok(&clean_addr, spec_ref, &clean_counters);
        assert_served_matches(spec_ref, &predictions);
    }
    let (status, _) = http_request(clean.addr(), "POST", "/shutdown", None).expect("shutdown");
    assert_eq!(status, 200);
    let exit = clean.exit_within(DRAIN_LIMIT);
    assert!(exit.success(), "clean daemon exited {exit}");

    eprintln!(
        "chaos: {ROUNDS} rounds over {} daemons; {} requests answered, {} retried ({} injected \
         in the rounds), {} shed, {} refits, {cold_refits_after_kill} killed fits refitted, \
         {swept} torn temps swept on reopen",
        incarnation + 1,
        counters.ok.get(),
        counters.retried.get(),
        injected_in_rounds,
        counters.shed.get(),
        counters.refits.get(),
    );
    let _ = std::fs::remove_dir_all(&scratch);
}

/// POSTs `/fit` until it answers 200, riding out injected faults, kills
/// and restarts. Returns the final reply.
fn fit_until_ok(addr: &AddrCell, spec_ref: &SpecRef, counters: &Counters) -> Value {
    post_until_answered(addr, "/fit", &spec_ref.fit_body, counters)
        .unwrap_or_else(|| panic!("/fit for {} answered 404", spec_ref.spec.key()))
}

/// POSTs `/predict` until it answers 200; a 404 (the model vanished
/// because a kill beat its registry commit) triggers a refit first.
fn predict_until_ok(addr: &AddrCell, spec_ref: &SpecRef, counters: &Counters) -> Vec<f64> {
    loop {
        if let Some(reply) = post_until_answered(addr, "/predict", &spec_ref.predict_body, counters)
        {
            return reply
                .get("predictions")
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|v| v.as_f64().unwrap())
                .collect();
        }
        counters.refits.incr();
        fit_until_ok(addr, spec_ref, counters);
    }
}

/// POSTs `body` to `path` until it answers 200 (the reply) or 404
/// (`None`), counting every other outcome as shed or retried.
fn post_until_answered(
    addr: &AddrCell,
    path: &str,
    body: &str,
    counters: &Counters,
) -> Option<Value> {
    let deadline = Instant::now() + CLIENT_DEADLINE;
    loop {
        match http_request(addr.get(), "POST", path, Some(body)) {
            Ok((200, reply)) => {
                counters.ok.incr();
                return Some(reply);
            }
            Ok((404, _)) => return None,
            Ok((503, _)) => counters.shed.incr(),
            Ok((_, reply)) => {
                let error = reply.get("error").and_then(|e| e.as_str()).unwrap_or("");
                if error.contains(&format!("`{FP_HANDLER}`")) {
                    counters.injected.incr();
                }
                counters.retried.incr();
            }
            Err(_) => counters.retried.incr(),
        };
        assert!(
            Instant::now() < deadline,
            "{path} {body} did not succeed within {CLIENT_DEADLINE:?}"
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

/// Torn temps anywhere in the registry.
fn remaining_debris(root: &Path) -> Vec<String> {
    let mut found = Vec::new();
    for dir in ["entries", "objects", "leases"] {
        let Ok(listing) = std::fs::read_dir(root.join(dir)) else {
            continue;
        };
        for item in listing.flatten() {
            let name = item.file_name().to_string_lossy().into_owned();
            if name.ends_with(".tmp") {
                found.push(format!("{dir}/{name}"));
            }
        }
    }
    found.sort();
    found
}
