//! Telemetry integration: the observability layer must be invisible to
//! the numbers. Campaign learning-curve CSVs stay bit-identical at every
//! `Parallelism` setting whether the JSONL trace sink is armed or not;
//! one trace ID set in the coordinator round-trips through the APWK pipe
//! into worker span events; and the daemon's `/metrics` endpoint serves
//! the unified counter registry in its stable text format while `/stats`
//! keeps its JSON shape.
//!
//! The trace sink is process-global, so every test that arms or clears
//! it serializes on a lock and disarms on drop (panic included) — the
//! same discipline the failpoint tests use.

use archpredict::distributed::{locate_worker_binary, ProcessPoolOracle, WorkerSpec};
use archpredict::explorer::{Explorer, ExplorerConfig};
use archpredict::report::LearningCurve;
use archpredict::serve::{http_request, http_request_text, ServeConfig, Server};
use archpredict::simulate::{CachedEvaluator, Oracle, SimBudget, SimStats, StudyEvaluator};
use archpredict::studies::Study;
use archpredict::telemetry;
use archpredict_ann::{Parallelism, TrainConfig};
use archpredict_workloads::{Benchmark, TraceGenerator};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serializes trace-sink manipulation across test threads; the guard
/// disarms the sink and scrubs the inherited env knob on drop.
static TEST_LOCK: Mutex<()> = Mutex::new(());

struct Armed<'a>(#[allow(dead_code)] MutexGuard<'a, ()>);

impl Drop for Armed<'_> {
    fn drop(&mut self) {
        telemetry::clear_trace();
        std::env::remove_var(telemetry::ENV_TRACE);
    }
}

fn lock<'a>() -> Armed<'a> {
    let guard = TEST_LOCK
        .lock()
        .unwrap_or_else(|poison| poison.into_inner());
    telemetry::clear_trace();
    Armed(guard)
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "archpredict_telemetry_{tag}_{}.jsonl",
        std::process::id()
    ))
}

/// Builds (a no-op when fresh) and locates the worker binary. Always
/// goes through cargo: `cargo test -p archpredict` does not track the
/// worker as a dependency, so a previously built binary may predate the
/// sources this test asserts against.
fn worker_binary() -> &'static PathBuf {
    static BINARY: OnceLock<PathBuf> = OnceLock::new();
    BINARY.get_or_init(|| {
        let mut build = std::process::Command::new(env!("CARGO"));
        build.args(["build", "-p", "archpredict-worker"]);
        if !cfg!(debug_assertions) {
            build.arg("--release");
        }
        let status = build.status().expect("run cargo build for the worker");
        assert!(status.success(), "building archpredict-worker failed");
        locate_worker_binary().expect("worker binary after building it")
    })
}

fn quick_evaluator() -> CachedEvaluator<StudyEvaluator> {
    let study = Study::MemorySystem;
    let generator = TraceGenerator::new(Benchmark::Applu);
    CachedEvaluator::new(
        StudyEvaluator::with_budget(
            study,
            Benchmark::Applu,
            SimBudget::spread(&generator, 2, 4_000, 8_000),
        ),
        study.space(),
    )
}

/// One small campaign at the given parallelism; returns the
/// wall-clock-free learning-curve CSV, the sampled indices, and probe
/// predictions as exact bits — everything the equivalence gates compare.
fn campaign_outcome(parallelism: Parallelism) -> (String, Vec<usize>, Vec<u64>) {
    let space = Study::MemorySystem.space();
    let evaluator = quick_evaluator();
    let config = ExplorerConfig {
        batch: 25,
        target_error: 0.0,
        max_samples: 50,
        train: TrainConfig {
            max_epochs: 25,
            patience: 8,
            parallelism,
            ..TrainConfig::default()
        },
        seed: 0x7E1E,
        ..ExplorerConfig::default()
    };
    let mut explorer = Explorer::new(&space, &evaluator, config);
    explorer.run();
    let mut curve = LearningCurve::new("telemetry");
    for round in explorer.history() {
        curve.push(round, None);
    }
    let probes: Vec<u64> = explorer
        .predict_indices(&[0, 123, 4_567, 11_000])
        .iter()
        .map(|p| p.to_bits())
        .collect();
    (
        curve.to_csv_deterministic(),
        explorer.sampled_indices().to_vec(),
        probes,
    )
}

/// The tentpole determinism gate: counters and spans must never leak
/// into the numbers. The deterministic campaign CSV is bit-identical at
/// `Fixed(1)`, `Fixed(4)` and `Auto`, with the trace sink disarmed *and*
/// armed.
#[test]
fn campaign_csv_is_bit_identical_across_parallelism_and_trace_arming() {
    let _guard = lock();
    let reference = campaign_outcome(Parallelism::Fixed(1));

    let disarmed = campaign_outcome(Parallelism::Fixed(4));
    assert_eq!(reference, disarmed, "Fixed(4) disarmed diverged");

    let trace = temp_path("campaign");
    let _ = std::fs::remove_file(&trace);
    telemetry::install_trace(&trace).expect("arm trace sink");
    for parallelism in [
        Parallelism::Fixed(1),
        Parallelism::Fixed(4),
        Parallelism::Auto,
    ] {
        let armed = campaign_outcome(parallelism);
        assert_eq!(reference, armed, "{parallelism:?} armed diverged");
    }
    telemetry::clear_trace();

    // The armed campaigns really traced: every canonical phase span shows
    // up in the event log.
    let events = std::fs::read_to_string(&trace).expect("read trace log");
    for name in [
        "campaign.round",
        "campaign.select",
        "campaign.collect",
        "campaign.fit",
        "infer.sweep",
    ] {
        assert!(
            events.contains(&format!("\"name\":\"{name}\"")),
            "no {name} span in the armed trace log"
        );
    }
    let _ = std::fs::remove_file(&trace);
}

/// One trace ID, set in the coordinator, crosses the APWK pipe: the
/// worker adopts it for its span events, echoes it on every RESULT and
/// SPAN_DONE frame (a wrong echo would read as a died worker and show up
/// as a respawn), and both processes' events correlate in one JSONL log.
#[test]
fn trace_id_round_trips_through_the_worker_pipe() {
    let _guard = lock();
    let trace_file = temp_path("pipe");
    let _ = std::fs::remove_file(&trace_file);

    // Arm both sides: the coordinator via `install_trace`, the worker via
    // the env knob it inherits at spawn.
    telemetry::install_trace(&trace_file).expect("arm trace sink");
    std::env::set_var(telemetry::ENV_TRACE, &trace_file);

    let spec = WorkerSpec::Study {
        study: Study::MemorySystem,
        benchmark: Benchmark::Mcf,
        budget: SimBudget::quick(&TraceGenerator::new(Benchmark::Mcf)),
    };
    let space = spec.space();
    worker_binary();
    let mut pool = ProcessPoolOracle::with_workers(spec, 1).expect("build pool");
    pool.set_span_timeout(None);

    let trace_id = telemetry::fresh_trace_id();
    let results = {
        let _scope = telemetry::set_trace(trace_id);
        let indices: Vec<usize> = (0..6).map(|i| (i * 997) % space.size()).collect();
        let mut stats = SimStats::default();
        pool.evaluate_batch(&space, &indices, &mut stats)
    };
    assert!(results.iter().all(Result::is_ok), "fault-free evaluator");
    assert_eq!(pool.respawns(), 0, "a wrong trace echo reads as a death");
    // Shut the pool down so the worker process exits and its final span
    // events are on disk before we read the log.
    drop(pool);

    let events = std::fs::read_to_string(&trace_file).expect("read trace log");
    let hex = format!("{trace_id:016x}");
    let span_with = |name: &str| {
        events
            .lines()
            .any(|l| l.contains(&format!("\"name\":\"{name}\"")) && l.contains(&hex))
    };
    assert!(
        span_with("distributed.span"),
        "no coordinator span carries trace {hex}"
    );
    assert!(
        span_with("worker.span"),
        "no worker span carries trace {hex} — the ID did not cross the pipe"
    );
    let _ = std::fs::remove_file(&trace_file);
}

/// `GET /metrics` on the daemon serves the unified counter registry in
/// the stable text format, while `/stats` keeps answering its JSON shape
/// from the same underlying counters.
#[test]
fn metrics_endpoint_serves_the_unified_registry() {
    let root = std::env::temp_dir().join(format!(
        "archpredict_telemetry_metrics_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            registry_root: root.clone(),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let handle = server.spawn();
    let addr = handle.addr();

    let (status, first) = http_request_text(addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        first.lines().next(),
        Some("# archpredict metrics v1"),
        "metrics header is versioned"
    );
    let value_of = |scrape: &str, name: &str| -> u64 {
        scrape
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .unwrap_or_else(|| panic!("counter {name} missing from /metrics"))
            .parse()
            .expect("counter values are integers")
    };
    for name in [
        "serve.requests",
        "serve.predictions",
        "infer.sweeps",
        "registry.fits",
        "sim.unique_simulations",
        "campaign.rounds",
        "trace.spans_emitted",
    ] {
        value_of(&first, name);
    }

    // Counters are cumulative and process-wide: a second scrape sees at
    // least the request the first scrape itself made.
    let (_, second) = http_request_text(addr, "GET", "/metrics", None).unwrap();
    assert!(
        value_of(&second, "serve.requests") > value_of(&first, "serve.requests"),
        "serve.requests did not move between scrapes"
    );

    // `/stats` still answers its JSON schema alongside.
    let (status, stats) = http_request(addr, "GET", "/stats", None).unwrap();
    assert_eq!(status, 200);
    assert!(stats.get("ok").unwrap().as_bool().unwrap());
    assert!(stats.get("requests").unwrap().as_u64().unwrap() >= 2);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
