//! Telemetry integration: the observability layer must be invisible to
//! the numbers. Campaign learning-curve CSVs stay bit-identical at every
//! `Parallelism` setting whether the JSONL trace sink is armed or not,
//! and the daemon's `/metrics` endpoint serves the unified counter
//! registry in its stable text format while `/stats` keeps its JSON
//! shape.
//!
//! The trace sink is process-global, so every test that arms or clears
//! it serializes on a lock and disarms on drop (panic included) — the
//! same discipline the failpoint tests use.

use archpredict::explorer::{Explorer, ExplorerConfig};
use archpredict::report::LearningCurve;
use archpredict::serve::{http_request, http_request_text, ServeConfig, Server};
use archpredict::simulate::{CachedEvaluator, SimBudget, StudyEvaluator};
use archpredict::studies::Study;
use archpredict::telemetry;
use archpredict_ann::{Parallelism, TrainConfig};
use archpredict_workloads::{Benchmark, TraceGenerator};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

/// Serializes trace-sink manipulation across test threads; the guard
/// disarms the sink on drop.
static TEST_LOCK: Mutex<()> = Mutex::new(());

struct Armed<'a>(#[allow(dead_code)] MutexGuard<'a, ()>);

impl Drop for Armed<'_> {
    fn drop(&mut self) {
        telemetry::clear_trace();
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
