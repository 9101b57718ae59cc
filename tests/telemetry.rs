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
use std::collections::BTreeMap;
use std::net::SocketAddr;
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

/// Scrapes `GET /metrics` into a name → value map, checking the
/// versioned header.
fn scrape(addr: SocketAddr) -> BTreeMap<String, u64> {
    let (status, text) = http_request_text(addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200, "metrics scrape failed: {text}");
    let mut lines = text.lines();
    assert_eq!(
        lines.next(),
        Some("# archpredict metrics v1"),
        "metrics header is versioned"
    );
    lines
        .map(|line| {
            let (name, value) = line
                .rsplit_once(' ')
                .unwrap_or_else(|| panic!("malformed metrics line {line:?}"));
            let value = value.parse().expect("counter values are integers");
            (name.to_owned(), value)
        })
        .collect()
}

/// `GET /metrics` on the daemon serves the unified counter registry in
/// the stable text format, every counter cumulative across a fit and
/// predictions, while `/stats` keeps answering its JSON shape from the
/// same underlying counters.
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

    // Names are part of the scrape contract: renaming one breaks
    // dashboards, so it breaks this test first.
    let first = scrape(addr);
    for name in [
        "serve.requests",
        "serve.predictions",
        "serve.predict_batches",
        "serve.coalesced_jobs",
        "serve.model_cache_hits",
        "serve.model_cache_misses",
        "serve.errors",
        "infer.sweeps",
        "infer.points",
        "registry.fits",
        "sim.unique_simulations",
        "campaign.rounds",
        "trace.spans_emitted",
    ] {
        assert!(
            first.contains_key(name),
            "counter {name} missing from /metrics"
        );
    }

    // Real traffic between the scrapes: a quick fit, then predictions.
    let fit = r#"{"study":"memory","app":"gzip","seed":"3e7","budget":10,"batch":5,"quick":true}"#;
    let (status, reply) = http_request(addr, "POST", "/fit", Some(fit)).unwrap();
    assert_eq!(status, 200, "fit failed: {}", reply.to_json());
    let predict = r#"{"study":"memory","app":"gzip","seed":"3e7","budget":10,"batch":5,"quick":true,"indices":[0,17,999]}"#;
    for _ in 0..3 {
        let (status, reply) = http_request(addr, "POST", "/predict", Some(predict)).unwrap();
        assert_eq!(status, 200, "predict failed: {}", reply.to_json());
    }

    // Counters are cumulative and process-wide: none disappears or goes
    // backwards, and the serving funnel moved.
    let second = scrape(addr);
    for (name, &was) in &first {
        let now = *second
            .get(name)
            .unwrap_or_else(|| panic!("counter {name} disappeared between scrapes"));
        assert!(now >= was, "counter {name} went backwards: {was} -> {now}");
    }
    for name in ["serve.requests", "serve.predictions"] {
        assert!(
            second[name] > first[name],
            "{name} did not move between scrapes"
        );
    }

    // `/stats` still answers its JSON schema alongside.
    let (status, stats) = http_request(addr, "GET", "/stats", None).unwrap();
    assert_eq!(status, 200);
    assert!(stats.get("ok").unwrap().as_bool().unwrap());
    assert!(stats.get("requests").unwrap().as_u64().unwrap() >= 2);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
