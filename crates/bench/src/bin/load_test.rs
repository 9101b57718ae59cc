//! Serving-layer load generator: spawns a real `archpredict-served`
//! daemon, fits a quick-budget study through it, then hammers `/predict`
//! from concurrent clients, reporting p50/p99 request latency and
//! sustained predictions per second per client count — and asserting that
//! every served prediction is **bit-for-bit identical** to a direct local
//! [`archpredict::infer::predict_indices`] sweep over the same registry
//! artifact. Doubles as the CI smoke gate for the daemon.
//!
//! ```text
//! cargo run --release --bin load_test -- [--clients 1,4,16] [--requests N]
//!     [--chunk N] [--budget N] [--root DIR] [--output-json]
//! ```
//!
//! `--output-json` writes `results/load_test.json` (machine-readable
//! mirror of the CSV rows plus run metadata) alongside the CSV.

use archpredict::campaign::CampaignConfig;
use archpredict::infer;
use archpredict::registry::{Registry, StudyFitSpec};
use archpredict::serve::{http_request, http_request_text};
use archpredict::studies::Study;
use archpredict_ann::Parallelism;
use archpredict_bench::{locate_served_binary, write_artifact, Daemon};
use archpredict_workloads::Benchmark;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::time::Instant;

/// Counters the `/metrics` smoke gate requires by name: the serving
/// funnel plus the inference and registry work it fans into. Names are
/// part of the scrape contract — renaming one breaks dashboards, so it
/// breaks this gate first.
const REQUIRED_METRICS: &[&str] = &[
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
];

/// Scrapes `GET /metrics` and parses the stable text format into a
/// name → value map, asserting the versioned header is intact.
fn scrape_metrics(addr: SocketAddr) -> BTreeMap<String, u64> {
    let (status, text) = http_request_text(addr, "GET", "/metrics", None).expect("metrics scrape");
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
            let value: u64 = value
                .parse()
                .unwrap_or_else(|_| panic!("non-integer counter in {line:?}"));
            (name.to_string(), value)
        })
        .collect()
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return f64::NAN;
    }
    let rank = ((sorted_ms.len() - 1) as f64 * p / 100.0).round() as usize;
    sorted_ms[rank]
}

fn main() {
    let mut clients = vec![1usize, 4, 16];
    let mut requests = 25usize;
    let mut chunk = 64usize;
    let mut budget = 30usize;
    let mut root = String::from("results/registry");
    let mut output_json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("flag {name} needs a value"))
        };
        match arg.as_str() {
            "--clients" => {
                clients = value("--clients")
                    .split(',')
                    .map(|s| s.trim().parse().expect("client counts are numbers"))
                    .collect();
            }
            "--requests" => requests = value("--requests").parse().expect("number"),
            "--chunk" => chunk = value("--chunk").parse().expect("number"),
            "--budget" => budget = value("--budget").parse().expect("number"),
            "--root" => root = value("--root"),
            "--output-json" => output_json = true,
            other => panic!("unknown flag {other}"),
        }
    }

    let study = Study::MemorySystem;
    let benchmark = Benchmark::Gzip;
    let seed: u64 = 0x10AD;
    let batch = budget.div_ceil(2);
    let spec = StudyFitSpec {
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
    let space = study.space();

    // Spawn the real daemon on an ephemeral port and scrape its address.
    let bin = locate_served_binary().expect("daemon binary");
    let args: Vec<String> = ["--addr", "127.0.0.1:0", "--root", &root]
        .iter()
        .map(ToString::to_string)
        .collect();
    let mut daemon = Daemon::spawn(&bin, &args, None).expect("spawn archpredict-served");
    let addr = daemon.addr();
    eprintln!("load_test: daemon at {addr} (root {root})");

    // Fit (or warm-load) the model through the daemon.
    let fit_body = format!(
        r#"{{"study":"{}","app":"{}","seed":"{seed:x}","budget":{budget},"batch":{batch},"quick":true}}"#,
        study.name(),
        benchmark.name()
    );
    let fit_started = Instant::now();
    let (status, fit) = http_request(addr, "POST", "/fit", Some(&fit_body)).expect("fit request");
    assert_eq!(status, 200, "fit failed: {}", fit.to_json());
    let warm = fit.get("warm").unwrap().as_bool().unwrap();
    eprintln!(
        "load_test: model {} in {:.2}s ({})",
        if warm { "loaded warm" } else { "fitted cold" },
        fit_started.elapsed().as_secs_f64(),
        fit.get("model").unwrap().as_str().unwrap()
    );

    // Bit-identity gate: the served sweep must match a direct local sweep
    // over the same registry artifact, index for index.
    let registry = Registry::open(&root).expect("open registry");
    let outcome = registry
        .get(&spec.key(), spec.fingerprint())
        .expect("read registry")
        .expect("artifact just fitted");
    let stride = (space.size() / chunk).max(1);
    let probe: Vec<usize> = (0..chunk).map(|i| (i * stride) % space.size()).collect();
    let local = infer::predict_indices(&outcome.model, &space, &probe, Parallelism::Auto);
    let indices_json = format!(
        "[{}]",
        probe
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(",")
    );
    let predict_body = format!(
        r#"{{"study":"{}","app":"{}","seed":"{seed:x}","budget":{budget},"batch":{batch},"quick":true,"indices":{indices_json}}}"#,
        study.name(),
        benchmark.name()
    );
    let (status, reply) =
        http_request(addr, "POST", "/predict", Some(&predict_body)).expect("predict request");
    assert_eq!(status, 200, "predict failed: {}", reply.to_json());
    let served: Vec<f64> = reply
        .get("predictions")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|v| v.as_f64().unwrap())
        .collect();
    assert_eq!(served.len(), local.len());
    for (i, (s, l)) in served.iter().zip(&local).enumerate() {
        assert_eq!(
            s.to_bits(),
            l.to_bits(),
            "served prediction for index {} diverged: {s} != {l}",
            probe[i]
        );
    }
    eprintln!(
        "load_test: {} served predictions bit-identical to local inference",
        served.len()
    );

    // First metrics scrape, taken while the daemon already holds real
    // traffic state (fit + bit-identity probe above): every required
    // counter must exist before the load phases begin.
    let before = scrape_metrics(addr);
    for name in REQUIRED_METRICS {
        assert!(
            before.contains_key(*name),
            "/metrics is missing required counter {name}"
        );
    }

    // Load phases.
    let mut rows: Vec<(usize, usize, f64, f64, f64)> = Vec::new();
    eprintln!(
        "{:>8} {:>9} {:>9} {:>9} {:>13}",
        "clients", "requests", "p50 ms", "p99 ms", "predictions/s"
    );
    for &n_clients in &clients {
        let phase_started = Instant::now();
        let latencies: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n_clients)
                .map(|c| {
                    let body = &predict_body;
                    scope.spawn(move || {
                        let mut mine = Vec::with_capacity(requests);
                        for _ in 0..requests {
                            let started = Instant::now();
                            let (status, _) = http_request(addr, "POST", "/predict", Some(body))
                                .unwrap_or_else(|e| panic!("client {c}: {e}"));
                            assert_eq!(status, 200);
                            mine.push(started.elapsed().as_secs_f64() * 1e3);
                        }
                        mine
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect()
        });
        let wall = phase_started.elapsed().as_secs_f64();
        let mut sorted = latencies.clone();
        sorted.sort_by(f64::total_cmp);
        let p50 = percentile(&sorted, 50.0);
        let p99 = percentile(&sorted, 99.0);
        let throughput = (latencies.len() * chunk) as f64 / wall;
        eprintln!(
            "{n_clients:>8} {:>9} {p50:>9.2} {p99:>9.2} {throughput:>13.0}",
            latencies.len()
        );
        rows.push((n_clients, latencies.len(), p50, p99, throughput));
    }

    // Second scrape after the load ran through: counters are cumulative,
    // so every one must be monotonic, and the serving funnel must have
    // visibly moved.
    let after = scrape_metrics(addr);
    for (name, &was) in &before {
        let now = *after
            .get(name)
            .unwrap_or_else(|| panic!("counter {name} disappeared between scrapes"));
        assert!(
            now >= was,
            "counter {name} went backwards across scrapes: {was} -> {now}"
        );
    }
    assert!(
        after["serve.requests"] > before["serve.requests"],
        "load phases did not move serve.requests"
    );
    assert!(
        after["serve.predictions"] > before["serve.predictions"],
        "load phases did not move serve.predictions"
    );
    eprintln!(
        "load_test: /metrics smoke passed ({} counters, all monotonic)",
        after.len()
    );

    // Coalescing telemetry straight from the daemon.
    let (_, stats) = http_request(addr, "GET", "/stats", None).expect("stats");
    eprintln!(
        "load_test: {} predict batches served {} requests ({} predictions)",
        stats.get("predict_batches").unwrap().as_u64().unwrap(),
        stats.get("coalesced_jobs").unwrap().as_u64().unwrap(),
        stats.get("predictions").unwrap().as_u64().unwrap(),
    );

    let (status, _) = http_request(addr, "POST", "/shutdown", None).expect("shutdown");
    assert_eq!(status, 200);
    let exit = daemon.wait().expect("reap daemon");
    assert!(exit.success(), "daemon drained but exited {exit}");

    let mut table = String::from("clients,requests,p50_ms,p99_ms,predictions_per_sec\n");
    for (c, n, p50, p99, tput) in &rows {
        table.push_str(&format!("{c},{n},{p50:.3},{p99:.3},{tput:.0}\n"));
    }
    write_artifact(Path::new("results/load_test.csv"), &table);
    if output_json {
        let mut json = String::from("{\n");
        json.push_str(&format!(
            "  \"benchmark\": \"{}\",\n  \"study\": \"{}\",\n  \"budget\": {budget},\n  \
             \"chunk\": {chunk},\n  \"warm_start\": {warm},\n  \
             \"determinism\": \"served_bit_identical_to_local_inference\",\n  \"rows\": [\n",
            benchmark.name(),
            study.name(),
        ));
        for (i, (c, n, p50, p99, tput)) in rows.iter().enumerate() {
            let comma = if i + 1 < rows.len() { "," } else { "" };
            json.push_str(&format!(
                "    {{\"clients\": {c}, \"requests\": {n}, \"p50_ms\": {p50:.3}, \
                 \"p99_ms\": {p99:.3}, \"predictions_per_sec\": {tput:.0}}}{comma}\n"
            ));
        }
        json.push_str("  ]\n}\n");
        write_artifact(Path::new("results/load_test.json"), &json);
    }
}
