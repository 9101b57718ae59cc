//! Serving-layer integration: a real in-process daemon fits a quick-budget
//! study through the registry, serves predictions bit-identical to the
//! direct [`archpredict::infer`] path, answers the second fit warm, and
//! coalesces concurrent predict requests without changing a single bit.

use archpredict::campaign::CampaignConfig;
use archpredict::infer;
use archpredict::registry::{Registry, StudyFitSpec};
use archpredict::serve::{http_request, ServeConfig, Server};
use archpredict::studies::Study;
use archpredict_ann::Parallelism;
use archpredict_workloads::Benchmark;
use std::path::PathBuf;

fn temp_root(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "archpredict_servetest_{tag}_{}",
        std::process::id()
    ))
}

const SEED: u64 = 0x5E12;
const BUDGET: usize = 20;

fn spec() -> StudyFitSpec {
    StudyFitSpec {
        study: Study::MemorySystem,
        benchmark: Benchmark::Gzip,
        config: CampaignConfig {
            seed: SEED,
            max_samples: BUDGET,
            batch: 10,
            ..CampaignConfig::default()
        },
        quick: true,
    }
}

fn fit_body() -> String {
    format!(
        r#"{{"study":"memory","app":"gzip","seed":"{SEED:x}","budget":{BUDGET},"batch":10,"quick":true}}"#
    )
}

#[test]
fn served_predictions_are_bit_identical_and_second_fit_is_warm() {
    let root = temp_root("bits");
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

    // Cold fit through the daemon.
    let (status, reply) = http_request(addr, "POST", "/fit", Some(&fit_body())).unwrap();
    assert_eq!(status, 200, "fit failed: {}", reply.to_json());
    assert!(!reply.get("warm").unwrap().as_bool().unwrap());
    assert_eq!(reply.get("cache").unwrap().as_str().unwrap(), "fitted");

    // Second fit of the same spec: answered from the warm model, zero
    // additional fits.
    let (status, reply) = http_request(addr, "POST", "/fit", Some(&fit_body())).unwrap();
    assert_eq!(status, 200);
    assert!(reply.get("warm").unwrap().as_bool().unwrap());
    assert_eq!(reply.get("fits_performed").unwrap().as_u64().unwrap(), 1);

    // The served sweep must match the direct infer path on the registry
    // artifact, bit for bit.
    let spec = spec();
    let space = spec.study.space();
    let local_registry = Registry::open(&root).unwrap();
    let artifact = local_registry
        .get(&spec.key(), spec.fingerprint())
        .unwrap()
        .expect("daemon committed the artifact");
    let probe: Vec<usize> = (0..48).map(|i| i * 31 % space.size()).collect();
    let local = infer::predict_indices(&artifact.model, &space, &probe, Parallelism::Auto);

    let indices = probe
        .iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let body = format!(
        r#"{{"study":"memory","app":"gzip","seed":"{SEED:x}","budget":{BUDGET},"batch":10,"quick":true,"indices":[{indices}]}}"#
    );
    let (status, reply) = http_request(addr, "POST", "/predict", Some(&body)).unwrap();
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
        assert_eq!(s.to_bits(), l.to_bits(), "prediction {i} diverged");
    }
    // Telemetry rides on every predict response.
    let stats = reply.get("stats").unwrap();
    assert_eq!(stats.get("cache").unwrap().as_str().unwrap(), "hit");
    assert!(stats.get("batch_indices").unwrap().as_u64().unwrap() >= probe.len() as u64);

    // Concurrent predicts coalesce into shared sweeps — and still return
    // exactly the same bits to every caller.
    let concurrent: Vec<Vec<f64>> = std::thread::scope(|scope| {
        (0..4)
            .map(|_| {
                let body = &body;
                scope.spawn(move || {
                    let (status, reply) =
                        http_request(addr, "POST", "/predict", Some(body)).unwrap();
                    assert_eq!(status, 200);
                    reply
                        .get("predictions")
                        .unwrap()
                        .as_array()
                        .unwrap()
                        .iter()
                        .map(|v| v.as_f64().unwrap())
                        .collect()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    for got in &concurrent {
        assert_eq!(got.len(), local.len());
        for (s, l) in got.iter().zip(&local) {
            assert_eq!(s.to_bits(), l.to_bits());
        }
    }

    handle.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn predict_without_fit_refuses_and_daemon_reloads_across_restarts() {
    let root = temp_root("restart");
    let config = || ServeConfig {
        registry_root: root.clone(),
        ..ServeConfig::default()
    };

    let handle = Server::bind("127.0.0.1:0", config()).unwrap().spawn();
    let body = format!(
        r#"{{"study":"memory","app":"gzip","seed":"{SEED:x}","budget":{BUDGET},"batch":10,"quick":true,"indices":[0,1,2]}}"#
    );
    // Predict never fits: an unfitted model is a 404, not a campaign.
    let (status, reply) = http_request(handle.addr(), "POST", "/predict", Some(&body)).unwrap();
    assert_eq!(status, 404, "got: {}", reply.to_json());
    let (status, _) = http_request(handle.addr(), "POST", "/fit", Some(&fit_body())).unwrap();
    assert_eq!(status, 200);
    handle.shutdown();

    // A restarted daemon serves the persisted artifact warm: no refit.
    let handle = Server::bind("127.0.0.1:0", config()).unwrap().spawn();
    let (status, reply) = http_request(handle.addr(), "POST", "/fit", Some(&fit_body())).unwrap();
    assert_eq!(status, 200);
    assert!(reply.get("warm").unwrap().as_bool().unwrap());
    assert_eq!(reply.get("fits_performed").unwrap().as_u64().unwrap(), 0);
    let (status, _) = http_request(handle.addr(), "POST", "/predict", Some(&body)).unwrap();
    assert_eq!(status, 200);
    handle.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn model_map_is_bounded_and_evicted_models_reload_warm() {
    let root = temp_root("evict");
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            registry_root: root.clone(),
            max_models: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let handle = server.spawn();
    let addr = handle.addr();

    let fit = |seed: u64| {
        format!(
            r#"{{"study":"memory","app":"gzip","seed":"{seed:x}","budget":{BUDGET},"batch":10,"quick":true}}"#
        )
    };
    let (status, _) = http_request(addr, "POST", "/fit", Some(&fit(SEED))).unwrap();
    assert_eq!(status, 200);
    // A second distinct spec displaces the first from the 1-slot map.
    let (status, _) = http_request(addr, "POST", "/fit", Some(&fit(SEED ^ 1))).unwrap();
    assert_eq!(status, 200);

    let (status, stats) = http_request(addr, "GET", "/stats", None).unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        stats.get("models_in_memory").unwrap().as_u64().unwrap(),
        1,
        "map stays at max_models"
    );
    assert!(stats.get("models_evicted").unwrap().as_u64().unwrap() >= 1);

    // The evicted model still serves: it reloads warm from the registry
    // (no refit — fits_performed stays at 2).
    let body = format!(
        r#"{{"study":"memory","app":"gzip","seed":"{SEED:x}","budget":{BUDGET},"batch":10,"quick":true,"indices":[0,1,2]}}"#
    );
    let (status, reply) = http_request(addr, "POST", "/predict", Some(&body)).unwrap();
    assert_eq!(
        status,
        200,
        "evicted model must reload: {}",
        reply.to_json()
    );
    assert_eq!(
        reply
            .get("stats")
            .unwrap()
            .get("cache")
            .unwrap()
            .as_str()
            .unwrap(),
        "warm"
    );
    let (_, stats) = http_request(addr, "GET", "/stats", None).unwrap();
    assert_eq!(stats.get("fits_performed").unwrap().as_u64().unwrap(), 2);

    handle.shutdown();
    std::fs::remove_dir_all(&root).ok();
}
