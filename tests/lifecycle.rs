//! Lifecycle integration for the serving daemon: graceful SIGTERM drain
//! with in-flight work against the real `archpredict-served` binary,
//! prompt shutdown of an idle daemon, per-connection panic isolation,
//! group-commit sweeps and their failure path, load shedding under a
//! saturated connection gate, the readiness/liveness split, and hostile
//! request bodies.
//!
//! The real-daemon tests drive the process through [`daemon::Daemon`],
//! which builds `archpredict-served` from this source before first use.
//! In-process tests that arm failpoints serialize on a lock because
//! failpoint state is process-global.

mod daemon;

use archpredict::campaign::CampaignConfig;
use archpredict::failpoint::{self, FailAction, SiteSpec};
use archpredict::infer;
use archpredict::registry::{Registry, StudyFitSpec};
use archpredict::serve::{http_request, ServeConfig, Server, ServerHandle, FP_HANDLER, FP_SWEEP};
use archpredict::studies::Study;
use archpredict_ann::Parallelism;
use archpredict_stats::json::Value;
use archpredict_workloads::Benchmark;
use daemon::Daemon;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Serializes failpoint-armed sections across test threads; the guard
/// disarms everything on drop (panic included).
static TEST_LOCK: Mutex<()> = Mutex::new(());

struct Armed<'a>(#[allow(dead_code)] MutexGuard<'a, ()>);

impl Drop for Armed<'_> {
    fn drop(&mut self) {
        failpoint::clear();
    }
}

fn arm(seed: u64, sites: &[(&str, SiteSpec)]) -> Armed<'static> {
    let guard = TEST_LOCK
        .lock()
        .unwrap_or_else(|poison| poison.into_inner());
    failpoint::install(seed, sites);
    Armed(guard)
}

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "archpredict_lifecycle_{tag}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const SEED: u64 = 0x77;
const BUDGET: usize = 10;

fn fit_body() -> String {
    format!(
        r#"{{"study":"memory","app":"gzip","seed":"{SEED:x}","budget":{BUDGET},"batch":5,"quick":true}}"#
    )
}

/// Indices every `/predict` in this file asks for.
const PROBE: [usize; 6] = [0, 1, 17, 999, 12_345, 23_039];

fn predict_body() -> String {
    let indices = PROBE.map(|i| i.to_string()).join(",");
    format!(
        r#"{{"study":"memory","app":"gzip","seed":"{SEED:x}","budget":{BUDGET},"batch":5,"quick":true,"indices":[{indices}]}}"#
    )
}

/// Starts an in-process server on `root` and fits [`fit_body`]'s model.
fn serve_fitted(root: &Path) -> ServerHandle {
    let handle = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            registry_root: root.to_path_buf(),
            ..ServeConfig::default()
        },
    )
    .unwrap()
    .spawn();
    let (status, reply) = http_request(handle.addr(), "POST", "/fit", Some(&fit_body())).unwrap();
    assert_eq!(status, 200, "fit failed: {}", reply.to_json());
    handle
}

/// [`PROBE`] predicted locally from the artifact the daemon committed.
fn local_predictions(root: &Path) -> Vec<f64> {
    let spec = StudyFitSpec {
        study: Study::MemorySystem,
        benchmark: Benchmark::Gzip,
        config: CampaignConfig {
            seed: SEED,
            max_samples: BUDGET,
            batch: 5,
            ..CampaignConfig::default()
        },
        quick: true,
    };
    let artifact = Registry::open(root)
        .unwrap()
        .get(&spec.key(), spec.fingerprint())
        .unwrap()
        .expect("the daemon committed the artifact");
    infer::predict_indices(
        &artifact.model,
        &spec.study.space(),
        &PROBE,
        Parallelism::Auto,
    )
}

/// Asserts a `/predict` reply is a 200 carrying exactly `local`'s bits.
fn assert_served_bits(status: u16, reply: &Value, local: &[f64]) {
    assert_eq!(status, 200, "predict failed: {}", reply.to_json());
    let served: Vec<u64> = reply
        .get("predictions")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|v| v.as_f64().unwrap().to_bits())
        .collect();
    let local: Vec<u64> = local.iter().map(|v| v.to_bits()).collect();
    assert_eq!(served, local, "served predictions diverged");
}

fn stat(addr: SocketAddr, name: &str) -> u64 {
    let (status, stats) = http_request(addr, "GET", "/stats", None).unwrap();
    assert_eq!(status, 200);
    stats.get(name).unwrap().as_u64().unwrap()
}

/// SIGTERM with work in flight: the listener closes first (new
/// connections refused), the in-flight request still gets its answer,
/// the process exits 0, and a restarted daemon over the same registry
/// answers the same fit warm, serves predictions bit-identical to local
/// inference, and exits 0 on `/shutdown`.
#[test]
fn sigterm_drains_in_flight_work_then_a_restart_answers_warm() {
    let root = temp_root("drain");
    // Delay the first two requests 1.5 s inside the handler: the spawn's
    // `/ready` probe, then the fit, so the fit is reliably in flight when
    // the signal lands.
    let plan = "seed=1;serve.handler=delay:1500@1@2";
    let mut daemon = Daemon::spawn(&root, Some(plan), &[]);
    let addr = daemon.addr();

    let in_flight =
        std::thread::spawn(move || http_request(addr, "POST", "/fit", Some(&fit_body())));
    std::thread::sleep(Duration::from_millis(500));
    daemon.signal("TERM");
    std::thread::sleep(Duration::from_millis(500));

    // Drain closes the listener before finishing in-flight work: new
    // connections must already be refused while the fit still runs.
    assert!(
        http_request(addr, "GET", "/health", None).is_err(),
        "listener must close at the start of the drain"
    );

    let (status, reply) = in_flight
        .join()
        .expect("client thread")
        .expect("in-flight fit answered during drain");
    assert_eq!(status, 200, "drained fit failed: {}", reply.to_json());
    let exit = daemon.exit_within(Duration::from_secs(30));
    assert!(exit.success(), "SIGTERM drain must exit 0, got {exit}");

    // The drained commit is durable: a fresh daemon answers warm, serves
    // the committed model's bits, and exits 0 on `/shutdown`.
    let mut restarted = Daemon::spawn(&root, None, &[]);
    let addr = restarted.addr();
    let (status, reply) = http_request(addr, "POST", "/fit", Some(&fit_body())).unwrap();
    assert_eq!(status, 200);
    assert!(
        reply.get("warm").unwrap().as_bool().unwrap(),
        "restarted daemon refitted instead of loading warm"
    );
    let (status, reply) = http_request(addr, "POST", "/predict", Some(&predict_body())).unwrap();
    assert_served_bits(status, &reply, &local_predictions(&root));
    let (status, _) = http_request(addr, "POST", "/shutdown", None).unwrap();
    assert_eq!(status, 200);
    let exit = restarted.exit_within(Duration::from_secs(30));
    assert!(exit.success(), "/shutdown must exit 0, got {exit}");
    let _ = std::fs::remove_dir_all(&root);
}

/// SIGTERM reaches an idle daemon too: no connection arrives after the
/// signal to wake its accept loop, and the signal alone must start the
/// drain.
#[test]
fn sigterm_stops_an_idle_daemon_within_a_second() {
    let root = temp_root("idle_term");
    let mut daemon = Daemon::spawn(&root, None, &[]);
    daemon.signal("TERM");
    let exit = daemon.exit_within(Duration::from_secs(1));
    assert!(exit.success(), "SIGTERM drain must exit 0, got {exit}");
    let _ = std::fs::remove_dir_all(&root);
}

/// [`ServerHandle::shutdown`] on a server that never accepted a
/// connection returns promptly.
#[test]
fn idle_server_handle_shuts_down_within_a_second() {
    let root = temp_root("idle_handle");
    let handle = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            registry_root: root.clone(),
            ..ServeConfig::default()
        },
    )
    .unwrap()
    .spawn();
    let started = Instant::now();
    handle.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "idle shutdown took {:?}",
        started.elapsed()
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Group commit: a request that finds no sweep running sweeps alone, and
/// the requests that queue behind a running sweep share the next one —
/// two sweeps for five requests, every reply bit-identical to local
/// inference.
#[test]
fn requests_queued_behind_a_sweep_share_the_next_one() {
    let hold = SiteSpec::once(FailAction::Delay(Duration::from_millis(300)));
    let _armed = arm(1, &[(FP_SWEEP, hold)]);
    let root = temp_root("coalesce");
    let handle = serve_fitted(&root);
    let addr = handle.addr();
    let local = local_predictions(&root);
    let (batches, jobs) = (stat(addr, "predict_batches"), stat(addr, "coalesced_jobs"));

    let body = predict_body();
    let replies: Vec<(u16, Value)> = std::thread::scope(|scope| {
        let predict = || http_request(addr, "POST", "/predict", Some(&body)).unwrap();
        let first = scope.spawn(predict);
        // The site fires as the first sweep starts, then holds it.
        while failpoint::fired(FP_SWEEP) == 0 {
            assert!(!first.is_finished(), "first /predict never swept");
            std::thread::sleep(Duration::from_millis(1));
        }
        let queued: Vec<_> = (0..4).map(|_| scope.spawn(predict)).collect();
        std::iter::once(first)
            .chain(queued)
            .map(|h| h.join().unwrap())
            .collect()
    });

    assert_eq!(stat(addr, "predict_batches") - batches, 2);
    assert_eq!(stat(addr, "coalesced_jobs") - jobs, 5);
    for (status, reply) in &replies {
        assert_served_bits(*status, reply, &local);
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// A sweep that panics answers its batch with 500s and poisons the
/// model's sweep lock; the next request recovers the lock and gets the
/// right bits, so one failed sweep cannot wedge the model.
#[test]
fn panicking_sweep_fails_its_batch_and_the_model_keeps_serving() {
    let _armed = arm(1, &[(FP_SWEEP, SiteSpec::once(FailAction::Panic))]);
    let root = temp_root("sweep_panic");
    let handle = serve_fitted(&root);
    let addr = handle.addr();
    let local = local_predictions(&root);
    let panics = stat(addr, "panics_caught");

    let body = predict_body();
    let (status, reply) = http_request(addr, "POST", "/predict", Some(&body)).unwrap();
    assert_eq!(
        status,
        500,
        "the armed panic surfaces as a 500: {}",
        reply.to_json()
    );
    assert_eq!(stat(addr, "panics_caught") - panics, 1);

    let (status, reply) = http_request(addr, "POST", "/predict", Some(&body)).unwrap();
    assert_served_bits(status, &reply, &local);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// A panicking handler answers 500, is counted, and takes down neither
/// the daemon nor the next request.
#[test]
fn handler_panic_is_isolated_counted_and_survivable() {
    let _armed = arm(1, &[(FP_HANDLER, SiteSpec::once(FailAction::Panic))]);
    let root = temp_root("panic");
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

    let (status, reply) = http_request(addr, "GET", "/health", None).unwrap();
    assert_eq!(status, 500, "the armed panic surfaces as a 500");
    assert!(
        reply
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("failpoint"),
        "the 500 carries the panic message: {}",
        reply.to_json()
    );

    let (status, stats) = http_request(addr, "GET", "/stats", None).unwrap();
    assert_eq!(status, 200, "the daemon survived the panic");
    assert_eq!(stats.get("panics_caught").unwrap().as_u64().unwrap(), 1);

    let (status, health) = http_request(addr, "GET", "/health", None).unwrap();
    assert_eq!(status, 200);
    assert!(health.get("ok").unwrap().as_bool().unwrap());
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Raw request/response against the daemon, headers included — what
/// `http_request` hides but the Retry-After assertion needs. A response
/// that takes longer than 10 s fails the read.
fn raw_request(addr: SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    stream.write_all(request.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    response
}

/// A body the parser must refuse or get through quickly cannot take the
/// daemon down: a 100 000-deep array answers 400 instead of overflowing
/// the connection thread's stack (which aborts the whole process, past
/// any `catch_unwind`), a 4 MiB string field costs one pass over its
/// bytes, and the daemon answers normally afterwards. Runs against the
/// real process, since an in-process server's abort would take the test
/// binary with it.
#[test]
fn hostile_bodies_answer_promptly_and_the_daemon_keeps_serving() {
    let root = temp_root("hostile");
    let daemon = Daemon::spawn(&root, None, &[]);
    let addr = daemon.addr();
    let post = |body: &str| {
        raw_request(
            addr,
            &format!(
                "POST /predict HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
                 Connection: close\r\n\r\n{body}",
                body.len()
            ),
        )
    };
    let status = |response: &str| response.get(..12).unwrap_or(response).to_owned();

    let response = post(&"[".repeat(100_000));
    assert_eq!(status(&response), "HTTP/1.1 400", "{response}");
    assert!(response.contains("nest deeper"), "{response}");

    // No model was fitted, so the normal answer is a 404.
    let padded = predict_body().replacen('{', &format!(r#"{{"pad":"{}","#, "x".repeat(4 << 20)), 1);
    let response = post(&padded);
    assert_eq!(status(&response), "HTTP/1.1 404", "{response}");

    let response = post(&predict_body());
    assert_eq!(status(&response), "HTTP/1.1 404", "{response}");
    let (status, health) = http_request(addr, "GET", "/health", None).unwrap();
    assert_eq!(status, 200);
    assert!(health.get("ok").unwrap().as_bool().unwrap());
    let _ = std::fs::remove_dir_all(&root);
}

/// A saturated connection gate sheds instead of queueing forever: 503
/// with `Retry-After`, counted in `/stats`, and full recovery once the
/// hog disconnects.
#[test]
fn saturated_gate_sheds_with_retry_after_and_recovers() {
    // No failpoints, but hold the lock: another test's armed plan must
    // not leak panics into this server's handlers.
    let _guard = arm(0, &[]);
    let root = temp_root("shed");
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            registry_root: root.clone(),
            max_connections: 1,
            gate_wait: Duration::from_millis(50),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let handle = server.spawn();
    let addr = handle.addr();

    // An idle connection that never sends its request holds the sole
    // permit from the moment it is accepted.
    let hog = TcpStream::connect(addr).expect("hog connects");
    std::thread::sleep(Duration::from_millis(120));

    let response = raw_request(
        addr,
        &format!("GET /health HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"),
    );
    assert!(
        response.starts_with("HTTP/1.1 503"),
        "saturated gate must shed with 503, got: {response}"
    );
    assert!(
        response.contains("Retry-After: 1"),
        "shed response must carry Retry-After: {response}"
    );

    // Releasing the hog releases the permit; service resumes and the
    // shed is on the books.
    drop(hog);
    std::thread::sleep(Duration::from_millis(50));
    let (status, health) = http_request(addr, "GET", "/health", None).unwrap();
    assert_eq!(status, 200, "gate must recover once the hog disconnects");
    assert!(health.get("ready").unwrap().as_bool().unwrap());
    let (status, stats) = http_request(addr, "GET", "/stats", None).unwrap();
    assert_eq!(status, 200);
    assert!(stats.get("requests_shed").unwrap().as_u64().unwrap() >= 1);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// `/ready` mirrors `/health` while the daemon accepts work; both carry
/// the readiness booleans the supervisor watches.
#[test]
fn ready_endpoint_reports_acceptance() {
    let _guard = arm(0, &[]);
    let root = temp_root("ready");
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

    let (status, ready) = http_request(addr, "GET", "/ready", None).unwrap();
    assert_eq!(status, 200);
    assert!(ready.get("ready").unwrap().as_bool().unwrap());
    assert!(!ready.get("draining").unwrap().as_bool().unwrap());
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
