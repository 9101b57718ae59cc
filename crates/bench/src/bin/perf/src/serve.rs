//! `serve_small` and `serve_sweep`: a real `archpredict-served` daemon on
//! a fresh registry root, driven over HTTP by closed-loop clients in this
//! process (one connection per request, as `http_request` does).
//!
//! `serve_small` first fits a few models cold through `/fit`, then sends
//! `/predict` bodies of 16 indices: fixed per-request costs (accept, thread
//! spawn, coalescing wait) dominate. `serve_sweep` serves one warm model
//! with bodies of 1024 indices, where the inference sweep and the JSON
//! bodies take a growing share of the handler's time. Each runs one client, then two
//! (at most `nproc` = 2).
//!
//! The daemon gets `--addr` and `--root` and nothing else, so daemon knobs
//! can change or disappear without touching the benchmark.

use crate::metrics::{Report, Workload};
use crate::stats::median;
use crate::trace::{self, SpanEvent};
use crate::Ctx;
use archpredict::campaign::CampaignConfig;
use archpredict::failpoint::ENV_FAILPOINTS;
use archpredict::infer;
use archpredict::registry::{Registry, StudyFitSpec};
use archpredict::studies::Study;
use archpredict::telemetry::ENV_TRACE;
use archpredict_ann::Parallelism;
use archpredict_bench::{locate_served_binary, wait_ready};
use archpredict_stats::json::Value;
use archpredict_stats::rng::Xoshiro256;
use archpredict_stats::sampling::sample_without_replacement;
use archpredict_workloads::Benchmark;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant, SystemTime};

const STUDY: Study = Study::MemorySystem;
const APP: Benchmark = Benchmark::Gzip;
/// Daemon start-ups timed per run; their median is `setup_s`.
const SETUP_SPAWNS: usize = 7;
/// Cold `/fit`s `serve_small` times before its load phases.
const COLD_FITS: usize = 5;
/// Indices in the bit-identity probe.
const PROBE: usize = 64;
/// Distinct `/predict` bodies the clients cycle through.
const BODIES: usize = 8;
/// Indices per `/predict` body. Until the daemon's accept loop stops
/// polling every 5 ms, latency is a whole number of polls, so both sizes
/// keep the handler well inside the first poll period, also when two
/// clients' bodies are coalesced into one sweep. With 2048 indices per
/// body the coalesced sweep sits on the 5 ms edge and the two-client
/// throughput flips between one and two polls per request.
const SMALL_INDICES: usize = 16;
const SWEEP_INDICES: usize = 1024;
/// Seed streams (of the run seed): fit seeds, the probe, the bodies.
const FIT_STREAM: u64 = 0xF17;
const PROBE_STREAM: u64 = 0x9E07;
const BODY_STREAM: u64 = 0xB0D7;
/// A reply slower than this is a failed request, never a hung benchmark.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// The models the daemon fits: quick budget, a fixed number of rounds.
#[derive(Clone, Copy)]
struct FitShape {
    budget: usize,
    batch: usize,
}

impl FitShape {
    fn new(smoke: bool) -> Self {
        if smoke {
            Self {
                budget: 40,
                batch: 20,
            }
        } else {
            Self {
                budget: 100,
                batch: 50,
            }
        }
    }

    /// The `i`-th model of a run: its registry spec and its JSON spec.
    fn spec(self, run_seed: u64, i: u64) -> (StudyFitSpec, String) {
        let seed = Xoshiro256::seed_from(run_seed)
            .derive(FIT_STREAM + i)
            .next_u64();
        let config = CampaignConfig {
            seed,
            max_samples: self.budget,
            batch: self.batch,
            target_error: 0.0,
            ..CampaignConfig::default()
        };
        let json = format!(
            r#""study":"{}","app":"{}","seed":"{seed:x}","budget":{},"batch":{},"target_error":0,"quick":true"#,
            STUDY.name(),
            APP.name(),
            self.budget,
            self.batch
        );
        let spec = StudyFitSpec {
            quick: true,
            ..StudyFitSpec::new(STUDY, APP, config)
        };
        (spec, json)
    }
}

/// A running daemon; killed and reaped on drop if not shut down.
struct Served {
    child: Child,
    addr: SocketAddr,
}

impl Served {
    /// Starts the daemon on `root` and waits for `/ready`. `trace` arms
    /// its span log; otherwise any inherited trace or failpoint setting
    /// is removed.
    fn spawn(bin: &Path, root: &Path, trace: Option<&Path>) -> Result<Self, String> {
        let mut command = Command::new(bin);
        command
            .args(["--addr", "127.0.0.1:0", "--root"])
            .arg(root)
            .env_remove(ENV_FAILPOINTS)
            .stdout(Stdio::piped());
        match trace {
            Some(path) => command.env(ENV_TRACE, path),
            None => command.env_remove(ENV_TRACE),
        };
        let mut child = command
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        let _ = BufReader::new(stdout).read_line(&mut line);
        let Some(addr) = line.trim().rsplit(' ').next().and_then(|a| a.parse().ok()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("daemon printed no address line: {line:?}"));
        };
        let served = Self { child, addr };
        wait_ready(addr, Duration::from_secs(30))?;
        Ok(served)
    }

    fn peak_rss_mb(&self) -> Result<f64, String> {
        crate::peak_rss_mb(&self.child.id().to_string())
    }

    /// Drains the daemon through `POST /shutdown` and checks it exits 0.
    fn shutdown(mut self) -> Result<(), String> {
        let reply = exchange(self.addr, "POST", "/shutdown", "")?;
        let exit = self.child.wait().map_err(|e| format!("wait daemon: {e}"))?;
        match (reply.status, exit.success()) {
            (200, true) => Ok(()),
            _ => Err(format!(
                "shutdown answered {}, daemon exited {exit}",
                reply.status
            )),
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One HTTP exchange on a fresh connection, timed in three parts.
struct Exchange {
    status: u16,
    body: String,
    /// TCP connect.
    connect_ms: f64,
    /// Connected to the first response byte (request write included).
    ttfb_ms: f64,
    /// First byte to the last body byte.
    body_ms: f64,
}

impl Exchange {
    /// Connect to the last body byte.
    fn latency_ms(&self) -> f64 {
        self.connect_ms + self.ttfb_ms + self.body_ms
    }
}

fn exchange(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<Exchange, String> {
    let ms = |from: Instant, to: Instant| (to - from).as_secs_f64() * 1e3;
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let connected = Instant::now();
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut reader = BufReader::new(stream);
    if reader
        .fill_buf()
        .map_err(|e| format!("read: {e}"))?
        .is_empty()
    {
        return Err("connection closed before a response".into());
    }
    let first_byte = Instant::now();
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("read status: {e}"))?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line {line:?}"))?;
    let mut length = 0usize;
    loop {
        line.clear();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("read header: {e}"))?;
        let header = line.trim_end().to_ascii_lowercase();
        if header.is_empty() {
            break;
        }
        if let Some(v) = header.strip_prefix("content-length:") {
            length = v
                .trim()
                .parse()
                .map_err(|_| format!("bad header {header:?}"))?;
        }
    }
    let mut bytes = vec![0; length];
    reader
        .read_exact(&mut bytes)
        .map_err(|e| format!("read body: {e}"))?;
    let done = Instant::now();
    Ok(Exchange {
        status,
        body: String::from_utf8(bytes).map_err(|_| "body is not UTF-8")?,
        connect_ms: ms(started, connected),
        ttfb_ms: ms(connected, first_byte),
        body_ms: ms(first_byte, done),
    })
}

/// Parses a `/predict` reply's predictions; returns them with the parse
/// time in ms.
fn decode_predictions(body: &str) -> Result<(Vec<f64>, f64), String> {
    let started = Instant::now();
    let predictions = Value::parse(body)
        .and_then(|v| v.get("predictions")?.as_f64_vec())
        .map_err(|e| format!("predict reply: {e}"))?;
    Ok((predictions, started.elapsed().as_secs_f64() * 1e3))
}

fn predict_body(spec_json: &str, indices: &[usize]) -> String {
    let list: Vec<String> = indices.iter().map(usize::to_string).collect();
    format!("{{{spec_json},\"indices\":[{}]}}", list.join(","))
}

/// `POST /fit`; returns whether the model loaded warm, and the seconds
/// the request took.
fn fit(addr: SocketAddr, spec_json: &str) -> Result<(bool, f64), String> {
    let started = Instant::now();
    let reply = exchange(addr, "POST", "/fit", &format!("{{{spec_json}}}"))?;
    let seconds = started.elapsed().as_secs_f64();
    if reply.status != 200 {
        return Err(format!("/fit answered {}: {}", reply.status, reply.body));
    }
    let warm = Value::parse(&reply.body)
        .and_then(|v| v.get("warm")?.as_bool())
        .map_err(|e| format!("/fit reply: {e}"))?;
    Ok((warm, seconds))
}

/// `GET /metrics` as a name → value map.
fn scrape(addr: SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    let reply = exchange(addr, "GET", "/metrics", "")?;
    if reply.status != 200 {
        return Err(format!("/metrics answered {}", reply.status));
    }
    reply
        .body
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let (name, value) = l
                .rsplit_once(' ')
                .ok_or(format!("bad metrics line {l:?}"))?;
            let value = value
                .parse()
                .map_err(|_| format!("bad metrics line {l:?}"))?;
            Ok((name.to_owned(), value))
        })
        .collect()
}

fn delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, name: &str) -> f64 {
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
}

/// One closed-loop load phase's samples.
#[derive(Default)]
struct Phase {
    latency_ms: Vec<f64>,
    connect_ms: Vec<f64>,
    ttfb_ms: Vec<f64>,
    body_ms: Vec<f64>,
    decode_ms: Vec<f64>,
    failed: u64,
    predictions: u64,
    wall_s: f64,
    /// Wall-clock window of the phase, µs since the epoch (span clock).
    window_us: (u64, u64),
}

impl Phase {
    fn merge(&mut self, other: Phase) {
        self.latency_ms.extend(other.latency_ms);
        self.connect_ms.extend(other.connect_ms);
        self.ttfb_ms.extend(other.ttfb_ms);
        self.body_ms.extend(other.body_ms);
        self.decode_ms.extend(other.decode_ms);
        self.failed += other.failed;
        self.predictions += other.predictions;
    }

    fn attempted(&self) -> u64 {
        self.latency_ms.len() as u64 + self.failed
    }

    fn preds_per_s(&self) -> f64 {
        self.predictions as f64 / self.wall_s
    }
}

fn epoch_us() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_micros() as u64)
}

/// `clients` closed-loop clients, each sending its next body as soon as
/// the previous reply is in, for `seconds`. A request fails on a transport
/// error, a non-200 reply, or a reply without one prediction per index.
fn load(addr: SocketAddr, clients: usize, bodies: &[(String, usize)], seconds: f64) -> Phase {
    let start_us = epoch_us();
    let started = Instant::now();
    let mut phase = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    let mut mine = Phase::default();
                    let mut next = client;
                    while started.elapsed().as_secs_f64() < seconds {
                        let (body, expected) = &bodies[next % bodies.len()];
                        next += clients;
                        let reply =
                            exchange(addr, "POST", "/predict", body).and_then(|r| match r.status {
                                200 => decode_predictions(&r.body).map(|d| (r, d)),
                                status => Err(format!("/predict answered {status}")),
                            });
                        match reply {
                            Ok((r, (predictions, decode))) if predictions.len() == *expected => {
                                mine.latency_ms.push(r.latency_ms());
                                mine.connect_ms.push(r.connect_ms);
                                mine.ttfb_ms.push(r.ttfb_ms);
                                mine.body_ms.push(r.body_ms);
                                mine.decode_ms.push(decode);
                                mine.predictions += predictions.len() as u64;
                            }
                            _ => mine.failed += 1,
                        }
                    }
                    mine
                })
            })
            .collect();
        let mut all = Phase::default();
        for handle in handles {
            all.merge(handle.join().expect("load client panicked"));
        }
        all
    });
    phase.wall_s = started.elapsed().as_secs_f64();
    phase.window_us = (start_us, epoch_us());
    phase
}

/// Served predictions at a probe must equal local inference on the
/// registry artifact the daemon serves, bit for bit.
fn check_probe(
    report: &mut Report,
    addr: SocketAddr,
    root: &Path,
    (spec, spec_json): &(StudyFitSpec, String),
    seed: u64,
) -> Result<(), String> {
    let space = STUDY.space();
    let mut rng = Xoshiro256::seed_from(seed).derive(PROBE_STREAM);
    let probe = sample_without_replacement(space.size(), PROBE, &mut rng);
    let reply = exchange(addr, "POST", "/predict", &predict_body(spec_json, &probe))?;
    report.attempted += 1;
    let served = match reply.status {
        200 => decode_predictions(&reply.body)?.0,
        _ => {
            report.failed += 1;
            Vec::new()
        }
    };
    let registry = Registry::open(root).map_err(|e| format!("open registry: {e}"))?;
    let model = registry
        .get(&spec.key(), spec.fingerprint())
        .map_err(|e| format!("read registry: {e}"))?
        .ok_or("the served model has no registry artifact")?
        .model;
    let local = infer::predict_indices(&model, &space, &probe, Parallelism::Auto);
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    report.check(
        "served predictions are bit-identical to local inference",
        bits(&served) == bits(&local),
    );
    Ok(())
}

/// Runs one pass of a serve workload.
pub fn run(workload: Workload, ctx: &Ctx, traced: bool) -> Result<Report, String> {
    let sweep = workload == Workload::ServeSweep;
    let bin = locate_served_binary()?;
    let root = ctx.dir.join("registry");
    let trace_path = ctx.dir.join("daemon.jsonl");
    let mut report = Report::new(workload, traced);
    let shape = FitShape::new(ctx.smoke);
    let served_spec = shape.spec(ctx.seed, 0);

    if sweep {
        // The model serve_sweep serves, fitted before anything is timed.
        let daemon = Served::spawn(&bin, &root, None)?;
        fit(daemon.addr, &served_spec.1)?;
        report.attempted += 1;
        daemon.shutdown()?;
    }

    // Set-up: daemon start until /ready (plus the warm /fit on sweep),
    // several times; the last daemon stays up for the rest of the pass.
    let mut setups = Vec::new();
    let mut all_warm = true;
    let mut daemon: Option<Served> = None;
    for spawn in 1..=SETUP_SPAWNS {
        if let Some(previous) = daemon.take() {
            previous.shutdown()?;
        }
        let trace = (traced && spawn == SETUP_SPAWNS).then_some(trace_path.as_path());
        let started = Instant::now();
        let next = Served::spawn(&bin, &root, trace)?;
        if sweep {
            let (warm, _) = fit(next.addr, &served_spec.1)?;
            report.attempted += 1;
            all_warm &= warm;
        }
        setups.push(started.elapsed().as_secs_f64());
        daemon = Some(next);
    }
    if sweep {
        report.check("set-up /fits load the model warm", all_warm);
    }
    let daemon = daemon.expect("SETUP_SPAWNS > 0");
    let addr = daemon.addr;

    let before_fits = scrape(addr)?;
    let mut fit_s = Vec::new();
    if !sweep {
        let mut all_cold = true;
        for i in 0..COLD_FITS as u64 {
            let (warm, seconds) = fit(addr, &shape.spec(ctx.seed, i).1)?;
            report.attempted += 1;
            all_cold &= !warm;
            fit_s.push(seconds);
        }
        report.check("every timed /fit fits cold", all_cold);
    }
    let after_fits = scrape(addr)?;
    check_probe(&mut report, addr, &root, &served_spec, ctx.seed)?;
    let before_load = scrape(addr)?;

    let per_body = if sweep { SWEEP_INDICES } else { SMALL_INDICES };
    let space_size = STUDY.space().size();
    let bodies: Vec<(String, usize)> = (0..BODIES as u64)
        .map(|b| {
            let mut rng = Xoshiro256::seed_from(ctx.seed).derive(BODY_STREAM + b);
            let indices = sample_without_replacement(space_size, per_body, &mut rng);
            (predict_body(&served_spec.1, &indices), per_body)
        })
        .collect();
    // The traced pass keeps 0.3 of its time for an untraced baseline.
    let share = if traced { 0.35 } else { 0.5 };
    let c1 = load(addr, 1, &bodies, ctx.seconds * share);
    let c2 = load(addr, 2, &bodies, ctx.seconds * share);
    let after_load = scrape(addr)?;
    let rss = daemon.peak_rss_mb()?;
    daemon.shutdown()?;
    for phase in [&c1, &c2] {
        report.attempted += phase.attempted();
        report.failed += phase.failed;
    }

    if !traced {
        let setup = report.dist("setup_s", "s", &setups).p50;
        let latency = report.dist("c1.latency_ms", "ms", &c1.latency_ms).p50;
        report.dist("c2.latency_ms", "ms", &c2.latency_ms);
        report.note("c1.preds_per_s", "1/s", c1.preds_per_s());
        report.note("c2.preds_per_s", "1/s", c2.preds_per_s());
        if !sweep {
            report.dist("fit_cold_s", "s", &fit_s);
        }
        report.set("setup_s", setup);
        report.set("latency_p50_ms", latency);
        report.set("preds_per_s", c2.preds_per_s());
        report.set("peak_rss_mb", rss);
        return Ok(report);
    }

    // Tracing overhead: the same c1 phase against an untraced daemon.
    let untraced = Served::spawn(&bin, &root, None)?;
    let baseline = load(untraced.addr, 1, &bodies, ctx.seconds * 0.3);
    untraced.shutdown()?;
    report.attempted += baseline.attempted();
    report.failed += baseline.failed;

    let client = [
        (
            &c1,
            [
                "c1.http.connect_ms",
                "c1.http.ttfb_ms",
                "c1.http.body_ms",
                "c1.json.decode_ms",
            ],
        ),
        (
            &c2,
            [
                "c2.http.connect_ms",
                "c2.http.ttfb_ms",
                "c2.http.body_ms",
                "c2.json.decode_ms",
            ],
        ),
    ];
    for (phase, names) in client {
        let samples = [
            &phase.connect_ms,
            &phase.ttfb_ms,
            &phase.body_ms,
            &phase.decode_ms,
        ];
        for (name, samples) in names.into_iter().zip(samples) {
            report.set(name, median(samples));
        }
    }
    let events = trace::read(&trace_path)?;
    span_metrics(&mut report, &events, &c1);
    let load_delta = |name: &str| delta(&before_load, &after_load, name);
    report.set(
        "serve.batch_jobs_mean",
        load_delta("serve.coalesced_jobs") / load_delta("serve.predict_batches"),
    );
    report.set("infer.points", load_delta("infer.points"));
    report.set("serve.requests_shed", load_delta("serve.requests_shed"));
    report.set("serve.errors", load_delta("serve.errors"));
    let overhead = median(&c1.latency_ms) / median(&baseline.latency_ms) - 1.0;
    report.set("trace.overhead_pct", overhead * 100.0);
    if !sweep {
        fit_metrics(&mut report, &events, &before_fits, &after_fits);
    }
    Ok(report)
}

/// Median duration (ms) of the spans named `name` that started in
/// `window`.
fn span_p50_ms(events: &[SpanEvent], name: &str, window: (u64, u64)) -> f64 {
    let ms: Vec<f64> = events
        .iter()
        .filter(|e| e.name == name && (window.0..=window.1).contains(&e.start_us))
        .map(|e| e.elapsed_us as f64 / 1e3)
        .collect();
    median(&ms)
}

/// The daemon-side split of the one-client phase, and the registry
/// spans.
fn span_metrics(report: &mut Report, events: &[SpanEvent], c1: &Phase) {
    let selfs = trace::self_us(events);
    let in_c1 = |e: &SpanEvent| (c1.window_us.0..=c1.window_us.1).contains(&e.start_us);
    let mut requests: Vec<(&SpanEvent, u64)> = events
        .iter()
        .zip(selfs.iter().copied())
        .filter(|(e, _)| e.name == "serve.request" && in_c1(e))
        .collect();
    requests.sort_by_key(|(e, _)| e.start_us);
    let request_ms: Vec<f64> = requests
        .iter()
        .map(|(e, _)| e.elapsed_us as f64 / 1e3)
        .collect();
    let self_ms: Vec<f64> = requests.iter().map(|(_, s)| *s as f64 / 1e3).collect();
    // One client sends one request at a time, so the i-th request span
    // answers the i-th client request.
    let outside = if request_ms.len() == c1.latency_ms.len() {
        let gaps: Vec<f64> = c1
            .latency_ms
            .iter()
            .zip(&request_ms)
            .map(|(c, s)| c - s)
            .collect();
        median(&gaps)
    } else {
        median(&c1.latency_ms) - median(&request_ms)
    };
    report.set("serve.request_ms", median(&request_ms));
    report.set(
        "serve.sweep_ms",
        span_p50_ms(events, "serve.sweep", c1.window_us),
    );
    report.set(
        "infer.sweep_ms",
        span_p50_ms(events, "infer.sweep", c1.window_us),
    );
    report.set("serve.request_self_ms", median(&self_ms));
    report.set("serve.outside_request_ms", outside);
    report.set(
        "serve.unattributed_pct",
        100.0 * outside / median(&c1.latency_ms),
    );

    let seconds = |name: &str| -> Vec<f64> {
        events
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.elapsed_us as f64 / 1e6)
            .collect()
    };
    let io: Vec<f64> = events
        .iter()
        .zip(&selfs)
        .filter(|(e, _)| e.name == "registry.get_or_fit")
        .map(|(_, &s)| s as f64 / 1e6)
        .collect();
    let fits = seconds("registry.fit");
    report.set(
        "registry.get_or_fit_s",
        median(&seconds("registry.get_or_fit")),
    );
    report.set(
        "registry.fit_s",
        if fits.is_empty() { 0.0 } else { median(&fits) },
    );
    report.set("registry.io_s", median(&io));
}

/// Campaign and simulation metrics of the cold `/fit`s, per fit: spans
/// grouped by each fit request's trace id, simulation counts from the
/// daemon's `/metrics`.
fn fit_metrics(
    report: &mut Report,
    events: &[SpanEvent],
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
) {
    let selfs = trace::self_us(events);
    let fits: Vec<&SpanEvent> = events.iter().filter(|e| e.name == "registry.fit").collect();
    let phase = |trace_id: &str, name: &str| trace::self_s(events, &selfs, trace_id, name);
    let per_fit =
        |f: &dyn Fn(&SpanEvent) -> f64| median(&fits.iter().map(|e| f(e)).collect::<Vec<_>>());
    let attributed = |e: &SpanEvent| {
        trace::CAMPAIGN_PHASES
            .map(|n| phase(&e.trace, n))
            .iter()
            .sum::<f64>()
    };
    let wall = |e: &SpanEvent| e.elapsed_us as f64 / 1e6;
    let rounds = |e: &SpanEvent| {
        events
            .iter()
            .filter(|r| r.trace == e.trace && r.name == "campaign.round")
            .count() as f64
    };
    report.set("campaign.rounds", per_fit(&rounds));
    report.set(
        "campaign.select_s",
        per_fit(&|e| phase(&e.trace, "campaign.select")),
    );
    report.set(
        "campaign.collect_s",
        per_fit(&|e| phase(&e.trace, "campaign.collect")),
    );
    report.set(
        "campaign.fit_s",
        per_fit(&|e| phase(&e.trace, "campaign.fit")),
    );
    report.set(
        "campaign.unattributed_s",
        per_fit(&|e| wall(e) - attributed(e)),
    );
    report.set(
        "campaign.attributed_pct",
        per_fit(&|e| 100.0 * attributed(e) / wall(e)),
    );

    let n = fits.len().max(1) as f64;
    let minst = delta(before, after, "sim.simulated_instructions") / 1e6;
    let collect_s: f64 = fits
        .iter()
        .map(|e| phase(&e.trace, "campaign.collect"))
        .sum();
    report.set(
        "simulate.unique_sims",
        delta(before, after, "sim.unique_simulations") / n,
    );
    report.set(
        "simulate.cache_hits",
        delta(before, after, "sim.cache_hits") / n,
    );
    report.set("simulate.minst", minst / n);
    report.set("simulate.minst_per_s", minst / collect_s);
}
