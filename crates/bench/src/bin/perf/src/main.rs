//! `perf`: one benchmark for the campaign engine and the `/predict`
//! daemon, reporting end-to-end metrics from an untraced pass and
//! per-layer metrics from a traced pass. See `README.md` beside this
//! package for the workloads, the metrics and how to compare commits.
//!
//! ```text
//! perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!      [--out target/perf/perf.json] [--smoke]
//! perf report <trace.jsonl>
//! ```
//!
//! With `--workload`, one workload runs in this process; without it,
//! every workload runs in a child process of its own, untraced first.
//! Without `--trace`, both passes run. Every metric is printed as
//! `workload metric value unit`, details and checks as `#` lines, and the
//! last line is the result as one JSON object. The exit code is 1 when a
//! correctness check fails and 2 on any other error.
//!
//! `perf simcache --seed N --out PATH [--smoke]` is internal: it runs the
//! cold campaigns whose simcache `campaign_cached` loads, and prints their
//! digests.

mod campaign;
mod meta;
mod metrics;
mod serve;
mod stats;
mod trace;

use archpredict::failpoint::ENV_FAILPOINTS;
use archpredict::telemetry::ENV_TRACE;
use archpredict::CampaignConfig;
use archpredict_ann::Parallelism;
use archpredict_stats::json::Value;
use metrics::{Detail, Report, Workload};
use std::path::{Component, Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Environment settings that change what a run measures. A run refuses to
/// start while any is set, so a stray knob cannot skew a baseline.
const KNOBS: [&str; 5] = [
    archpredict::simulate::ENV_SIM_THREADS,
    Parallelism::ENV_THREADS,
    archpredict::distributed::ENV_SIM_WORKERS,
    ENV_FAILPOINTS,
    ENV_TRACE,
];

/// Seconds each pass measures unless `--seconds` says otherwise.
const DEFAULT_SECONDS: f64 = 10.0;
/// Seconds each pass measures under `--smoke`.
const SMOKE_SECONDS: f64 = 0.5;
/// Where scratch state and results go, relative to the working directory.
const WORK_DIR: &str = "target/perf";

/// What a workload's pass needs to know.
pub struct Ctx {
    /// The run seed; every input derives from it.
    pub seed: u64,
    /// How long the pass's measured phases run.
    pub seconds: f64,
    /// Quick budgets and short phases.
    pub smoke: bool,
    /// The pass's scratch directory, empty at the start of the pass.
    pub dir: PathBuf,
}

/// Peak resident set (`VmHWM`) of process `pid` (`self` for this one),
/// in MiB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {path}"))
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    out: PathBuf,
    smoke: bool,
}

fn parse_seed(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|_| format!("--seed {text:?} is not a number"))
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: CampaignConfig::default().seed,
        seconds: None,
        trace: None,
        out: Path::new(WORK_DIR).join("perf.json"),
        smoke: false,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => parsed.seed = parse_seed(&value()?)?,
            "--seconds" => {
                let text = value()?;
                let seconds: f64 = text.parse().map_err(|_| format!("--seconds {text:?}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {seconds} is outside (0, 600]"));
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--out" => parsed.out = PathBuf::from(value()?),
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if writes_under_results(&parsed.out) {
        return Err(format!(
            "--out {} is under results/, which holds the paper's artifacts",
            parsed.out.display()
        ));
    }
    Ok(parsed)
}

fn writes_under_results(path: &Path) -> bool {
    let cwd = std::env::current_dir().unwrap_or_default();
    let relative = path.strip_prefix(&cwd).unwrap_or(path);
    relative.components().find(|c| *c != Component::CurDir)
        == Some(Component::Normal("results".as_ref()))
}

/// Runs one pass of `workload` in this process, in a fresh scratch
/// directory.
fn run_pass(workload: Workload, args: &Args, seconds: f64, traced: bool) -> Result<Report, String> {
    let dir = Path::new(WORK_DIR).join(format!("{}-trace{}", workload.name(), u8::from(traced)));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds,
        smoke: args.smoke,
        dir,
    };
    match workload {
        Workload::CampaignCold | Workload::CampaignCached => campaign::run(workload, &ctx, traced),
        Workload::ServeSmall | Workload::ServeSweep => serve::run(workload, &ctx, traced),
    }
}

/// The pass as JSON, for `--out`.
fn report_json(report: &Report, metrics: &[(&metrics::Metric, f64)]) -> Value {
    let details = report
        .details
        .iter()
        .map(|(name, detail, unit)| {
            let mut fields = match detail {
                Detail::Value(v) => vec![("value".into(), Value::num(*v))],
                Detail::Dist(d) => vec![
                    ("p50".into(), Value::num(d.p50)),
                    ("q1".into(), Value::num(d.q1)),
                    ("q3".into(), Value::num(d.q3)),
                    ("p99".into(), d.p99.map_or(Value::Null, Value::num)),
                    ("n".into(), Value::num(d.n as f64)),
                ],
            };
            fields.push(("unit".into(), Value::Str((*unit).into())));
            (name.clone(), Value::Object(fields))
        })
        .collect();
    Value::Object(vec![
        ("workload".into(), Value::Str(report.workload.name().into())),
        (
            "trace".into(),
            Value::num(f64::from(u8::from(report.traced))),
        ),
        ("correct".into(), Value::Bool(report.correct())),
        ("attempted".into(), Value::num(report.attempted as f64)),
        ("failed".into(), Value::num(report.failed as f64)),
        (
            "metrics".into(),
            Value::Object(
                metrics
                    .iter()
                    .map(|(m, v)| {
                        let fields = vec![
                            ("value".into(), Value::num(*v)),
                            ("unit".into(), Value::Str(m.unit.into())),
                            ("better".into(), Value::Str(m.better.name().into())),
                        ];
                        (m.name.to_owned(), Value::Object(fields))
                    })
                    .collect(),
            ),
        ),
        ("details".into(), Value::Object(details)),
        (
            "checks".into(),
            Value::Object(
                report
                    .checks
                    .iter()
                    .map(|(c, ok)| (c.clone(), Value::Bool(*ok)))
                    .collect(),
            ),
        ),
    ])
}

/// Prints a pass's metric lines, details and checks.
fn print_report(report: &Report, metrics: &[(&metrics::Metric, f64)]) {
    let w = report.workload.name();
    for (m, v) in metrics {
        println!("{w} {} {v} {}", m.name, m.unit);
    }
    for (name, detail, unit) in &report.details {
        match detail {
            Detail::Value(v) => println!("# {w} {name} {v} {unit}"),
            Detail::Dist(d) => {
                let p99 = d.p99.map_or("-".into(), |p| p.to_string());
                println!(
                    "# {w} {name} p50={} q1={} q3={} p99={p99} n={} {unit}",
                    d.p50, d.q1, d.q3, d.n
                );
            }
        }
    }
    for (check, ok) in &report.checks {
        println!("# {w} check {}: {check}", if *ok { "ok" } else { "FAILED" });
    }
}

/// The result line: `correct`, `attempted`, `failed`, and every metric as
/// `{"value": v, "unit": u}`.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, String)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn write_out(out: &Path, meta: Value, runs: Vec<Value>) -> Result<(), String> {
    if let Some(parent) = out.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
    }
    let doc = Value::Object(vec![
        ("meta".into(), meta),
        ("runs".into(), Value::Array(runs)),
    ]);
    std::fs::write(out, doc.to_json() + "\n").map_err(|e| format!("write {}: {e}", out.display()))
}

/// Writes `--out` and prints the result line for `runs` (passes as
/// [`report_json`] renders them). Metric names get a `workload/` prefix
/// when the runs span several workloads.
fn finish(args: &Args, seconds: f64, runs: Vec<Value>) -> Result<ExitCode, String> {
    let text = |e: archpredict_stats::json::JsonError| e.to_string();
    let first = runs.first().and_then(|r| r.get("workload").ok());
    let prefixed = runs.iter().any(|r| r.get("workload").ok() != first);
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut emitted = Vec::new();
    for run in &runs {
        correct &= run.get("correct").and_then(Value::as_bool).map_err(text)?;
        attempted += run.get("attempted").and_then(Value::as_u64).map_err(text)?;
        failed += run.get("failed").and_then(Value::as_u64).map_err(text)?;
        let workload = run.get("workload").and_then(Value::as_str).map_err(text)?;
        let Ok(Value::Object(metrics)) = run.get("metrics") else {
            return Err(format!("{workload}: metrics are not an object"));
        };
        for (name, metric) in metrics {
            let value = metric.get("value").and_then(Value::as_f64).map_err(text)?;
            let unit = metric.get("unit").and_then(Value::as_str).map_err(text)?;
            let name = if prefixed {
                format!("{workload}/{name}")
            } else {
                name.clone()
            };
            emitted.push((name, value, unit.to_owned()));
        }
    }
    write_out(
        &args.out,
        meta::describe(args.seed, seconds, args.smoke),
        runs,
    )?;
    println!("{}", result_line(correct, attempted, failed, &emitted));
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One workload, its passes in this process.
fn run_workload(workload: Workload, args: &Args, seconds: f64) -> Result<ExitCode, String> {
    let mut runs = Vec::new();
    for traced in args.trace.map_or(vec![false, true], |t| vec![t]) {
        let report = run_pass(workload, args, seconds, traced)?;
        let metrics = report.metrics()?;
        print_report(&report, &metrics);
        runs.push(report_json(&report, &metrics));
    }
    finish(args, seconds, runs)
}

/// Every workload, each pass in a child process of its own (so each
/// measures its own peak memory), untraced passes first.
fn run_all(args: &Args, seconds: f64) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    for trace in args.trace.map_or(vec![false, true], |t| vec![t]) {
        let trace = u8::from(trace).to_string();
        for workload in Workload::ALL {
            let out = Path::new(WORK_DIR).join(format!("{}-trace{trace}.json", workload.name()));
            let _ = std::fs::remove_file(&out);
            let mut command = Command::new(&exe);
            command
                .args([
                    "--workload",
                    workload.name(),
                    "--seed",
                    &args.seed.to_string(),
                ])
                .args([
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    &trace,
                    "--out",
                ])
                .arg(&out)
                .stderr(Stdio::inherit());
            if args.smoke {
                command.arg("--smoke");
            }
            let output = command
                .output()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            // Everything but the child's own result line.
            let stdout = String::from_utf8_lossy(&output.stdout);
            for line in stdout.lines().filter(|l| !l.starts_with('{')) {
                println!("{line}");
            }
            let doc = std::fs::read_to_string(&out)
                .ok()
                .and_then(|text| Value::parse(&text).ok())
                .ok_or(format!(
                    "{} pass {trace} failed ({})",
                    workload.name(),
                    output.status
                ))?;
            let child_runs = doc
                .get("runs")
                .and_then(Value::as_array)
                .map_err(|e| e.to_string())?;
            runs.extend(child_runs.iter().cloned());
        }
    }
    finish(args, seconds, runs)
}

fn run(args: Vec<String>) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("report") => {
            let [_, path] = args.as_slice() else {
                return Err("usage: perf report <trace.jsonl>".into());
            };
            let events = trace::read(Path::new(path))?;
            print!("{}", trace::render(&events));
            Ok(ExitCode::SUCCESS)
        }
        Some("simcache") => {
            let parsed = parse_args(args.into_iter().skip(1))?;
            for digest in campaign::prepare_simcache(parsed.seed, parsed.smoke, &parsed.out)? {
                println!("{digest:016x}");
            }
            Ok(ExitCode::SUCCESS)
        }
        _ => {
            let parsed = parse_args(args.into_iter())?;
            if let Some(knob) = KNOBS.iter().find(|k| std::env::var_os(k).is_some()) {
                return Err(format!(
                    "{knob} is set; unset it so the run measures the defaults"
                ));
            }
            let default = if parsed.smoke {
                SMOKE_SECONDS
            } else {
                DEFAULT_SECONDS
            };
            let seconds = parsed.seconds.unwrap_or(default);
            match parsed.workload {
                Some(workload) => run_workload(workload, &parsed, seconds),
                None => run_all(&parsed, seconds),
            }
        }
    }
}

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("perf: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Result<Args, String> {
        parse_args(text.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload serve_sweep --seed 7 --seconds 15 --trace 1").expect("valid");
        assert_eq!(a.workload, Some(Workload::ServeSweep));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(15.0), Some(true)));
        assert_eq!(args("--seed 0xA5CEED").expect("hex").seed, 0xA5CEED);
        assert_eq!(
            args("").expect("defaults").seed,
            CampaignConfig::default().seed
        );
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds 0",
            "--seed",
            "--bogus",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn refuses_to_write_under_results() {
        assert!(args("--out results/perf.json").is_err());
        assert!(args("--out ./results/x/perf.json").is_err());
        assert!(args("--out target/perf/results.json").is_ok());
    }

    #[test]
    fn result_line_is_the_contract_json() {
        let line = result_line(true, 3, 0, &[("setup_s".into(), 0.25, "s".into())]);
        let value = Value::parse(&line).expect("JSON");
        assert_eq!(value.get("attempted").and_then(Value::as_u64), Ok(3));
        assert!(
            line.contains("\"attempted\": 3,"),
            "whole numbers stay whole: {line}"
        );
        let setup = value
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("metric");
        assert_eq!(setup.get("value").and_then(Value::as_f64), Ok(0.25));
        assert_eq!(setup.get("unit").and_then(Value::as_str), Ok("s"));
    }
}
