//! `archpredict-served` — the prediction daemon (see `archpredict::serve`).
//!
//! Binds an HTTP/1.1 listener over a model registry and serves `/fit`
//! and `/predict` until `POST /shutdown`, SIGTERM, or SIGINT — all three
//! trigger the same graceful drain (close the listener, finish in-flight
//! work under `--drain-ms`, flush final stats to stderr). The first
//! stdout line is always `archpredict-served listening on <addr>` so
//! wrappers (the load generator, the chaos harness, the CI smoke gate)
//! can bind port 0 and scrape the concrete address.
//!
//! Setting `ARCHPREDICT_FAILPOINTS` enrolls the daemon in a
//! deterministic chaos schedule (see `archpredict::failpoint`); a
//! malformed plan is a fatal startup error, never a silently unfaulted
//! run.
//!
//! ```text
//! archpredict-served [--addr 127.0.0.1:0] [--root results/registry]
//!                    [--max-connections 64] [--max-models 32]
//!                    [--gate-wait-ms 2000] [--drain-ms 30000]
//! ```

use archpredict::failpoint;
use archpredict::serve::{install_signal_handlers, ServeConfig, Server};
use archpredict::telemetry;
use std::process::ExitCode;
use std::time::Duration;

fn run() -> Result<(), String> {
    let mut config = ServeConfig::default();
    let mut addr = String::from("127.0.0.1:0");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        let millis = |name: &str, text: String| -> Result<Duration, String> {
            text.parse()
                .map(Duration::from_millis)
                .map_err(|_| format!("{name} requires an integer millisecond count"))
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr")?,
            "--root" => config.registry_root = value("--root")?.into(),
            "--max-connections" => {
                config.max_connections = value("--max-connections")?
                    .parse()
                    .map_err(|_| "--max-connections requires an integer".to_owned())?;
            }
            "--max-models" => {
                config.max_models = value("--max-models")?
                    .parse()
                    .map_err(|_| "--max-models requires an integer".to_owned())?;
            }
            "--gate-wait-ms" => {
                config.gate_wait = millis("--gate-wait-ms", value("--gate-wait-ms")?)?;
            }
            "--drain-ms" => {
                config.drain_deadline = millis("--drain-ms", value("--drain-ms")?)?;
            }
            "--help" | "-h" => {
                println!(
                    "usage: archpredict-served [--addr HOST:PORT] [--root DIR] [--max-connections N] \
                     [--max-models N] [--gate-wait-ms N] [--drain-ms N]"
                );
                return Ok(());
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    if failpoint::install_from_env().map_err(|e| format!("failpoints: {e}"))? {
        eprintln!("archpredict-served: failpoint schedule installed from environment");
    }
    if telemetry::install_trace_from_env().map_err(|e| format!("trace sink: {e}"))? {
        eprintln!(
            "archpredict-served: trace events -> {}",
            telemetry::trace_path().unwrap_or_default().display()
        );
    }
    install_signal_handlers();
    let server = Server::bind(addr.as_str(), config).map_err(|e| format!("bind {addr}: {e}"))?;
    // Contract with wrappers: the address line is first, and flushed.
    println!("archpredict-served listening on {}", server.local_addr());
    use std::io::Write;
    std::io::stdout().flush().ok();
    server.run().map_err(|e| format!("serve: {e}"))
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("archpredict-served: {message}");
            ExitCode::FAILURE
        }
    }
}
