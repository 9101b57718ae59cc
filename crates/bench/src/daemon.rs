//! Daemon-spawning harness shared by the load generator, the chaos
//! harness, and the CI smoke gates: locate the real `archpredict-served`
//! binary, spawn it on an ephemeral (or pinned) port, scrape the
//! address line it prints, and guarantee the child never outlives the
//! harness — a panicking run kills the daemon on drop.
//!
//! The one protocol this module depends on is the daemon's stdout
//! contract: the first line is always
//! `archpredict-served listening on <addr>`, flushed before anything
//! else, so wrappers can bind `127.0.0.1:0` and learn the concrete port.
//! The address line says the listener exists; it does not say the daemon
//! will accept work, so [`Daemon::spawn`] additionally blocks on the
//! `GET /ready` probe — the same endpoint a load balancer would watch —
//! before handing the child to the harness.

use archpredict::failpoint::ENV_FAILPOINTS;
use archpredict::serve::http_request;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// How long [`Daemon::spawn`] waits for the readiness probe to pass.
/// Generous because CI machines can be slow to schedule the child, but
/// chaos schedules (a handler failpoint can 500 a few probes) still fit
/// comfortably inside it.
const READY_DEADLINE: Duration = Duration::from_secs(30);

/// Environment override for the daemon binary's location.
pub const ENV_SERVED_BIN: &str = "ARCHPREDICT_SERVED_BIN";

/// Finds `archpredict-served`: env override, then next to the current
/// executable, then one directory up (bench binaries live in
/// `target/<profile>/`).
///
/// # Errors
///
/// When the override points nowhere or no candidate exists — the message
/// says how to build or point at the binary.
pub fn locate_served_binary() -> Result<PathBuf, String> {
    if let Ok(path) = std::env::var(ENV_SERVED_BIN) {
        let path = PathBuf::from(path);
        if path.is_file() {
            return Ok(path);
        }
        return Err(format!(
            "{ENV_SERVED_BIN} points at {}, which does not exist",
            path.display()
        ));
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut dir = exe.parent();
    for _ in 0..2 {
        if let Some(d) = dir {
            let candidate = d.join("archpredict-served");
            if candidate.is_file() {
                return Ok(candidate);
            }
            dir = d.parent();
        }
    }
    Err(
        "archpredict-served binary not found: build it with `cargo build -p \
         archpredict-served` or set ARCHPREDICT_SERVED_BIN"
            .into(),
    )
}

/// A running `archpredict-served` child: its scraped address, signal
/// delivery, and kill-on-drop cleanup so no run leaks a daemon.
pub struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    /// Spawns the daemon at `bin` with `args` (the harness supplies
    /// `--addr`, `--root`, …), blocks until it prints its address line,
    /// and returns the running child.
    ///
    /// `failpoints` is the child's chaos schedule: `Some(plan)` sets
    /// `ARCHPREDICT_FAILPOINTS` on the child, `None` scrubs any
    /// inherited value so a "clean" daemon is actually clean.
    ///
    /// # Errors
    ///
    /// On spawn failure or a child that dies before printing its
    /// address (e.g. a bind failure on a pinned port).
    pub fn spawn(bin: &PathBuf, args: &[String], failpoints: Option<&str>) -> Result<Self, String> {
        let mut command = Command::new(bin);
        command.args(args).stdout(Stdio::piped());
        match failpoints {
            Some(plan) => {
                command.env(ENV_FAILPOINTS, plan);
            }
            None => {
                command.env_remove(ENV_FAILPOINTS);
            }
        }
        let mut child = command
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut first_line = String::new();
        if BufReader::new(stdout).read_line(&mut first_line).is_err() || first_line.is_empty() {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon exited before printing its address line".into());
        }
        let addr: SocketAddr = match first_line.trim().rsplit(' ').next().map(str::parse) {
            Some(Ok(addr)) => addr,
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("unparsable daemon address line {first_line:?}"));
            }
        };
        let daemon = Daemon { child, addr };
        // Readiness, not liveness: the listener existing is not the same
        // as the daemon accepting work. A spawn that cannot pass `/ready`
        // is dead on arrival for every harness, so fail it here (the
        // `Daemon` drop kills the child).
        daemon.wait_ready(READY_DEADLINE)?;
        Ok(daemon)
    }

    /// Polls `GET /ready` until the daemon reports itself ready to accept
    /// work (200 with `"ready": true`), or `deadline` elapses. See
    /// [`wait_ready`].
    ///
    /// # Errors
    ///
    /// When the deadline passes without a ready answer; the message
    /// carries the last observed probe outcome.
    pub fn wait_ready(&self, deadline: Duration) -> Result<(), String> {
        wait_ready(self.addr, deadline)
    }

    /// The daemon's bound address, scraped from its first stdout line.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's process id (for external signal delivery).
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Delivers `signal` (`"TERM"`, `"KILL"`, …) via `/usr/bin/kill`,
    /// the same way an init system or an operator would.
    ///
    /// # Errors
    ///
    /// When the kill command cannot run or reports failure.
    pub fn signal(&self, signal: &str) -> Result<(), String> {
        let status = Command::new("/usr/bin/kill")
            .args([format!("-{signal}"), self.pid().to_string()])
            .status()
            .map_err(|e| format!("run kill: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("kill -{signal} {} failed", self.pid()))
        }
    }

    /// Waits for the daemon to exit and reaps it. Safe to call after
    /// the child already died (the status is cached by the OS/std).
    ///
    /// # Errors
    ///
    /// On an OS-level wait failure.
    pub fn wait(&mut self) -> std::io::Result<ExitStatus> {
        self.child.wait()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Polls `GET /ready` at `addr` until the daemon reports itself ready to
/// accept work (200 with `"ready": true`), or `deadline` elapses.
///
/// Transient failures — connection refused during startup, a 500 from an
/// armed handler failpoint — are retried; only the deadline is fatal. A
/// draining daemon answers 503 forever, so a harness waiting on one fails
/// here instead of hanging on its first real request. This is the one
/// readiness wait every harness shares; none of them poll `/health`,
/// which stays 200 on a daemon that will never take their work.
///
/// # Errors
///
/// When the deadline passes without a ready answer; the message carries
/// the last observed probe outcome.
pub fn wait_ready(addr: SocketAddr, deadline: Duration) -> Result<(), String> {
    let give_up = Instant::now() + deadline;
    let mut last: String;
    loop {
        match http_request(addr, "GET", "/ready", None) {
            Ok((200, body)) if matches!(body.get("ready").and_then(|v| v.as_bool()), Ok(true)) => {
                return Ok(());
            }
            Ok((status, _)) => last = format!("last probe answered {status}"),
            Err(e) => last = format!("last probe failed: {e}"),
        }
        if Instant::now() >= give_up {
            return Err(format!(
                "daemon at {addr} not ready after {deadline:?} ({last})"
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    /// Answers every connection at the returned address with `status` and
    /// `body` until the listener is dropped with the thread.
    fn fake_daemon(status: &'static str, body: &'static str) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake daemon");
        let addr = listener.local_addr().expect("local addr");
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { break };
                let mut buf = [0u8; 1024];
                let _ = stream.read(&mut buf);
                let response = format!(
                    "HTTP/1.1 {status}\r\nContent-Type: application/json\r\n\
                     Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                    body.len()
                );
                let _ = stream.write_all(response.as_bytes());
            }
        });
        addr
    }

    #[test]
    fn ready_wait_passes_a_ready_daemon() {
        let addr = fake_daemon("200 OK", r#"{"ok":true,"ready":true,"draining":false}"#);
        wait_ready(addr, Duration::from_secs(5)).expect("ready daemon passes the wait");
    }

    /// Regression for the `/health` -> `/ready` switch: a draining daemon
    /// is alive (its `/health` would answer 200) but answers `/ready`
    /// with 503, and the readiness wait must reject it instead of handing
    /// it to a harness.
    #[test]
    fn ready_wait_rejects_a_draining_daemon() {
        let addr = fake_daemon(
            "503 Service Unavailable",
            r#"{"ok":false,"error":"draining; not accepting new work"}"#,
        );
        let err = wait_ready(addr, Duration::from_millis(200))
            .expect_err("draining daemon must fail the wait");
        assert!(err.contains("503"), "error should carry the probe: {err}");
    }

    #[test]
    fn ready_wait_requires_the_ready_flag_not_just_a_200() {
        // A liveness-style answer (200 without `ready: true`) must not
        // satisfy a readiness wait.
        let addr = fake_daemon("200 OK", r#"{"ok":true,"ready":false,"draining":true}"#);
        wait_ready(addr, Duration::from_millis(200))
            .expect_err("200 with ready=false must fail the wait");
    }
}
