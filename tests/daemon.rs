//! The real-daemon harness shared by the suites that drive the
//! `archpredict-served` process: it builds the binary from the current
//! source, spawns it on an ephemeral port, scrapes the address line it
//! prints, waits for `/ready`, delivers signals, and kills the child on
//! drop, so a panicking test never leaks a daemon.
//!
//! The daemon's first stdout line is always
//! `archpredict-served listening on <addr>`, flushed before anything
//! else; that line says the listener exists, and the `/ready` wait says
//! the daemon takes work.

use archpredict::failpoint::ENV_FAILPOINTS;
use archpredict::serve::wait_ready;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// How long a spawn waits for `/ready`: generous for a slow host, and a
/// handler failpoint that fails a few probes still fits inside it.
const READY_DEADLINE: Duration = Duration::from_secs(30);

/// Builds `archpredict-served` in this test binary's profile (a no-op
/// when it is current) and locates it, so the daemon under test is built
/// from this source, never a stale binary left in the target directory.
fn served_binary() -> &'static PathBuf {
    static BINARY: OnceLock<PathBuf> = OnceLock::new();
    BINARY.get_or_init(|| {
        let mut build = Command::new(env!("CARGO"));
        build.args(["build", "-p", "archpredict-served"]);
        if !cfg!(debug_assertions) {
            build.arg("--release");
        }
        let status = build.status().expect("run cargo build for the daemon");
        assert!(status.success(), "building archpredict-served failed");
        let exe = std::env::current_exe().expect("test binary path");
        exe.ancestors()
            .skip(1)
            .take(3)
            .map(|dir| dir.join("archpredict-served"))
            .find(|candidate| candidate.is_file())
            .expect("daemon binary after building it")
    })
}

/// A running daemon; dropping it kills and reaps the process.
pub struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    /// Spawns the daemon on `127.0.0.1:0` over the registry at `root`,
    /// with `args` appended, and returns once it answers `/ready`.
    /// `failpoints` is the child's `ARCHPREDICT_FAILPOINTS` plan; `None`
    /// scrubs an inherited one, so a clean daemon is clean.
    pub fn spawn(root: &Path, failpoints: Option<&str>, args: &[&str]) -> Self {
        let mut command = Command::new(served_binary());
        command
            .args(["--addr", "127.0.0.1:0", "--root"])
            .arg(root)
            .args(args)
            .stdout(Stdio::piped());
        match failpoints {
            Some(plan) => command.env(ENV_FAILPOINTS, plan),
            None => command.env_remove(ENV_FAILPOINTS),
        };
        let mut child = command.spawn().expect("spawn archpredict-served");
        let stdout = child.stdout.take().expect("piped stdout");
        // Owned by the guard from here on, so a failed scrape or wait
        // below kills the child.
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([0, 0, 0, 0], 0)),
        };
        let mut first_line = String::new();
        BufReader::new(stdout)
            .read_line(&mut first_line)
            .expect("daemon address line");
        daemon.addr = first_line
            .trim()
            .rsplit(' ')
            .next()
            .and_then(|token| token.parse().ok())
            .unwrap_or_else(|| panic!("unparsable daemon address line {first_line:?}"));
        wait_ready(daemon.addr, READY_DEADLINE).expect("spawned daemon never became ready");
        daemon
    }

    /// The address the daemon printed.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Delivers `signal` (`"TERM"`, `"KILL"`) the way an operator would.
    pub fn signal(&self, signal: &str) {
        let pid = self.child.id();
        let status = Command::new("/usr/bin/kill")
            .args([format!("-{signal}"), pid.to_string()])
            .status()
            .expect("run kill");
        assert!(status.success(), "kill -{signal} {pid} failed");
    }

    /// Reaps the daemon, failing the test if it is still running `limit`
    /// from now.
    pub fn exit_within(&mut self, limit: Duration) -> ExitStatus {
        let give_up = Instant::now() + limit;
        loop {
            if let Some(status) = self.child.try_wait().expect("poll daemon") {
                return status;
            }
            assert!(
                Instant::now() < give_up,
                "daemon {} still running {limit:?} later",
                self.child.id()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
