//! Locates the `archpredict-served` binary for the `perf` benchmark,
//! which spawns the daemon beside itself in the target directory. The
//! daemon tests build their own from the current source instead.

use std::path::PathBuf;

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
