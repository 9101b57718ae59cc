//! Run metadata recorded with every result, so numbers from different
//! machines, build settings or commits are never compared by mistake.

use archpredict_stats::json::Value;
use std::path::Path;

/// Describes the machine, the build and the checkout, as JSON.
pub fn describe(seed: u64, seconds: f64, smoke: bool) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Value::Object(vec![
        ("nproc".into(), Value::num(nproc as f64)),
        ("cpu_model".into(), Value::Str(cpu_model())),
        ("target_cpu".into(), Value::Str(target_cpu())),
        ("target_features".into(), Value::Str(target_features())),
        ("git_head".into(), Value::Str(git_head(Path::new(".git")))),
        ("seed".into(), Value::Str(format!("{seed:#x}"))),
        ("seconds".into(), Value::num(seconds)),
        ("smoke".into(), Value::Bool(smoke)),
    ])
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The `target-cpu` the build was asked for: `RUSTFLAGS` when set, else
/// the repository's `.cargo/config.toml`.
fn target_cpu() -> String {
    std::env::var("RUSTFLAGS")
        .ok()
        .and_then(|flags| target_cpu_in(&flags))
        .or_else(|| {
            std::fs::read_to_string(".cargo/config.toml")
                .ok()
                .and_then(|text| target_cpu_in(&text))
        })
        .unwrap_or_else(|| "default".into())
}

/// The value of the first `target-cpu=` outside a `#` comment line.
fn target_cpu_in(text: &str) -> Option<String> {
    text.lines()
        .filter(|line| !line.trim_start().starts_with('#'))
        .find_map(|line| line.split("target-cpu=").nth(1))
        .and_then(|rest| rest.split(|c: char| c == '"' || c.is_whitespace()).next())
        .map(str::to_owned)
}

/// Vector extensions this binary was compiled to use (what `target-cpu`
/// actually turned on).
fn target_features() -> String {
    let features = [
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
    ];
    let on: Vec<&str> = features
        .iter()
        .filter(|(_, enabled)| *enabled)
        .map(|(name, _)| *name)
        .collect();
    if on.is_empty() {
        "baseline".into()
    } else {
        on.join(",")
    }
}

/// The commit checked out at `git_dir`'s work tree, read from the files
/// (no `git` process): a detached `HEAD`, a loose ref, or a packed ref.
/// `unknown` outside a repository.
fn git_head(git_dir: &Path) -> String {
    let Ok(head) = std::fs::read_to_string(git_dir.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(hash) = std::fs::read_to_string(git_dir.join(reference)) {
        return hash.trim().to_owned();
    }
    std::fs::read_to_string(git_dir.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| match l.split_once(' ') {
                Some((hash, name)) if name == reference => Some(hash.to_owned()),
                _ => None,
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_cpu_skips_comments() {
        let config = "# `target-cpu=native` helps\n[build]\nrustflags = [\"-C\", \"target-cpu=x86-64-v3\"]\n";
        assert_eq!(target_cpu_in(config).as_deref(), Some("x86-64-v3"));
        assert_eq!(
            target_cpu_in("-C target-cpu=native -C opt-level=3").as_deref(),
            Some("native")
        );
        assert_eq!(target_cpu_in("# target-cpu=native\n"), None);
    }

    #[test]
    fn git_head_reads_detached_loose_and_packed_refs() {
        let dir = std::env::temp_dir().join(format!("perf_git_head_{}", std::process::id()));
        std::fs::create_dir_all(dir.join("refs/heads")).expect("temp git dir");
        let write = |name: &str, text: &str| std::fs::write(dir.join(name), text).expect("write");
        write("HEAD", "ref: refs/heads/main\n");
        write(
            "packed-refs",
            "# pack-refs\naaaa refs/heads/mainline\nbbbb refs/heads/main\n",
        );
        assert_eq!(git_head(&dir), "bbbb");
        write("refs/heads/main", "cccc\n");
        assert_eq!(git_head(&dir), "cccc");
        write("HEAD", "dddd\n");
        assert_eq!(git_head(&dir), "dddd");
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(git_head(&dir), "unknown");
    }
}
