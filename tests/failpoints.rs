//! Integration tests for the deterministic failpoint layer
//! (`archpredict::failpoint`) threaded through the persist and registry
//! paths: torn writes never touch the destination, a commit crash is a
//! clean miss that a refit heals (superseding the old registry
//! `CrashPoint` hook), and injected schedules replay identically.
//!
//! Failpoint state is process-global, so every test holds [`serial`]'s
//! lock for its whole body — unarmed sections included, since a refit
//! must not run while another test's plan is installed — and arms its
//! plan through [`arm`], which disarms on drop.

use archpredict::campaign::CampaignConfig;
use archpredict::failpoint::{self, FailAction, SiteSpec};
use archpredict::persist::{self, FP_WRITE_ATOMIC};
use archpredict::registry::{Registry, StudyFitSpec, FP_COMMIT_ENTRY, FP_COMMIT_OBJECT};
use archpredict::studies::Study;
use archpredict_workloads::Benchmark;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests of this file across test threads.
static TEST_LOCK: Mutex<()> = Mutex::new(());

/// Takes the file-wide test lock; hold it for the whole test body.
fn serial() -> MutexGuard<'static, ()> {
    TEST_LOCK
        .lock()
        .unwrap_or_else(|poison| poison.into_inner())
}

/// An installed failpoint plan; dropping it disarms everything (panic
/// included).
struct Armed;

impl Drop for Armed {
    fn drop(&mut self) {
        failpoint::clear();
    }
}

/// Installs a plan. Taking the [`serial`] guard by reference makes
/// arming without holding the test lock a compile error.
fn arm(_serial: &MutexGuard<'static, ()>, seed: u64, sites: &[(&str, SiteSpec)]) -> Armed {
    failpoint::install(seed, sites);
    Armed
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("archpredict_fptest_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A micro-budget fit spec: big enough to exercise the full campaign →
/// commit path, small enough to run twice per test.
fn quick_spec(seed: u64) -> StudyFitSpec {
    StudyFitSpec {
        study: Study::MemorySystem,
        benchmark: Benchmark::Gzip,
        config: CampaignConfig {
            seed,
            max_samples: 8,
            batch: 4,
            ..CampaignConfig::default()
        },
        quick: true,
    }
}

/// Files directly under `dir` (names only, sorted).
fn listing(dir: &PathBuf) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect()
        })
        .unwrap_or_default();
    names.sort();
    names
}

#[test]
fn torn_write_never_touches_the_destination() {
    let serial = serial();
    let dir = temp_dir("torn");
    let path = dir.join("artifact.json");
    persist::write_atomic(&path, "generation-one").expect("clean write");

    let _armed = arm(
        &serial,
        0x7E54,
        &[(FP_WRITE_ATOMIC, SiteSpec::once(FailAction::Torn))],
    );
    let next = "generation-two-considerably-longer";
    let err = persist::write_atomic(&path, next).expect_err("torn write fails the call");
    assert!(
        err.to_string().contains(FP_WRITE_ATOMIC),
        "error names the site: {err}"
    );

    // The destination is byte-for-byte the old version…
    assert_eq!(std::fs::read_to_string(&path).unwrap(), "generation-one");
    // …and exactly one half-written temp was left behind, named with
    // this (live) writer's pid so a debris sweep would spare it.
    let temps: Vec<String> = listing(&dir)
        .into_iter()
        .filter(|n| n.ends_with(".tmp"))
        .collect();
    assert_eq!(temps.len(), 1, "one torn temp: {temps:?}");
    assert!(
        temps[0].contains(&format!(".{}.", std::process::id())),
        "temp {} embeds the writer pid",
        temps[0]
    );
    let torn = std::fs::read_to_string(dir.join(&temps[0])).unwrap();
    assert_eq!(torn.as_bytes(), &next.as_bytes()[..next.len() / 2]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn commit_entry_crash_is_a_clean_miss_and_a_refit_heals_it() {
    let serial = serial();
    let root = temp_dir("commit_entry");
    let registry = Registry::open(&root).expect("open registry");
    let spec = quick_spec(0xA11CE);
    {
        let _armed = arm(
            &serial,
            2,
            &[(FP_COMMIT_ENTRY, SiteSpec::once(FailAction::Error))],
        );
        let err = registry
            .get_or_fit_study(&spec)
            .expect_err("commit dies between object and entry");
        assert!(
            err.to_string().contains(FP_COMMIT_ENTRY),
            "error names the site: {err}"
        );
    }
    // Object landed, entry never did: readers see a clean miss, and the
    // orphaned object is unreferenced debris, not corruption.
    assert!(
        registry
            .get(&spec.key(), spec.fingerprint())
            .expect("read after crash")
            .is_none(),
        "a crashed commit must be a clean miss, never a torn entry"
    );
    assert_eq!(listing(&root.join("entries")), Vec::<String>::new());
    assert_eq!(listing(&root.join("objects")).len(), 1, "orphan object");

    // The refit heals: same seed, same campaign, same content hash — the
    // orphan is re-adopted rather than duplicated.
    let outcome = registry.get_or_fit_study(&spec).expect("refit succeeds");
    assert!(!outcome.warm, "nothing durable existed, so this was a fit");
    assert!(registry
        .get(&spec.key(), spec.fingerprint())
        .expect("read after refit")
        .is_some());
    assert_eq!(listing(&root.join("objects")).len(), 1, "no duplicate");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn commit_object_failure_leaves_nothing_durable() {
    let serial = serial();
    let root = temp_dir("commit_object");
    let registry = Registry::open(&root).expect("open registry");
    let spec = quick_spec(0xB0B);
    {
        let _armed = arm(
            &serial,
            3,
            &[(FP_COMMIT_OBJECT, SiteSpec::once(FailAction::Error))],
        );
        let err = registry
            .get_or_fit_study(&spec)
            .expect_err("commit dies before the object write");
        assert!(
            err.to_string().contains(FP_COMMIT_OBJECT),
            "error names the site: {err}"
        );
    }
    assert_eq!(listing(&root.join("entries")), Vec::<String>::new());
    assert_eq!(listing(&root.join("objects")), Vec::<String>::new());

    let outcome = registry.get_or_fit_study(&spec).expect("refit succeeds");
    assert!(!outcome.warm);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn injected_error_pattern_replays_identically_across_reinstalls() {
    let serial = serial();
    let dir = temp_dir("replay");
    let spec = SiteSpec {
        action: FailAction::Error,
        probability: 0.4,
        max_fires: None,
    };
    let run = || -> Vec<bool> {
        let _armed = arm(&serial, 0xBEEF, &[(FP_WRITE_ATOMIC, spec)]);
        (0..60)
            .map(|i| persist::write_atomic(&dir.join(format!("f{i}")), "x").is_err())
            .collect()
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "same seed, same injected-failure pattern");
    let failures = first.iter().filter(|f| **f).count();
    assert!(
        (5..=50).contains(&failures),
        "p=0.4 over 60 writes fired {failures} times"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
