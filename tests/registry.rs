//! Registry integration: artifacts round-trip bit-for-bit, concurrent
//! callers collapse into one fit, and stale artifacts fail loudly
//! instead of mispredicting. (Crash-mid-commit coverage lives in
//! tests/failpoints.rs, driven by the deterministic failpoint layer.)

use archpredict::registry::{ModelKey, Registry, RegistryError};
use archpredict::{DesignSpace, Param};
use archpredict_ann::train::train_multi_network;
use archpredict_ann::{fit_ensemble, Dataset, Ensemble, Sample, TrainConfig};
use archpredict_stats::hash::fnv1a_64;
use archpredict_stats::json::Value;
use archpredict_stats::rng::Xoshiro256;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn temp_root(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("archpredict_regtest_{tag}_{}", std::process::id()))
}

fn tiny_space() -> DesignSpace {
    DesignSpace::new(vec![
        Param::cardinal("a", [1.0, 2.0, 4.0, 8.0]),
        Param::cardinal("b", [1.0, 2.0, 3.0]),
        Param::boolean("c"),
    ])
    .expect("valid space")
}

/// A fast synthetic ensemble fit: no simulation, a handful of epochs.
fn tiny_ensemble(space: &DesignSpace, seed: u64) -> Ensemble {
    let data: Dataset = (0..space.size())
        .map(|i| {
            let f = space.encode(&space.point(i));
            let t = 0.5 + 0.3 * f[0] + 0.2 * f[1] * f[2];
            Sample::new(f, t)
        })
        .collect();
    let config = TrainConfig {
        max_epochs: 30,
        ..TrainConfig::default()
    };
    fit_ensemble(&data, 5, &config, seed).ensemble
}

#[test]
fn ensemble_round_trip_is_bit_identical() {
    let root = temp_root("roundtrip");
    let space = tiny_space();
    let fingerprint = space.fingerprint();
    let key = ModelKey::new("test", "plain", "toy", 0xABCD, 24);

    let registry = Registry::open(&root).unwrap();
    let fitted = registry
        .get_or_fit(&key, fingerprint, || {
            Ok((
                tiny_ensemble(&space, 1),
                Value::Object(vec![("samples".into(), Value::num(24.0))]),
            ))
        })
        .unwrap();
    assert!(!fitted.warm);
    assert_eq!(registry.fits_performed(), 1);

    // A fresh instance (fresh process, in spirit) loads the artifact and
    // predicts bit-identically to the in-memory ensemble at every point.
    let reopened = Registry::open(&root).unwrap();
    let warm = reopened.get(&key, fingerprint).unwrap().expect("warm hit");
    assert!(warm.warm);
    assert_eq!(warm.payload.get("samples").unwrap().as_usize().unwrap(), 24);
    for i in 0..space.size() {
        let x = space.encode(&space.point(i));
        assert_eq!(
            fitted.model.predict(&x).to_bits(),
            warm.model.predict(&x).to_bits(),
            "prediction diverged at point {i}"
        );
    }
    assert_eq!(reopened.fits_performed(), 0);
    std::fs::remove_dir_all(&root).ok();
}

/// FNV-1a of [`tiny_ensemble`]`(.., 7)`'s fingerprinted artifact text.
const ARTIFACT_HASH: u64 = 0x66bc_e9f4_d3de_57f0;

/// Registry objects are named by the FNV-1a hash of the artifact text,
/// so every byte the JSON writer emits is part of the on-disk format: a
/// writer change that moved one byte would orphan every committed model.
#[test]
fn artifact_text_and_object_name_are_pinned() {
    let root = temp_root("artifact_hash");
    let space = tiny_space();
    let fingerprint = space.fingerprint();
    let ensemble = tiny_ensemble(&space, 7);
    let text = ensemble.to_json_fingerprinted(fingerprint);
    assert_eq!(
        fnv1a_64(text.as_bytes()),
        ARTIFACT_HASH,
        "artifact text changed"
    );

    let key = ModelKey::new("test", "plain", "toy", 7, 24);
    Registry::open(&root)
        .unwrap()
        .get_or_fit(&key, fingerprint, || Ok((ensemble, Value::Null)))
        .unwrap();
    let object = root
        .join("objects")
        .join(format!("{ARTIFACT_HASH:016x}.json"));
    assert_eq!(std::fs::read_to_string(&object).unwrap(), text);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn multi_model_round_trip_is_bit_identical() {
    let root = temp_root("multi");
    let space = tiny_space();
    let fingerprint = space.fingerprint() ^ 0x4EAD;
    let key = ModelKey::new("test", "multitask", "toy", 7, 24);

    let rows: Vec<(Vec<f64>, Vec<f64>)> = (0..space.size())
        .map(|i| {
            let f = space.encode(&space.point(i));
            let t = vec![0.5 + 0.3 * f[0], 2.0 - f[1]];
            (f, t)
        })
        .collect();
    let config = TrainConfig {
        max_epochs: 30,
        ..TrainConfig::default()
    };

    let registry = Registry::open(&root).unwrap();
    let fitted = registry
        .get_or_fit_multi(&key, fingerprint, || {
            fn pairs(r: &[(Vec<f64>, Vec<f64>)]) -> Vec<(&[f64], &[f64])> {
                r.iter()
                    .map(|(f, t)| (f.as_slice(), t.as_slice()))
                    .collect()
            }
            let (train, es) = rows.split_at(rows.len() - 4);
            let mut rng = Xoshiro256::seed_from(7);
            let model = train_multi_network(&pairs(train), &pairs(es), 0, &config, &mut rng);
            Ok((model, Value::Null))
        })
        .unwrap();
    assert!(!fitted.warm);

    let warm = Registry::open(&root)
        .unwrap()
        .get_multi(&key, fingerprint)
        .unwrap()
        .expect("warm hit");
    for i in 0..space.size() {
        let x = space.encode(&space.point(i));
        let (a, b) = (fitted.model.predict_all(&x), warm.model.predict_all(&x));
        assert_eq!(a.len(), b.len());
        for (head, (p, q)) in a.iter().zip(&b).enumerate() {
            assert_eq!(
                p.to_bits(),
                q.to_bits(),
                "head {head} diverged at point {i}"
            );
        }
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn concurrent_get_or_fit_runs_exactly_one_fit() {
    let root = temp_root("concurrent");
    let space = tiny_space();
    let fingerprint = space.fingerprint();
    let key = ModelKey::new("test", "plain", "race", 3, 24);
    let registry = Arc::new(Registry::open(&root).unwrap());
    let fit_calls = Arc::new(AtomicUsize::new(0));

    let outcomes: Vec<_> = std::thread::scope(|scope| {
        (0..8)
            .map(|_| {
                let registry = Arc::clone(&registry);
                let fit_calls = Arc::clone(&fit_calls);
                let space = &space;
                let key = &key;
                scope.spawn(move || {
                    registry
                        .get_or_fit(key, fingerprint, || {
                            fit_calls.fetch_add(1, Ordering::SeqCst);
                            Ok((tiny_ensemble(space, 9), Value::Null))
                        })
                        .unwrap()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });

    assert_eq!(fit_calls.load(Ordering::SeqCst), 1, "exactly one fit");
    assert_eq!(registry.fits_performed(), 1);
    assert_eq!(outcomes.iter().filter(|o| !o.warm).count(), 1);
    let probe = space.encode(&space.point(0));
    let bits = outcomes[0].model.predict(&probe).to_bits();
    for o in &outcomes {
        assert_eq!(o.model.predict(&probe).to_bits(), bits);
    }
    std::fs::remove_dir_all(&root).ok();
}

/// Regression test for the cross-key commit race: the index used to be
/// one manifest file merged read-modify-write, so two concurrent fits of
/// *different* keys could interleave and the last writer silently
/// dropped the other's entry. With one atomically-written entry file per
/// key, every concurrent commit must survive.
#[test]
fn concurrent_commits_of_distinct_keys_all_survive() {
    let root = temp_root("crosskey");
    let space = tiny_space();
    let fingerprint = space.fingerprint();
    let registry = Arc::new(Registry::open(&root).unwrap());
    let keys: Vec<ModelKey> = (0..8)
        .map(|i| ModelKey::new("test", "plain", format!("app{i}"), i as u64, 24))
        .collect();

    std::thread::scope(|scope| {
        for key in &keys {
            let registry = Arc::clone(&registry);
            let space = &space;
            scope.spawn(move || {
                registry
                    .get_or_fit(key, fingerprint, || {
                        Ok((tiny_ensemble(space, key.seed), Value::Null))
                    })
                    .unwrap();
            });
        }
    });

    // Every key's entry survived every other key's concurrent commit.
    let reopened = Registry::open(&root).unwrap();
    for key in &keys {
        assert!(
            reopened.get(key, fingerprint).unwrap().is_some(),
            "entry for {key} was clobbered by a concurrent commit"
        );
    }
    std::fs::remove_dir_all(&root).ok();
}

// The kill-9-between-the-two-commit-writes test lives in
// tests/failpoints.rs now: the failpoint layer drives the crash through
// the real `get_or_fit` path instead of a bespoke test hook.

#[test]
fn stale_fingerprint_fails_loudly_instead_of_mispredicting() {
    let root = temp_root("stale");
    let space = tiny_space();
    let fingerprint = space.fingerprint();
    let key = ModelKey::new("test", "plain", "stale", 2, 24);

    let registry = Registry::open(&root).unwrap();
    registry
        .get_or_fit(&key, fingerprint, || {
            Ok((tiny_ensemble(&space, 2), Value::Null))
        })
        .unwrap();

    // The space or encoding changed: the lookup must error, not serve the
    // old model.
    match registry.get(&key, fingerprint ^ 1) {
        Err(RegistryError::Incompatible(msg)) => {
            assert!(msg.contains("refit"), "actionable message: {msg}")
        }
        other => panic!("expected Incompatible, got {other:?}"),
    }
    std::fs::remove_dir_all(&root).ok();
}
