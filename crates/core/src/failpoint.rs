//! Deterministic, seeded fault injection: the one schedule engine for
//! every injected fault, in the serving stack and in the simulation
//! oracle alike.
//!
//! A chaos run is only debuggable if it is replayable: "the daemon died
//! after 4 000 requests" is useless unless the same seed reproduces the
//! same death at the same request. This module provides named **fault
//! sites** compiled into production code paths (`persist::write_atomic`,
//! the registry commit path, the serve request handler, each
//! `RetryingOracle` attempt). Whether a given site fires is a pure
//! function of `(seed, site name, key)` — no wall clock, no OS
//! randomness — so every chaos schedule is bit-for-bit reproducible.
//! [`check`] keys a site by its hit count; [`check_keyed`] takes the key
//! from the caller, so a site checked from many threads, such as
//! [`crate::simulate::FP_ORACLE_EVALUATE`] keyed by (retry seed, index,
//! attempt), fires the same way whatever order its checks run in.
//!
//! The layer supersedes the one-off `CrashPoint` enum the registry used
//! to carry: instead of a bespoke hook per failure mode, any site can be
//! armed with any [`FailAction`] at any probability, programmatically
//! ([`install`]) or via the `ARCHPREDICT_FAILPOINTS` environment
//! variable ([`install_from_env`]) so spawned daemons join the same
//! schedule.
//!
//! Cost when disarmed: one relaxed atomic load per site check. No site
//! ever fires unless a plan was explicitly installed, so production
//! binaries pay nothing and tests that do not opt in are unaffected.
//!
//! # Environment format
//!
//! ```text
//! ARCHPREDICT_FAILPOINTS="seed=0x5EED;registry.commit.entry=error@0.2;serve.handler=panic@1@1"
//! ```
//!
//! Clauses are `;`-separated. `seed=<u64, 0x-hex ok>` sets the schedule
//! seed (default 0). Every other clause is
//! `<site>=<action>@<probability>[@<max_fires>]` where `<action>` is one
//! of `error`, `torn`, `panic`, `delay:<ms>`. A site takes one action: a
//! plan that names a site twice is rejected.

use archpredict_stats::hash::fnv1a_64;
use archpredict_stats::rng::Xoshiro256;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

/// Environment variable read by [`install_from_env`]; set it on a
/// spawned daemon to enroll the child in a chaos schedule.
pub const ENV_FAILPOINTS: &str = "ARCHPREDICT_FAILPOINTS";

/// What an armed site does when it fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailAction {
    /// The instrumented call returns an injected `io::Error`.
    Error,
    /// `persist::write_atomic` leaves a half-written temp file behind and
    /// errors — the on-disk shape of a writer killed mid-write. At sites
    /// without a partial-write notion this degrades to [`FailAction::Error`].
    Torn,
    /// The calling thread sleeps, then the call proceeds normally.
    /// Exercises timeout and drain paths without failing anything.
    Delay(Duration),
    /// The calling thread panics (`catch_unwind` isolation coverage).
    Panic,
}

/// One armed site: what to do, how often, and for how many fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteSpec {
    pub action: FailAction,
    /// Per-hit fire probability in `[0, 1]`; `1.0` fires every hit.
    pub probability: f64,
    /// Stop firing after this many fires (`None` = unbounded).
    pub max_fires: Option<u64>,
}

impl SiteSpec {
    /// A spec that fires `action` on the first hit and never again —
    /// the common "die exactly once, right here" configuration.
    pub fn once(action: FailAction) -> Self {
        SiteSpec {
            action,
            probability: 1.0,
            max_fires: Some(1),
        }
    }
}

/// What [`check`] hands back to the instrumented call site when a
/// returnable action fires. (`Delay`/`Panic` are executed inside
/// [`check`] itself and never surface here.)
#[derive(Debug)]
pub enum Failure {
    /// Fail the call with this error.
    Error(std::io::Error),
    /// Simulate a torn write: leave partial bytes, then fail the call.
    Torn,
}

impl Failure {
    /// Collapses the failure into its injected `io::Error`. Sites with
    /// no notion of a partial write use this so `Torn` degrades to a
    /// plain error instead of silently doing nothing.
    pub fn into_io_error(self, site: &str) -> std::io::Error {
        match self {
            Failure::Error(e) => e,
            Failure::Torn => std::io::Error::other(format!("failpoint `{site}` fired (torn)")),
        }
    }
}

struct Site {
    name: String,
    spec: SiteSpec,
    /// Times the site was evaluated, keyed or not (the count an unkeyed
    /// check keys its schedule on).
    hits: AtomicU64,
    /// Times the site actually fired.
    fires: AtomicU64,
}

struct Plan {
    seed: u64,
    sites: Vec<Site>,
}

static ARMED: AtomicBool = AtomicBool::new(false);
static PLAN: RwLock<Option<Arc<Plan>>> = RwLock::new(None);

/// Arms the given sites under `seed`, replacing any previous plan and
/// resetting all counters.
pub fn install(seed: u64, sites: &[(&str, SiteSpec)]) {
    let plan = Plan {
        seed,
        sites: sites
            .iter()
            .map(|(name, spec)| Site {
                name: (*name).to_string(),
                spec: *spec,
                hits: AtomicU64::new(0),
                fires: AtomicU64::new(0),
            })
            .collect(),
    };
    *PLAN.write().expect("failpoint plan lock") = Some(Arc::new(plan));
    ARMED.store(true, Ordering::SeqCst);
}

/// Disarms every site. Safe to call when nothing is installed.
pub fn clear() {
    ARMED.store(false, Ordering::SeqCst);
    *PLAN.write().expect("failpoint plan lock") = None;
}

/// Parses `ARCHPREDICT_FAILPOINTS` and arms the described plan.
///
/// Returns `Ok(true)` if a plan was installed, `Ok(false)` if the
/// variable is unset or empty, and `Err` (with nothing installed) if it
/// is malformed — callers should treat that as a fatal configuration
/// error rather than silently running an unfaulted "chaos" schedule.
pub fn install_from_env() -> Result<bool, String> {
    let raw = match std::env::var(ENV_FAILPOINTS) {
        Ok(v) if !v.trim().is_empty() => v,
        _ => return Ok(false),
    };
    let (seed, sites) = parse_plan(&raw)?;
    let borrowed: Vec<(&str, SiteSpec)> = sites.iter().map(|(n, s)| (n.as_str(), *s)).collect();
    install(seed, &borrowed);
    Ok(true)
}

/// Parses the `ARCHPREDICT_FAILPOINTS` clause syntax (see module docs).
pub fn parse_plan(text: &str) -> Result<(u64, Vec<(String, SiteSpec)>), String> {
    let mut seed = 0u64;
    let mut sites = Vec::new();
    for clause in text.split(';') {
        let clause = clause.trim();
        if clause.is_empty() {
            continue;
        }
        let (lhs, rhs) = clause
            .split_once('=')
            .ok_or_else(|| format!("failpoint clause `{clause}` is missing `=`"))?;
        let (lhs, rhs) = (lhs.trim(), rhs.trim());
        if lhs == "seed" {
            seed = parse_u64(rhs).ok_or_else(|| format!("bad failpoint seed `{rhs}`"))?;
            continue;
        }
        let mut parts = rhs.split('@');
        let action = parse_action(parts.next().unwrap_or_default())
            .ok_or_else(|| format!("bad failpoint action in `{clause}`"))?;
        let probability = match parts.next() {
            None => 1.0,
            Some(p) => p
                .parse::<f64>()
                .ok()
                .filter(|p| (0.0..=1.0).contains(p))
                .ok_or_else(|| format!("bad failpoint probability in `{clause}`"))?,
        };
        let max_fires = match parts.next() {
            None => None,
            Some(m) => Some(
                m.parse::<u64>()
                    .map_err(|_| format!("bad failpoint max_fires in `{clause}`"))?,
            ),
        };
        if parts.next().is_some() {
            return Err(format!(
                "too many `@` fields in failpoint clause `{clause}`"
            ));
        }
        // A check finds a site's first clause only, so a second one
        // would be silently dead.
        if sites.iter().any(|(name, _)| name == lhs) {
            return Err(format!("failpoint site `{lhs}` is armed twice"));
        }
        sites.push((
            lhs.to_string(),
            SiteSpec {
                action,
                probability,
                max_fires,
            },
        ));
    }
    Ok((seed, sites))
}

fn parse_u64(text: &str) -> Option<u64> {
    if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        text.parse().ok()
    }
}

fn parse_action(text: &str) -> Option<FailAction> {
    match text {
        "error" => Some(FailAction::Error),
        "torn" => Some(FailAction::Torn),
        "panic" => Some(FailAction::Panic),
        _ => text
            .strip_prefix("delay:")?
            .parse()
            .ok()
            .map(|ms| FailAction::Delay(Duration::from_millis(ms))),
    }
}

/// Renders a plan back into `ARCHPREDICT_FAILPOINTS` clause syntax —
/// what a chaos harness sets on the daemons it spawns.
pub fn render_plan(seed: u64, sites: &[(&str, SiteSpec)]) -> String {
    let mut out = format!("seed={seed:#x}");
    for (name, spec) in sites {
        let action = match spec.action {
            FailAction::Error => "error".to_string(),
            FailAction::Torn => "torn".to_string(),
            FailAction::Panic => "panic".to_string(),
            FailAction::Delay(d) => format!("delay:{}", d.as_millis()),
        };
        out.push_str(&format!(";{name}={action}@{}", spec.probability));
        if let Some(max) = spec.max_fires {
            out.push_str(&format!("@{max}"));
        }
    }
    out
}

/// The one decision behind [`check`] and [`check_keyed`]. Disarmed or
/// unconfigured sites return `None` at the cost of one relaxed atomic
/// load. An armed site counts the hit, then fires iff
/// `rng(seed, site, key) < probability` and a fire slot is left under
/// its `max_fires`; `key` maps the hit's number to the schedule key.
/// Returns the armed action and the hit's number.
fn decide(site: &str, key: impl FnOnce(u64) -> u64) -> Option<(FailAction, u64)> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    let plan = PLAN.read().expect("failpoint plan lock").clone()?;
    let entry = plan.sites.iter().find(|s| s.name == site)?;
    let hit = entry.hits.fetch_add(1, Ordering::Relaxed) + 1;
    let mut rng = Xoshiro256::seed_from(plan.seed)
        .derive(fnv1a_64(site.as_bytes()))
        .derive(key(hit));
    if rng.next_f64() >= entry.spec.probability {
        return None;
    }
    // Claim a fire slot; lose the race against max_fires and the site is
    // spent for this hit.
    let claimed = entry
        .fires
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |fired| {
            match entry.spec.max_fires {
                Some(max) if fired >= max => None,
                _ => Some(fired + 1),
            }
        });
    claimed.ok().map(|_| (entry.spec.action, hit))
}

/// Evaluates the named site, keyed by its hit count: hit `n` of a site
/// fires iff `rng(seed, site, n) < probability`, identically on every
/// run.
///
/// `Delay` sleeps then returns `None`; `Panic` never returns.
/// `Error`/`Torn` hand a [`Failure`] back for the call site to realize.
pub fn check(site: &str) -> Option<Failure> {
    let (action, hit) = decide(site, |hit| hit)?;
    match action {
        FailAction::Error => Some(Failure::Error(std::io::Error::other(format!(
            "failpoint `{site}` fired (hit {hit})"
        )))),
        FailAction::Torn => Some(Failure::Torn),
        FailAction::Delay(d) => {
            std::thread::sleep(d);
            None
        }
        FailAction::Panic => panic!("failpoint `{site}` fired (hit {hit})"),
    }
}

/// Evaluates the named site keyed by `key` instead of its hit count: it
/// fires iff `rng(seed, site, key) < probability`, so a key's decision
/// does not depend on call order, on the thread that asks, or on other
/// checks of the site. (A `max_fires` cap hands its slots out in call
/// order, so only an uncapped site keeps that independence.) The call
/// counts as a hit. The armed [`FailAction`] is returned, not executed:
/// the call site maps it onto its own kind of failure.
pub fn check_keyed(site: &str, key: u64) -> Option<FailAction> {
    decide(site, |_| key).map(|(action, _)| action)
}

/// Times the named site fired under the current plan (0 if unarmed).
pub fn fired(site: &str) -> u64 {
    counter(site, |s| s.fires.load(Ordering::Relaxed))
}

/// Times the named site was evaluated under the current plan.
pub fn hits(site: &str) -> u64 {
    counter(site, |s| s.hits.load(Ordering::Relaxed))
}

fn counter(site: &str, read: impl Fn(&Site) -> u64) -> u64 {
    PLAN.read()
        .expect("failpoint plan lock")
        .as_ref()
        .and_then(|plan| plan.sites.iter().find(|s| s.name == site).map(read))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Failpoint state is process-global; these tests serialize on this
    /// lock and clear the plan on drop so parallel test threads never
    /// see each other's schedules.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    struct Armed<'a>(#[allow(dead_code)] std::sync::MutexGuard<'a, ()>);
    impl Drop for Armed<'_> {
        fn drop(&mut self) {
            clear();
        }
    }

    fn arm(seed: u64, sites: &[(&str, SiteSpec)]) -> Armed<'static> {
        let guard = TEST_LOCK
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        install(seed, sites);
        Armed(guard)
    }

    #[test]
    fn disarmed_sites_never_fire() {
        let _armed = arm(1, &[]);
        clear();
        for _ in 0..100 {
            assert!(check("persist.write_atomic").is_none());
        }
    }

    #[test]
    fn unconfigured_sites_are_inert_even_when_armed() {
        let _armed = arm(1, &[("some.other.site", SiteSpec::once(FailAction::Error))]);
        for _ in 0..100 {
            assert!(check("persist.write_atomic").is_none());
        }
        assert_eq!(fired("some.other.site"), 0);
    }

    #[test]
    fn once_spec_fires_exactly_once() {
        let _armed = arm(7, &[("site.a", SiteSpec::once(FailAction::Error))]);
        let outcomes: Vec<bool> = (0..50).map(|_| check("site.a").is_some()).collect();
        assert_eq!(outcomes.iter().filter(|f| **f).count(), 1);
        assert!(outcomes[0], "probability 1.0 fires on the first hit");
        assert_eq!(fired("site.a"), 1);
        assert_eq!(hits("site.a"), 50);
    }

    #[test]
    fn schedule_is_a_pure_function_of_seed_site_and_hit() {
        let spec = SiteSpec {
            action: FailAction::Error,
            probability: 0.3,
            max_fires: None,
        };
        let run = |seed: u64| -> Vec<bool> {
            let _armed = arm(seed, &[("site.det", spec)]);
            (0..200).map(|_| check("site.det").is_some()).collect()
        };
        let first = run(0x5EED);
        let second = run(0x5EED);
        assert_eq!(first, second, "same seed, same schedule");
        let fires = first.iter().filter(|f| **f).count();
        assert!((20..=120).contains(&fires), "p=0.3 over 200 hits: {fires}");
        let other = run(0x0DD);
        assert_ne!(first, other, "different seed, different schedule");
    }

    /// Pins the fire pattern of 256 hits at p = 0.3 under two seeds, as
    /// an FNV-1a digest of one byte per hit, so a rewrite of the decision
    /// path cannot move any existing schedule (`tests/chaos.rs`,
    /// `tests/failpoints.rs`) unnoticed.
    #[test]
    fn unkeyed_schedule_is_pinned() {
        let spec = SiteSpec {
            action: FailAction::Error,
            probability: 0.3,
            max_fires: None,
        };
        for (seed, digest, fires) in [
            (0x5EED, 0x50e5_2224_458a_d8ae, 71),
            (0xC0FFEE, 0x2763_7484_8a0f_4fdc, 63),
        ] {
            let _armed = arm(seed, &[("site.pin", spec)]);
            let pattern: Vec<u8> = (0..256)
                .map(|_| u8::from(check("site.pin").is_some()))
                .collect();
            assert_eq!(
                (fnv1a_64(&pattern), fired("site.pin")),
                (digest, fires),
                "seed {seed:#x}"
            );
        }
    }

    /// A keyed decision is the same whatever the order of the keys, the
    /// unkeyed hits interleaved with them, or reinstalls, and unkeyed hit
    /// `n` is the keyed decision for `n` (whose bits the unkeyed pin
    /// above holds).
    #[test]
    fn keyed_decisions_ignore_call_order_and_unkeyed_hits() {
        let spec = SiteSpec {
            action: FailAction::Torn,
            probability: 0.3,
            max_fires: None,
        };
        let keys: Vec<u64> = (1..=256).map(|n| n * 0x9E37_79B9).collect();
        let decide_all = |order: &mut dyn Iterator<Item = u64>, interleave: bool| {
            let _armed = arm(0x5EED, &[("site.keyed", spec)]);
            let mut fired: Vec<u64> = order
                .filter(|&key| {
                    if interleave {
                        let _ = check("site.keyed");
                    }
                    check_keyed("site.keyed", key) == Some(FailAction::Torn)
                })
                .collect();
            fired.sort_unstable();
            fired
        };
        let forward = decide_all(&mut keys.iter().copied(), false);
        assert_eq!(forward, decide_all(&mut keys.iter().rev().copied(), true));
        assert_eq!(forward, decide_all(&mut keys.iter().copied(), false));
        assert!((40..=120).contains(&forward.len()), "{}", forward.len());

        let _armed = arm(0x5EED, &[("site.keyed", spec)]);
        let unkeyed: Vec<bool> = (0..64).map(|_| check("site.keyed").is_some()).collect();
        install(0x5EED, &[("site.keyed", spec)]);
        let keyed: Vec<bool> = (1..=64)
            .map(|n| check_keyed("site.keyed", n).is_some())
            .collect();
        assert_eq!(unkeyed, keyed);
        assert_eq!(hits("site.keyed"), 64, "a keyed check counts as a hit");
    }

    #[test]
    fn delay_action_sleeps_then_proceeds() {
        let _armed = arm(
            3,
            &[(
                "site.slow",
                SiteSpec::once(FailAction::Delay(Duration::from_millis(30))),
            )],
        );
        let start = std::time::Instant::now();
        assert!(check("site.slow").is_none(), "delay does not fail the call");
        assert!(start.elapsed() >= Duration::from_millis(25));
        assert_eq!(fired("site.slow"), 1);
    }

    #[test]
    fn env_syntax_round_trips() {
        let sites: Vec<(&str, SiteSpec)> = vec![
            (
                "registry.commit.entry",
                SiteSpec {
                    action: FailAction::Error,
                    probability: 0.25,
                    max_fires: Some(3),
                },
            ),
            ("persist.write_atomic", SiteSpec::once(FailAction::Torn)),
            (
                "serve.handler",
                SiteSpec {
                    action: FailAction::Delay(Duration::from_millis(15)),
                    probability: 0.5,
                    max_fires: None,
                },
            ),
            (
                "site.panic",
                SiteSpec {
                    action: FailAction::Panic,
                    probability: 1.0,
                    max_fires: Some(2),
                },
            ),
        ];
        let text = render_plan(0xC0FFEE, &sites);
        let (seed, parsed) = parse_plan(&text).expect("rendered plan parses");
        assert_eq!(seed, 0xC0FFEE);
        assert_eq!(parsed.len(), sites.len());
        for ((name, spec), (pname, pspec)) in sites.iter().zip(&parsed) {
            assert_eq!(name, pname);
            assert_eq!(spec, pspec);
        }
    }

    #[test]
    fn malformed_plans_are_rejected() {
        for bad in [
            "no-equals-sign",
            "seed=zzz",
            "site=frobnicate@1",
            "site=error@1.5",
            "site=error@-0.1",
            "site=error@0.5@x",
            "site=error@0.5@1@extra",
            "site=delay:abc@1",
            "site=abort@1",
            "site=exit:9@1",
            "a=error@1;a=panic@1",
            " a.b=error@0.5 ; seed=3; a.b = torn ",
            "oracle.evaluate=error@0.3;oracle.evaluate=error@0.3",
        ] {
            assert!(parse_plan(bad).is_err(), "`{bad}` should be rejected");
        }
        let twice = parse_plan("a=error@1;a=panic@1").expect_err("site armed twice");
        assert!(twice.contains("`a`"), "error names the site: {twice}");
        // Empty clauses and whitespace are tolerated.
        let (seed, sites) = parse_plan(" seed=7 ; ; a.b=error@0.5 ").expect("valid");
        assert_eq!(seed, 7);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].0, "a.b");
    }
}
