//! Deterministic, seeded fault injection for the serving stack.
//!
//! A chaos run is only debuggable if it is replayable: "the daemon died
//! after 4 000 requests" is useless unless the same seed reproduces the
//! same death at the same request. This module provides named **fault
//! sites** compiled into production code paths (`persist::write_atomic`,
//! the registry commit path, the serve request handler). Whether a given
//! site fires on a given hit is a pure function of `(seed, site name, hit
//! count)` — no wall clock, no OS randomness — so every chaos schedule is
//! bit-for-bit reproducible.
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
//! of `error`, `torn`, `panic`, `delay:<ms>`.

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
    /// Times the site was evaluated (the hit counter the schedule keys on).
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

/// Evaluates the named site. Disarmed or unconfigured sites return
/// `None` at the cost of one atomic load. Armed sites decide purely from
/// `(seed, site, hit count)`: hit `n` of a site fires iff
/// `rng(seed, site, n) < probability`, identically on every run.
///
/// `Delay` sleeps then returns `None`; `Panic` never returns.
/// `Error`/`Torn` hand a [`Failure`] back for the call site to realize.
pub fn check(site: &str) -> Option<Failure> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    let plan = PLAN.read().expect("failpoint plan lock").clone()?;
    let entry = plan.sites.iter().find(|s| s.name == site)?;
    let hit = entry.hits.fetch_add(1, Ordering::Relaxed) + 1;
    let mut rng = Xoshiro256::seed_from(plan.seed)
        .derive(fnv1a_64(site.as_bytes()))
        .derive(hit);
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
    if claimed.is_err() {
        return None;
    }
    match entry.spec.action {
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
        ] {
            assert!(parse_plan(bad).is_err(), "`{bad}` should be rejected");
        }
        // Empty clauses and whitespace are tolerated.
        let (seed, sites) = parse_plan(" seed=7 ; ; a.b=error@0.5 ").expect("valid");
        assert_eq!(seed, 7);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].0, "a.b");
    }
}
