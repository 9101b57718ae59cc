//! Arms the `oracle.evaluate` failpoint for one test at a time; shared
//! by the integration suites that fault the oracle stack. The plan is
//! process-global, so [`arm`] holds a lock for the whole test binary.

use archpredict::failpoint::{self, FailAction, SiteSpec};
use archpredict::simulate::FP_ORACLE_EVALUATE;
use std::sync::{Mutex, MutexGuard};

static TEST_LOCK: Mutex<()> = Mutex::new(());

/// An armed plan; dropping it disarms every site (panic included), then
/// releases the lock.
pub struct Armed(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for Armed {
    fn drop(&mut self) {
        failpoint::clear();
    }
}

/// Takes the lock and arms `oracle.evaluate` with `action` at
/// `probability` under plan seed `seed`.
pub fn arm(seed: u64, action: FailAction, probability: f64) -> Armed {
    let guard = TEST_LOCK
        .lock()
        .unwrap_or_else(|poison| poison.into_inner());
    let spec = SiteSpec {
        action,
        probability,
        max_fires: None,
    };
    failpoint::install(seed, &[(FP_ORACLE_EVALUATE, spec)]);
    Armed(guard)
}
