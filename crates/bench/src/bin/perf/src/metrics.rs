//! The benchmark's schema: its workloads, the metrics each pass emits, and
//! the [`Report`] that refuses to emit anything else.
//!
//! `BENCHMARK.json` at the repository root declares the same workloads and
//! metrics (with the regression bounds); a unit test keeps the two in
//! step. Every metric is emitted by every workload: a per-layer metric
//! whose layer is not on a workload's path reads 0 there, and the tables
//! below say which workloads each one is measured on.

use crate::stats::Dist;
use std::collections::BTreeMap;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// gzip × memory campaigns, simulating every point.
    CampaignCold,
    /// The same campaigns answered from a simcache CSV.
    CampaignCached,
    /// Cold `/fit`s, then `/predict` with 16 indices per body.
    ServeSmall,
    /// `/predict` with 1024 indices per body on a warm model.
    ServeSweep,
}

use Workload::{CampaignCached, CampaignCold, ServeSmall, ServeSweep};

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [CampaignCold, CampaignCached, ServeSmall, ServeSweep];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            CampaignCold => "campaign_cold",
            CampaignCached => "campaign_cached",
            ServeSmall => "serve_small",
            ServeSweep => "serve_sweep",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A declared metric.
#[derive(Debug)]
pub struct Metric {
    /// Name, as emitted.
    pub name: &'static str,
    /// Unit, as emitted.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Workloads whose path includes the measured layer.
    pub on: &'static [Workload],
}

const ALL: &[Workload] = &Workload::ALL;
const CAMPAIGNS: &[Workload] = &[CampaignCold, CampaignCached];
const CACHED: &[Workload] = &[CampaignCached];
/// Workloads that run campaigns: in process, or inside the daemon's `/fit`.
const FITTING: &[Workload] = &[CampaignCold, CampaignCached, ServeSmall];
const SERVES: &[Workload] = &[ServeSmall, ServeSweep];

const fn metric(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: &'static [Workload],
) -> Metric {
    Metric {
        name,
        unit,
        better,
        on,
    }
}

use Better::{Higher, Lower};

/// Untraced-pass metrics: what a user of the system sees.
pub const END_TO_END: &[Metric] = &[
    metric("setup_s", "s", Lower, ALL),
    metric("latency_p50_ms", "ms", Lower, ALL),
    metric("preds_per_s", "1/s", Higher, ALL),
    metric("peak_rss_mb", "MiB", Lower, ALL),
];

/// Traced-pass metrics: one layer each.
pub const PER_LAYER: &[Metric] = &[
    metric("campaign.rounds", "count", Lower, FITTING),
    metric("campaign.select_s", "s", Lower, FITTING),
    metric("campaign.collect_s", "s", Lower, FITTING),
    metric("campaign.fit_s", "s", Lower, FITTING),
    metric("campaign.unattributed_s", "s", Lower, FITTING),
    metric("campaign.attributed_pct", "%", Higher, FITTING),
    metric("simulate.unique_sims", "count", Lower, FITTING),
    metric("simulate.cache_hits", "count", Higher, FITTING),
    metric("simulate.minst", "Minst", Lower, FITTING),
    metric("simulate.minst_per_s", "Minst/s", Higher, FITTING),
    metric("simulate.eval_ms", "ms", Lower, CAMPAIGNS),
    metric("workloads.synth_ms_per_eval", "ms", Lower, CAMPAIGNS),
    metric("workloads.trace_bytes_per_interval", "B", Lower, CAMPAIGNS),
    metric("sim.engine_ms_per_eval", "ms", Lower, CAMPAIGNS),
    metric("sim.memhier_ms_per_eval", "ms", Lower, CAMPAIGNS),
    metric("sim.ipc_mean", "inst/cycle", Higher, CAMPAIGNS),
    metric("sim.l1d_mpki", "miss/kinst", Lower, CAMPAIGNS),
    metric("sim.l2_mpki", "miss/kinst", Lower, CAMPAIGNS),
    metric("sim.mispredict_rate", "ratio", Lower, CAMPAIGNS),
    metric("ann.fits", "count", Lower, CAMPAIGNS),
    metric("ann.epochs_mean", "epochs", Lower, CAMPAIGNS),
    metric("ann.fold_s_sum", "s", Lower, CAMPAIGNS),
    metric("persist.simcache_load_s", "s", Lower, CACHED),
    metric("c1.http.connect_ms", "ms", Lower, SERVES),
    metric("c1.http.ttfb_ms", "ms", Lower, SERVES),
    metric("c1.http.body_ms", "ms", Lower, SERVES),
    metric("c1.json.decode_ms", "ms", Lower, SERVES),
    metric("c2.http.connect_ms", "ms", Lower, SERVES),
    metric("c2.http.ttfb_ms", "ms", Lower, SERVES),
    metric("c2.http.body_ms", "ms", Lower, SERVES),
    metric("c2.json.decode_ms", "ms", Lower, SERVES),
    metric("serve.request_ms", "ms", Lower, SERVES),
    metric("serve.sweep_ms", "ms", Lower, SERVES),
    metric("infer.sweep_ms", "ms", Lower, SERVES),
    metric("serve.request_self_ms", "ms", Lower, SERVES),
    metric("serve.outside_request_ms", "ms", Lower, SERVES),
    metric("serve.unattributed_pct", "%", Lower, SERVES),
    metric("serve.batch_jobs_mean", "jobs", Higher, SERVES),
    metric("infer.points", "count", Lower, SERVES),
    metric("serve.requests_shed", "count", Lower, SERVES),
    metric("serve.errors", "count", Lower, SERVES),
    metric("registry.get_or_fit_s", "s", Lower, SERVES),
    metric("registry.fit_s", "s", Lower, SERVES),
    metric("registry.io_s", "s", Lower, SERVES),
    metric("trace.overhead_pct", "%", Lower, ALL),
];

/// The metrics a pass emits.
pub fn declared(traced: bool) -> &'static [Metric] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Extra figures a pass reports beside its declared metrics: timing
/// distributions with quartiles and sample counts, and single values
/// (p99s, per-phase rates) that are printed but never emitted as metrics.
#[derive(Debug, Clone, PartialEq)]
pub enum Detail {
    /// A distribution of samples.
    Dist(Dist),
    /// One value.
    Value(f64),
}

/// What one (workload, pass) measured and checked.
#[derive(Debug)]
pub struct Report {
    /// The workload run.
    pub workload: Workload,
    /// Whether this is the traced (per-layer) pass.
    pub traced: bool,
    values: BTreeMap<&'static str, f64>,
    /// Supporting figures, by name, with their units.
    pub details: Vec<(String, Detail, &'static str)>,
    /// Correctness checks, by description.
    pub checks: Vec<(String, bool)>,
    /// Operations attempted (simulations or HTTP requests).
    pub attempted: u64,
    /// Operations that failed (a failed simulation, a non-200 reply, or a
    /// transport error).
    pub failed: u64,
}

impl Report {
    /// An empty report for `workload`'s untraced or traced pass.
    pub fn new(workload: Workload, traced: bool) -> Self {
        Self {
            workload,
            traced,
            values: BTreeMap::new(),
            details: Vec::new(),
            checks: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Records a declared metric.
    ///
    /// # Panics
    ///
    /// When `name` is not declared for this pass or not measured on this
    /// workload: the emitter and the schema disagree, which is a bug here.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let metric = declared(self.traced)
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not a declared metric of this pass"));
        assert!(
            metric.on.contains(&self.workload),
            "{name} is not measured on {}",
            self.workload.name()
        );
        self.values.insert(metric.name, value);
    }

    /// Records a distribution (informational) and returns it.
    pub fn dist(&mut self, name: &str, unit: &'static str, samples: &[f64]) -> Dist {
        let dist = Dist::of(samples);
        self.details
            .push((name.to_owned(), Detail::Dist(dist), unit));
        dist
    }

    /// Records a single informational value.
    pub fn note(&mut self, name: &str, unit: &'static str, value: f64) {
        self.details
            .push((name.to_owned(), Detail::Value(value), unit));
    }

    /// Records a correctness check.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Every declared metric of the pass, in declaration order: those
    /// measured on this workload as recorded, the rest as 0.
    ///
    /// # Errors
    ///
    /// When a metric measured on this workload was never recorded, is not
    /// finite, or is an end-to-end metric that is not positive.
    pub fn metrics(&self) -> Result<Vec<(&'static Metric, f64)>, String> {
        declared(self.traced)
            .iter()
            .map(|m| {
                if !m.on.contains(&self.workload) {
                    return Ok((m, 0.0));
                }
                let value = *self
                    .values
                    .get(m.name)
                    .ok_or_else(|| format!("{} did not record {}", self.workload.name(), m.name))?;
                if !value.is_finite() || (!self.traced && value <= 0.0) {
                    return Err(format!(
                        "{} measured {} = {value}",
                        self.workload.name(),
                        m.name
                    ));
                }
                Ok((m, value))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archpredict_stats::json::Value;

    fn manifest() -> Value {
        let text = include_str!("../../../../../../BENCHMARK.json");
        Value::parse(text).expect("BENCHMARK.json is JSON")
    }

    fn names<'a>(value: &'a Value, key: &str) -> Vec<&'a str> {
        value
            .get(key)
            .and_then(Value::as_array)
            .expect("array")
            .iter()
            .map(|m| m.get("name").and_then(Value::as_str).expect("name"))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_emitted_workloads() {
        let manifest = manifest();
        let declared: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names(&manifest, "workloads"), declared);
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_the_emitted_metrics() {
        let manifest = manifest();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let entries = manifest.get(key).and_then(Value::as_array).expect(key);
            assert_eq!(entries.len(), table.len(), "{key}: count");
            for (entry, metric) in entries.iter().zip(table) {
                let field = |f: &str| entry.get(f).and_then(Value::as_str).expect(f);
                assert_eq!(field("name"), metric.name, "{key}: order and names");
                assert_eq!(field("unit"), metric.unit, "{}: unit", metric.name);
                assert_eq!(field("better"), metric.better.name(), "{}", metric.name);
            }
        }
    }

    #[test]
    fn names_and_units_use_the_allowed_alphabet() {
        let mut seen = std::collections::HashSet::new();
        let workloads = Workload::ALL.map(Workload::name);
        let metrics = END_TO_END.iter().chain(PER_LAYER);
        for name in workloads
            .iter()
            .copied()
            .chain(metrics.clone().map(|m| m.name))
        {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        for m in metrics {
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
        }
    }

    #[test]
    fn report_emits_every_metric_and_zero_off_path() {
        let mut report = Report::new(ServeSweep, true);
        for m in PER_LAYER.iter().filter(|m| m.on.contains(&ServeSweep)) {
            report.set(m.name, 1.5);
        }
        let metrics = report.metrics().expect("complete");
        assert_eq!(metrics.len(), PER_LAYER.len());
        for (m, v) in metrics {
            assert_eq!(v, if m.on.contains(&ServeSweep) { 1.5 } else { 0.0 });
        }
    }

    #[test]
    fn report_refuses_missing_and_non_positive_end_to_end_metrics() {
        let mut report = Report::new(CampaignCold, false);
        report.set("setup_s", 0.1);
        assert!(report.metrics().unwrap_err().contains("latency_p50_ms"));
        report.set("latency_p50_ms", 1.0);
        report.set("preds_per_s", 1.0);
        report.set("peak_rss_mb", 0.0);
        assert!(report.metrics().unwrap_err().contains("peak_rss_mb"));
    }

    #[test]
    #[should_panic(expected = "not measured on campaign_cold")]
    fn report_rejects_a_metric_off_the_workload_path() {
        Report::new(CampaignCold, true).set("serve.request_ms", 1.0);
    }
}
