//! Experiment reporting: learning curves and CSV emission.
//!
//! Every figure in the paper's evaluation is a series of
//! (fraction-of-space-sampled → error) points. [`LearningCurve`] collects
//! those rows — estimated and, when measured, true error — and renders
//! them as CSV (for plotting) or an aligned text table (for logs).
//!
//! Two CSV flavors exist: [`LearningCurve::to_csv`] carries everything
//! including wall-clock timings, and [`LearningCurve::to_csv_deterministic`]
//! drops the timing columns so two runs with identical seeds produce
//! byte-for-byte identical files — the currency of the fault-tolerance and
//! kill-and-replay equivalence gates. File writes go through the atomic
//! [`crate::persist::write_atomic`] path.

use crate::campaign::{Round, TrueError};
use archpredict_stats::json::{JsonError, Value};
use std::path::Path;

/// One row of a learning curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Training-set size in simulations.
    pub samples: usize,
    /// Percentage of the full space sampled.
    pub percent_sampled: f64,
    /// Cross-validation estimated mean percentage error.
    pub estimated_mean: f64,
    /// Cross-validation estimated standard deviation of percentage error.
    pub estimated_std_dev: f64,
    /// Measured mean percentage error on held-out points, when available.
    pub true_mean: Option<f64>,
    /// Measured standard deviation, when available.
    pub true_std_dev: Option<f64>,
    /// Wall-clock seconds spent training this row's ensemble, as seen by
    /// the caller (folds training in parallel overlap inside this figure).
    pub training_seconds: f64,
    /// Wall-clock seconds spent simulating this row's batch.
    pub simulation_seconds: f64,
    /// Wall-clock seconds spent scoring candidate points through the
    /// batched inference path (0 outside active learning).
    pub prediction_seconds: f64,
    /// Mean training epochs per fold before early stopping.
    pub mean_fold_epochs: f64,
    /// Configurations actually simulated for this row's batch (cached or
    /// duplicated points excluded) — the honest Figs. 5.6/5.7 count.
    pub unique_simulations: u64,
    /// Evaluations the oracle served from cache for this row's batch.
    pub simulation_cache_hits: u64,
    /// Instructions simulated for this row's batch.
    pub simulated_instructions: u64,
    /// Evaluation attempts that failed for this row's batch.
    pub sim_failures: u64,
    /// Retry attempts the oracle stack issued for this row's batch.
    pub sim_retries: u64,
    /// Points quarantined (gave up on) during this row's batch.
    pub sim_quarantined: u64,
    /// Replacement points drawn to backfill failures this round.
    pub sim_resampled: u64,
}

impl CurvePoint {
    /// The row that a re-run of this round reports when the simcache
    /// already holds every point the round evaluated: each evaluation is a
    /// cache hit, so nothing is simulated. Every other column is
    /// unchanged, because a campaign is a pure function of its seed and
    /// its oracle's answers.
    pub fn replayed(&self) -> CurvePoint {
        CurvePoint {
            unique_simulations: 0,
            simulation_cache_hits: self.unique_simulations + self.simulation_cache_hits,
            simulated_instructions: 0,
            ..*self
        }
    }
}

/// A labelled learning curve (one application × one study).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LearningCurve {
    /// Label, e.g. `"mesa (memory)"`.
    pub label: String,
    /// Rows in sampling order.
    pub points: Vec<CurvePoint>,
}

impl LearningCurve {
    /// Creates an empty curve with a label.
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a row from an explorer round and optional true error.
    pub fn push(&mut self, round: &Round, true_error: Option<TrueError>) {
        self.points.push(CurvePoint {
            samples: round.samples,
            percent_sampled: 100.0 * round.fraction_sampled,
            estimated_mean: round.estimate.mean,
            estimated_std_dev: round.estimate.std_dev,
            true_mean: true_error.map(|t| t.mean),
            true_std_dev: true_error.map(|t| t.std_dev),
            training_seconds: round.training_seconds,
            simulation_seconds: round.simulation_seconds,
            prediction_seconds: round.prediction_seconds,
            mean_fold_epochs: round.mean_epochs(),
            unique_simulations: round.simulation.unique_simulations,
            simulation_cache_hits: round.simulation.cache_hits,
            simulated_instructions: round.simulation.simulated_instructions,
            sim_failures: round.simulation.failures,
            sim_retries: round.simulation.retries,
            sim_quarantined: round.simulation.quarantined,
            sim_resampled: round.simulation.resampled,
        });
    }

    /// CSV rendering with a header row.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "label,samples,percent_sampled,estimated_mean,estimated_std_dev,true_mean,true_std_dev,training_seconds,simulation_seconds,prediction_seconds,mean_fold_epochs,unique_simulations,simulation_cache_hits,simulated_instructions,sim_failures,sim_retries,sim_quarantined,sim_resampled\n",
        );
        for p in &self.points {
            let fmt_opt = |v: Option<f64>| v.map_or(String::new(), |x| format!("{x:.4}"));
            out.push_str(&format!(
                "{},{},{:.4},{:.4},{:.4},{},{},{:.4},{:.4},{:.4},{:.1},{},{},{},{},{},{},{}\n",
                self.label,
                p.samples,
                p.percent_sampled,
                p.estimated_mean,
                p.estimated_std_dev,
                fmt_opt(p.true_mean),
                fmt_opt(p.true_std_dev),
                p.training_seconds,
                p.simulation_seconds,
                p.prediction_seconds,
                p.mean_fold_epochs,
                p.unique_simulations,
                p.simulation_cache_hits,
                p.simulated_instructions,
                p.sim_failures,
                p.sim_retries,
                p.sim_quarantined,
                p.sim_resampled,
            ));
        }
        out
    }

    /// CSV rendering with the wall-clock timing columns removed, so the
    /// output is a pure function of seeds and data. Two runs that should
    /// be equivalent (different thread counts; a replay of a killed run
    /// against the uninterrupted run with its replayed rows mapped through
    /// [`CurvePoint::replayed`]) can be compared byte-for-byte on this
    /// rendering.
    pub fn to_csv_deterministic(&self) -> String {
        let mut out = String::from(
            "label,samples,percent_sampled,estimated_mean,estimated_std_dev,true_mean,true_std_dev,mean_fold_epochs,unique_simulations,simulation_cache_hits,simulated_instructions,sim_failures,sim_retries,sim_quarantined,sim_resampled\n",
        );
        for p in &self.points {
            let fmt_opt = |v: Option<f64>| v.map_or(String::new(), |x| format!("{x:.4}"));
            out.push_str(&format!(
                "{},{},{:.4},{:.4},{:.4},{},{},{:.1},{},{},{},{},{},{},{}\n",
                self.label,
                p.samples,
                p.percent_sampled,
                p.estimated_mean,
                p.estimated_std_dev,
                fmt_opt(p.true_mean),
                fmt_opt(p.true_std_dev),
                p.mean_fold_epochs,
                p.unique_simulations,
                p.simulation_cache_hits,
                p.simulated_instructions,
                p.sim_failures,
                p.sim_retries,
                p.sim_quarantined,
                p.sim_resampled,
            ));
        }
        out
    }

    /// Atomically writes [`LearningCurve::to_csv`] to `path` (temp file,
    /// fsync, rename — a kill mid-write never leaves a torn artifact).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        crate::persist::write_atomic(path, &self.to_csv())
    }

    /// Atomically writes [`LearningCurve::to_csv_deterministic`] to `path`.
    pub fn write_csv_deterministic(&self, path: &Path) -> std::io::Result<()> {
        crate::persist::write_atomic(path, &self.to_csv_deterministic())
    }

    /// Aligned, human-readable table.
    pub fn to_table(&self) -> String {
        let mut out = format!(
            "{}\n{:>8} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
            self.label, "samples", "%space", "est.mean", "est.sd", "true.mean", "true.sd"
        );
        for p in &self.points {
            let fmt_opt = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.2}"));
            out.push_str(&format!(
                "{:>8} {:>8.2} {:>10.2} {:>10.2} {:>10} {:>10}\n",
                p.samples,
                p.percent_sampled,
                p.estimated_mean,
                p.estimated_std_dev,
                fmt_opt(p.true_mean),
                fmt_opt(p.true_std_dev),
            ));
        }
        out
    }

    /// First row whose estimated mean error is at or below `target`,
    /// if the curve ever gets there.
    pub fn first_reaching(&self, target: f64) -> Option<&CurvePoint> {
        self.points.iter().find(|p| p.estimated_mean <= target)
    }

    /// JSON value carrying every field bit-exactly (floats render via
    /// shortest-round-trip formatting) — the payload format the model
    /// registry persists so warm re-runs reconstruct whole curves without
    /// simulating.
    pub fn to_json_value(&self) -> Value {
        let opt = |v: Option<f64>| v.map_or(Value::Null, Value::num);
        Value::Object(vec![
            ("label".into(), Value::Str(self.label.clone())),
            (
                "points".into(),
                Value::Array(
                    self.points
                        .iter()
                        .map(|p| {
                            Value::Object(vec![
                                ("samples".into(), Value::num(p.samples as f64)),
                                ("percent_sampled".into(), Value::num(p.percent_sampled)),
                                ("estimated_mean".into(), Value::num(p.estimated_mean)),
                                ("estimated_std_dev".into(), Value::num(p.estimated_std_dev)),
                                ("true_mean".into(), opt(p.true_mean)),
                                ("true_std_dev".into(), opt(p.true_std_dev)),
                                ("training_seconds".into(), Value::num(p.training_seconds)),
                                (
                                    "simulation_seconds".into(),
                                    Value::num(p.simulation_seconds),
                                ),
                                (
                                    "prediction_seconds".into(),
                                    Value::num(p.prediction_seconds),
                                ),
                                ("mean_fold_epochs".into(), Value::num(p.mean_fold_epochs)),
                                (
                                    "unique_simulations".into(),
                                    Value::num(p.unique_simulations as f64),
                                ),
                                (
                                    "simulation_cache_hits".into(),
                                    Value::num(p.simulation_cache_hits as f64),
                                ),
                                (
                                    "simulated_instructions".into(),
                                    Value::num(p.simulated_instructions as f64),
                                ),
                                ("sim_failures".into(), Value::num(p.sim_failures as f64)),
                                ("sim_retries".into(), Value::num(p.sim_retries as f64)),
                                (
                                    "sim_quarantined".into(),
                                    Value::num(p.sim_quarantined as f64),
                                ),
                                ("sim_resampled".into(), Value::num(p.sim_resampled as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses [`LearningCurve::to_json_value`] output.
    ///
    /// # Errors
    ///
    /// On missing fields or wrong types.
    pub fn from_json_value(value: &Value) -> Result<Self, JsonError> {
        let opt = |v: &Value| -> Result<Option<f64>, JsonError> {
            match v {
                Value::Null => Ok(None),
                other => other.as_f64().map(Some),
            }
        };
        let points = value
            .get("points")?
            .as_array()?
            .iter()
            .map(|p| {
                Ok(CurvePoint {
                    samples: p.get("samples")?.as_usize()?,
                    percent_sampled: p.get("percent_sampled")?.as_f64()?,
                    estimated_mean: p.get("estimated_mean")?.as_f64()?,
                    estimated_std_dev: p.get("estimated_std_dev")?.as_f64()?,
                    true_mean: opt(p.get("true_mean")?)?,
                    true_std_dev: opt(p.get("true_std_dev")?)?,
                    training_seconds: p.get("training_seconds")?.as_f64()?,
                    simulation_seconds: p.get("simulation_seconds")?.as_f64()?,
                    prediction_seconds: p.get("prediction_seconds")?.as_f64()?,
                    mean_fold_epochs: p.get("mean_fold_epochs")?.as_f64()?,
                    unique_simulations: p.get("unique_simulations")?.as_u64()?,
                    simulation_cache_hits: p.get("simulation_cache_hits")?.as_u64()?,
                    simulated_instructions: p.get("simulated_instructions")?.as_u64()?,
                    sim_failures: p.get("sim_failures")?.as_u64()?,
                    sim_retries: p.get("sim_retries")?.as_u64()?,
                    sim_quarantined: p.get("sim_quarantined")?.as_u64()?,
                    sim_resampled: p.get("sim_resampled")?.as_u64()?,
                })
            })
            .collect::<Result<Vec<_>, JsonError>>()?;
        Ok(Self {
            label: value.get("label")?.as_str()?.to_owned(),
            points,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archpredict_ann::cross_validation::ErrorEstimate;

    fn round(samples: usize, mean: f64) -> Round {
        Round {
            samples,
            fraction_sampled: samples as f64 / 1000.0,
            estimate: ErrorEstimate {
                mean,
                std_dev: mean / 2.0,
                points: samples as u64,
            },
            training_seconds: 0.5,
            simulation_seconds: 0.25,
            simulation: crate::simulate::SimStats {
                unique_simulations: 45,
                cache_hits: 5,
                simulated_instructions: 45_000,
                wall_seconds: 0.25,
                failures: 7,
                retries: 5,
                quarantined: 2,
                resampled: 3,
            },
            prediction_seconds: 0.125,
            folds: vec![
                archpredict_ann::FoldRecord {
                    fold: 0,
                    train_samples: samples.saturating_sub(20),
                    es_samples: 10,
                    test_samples: 10,
                    epochs: 120,
                    best_es_error: mean,
                    seconds: 0.05,
                    reinits: 0,
                };
                10
            ],
        }
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut curve = LearningCurve::new("mesa (memory)");
        curve.push(&round(50, 8.0), None);
        curve.push(
            &round(100, 4.0),
            Some(TrueError {
                mean: 4.2,
                std_dev: 2.0,
                points: 100,
            }),
        );
        let csv = curve.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("label,samples"));
        assert!(lines[0].ends_with(
            "simulated_instructions,sim_failures,sim_retries,sim_quarantined,sim_resampled"
        ));
        assert!(lines[1].contains("mesa (memory),50,5.0000,8.0000"));
        assert!(lines[1].ends_with("0.5000,0.2500,0.1250,120.0,45,5,45000,7,5,2,3"));
        assert!(lines[2].contains("4.2000"));
    }

    #[test]
    fn deterministic_csv_excludes_wall_clock_columns() {
        let mut curve = LearningCurve::new("x");
        curve.push(&round(50, 8.0), None);
        // The same run with different timings renders identically.
        let mut jittered = LearningCurve::new("x");
        let mut r = round(50, 8.0);
        r.training_seconds = 99.0;
        r.simulation_seconds = 1.0;
        r.prediction_seconds = 2.0;
        r.simulation.wall_seconds = 3.0;
        jittered.push(&r, None);
        assert_eq!(
            curve.to_csv_deterministic(),
            jittered.to_csv_deterministic()
        );
        assert_ne!(curve.to_csv(), jittered.to_csv());
        let csv = curve.to_csv_deterministic();
        assert!(!csv.contains("seconds"), "{csv}");
        assert!(csv.lines().next().unwrap().ends_with(
            "simulated_instructions,sim_failures,sim_retries,sim_quarantined,sim_resampled"
        ));
        assert!(csv
            .lines()
            .nth(1)
            .unwrap()
            .ends_with("120.0,45,5,45000,7,5,2,3"));
    }

    #[test]
    fn csv_writes_are_atomic_and_readable() {
        let dir = std::env::temp_dir().join(format!("archpredict_report_{}", std::process::id()));
        let mut curve = LearningCurve::new("x");
        curve.push(&round(50, 8.0), None);
        let path = dir.join("curve.csv");
        curve.write_csv(&path).expect("write csv");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), curve.to_csv());
        curve.write_csv_deterministic(&path).expect("rewrite");
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            curve.to_csv_deterministic()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_true_error_renders_empty_fields() {
        let mut curve = LearningCurve::new("x");
        curve.push(&round(50, 8.0), None);
        let row = curve.to_csv().lines().nth(1).unwrap().to_string();
        assert!(row.contains(",,"), "row was {row}");
    }

    #[test]
    fn first_reaching_finds_threshold() {
        let mut curve = LearningCurve::new("x");
        curve.push(&round(50, 8.0), None);
        curve.push(&round(100, 3.0), None);
        curve.push(&round(150, 1.5), None);
        assert_eq!(curve.first_reaching(2.0).unwrap().samples, 150);
        assert_eq!(curve.first_reaching(5.0).unwrap().samples, 100);
        assert!(curve.first_reaching(0.5).is_none());
    }

    #[test]
    fn json_round_trip_is_exact() {
        let mut curve = LearningCurve::new("mesa (memory)");
        curve.push(&round(50, 8.0), None);
        curve.push(
            &round(100, 4.0 / 3.0),
            Some(TrueError {
                mean: 1.0 / 3.0,
                std_dev: 0.1 + 0.2, // deliberately non-representable
                points: 100,
            }),
        );
        let json = curve.to_json_value().to_json();
        let back = LearningCurve::from_json_value(&Value::parse(&json).unwrap()).unwrap();
        // PartialEq over f64 fields: equality here means bit-identical
        // (no NaNs are produced by push).
        assert_eq!(back, curve);
    }

    #[test]
    fn table_is_readable() {
        let mut curve = LearningCurve::new("gzip (processor)");
        curve.push(&round(50, 8.0), None);
        let table = curve.to_table();
        assert!(table.contains("gzip (processor)"));
        assert!(table.contains("est.mean"));
    }
}
