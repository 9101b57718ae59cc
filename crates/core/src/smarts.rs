//! SMARTS-style systematic sampling (paper §2: "combining our approach
//! with the SMARTS framework is another interesting future work").
//!
//! SMARTS (Wunderlich et al., ISCA 2003) estimates whole-program metrics by
//! simulating many *tiny* measurement units spread systematically through
//! the execution, each preceded by a warming window, and attaches a
//! confidence interval from the between-unit variance. This module provides
//! that estimator as another fast-but-noisy [`PointEvaluator`] the ANN
//! ensembles can train on — structurally different noise than SimPoint's
//! (variance from tiny units rather than bias from unrepresented behavior).
//! The units are simulated by a [`StudyEvaluator`] whose budget lists them.

use crate::simulate::{PointEvaluator, SimBudget, StudyEvaluator};
use crate::space::{DesignPoint, DesignSpace};
use crate::studies::Study;
use archpredict_stats::describe::Accumulator;
use archpredict_workloads::{Benchmark, TraceGenerator};

/// SMARTS-style estimator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmartsConfig {
    /// Systematic sampling period: one unit per `period` intervals.
    pub period: usize,
    /// Warm-up instructions before each measurement unit.
    pub warmup: u64,
    /// Measured instructions per unit (SMARTS uses ~1000).
    pub measured: u64,
}

impl Default for SmartsConfig {
    fn default() -> Self {
        Self {
            period: 3,
            warmup: 3_000,
            measured: 1_000,
        }
    }
}

/// A SMARTS estimate with its sampling confidence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmartsEstimate {
    /// Mean IPC across measurement units.
    pub ipc: f64,
    /// Half-width of the ~95 % confidence interval (2σ/√n).
    pub confidence: f64,
    /// Number of measurement units.
    pub units: usize,
}

/// Systematic-sampling evaluator over a study's design space.
#[derive(Debug)]
pub struct SmartsEvaluator {
    units: StudyEvaluator,
}

impl SmartsEvaluator {
    /// Creates an evaluator taking one measurement unit every
    /// `config.period` intervals of the program.
    ///
    /// # Panics
    ///
    /// Panics if the period is zero or leaves no measurement units.
    pub fn new(study: Study, benchmark: Benchmark, config: SmartsConfig) -> Self {
        assert!(config.period > 0, "period must be positive");
        let units: Vec<usize> = (0..TraceGenerator::new(benchmark).num_intervals())
            .step_by(config.period)
            .collect();
        assert!(!units.is_empty(), "no measurement units");
        let budget = SimBudget {
            warmup: config.warmup,
            measured: config.measured,
            intervals: units,
        };
        Self {
            units: StudyEvaluator::with_budget(study, benchmark, budget),
        }
    }

    /// The study's design space.
    pub fn space(&self) -> &DesignSpace {
        self.units.space()
    }

    /// Full estimate (mean + confidence interval), the SMARTS deliverable.
    pub fn estimate(&self, point: &DesignPoint) -> SmartsEstimate {
        let mut acc = Accumulator::new();
        for r in self.units.simulate_intervals(point) {
            acc.add(r.ipc());
        }
        let n = acc.count() as f64;
        SmartsEstimate {
            ipc: acc.mean(),
            confidence: 2.0 * acc.sample_std_dev() / n.sqrt(),
            units: acc.count() as usize,
        }
    }
}

impl PointEvaluator for SmartsEvaluator {
    fn evaluate(&self, point: &DesignPoint) -> f64 {
        self.estimate(point).ipc
    }

    fn instructions_per_evaluation(&self) -> u64 {
        self.units.instructions_per_evaluation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_tracks_full_simulation() {
        let benchmark = Benchmark::Gzip;
        let study = Study::Processor;
        let smarts = SmartsEvaluator::new(study, benchmark, SmartsConfig::default());
        // Reference: all intervals, full-length windows.
        let generator = TraceGenerator::new(benchmark);
        let full = StudyEvaluator::with_budget(
            study,
            benchmark,
            SimBudget {
                warmup: 3_000,
                measured: 1_000,
                intervals: (0..generator.num_intervals()).collect(),
            },
        );
        let point = smarts.space().point(777);
        let est = smarts.estimate(&point);
        let reference = full.evaluate(&point);
        let err = (est.ipc - reference).abs() / reference;
        assert!(
            err < 0.10,
            "SMARTS {:.4} vs full {:.4} ({:.1}%)",
            est.ipc,
            reference,
            err * 100.0
        );
        assert!(est.confidence > 0.0);
        assert!(est.units >= 10);
    }

    #[test]
    fn cheaper_than_reference() {
        let smarts =
            SmartsEvaluator::new(Study::Processor, Benchmark::Mesa, SmartsConfig::default());
        let generator = TraceGenerator::new(Benchmark::Mesa);
        // One-third of the intervals, tiny units: far fewer instructions
        // than whole-program simulation at normal window sizes.
        let whole_program = generator.num_intervals() as u64 * 24_000;
        assert!(smarts.instructions_per_evaluation() * 4 < whole_program);
    }

    #[test]
    fn confidence_shrinks_with_more_units() {
        let dense = SmartsEvaluator::new(
            Study::Processor,
            Benchmark::Applu,
            SmartsConfig {
                period: 1,
                ..SmartsConfig::default()
            },
        );
        let sparse = SmartsEvaluator::new(
            Study::Processor,
            Benchmark::Applu,
            SmartsConfig {
                period: 10,
                ..SmartsConfig::default()
            },
        );
        let point = dense.space().point(123);
        let d = dense.estimate(&point);
        let s = sparse.estimate(&point);
        assert!(d.units > s.units);
        assert!(
            d.confidence < s.confidence * 1.5,
            "denser sampling should not be less confident: {} vs {}",
            d.confidence,
            s.confidence
        );
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_panics() {
        SmartsEvaluator::new(
            Study::Processor,
            Benchmark::Gzip,
            SmartsConfig {
                period: 0,
                ..SmartsConfig::default()
            },
        );
    }
}
