//! Batched, parallel inference over design-point indices.
//!
//! The paper's payoff step is predicting the metric over the *entire*
//! exponential design space from a model trained on 1–4 % of it, and
//! measuring the model's true error on points it never trained on. This
//! module is the engine for both. It has one prediction sweep
//! ([`predict_encoded`]) and one committee-disagreement sweep
//! ([`disagreement_encoded`], the query-by-committee score), both generic
//! over the campaign's [`Encoder`]; [`predict_indices`] is the plain
//! encoding's case, and [`true_error`] runs the prediction sweep against
//! an oracle's answers. A sweep encodes indices into row-major feature
//! matrices of [`BLOCK_POINTS`] points and pushes them through the
//! ensemble's blocked batch kernels ([`Ensemble::predict_batch_into`],
//! [`Ensemble::disagreement_batch_into`]), with spans of chunks fanned out
//! across scoped worker threads per the existing [`Parallelism`] knob.
//! Each chunk is one block of the ensemble's kernel: it is transposed
//! once, and every member scales that block into its own network scratch
//! and runs its layers on it.
//!
//! # Determinism contract
//!
//! Each output depends only on its own design-point index: workers own
//! disjoint contiguous spans of the output, every worker computes the same
//! arithmetic the sequential path would, and spans are merged in index
//! order. The result is therefore **bit-for-bit identical** for every
//! `Parallelism` setting — the same contract parallel fold training
//! established for `fit_ensemble`.

use crate::campaign::{Encoder, ExploreError, PlainEncoder, TrueError};
use crate::simulate::{Oracle, SimStats};
use crate::space::DesignSpace;
use crate::telemetry;
use archpredict_ann::{Ensemble, Parallelism, PredictBuffer, BLOCK_POINTS};
use archpredict_stats::describe::{percent_error, Accumulator};

/// Predicts the metric at each design-point index under the paper's plain
/// encoding, in input order — [`predict_encoded`] with [`PlainEncoder`].
pub fn predict_indices(
    ensemble: &Ensemble,
    space: &DesignSpace,
    indices: &[usize],
    parallelism: Parallelism,
) -> Vec<f64> {
    predict_encoded(ensemble, space, &PlainEncoder, indices, parallelism)
}

/// Predicts the metric at each design-point index, in input order, with
/// feature rows from `encoder`.
///
/// Work is split into contiguous spans across up to
/// `parallelism.worker_count(..)` scoped threads; each worker owns one
/// [`PredictBuffer`] and one feature-matrix buffer for its whole span, so
/// the steady-state sweep performs no per-point allocation.
pub fn predict_encoded<C: Encoder + ?Sized>(
    ensemble: &Ensemble,
    space: &DesignSpace,
    encoder: &C,
    indices: &[usize],
    parallelism: Parallelism,
) -> Vec<f64> {
    sweep(space, encoder, indices, parallelism, |rows, out, buf| {
        ensemble.predict_batch_into(rows, out, buf)
    })
}

/// Committee disagreement (member-prediction standard deviation) at each
/// design-point index, in input order, with feature rows from `encoder` —
/// the query-by-committee score used by active learning, batched and
/// parallelized like [`predict_encoded`].
pub fn disagreement_encoded<C: Encoder + ?Sized>(
    ensemble: &Ensemble,
    space: &DesignSpace,
    encoder: &C,
    indices: &[usize],
    parallelism: Parallelism,
) -> Vec<f64> {
    sweep(space, encoder, indices, parallelism, |rows, out, buf| {
        ensemble.disagreement_batch_into(rows, out, buf)
    })
}

/// The model's *true* error on the `held_out` design-point indices: the
/// oracle evaluates them in one batch (simulating any it has not cached),
/// [`predict_encoded`] predicts them, and each surviving point's
/// [`percent_error`] goes into one [`Accumulator`]. Held-out points whose
/// evaluation fails are skipped; [`TrueError::points`] counts the rest.
///
/// Errors with [`ExploreError::EmptyHeldOut`] if `held_out` is empty or
/// every evaluation failed.
pub fn true_error<O: Oracle + ?Sized, C: Encoder + ?Sized>(
    ensemble: &Ensemble,
    space: &DesignSpace,
    encoder: &C,
    oracle: &O,
    held_out: &[usize],
    parallelism: Parallelism,
) -> Result<TrueError, ExploreError> {
    if held_out.is_empty() {
        return Err(ExploreError::EmptyHeldOut);
    }
    let actuals = oracle.evaluate_batch(space, held_out, &mut SimStats::default());
    let predictions = predict_encoded(ensemble, space, encoder, held_out, parallelism);
    let mut acc = Accumulator::new();
    for (&predicted, actual) in predictions.iter().zip(&actuals) {
        if let Ok(actual) = actual {
            acc.add(percent_error(predicted, *actual));
        }
    }
    if acc.count() == 0 {
        return Err(ExploreError::EmptyHeldOut);
    }
    Ok(TrueError {
        mean: acc.mean(),
        std_dev: acc.population_std_dev(),
        points: acc.count(),
    })
}

/// Shared sweep skeleton: `encoder` appends its width of features per
/// index into a row-major chunk matrix, `score` appends exactly one value
/// per row. Spans are contiguous and joined in index order.
fn sweep<C, F>(
    space: &DesignSpace,
    encoder: &C,
    indices: &[usize],
    parallelism: Parallelism,
    score: F,
) -> Vec<f64>
where
    C: Encoder + ?Sized,
    F: Fn(&[f64], &mut Vec<f64>, &mut PredictBuffer) + Sync,
{
    // Telemetry: counters are deterministic (sweep and point counts do
    // not depend on the worker split); timing lives in the span only.
    let _span = telemetry::span("infer.sweep");
    telemetry::INFER_SWEEPS.incr();
    telemetry::INFER_POINTS.add(indices.len() as u64);
    let mut out = vec![0.0; indices.len()];
    let workers = parallelism.worker_count(indices.len().div_ceil(BLOCK_POINTS));
    if workers <= 1 {
        sweep_span(space, encoder, indices, &mut out, &score);
    } else {
        let span = indices.len().div_ceil(workers);
        std::thread::scope(|scope| {
            for (index_span, out_span) in indices.chunks(span).zip(out.chunks_mut(span)) {
                let score = &score;
                scope.spawn(move || sweep_span(space, encoder, index_span, out_span, score));
            }
        });
    }
    out
}

/// One worker's contiguous span, processed in [`BLOCK_POINTS`]-sized
/// chunks with buffers reused across the whole span.
fn sweep_span<C, F>(space: &DesignSpace, encoder: &C, indices: &[usize], out: &mut [f64], score: &F)
where
    C: Encoder + ?Sized,
    F: Fn(&[f64], &mut Vec<f64>, &mut PredictBuffer) + Sync,
{
    let dims = encoder.width(space);
    let chunk = BLOCK_POINTS.min(indices.len());
    let mut rows: Vec<f64> = Vec::with_capacity(chunk * dims);
    let mut values: Vec<f64> = Vec::with_capacity(chunk);
    let mut buf = PredictBuffer::default();
    for (index_chunk, out_chunk) in indices
        .chunks(BLOCK_POINTS)
        .zip(out.chunks_mut(BLOCK_POINTS))
    {
        rows.clear();
        for &i in index_chunk {
            encoder.encode_into(space, i, &mut rows);
        }
        // Hard asserts, not debug_asserts: a mis-sized encoder or scorer in
        // a release build must abort, not silently misalign the chunk
        // hand-off to the batch kernels (`copy_from_slice` would only catch
        // it when lengths happen to differ).
        assert_eq!(rows.len(), index_chunk.len() * dims, "encoder width");
        values.clear();
        score(&rows, &mut values, &mut buf);
        assert_eq!(values.len(), index_chunk.len(), "one value per row");
        out_chunk.copy_from_slice(&values);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Param;
    use archpredict_ann::{fit_ensemble, Dataset, Sample, TrainConfig};

    fn space() -> DesignSpace {
        DesignSpace::new(vec![
            Param::cardinal("a", (0..9).map(f64::from).collect::<Vec<_>>()),
            Param::cardinal("b", (0..9).map(f64::from).collect::<Vec<_>>()),
            Param::nominal("mode", ["x", "y"]),
        ])
        .unwrap()
    }

    fn ensemble(space: &DesignSpace) -> Ensemble {
        let data: Dataset = (0..60)
            .map(|i| {
                let p = space.point(i * 2);
                let f = space.encode(&p);
                let t = 0.4 + 0.3 * f[0] + 0.2 * f[0] * f[1];
                Sample::new(f, t)
            })
            .collect();
        let config = TrainConfig {
            max_epochs: 40,
            ..TrainConfig::default()
        };
        fit_ensemble(&data, 5, &config, 11).ensemble
    }

    /// The sweep is bit for bit the naive point-at-a-time reference.
    #[test]
    fn batched_sweep_matches_point_at_a_time_bit_for_bit() {
        let space = space();
        let ensemble = ensemble(&space);
        let indices: Vec<usize> = (0..space.size()).collect();
        let batched = predict_indices(&ensemble, &space, &indices, Parallelism::Fixed(1));
        for (&i, &b) in indices.iter().zip(&batched) {
            let reference = ensemble.predict_reference(&space.encode(&space.point(i)));
            assert_eq!(reference.to_bits(), b.to_bits(), "index {i}");
        }
    }

    #[test]
    fn every_parallelism_setting_is_identical() {
        let space = space();
        let ensemble = ensemble(&space);
        let indices: Vec<usize> = (0..space.size()).collect();
        let reference = predict_indices(&ensemble, &space, &indices, Parallelism::Fixed(1));
        for parallelism in [
            Parallelism::Fixed(2),
            Parallelism::Fixed(4),
            Parallelism::Fixed(7),
            Parallelism::Auto,
        ] {
            let parallel = predict_indices(&ensemble, &space, &indices, parallelism);
            assert_eq!(reference, parallel, "{parallelism:?}");
        }
    }

    /// The disagreement sweep is bit for bit the sample standard
    /// deviation of an `Accumulator` fed each member's naive prediction.
    #[test]
    fn disagreement_sweep_matches_scalar_path() {
        let space = space();
        let ensemble = ensemble(&space);
        let indices: Vec<usize> = (0..space.size()).step_by(3).collect();
        let mut buf = PredictBuffer::default();
        let reference: Vec<u64> = indices
            .iter()
            .map(|&i| {
                let features = space.encode(&space.point(i));
                let acc: Accumulator = ensemble
                    .models()
                    .iter()
                    .map(|m| m.predict_reference_with(&features, &mut buf))
                    .collect();
                acc.sample_std_dev().to_bits()
            })
            .collect();
        for parallelism in [
            Parallelism::Fixed(1),
            Parallelism::Fixed(3),
            Parallelism::Auto,
        ] {
            let scores =
                disagreement_encoded(&ensemble, &space, &PlainEncoder, &indices, parallelism);
            let scores: Vec<u64> = scores.iter().map(|s| s.to_bits()).collect();
            assert_eq!(reference, scores, "{parallelism:?}");
        }
    }

    #[test]
    fn empty_index_list_is_fine() {
        let space = space();
        let ensemble = ensemble(&space);
        assert!(predict_indices(&ensemble, &space, &[], Parallelism::Auto).is_empty());
    }

    #[test]
    fn uneven_spans_cover_every_index() {
        // 2 workers over an odd count exercises the chunk/span remainders.
        let space = space();
        let ensemble = ensemble(&space);
        let indices: Vec<usize> = (0..123).collect();
        let a = predict_indices(&ensemble, &space, &indices, Parallelism::Fixed(2));
        let b = predict_indices(&ensemble, &space, &indices, Parallelism::Fixed(1));
        assert_eq!(a.len(), 123);
        assert_eq!(a, b);
    }
}
