//! Batched, parallel inference over design-point indices.
//!
//! The paper's payoff step is predicting the metric over the *entire*
//! exponential design space from a model trained on 1–4 % of it. This
//! module is the engine for that sweep: indices are encoded into row-major
//! feature matrices of [`BLOCK_POINTS`] points and pushed through the
//! ensemble's blocked matrix-matrix batch kernels
//! ([`Ensemble::predict_batch_into`], [`Ensemble::disagreement_batch_into`]
//! for query-by-committee scores), with spans of chunks fanned out across
//! scoped worker threads per the existing [`Parallelism`] knob. Each chunk
//! is one block of the ensemble's kernel: it is transposed once, and every
//! member scales that block into its own network scratch and runs its
//! layers on it.
//!
//! # Determinism contract
//!
//! Each output depends only on its own design-point index: workers own
//! disjoint contiguous spans of the output, every worker computes the same
//! arithmetic the sequential path would, and spans are merged in index
//! order. The result is therefore **bit-for-bit identical** for every
//! `Parallelism` setting — the same contract parallel fold training
//! established for `fit_ensemble`.

use crate::space::DesignSpace;
use crate::telemetry;
use archpredict_ann::{Ensemble, Parallelism, PredictBuffer, BLOCK_POINTS};

/// Predicts the metric at each design-point index, in input order.
///
/// Work is split into contiguous spans across up to
/// `parallelism.worker_count(..)` scoped threads; each worker owns one
/// [`PredictBuffer`] and one feature-matrix buffer for its whole span, so
/// the steady-state sweep performs no per-point allocation.
pub fn predict_indices(
    ensemble: &Ensemble,
    space: &DesignSpace,
    indices: &[usize],
    parallelism: Parallelism,
) -> Vec<f64> {
    sweep(
        indices,
        parallelism,
        |index, rows| space.encode_index_into(index, rows),
        space.encoded_width(),
        |rows, out, buf| ensemble.predict_batch_into(rows, out, buf),
    )
}

/// Full sweep with a caller-supplied encoder appending exactly `dims`
/// features per index — used by extensions whose feature vectors extend
/// the plain design-point encoding (e.g. the cross-application model's
/// one-hot application id).
pub(crate) fn sweep_encoded<E>(
    ensemble: &Ensemble,
    indices: &[usize],
    parallelism: Parallelism,
    encode: E,
    dims: usize,
) -> Vec<f64>
where
    E: Fn(usize, &mut Vec<f64>) + Sync,
{
    sweep(indices, parallelism, encode, dims, |rows, out, buf| {
        ensemble.predict_batch_into(rows, out, buf)
    })
}

/// Committee disagreement (member-prediction standard deviation) at each
/// design-point index, in input order — the query-by-committee score used
/// by active learning, batched and parallelized like [`predict_indices`].
pub fn disagreement_indices(
    ensemble: &Ensemble,
    space: &DesignSpace,
    indices: &[usize],
    parallelism: Parallelism,
) -> Vec<f64> {
    disagreement_encoded(
        ensemble,
        indices,
        parallelism,
        |index, rows| space.encode_index_into(index, rows),
        space.encoded_width(),
    )
}

/// Committee disagreement with a caller-supplied encoder — the
/// query-by-committee sweep for campaigns whose feature rows extend the
/// plain design-point encoding (see [`crate::campaign::Encoder`]).
pub(crate) fn disagreement_encoded<E>(
    ensemble: &Ensemble,
    indices: &[usize],
    parallelism: Parallelism,
    encode: E,
    dims: usize,
) -> Vec<f64>
where
    E: Fn(usize, &mut Vec<f64>) + Sync,
{
    sweep(indices, parallelism, encode, dims, |rows, out, buf| {
        ensemble.disagreement_batch_into(rows, out, buf)
    })
}

/// Shared sweep skeleton: `encode` appends `dims` features per index into
/// a row-major chunk matrix, `score` appends exactly one value per row.
/// Spans are contiguous and joined in index order.
fn sweep<E, F>(
    indices: &[usize],
    parallelism: Parallelism,
    encode: E,
    dims: usize,
    score: F,
) -> Vec<f64>
where
    E: Fn(usize, &mut Vec<f64>) + Sync,
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
        sweep_span(indices, &mut out, &encode, dims, &score);
    } else {
        let span = indices.len().div_ceil(workers);
        std::thread::scope(|scope| {
            for (index_span, out_span) in indices.chunks(span).zip(out.chunks_mut(span)) {
                let (encode, score) = (&encode, &score);
                scope.spawn(move || sweep_span(index_span, out_span, encode, dims, score));
            }
        });
    }
    out
}

/// One worker's contiguous span, processed in [`BLOCK_POINTS`]-sized
/// chunks with buffers reused across the whole span.
fn sweep_span<E, F>(indices: &[usize], out: &mut [f64], encode: &E, dims: usize, score: &F)
where
    E: Fn(usize, &mut Vec<f64>) + Sync,
    F: Fn(&[f64], &mut Vec<f64>, &mut PredictBuffer) + Sync,
{
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
            encode(i, &mut rows);
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

    #[test]
    fn batched_sweep_matches_point_at_a_time_bit_for_bit() {
        let space = space();
        let ensemble = ensemble(&space);
        let indices: Vec<usize> = (0..space.size()).collect();
        let batched = predict_indices(&ensemble, &space, &indices, Parallelism::Fixed(1));
        for (&i, &b) in indices.iter().zip(&batched) {
            let sequential = ensemble.predict(&space.encode(&space.point(i)));
            assert_eq!(sequential, b, "index {i}");
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

    #[test]
    fn disagreement_sweep_matches_scalar_path() {
        let space = space();
        let ensemble = ensemble(&space);
        let indices: Vec<usize> = (0..space.size()).step_by(3).collect();
        let reference: Vec<f64> = indices
            .iter()
            .map(|&i| ensemble.disagreement(&space.encode(&space.point(i))))
            .collect();
        for parallelism in [
            Parallelism::Fixed(1),
            Parallelism::Fixed(3),
            Parallelism::Auto,
        ] {
            let scores = disagreement_indices(&ensemble, &space, &indices, parallelism);
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
