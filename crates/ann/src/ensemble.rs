//! Prediction-averaging ensembles (paper §3.2).
//!
//! The `k` networks produced by cross-validation are combined by averaging
//! their predictions — "an approach frequently used in weather forecasting"
//! that usually beats a single network trained on all the data.

use crate::network::{transpose_into, BLOCK_POINTS};
use crate::train::{PredictBuffer, TrainedModel};
use archpredict_stats::json::{JsonError, Value};

/// Serialization format version stamped into every artifact header.
///
/// Bump this whenever anything that changes model *numerics* ships — the
/// vectorized `fastmath` kernels redefined every trained weight, so a
/// model persisted under one format mispredicts silently under another.
/// Version 2 is the fastmath-kernel era; headerless JSON predates
/// versioning and is rejected.
pub const MODEL_FORMAT_VERSION: u32 = 2;

/// The versioned header stamped onto persisted model artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelHeader {
    /// Serialization/numerics format ([`MODEL_FORMAT_VERSION`] today).
    pub format: u32,
    /// Fingerprint of the design space + encoding the model was trained
    /// on (0 = not stamped). The trainer-side caller computes it; this
    /// crate only carries and compares it.
    pub fingerprint: u64,
}

impl ModelHeader {
    /// The current-format header for a given space/encoder fingerprint.
    pub fn current(fingerprint: u64) -> Self {
        Self {
            format: MODEL_FORMAT_VERSION,
            fingerprint,
        }
    }

    pub(crate) fn to_json_fields(self) -> Vec<(String, Value)> {
        vec![
            ("format".into(), Value::num(self.format as f64)),
            // u64 as hex: JSON numbers are f64 and cannot carry the
            // full 64 bits exactly.
            (
                "fingerprint".into(),
                Value::Str(format!("{:016x}", self.fingerprint)),
            ),
        ]
    }

    /// Reads the header out of a parsed artifact. JSON that predates
    /// versioning (no `format` key) is an error: an unstamped artifact
    /// cannot prove what space it was trained on.
    pub fn from_json_value(value: &Value) -> Result<Self, JsonError> {
        let format = value.get("format").map_err(|_| {
            JsonError::custom(
                "artifact has no version header (pre-versioning legacy); refit the model",
            )
        })?;
        let fingerprint = value.get("fingerprint")?.as_str()?;
        let fingerprint = u64::from_str_radix(fingerprint, 16)
            .map_err(|_| JsonError::custom(format!("bad hex fingerprint {fingerprint:?}")))?;
        Ok(Self {
            format: format.as_u64()? as u32,
            fingerprint,
        })
    }

    /// Errors unless the header matches the current format and the
    /// expected fingerprint — the registry's load-time compatibility gate.
    pub fn check(self, expected_fingerprint: u64) -> Result<(), JsonError> {
        if self.format != MODEL_FORMAT_VERSION {
            return Err(JsonError::custom(format!(
                "model format {} is incompatible with this build (format {MODEL_FORMAT_VERSION}); refit the model",
                self.format
            )));
        }
        if self.fingerprint != expected_fingerprint {
            return Err(JsonError::custom(format!(
                "model fingerprint {:016x} does not match the requested space/encoding {expected_fingerprint:016x}; refit the model",
                self.fingerprint
            )));
        }
        Ok(())
    }
}

/// An averaging ensemble of trained models.
#[derive(Debug, Clone, PartialEq)]
pub struct Ensemble {
    models: Vec<TrainedModel>,
}

impl Ensemble {
    /// Wraps trained models into an ensemble.
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty.
    pub fn new(models: Vec<TrainedModel>) -> Self {
        assert!(!models.is_empty(), "ensemble needs at least one model");
        Self { models }
    }

    /// Number of member models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the ensemble has no members (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// The member models.
    pub fn models(&self) -> &[TrainedModel] {
        &self.models
    }

    /// Predicts the raw-scale target for one row of raw features by
    /// averaging member predictions: the row runs as a one-point block of
    /// [`Ensemble::predict_batch_into`] with a fresh buffer. Sweeps should
    /// batch their rows instead.
    ///
    /// # Panics
    ///
    /// Panics unless `features` is one row ([`Ensemble::input_dims`] wide).
    pub fn predict(&self, features: &[f64]) -> f64 {
        self.one_row(features, Self::predict_batch_into)
    }

    /// Runs one row of raw features through a batch path as a one-point
    /// block.
    fn one_row(
        &self,
        features: &[f64],
        batch: fn(&Self, &[f64], &mut Vec<f64>, &mut PredictBuffer),
    ) -> f64 {
        assert_eq!(features.len(), self.input_dims(), "dimensionality mismatch");
        let mut out = Vec::with_capacity(1);
        batch(self, features, &mut out, &mut PredictBuffer::default());
        out[0]
    }

    /// Width of the raw feature vectors the ensemble consumes.
    pub fn input_dims(&self) -> usize {
        self.models[0].input_dims()
    }

    /// Predicts raw-scale targets for a row-major matrix of raw feature
    /// rows (each [`Ensemble::input_dims`] wide), appending one averaged
    /// prediction per row to `out`.
    ///
    /// Rows go in blocks of at most [`BLOCK_POINTS`] points. Each block is
    /// transposed once into `buf`, feature-major; every member then scales
    /// that shared block into its network scratch and runs its layers on
    /// it, member-outer so each model's weights stay hot across the block.
    /// Per-row sums still accumulate in member order, so results are
    /// bit-for-bit identical to the per-row naive reference
    /// ([`Ensemble::predict_reference`]).
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` is not a multiple of the input width.
    pub fn predict_batch_into(&self, rows: &[f64], out: &mut Vec<f64>, buf: &mut PredictBuffer) {
        let dims = self.batch_width(rows);
        let start = out.len();
        out.resize(start + rows.len() / dims, 0.0);
        let PredictBuffer { scratch, block, .. } = buf;
        for (chunk, sums) in rows
            .chunks(BLOCK_POINTS * dims)
            .zip(out[start..].chunks_mut(BLOCK_POINTS))
        {
            let n = sums.len();
            block.resize(chunk.len(), 0.0);
            transpose_into(chunk, dims, block);
            for model in &self.models {
                for (slot, y) in sums.iter_mut().zip(model.predict_block(block, n, scratch)) {
                    *slot += y;
                }
            }
        }
        let n = self.models.len() as f64;
        for slot in &mut out[start..] {
            *slot /= n;
        }
    }

    /// The feature width of a batch of raw rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` is not a multiple of the input width.
    fn batch_width(&self, rows: &[f64]) -> usize {
        let dims = self.input_dims();
        assert_eq!(
            rows.len() % dims,
            0,
            "batch length {} is not a multiple of the feature width {dims}",
            rows.len()
        );
        dims
    }

    /// Ensemble average through each member's textbook per-output forward
    /// loop ([`TrainedModel::predict_reference_with`]) with one fresh
    /// scratch per call — structurally the pre-kernel production path
    /// ([`Ensemble::predict`] before the blocked kernels), kept as the
    /// honest baseline that `crates/bench/tests/speed_gates.rs` times the
    /// batched sweep against. Its own speed depends on the weight layout,
    /// so the gate's ratio moves with layout changes too. Bit-for-bit
    /// identical to [`Ensemble::predict`], and the reference the block
    /// paths are property-tested against. Not for production use.
    #[doc(hidden)]
    pub fn predict_reference(&self, features: &[f64]) -> f64 {
        let mut buf = PredictBuffer::default();
        let sum: f64 = self
            .models
            .iter()
            .map(|m| m.predict_reference_with(features, &mut buf))
            .sum();
        sum / self.models.len() as f64
    }

    /// Per-member predictions for one row of raw features, in member
    /// order (each member's [`TrainedModel::predict`]).
    pub fn member_predictions(&self, features: &[f64]) -> Vec<f64> {
        self.models.iter().map(|m| m.predict(features)).collect()
    }

    /// Sample standard deviation of member predictions for one row of raw
    /// features — the committee disagreement used by the active-learning
    /// extension (disagreement = informativeness; paper §7 future work).
    /// The row runs as a one-point block of
    /// [`Ensemble::disagreement_batch_into`].
    ///
    /// # Panics
    ///
    /// Panics unless `features` is one row ([`Ensemble::input_dims`] wide).
    pub fn disagreement(&self, features: &[f64]) -> f64 {
        self.one_row(features, Self::disagreement_batch_into)
    }

    /// Committee disagreement for a row-major matrix of raw feature rows,
    /// appending one score per row to `out`.
    ///
    /// Blocks run as in [`Ensemble::predict_batch_into`]: one transpose
    /// per block, then each member predicts the whole block, and the
    /// predictions fold into per-row Welford states (running mean and M2,
    /// updated elementwise in member order — the exact
    /// [`archpredict_stats::describe::Accumulator::add`] recurrence), so
    /// each score is bit for bit the sample standard deviation of an
    /// `Accumulator` fed each member's naive per-row prediction, and the
    /// kernel's batch throughput carries over to query-by-committee
    /// scoring.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` is not a multiple of the input width.
    pub fn disagreement_batch_into(
        &self,
        rows: &[f64],
        out: &mut Vec<f64>,
        buf: &mut PredictBuffer,
    ) {
        let dims = self.batch_width(rows);
        out.reserve(rows.len() / dims);
        let PredictBuffer {
            scratch,
            block,
            mean,
            m2,
            ..
        } = buf;
        for chunk in rows.chunks(BLOCK_POINTS * dims) {
            let n = chunk.len() / dims;
            block.resize(chunk.len(), 0.0);
            transpose_into(chunk, dims, block);
            mean.clear();
            mean.resize(n, 0.0);
            m2.clear();
            m2.resize(n, 0.0);
            for (k, model) in self.models.iter().enumerate() {
                let count = (k + 1) as f64;
                let predictions = model.predict_block(block, n, scratch);
                for ((m, s), x) in mean.iter_mut().zip(m2.iter_mut()).zip(predictions) {
                    let delta = x - *m;
                    *m += delta / count;
                    *s += delta * (x - *m);
                }
            }
            // Sample standard deviation, matching
            // `Accumulator::sample_std_dev` (0.0 for fewer than two
            // members).
            if self.models.len() < 2 {
                out.resize(out.len() + n, 0.0);
            } else {
                let denom = (self.models.len() - 1) as f64;
                out.extend(m2.iter().map(|&s| (s / denom).sqrt()));
            }
        }
    }

    /// Serializes the ensemble with a versioned header carrying
    /// `fingerprint` (the trainer's space/encoder identity), so
    /// [`Ensemble::from_json_checked`] can refuse incompatible artifacts.
    pub fn to_json_fingerprinted(&self, fingerprint: u64) -> String {
        let mut fields = ModelHeader::current(fingerprint).to_json_fields();
        fields.push((
            "models".into(),
            Value::Array(
                self.models
                    .iter()
                    .map(TrainedModel::to_json_value)
                    .collect(),
            ),
        ));
        Value::Object(fields).to_json()
    }

    /// Deserializes an ensemble written by
    /// [`Ensemble::to_json_fingerprinted`] and enforces its header: the
    /// format must be current and the stored fingerprint must equal
    /// `expected_fingerprint`. Headerless JSON is rejected.
    pub fn from_json_checked(text: &str, expected_fingerprint: u64) -> Result<Self, JsonError> {
        let value = Value::parse(text)?;
        ModelHeader::from_json_value(&value)?.check(expected_fingerprint)?;
        let models: Vec<TrainedModel> = value
            .get("models")?
            .as_array()?
            .iter()
            .map(TrainedModel::from_json_value)
            .collect::<Result<_, _>>()?;
        if models.is_empty() {
            return Err(JsonError::custom("ensemble needs at least one model"));
        }
        Ok(Self { models })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Sample;
    use crate::train::{train_network, TrainConfig};
    use archpredict_stats::rng::Xoshiro256;

    fn trained(seed: u64) -> TrainedModel {
        let mut rng = Xoshiro256::seed_from(seed);
        let samples: Vec<Sample> = (0..80)
            .map(|_| {
                let a = rng.next_f64();
                Sample::new(vec![a], 0.5 + a)
            })
            .collect();
        let (train, es) = samples.split_at(64);
        let train_refs: Vec<&Sample> = train.iter().collect();
        let es_refs: Vec<&Sample> = es.iter().collect();
        let config = TrainConfig {
            max_epochs: 60,
            ..TrainConfig::default()
        };
        train_network(&train_refs, &es_refs, &config, &mut rng)
    }

    #[test]
    fn average_is_within_member_range() {
        let ensemble = Ensemble::new(vec![trained(1), trained(2), trained(3)]);
        let x = [0.4];
        let preds = ensemble.member_predictions(&x);
        let min = preds.iter().copied().fold(f64::INFINITY, f64::min);
        let max = preds.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let avg = ensemble.predict(&x);
        assert!(avg >= min && avg <= max);
    }

    #[test]
    fn disagreement_is_zero_for_identical_members() {
        let m = trained(4);
        let ensemble = Ensemble::new(vec![m.clone(), m.clone(), m]);
        assert!(ensemble.disagreement(&[0.3]) < 1e-12);
    }

    #[test]
    fn disagreement_positive_for_distinct_members() {
        let ensemble = Ensemble::new(vec![trained(5), trained(6)]);
        assert!(ensemble.disagreement(&[0.9]) > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one model")]
    fn empty_ensemble_panics() {
        Ensemble::new(Vec::new());
    }

    #[test]
    fn json_round_trip_preserves_predictions() {
        let ensemble = Ensemble::new(vec![trained(7), trained(8), trained(9)]);
        let json = ensemble.to_json_fingerprinted(7);
        let restored = Ensemble::from_json_checked(&json, 7).unwrap();
        for x in [0.1, 0.5, 0.9] {
            // Shortest-round-trip float formatting makes this exact.
            assert_eq!(ensemble.predict(&[x]), restored.predict(&[x]));
        }
        assert_eq!(restored.len(), 3);
        let empty = format!(
            r#"{{"format":{MODEL_FORMAT_VERSION},"fingerprint":"{:016x}","models":[]}}"#,
            7
        );
        let err = Ensemble::from_json_checked(&empty, 7).unwrap_err();
        assert!(err.to_string().contains("at least one model"), "{err}");
    }

    #[test]
    fn header_carries_format_and_fingerprint() {
        let ensemble = Ensemble::new(vec![trained(10)]);
        let json = ensemble.to_json_fingerprinted(0xDEAD_BEEF_0123_4567);
        let header = ModelHeader::from_json_value(&Value::parse(&json).unwrap()).unwrap();
        assert_eq!(header.format, MODEL_FORMAT_VERSION);
        assert_eq!(header.fingerprint, 0xDEAD_BEEF_0123_4567);
        let restored = Ensemble::from_json_checked(&json, 0xDEAD_BEEF_0123_4567).unwrap();
        assert_eq!(restored.predict(&[0.5]), ensemble.predict(&[0.5]));
    }

    #[test]
    fn checked_load_rejects_mismatches() {
        let ensemble = Ensemble::new(vec![trained(11)]);
        let json = ensemble.to_json_fingerprinted(1);
        // Wrong fingerprint fails loudly.
        let err = Ensemble::from_json_checked(&json, 2).unwrap_err();
        assert!(err.to_string().contains("fingerprint"), "{err}");
        // Headerless JSON is refused.
        let legacy = Value::parse(&json)
            .map(|v| match v {
                Value::Object(fields) => Value::Object(
                    fields
                        .into_iter()
                        .filter(|(k, _)| k == "models")
                        .collect::<Vec<_>>(),
                ),
                _ => unreachable!(),
            })
            .unwrap()
            .to_json();
        let err = Ensemble::from_json_checked(&legacy, 1).unwrap_err();
        assert!(err.to_string().contains("header"), "{err}");
        // So is a stale format version.
        let stale = json.replacen(
            &format!("\"format\":{MODEL_FORMAT_VERSION}.0"),
            "\"format\":1.0",
            1,
        );
        assert_ne!(stale, json, "format field should have been rewritten");
        let err = Ensemble::from_json_checked(&stale, 1).unwrap_err();
        assert!(err.to_string().contains("format 1"), "{err}");
    }
}
