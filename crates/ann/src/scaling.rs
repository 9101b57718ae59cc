//! Minimax normalization (paper §3.3).
//!
//! Cardinal and continuous inputs — and the target metric — are scaled into
//! `[0, 1]` using their minimum and maximum over the data, preventing
//! parameters with wide ranges from dominating the gradient. Predictions
//! are scaled back to the original range before error is computed, because
//! the paper reports *percentage* error in real units.

use archpredict_stats::json::{JsonError, Value};

/// Per-dimension minimax scaler for feature vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct MinMaxScaler {
    mins: Vec<f64>,
    maxs: Vec<f64>,
}

impl MinMaxScaler {
    /// Fits the scaler to rows of equal-length feature vectors.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or ragged.
    pub fn fit<'a, I>(rows: I) -> Self
    where
        I: IntoIterator<Item = &'a [f64]>,
    {
        let mut iter = rows.into_iter();
        let first = iter.next().expect("cannot fit scaler to no data");
        let mut mins = first.to_vec();
        let mut maxs = first.to_vec();
        for row in iter {
            assert_eq!(row.len(), mins.len(), "ragged feature rows");
            for ((m, x), v) in mins.iter_mut().zip(row).zip(maxs.iter_mut()) {
                *m = m.min(*x);
                *v = v.max(*x);
            }
        }
        Self { mins, maxs }
    }

    /// Builds a scaler from explicit per-dimension bounds (e.g. the design
    /// space's declared parameter ranges, as the paper normalizes).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ or any `min > max`.
    pub fn from_bounds(mins: Vec<f64>, maxs: Vec<f64>) -> Self {
        assert_eq!(mins.len(), maxs.len(), "bounds length mismatch");
        assert!(
            mins.iter().zip(&maxs).all(|(a, b)| a <= b),
            "min exceeds max"
        );
        Self { mins, maxs }
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.mins.len()
    }

    /// Serializes the fitted bounds to a JSON [`Value`].
    pub fn to_json_value(&self) -> Value {
        Value::Object(vec![
            ("mins".into(), Value::from_f64s(&self.mins)),
            ("maxs".into(), Value::from_f64s(&self.maxs)),
        ])
    }

    /// Deserializes bounds written by [`MinMaxScaler::to_json_value`].
    pub fn from_json_value(value: &Value) -> Result<Self, JsonError> {
        let mins = value.get("mins")?.as_f64_vec()?;
        let maxs = value.get("maxs")?.as_f64_vec()?;
        if mins.len() != maxs.len() || mins.iter().zip(&maxs).any(|(a, b)| a > b) {
            return Err(JsonError::custom("invalid scaler bounds"));
        }
        Ok(Self { mins, maxs })
    }

    /// Scales a feature vector into `[0, 1]` per dimension. Constant
    /// dimensions map to `0.5`.
    ///
    /// # Panics
    ///
    /// Panics on dimensionality mismatch.
    pub fn transform(&self, row: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.dims());
        self.transform_into(row, &mut out);
        out
    }

    /// Scales a feature vector, *appending* the `dims()` scaled values to
    /// `out` — the allocation-free building block for row-major feature
    /// matrices. Bit-for-bit identical to [`MinMaxScaler::transform`].
    ///
    /// # Panics
    ///
    /// Panics on dimensionality mismatch.
    pub fn transform_into(&self, row: &[f64], out: &mut Vec<f64>) {
        assert_eq!(row.len(), self.dims(), "dimensionality mismatch");
        out.extend(
            row.iter()
                .zip(self.mins.iter().zip(&self.maxs))
                .map(|(&x, (&lo, &hi))| match range(lo, hi) {
                    Some(range) => (x - lo) / range,
                    None => 0.5,
                }),
        );
    }

    /// Scales a **feature-major** block of `n` points: `raw_t` holds
    /// `dims()` rows of `n` raw values (feature `i` of point `p` at
    /// `[i * n + p]`) and `out_t` receives the scaled rows in the same
    /// layout. One contiguous pass per feature, with the degenerate-range
    /// test made once per feature instead of once per value; per element
    /// bit-for-bit [`MinMaxScaler::transform`].
    ///
    /// # Panics
    ///
    /// Panics unless both matrices hold `dims() * n` values.
    pub(crate) fn transform_block(&self, raw_t: &[f64], n: usize, out_t: &mut [f64]) {
        assert_eq!(raw_t.len(), self.dims() * n, "block size");
        assert_eq!(out_t.len(), raw_t.len(), "block size");
        if n == 0 {
            return;
        }
        for ((src, dst), (&lo, &hi)) in raw_t
            .chunks_exact(n)
            .zip(out_t.chunks_exact_mut(n))
            .zip(self.mins.iter().zip(&self.maxs))
        {
            match range(lo, hi) {
                Some(range) => {
                    for (d, &x) in dst.iter_mut().zip(src) {
                        *d = (x - lo) / range;
                    }
                }
                None => dst.fill(0.5),
            }
        }
    }
}

/// The width `hi - lo` of a usable feature range, or `None` for a
/// degenerate (constant, non-finite, or never-fitted) one, which the
/// transforms map to the interval midpoint instead of producing NaN/Inf
/// that would poison every downstream weight.
fn range(lo: f64, hi: f64) -> Option<f64> {
    (lo.is_finite() && hi.is_finite() && hi > lo).then_some(hi - lo)
}

/// Minimax scaler for a scalar target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TargetScaler {
    min: f64,
    max: f64,
}

impl TargetScaler {
    /// Fits to observed target values. Non-finite values are ignored (a
    /// faulty simulator must not poison the scale of every good sample);
    /// if no finite value remains the scaler degenerates to the constant
    /// range `[0, 0]`, which [`TargetScaler::scale`] maps to `0.5`.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn fit(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "cannot fit scaler to no data");
        let finite = values.iter().copied().filter(|v| v.is_finite());
        let (min, max) = finite.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
            (lo.min(v), hi.max(v))
        });
        if min.is_finite() && max.is_finite() {
            Self { min, max }
        } else {
            Self { min: 0.0, max: 0.0 }
        }
    }

    /// Serializes the fitted range to a JSON [`Value`].
    pub fn to_json_value(&self) -> Value {
        Value::Object(vec![
            ("min".into(), Value::num(self.min)),
            ("max".into(), Value::num(self.max)),
        ])
    }

    /// Deserializes a range written by [`TargetScaler::to_json_value`].
    pub fn from_json_value(value: &Value) -> Result<Self, JsonError> {
        let min = value.get("min")?.as_f64()?;
        let max = value.get("max")?.as_f64()?;
        if min > max {
            return Err(JsonError::custom("invalid target range"));
        }
        Ok(Self { min, max })
    }

    /// Scales a raw target into `[0, 1]` (`0.5` for a constant or
    /// degenerate range).
    pub fn scale(&self, value: f64) -> f64 {
        if self.max > self.min && (self.max - self.min).is_finite() {
            (value - self.min) / (self.max - self.min)
        } else {
            0.5
        }
    }

    /// Maps a normalized prediction back to the raw range.
    pub fn unscale(&self, normalized: f64) -> f64 {
        if self.max > self.min && (self.max - self.min).is_finite() {
            self.min + normalized * (self.max - self.min)
        } else {
            self.min
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transform_maps_bounds_to_unit_interval() {
        let rows = [vec![0.0, 10.0], vec![4.0, 30.0], vec![2.0, 20.0]];
        let scaler = MinMaxScaler::fit(rows.iter().map(|r| r.as_slice()));
        assert_eq!(scaler.transform(&[0.0, 10.0]), vec![0.0, 0.0]);
        assert_eq!(scaler.transform(&[4.0, 30.0]), vec![1.0, 1.0]);
        assert_eq!(scaler.transform(&[2.0, 20.0]), vec![0.5, 0.5]);
    }

    #[test]
    fn constant_dimension_maps_to_half() {
        let rows = [vec![3.0], vec![3.0]];
        let scaler = MinMaxScaler::fit(rows.iter().map(|r| r.as_slice()));
        assert_eq!(scaler.transform(&[3.0]), vec![0.5]);
    }

    #[test]
    fn target_round_trip() {
        let scaler = TargetScaler::fit(&[0.2, 1.4, 0.8]);
        for v in [0.2, 0.5, 1.4] {
            assert!((scaler.unscale(scaler.scale(v)) - v).abs() < 1e-12);
        }
        assert_eq!(scaler.scale(0.2), 0.0);
        assert_eq!(scaler.scale(1.4), 1.0);
    }

    #[test]
    fn non_finite_targets_are_ignored_by_fit() {
        let scaler = TargetScaler::fit(&[0.2, f64::NAN, 1.4, f64::INFINITY, 0.8]);
        assert_eq!(scaler.scale(0.2), 0.0);
        assert_eq!(scaler.scale(1.4), 1.0);
        // All-non-finite data degenerates to the midpoint, never NaN.
        let degenerate = TargetScaler::fit(&[f64::NAN, f64::NEG_INFINITY]);
        assert_eq!(degenerate.scale(7.0), 0.5);
        assert!(degenerate.unscale(0.3).is_finite());
    }

    #[test]
    fn non_finite_feature_bounds_map_to_midpoint() {
        let rows = [vec![f64::NAN, 1.0], vec![f64::NAN, 3.0]];
        let scaler = MinMaxScaler::fit(rows.iter().map(|r| r.as_slice()));
        let out = scaler.transform(&[5.0, 2.0]);
        assert!(out.iter().all(|v| v.is_finite()), "got {out:?}");
        assert_eq!(out[1], 0.5);
    }

    #[test]
    fn from_bounds_matches_fit() {
        let a = MinMaxScaler::from_bounds(vec![0.0, 10.0], vec![4.0, 30.0]);
        let rows = [vec![0.0, 10.0], vec![4.0, 30.0]];
        let b = MinMaxScaler::fit(rows.iter().map(|r| r.as_slice()));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "min exceeds max")]
    fn inverted_bounds_panic() {
        MinMaxScaler::from_bounds(vec![1.0], vec![0.0]);
    }

    #[test]
    fn json_round_trips_exactly() {
        let rows = [vec![0.1, 10.0], vec![0.7, 30.0]];
        let scaler = MinMaxScaler::fit(rows.iter().map(|r| r.as_slice()));
        let back = MinMaxScaler::from_json_value(
            &Value::parse(&scaler.to_json_value().to_json()).unwrap(),
        )
        .unwrap();
        assert_eq!(scaler, back);

        let target = TargetScaler::fit(&[0.2, 1.4]);
        let back = TargetScaler::from_json_value(
            &Value::parse(&target.to_json_value().to_json()).unwrap(),
        )
        .unwrap();
        assert_eq!(target, back);
        assert!(
            TargetScaler::from_json_value(&Value::parse("{\"min\":2.0,\"max\":1.0}").unwrap())
                .is_err()
        );
    }
}
