//! Design spaces: ordered parameter sets, point indexing, and encoding.
//!
//! A [`DesignSpace`] spans the cross product of its parameters' levels.
//! Every point has a stable index in `0..size()` (mixed-radix order), which
//! is what the samplers draw from; [`DesignSpace::encode`] turns a point
//! into the normalized feature vector the networks consume (§3.3).

// User-reachable failures must surface as typed `SpaceError`s, not
// panics; the lint holds this file to that (tests opt back out).
#![deny(clippy::unwrap_used)]

use crate::param::{Param, ParamKind, ParamValue};
use std::sync::Arc;

/// One configuration: a level index per parameter.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DesignPoint(pub Vec<usize>);

impl DesignPoint {
    /// Level index chosen for parameter `p`.
    pub fn level(&self, p: usize) -> usize {
        self.0[p]
    }
}

/// Errors constructing or querying a design space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpaceError {
    /// A space needs at least one parameter.
    Empty,
    /// A linked parameter referenced itself or a later parameter.
    BadParent {
        /// Offending parameter index.
        param: usize,
    },
    /// A linked parameter's choice rows don't match its parent's levels.
    ChoiceRowMismatch {
        /// Offending parameter index.
        param: usize,
        /// Rows provided.
        rows: usize,
        /// Parent's level count.
        parent_levels: usize,
    },
    /// A point index at or beyond [`DesignSpace::size`].
    IndexOutOfRange {
        /// The offending index.
        index: usize,
        /// The space's size.
        size: usize,
    },
    /// A point with the wrong number of levels for this space.
    ArityMismatch {
        /// Levels the point carries.
        got: usize,
        /// Parameters the space has.
        want: usize,
    },
    /// A point level at or beyond its parameter's level count.
    LevelOutOfRange {
        /// The offending parameter's name.
        param: String,
        /// The level requested.
        level: usize,
        /// Levels the parameter has.
        levels: usize,
    },
    /// No parameter has the requested name.
    NoSuchParam {
        /// The name looked up.
        name: String,
    },
    /// The named parameter has no numeric value.
    NotQuantitative {
        /// The parameter's name.
        name: String,
    },
    /// The named parameter has no categorical value.
    NotNominal {
        /// The parameter's name.
        name: String,
    },
}

impl std::fmt::Display for SpaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpaceError::Empty => write!(f, "design space has no parameters"),
            SpaceError::BadParent { param } => {
                write!(f, "parameter {param} links to itself or a later parameter")
            }
            SpaceError::ChoiceRowMismatch {
                param,
                rows,
                parent_levels,
            } => write!(
                f,
                "parameter {param} has {rows} choice rows but its parent has {parent_levels} levels"
            ),
            SpaceError::IndexOutOfRange { index, size } => {
                write!(f, "index {index} out of space ({size} points)")
            }
            SpaceError::ArityMismatch { got, want } => {
                write!(
                    f,
                    "point arity mismatch: {got} levels for {want} parameters"
                )
            }
            SpaceError::LevelOutOfRange {
                param,
                level,
                levels,
            } => write!(
                f,
                "level {level} out of range for {param} ({levels} levels)"
            ),
            SpaceError::NoSuchParam { name } => write!(f, "no parameter named {name}"),
            SpaceError::NotQuantitative { name } => {
                write!(f, "parameter {name} is not quantitative")
            }
            SpaceError::NotNominal { name } => write!(f, "parameter {name} is not nominal"),
        }
    }
}

impl std::error::Error for SpaceError {}

/// An architectural design space (e.g. Table 4.1 or 4.2).
///
/// The tables are immutable once built and shared by every clone, so
/// cloning a space (each oracle and served model holds one) costs a
/// refcount bump per table.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpace {
    params: Arc<[Param]>,
    /// Per-parameter minimax range `(lo, hi)` over the space, precomputed
    /// at construction so encoding a point does not re-fold the level
    /// lists (the batched sweep encodes millions of points). `(0, 1)` for
    /// parameters whose encoding doesn't scale (nominal, boolean).
    ranges: Arc<[(f64, f64)]>,
    /// Mixed-radix stride per parameter: `level(index, p) =
    /// (index / strides[p]) % params[p].levels()`. Lets the hot sweep path
    /// encode straight from an index without materializing a
    /// [`DesignPoint`].
    strides: Arc<[usize]>,
}

impl DesignSpace {
    /// Builds and validates a space from its parameters.
    ///
    /// # Errors
    ///
    /// Returns a [`SpaceError`] if the space is empty or a linked
    /// parameter's structure is inconsistent.
    pub fn new(params: Vec<Param>) -> Result<Self, SpaceError> {
        if params.is_empty() {
            return Err(SpaceError::Empty);
        }
        for (i, p) in params.iter().enumerate() {
            if let ParamKind::LinkedCardinal { parent, choices } = p.kind() {
                if *parent >= i {
                    return Err(SpaceError::BadParent { param: i });
                }
                let parent_levels = params[*parent].levels();
                if choices.len() != parent_levels {
                    return Err(SpaceError::ChoiceRowMismatch {
                        param: i,
                        rows: choices.len(),
                        parent_levels,
                    });
                }
            }
        }
        let ranges = params
            .iter()
            .map(|p| match p.kind() {
                ParamKind::Cardinal(v) => fold_range(v.iter().copied()),
                ParamKind::LinkedCardinal { choices, .. } => {
                    fold_range(choices.iter().flatten().copied())
                }
                ParamKind::Nominal(_) | ParamKind::Boolean => (0.0, 1.0),
            })
            .collect();
        let mut stride = 1;
        let strides = params
            .iter()
            .map(|p| {
                let s = stride;
                stride *= p.levels();
                s
            })
            .collect();
        Ok(Self {
            params: params.into(),
            ranges,
            strides,
        })
    }

    /// The parameters, in declaration order.
    pub fn params(&self) -> &[Param] {
        &self.params
    }

    /// Total number of design points (the cross product of level counts).
    pub fn size(&self) -> usize {
        self.params.iter().map(Param::levels).product()
    }

    /// Decodes a point from its index in `0..size()` (mixed-radix,
    /// first parameter fastest), or
    /// [`SpaceError::IndexOutOfRange`] beyond the space.
    pub fn try_point(&self, index: usize) -> Result<DesignPoint, SpaceError> {
        if index >= self.size() {
            return Err(SpaceError::IndexOutOfRange {
                index,
                size: self.size(),
            });
        }
        let mut rest = index;
        let levels = self
            .params
            .iter()
            .map(|p| {
                let l = p.levels();
                let choice = rest % l;
                rest /= l;
                choice
            })
            .collect();
        Ok(DesignPoint(levels))
    }

    /// Decodes a point from its index in `0..size()` (mixed-radix,
    /// first parameter fastest).
    ///
    /// # Panics
    ///
    /// Panics if `index >= size()` ([`DesignSpace::try_point`] returns the
    /// condition as a typed error instead).
    pub fn point(&self, index: usize) -> DesignPoint {
        self.try_point(index).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Encodes a point back to its index, or a typed error if the point's
    /// shape or any level is out of range.
    pub fn try_index(&self, point: &DesignPoint) -> Result<usize, SpaceError> {
        if point.0.len() != self.params.len() {
            return Err(SpaceError::ArityMismatch {
                got: point.0.len(),
                want: self.params.len(),
            });
        }
        let mut index = 0;
        let mut stride = 1;
        for (p, &level) in self.params.iter().zip(&point.0) {
            if level >= p.levels() {
                return Err(SpaceError::LevelOutOfRange {
                    param: p.name().to_owned(),
                    level,
                    levels: p.levels(),
                });
            }
            index += level * stride;
            stride *= p.levels();
        }
        Ok(index)
    }

    /// Encodes a point back to its index.
    ///
    /// # Panics
    ///
    /// Panics if the point's shape or any level is out of range
    /// ([`DesignSpace::try_index`] returns the condition as a typed error
    /// instead).
    pub fn index(&self, point: &DesignPoint) -> usize {
        self.try_index(point).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The concrete value parameter `p` takes at `point`.
    pub fn value(&self, point: &DesignPoint, p: usize) -> ParamValue {
        let level = point.level(p);
        match self.params[p].kind() {
            ParamKind::Cardinal(v) => ParamValue::Number(v[level]),
            ParamKind::Nominal(v) => ParamValue::Choice(v[level].clone()),
            ParamKind::Boolean => ParamValue::Flag(level == 1),
            ParamKind::LinkedCardinal { parent, choices } => {
                ParamValue::Number(choices[point.level(*parent)][level])
            }
        }
    }

    /// Looks up a parameter's index by name.
    pub fn param_index(&self, name: &str) -> Option<usize> {
        self.params.iter().position(|p| p.name() == name)
    }

    /// The numeric value of the named parameter at `point`, or a typed
    /// error if no parameter has that name or it is not quantitative.
    pub fn try_number(&self, point: &DesignPoint, name: &str) -> Result<f64, SpaceError> {
        let p = self
            .param_index(name)
            .ok_or_else(|| SpaceError::NoSuchParam {
                name: name.to_owned(),
            })?;
        self.value(point, p)
            .as_number()
            .ok_or_else(|| SpaceError::NotQuantitative {
                name: name.to_owned(),
            })
    }

    /// The numeric value of the named parameter at `point`.
    ///
    /// # Panics
    ///
    /// Panics if no parameter has that name or it is not quantitative
    /// ([`DesignSpace::try_number`] returns the condition as a typed error
    /// instead).
    pub fn number(&self, point: &DesignPoint, name: &str) -> f64 {
        self.try_number(point, name)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The categorical value of the named parameter at `point`, or a typed
    /// error if no parameter has that name or it is not nominal.
    pub fn try_choice(&self, point: &DesignPoint, name: &str) -> Result<String, SpaceError> {
        let p = self
            .param_index(name)
            .ok_or_else(|| SpaceError::NoSuchParam {
                name: name.to_owned(),
            })?;
        self.value(point, p)
            .as_choice()
            .map(str::to_owned)
            .ok_or_else(|| SpaceError::NotNominal {
                name: name.to_owned(),
            })
    }

    /// The categorical value of the named parameter at `point`.
    ///
    /// # Panics
    ///
    /// Panics if no parameter has that name or it is not nominal
    /// ([`DesignSpace::try_choice`] returns the condition as a typed error
    /// instead).
    pub fn choice(&self, point: &DesignPoint, name: &str) -> String {
        self.try_choice(point, name)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Width of the encoded feature vector.
    pub fn encoded_width(&self) -> usize {
        self.params.iter().map(|p| p.kind().encoded_width()).sum()
    }

    /// A stable 64-bit fingerprint of the space's structure: parameter
    /// names, kinds, and every level value, in declaration order (FNV-1a
    /// over the exact bits). Two spaces fingerprint equal iff they index
    /// and encode identically, so persisted model artifacts stamped with
    /// this value fail loudly instead of mispredicting when a parameter
    /// is added, reordered, or its levels change.
    pub fn fingerprint(&self) -> u64 {
        use archpredict_stats::hash::{fnv1a_64_extend, FNV_OFFSET};
        let mut h = FNV_OFFSET;
        let fold_f64s = |h: &mut u64, values: &mut dyn Iterator<Item = f64>| {
            for v in values {
                *h = fnv1a_64_extend(*h, &v.to_bits().to_le_bytes());
            }
        };
        for p in self.params.iter() {
            h = fnv1a_64_extend(h, p.name().as_bytes());
            // NUL separates name from payload (parameter names never
            // contain it), so ("ab", "c") and ("a", "bc") differ.
            h = fnv1a_64_extend(h, &[0]);
            match p.kind() {
                ParamKind::Cardinal(v) => {
                    h = fnv1a_64_extend(h, b"cardinal");
                    fold_f64s(&mut h, &mut v.iter().copied());
                }
                ParamKind::Nominal(v) => {
                    h = fnv1a_64_extend(h, b"nominal");
                    for s in v {
                        h = fnv1a_64_extend(h, s.as_bytes());
                        h = fnv1a_64_extend(h, &[0]);
                    }
                }
                ParamKind::Boolean => {
                    h = fnv1a_64_extend(h, b"boolean");
                }
                ParamKind::LinkedCardinal { parent, choices } => {
                    h = fnv1a_64_extend(h, b"linked");
                    h = fnv1a_64_extend(h, &(*parent as u64).to_le_bytes());
                    for row in choices {
                        h = fnv1a_64_extend(h, &(row.len() as u64).to_le_bytes());
                        fold_f64s(&mut h, &mut row.iter().copied());
                    }
                }
            }
        }
        h
    }

    /// Iterates over every point of the space in index order.
    ///
    /// # Example
    ///
    /// ```
    /// use archpredict::{DesignSpace, Param};
    /// let space = DesignSpace::new(vec![Param::boolean("x"), Param::boolean("y")])?;
    /// assert_eq!(space.iter().count(), 4);
    /// # Ok::<(), archpredict::SpaceError>(())
    /// ```
    pub fn iter(&self) -> impl Iterator<Item = DesignPoint> + '_ {
        (0..self.size()).map(|i| self.point(i))
    }

    /// Encodes `point` per §3.3: cardinal/linked values minimax-scaled to
    /// `[0, 1]` using the parameter's full range over the space, nominals
    /// one-hot, booleans 0/1.
    pub fn encode(&self, point: &DesignPoint) -> Vec<f64> {
        let mut features = Vec::with_capacity(self.encoded_width());
        self.encode_into(point, &mut features);
        features
    }

    /// Encodes `point`, *appending* its `encoded_width()` features to
    /// `features` — the building block for row-major feature matrices in
    /// batched inference (no allocation per point once the buffer is
    /// warm). Bit-for-bit identical to [`DesignSpace::encode`].
    pub fn encode_into(&self, point: &DesignPoint, features: &mut Vec<f64>) {
        self.encode_levels_into(|p| point.level(p), features);
    }

    /// Encodes the point at `index` straight from its mixed-radix
    /// decomposition, *appending* its `encoded_width()` features — the hot
    /// path of batched sweeps: no [`DesignPoint`] is materialized and no
    /// per-point allocation happens. Bit-for-bit identical to
    /// `encode_into(&self.point(index), ..)`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= size()`.
    pub fn encode_index_into(&self, index: usize, features: &mut Vec<f64>) {
        assert!(
            index < self.size(),
            "index {index} out of space ({} points)",
            self.size()
        );
        self.encode_levels_into(
            |p| (index / self.strides[p]) % self.params[p].levels(),
            features,
        );
    }

    /// Shared encoding body over a level accessor, using the precomputed
    /// per-parameter minimax ranges.
    fn encode_levels_into(&self, level: impl Fn(usize) -> usize, features: &mut Vec<f64>) {
        for (p, param) in self.params.iter().enumerate() {
            let (lo, hi) = self.ranges[p];
            match param.kind() {
                ParamKind::Cardinal(v) => {
                    features.push(minimax(v[level(p)], lo, hi));
                }
                ParamKind::Nominal(v) => {
                    for s in 0..v.len() {
                        features.push(if s == level(p) { 1.0 } else { 0.0 });
                    }
                }
                ParamKind::Boolean => features.push(level(p) as f64),
                ParamKind::LinkedCardinal { parent, choices } => {
                    features.push(minimax(choices[level(*parent)][level(p)], lo, hi));
                }
            }
        }
    }
}

/// `(lo, hi)` of a level list, the fold [`minimax`] scaling is defined
/// over. Computed once per parameter at space construction.
fn fold_range(levels: impl Iterator<Item = f64>) -> (f64, f64) {
    levels.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
        (lo.min(v), hi.max(v))
    })
}

fn minimax(value: f64, min: f64, max: f64) -> f64 {
    if max > min {
        (value - min) / (max - min)
    } else {
        0.5
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn toy_space() -> DesignSpace {
        DesignSpace::new(vec![
            Param::cardinal("rob", [96.0, 128.0, 160.0]),
            Param::nominal("policy", ["WT", "WB"]),
            Param::boolean("prefetch"),
            Param::linked_cardinal(
                "regs",
                0,
                vec![vec![64.0, 80.0], vec![80.0, 96.0], vec![96.0, 112.0]],
            ),
        ])
        .unwrap()
    }

    #[test]
    fn size_is_cross_product() {
        assert_eq!(toy_space().size(), 3 * 2 * 2 * 2);
    }

    #[test]
    fn index_point_round_trip() {
        let space = toy_space();
        for i in 0..space.size() {
            let p = space.point(i);
            assert_eq!(space.index(&p), i);
        }
    }

    #[test]
    fn values_resolve_linked_parameters() {
        let space = toy_space();
        // rob level 2 (160), regs level 1 -> 112.
        let point = DesignPoint(vec![2, 0, 0, 1]);
        assert_eq!(space.number(&point, "rob"), 160.0);
        assert_eq!(space.number(&point, "regs"), 112.0);
        assert_eq!(space.choice(&point, "policy"), "WT");
        // rob level 0 (96), regs level 1 -> 80.
        let point = DesignPoint(vec![0, 1, 1, 1]);
        assert_eq!(space.number(&point, "regs"), 80.0);
        assert_eq!(space.choice(&point, "policy"), "WB");
    }

    #[test]
    fn encoding_layout_matches_figure_3_4() {
        let space = toy_space();
        assert_eq!(space.encoded_width(), 1 + 2 + 1 + 1);
        let point = DesignPoint(vec![1, 1, 0, 0]);
        let f = space.encode(&point);
        assert_eq!(f.len(), 5);
        assert_eq!(f[0], 0.5); // 128 in [96, 160]
        assert_eq!(&f[1..3], &[0.0, 1.0]); // one-hot WB
        assert_eq!(f[3], 0.0); // prefetch off
                               // regs=80 within global range [64, 112].
        assert!((f[4] - (80.0 - 64.0) / (112.0 - 64.0)).abs() < 1e-12);
    }

    #[test]
    fn iter_visits_every_point_in_order() {
        let space = toy_space();
        let points: Vec<DesignPoint> = space.iter().collect();
        assert_eq!(points.len(), space.size());
        for (i, p) in points.iter().enumerate() {
            assert_eq!(space.index(p), i);
        }
    }

    #[test]
    fn encoding_is_injective_over_space() {
        let space = toy_space();
        let mut seen = std::collections::HashSet::new();
        for i in 0..space.size() {
            let f = space.encode(&space.point(i));
            let key: Vec<u64> = f.iter().map(|x| x.to_bits()).collect();
            assert!(seen.insert(key), "duplicate encoding at index {i}");
        }
    }

    #[test]
    fn fingerprint_tracks_structure() {
        let space = toy_space();
        assert_eq!(space.fingerprint(), toy_space().fingerprint());
        assert_eq!(space.fingerprint(), space.clone().fingerprint());
        // Renaming, reordering, or changing one level value all change it.
        let renamed = DesignSpace::new(vec![
            Param::cardinal("rob2", [96.0, 128.0, 160.0]),
            Param::nominal("policy", ["WT", "WB"]),
            Param::boolean("prefetch"),
            Param::linked_cardinal(
                "regs",
                0,
                vec![vec![64.0, 80.0], vec![80.0, 96.0], vec![96.0, 112.0]],
            ),
        ])
        .unwrap();
        assert_ne!(space.fingerprint(), renamed.fingerprint());
        let tweaked = DesignSpace::new(vec![
            Param::cardinal("rob", [96.0, 128.0, 161.0]),
            Param::nominal("policy", ["WT", "WB"]),
            Param::boolean("prefetch"),
            Param::linked_cardinal(
                "regs",
                0,
                vec![vec![64.0, 80.0], vec![80.0, 96.0], vec![96.0, 112.0]],
            ),
        ])
        .unwrap();
        assert_ne!(space.fingerprint(), tweaked.fingerprint());
        // Name/kind boundaries are framed: ("ab"+"c") != ("a"+"bc").
        let a = DesignSpace::new(vec![Param::nominal("p", ["ab", "c"])]).unwrap();
        let b = DesignSpace::new(vec![Param::nominal("p", ["a", "bc"])]).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn validation_errors() {
        assert_eq!(DesignSpace::new(vec![]).unwrap_err(), SpaceError::Empty);
        let err =
            DesignSpace::new(vec![Param::linked_cardinal("r", 0, vec![vec![1.0]])]).unwrap_err();
        assert_eq!(err, SpaceError::BadParent { param: 0 });
        let err = DesignSpace::new(vec![
            Param::cardinal("a", [1.0, 2.0]),
            Param::linked_cardinal("r", 0, vec![vec![1.0]]),
        ])
        .unwrap_err();
        assert!(matches!(err, SpaceError::ChoiceRowMismatch { .. }));
    }

    #[test]
    #[should_panic(expected = "out of space")]
    fn out_of_range_index_panics() {
        let space = toy_space();
        space.point(space.size());
    }

    #[test]
    fn queries_surface_typed_errors() {
        let space = toy_space();
        assert_eq!(
            space.try_point(space.size()),
            Err(SpaceError::IndexOutOfRange {
                index: space.size(),
                size: space.size(),
            })
        );
        assert_eq!(
            space.try_index(&DesignPoint(vec![0, 0])),
            Err(SpaceError::ArityMismatch { got: 2, want: 4 })
        );
        assert_eq!(
            space.try_index(&DesignPoint(vec![0, 9, 0, 0])),
            Err(SpaceError::LevelOutOfRange {
                param: "policy".into(),
                level: 9,
                levels: 2,
            })
        );
        let point = space.point(0);
        assert_eq!(
            space.try_number(&point, "nope"),
            Err(SpaceError::NoSuchParam {
                name: "nope".into()
            })
        );
        assert_eq!(
            space.try_number(&point, "policy"),
            Err(SpaceError::NotQuantitative {
                name: "policy".into()
            })
        );
        assert_eq!(
            space.try_choice(&point, "rob"),
            Err(SpaceError::NotNominal { name: "rob".into() })
        );
        // Happy paths agree with the panicking accessors.
        assert_eq!(space.try_point(5).unwrap(), space.point(5));
        assert_eq!(space.try_index(&point).unwrap(), 0);
        assert_eq!(space.try_number(&point, "rob").unwrap(), 96.0);
        assert_eq!(space.try_choice(&point, "policy").unwrap(), "WT");
    }
}
