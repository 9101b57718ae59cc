//! Fully connected feed-forward networks trained by backpropagation.
//!
//! Implements exactly the model of the paper's §3.1: weighted edges between
//! successive layers, sigmoid hidden units, gradient descent on squared
//! error with a momentum term (Equations 3.1/3.2), and near-zero uniform
//! weight initialization (so the network starts as an almost-linear model
//! and grows non-linearity as weights grow).

use crate::activation::Activation;
use archpredict_stats::json::{JsonError, Value};
use archpredict_stats::rng::Xoshiro256;

/// Half-width of the uniform weight initialization interval (paper §3.1:
/// weights start in `[-0.01, 0.01]`).
pub const INIT_WEIGHT_RANGE: f64 = 0.01;

fn json_err(message: &str) -> JsonError {
    JsonError::custom(message)
}

/// Lane width of the batch kernel's register tiles
/// ([`Layer::forward_batch_t`]): eight independent f64 accumulator chains,
/// one per point. Eight lanes fill four SSE2 registers (or two AVX ones)
/// when LLVM autovectorizes, and — just as importantly on any target —
/// break the 4-cycle floating-point add latency chain of a scalar dot
/// product into eight independent chains that saturate the FMA pipes. The
/// value is a tuning constant, not a correctness parameter: the kernel
/// preserves the exact per-unit summation order at any lane width.
const LANES: usize = 8;

/// Output units processed together per register tile of the batch kernel
/// ([`Layer::forward_batch_t`]). One 8-lane accumulator row per unit is a
/// single vector-add dependency chain (latency-bound); four units give
/// four independent chains that share each activation load, which is what
/// moves the kernel from add-latency-bound to FLOP-throughput-bound.
/// Tuning constant only — per-unit summation order is unchanged.
const UNIT_TILE: usize = 4;

/// Points per block of the batched forward pass: [`Network::predict_batch`]
/// and the ensemble's batch paths run at most this many points through
/// `Network::forward_block` at a time, and `core::infer` encodes its
/// sweeps in chunks of this size, so each chunk is one block. It bounds a
/// worker's activation-matrix scratch at `2 * max_width * BLOCK_POINTS`
/// floats regardless of sweep size.
pub const BLOCK_POINTS: usize = 256;

/// Transposes a row-major matrix of `cols` columns into `out`, which must
/// have the same length: `out[c * rows + r] = matrix[r * cols + c]`.
pub(crate) fn transpose_into(matrix: &[f64], cols: usize, out: &mut [f64]) {
    assert_eq!(matrix.len(), out.len(), "transpose size");
    if matrix.is_empty() {
        return;
    }
    let rows = matrix.len() / cols;
    for (c, column) in out.chunks_exact_mut(rows).enumerate() {
        for (dst, src) in column.iter_mut().zip(matrix[c..].iter().step_by(cols)) {
            *dst = *src;
        }
    }
}

/// Transposes a row-major matrix of `cols` columns into a new vector.
pub(crate) fn transpose(matrix: &[f64], cols: usize) -> Vec<f64> {
    let mut out = vec![0.0; matrix.len()];
    transpose_into(matrix, cols, &mut out);
    out
}

/// One fully connected layer, stored **input-major**: `(inputs + 1) x
/// outputs` weights, where row `i` holds input `i`'s weight into every
/// output unit and the final row holds the biases. A row is everything one
/// input contributes to the layer, so the single-example forward pass and
/// the weight update are contiguous vector operations over the outputs.
/// The persisted format is output-major: [`Layer::to_json_value`] and
/// [`Layer::from_json_value`] transpose at the boundary.
#[derive(Debug, Clone, PartialEq)]
struct Layer {
    inputs: usize,
    outputs: usize,
    activation: Activation,
    /// Input-major `[input + bias][output]`.
    weights: Vec<f64>,
    /// Previous update, for momentum (Eq. 3.2), laid out like `weights`.
    velocity: Vec<f64>,
}

impl Layer {
    /// Draws the weights in output-major order (one output's inputs, then
    /// its bias, then the next output) and stores them input-major.
    fn new(inputs: usize, outputs: usize, activation: Activation, rng: &mut Xoshiro256) -> Self {
        let n = outputs * (inputs + 1);
        let mut weights = vec![0.0; n];
        for o in 0..outputs {
            for w in weights[o..].iter_mut().step_by(outputs) {
                *w = rng.range_f64(-INIT_WEIGHT_RANGE, INIT_WEIGHT_RANGE);
            }
        }
        Self {
            inputs,
            outputs,
            activation,
            weights,
            velocity: vec![0.0; n],
        }
    }

    /// Serializes the layer with its weights and velocities output-major
    /// (`[output][input + bias]`), the persisted layout.
    fn to_json_value(&self) -> Value {
        Value::Object(vec![
            ("inputs".into(), Value::num(self.inputs as f64)),
            ("outputs".into(), Value::num(self.outputs as f64)),
            (
                "activation".into(),
                Value::Str(self.activation.name().into()),
            ),
            (
                "weights".into(),
                Value::from_f64s(&transpose(&self.weights, self.outputs)),
            ),
            (
                "velocity".into(),
                Value::from_f64s(&transpose(&self.velocity, self.outputs)),
            ),
        ])
    }

    fn from_json_value(value: &Value) -> Result<Self, JsonError> {
        let inputs = value.get("inputs")?.as_usize()?;
        let outputs = value.get("outputs")?.as_usize()?;
        let activation = Activation::from_name(value.get("activation")?.as_str()?)
            .ok_or_else(|| json_err("unknown activation"))?;
        let weights = value.get("weights")?.as_f64_vec()?;
        let velocity = value.get("velocity")?.as_f64_vec()?;
        let n = outputs * (inputs + 1);
        if weights.len() != n || velocity.len() != n {
            return Err(json_err("layer weight count mismatch"));
        }
        if inputs == 0 || outputs == 0 {
            return Err(json_err("layer sizes must be positive"));
        }
        Ok(Self {
            inputs,
            outputs,
            activation,
            weights: transpose(&weights, inputs + 1),
            velocity: transpose(&velocity, inputs + 1),
        })
    }

    /// Index of input `i`'s weight into output `o` (`i == inputs` is the
    /// bias).
    fn at(&self, i: usize, o: usize) -> usize {
        i * self.outputs + o
    }

    /// Output `o`'s weights in ascending input order, its bias last.
    fn column(&self, o: usize) -> impl Iterator<Item = &f64> {
        self.weights[o..].iter().step_by(self.outputs)
    }

    /// One example's forward pass for a training step
    /// ([`Network::train_example`]) into a caller-provided slice of exactly
    /// `outputs` elements — no allocation, bit-for-bit the arithmetic of
    /// [`Self::forward_naive_into`]. Inference never comes here: it runs
    /// blocks ([`Self::forward_batch_t`]).
    ///
    /// The net inputs start as a copy of the bias row, then each input
    /// adds its row times its activation: one contiguous multiply-add over
    /// the outputs per input. Every output still sums bias first, then
    /// inputs in ascending order, so the results are exactly the naive
    /// loop's. A one-output layer (the regression head) is a single row,
    /// so it runs as one dot product instead.
    ///
    /// The length checks are hard `assert_eq!`s, not `debug_assert_eq!`s:
    /// a too-short output slice in a release build must abort rather than
    /// silently compute (and hand back) fewer outputs than the layer has.
    fn forward_into(&self, input: &[f64], output: &mut [f64]) {
        assert_eq!(output.len(), self.outputs, "output slice length");
        assert_eq!(input.len(), self.inputs, "input slice length");
        let (rows, bias) = self.weights.split_at(self.inputs * self.outputs);
        if let [out] = output {
            let mut net = bias[0];
            for (w, x) in rows.iter().zip(input) {
                net += w * x;
            }
            *out = net;
        } else {
            output.copy_from_slice(bias);
            for (row, &x) in rows.chunks_exact(self.outputs).zip(input) {
                for (net, w) in output.iter_mut().zip(row) {
                    *net += w * x;
                }
            }
        }
        self.activation.apply_slice(output);
    }

    /// The textbook one-output-at-a-time forward loop, kept as the
    /// reference the blocked kernels are property-tested against.
    fn forward_naive_into(&self, input: &[f64], output: &mut [f64]) {
        assert_eq!(output.len(), self.outputs, "output slice length");
        assert_eq!(input.len(), self.inputs, "input slice length");
        for (o, out) in output.iter_mut().enumerate() {
            let mut net = self.weights[self.at(self.inputs, o)]; // bias
            for (w, x) in self.column(o).zip(input) {
                net += w * x;
            }
            *out = self.activation.apply(net);
        }
    }

    /// Forward pass over a **feature-major** activation matrix: `input_t`
    /// holds `inputs` rows of `n` points each (`input_t[i * n + p]` is
    /// feature `i` of point `p`), `out_t` receives `outputs` rows in the
    /// same layout. This is the matrix-matrix kernel behind
    /// [`Network::forward_block`].
    ///
    /// Net inputs are accumulated in register tiles of [`UNIT_TILE`]
    /// output units × [`LANES`] lanes: the tile keeps one row of eight
    /// accumulators per unit (initialized to that unit's bias) and, for
    /// each input in ascending order, reads the tile's four adjacent
    /// weights from that input's row and adds `w[i][u] * x[i][lane]` —
    /// each weight is a broadcast scalar, the eight activations are one
    /// contiguous load shared by all four units, and each `(unit, lane)`
    /// chain is exactly the scalar summation order, so the result is
    /// bit-for-bit [`Self::forward_naive_into`] per point. Ragged edges
    /// (`outputs % UNIT_TILE` units, `n % LANES` points) run the same
    /// order with fewer units / one point at a time. The activation is
    /// then applied in one contiguous elementwise pass over the whole
    /// output matrix ([`Activation::apply_slice`]) — same per-element
    /// arithmetic, but the sigmoid's polynomial `exp` vectorizes over a
    /// long flat loop instead of per-tile fragments.
    fn forward_batch_t(&self, input_t: &[f64], out_t: &mut [f64], n: usize) {
        assert_eq!(input_t.len(), self.inputs * n, "input matrix size");
        assert_eq!(out_t.len(), self.outputs * n, "output matrix size");
        let (rows, bias) = self.weights.split_at(self.inputs * self.outputs);
        let full_units = self.outputs - self.outputs % UNIT_TILE;
        for (u, oblock) in (0..full_units)
            .step_by(UNIT_TILE)
            .zip(out_t[..full_units * n].chunks_exact_mut(n * UNIT_TILE))
        {
            let &[b0, b1, b2, b3]: &[f64; UNIT_TILE] =
                bias[u..u + UNIT_TILE].try_into().expect("tile biases");
            let (o0, rest) = oblock.split_at_mut(n);
            let (o1, rest) = rest.split_at_mut(n);
            let (o2, o3) = rest.split_at_mut(n);
            let mut p = 0;
            while p + LANES <= n {
                let mut a0 = [b0; LANES];
                let mut a1 = [b1; LANES];
                let mut a2 = [b2; LANES];
                let mut a3 = [b3; LANES];
                for (xrow, wrow) in input_t.chunks_exact(n).zip(rows.chunks_exact(self.outputs)) {
                    let x: &[f64; LANES] = xrow[p..p + LANES].try_into().expect("lane tile");
                    let &[c0, c1, c2, c3]: &[f64; UNIT_TILE] =
                        wrow[u..u + UNIT_TILE].try_into().expect("unit tile");
                    for l in 0..LANES {
                        a0[l] += c0 * x[l];
                        a1[l] += c1 * x[l];
                        a2[l] += c2 * x[l];
                        a3[l] += c3 * x[l];
                    }
                }
                o0[p..p + LANES].copy_from_slice(&a0);
                o1[p..p + LANES].copy_from_slice(&a1);
                o2[p..p + LANES].copy_from_slice(&a2);
                o3[p..p + LANES].copy_from_slice(&a3);
                p += LANES;
            }
            for (k, out) in [o0, o1, o2, o3].into_iter().enumerate() {
                self.net_points_tail(u + k, out, input_t, n, p);
            }
        }
        for (o, out_row) in
            (full_units..self.outputs).zip(out_t[full_units * n..].chunks_exact_mut(n))
        {
            let mut p = 0;
            while p + LANES <= n {
                let mut acc = [bias[o]; LANES];
                for (xrow, wrow) in input_t.chunks_exact(n).zip(rows.chunks_exact(self.outputs)) {
                    let x: &[f64; LANES] = xrow[p..p + LANES].try_into().expect("lane tile");
                    for (a, &xl) in acc.iter_mut().zip(x) {
                        *a += wrow[o] * xl;
                    }
                }
                out_row[p..p + LANES].copy_from_slice(&acc);
                p += LANES;
            }
            self.net_points_tail(o, out_row, input_t, n, p);
        }
        self.activation.apply_slice(out_t);
    }

    /// Scalar tail of [`Self::forward_batch_t`]: net inputs of output `o`
    /// for points `from..n`, in the exact per-point summation order
    /// (activation is applied later over the whole matrix).
    fn net_points_tail(
        &self,
        o: usize,
        out_row: &mut [f64],
        input_t: &[f64],
        n: usize,
        from: usize,
    ) {
        let bias = self.weights[self.at(self.inputs, o)];
        for (p, out) in out_row.iter_mut().enumerate().skip(from) {
            let mut net = bias;
            for (xrow, w) in input_t.chunks_exact(n).zip(self.column(o)) {
                net += w * xrow[p];
            }
            *out = net;
        }
    }
}

/// Caller-owned scratch for allocation-free forward passes.
///
/// Two flat buffers, ping-ponged between layers, and a block's input
/// matrix. The block pass (`Network::forward_block`, behind every
/// prediction) reads the feature-major input matrix that
/// `Network::block_input` sized and the caller filled, and uses the pair
/// as whole feature-major activation *matrices* of up to
/// `max_width * BLOCK_POINTS` floats, ping-ponging one full layer of the
/// block at a time. The input matrix is never written by the layers, so
/// a block can be run again without refilling it. The naive reference
/// ([`Network::predict_into_naive`]) uses the pair as activation vectors
/// of the widest layer. A scratch grows to the largest use it has seen
/// and is reused verbatim afterwards, so a long prediction sweep
/// allocates exactly once per worker. One scratch may be shared across
/// networks of different topologies (it re-sizes as needed).
#[derive(Debug, Clone, Default)]
pub struct PredictScratch {
    input: Vec<f64>,
    a: Vec<f64>,
    b: Vec<f64>,
}

/// A weights + velocity snapshot of a [`Network`], without the scratch and
/// delta buffers a full `clone` would copy. Used by early stopping to
/// remember the best epoch cheaply: `snapshot_into` overwrites a
/// preallocated snapshot in place, so the per-improving-epoch cost is two
/// `memcpy`s and zero allocations after the first.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetworkSnapshot {
    weights: Vec<f64>,
    velocity: Vec<f64>,
}

/// A feed-forward multi-layer perceptron.
///
/// Each layer keeps its weights and momentum velocities input-major (one
/// row per input, biases last), which makes a training step's forward
/// pass and update contiguous over the layer's outputs. Serialization
/// ([`Network::to_json_value`]) writes them in the persisted output-major
/// order, one output's input weights and then its bias.
///
/// # Example
///
/// ```
/// use archpredict_ann::network::Network;
/// use archpredict_stats::rng::Xoshiro256;
///
/// let mut rng = Xoshiro256::seed_from(1);
/// let net = Network::new(&[3, 16, 1], &mut rng);
/// let y = net.predict(&[0.1, 0.5, 0.9]);
/// assert_eq!(y.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    layers: Vec<Layer>,
    /// Activations per layer (including the input), sized to each
    /// layer's width and overwritten in place by every training step.
    scratch: Vec<Vec<f64>>,
    /// Per-layer delta buffers.
    deltas: Vec<Vec<f64>>,
}

impl Network {
    /// Builds a network with the given layer sizes
    /// (`[inputs, hidden..., outputs]`), sigmoid hidden units and linear
    /// outputs, with weights initialized uniformly in ±[`INIT_WEIGHT_RANGE`].
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given or any size is zero.
    pub fn new(sizes: &[usize], rng: &mut Xoshiro256) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        assert!(sizes.iter().all(|&s| s > 0), "layer sizes must be positive");
        let layers: Vec<Layer> = sizes
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let activation = if i + 2 == sizes.len() {
                    Activation::Linear
                } else {
                    Activation::Sigmoid
                };
                Layer::new(w[0], w[1], activation, rng)
            })
            .collect();
        let scratch = sizes.iter().map(|&s| vec![0.0; s]).collect();
        let deltas = sizes[1..].iter().map(|&s| vec![0.0; s]).collect();
        Self {
            layers,
            scratch,
            deltas,
        }
    }

    /// Number of input units.
    pub fn inputs(&self) -> usize {
        self.layers.first().expect("nonempty").inputs
    }

    /// Number of output units.
    pub fn outputs(&self) -> usize {
        self.layers.last().expect("nonempty").outputs
    }

    fn ensure_buffers(&mut self) {
        // After deserialization the skipped buffers are empty; rebuild them.
        if self.scratch.len() != self.layers.len() + 1 {
            let mut sizes = vec![self.layers[0].inputs];
            sizes.extend(self.layers.iter().map(|l| l.outputs));
            self.scratch = sizes.iter().map(|&s| vec![0.0; s]).collect();
            self.deltas = sizes[1..].iter().map(|&s| vec![0.0; s]).collect();
        }
    }

    /// Serializes the network (weights, velocities, topology) to a JSON
    /// [`Value`]. Scratch buffers are rebuilt on load, not stored.
    pub fn to_json_value(&self) -> Value {
        Value::Object(vec![(
            "layers".into(),
            Value::Array(self.layers.iter().map(Layer::to_json_value).collect()),
        )])
    }

    /// Deserializes a network written by [`Network::to_json_value`],
    /// validating topology and rebuilding the scratch buffers.
    pub fn from_json_value(value: &Value) -> Result<Self, JsonError> {
        let layers: Vec<Layer> = value
            .get("layers")?
            .as_array()?
            .iter()
            .map(Layer::from_json_value)
            .collect::<Result<_, _>>()?;
        if layers.is_empty() {
            return Err(json_err("network needs at least one layer"));
        }
        for pair in layers.windows(2) {
            if pair[0].outputs != pair[1].inputs {
                return Err(json_err("layer sizes do not chain"));
            }
        }
        let mut sizes = vec![layers[0].inputs];
        sizes.extend(layers.iter().map(|l| l.outputs));
        Ok(Self {
            layers,
            scratch: sizes.iter().map(|&s| vec![0.0; s]).collect(),
            deltas: sizes[1..].iter().map(|&s| vec![0.0; s]).collect(),
        })
    }

    /// Width of the widest activation vector (input layer included).
    fn max_width(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.outputs)
            .max()
            .unwrap_or(0)
            .max(self.inputs())
    }

    /// Runs one input row forward, as a one-point block of
    /// [`Self::predict_batch`] with a fresh scratch. Sweeps should batch
    /// their rows instead.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from the input layer size.
    pub fn predict(&self, input: &[f64]) -> Vec<f64> {
        assert_eq!(input.len(), self.inputs(), "input dimensionality");
        let mut outputs = Vec::with_capacity(self.outputs());
        self.predict_batch(input, &mut outputs, &mut PredictScratch::default());
        outputs
    }

    /// Sizes `scratch`'s block input matrix for `n` points and returns it
    /// for the caller to fill **feature-major**: `inputs()` rows of `n`
    /// values, feature `i` of point `p` at `[i * n + p]`.
    /// [`Self::forward_block`] then runs the block.
    pub(crate) fn block_input<'s>(
        &self,
        n: usize,
        scratch: &'s mut PredictScratch,
    ) -> &'s mut [f64] {
        scratch.input.resize(self.inputs() * n, 0.0);
        &mut scratch.input
    }

    /// Runs the block of `n` points whose feature-major input matrix
    /// `scratch` holds (see [`Self::block_input`]) through every layer and
    /// returns the output matrix, feature-major: `outputs()` rows of `n`
    /// values. This is the one fast forward pass: every prediction (one
    /// row or a sweep), every ensemble score and the early-stopping
    /// evaluation run through it.
    ///
    /// Whole activation matrices ping-pong between the layers'
    /// register-tiled kernels (`Layer::forward_batch_t`). The lane
    /// dimension of the tiles is the *batch* dimension: each point keeps
    /// its own accumulator chain in the scalar path's exact summation
    /// order, which is what makes the block bit-for-bit identical to
    /// [`Self::predict_into_naive`] per point, at any `n`, while the chains
    /// vectorize. The input matrix is left as it was, so the same block
    /// can be run again (the early-stopping set is, every epoch).
    ///
    /// # Panics
    ///
    /// Panics if the input matrix does not hold `inputs() * n` values.
    pub(crate) fn forward_block<'s>(&self, n: usize, scratch: &'s mut PredictScratch) -> &'s [f64] {
        let PredictScratch { input, a, b } = scratch;
        assert_eq!(input.len(), self.inputs() * n, "block input matrix size");
        let elems = self.max_width() * n;
        if a.len() < elems {
            a.resize(elems, 0.0);
        }
        if b.len() < elems {
            b.resize(elems, 0.0);
        }
        let (first, rest) = self.layers.split_first().expect("nonempty");
        first.forward_batch_t(input, &mut a[..first.outputs * n], n);
        let (mut cur, mut next) = (a, b);
        let mut width = first.outputs;
        for layer in rest {
            layer.forward_batch_t(&cur[..width * n], &mut next[..layer.outputs * n], n);
            width = layer.outputs;
            std::mem::swap(&mut cur, &mut next);
        }
        &cur[..width * n]
    }

    /// Runs the network forward over a row-major feature matrix
    /// (`rows.len() / inputs()` rows, each `inputs()` wide), appending each
    /// row's output activations to `outputs`, bit for bit
    /// [`Self::predict_into_naive`] per row.
    ///
    /// Rows go in blocks of at most [`BLOCK_POINTS`] points: each block is
    /// transposed into the scratch's input matrix, run through
    /// `Network::forward_block`, and its output matrix is transposed back
    /// into row-major order on append.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` is not a multiple of the input layer size.
    pub fn predict_batch(
        &self,
        rows: &[f64],
        outputs: &mut Vec<f64>,
        scratch: &mut PredictScratch,
    ) {
        let dims = self.inputs();
        assert_eq!(
            rows.len() % dims,
            0,
            "batch length {} is not a multiple of the input width {dims}",
            rows.len()
        );
        outputs.reserve(rows.len() / dims * self.outputs());
        for chunk in rows.chunks(BLOCK_POINTS * dims) {
            let n = chunk.len() / dims;
            transpose_into(chunk, dims, self.block_input(n, scratch));
            let out_t = self.forward_block(n, scratch);
            let start = outputs.len();
            outputs.resize(start + out_t.len(), 0.0);
            transpose_into(out_t, n, &mut outputs[start..]);
        }
    }

    /// One input row through the textbook one-output-at-a-time layer loop
    /// instead of the blocked kernel, returning the output activations as
    /// a slice into the scratch — structurally the pre-kernel production
    /// forward pass (scratch ping-pong, no per-layer allocation). It is
    /// the reference the block pass is property-tested against, and the
    /// honest baseline the batched-sweep speed gate
    /// (`crates/bench/tests/speed_gates.rs`) times the blocked kernels
    /// against. It reads each output's weights with a stride, so its
    /// speed, and the gate's ratio, depend on the weight layout.
    /// Bit-for-bit identical results. Not for production use.
    #[doc(hidden)]
    pub fn predict_into_naive<'s>(
        &self,
        input: &[f64],
        scratch: &'s mut PredictScratch,
    ) -> &'s [f64] {
        assert_eq!(input.len(), self.inputs(), "input dimensionality");
        let width = self.max_width();
        scratch.a.resize(width, 0.0);
        scratch.b.resize(width, 0.0);
        scratch.a[..input.len()].copy_from_slice(input);
        let PredictScratch { a, b, .. } = scratch;
        let (mut current, mut next) = (a, b);
        let mut len = input.len();
        for layer in &self.layers {
            layer.forward_naive_into(&current[..len], &mut next[..layer.outputs]);
            len = layer.outputs;
            std::mem::swap(&mut current, &mut next);
        }
        &current[..len]
    }

    /// Total number of weights (biases included) across all layers.
    pub fn weight_count(&self) -> usize {
        self.layers.iter().map(|l| l.weights.len()).sum()
    }

    /// Copies the weights and velocities into `snapshot`, resizing it on
    /// first use and overwriting in place afterwards (no allocation on the
    /// steady-state path).
    pub fn snapshot_into(&self, snapshot: &mut NetworkSnapshot) {
        let n = self.weight_count();
        snapshot.weights.resize(n, 0.0);
        snapshot.velocity.resize(n, 0.0);
        let mut at = 0;
        for layer in &self.layers {
            let end = at + layer.weights.len();
            snapshot.weights[at..end].copy_from_slice(&layer.weights);
            snapshot.velocity[at..end].copy_from_slice(&layer.velocity);
            at = end;
        }
    }

    /// Restores weights and velocities captured by [`Self::snapshot_into`]
    /// on a network of the same topology.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's parameter count does not match.
    pub fn restore(&mut self, snapshot: &NetworkSnapshot) {
        assert_eq!(
            snapshot.weights.len(),
            self.weight_count(),
            "snapshot topology mismatch"
        );
        let mut at = 0;
        for layer in &mut self.layers {
            let end = at + layer.weights.len();
            layer.weights.copy_from_slice(&snapshot.weights[at..end]);
            layer.velocity.copy_from_slice(&snapshot.velocity[at..end]);
            at = end;
        }
    }

    /// One stochastic gradient step on a single example, with momentum
    /// (paper Eq. 3.2): `w <- w - (lr * dE/dw + momentum * prev_update)`.
    ///
    /// Returns the example's squared error before the update.
    ///
    /// The inner loops are the vectorized counterparts of
    /// [`Self::train_example_reference`] and produce bit-for-bit identical
    /// weights. Each loop runs over one contiguous input-major row: the
    /// forward pass adds one row per input into the layer's activation
    /// buffer, a lower unit's delta is its row of the next layer dotted
    /// with the next deltas (ascending next unit, from `0.0`), and the
    /// update streams each row as `(-lr * delta) * x + momentum * v`. A
    /// one-output layer is one row, so its forward pass is a dot product
    /// and its update an axpy over the inputs. No summation order changes —
    /// only the instruction-level parallelism does.
    ///
    /// # Panics
    ///
    /// Panics if `input`/`target` dimensionalities do not match the network.
    pub fn train_example(
        &mut self,
        input: &[f64],
        target: &[f64],
        learning_rate: f64,
        momentum: f64,
    ) -> f64 {
        assert_eq!(input.len(), self.inputs(), "input dimensionality");
        assert_eq!(target.len(), self.outputs(), "target dimensionality");
        self.ensure_buffers();

        // Forward pass, writing every layer's activations in place.
        self.scratch[0].copy_from_slice(input);
        for (i, layer) in self.layers.iter().enumerate() {
            let (before, after) = self.scratch.split_at_mut(i + 1);
            layer.forward_into(&before[i], &mut after[0]);
        }

        // Output deltas: dE/dnet for squared error with linear outputs is
        // (y - t) * f'(y).
        let last = self.layers.len() - 1;
        let mut squared_error = 0.0;
        let out_activation = self.layers[last].activation;
        for ((delta, &y), &t) in self.deltas[last]
            .iter_mut()
            .zip(&self.scratch[last + 1])
            .zip(target)
        {
            let err = y - t;
            squared_error += err * err;
            *delta = err * out_activation.derivative_from_output(y);
        }

        // Backward pass: lower unit `j`'s sum is row `j` of the next layer
        // (its weight into every next unit) times the next deltas.
        for l in (0..last).rev() {
            let (lower, upper) = self.deltas.split_at_mut(l + 1);
            let next = &self.layers[l + 1];
            let rows = &next.weights[..next.inputs * next.outputs];
            let activation = self.layers[l].activation;
            let sums = lower[l].iter_mut().zip(&self.scratch[l + 1]);
            if let [delta] = upper[0][..] {
                // `0.0 +` is the reference's sum from zero: it turns a
                // -0.0 product into +0.0.
                for ((sum, &y), &w) in sums.zip(rows) {
                    *sum = (0.0 + w * delta) * activation.derivative_from_output(y);
                }
            } else {
                for ((sum, &y), row) in sums.zip(rows.chunks_exact(next.outputs)) {
                    let mut acc = 0.0;
                    for (w, d) in row.iter().zip(&upper[0]) {
                        acc += w * d;
                    }
                    *sum = acc * activation.derivative_from_output(y);
                }
            }
        }

        // Weight updates with momentum, row by row: input `i`'s row gets
        // `(-lr * delta[o]) * x[i] + momentum * v`, the bias row
        // `-lr * delta[o] + momentum * v` (the reference's product order).
        for (l, layer) in self.layers.iter_mut().enumerate() {
            let x = &self.scratch[l];
            let deltas = &self.deltas[l][..];
            let split = layer.inputs * layer.outputs;
            let (w_rows, w_bias) = layer.weights.split_at_mut(split);
            let (v_rows, v_bias) = layer.velocity.split_at_mut(split);
            if let [delta] = *deltas {
                let step = -learning_rate * delta;
                for ((w, v), &xi) in w_rows.iter_mut().zip(v_rows.iter_mut()).zip(x) {
                    let update = step * xi + momentum * *v;
                    *w += update;
                    *v = update;
                }
            } else {
                for ((w_row, v_row), &xi) in w_rows
                    .chunks_exact_mut(layer.outputs)
                    .zip(v_rows.chunks_exact_mut(layer.outputs))
                    .zip(x)
                {
                    for ((w, v), &d) in w_row.iter_mut().zip(v_row.iter_mut()).zip(deltas) {
                        let update = -learning_rate * d * xi + momentum * *v;
                        *w += update;
                        *v = update;
                    }
                }
            }
            for ((w, v), &d) in w_bias.iter_mut().zip(v_bias.iter_mut()).zip(deltas) {
                let update = -learning_rate * d + momentum * *v;
                *w += update;
                *v = update;
            }
        }
        squared_error
    }

    /// The textbook backpropagation step the vectorized
    /// [`Self::train_example`] is property-tested against and the
    /// training-step speed gate (`crates/bench/tests/speed_gates.rs`)
    /// times it against: one-output-at-a-time forward, strided delta
    /// gathers, index-addressed updates. Its speed, and the gate's ratio,
    /// depend on the weight layout. Bit-for-bit identical weights and
    /// return value, just slower. Not for production use.
    #[doc(hidden)]
    #[allow(clippy::needless_range_loop)]
    pub fn train_example_reference(
        &mut self,
        input: &[f64],
        target: &[f64],
        learning_rate: f64,
        momentum: f64,
    ) -> f64 {
        assert_eq!(input.len(), self.inputs(), "input dimensionality");
        assert_eq!(target.len(), self.outputs(), "target dimensionality");
        self.ensure_buffers();

        // Forward pass, keeping every layer's activations.
        self.scratch[0].copy_from_slice(input);
        for (i, layer) in self.layers.iter().enumerate() {
            let (before, after) = self.scratch.split_at_mut(i + 1);
            layer.forward_naive_into(&before[i], &mut after[0]);
        }

        // Output deltas.
        let last = self.layers.len() - 1;
        let mut squared_error = 0.0;
        for o in 0..self.layers[last].outputs {
            let y = self.scratch[last + 1][o];
            let err = y - target[o];
            squared_error += err * err;
            self.deltas[last][o] = err * self.layers[last].activation.derivative_from_output(y);
        }

        // Backward pass: propagate deltas.
        for l in (0..last).rev() {
            let (lower, upper) = self.deltas.split_at_mut(l + 1);
            let next_layer = &self.layers[l + 1];
            let this_outputs = self.layers[l].outputs;
            for j in 0..this_outputs {
                let mut sum = 0.0;
                for o in 0..next_layer.outputs {
                    sum += next_layer.weights[next_layer.at(j, o)] * upper[0][o];
                }
                let y = self.scratch[l + 1][j];
                lower[l][j] = sum * self.layers[l].activation.derivative_from_output(y);
            }
        }

        // Weight updates with momentum.
        for (l, layer) in self.layers.iter_mut().enumerate() {
            let input_act = &self.scratch[l];
            for o in 0..layer.outputs {
                let delta = self.deltas[l][o];
                for i in 0..layer.inputs {
                    let idx = layer.at(i, o);
                    let update =
                        -learning_rate * delta * input_act[i] + momentum * layer.velocity[idx];
                    layer.weights[idx] += update;
                    layer.velocity[idx] = update;
                }
                let idx = layer.at(layer.inputs, o); // bias
                let update = -learning_rate * delta + momentum * layer.velocity[idx];
                layer.weights[idx] += update;
                layer.velocity[idx] = update;
            }
        }
        squared_error
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_network_is_nearly_linear_and_near_zero() {
        let mut rng = Xoshiro256::seed_from(2);
        let net = Network::new(&[4, 16, 1], &mut rng);
        // With weights in ±0.01, outputs are near the bias path: tiny.
        let y = net.predict(&[1.0, 1.0, 1.0, 1.0]);
        assert!(y[0].abs() < 0.2, "initial output {y:?}");
    }

    #[test]
    fn gradient_matches_finite_differences() {
        // Numeric gradient check on a tiny network: perturb each weight and
        // compare dE/dw with the backprop update direction.
        let mut rng = Xoshiro256::seed_from(3);
        let mut net = Network::new(&[2, 3, 1], &mut rng);
        // Use larger weights so derivatives are non-trivial.
        for layer in &mut net.layers {
            for w in &mut layer.weights {
                *w = rng.range_f64(-0.8, 0.8);
            }
        }
        let input = [0.3, -0.6];
        let target = [0.9];
        let eps = 1e-6;

        let error_of = |net: &Network| {
            let y = net.predict(&input)[0];
            (y - target[0]) * (y - target[0])
        };

        // Analytic gradient via a momentum-free, lr=1 "update": the weight
        // change equals -dE/dnet contributions; recover gradient by diffing
        // weights around the update.
        let mut trained = net.clone();
        let lr = 1e-4;
        trained.train_example(&input, &target, lr, 0.0);

        for l in 0..net.layers.len() {
            for idx in 0..net.layers[l].weights.len() {
                // Numeric: dE/dw (note E here is the squared error; backprop
                // uses dE/dw with E = sum err^2, derivative 2*err*...; the
                // implementation folds the 2 into delta implicitly by using
                // err, so compare against E/2's gradient).
                let mut plus = net.clone();
                plus.layers[l].weights[idx] += eps;
                let mut minus = net.clone();
                minus.layers[l].weights[idx] -= eps;
                let numeric = (error_of(&plus) - error_of(&minus)) / (2.0 * eps) / 2.0;
                let analytic = -(trained.layers[l].weights[idx] - net.layers[l].weights[idx]) / lr;
                assert!(
                    (numeric - analytic).abs() < 1e-4,
                    "layer {l} weight {idx}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn learns_xor() {
        // The canonical non-linear task: impossible for a linear model.
        let data = [
            ([0.0, 0.0], 0.0),
            ([0.0, 1.0], 1.0),
            ([1.0, 0.0], 1.0),
            ([1.0, 1.0], 0.0),
        ];
        let mut rng = Xoshiro256::seed_from(5);
        let mut net = Network::new(&[2, 8, 1], &mut rng);
        for _ in 0..60_000 {
            let (x, t) = data[rng.index(4)];
            net.train_example(&x, &[t], 0.3, 0.5);
        }
        for (x, t) in data {
            let y = net.predict(&x)[0];
            assert!((y - t).abs() < 0.25, "xor({x:?}) = {y}, want {t}");
        }
    }

    #[test]
    fn momentum_accelerates_convergence() {
        // Same seed, same presentations: momentum should reach a lower
        // error on a smooth problem within a fixed budget.
        let run = |momentum: f64| {
            let mut rng = Xoshiro256::seed_from(6);
            let mut net = Network::new(&[1, 8, 1], &mut rng);
            let mut data_rng = Xoshiro256::seed_from(7);
            for _ in 0..4000 {
                let x = data_rng.next_f64();
                let t = 0.5 + 0.4 * (x * 6.0).sin();
                net.train_example(&[x], &[t], 0.05, momentum);
            }
            let mut err = 0.0;
            for i in 0..100 {
                let x = i as f64 / 100.0;
                let t = 0.5 + 0.4 * (x * 6.0).sin();
                let y = net.predict(&[x])[0];
                err += (y - t) * (y - t);
            }
            err
        };
        assert!(run(0.5) < run(0.0), "momentum should help on this problem");
    }

    #[test]
    fn multi_output_network() {
        let mut rng = Xoshiro256::seed_from(8);
        let mut net = Network::new(&[2, 10, 2], &mut rng);
        // Learn two functions at once (multi-task shape from §7).
        let mut data_rng = Xoshiro256::seed_from(9);
        for _ in 0..30_000 {
            let a = data_rng.next_f64();
            let b = data_rng.next_f64();
            net.train_example(&[a, b], &[(a + b) / 2.0, a * b], 0.1, 0.5);
        }
        let y = net.predict(&[0.4, 0.6]);
        assert!((y[0] - 0.5).abs() < 0.1, "sum head {y:?}");
        assert!((y[1] - 0.24).abs() < 0.1, "product head {y:?}");
    }

    #[test]
    #[should_panic(expected = "input dimensionality")]
    fn wrong_input_size_panics() {
        let mut rng = Xoshiro256::seed_from(1);
        let net = Network::new(&[3, 4, 1], &mut rng);
        net.predict(&[1.0]);
    }

    #[test]
    fn json_round_trip_preserves_predictions() {
        let mut rng = Xoshiro256::seed_from(10);
        let mut net = Network::new(&[2, 4, 1], &mut rng);
        for _ in 0..100 {
            net.train_example(&[0.2, 0.8], &[0.5], 0.1, 0.5);
        }
        let json = net.to_json_value().to_json();
        let parsed = Value::parse(&json).unwrap();
        let mut restored = Network::from_json_value(&parsed).unwrap();
        // Shortest-round-trip float formatting makes this exact.
        assert_eq!(net.predict(&[0.3, 0.4]), restored.predict(&[0.3, 0.4]));
        // And training still works on the rebuilt buffers.
        restored.train_example(&[0.3, 0.4], &[0.6], 0.1, 0.5);
        // Weights and velocities survive bit-for-bit, so further training
        // matches the original exactly.
        let mut twin = net.clone();
        twin.train_example(&[0.3, 0.4], &[0.6], 0.1, 0.5);
        assert_eq!(twin.predict(&[0.7, 0.2]), restored.predict(&[0.7, 0.2]));
    }

    #[test]
    fn json_rejects_corrupt_topology() {
        let mut rng = Xoshiro256::seed_from(11);
        let net = Network::new(&[2, 3, 1], &mut rng);
        let json = net.to_json_value().to_json();
        // Truncate a weight array.
        let broken = json.replacen(",", "", 1);
        let parsed = Value::parse(&broken);
        assert!(parsed.is_err() || Network::from_json_value(&parsed.unwrap()).is_err());
        assert!(Network::from_json_value(&Value::parse("{\"layers\":[]}").unwrap()).is_err());
    }
}
