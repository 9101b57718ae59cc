//! Property tests for the neural-network stack.

use archpredict_ann::dataset::{fold_ranges, Sample};
use archpredict_ann::network::{Network, NetworkSnapshot, PredictScratch};
use archpredict_ann::scaling::{MinMaxScaler, TargetScaler};
use archpredict_ann::train::{train_network, TrainConfig, TrainedModel};
use archpredict_ann::{Ensemble, PredictBuffer};
use archpredict_stats::json::Value;
use archpredict_stats::rng::Xoshiro256;
use proptest::prelude::*;

/// Widest input layer [`arb_topology`] draws: 11 inputs, past the memory
/// study's 10.
const MAX_INPUTS: usize = 11;

/// A small random topology: input width, 1–2 hidden layers, output width.
fn arb_topology() -> impl Strategy<Value = Vec<usize>> {
    (
        1usize..MAX_INPUTS + 1,
        prop::collection::vec(1usize..12, 1..3),
        1usize..3,
    )
        .prop_map(|(inputs, hidden, outputs)| {
            let mut t = vec![inputs];
            t.extend(hidden);
            t.push(outputs);
            t
        })
}

/// A network of `topology` after `steps` presentations of seeded random
/// examples at a large step size, which carries its weights well outside
/// the ±0.01 initialization band (`steps == 0` is the fresh network).
fn trained(topology: &[usize], seed: u64, steps: usize) -> Network {
    let mut rng = Xoshiro256::seed_from(seed);
    let mut net = Network::new(topology, &mut rng);
    let (inputs, outputs) = (topology[0], *topology.last().unwrap());
    for _ in 0..steps {
        let x: Vec<f64> = (0..inputs).map(|_| rng.next_f64()).collect();
        let t: Vec<f64> = (0..outputs).map(|_| rng.next_f64()).collect();
        net.train_example(&x, &t, 0.5, 0.5);
    }
    net
}

/// A member of `dims` inputs with hidden layers `hidden` (`hidden.1 == 0`
/// is one hidden layer), trained for a few epochs on its own seeded data,
/// so every member's input scaler has its own bounds. With
/// `constant_feature`, that feature holds one value in every sample, so
/// the scaler's range for it is degenerate and maps it to 0.5.
fn member(
    dims: usize,
    hidden: (usize, usize),
    seed: u64,
    constant_feature: Option<usize>,
) -> TrainedModel {
    let mut rng = Xoshiro256::seed_from(seed);
    let samples: Vec<Sample> = (0..24)
        .map(|_| {
            let mut x: Vec<f64> = (0..dims).map(|_| rng.next_f64()).collect();
            if let Some(i) = constant_feature {
                x[i] = 0.37;
            }
            // The noise term keeps the target range open when the one
            // feature of a one-input member is the constant one.
            let t = 0.4 + 0.3 * x[0] + 0.2 * x[dims - 1] * x[0] + 0.1 * rng.next_f64();
            Sample::new(x, t)
        })
        .collect();
    let refs: Vec<&Sample> = samples.iter().collect();
    let (train, es) = refs.split_at(16);
    let config = TrainConfig {
        hidden_units: hidden.0,
        second_hidden_units: hidden.1,
        max_epochs: 4,
        ..TrainConfig::default()
    };
    train_network(train, es, &config, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The ensemble's block paths are bit-for-bit per-row `predict` and
    /// `disagreement` for 1–5 members of random topologies, one of which
    /// saw a constant feature (its scaler's 0.5 branch), at row counts on
    /// both sides of the 8-lane tile and the 256-point block, with one
    /// buffer reused across every call. Both paths append, never clobber.
    #[test]
    fn ensemble_block_paths_match_per_row_bit_for_bit(
        dims in 1usize..MAX_INPUTS + 1,
        hidden in prop::collection::vec((1usize..12, 0usize..6), 1..6),
        constant in 0usize..5 * MAX_INPUTS,
        seed in 0u64..1000,
    ) {
        let constant_member = constant % hidden.len();
        let models: Vec<TrainedModel> = hidden
            .iter()
            .enumerate()
            .map(|(k, &h)| {
                let feature = (k == constant_member).then_some(constant % dims);
                member(dims, h, seed * 8 + k as u64, feature)
            })
            .collect();
        let ensemble = Ensemble::new(models);
        let mut buf = PredictBuffer::default();
        let mut rng = Xoshiro256::seed_from(seed ^ 0xB10C);
        for n_rows in [1, 7, 8, 255, 256, 257, 600] {
            let rows: Vec<f64> = (0..n_rows * dims).map(|_| rng.range_f64(-1.5, 2.5)).collect();
            let mut predictions = vec![f64::NAN];
            ensemble.predict_batch_into(&rows, &mut predictions, &mut buf);
            let mut scores = vec![f64::NAN];
            ensemble.disagreement_batch_into(&rows, &mut scores, &mut buf);
            prop_assert_eq!(predictions.len(), 1 + n_rows);
            prop_assert_eq!(scores.len(), 1 + n_rows);
            prop_assert!(predictions[0].is_nan() && scores[0].is_nan(), "append, not clobber");
            for (p, row) in rows.chunks_exact(dims).enumerate() {
                let (batch, single) = (predictions[1 + p], ensemble.predict(row));
                prop_assert_eq!(
                    batch.to_bits(),
                    single.to_bits(),
                    "prediction of row {} of {}: {} vs {}", p, n_rows, batch, single
                );
                let (batch, single) = (scores[1 + p], ensemble.disagreement(row));
                prop_assert_eq!(
                    batch.to_bits(),
                    single.to_bits(),
                    "disagreement of row {} of {}: {} vs {}", p, n_rows, batch, single
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Target scaling is a bijection on the fitted range.
    #[test]
    fn target_scaler_round_trips(
        values in prop::collection::vec(-1e6f64..1e6, 2..40),
        pick in 0usize..40,
    ) {
        let scaler = TargetScaler::fit(&values);
        let v = values[pick % values.len()];
        let round = scaler.unscale(scaler.scale(v));
        prop_assert!((round - v).abs() <= 1e-6 * v.abs().max(1.0));
        prop_assert!((0.0..=1.0).contains(&scaler.scale(v)));
    }

    /// Input scaling maps fitted rows into the unit hypercube.
    #[test]
    fn input_scaler_bounds(
        rows in prop::collection::vec(
            prop::collection::vec(-1e3f64..1e3, 3),
            2..30,
        ),
    ) {
        let scaler = MinMaxScaler::fit(rows.iter().map(|r| r.as_slice()));
        for row in &rows {
            for x in scaler.transform(row) {
                prop_assert!((0.0..=1.0).contains(&x), "scaled value {x}");
            }
        }
    }

    /// Fold ranges partition exactly with balanced sizes.
    #[test]
    fn folds_partition(n in 10usize..5000, k in 3usize..11) {
        prop_assume!(k <= n);
        let ranges = fold_ranges(n, k);
        prop_assert_eq!(ranges.len(), k);
        let total: usize = ranges.iter().map(|(a, b)| b - a).sum();
        prop_assert_eq!(total, n);
        let sizes: Vec<usize> = ranges.iter().map(|(a, b)| b - a).collect();
        prop_assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    /// Forward passes are pure: same input, same output.
    #[test]
    fn prediction_is_pure(seed in 0u64..1000, x in 0.0f64..1.0, y in 0.0f64..1.0) {
        let mut rng = Xoshiro256::seed_from(seed);
        let net = Network::new(&[2, 8, 1], &mut rng);
        prop_assert_eq!(net.predict(&[x, y]), net.predict(&[x, y]));
    }

    /// The allocation-free kernel is bit-for-bit the allocating path, on
    /// any random topology — including scratch reuse across topologies.
    #[test]
    fn predict_into_matches_predict_bit_for_bit(
        topology in arb_topology(),
        other in arb_topology(),
        seed in 0u64..1000,
        raw in prop::collection::vec(0.0f64..1.0, MAX_INPUTS),
    ) {
        let mut rng = Xoshiro256::seed_from(seed);
        let net = Network::new(&topology, &mut rng);
        let input = &raw[..topology[0]];
        let mut scratch = PredictScratch::default();
        // Dirty the scratch with a different topology first: buffers must
        // be reusable across networks of any shape.
        let other_net = Network::new(&other, &mut rng);
        let _ = other_net.predict_into(&raw[..other[0]], &mut scratch);
        prop_assert_eq!(
            net.predict_into(input, &mut scratch).to_vec(),
            net.predict(input)
        );
    }

    /// Batch prediction over a row-major matrix equals row-by-row predict,
    /// bit for bit, and appends (never clobbers) the output vector — for
    /// fresh networks and after a few training steps.
    #[test]
    fn predict_batch_matches_predict_bit_for_bit(
        topology in arb_topology(),
        seed in 0u64..1000,
        steps in 0usize..8,
        n_rows in 0usize..9,
        raw in prop::collection::vec(0.0f64..1.0, 8 * MAX_INPUTS),
    ) {
        let net = trained(&topology, seed, steps);
        let dims = topology[0];
        let rows: Vec<f64> = raw.iter().copied().take(n_rows * dims).collect();
        let mut scratch = PredictScratch::default();
        let mut outputs = vec![f64::NAN];
        net.predict_batch(&rows, &mut outputs, &mut scratch);
        let outputs_per_row = *topology.last().unwrap();
        prop_assert_eq!(outputs.len(), 1 + n_rows * outputs_per_row);
        prop_assert!(outputs[0].is_nan(), "batch must append, not clobber");
        for (row, out) in rows.chunks_exact(dims).zip(outputs[1..].chunks_exact(outputs_per_row)) {
            prop_assert_eq!(net.predict(row), out.to_vec());
        }
    }

    /// Snapshot → perturb → restore is a bit-for-bit round trip.
    #[test]
    fn snapshot_restore_round_trips(
        topology in arb_topology(),
        seed in 0u64..1000,
        raw in prop::collection::vec(0.05f64..0.95, MAX_INPUTS),
    ) {
        let mut rng = Xoshiro256::seed_from(seed);
        let mut net = Network::new(&topology, &mut rng);
        let input = raw[..topology[0]].to_vec();
        let before = net.predict(&input);
        let mut snap = NetworkSnapshot::default();
        net.snapshot_into(&mut snap);
        let target = vec![0.5; *topology.last().unwrap()];
        net.train_example(&input, &target, 0.3, 0.5);
        net.restore(&snap);
        prop_assert_eq!(net.predict(&input), before);
    }

    /// Training on one example reduces (or preserves) that example's error
    /// when momentum is off and the step is small.
    #[test]
    fn gradient_step_descends(seed in 0u64..500, x in 0.05f64..0.95, t in 0.1f64..0.9) {
        let mut rng = Xoshiro256::seed_from(seed);
        let mut net = Network::new(&[1, 6, 1], &mut rng);
        let before = (net.predict(&[x])[0] - t).abs();
        for _ in 0..10 {
            net.train_example(&[x], &[t], 0.01, 0.0);
        }
        let after = (net.predict(&[x])[0] - t).abs();
        prop_assert!(after <= before + 1e-9, "{before} -> {after}");
    }

    /// The blocked batch kernel is bit-for-bit the textbook scalar path on
    /// random topologies and batch sizes, fresh and after a few training
    /// steps. Batch sizes up to 40 exercise ragged lane tails
    /// (n % 8 != 0) and the topology strategy's hidden widths of 1–11
    /// exercise ragged unit tiles (units % 4 != 0).
    #[test]
    fn blocked_batch_matches_naive_bit_for_bit(
        topology in arb_topology(),
        seed in 0u64..1000,
        steps in 0usize..8,
        n_rows in 0usize..41,
        raw in prop::collection::vec(0.0f64..1.0, 41 * MAX_INPUTS),
    ) {
        let net = trained(&topology, seed, steps);
        let dims = topology[0];
        let rows: Vec<f64> = raw.iter().copied().take(n_rows * dims).collect();
        let mut scratch = PredictScratch::default();
        let mut outputs = Vec::new();
        net.predict_batch(&rows, &mut outputs, &mut scratch);
        let width = *topology.last().unwrap();
        let mut naive_scratch = PredictScratch::default();
        for (row, out) in rows.chunks_exact(dims).zip(outputs.chunks_exact(width)) {
            prop_assert_eq!(
                net.predict_into_naive(row, &mut naive_scratch),
                out,
                "blocked kernel diverged from the scalar reference"
            );
        }
    }

    /// The vectorized backprop step produces bit-for-bit the same network
    /// as the textbook scalar reference after a run of presentations, for
    /// random topologies (including multi-head outputs), learning rates,
    /// and momenta.
    #[test]
    fn vectorized_trainer_matches_reference_bit_for_bit(
        topology in arb_topology(),
        seed in 0u64..1000,
        steps in 1usize..24,
        rate in 0.01f64..0.9,
        momentum in 0.0f64..0.9,
    ) {
        let mut rng = Xoshiro256::seed_from(seed);
        let fresh = Network::new(&topology, &mut rng);
        let mut vectorized = fresh.clone();
        let mut reference = fresh;
        let (inputs, outputs) = (topology[0], *topology.last().unwrap());
        let mut example_rng = Xoshiro256::seed_from(seed ^ 0x9e37);
        for _ in 0..steps {
            let x: Vec<f64> = (0..inputs).map(|_| example_rng.next_f64()).collect();
            let t: Vec<f64> = (0..outputs).map(|_| example_rng.next_f64()).collect();
            let err_v = vectorized.train_example(&x, &t, rate, momentum);
            let err_r = reference.train_example_reference(&x, &t, rate, momentum);
            prop_assert_eq!(err_v, err_r, "per-step error diverged");
        }
        prop_assert_eq!(
            &vectorized, &reference,
            "vectorized trainer diverged from the scalar reference"
        );
    }

    /// A trained network's JSON text survives a reload byte for byte (the
    /// in-memory weights transpose back to the persisted output-major
    /// order exactly), and the reloaded network predicts the same bits.
    #[test]
    fn json_text_round_trips_after_training(
        topology in arb_topology(),
        seed in 0u64..1000,
        steps in 1usize..8,
        raw in prop::collection::vec(0.0f64..1.0, MAX_INPUTS),
    ) {
        let net = trained(&topology, seed, steps);
        let text = net.to_json_value().to_json();
        let back = Network::from_json_value(&Value::parse(&text).unwrap()).unwrap();
        prop_assert_eq!(back.to_json_value().to_json(), text);
        let input = &raw[..topology[0]];
        prop_assert_eq!(back.predict(input), net.predict(input));
    }
}

/// Batches longer than one 256-point block must chunk correctly: the
/// block-boundary seams (ends exactly on a boundary, one past, mid-block
/// ragged tail) stay bit-for-bit equal to the scalar path.
#[test]
fn blocked_batch_crosses_block_boundaries() {
    let mut rng = Xoshiro256::seed_from(42);
    let net = Network::new(&[3, 7, 2], &mut rng);
    for n_rows in [255, 256, 257, 512, 600] {
        let mut rng = Xoshiro256::seed_from(n_rows as u64);
        let rows: Vec<f64> = (0..n_rows * 3).map(|_| rng.next_f64()).collect();
        let mut scratch = PredictScratch::default();
        let mut outputs = Vec::new();
        net.predict_batch(&rows, &mut outputs, &mut scratch);
        assert_eq!(outputs.len(), n_rows * 2);
        let mut naive_scratch = PredictScratch::default();
        for (row, out) in rows.chunks_exact(3).zip(outputs.chunks_exact(2)) {
            assert_eq!(
                net.predict_into_naive(row, &mut naive_scratch),
                out,
                "diverged in a {n_rows}-point batch"
            );
        }
    }
}
