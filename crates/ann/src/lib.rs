//! Feed-forward neural networks with cross-validation ensembles.
//!
//! This crate is the machine-learning engine of the paper: fully connected
//! multilayer perceptrons trained by backpropagation with momentum
//! (§3.1, Eqs. 3.1–3.2), combined into k-fold cross-validation ensembles
//! (§3.2, Fig. 3.3) that both predict well and *estimate their own error*
//! over the full design space — the property that drives the paper's
//! incremental sample-until-accurate methodology.
//!
//! Architectural specifics from §3.3 are built in:
//!
//! * minimax scaling of cardinal/continuous inputs and of the target;
//! * percentage-error training via inverse-target presentation frequency;
//! * percentage-error early stopping on a held-aside fold;
//! * prediction averaging across the ensemble.
//!
//! # Example
//!
//! ```
//! use archpredict_ann::cross_validation::fit_ensemble;
//! use archpredict_ann::dataset::{Dataset, Sample};
//! use archpredict_ann::train::TrainConfig;
//! use archpredict_stats::rng::Xoshiro256;
//!
//! // A toy "simulator": IPC as a smooth function of two knobs.
//! let mut rng = Xoshiro256::seed_from(1);
//! let data: Dataset = (0..200)
//!     .map(|_| {
//!         let (a, b) = (rng.next_f64(), rng.next_f64());
//!         Sample::new(vec![a, b], 0.4 + 0.5 * a + 0.3 * a * b)
//!     })
//!     .collect();
//! let fit = fit_ensemble(&data, 10, &TrainConfig::default(), 7);
//! assert!(fit.estimate.mean < 5.0, "estimated error {:.2}%", fit.estimate.mean);
//! let prediction = fit.ensemble.predict(&[0.5, 0.5]);
//! assert!((prediction - 0.725).abs() < 0.1);
//! ```

pub mod activation;
pub mod cross_validation;
pub mod dataset;
pub mod ensemble;
pub mod network;
pub mod scaling;
pub mod train;

pub use cross_validation::{fit_ensemble, CvFit, ErrorEstimate, FoldRecord};
pub use dataset::{Dataset, Sample};
pub use ensemble::{Ensemble, ModelHeader, MODEL_FORMAT_VERSION};
pub use network::{Network, NetworkSnapshot, PredictScratch, BLOCK_POINTS};
pub use train::{
    train_multi_network, MultiTrainedModel, Parallelism, PredictBuffer, TrainConfig, TrainedModel,
};
