//! # taor-nn
//!
//! A minimal CPU deep-learning framework, built to reproduce the
//! Normalized-X-Corr Siamese pipeline of Chiatti et al. (EDBT/ICDT 2019
//! workshops, §3.4), which itself adapts Subramaniam et al. (NIPS 2016).
//!
//! Everything the paper's Keras/TensorFlow stack provided is implemented
//! here from scratch:
//!
//! * [`tensor`] — dense `f32` tensors with the handful of ops the network
//!   needs,
//! * [`layers`] — Conv2D (im2col), MaxPool2D, ReLU, Dense, Flatten and the
//!   fused softmax + categorical cross-entropy, all with hand-derived
//!   backward passes (finite-difference checked in the tests),
//! * [`xcorr`] — the Normalized-X-Corr cross-input neighbourhood matching
//!   layer, forward and backward,
//! * [`model`] — the full shared-weight network,
//! * [`optim`] — Adam with Keras-style learning-rate decay,
//! * [`train`] — mini-batch loop with the paper's early-stopping rule
//!   (ϵ = 1e-6, patience 10, ≤ 100 epochs).
//!
//! Layers are functional (`forward` returns output + cache, `backward`
//! consumes the cache and accumulates into an explicit gradient store),
//! which makes the Siamese weight sharing exact: the same layer applied to
//! both inputs accumulates gradients from both applications.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod gemm;
pub mod init;
pub mod layers;
pub mod model;
pub mod optim;
pub mod scratch;
pub mod tensor;
pub mod train;
pub mod xcorr;

pub use layers::{softmax_cross_entropy, softmax_probs, Conv2D, Dense, MaxPool2D, Relu};
pub use model::{NetConfig, NetGrads, NormXCorrNet};
pub use optim::Adam;
pub use scratch::{Scratch, ScratchBuf};
pub use tensor::{Tensor, TensorError};
pub use train::{
    sample_pass, try_predict_labels, try_train, EpochStats, PairSample, TrainConfig, TrainReport,
    MICRO_BATCH,
};
pub use xcorr::{NormXCorr, PreparedGallery};
