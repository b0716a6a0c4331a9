//! # taor-testkit
//!
//! Harnesses the workspace's test suites share, kept out of the
//! shipping crates: nothing here runs on a request, table or training
//! path, and no crate lists this one outside `[dev-dependencies]`.
//!
//! * [`fault`] — the adversarial-crop and service-shaped byte corpora,
//!   the NaN-scoring stub and the drivers that push them through all
//!   five recognition pipelines under `catch_unwind`
//!   (`crates/core/tests/fault_injection.rs`, `crates/serve/tests/chaos.rs`);
//! * [`warp`] — affine transforms and bilinear grayscale warping, to
//!   make image pairs under a known geometry (`tests/robustness.rs`,
//!   `tests/detector_evaluation.rs`);
//! * [`evaluation`] — detector repeatability and matching score under
//!   that geometry (`tests/detector_evaluation.rs`);
//! * [`oracle`] — the naive GEMM, Hamming 2-NN and per-sample training
//!   loops that the fast kernels, the MIH index and the batched trainer
//!   are pinned against bit for bit;
//! * [`draw`] — ellipse and rotated-rectangle fills for the detector
//!   tests' synthetic images.

#![forbid(unsafe_code)]

pub mod draw;
pub mod evaluation;
pub mod fault;
pub mod oracle;
pub mod warp;
