//! # taor-features
//!
//! Keypoint detectors and descriptors for the descriptor-matching pipeline
//! of Chiatti et al. (EDBT/ICDT 2019 workshops), §3.3.
//!
//! The paper uses OpenCV's SIFT, SURF and ORB with brute-force matching and
//! Lowe's ratio test; this crate re-implements all three from the original
//! publications:
//!
//! * [`sift`] — Lowe 2004: Gaussian scale space, DoG extrema, sub-pixel
//!   refinement, orientation histograms, 4×4×8 = 128-d descriptors,
//! * [`surf`] — Bay et al. 2006: integral-image box-filter Hessian
//!   pyramid, Haar-wavelet orientation and 64-d descriptors,
//! * [`orb`] — Rublee et al. 2011: FAST-9 corners with Harris ranking,
//!   intensity-centroid orientation, 256-bit steered BRIEF,
//! * [`matcher`] — brute-force kNN for float (L2) and binary (Hamming)
//!   descriptors with the ratio test: the paper's matcher, which it keeps
//!   because FLANN "did not lead to any performance gains" at its ~10²
//!   reference views,
//! * [`mih`] — an exact multi-index-hashing table for binary codes, with
//!   a recall@k-vs-exact harness in [`recall`]. `bench_ann` in
//!   `taor-bench` records where it pays: not at 90 views, where brute
//!   force wins as §3.3 reports, but at 10,500 (`bench_records/`). Float
//!   descriptors always match brute force.
//!
//! Detector repeatability and matching score under a known warp are
//! test metrics and live outside this crate, with the other dev-only
//! test harnesses.

#![forbid(unsafe_code)]

pub mod error;
pub mod keypoint;
pub mod matcher;
pub mod mih;
pub mod orb;
pub mod ransac;
pub mod recall;
pub mod sift;
pub mod surf;

pub use error::{FeatureError, Result};
pub use keypoint::{BinaryDescriptors, FloatDescriptors, KeyPoint};
pub use matcher::{
    knn_match_binary, knn_match_float, knn_match_float_naive, ratio_test_matches, DMatch,
    RatioMatch,
};
pub use mih::{MihIndex, MihParams};
pub use orb::{orb_detect_and_compute, OrbParams};
pub use ransac::{verify_matches, RansacParams, Similarity, Verification};
pub use recall::{exact_knn_binary, mean_recall, recall_at_k_u32};
pub use sift::{sift_detect_and_compute, SiftParams};
pub use surf::{surf_detect_and_compute, SurfParams};
