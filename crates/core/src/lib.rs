//! # taor-core
//!
//! The five object-recognition pipelines of Chiatti et al., *Exploring
//! Task-agnostic, ShapeNet-based Object Recognition for Mobile Robots*
//! (Workshops of the EDBT/ICDT 2019 Joint Conference), plus the
//! evaluation and reporting machinery that regenerates the paper's nine
//! tables.
//!
//! | Pipeline | Module | Paper section |
//! |---|---|---|
//! | (i) shape-only (Hu moments, L1/L2/L3) | [`shape_only`] | §3.2 |
//! | (ii) colour-only (4 histogram metrics) | [`color_only`] | §3.2 |
//! | (iii) hybrid αS + βC (3 aggregations) | [`hybrid`] | §3.2 |
//! | (iv) SIFT / SURF / ORB descriptors | [`descriptors`] | §3.3 |
//! | (v) Normalized-X-Corr Siamese net | [`siamese`] | §3.4 |
//!
//! All pipelines share the 4-step preprocessing of
//! [`preprocess`](mod@preprocess) and the metric conventions of [`eval`]
//! (including the paper's idiosyncratic per-class precision,
//! `TP/N_total`, reverse-engineered from its baseline rows).
//!
//! Every operation has one entry point, and it returns a [`Result`]: an
//! empty reference set, a descriptor-kind mismatch or an undersized
//! network input is an [`Error`], never a panic. Per-item faults (NaN
//! scores, featureless queries) degrade to a deterministic fallback and
//! are counted in a [`Diagnostics`] ledger the caller passes in. The
//! fault-injection harness that holds every pipeline to that contract
//! is dev-only test code and lives outside this crate.
//!
//! ## Quickstart
//!
//! ```
//! use taor_core::prelude::*;
//! use taor_data::{shapenet_set1, shapenet_set2};
//!
//! # fn main() -> taor_core::Result<()> {
//! // Match SNS2 views against SNS1 with the paper's best hybrid config.
//! let refs = prepare_views(&shapenet_set1(2019), Background::White);
//! let queries = prepare_views(&shapenet_set2(2019), Background::White);
//! let diag = Diagnostics::new();
//! let preds = try_classify_hybrid(
//!     &queries, &refs, &HybridConfig::default(), Aggregation::WeightedSum, &diag,
//! )?;
//! let eval = evaluate(&truth_of(&queries), &preds);
//! assert!(eval.cumulative_accuracy > 0.1); // beats the random baseline
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod color_only;
pub mod descriptors;
pub mod diag;
pub mod error;
pub mod eval;
pub mod hybrid;
pub mod pipeline;
pub mod preprocess;
pub mod recognizer;
pub mod report;
pub mod segment;
pub mod shape_only;
pub mod siamese;
pub mod wire;

/// Glob-import of the common pipeline API.
pub mod prelude {
    pub use crate::color_only::ColorScorer;
    pub use crate::descriptors::{
        extract_index, try_classify_descriptors_verified, try_classify_descriptors_with,
        try_match_descriptors, AnnIndexMode, DescriptorIndex, DescriptorKind, DescriptorMatches,
    };
    pub use crate::diag::{Diagnostics, DiagnosticsReport};
    pub use crate::eval::{
        evaluate, evaluate_binary, random_baseline, BinaryEvaluation, ClassMetrics, Evaluation,
    };
    pub use crate::hybrid::{try_classify_hybrid, Aggregation, HybridConfig};
    pub use crate::pipeline::{
        prepare_views, truth_of, try_classify_columns, try_classify_per_view, Column, MatchScorer,
        RefView,
    };
    pub use crate::preprocess::{binarise, preprocess, Background, Preprocessed};
    pub use crate::recognizer::{Method, Recognition, Recognizer};
    pub use crate::report::{
        classwise_headers, classwise_rows, fmt_f, ExperimentRecord, TextTable,
    };
    pub use crate::segment::{
        border_colors, evaluate_scene, iou, mask_against, try_foreground_mask, try_recognise_frame,
        try_segment_frame, Detection, SceneEvaluation, SegmentConfig, SegmentedObject,
    };
    pub use crate::shape_only::ShapeScorer;
    pub use crate::siamese::{
        evaluate_siamese, image_to_tensor, train_on_pairs, try_train_siamese, CosineSiamese,
        SiameseConfig,
    };
    pub use crate::wire::{
        decode_crop, encode_f32, encode_rgb8, DecodeStats, PixelFormat, WireError, MAX_WIRE_DIM,
        WIRE_HEADER_LEN, WIRE_MAGIC, WIRE_VERSION,
    };
}

pub use prelude::*;

// The error taxonomy is re-exported at the root only (not via the
// prelude) so glob-importers keep the std `Result`.
pub use crate::error::{Error, Result};
