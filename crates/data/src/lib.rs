//! # taor-data
//!
//! Synthetic stand-ins for the two corpora of Chiatti et al. (EDBT/ICDT
//! 2019 workshops, Table 1): the ShapeNet 2-D view subsets (SNS1, SNS2)
//! and the segmented NYU Depth V2 crops (NYUSet).
//!
//! The original data cannot ship with a self-contained reproduction
//! (ShapeNet requires registration; NYU Depth V2 is a 2.8 GB Matlab
//! archive), and the paper's pipelines consume nothing but *segmented
//! single-object RGB crops*. This crate therefore renders the ten target
//! classes procedurally:
//!
//! * [`shapes`] — parametric per-class generators with class palettes
//!   that deliberately overlap (wood browns, whites) the way real indoor
//!   objects do,
//! * [`render`] — catalog mode (white background, canonical rotations —
//!   ShapeNet-like) vs. scene mode (black segmentation mask, pose and
//!   lighting jitter, occlusion bites, sloppy mask margins — NYU-like),
//! * [`dataset`] — builders reproducing Table 1's cardinalities exactly,
//! * [`pairs`] — the Siamese pair sets of §3.4 (9,450 training pairs at
//!   52 % similar; the 3,321-pair SNS1 test; the 8,200-pair NYU+SNS1
//!   test with the paper's 4,160/4,040 support split),
//! * [`classes`] — the ten classes, Table 1 counts, and WordNet-style
//!   synsets for the knowledge-grounding motivation.
//!
//! Everything is deterministic in a `u64` seed.

#![forbid(unsafe_code)]

pub mod classes;
pub mod dataset;
pub mod pairs;
pub mod render;
pub mod scene;
pub mod shapes;

pub use classes::{ObjectClass, Synset};
pub use dataset::{
    catalog_custom, gallery_grid, nyu_set, nyu_set_subsampled, sample_per_class, shapenet_set1,
    shapenet_set2, Dataset, DatasetKind, LabeledImage,
};
pub use pairs::{
    mixed_training_pairs, nyu_sns1_test_pairs, sns1_test_pairs, training_pairs, ImagePair,
    NYU_TEST_DISSIMILAR, NYU_TEST_SIMILAR, SNS1_TEST_PAIRS, TRAIN_PAIRS,
};
pub use render::{render_catalog_view, render_grid_view, render_scene_crop, CANVAS};
pub use scene::{patrol_frames, render_room, RoomScene, SceneObject, FRAME_H, FRAME_W};
pub use shapes::{draw_object, sample_model, ModelParams, ViewParams};
