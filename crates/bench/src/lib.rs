//! # taor-bench
//!
//! The reproduction harness: one generator per paper table (the paper has
//! nine tables and no figures), shared between the `repro` binary and the
//! integration tests, plus the Criterion microbenches under `benches/`.
//!
//! Table index (see DESIGN.md §3):
//!
//! * **Table 1** — dataset statistics,
//! * **Table 2** — cumulative accuracy of the exploratory pipelines
//!   (baseline, shape-only ×3, colour-only ×4, hybrid ×3) on NYU v SNS1
//!   and SNS1 v SNS2,
//! * **Table 3** — cumulative accuracy of SIFT/SURF/ORB on SNS1 v SNS2,
//! * **Table 4** — Normalized-X-Corr binary metrics on the SNS1 and
//!   NYU+SNS1 pair sets,
//! * **Tables 5–7** — class-wise shape / colour / hybrid results on NYU v
//!   SNS1,
//! * **Table 8** — class-wise hybrid results on SNS2 v SNS1,
//! * **Table 9** — class-wise SIFT/SURF/ORB results on SNS1 v SNS2.

#![forbid(unsafe_code)]

pub mod ann;
pub mod extensions;
pub mod repro;

pub use ann::{run_ann_bench, AnnBenchConfig, AnnModePerf, AnnPerfRecord};
pub use repro::{PreparedRepro, ReproConfig, TableOutput};
