//! ANN-vs-brute gallery benchmark (`bench_ann` binary).
//!
//! The paper's matcher is brute force, which §3.3 justifies by the
//! "fairly limited size of the input datasets" (~10² views). This module
//! measures where that argument stops holding: it scales the procedural
//! catalog to ShapeNet-like view counts with [`gallery_grid`], describes
//! each view with one cheap global code (a 256-bit BRIEF-style signature
//! over a 256-cell gist-style gray grid), and races exact multi-index
//! hashing against a per-query brute-force Hamming scan, reporting
//! recall@k alongside the speedup so exactness is checked, not assumed.
//!
//! Queries are near-duplicate re-renders of gallery cells (the same model
//! grid under a different jitter stream), i.e. the serving workload: "a
//! robot sees a view it has almost catalogued".

use std::time::Instant;

use serde::Serialize;
use taor_data::gallery_grid;
use taor_features::{
    exact_knn_binary, mean_recall, recall_at_k_u32, BinaryDescriptors, MihIndex, MihParams,
};
use taor_imgproc::image::RgbImage;

/// Schema tag written into every record.
pub const ANN_PERF_SCHEMA: &str = "taor-bench-ann-perf-v2";

/// Cells per side of the gist grid the signature compares; the gist is
/// `GIST_GRID`² wide.
const GIST_GRID: usize = 16;
/// Bits in the binary signature (pairwise gist-cell comparisons).
const SIG_BITS: usize = 256;
const SIG_BYTES: usize = SIG_BITS / 8;

/// How the benchmark gallery is built and probed.
#[derive(Debug, Clone)]
pub struct AnnBenchConfig {
    /// Master seed: models, views and the signature's comparison pairs.
    pub seed: u64,
    /// Distinct procedural models per class.
    pub models_per_class: usize,
    /// Yaw steps in the view grid.
    pub yaw_steps: usize,
    /// Pitch steps in the view grid.
    pub pitch_steps: usize,
    /// Near-duplicate queries sampled evenly across the gallery.
    pub queries: usize,
    /// Neighbours requested per query.
    pub k: usize,
}

impl AnnBenchConfig {
    /// The committed-record scale: 10 classes × 42 models × 5×5 views
    /// = 10,500 gallery views.
    pub fn full(seed: u64) -> Self {
        AnnBenchConfig {
            seed,
            models_per_class: 42,
            yaw_steps: 5,
            pitch_steps: 5,
            queries: 200,
            k: 10,
        }
    }

    /// A debug-feasible smoke scale (240 views) for tests and CI sanity.
    pub fn quick(seed: u64) -> Self {
        AnnBenchConfig {
            seed,
            models_per_class: 6,
            yaw_steps: 2,
            pitch_steps: 2,
            queries: 24,
            k: 5,
        }
    }

    /// Total gallery views this config renders.
    pub fn gallery_views(&self) -> usize {
        taor_data::ObjectClass::COUNT * self.models_per_class * self.yaw_steps * self.pitch_steps
    }
}

/// The index's race against its brute-force oracle.
#[derive(Debug, Clone, Serialize)]
pub struct AnnModePerf {
    /// Always `mih`.
    pub index: String,
    /// Index construction, milliseconds.
    pub build_ms: f64,
    /// Mean brute-force scan per query, microseconds.
    pub brute_us_per_query: f64,
    /// Mean indexed lookup per query, microseconds.
    pub ann_us_per_query: f64,
    /// `brute_us_per_query / ann_us_per_query`.
    pub speedup: f64,
    /// Fraction of queries whose top-1 matches an exact top-1 distance.
    pub recall_at_1: f64,
    /// Mean recall of the exact top-k set (tie-tolerant).
    pub recall_at_k: f64,
}

/// One full `bench_ann` run.
#[derive(Debug, Clone, Serialize)]
pub struct AnnPerfRecord {
    /// Always [`ANN_PERF_SCHEMA`].
    pub schema: String,
    pub seed: u64,
    /// Gallery size in views.
    pub gallery_views: usize,
    /// Near-duplicate queries probed.
    pub queries: usize,
    /// Gist width the signature's comparisons draw from.
    pub dim: usize,
    /// Binary signature width in bits.
    pub bits: usize,
    /// Neighbours requested per query.
    pub k: usize,
    /// MIH over the binary signatures vs a brute Hamming scan.
    pub binary: AnnModePerf,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Gist-style global descriptor: mean gray level of each cell in a
/// `GIST_GRID`×`GIST_GRID` partition of the view.
pub fn gist_descriptor(img: &RgbImage) -> Vec<f32> {
    let (w, h) = (img.width() as usize, img.height() as usize);
    let mut sums = vec![0.0f64; GIST_GRID * GIST_GRID];
    let mut counts = vec![0u32; GIST_GRID * GIST_GRID];
    for y in 0..h {
        let cy = (y * GIST_GRID / h.max(1)).min(GIST_GRID - 1);
        for x in 0..w {
            let cx = (x * GIST_GRID / w.max(1)).min(GIST_GRID - 1);
            let p = img.pixel(x as u32, y as u32);
            let gray = (u32::from(p[0]) + u32::from(p[1]) + u32::from(p[2])) as f64 / 3.0;
            let cell = cy * GIST_GRID + cx;
            if let (Some(s), Some(c)) = (sums.get_mut(cell), counts.get_mut(cell)) {
                *s += gray;
                *c += 1;
            }
        }
    }
    sums.iter()
        .zip(&counts)
        .map(|(&s, &c)| if c == 0 { 0.0 } else { (s / f64::from(c)) as f32 })
        .collect()
}

/// BRIEF-style binary signature: bit `j` compares two gist cells drawn
/// from a seeded splitmix stream. Purely a function of `(gist, seed)`.
pub fn binary_signature(gist: &[f32], seed: u64) -> Vec<u8> {
    let mut out = vec![0u8; SIG_BYTES];
    let mut state = seed ^ 0xB51F_5EED_0000_0001;
    for bit in 0..SIG_BITS {
        let a = (splitmix(&mut state) as usize) % gist.len().max(1);
        let b = (splitmix(&mut state) as usize) % gist.len().max(1);
        let (ga, gb) = (gist.get(a).copied().unwrap_or(0.0), gist.get(b).copied().unwrap_or(0.0));
        if ga < gb {
            if let Some(byte) = out.get_mut(bit / 8) {
                *byte |= 1 << (bit % 8);
            }
        }
    }
    out
}

/// Render `gallery_grid(cfg, jitter)` and sign every `take_every`th view.
pub fn describe_grid(cfg: &AnnBenchConfig, jitter: u64, take_every: usize) -> BinaryDescriptors {
    let ds = gallery_grid(cfg.seed, cfg.models_per_class, cfg.yaw_steps, cfg.pitch_steps, jitter);
    let mut codes = BinaryDescriptors::new(SIG_BYTES);
    for li in ds.images.iter().step_by(take_every.max(1)) {
        codes.push(&binary_signature(&gist_descriptor(&li.image), cfg.seed));
    }
    codes
}

/// Run the full race: render, index, probe, report.
pub fn run_ann_bench(cfg: &AnnBenchConfig) -> taor_features::Result<AnnPerfRecord> {
    let gallery = describe_grid(cfg, 0, 1);
    let n = gallery.len();
    // Queries: the same grid cells re-rendered under jitter stream 1,
    // thinned to roughly `cfg.queries` evenly spaced views.
    let stride = (n / cfg.queries.max(1)).max(1);
    let queries = describe_grid(cfg, 1, stride);
    let nq = queries.len();
    let k = cfg.k.max(1);

    let started = Instant::now();
    let mih = MihIndex::build(gallery.clone(), MihParams::default())?;
    let build_ms = started.elapsed().as_secs_f64() * 1e3;

    let qwords: Vec<&[u64]> = queries.packed_words().chunks(queries.words_per_row()).collect();

    let started = Instant::now();
    let exact: Vec<Vec<(usize, u32)>> =
        qwords.iter().map(|q| exact_knn_binary(q, &gallery, k)).collect();
    let brute_us = started.elapsed().as_secs_f64() * 1e6 / nq.max(1) as f64;

    let started = Instant::now();
    let approx: Vec<Vec<(usize, u32)>> = qwords.iter().map(|q| mih.search_words(q, k)).collect();
    let ann_us = started.elapsed().as_secs_f64() * 1e6 / nq.max(1) as f64;

    let r1: Vec<f64> = approx.iter().zip(&exact).map(|(a, e)| recall_at_k_u32(a, e, 1)).collect();
    let rk: Vec<f64> = approx.iter().zip(&exact).map(|(a, e)| recall_at_k_u32(a, e, k)).collect();
    let binary = AnnModePerf {
        index: "mih".to_string(),
        build_ms,
        brute_us_per_query: brute_us,
        ann_us_per_query: ann_us,
        speedup: brute_us / ann_us.max(1e-9),
        recall_at_1: mean_recall(&r1),
        recall_at_k: mean_recall(&rk),
    };

    Ok(AnnPerfRecord {
        schema: ANN_PERF_SCHEMA.to_string(),
        seed: cfg.seed,
        gallery_views: n,
        queries: nq,
        dim: GIST_GRID * GIST_GRID,
        bits: SIG_BITS,
        k,
        binary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_gallery_index_is_exact() {
        // The scaled-gallery recall gate at a debug-feasible size: the
        // same pipeline CI runs at 10,500 views in release mode.
        let record = run_ann_bench(&AnnBenchConfig::quick(2019)).expect("bench runs");
        assert_eq!(record.gallery_views, 240);
        assert!(record.queries >= 20);
        assert!(
            (record.binary.recall_at_1 - 1.0).abs() < 1e-12,
            "mih is exact, recall@1 = {}",
            record.binary.recall_at_1
        );
        assert!(
            (record.binary.recall_at_k - 1.0).abs() < 1e-12,
            "mih is exact, recall@k = {}",
            record.binary.recall_at_k
        );
    }

    #[test]
    fn descriptors_are_deterministic_and_jitter_streams_differ() {
        let cfg = AnnBenchConfig::quick(7);
        let a = describe_grid(&cfg, 0, 5);
        let b = describe_grid(&cfg, 0, 5);
        assert_eq!(a, b, "same jitter, same bytes");
        let c = describe_grid(&cfg, 1, 5);
        assert_ne!(a, c, "jitter must perturb the views");
    }
}
