// taor-lint: allow(panic::index) — dense numeric kernel: indices are derived from dimensions validated at the public boundary and bounded by the enclosing loops.
//! Pipeline (v): deep neural inexact matching (paper §3.4).
//!
//! Trains the Normalized-X-Corr network of `taor-nn` on SNS2 image pairs
//! and evaluates it on the SNS1 and NYU+SNS1 pair sets, reproducing the
//! paper's Table 4. Also provides a cosine-similarity "exact matching"
//! head over the same shared towers — the classic Siamese baseline the
//! NIPS paper argues against — as an ablation.

use crate::eval::{evaluate_binary, BinaryEvaluation};
use rayon::prelude::*;
use std::collections::BTreeMap;
use taor_data::{Dataset, ImagePair, LabeledImage};
use taor_nn::{try_train, NetConfig, NormXCorrNet, PairSample, Tensor, TrainConfig, TrainReport};

/// Pairs scored per batched head pass (and images per batched tower
/// pass) during evaluation.
const EVAL_BATCH: usize = 16;

/// Full configuration of one Siamese experiment.
#[derive(Debug, Clone)]
pub struct SiameseConfig {
    pub net: NetConfig,
    pub train: TrainConfig,
    /// Number of training pairs drawn from SNS2 (paper: 9,450).
    pub n_train_pairs: usize,
    /// Pair-sampling seed.
    pub seed: u64,
}

impl Default for SiameseConfig {
    fn default() -> Self {
        SiameseConfig {
            net: NetConfig::default(),
            train: TrainConfig::default(),
            n_train_pairs: taor_data::TRAIN_PAIRS,
            seed: 2019,
        }
    }
}

impl SiameseConfig {
    /// A configuration small enough for CI and the quick repro mode:
    /// fewer pairs, fewer epochs, same architecture.
    pub fn quick() -> Self {
        SiameseConfig {
            net: NetConfig {
                height: 32,
                width: 24,
                c1: 8,
                c2: 10,
                c3: 10,
                dense: 32,
                ..NetConfig::default()
            },
            train: TrainConfig {
                max_epochs: 4,
                batch_size: 16,
                learning_rate: 1e-4,
                ..TrainConfig::default()
            },
            n_train_pairs: 600,
            seed: 2019,
        }
    }

    /// A single-CPU-feasible middle ground (≈ 2 min): the quick network on
    /// 2,000 pairs for a dozen epochs — enough for the in-domain signal to
    /// emerge while the cross-domain failure persists.
    pub fn medium() -> Self {
        let quick = SiameseConfig::quick();
        SiameseConfig {
            train: TrainConfig { max_epochs: 12, ..quick.train },
            n_train_pairs: 2_000,
            ..quick
        }
    }
}

/// Convert an RGB image into the network's `[1, 3, H, W]` input tensor
/// (resized, scaled to `[-0.5, 0.5]`).
pub fn image_to_tensor(img: &taor_imgproc::RgbImage, cfg: &NetConfig) -> Tensor {
    let resized =
        taor_imgproc::resize::resize_bilinear_rgb(img, cfg.width as u32, cfg.height as u32)
            .expect("net dims are nonzero"); // taor-lint: allow(panic::expect) — invariant expect: the message states why this cannot fail on valid state
    let (w, h) = (cfg.width, cfg.height);
    let mut data = vec![0.0f32; 3 * w * h];
    for (x, y, px) in resized.enumerate_pixels() {
        for c in 0..3 {
            data[c * w * h + y as usize * w + x as usize] = px[c] as f32 / 255.0 - 0.5;
        }
    }
    // taor-lint: allow(panic::expect) — invariant expect: the message states why this cannot fail on valid state
    Tensor::from_vec(&[1, 3, h, w], data).expect("length matches by construction")
}

/// The network inputs of a pair set: one tensor per distinct image, in
/// first-seen order, and each pair's two rows in that table. Pairs borrow
/// their images from shared datasets, so the address is the identity;
/// this is the one place that keys images by it.
fn input_table(pairs: &[ImagePair<'_>], cfg: &NetConfig) -> (Vec<Tensor>, Vec<[usize; 2]>) {
    let mut row_of: BTreeMap<*const LabeledImage, usize> = BTreeMap::new();
    let mut unique: Vec<&LabeledImage> = Vec::new();
    let rows: Vec<[usize; 2]> = pairs
        .iter()
        .map(|p| {
            [p.a, p.b].map(|img| {
                *row_of.entry(std::ptr::from_ref(img)).or_insert_with(|| {
                    unique.push(img);
                    unique.len() - 1
                })
            })
        })
        .collect();
    let tensors = unique.par_iter().map(|img| image_to_tensor(&img.image, cfg)).collect();
    (tensors, rows)
}

/// Train a Normalized-X-Corr net of shape `net` on `pairs`, every pair
/// borrowing its two tensors from one `input_table`. An undersized input
/// resolution, an empty pair list and a zero batch size are typed
/// [`crate::Error::Nn`] values ([`taor_nn::TensorError`]).
pub fn train_on_pairs(
    pairs: &[ImagePair<'_>],
    net: NetConfig,
    train: &TrainConfig,
    on_epoch: impl FnMut(&taor_nn::EpochStats),
) -> crate::error::Result<(NormXCorrNet, TrainReport)> {
    let mut net = NormXCorrNet::new(net)?;
    let (tensors, rows) = input_table(pairs, &net.config);
    let samples: Vec<PairSample<'_>> = pairs
        .iter()
        .zip(&rows)
        .map(|(p, &[a, b])| PairSample { a: &tensors[a], b: &tensors[b], label: p.label })
        .collect();
    let report = try_train(&mut net, &samples, train, on_epoch)?;
    Ok((net, report))
}

/// Train the Normalized-X-Corr net on SNS2 pairs per the paper's recipe:
/// [`taor_data::training_pairs`], then [`train_on_pairs`].
pub fn try_train_siamese(
    sns2: &Dataset,
    cfg: &SiameseConfig,
    on_epoch: impl FnMut(&taor_nn::EpochStats),
) -> crate::error::Result<(NormXCorrNet, TrainReport)> {
    let pairs = taor_data::training_pairs(sns2, cfg.n_train_pairs, cfg.seed);
    train_on_pairs(&pairs, cfg.net.clone(), &cfg.train, on_epoch)
}

/// Evaluate a trained net on labelled pairs, producing Table-4-style
/// binary metrics.
///
/// # Panics
/// Panics on malformed inputs; fallible callers should use
/// [`try_evaluate_siamese`]. This is the crate's one remaining panicking
/// twin, kept because the benchmark (`perfbench/`) calls it by name.
pub fn evaluate_siamese(
    net: &NormXCorrNet,
    pairs: &[ImagePair<'_>],
    cfg: &NetConfig,
) -> BinaryEvaluation {
    // taor-lint: allow(panic::panic) — documented legacy wrapper: panicking on Err is this shim's contract; callers wanting Results use the try_* API
    try_evaluate_siamese(net, pairs, cfg).unwrap_or_else(|e| panic!("evaluate_siamese: {e}"))
}

/// Fallible [`evaluate_siamese`] with shared-tower deduplication.
///
/// The re-identification protocol reuses every catalog image in many
/// pairs, so the expensive half of the network — the shared conv tower —
/// is run **once per distinct image** (`input_table`, in pool-parallel
/// batches) and each pair is then scored through the light NormXCorr
/// head from the precomputed features, also in pool-parallel batches.
/// Predictions are bit-identical to the naive pair-at-a-time path:
/// every layer's per-item fold is independent of batch grouping. An
/// empty pair list is an [`Error::EmptyInput`](crate::error::Error::EmptyInput).
pub fn try_evaluate_siamese(
    net: &NormXCorrNet,
    pairs: &[ImagePair<'_>],
    cfg: &NetConfig,
) -> crate::error::Result<BinaryEvaluation> {
    if pairs.is_empty() {
        return Err(crate::error::Error::EmptyInput("evaluation pairs"));
    }
    let (tensors, rows) = input_table(pairs, cfg);

    // Each distinct image through the tower exactly once.
    let embedded: Vec<crate::error::Result<Vec<Tensor>>> = tensors
        .par_chunks(EVAL_BATCH)
        .map(|chunk| {
            let refs: Vec<&Tensor> = chunk.iter().collect();
            let feats = net.tower_embed(&Tensor::stack_batch(&refs)?)?;
            Ok(feats.split_batch()?)
        })
        .collect();
    let mut features = Vec::with_capacity(tensors.len());
    for r in embedded {
        features.extend(r?);
    }

    // Score the pairs through the head from the precomputed features.
    let scored: Vec<crate::error::Result<Vec<usize>>> = rows
        .par_chunks(EVAL_BATCH)
        .map(|chunk| {
            let fa: Vec<&Tensor> = chunk.iter().map(|&[a, _]| &features[a]).collect();
            let fb: Vec<&Tensor> = chunk.iter().map(|&[_, b]| &features[b]).collect();
            let probs = net
                .predict_similar_features(&Tensor::stack_batch(&fa)?, &Tensor::stack_batch(&fb)?)?;
            Ok(probs.into_iter().map(|p| usize::from(p > 0.5)).collect::<Vec<_>>())
        })
        .collect();
    let mut preds = Vec::with_capacity(pairs.len());
    for r in scored {
        preds.extend(r?);
    }

    let truth: Vec<usize> = pairs.iter().map(|p| p.label).collect();
    Ok(evaluate_binary(&truth, &preds))
}

// ---------------------------------------------------------------------
// Cosine ablation: exact matching over mean-pooled image embeddings.
// ---------------------------------------------------------------------

/// A classic "exact matching" Siamese baseline: images are embedded by
/// channel-pooled colour statistics over a grid (an untrained stand-in
/// for shared conv towers), compared by cosine similarity, and thresholded
/// at a value fitted on the training pairs. Serves as the ablation
/// counterpart to Normalized-X-Corr's inexact matching.
#[derive(Debug, Clone)]
pub struct CosineSiamese {
    pub threshold: f32,
    grid: usize,
}

impl CosineSiamese {
    /// Fit the decision threshold on labelled pairs by sweeping the score
    /// range for maximum training accuracy; a zero `grid` is a typed
    /// error.
    ///
    /// Each of the 41 grid thresholds `t` counts the pairs it classifies
    /// correctly (`s > t` predicts 1; a NaN score predicts 0 everywhere)
    /// and the earliest maximum wins. The sweep is `41 · P` comparisons
    /// against two image embeddings per pair.
    pub fn try_fit(pairs: &[ImagePair<'_>], grid: usize) -> crate::error::Result<Self> {
        if grid < 1 {
            return Err(crate::error::Error::InvalidParameter {
                name: "grid",
                msg: "grid must be >= 1".into(),
            });
        }
        let model = CosineSiamese { threshold: 0.0, grid };
        let scores: Vec<(f32, usize)> =
            pairs.par_iter().map(|p| (model.score(&p.a.image, &p.b.image), p.label)).collect();
        let mut best_t = 0.0f32;
        let mut best_acc = 0usize;
        for i in 0..=40 {
            let t = -1.0 + i as f32 * 0.05;
            let acc = scores.iter().filter(|&&(s, l)| usize::from(s > t) == l).count();
            if acc > best_acc {
                best_acc = acc;
                best_t = t;
            }
        }
        Ok(CosineSiamese { threshold: best_t, grid })
    }

    /// Grid-pooled RGB embedding.
    fn embed(&self, img: &taor_imgproc::RgbImage) -> Vec<f32> {
        let g = self.grid as u32;
        let (w, h) = img.dimensions();
        let mut out = vec![0.0f32; (g * g * 3) as usize];
        let mut counts = vec![0u32; (g * g) as usize];
        for (x, y, px) in img.enumerate_pixels() {
            let gx = (x * g / w).min(g - 1);
            let gy = (y * g / h).min(g - 1);
            let cell = (gy * g + gx) as usize;
            counts[cell] += 1;
            for c in 0..3 {
                out[cell * 3 + c] += px[c] as f32 / 255.0;
            }
        }
        for (cell, &n) in counts.iter().enumerate() {
            if n > 0 {
                for c in 0..3 {
                    out[cell * 3 + c] /= n as f32;
                }
            }
        }
        out
    }

    /// Cosine similarity of the two embeddings.
    pub fn score(&self, a: &taor_imgproc::RgbImage, b: &taor_imgproc::RgbImage) -> f32 {
        let ea = self.embed(a);
        let eb = self.embed(b);
        let dot: f32 = ea.iter().zip(&eb).map(|(x, y)| x * y).sum();
        let na: f32 = ea.iter().map(|v| v * v).sum::<f32>().sqrt();
        let nb: f32 = eb.iter().map(|v| v * v).sum::<f32>().sqrt();
        if na < 1e-9 || nb < 1e-9 {
            0.0
        } else {
            dot / (na * nb)
        }
    }

    /// Predict 1 = similar / 0 = dissimilar for each pair.
    pub fn predict(&self, pairs: &[ImagePair<'_>]) -> Vec<usize> {
        pairs
            .par_iter()
            .map(|p| usize::from(self.score(&p.a.image, &p.b.image) > self.threshold))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use taor_data::{shapenet_set1, shapenet_set2, sns1_test_pairs, training_pairs};

    /// Every field of a binary evaluation, the floats as bits.
    fn eval_bits(e: &BinaryEvaluation) -> Vec<u64> {
        let class = |m: &crate::eval::BinaryClassMetrics| {
            [m.precision.to_bits(), m.recall.to_bits(), m.f1.to_bits(), m.support as u64]
        };
        [&[e.accuracy.to_bits()][..], &class(&e.similar), &class(&e.dissimilar)].concat()
    }

    #[test]
    fn image_to_tensor_has_net_shape() {
        let sns1 = shapenet_set1(1);
        let cfg = NetConfig { height: 32, width: 24, ..NetConfig::default() };
        let t = image_to_tensor(&sns1.images[0].image, &cfg);
        assert_eq!(t.shape(), &[1, 3, 32, 24]);
        assert!(t.data().iter().all(|v| (-0.5..=0.5).contains(v)));
    }

    #[test]
    fn quick_training_smoke() {
        let sns2 = shapenet_set2(1);
        let mut cfg = SiameseConfig::quick();
        cfg.n_train_pairs = 60;
        cfg.train.max_epochs = 1;
        let (net, report) = try_train_siamese(&sns2, &cfg, |_| {}).unwrap();
        assert_eq!(report.epochs.len(), 1);
        assert!(report.epochs[0].mean_loss.is_finite());
        // Evaluate on a small pair subset.
        let sns1 = shapenet_set1(1);
        let pairs = sns1_test_pairs(&sns1);
        let eval = evaluate_siamese(&net, &pairs[..100], &cfg.net);
        assert!(eval.accuracy >= 0.0 && eval.accuracy <= 1.0);
    }

    #[test]
    fn zero_training_pairs_is_a_typed_error() {
        let sns2 = shapenet_set2(1);
        let mut cfg = SiameseConfig::quick();
        cfg.n_train_pairs = 0;
        assert!(matches!(
            try_train_siamese(&sns2, &cfg, |_| {}),
            Err(crate::error::Error::Nn(taor_nn::TensorError::EmptyTrainingSet))
        ));
    }

    #[test]
    fn empty_evaluation_pairs_are_a_typed_error() {
        let cfg = NetConfig::default();
        let net = NormXCorrNet::new(cfg.clone()).unwrap();
        assert!(matches!(
            try_evaluate_siamese(&net, &[], &cfg),
            Err(crate::error::Error::EmptyInput("evaluation pairs"))
        ));
    }

    #[test]
    fn cosine_baseline_fits_and_predicts() {
        let sns2 = shapenet_set2(2);
        let pairs = training_pairs(&sns2, 200, 3);
        let model = CosineSiamese::try_fit(&pairs, 4).unwrap();
        let preds = model.predict(&pairs[..50]);
        assert_eq!(preds.len(), 50);
        assert!(model.threshold >= -1.0 && model.threshold <= 1.0);
    }

    #[test]
    fn cosine_identical_images_score_one() {
        let sns1 = shapenet_set1(3);
        let model = CosineSiamese { threshold: 0.5, grid: 4 };
        let img = &sns1.images[0].image;
        assert!((model.score(img, img) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn try_fit_zero_grid_is_typed_error() {
        let sns2 = shapenet_set2(4);
        let pairs = training_pairs(&sns2, 10, 1);
        assert!(matches!(
            CosineSiamese::try_fit(&pairs, 0),
            Err(crate::error::Error::InvalidParameter { name: "grid", .. })
        ));
    }

    /// The dedup + precomputed-feature evaluation path must agree exactly
    /// with the naive pair-at-a-time scoring.
    #[test]
    fn dedup_eval_matches_naive_pair_scoring() {
        let sns2 = shapenet_set2(1);
        let mut cfg = SiameseConfig::quick();
        cfg.n_train_pairs = 40;
        cfg.train.max_epochs = 1;
        let (net, _) = try_train_siamese(&sns2, &cfg, |_| {}).unwrap();
        let sns1 = shapenet_set1(1);
        let pairs = sns1_test_pairs(&sns1);
        let subset = &pairs[..120];

        let deduped = try_evaluate_siamese(&net, subset, &cfg.net).unwrap();

        let to_tensor = |img: &taor_data::LabeledImage| image_to_tensor(&img.image, &cfg.net);
        let copies: Vec<_> =
            subset.iter().map(|p| (to_tensor(p.a), to_tensor(p.b), p.label)).collect();
        let samples: Vec<_> =
            copies.iter().map(|(a, b, l)| PairSample { a, b, label: *l }).collect();
        let preds = taor_nn::try_predict_labels(&net, &samples).unwrap();
        let truth: Vec<usize> = subset.iter().map(|p| p.label).collect();
        let naive = evaluate_binary(&truth, &preds);

        assert_eq!(eval_bits(&deduped), eval_bits(&naive));
    }

    /// The table holds each distinct image once, and each pair's two rows
    /// hold that pair's own images.
    #[test]
    fn input_table_holds_each_distinct_image_once() {
        let sns2 = shapenet_set2(2019);
        let pairs = training_pairs(&sns2, 2_000, 2019);
        let cfg = SiameseConfig::quick().net;
        let (tensors, rows) = input_table(&pairs, &cfg);
        let images: BTreeSet<_> = pairs
            .iter()
            .flat_map(|p| [p.a, p.b])
            .map(|i| (i.class, i.model_id, i.view_id))
            .collect();
        assert_eq!(tensors.len(), images.len());
        assert!(tensors.len() <= 100, "{} rows for SNS2's 100 views", tensors.len());
        assert_eq!(rows.len(), pairs.len());
        for (p, &[a, b]) in pairs.iter().zip(&rows) {
            assert_eq!(tensors[a].data(), image_to_tensor(&p.a.image, &cfg).data());
            assert_eq!(tensors[b].data(), image_to_tensor(&p.b.image, &cfg).data());
        }
    }
}
