// taor-lint: allow(panic::index) — dense numeric kernel: indices are derived from dimensions validated at the public boundary and bounded by the enclosing loops.
//! Mini-batch training loop with the paper's early-stopping rule.
//!
//! §3.4: "Training samples were fed in batches of size 16 to run over up
//! to 100 epochs. An early stopping condition was defined so that training
//! would stop if the ϵ of loss decrease was lower than 1e−6 for more than
//! 10 subsequent epochs."
//!
//! Each mini-batch is split into fixed-size micro-batches that run as
//! true `[B, 3, H, W]` batched forward/backward passes, in parallel
//! across the worker pool; the per-micro-batch gradients are reduced
//! with a fixed-order tree sum ([`NetGrads::tree_sum`]). Both the micro
//! partitioning and the tree shape depend only on the batch size — never
//! on `TAOR_THREADS` — so the training trajectory is byte-identical at
//! any pool width. The retained per-sample oracle ([`sample_pass`]) pins
//! the batched pass bit-for-bit in the equivalence tests.

use crate::layers::softmax::{softmax_cross_entropy, softmax_cross_entropy_rows};
use crate::model::{NetGrads, NormXCorrNet};
use crate::optim::Adam;
use crate::tensor::{Tensor, TensorError};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;

/// One labelled image pair: borrowed `[1, 3, H, W]` tensors (pairs that
/// share an image share one tensor), label 1 = similar.
#[derive(Debug, Clone, Copy)]
pub struct PairSample<'t> {
    pub a: &'t Tensor,
    pub b: &'t Tensor,
    pub label: usize,
}

/// Training hyperparameters (defaults = the paper's).
#[derive(Debug, Clone)]
pub struct TrainConfig {
    pub learning_rate: f32,
    pub decay: f32,
    pub batch_size: usize,
    pub max_epochs: usize,
    /// Loss-decrease threshold ϵ for early stopping.
    pub early_stop_eps: f32,
    /// Number of consecutive low-decrease epochs that triggers the stop.
    pub early_stop_patience: usize,
    /// L2 weight decay (0 = off).
    pub weight_decay: f32,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            learning_rate: 1e-4,
            decay: 1e-7,
            batch_size: 16,
            max_epochs: 100,
            early_stop_eps: 1e-6,
            early_stop_patience: 10,
            weight_decay: 0.0,
            seed: 2019,
        }
    }
}

/// Per-epoch training record.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct EpochStats {
    pub epoch: usize,
    pub mean_loss: f32,
    pub accuracy: f32,
}

/// Outcome of a training run.
#[derive(Debug, Clone, serde::Serialize)]
pub struct TrainReport {
    pub epochs: Vec<EpochStats>,
    /// Whether the early-stopping rule fired (vs. exhausting max_epochs).
    pub early_stopped: bool,
}

/// Samples per batched forward/backward pass inside a mini-batch. Fixed
/// — never derived from the thread width — so the micro partitioning and
/// the gradient-reduction tree are identical at every `TAOR_THREADS`
/// setting; four micros per paper-sized batch of 16 keep a 4-wide pool
/// busy.
pub const MICRO_BATCH: usize = 4;

/// Per-micro-batch result: (per-row losses, per-row correctness, grads).
type MicroPassResult = Result<(Vec<f32>, Vec<bool>, NetGrads), TensorError>;

/// Per-sample loss/gradient oracle: one pair through a batch-1
/// forward/backward. The training loop no longer calls this — it runs
/// batched micro-passes — but it is retained as the bit-exactness
/// reference the batched path is pinned against (see the
/// `batched_equivalence` integration tests). Returns `(loss, correct,
/// grads)`; a pair the network cannot take is a typed error.
pub fn sample_pass(
    net: &NormXCorrNet,
    sample: &PairSample<'_>,
    dropout_seed: u64,
) -> Result<(f32, bool, NetGrads), TensorError> {
    let (logits, cache) = net.forward_ex(sample.a, sample.b, Some(dropout_seed))?;
    let (loss, grad) = softmax_cross_entropy(&logits, &[sample.label])?;
    let pred = if logits.at2(0, 1) > logits.at2(0, 0) { 1 } else { 0 };
    let mut grads = net.zero_grads();
    net.backward(&cache, &grad, &mut grads)?;
    Ok((loss, pred == sample.label, grads))
}

/// One micro-batch: stack the selected pairs, run the batched
/// forward/backward, and return per-row losses/correctness plus the
/// micro's gradient store (per-sample contributions accumulated in row
/// order, bit-identical to the [`sample_pass`] oracle). Pairs of unequal
/// shapes are a [`TensorError::ShapeMismatch`], and a label outside the
/// two classes a [`TensorError::InvalidLabel`].
fn micro_pass(
    net: &NormXCorrNet,
    samples: &[PairSample<'_>],
    idxs: &[usize],
    epoch: usize,
    seed: u64,
) -> Result<(Vec<f32>, Vec<bool>, NetGrads), TensorError> {
    let a: Vec<&Tensor> = idxs.iter().map(|&i| samples[i].a).collect();
    let b: Vec<&Tensor> = idxs.iter().map(|&i| samples[i].b).collect();
    let (a, b) = (Tensor::stack_batch(&a)?, Tensor::stack_batch(&b)?);
    let labels: Vec<usize> = idxs.iter().map(|&i| samples[i].label).collect();
    // Per-sample, per-epoch dropout stream — a function of the sample
    // index, not of the batch grouping.
    let seeds: Vec<u64> =
        idxs.iter().map(|&i| seed ^ ((epoch as u64) << 32) ^ (i as u64)).collect();
    let (logits, cache) = net.forward_batch(&a, &b, Some(&seeds))?;
    let (losses, grad) = softmax_cross_entropy_rows(&logits, &labels)?;
    let correct: Vec<bool> = labels
        .iter()
        .enumerate()
        .map(|(i, &l)| usize::from(logits.at2(i, 1) > logits.at2(i, 0)) == l)
        .collect();
    let mut grads = net.zero_grads();
    net.backward_batch(&cache, &grad, &mut grads)?;
    Ok((losses, correct, grads))
}

/// Train `net` on `samples`. `on_epoch` is called after every epoch with
/// the stats so far (the repro harness uses it for progress logging).
/// An empty training set, a zero batch size and a label other than 0 or
/// 1 are typed errors.
pub fn try_train(
    net: &mut NormXCorrNet,
    samples: &[PairSample<'_>],
    cfg: &TrainConfig,
    mut on_epoch: impl FnMut(&EpochStats),
) -> Result<TrainReport, TensorError> {
    if samples.is_empty() {
        return Err(TensorError::EmptyTrainingSet);
    }
    if cfg.batch_size < 1 {
        return Err(TensorError::InvalidBatchSize { batch_size: cfg.batch_size });
    }
    let mut adam = Adam::new(cfg.learning_rate, cfg.decay).with_weight_decay(cfg.weight_decay);
    let mut order: Vec<usize> = (0..samples.len()).collect();
    let mut rng = rand::rngs::SmallRng::seed_from_u64(cfg.seed);

    let mut epochs = Vec::new();
    let mut prev_loss = f32::INFINITY;
    let mut stall = 0usize;
    let mut early_stopped = false;

    for epoch in 0..cfg.max_epochs {
        order.shuffle(&mut rng);
        let mut total_loss = 0.0f64;
        let mut correct = 0usize;

        for chunk in order.chunks(cfg.batch_size) {
            // Batched micro-passes in parallel (ordered collect), then a
            // fixed-order tree reduction of the micro gradients.
            let results: Vec<MicroPassResult> = chunk
                .par_chunks(MICRO_BATCH)
                .map(|idxs| micro_pass(net, samples, idxs, epoch, cfg.seed))
                .collect();
            let mut parts = Vec::with_capacity(results.len());
            for r in results {
                let (losses, oks, g) = r?;
                for l in &losses {
                    total_loss += *l as f64;
                }
                correct += oks.iter().filter(|&&ok| ok).count();
                parts.push(g);
            }
            let mut batch_grads = match NetGrads::tree_sum(parts)? {
                Some(g) => g,
                None => continue,
            };
            batch_grads.scale(1.0 / chunk.len() as f32);
            // The gradient store and the network are disjoint objects, so
            // Adam can read the gradients in place — no per-step clone.
            let grefs = NormXCorrNet::grads_vec(&batch_grads);
            adam.step(&mut net.params_mut(), &grefs);
        }

        let mean_loss = (total_loss / samples.len() as f64) as f32;
        let stats =
            EpochStats { epoch, mean_loss, accuracy: correct as f32 / samples.len() as f32 };
        on_epoch(&stats);
        epochs.push(stats);

        // Early stopping on loss-decrease plateau.
        let decrease = prev_loss - mean_loss;
        if decrease < cfg.early_stop_eps {
            stall += 1;
            if stall > cfg.early_stop_patience {
                early_stopped = true;
                break;
            }
        } else {
            stall = 0;
        }
        prev_loss = mean_loss;
    }
    Ok(TrainReport { epochs, early_stopped })
}

/// Pairs stacked per forward pass during evaluation. The whole chunk
/// moves through the network as one `[B, 3, H, W]` batch, so each layer
/// costs a single GEMM instead of `B` small ones.
const EVAL_BATCH: usize = 16;

/// Evaluate: predicted label (argmax) per sample, scored in
/// pool-parallel batches; pairs of unequal shapes are a
/// [`TensorError::ShapeMismatch`].
pub fn try_predict_labels(
    net: &NormXCorrNet,
    samples: &[PairSample<'_>],
) -> Result<Vec<usize>, TensorError> {
    let results: Vec<Result<Vec<usize>, TensorError>> = samples
        .par_chunks(EVAL_BATCH)
        .map(|chunk| {
            let a: Vec<&Tensor> = chunk.iter().map(|p| p.a).collect();
            let b: Vec<&Tensor> = chunk.iter().map(|p| p.b).collect();
            let probs =
                net.predict_similar(&Tensor::stack_batch(&a)?, &Tensor::stack_batch(&b)?)?;
            Ok(probs.into_iter().map(|p| usize::from(p > 0.5)).collect::<Vec<_>>())
        })
        .collect();
    let mut out = Vec::with_capacity(samples.len());
    for r in results {
        out.extend(r?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NetConfig;
    use rand::Rng;

    fn tiny_net() -> NormXCorrNet {
        NormXCorrNet::new(NetConfig {
            height: 24,
            width: 20,
            c1: 3,
            c2: 4,
            c3: 4,
            dense: 8,
            ..Default::default()
        })
        .expect("test config is large enough")
    }

    /// Trivially separable data: "similar" pairs are both bright, others
    /// are bright-vs-dark. Each pair's two tensors and label; [`borrowed`]
    /// makes the samples.
    fn separable_pairs(n: usize, h: usize, w: usize, seed: u64) -> Vec<(Tensor, Tensor, usize)> {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let label = i % 2;
                let len = 3 * h * w;
                let bright: Vec<f32> = (0..len).map(|_| 0.8 + rng.gen_range(-0.1..0.1)).collect();
                let other: Vec<f32> = if label == 1 {
                    (0..len).map(|_| 0.8 + rng.gen_range(-0.1..0.1)).collect()
                } else {
                    (0..len).map(|_| -0.8 + rng.gen_range(-0.1..0.1)).collect()
                };
                (
                    Tensor::from_vec(&[1, 3, h, w], bright).unwrap(),
                    Tensor::from_vec(&[1, 3, h, w], other).unwrap(),
                    label,
                )
            })
            .collect()
    }

    fn borrowed(pairs: &[(Tensor, Tensor, usize)]) -> Vec<PairSample<'_>> {
        pairs.iter().map(|(a, b, label)| PairSample { a, b, label: *label }).collect()
    }

    #[test]
    fn loss_decreases_on_separable_data() {
        let mut net = tiny_net();
        let pairs = separable_pairs(24, 24, 20, 7);
        let cfg =
            TrainConfig { learning_rate: 1e-3, max_epochs: 6, batch_size: 8, ..Default::default() };
        let report = try_train(&mut net, &borrowed(&pairs), &cfg, |_| {}).unwrap();
        let first = report.epochs.first().unwrap().mean_loss;
        let last = report.epochs.last().unwrap().mean_loss;
        assert!(last < first, "loss {first} -> {last} should decrease");
    }

    #[test]
    fn early_stopping_fires_on_plateau() {
        let mut net = tiny_net();
        let pairs = separable_pairs(8, 24, 20, 9);
        // Zero learning rate: loss cannot decrease, so the plateau rule
        // must fire after `patience + 1` epochs.
        let cfg = TrainConfig {
            learning_rate: 0.0,
            max_epochs: 50,
            batch_size: 8,
            early_stop_patience: 3,
            ..Default::default()
        };
        let report = try_train(&mut net, &borrowed(&pairs), &cfg, |_| {}).unwrap();
        assert!(report.early_stopped);
        assert!(report.epochs.len() <= 6, "stopped after {} epochs", report.epochs.len());
    }

    #[test]
    fn epoch_callback_sees_every_epoch() {
        let mut net = tiny_net();
        let pairs = separable_pairs(8, 24, 20, 11);
        let cfg = TrainConfig { max_epochs: 3, batch_size: 4, ..Default::default() };
        let mut seen = Vec::new();
        let report = try_train(&mut net, &borrowed(&pairs), &cfg, |s| seen.push(s.epoch)).unwrap();
        assert_eq!(seen.len(), report.epochs.len());
    }

    #[test]
    fn predict_labels_shape() {
        let net = tiny_net();
        let pairs = separable_pairs(6, 24, 20, 13);
        let labels = try_predict_labels(&net, &borrowed(&pairs)).unwrap();
        assert_eq!(labels.len(), 6);
        assert!(labels.iter().all(|&l| l == 0 || l == 1));
    }

    #[test]
    fn mixed_pair_shapes_are_a_typed_error() {
        // A 24×20 pair, then a taller one, or one with the same element
        // count under transposed sides that must not be silently reshaped.
        for (h, w) in [(26, 20), (20, 24)] {
            let mut pairs = separable_pairs(1, 24, 20, 17);
            pairs.extend(separable_pairs(1, h, w, 19));
            let samples = borrowed(&pairs);
            let net = tiny_net();
            assert!(
                matches!(
                    try_predict_labels(&net, &samples),
                    Err(TensorError::ShapeMismatch { .. })
                ),
                "predict on a [1, 3, {h}, {w}] pair"
            );
            let mut net = tiny_net();
            let cfg = TrainConfig { max_epochs: 1, batch_size: 8, ..Default::default() };
            assert!(
                matches!(
                    try_train(&mut net, &samples, &cfg, |_| {}),
                    Err(TensorError::ShapeMismatch { .. })
                ),
                "train on a [1, 3, {h}, {w}] pair"
            );
        }
    }

    #[test]
    fn empty_training_set_is_a_typed_error() {
        let mut net = tiny_net();
        let cfg = TrainConfig::default();
        assert!(matches!(
            try_train(&mut net, &[], &cfg, |_| {}),
            Err(TensorError::EmptyTrainingSet)
        ));
    }

    #[test]
    fn out_of_range_label_is_a_typed_error() {
        let pairs = separable_pairs(6, 24, 20, 21);
        let mut samples = borrowed(&pairs);
        samples[3].label = 2;
        let want = Some(TensorError::InvalidLabel { label: 2, classes: 2 });
        assert_eq!(sample_pass(&tiny_net(), &samples[3], 1).err(), want);
        let mut net = tiny_net();
        let cfg = TrainConfig { max_epochs: 1, batch_size: 4, ..Default::default() };
        assert_eq!(try_train(&mut net, &samples, &cfg, |_| {}).err(), want);
    }

    #[test]
    fn zero_batch_size_is_a_typed_error() {
        let mut net = tiny_net();
        let pairs = separable_pairs(4, 24, 20, 15);
        let cfg = TrainConfig { batch_size: 0, ..Default::default() };
        assert!(matches!(
            try_train(&mut net, &borrowed(&pairs), &cfg, |_| {}),
            Err(TensorError::InvalidBatchSize { batch_size: 0 })
        ));
    }
}
