// taor-lint: allow(panic::index) — dense numeric kernel: indices are derived from dimensions validated at the public boundary and bounded by the enclosing loops.
//! Softmax and the fused softmax + categorical cross-entropy loss.
//!
//! The paper "compiled [the model] using categorical crossentropy as loss
//! function" over two classes (similar / dissimilar).

use crate::tensor::{Tensor, TensorError};

/// Row-wise softmax probabilities of a `[N, K]` logit matrix.
pub fn softmax_probs(logits: &Tensor) -> Result<Tensor, TensorError> {
    let s = logits.shape();
    if s.len() != 2 {
        return Err(TensorError::ShapeMismatch { expected: vec![0, 0], got: s.to_vec() });
    }
    let (n, k) = (s[0], s[1]);
    let mut out = logits.clone();
    for i in 0..n {
        let row = &mut out.data_mut()[i * k..(i + 1) * k];
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    Ok(out)
}

/// Every target must name one of the `classes` logit columns
/// ([`TensorError::InvalidLabel`]).
fn check_labels(targets: &[usize], classes: usize) -> Result<(), TensorError> {
    match targets.iter().find(|&&t| t >= classes) {
        Some(&label) => Err(TensorError::InvalidLabel { label, classes }),
        None => Ok(()),
    }
}

/// Fused softmax + categorical cross-entropy.
///
/// Returns `(mean loss, dL/dlogits)`; the gradient is the classic
/// `(p − onehot) / N`.
pub fn softmax_cross_entropy(
    logits: &Tensor,
    targets: &[usize],
) -> Result<(f32, Tensor), TensorError> {
    let s = logits.shape();
    if s.len() != 2 || s[0] != targets.len() {
        return Err(TensorError::ShapeMismatch {
            expected: vec![targets.len(), 0],
            got: s.to_vec(),
        });
    }
    let (n, k) = (s[0], s[1]);
    check_labels(targets, k)?;
    let probs = softmax_probs(logits)?;
    let mut loss = 0.0f64;
    let mut grad = probs.clone();
    for (i, &t) in targets.iter().enumerate() {
        let p = probs.data()[i * k + t].max(1e-12);
        loss -= (p as f64).ln();
        grad.data_mut()[i * k + t] -= 1.0;
    }
    grad.scale(1.0 / n as f32);
    Ok(((loss / n as f64) as f32, grad))
}

/// Fused softmax + categorical cross-entropy, reported per row.
///
/// Returns `(per-row losses, dL/dlogits)` where the gradient is the
/// **unscaled** `p − onehot` and `losses[i]` is exactly the value
/// [`softmax_cross_entropy`] returns for row `i` alone at batch size 1
/// (softmax rows are independent, and the loss is written as the same
/// `0.0 − ln p` fold so even the sign of a zero loss matches). This is
/// the building block for batched training passes that must stay
/// bit-identical to the per-sample oracle: the caller owns the `1/B`
/// scaling and the reduction order.
pub fn softmax_cross_entropy_rows(
    logits: &Tensor,
    targets: &[usize],
) -> Result<(Vec<f32>, Tensor), TensorError> {
    let s = logits.shape();
    if s.len() != 2 || s[0] != targets.len() {
        return Err(TensorError::ShapeMismatch {
            expected: vec![targets.len(), 0],
            got: s.to_vec(),
        });
    }
    let (n, k) = (s[0], s[1]);
    check_labels(targets, k)?;
    let probs = softmax_probs(logits)?;
    let mut losses = Vec::with_capacity(n);
    let mut grad = probs;
    for (i, &t) in targets.iter().enumerate() {
        let p = grad.data()[i * k + t].max(1e-12);
        losses.push((0.0 - (p as f64).ln()) as f32);
        grad.data_mut()[i * k + t] -= 1.0;
    }
    Ok((losses, grad))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probs_sum_to_one() {
        let logits = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]).unwrap();
        let p = softmax_probs(&logits).unwrap();
        for i in 0..2 {
            let s: f32 = p.data()[i * 3..(i + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let a = Tensor::from_vec(&[1, 2], vec![1000.0, 1001.0]).unwrap();
        let p = softmax_probs(&a).unwrap();
        assert!(p.data().iter().all(|v| v.is_finite()));
        let b = Tensor::from_vec(&[1, 2], vec![0.0, 1.0]).unwrap();
        let q = softmax_probs(&b).unwrap();
        assert!((p.data()[0] - q.data()[0]).abs() < 1e-6);
    }

    #[test]
    fn perfect_prediction_low_loss() {
        let logits = Tensor::from_vec(&[1, 2], vec![20.0, -20.0]).unwrap();
        let (loss, _) = softmax_cross_entropy(&logits, &[0]).unwrap();
        assert!(loss < 1e-6);
        let (bad_loss, _) = softmax_cross_entropy(&logits, &[1]).unwrap();
        assert!(bad_loss > 10.0);
    }

    #[test]
    fn uniform_logits_loss_is_log_k() {
        let logits = Tensor::zeros(&[4, 5]);
        let (loss, _) = softmax_cross_entropy(&logits, &[0, 1, 2, 3]).unwrap();
        assert!((loss - (5.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn gradient_check() {
        let logits = Tensor::from_vec(&[2, 3], vec![0.5, -0.2, 0.1, 1.5, 0.3, -1.0]).unwrap();
        let targets = [2usize, 0];
        let (_, grad) = softmax_cross_entropy(&logits, &targets).unwrap();
        let eps = 1e-3f32;
        let mut l2 = logits.clone();
        for idx in 0..logits.len() {
            let orig = l2.data()[idx];
            l2.data_mut()[idx] = orig + eps;
            let (lp, _) = softmax_cross_entropy(&l2, &targets).unwrap();
            l2.data_mut()[idx] = orig - eps;
            let (lm, _) = softmax_cross_entropy(&l2, &targets).unwrap();
            l2.data_mut()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - grad.data()[idx]).abs() < 1e-3,
                "dlogit[{idx}]: {num} vs {}",
                grad.data()[idx]
            );
        }
    }

    #[test]
    fn out_of_range_label_is_a_typed_error() {
        let logits = Tensor::from_vec(&[2, 2], vec![0.5, -0.2, 1.5, 0.3]).unwrap();
        let want = TensorError::InvalidLabel { label: 2, classes: 2 };
        assert_eq!(softmax_cross_entropy(&logits, &[0, 2]).err(), Some(want.clone()));
        assert_eq!(softmax_cross_entropy_rows(&logits, &[2, 1]).err(), Some(want));
    }

    #[test]
    fn batch_size_mismatch_rejected() {
        let logits = Tensor::zeros(&[2, 3]);
        assert!(softmax_cross_entropy(&logits, &[0]).is_err());
    }

    #[test]
    fn rows_variant_matches_per_sample_bitwise() {
        let logits = Tensor::from_vec(&[3, 2], vec![0.5, -0.2, 20.0, -20.0, -1.3, 0.9]).unwrap();
        let targets = [1usize, 0, 0];
        let (losses, grad) = softmax_cross_entropy_rows(&logits, &targets).unwrap();
        assert_eq!(losses.len(), 3);
        for i in 0..3 {
            let row =
                Tensor::from_vec(&[1, 2], logits.data()[i * 2..(i + 1) * 2].to_vec()).unwrap();
            let (l1, g1) = softmax_cross_entropy(&row, &[targets[i]]).unwrap();
            assert_eq!(losses[i].to_bits(), l1.to_bits(), "row {i} loss");
            for j in 0..2 {
                // B=1 means the per-sample gradient is also unscaled.
                assert_eq!(
                    grad.data()[i * 2 + j].to_bits(),
                    g1.data()[j].to_bits(),
                    "row {i} grad {j}"
                );
            }
        }
    }
}
