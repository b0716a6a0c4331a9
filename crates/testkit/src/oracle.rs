//! Naive reference loops that the fast shipping paths are pinned against
//! bit for bit: the ikj product behind the GEMM tests (Miri included) and
//! bench, the byte-wise Hamming 2-NN behind `knn_match_binary` and the MIH
//! index, the dense 96-bin histogram metrics behind `compare_hist`
//! (`crates/imgproc/tests/properties.rs`), and the batch-1 training pass
//! behind the batched trainer (`crates/nn/tests/batched_equivalence.rs`).

use taor_features::error::FeatureError;
use taor_features::keypoint::BinaryDescriptors;
use taor_features::matcher::{DMatch, RatioMatch};
use taor_imgproc::histogram::HistCompare;
use taor_nn::layers::softmax_cross_entropy_rows;
use taor_nn::train::PairSample;
use taor_nn::{NetGrads, NormXCorrNet, TensorError};

/// `c = a·b` for row-major `a` (`[m, k]`), `b` (`[k, n]`) and `c`
/// (`[m, n]`), skipping exact-zero entries of `a`.
pub fn matmul_naive(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    c[..m * n].fill(0.0);
    for i in 0..m {
        for kk in 0..k {
            let av = a[i * k + kk];
            if av == 0.0 {
                continue;
            }
            let row = &b[kk * n..(kk + 1) * n];
            let dst = &mut c[i * n..(i + 1) * n];
            for (d, &bv) in dst.iter_mut().zip(row) {
                *d += av * bv;
            }
        }
    }
}

/// Hamming distance between two equal-length byte strings.
pub fn hamming(a: &[u8], b: &[u8]) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| (x ^ y).count_ones()).sum()
}

/// For each query row, its two nearest train rows under [`hamming`], by
/// an ascending scan that keeps the earliest index on ties.
pub fn knn_match_binary_naive(
    query: &BinaryDescriptors,
    train: &BinaryDescriptors,
) -> Result<Vec<RatioMatch>, FeatureError> {
    if query.is_empty() || train.is_empty() {
        return Ok(Vec::new());
    }
    if query.width_bytes() != train.width_bytes() {
        return Err(FeatureError::DescriptorWidthMismatch {
            left: query.width_bytes(),
            right: train.width_bytes(),
        });
    }
    let mut out = Vec::with_capacity(query.len());
    for qi in 0..query.len() {
        let q = query.row(qi);
        let mut best = DMatch { query_idx: qi, train_idx: 0, distance: f32::INFINITY };
        let mut second: Option<DMatch> = None;
        for ti in 0..train.len() {
            let d = hamming(q, train.row(ti)) as f32;
            if d < best.distance {
                second = Some(best);
                best = DMatch { query_idx: qi, train_idx: ti, distance: d };
            } else if second.is_none_or(|s| d < s.distance) {
                second = Some(DMatch { query_idx: qi, train_idx: ti, distance: d });
            }
        }
        let second = second.filter(|s| s.distance.is_finite());
        out.push(RatioMatch { best, second });
    }
    Ok(out)
}

/// OpenCV's `compareHist` over every bin of two flat histograms, as
/// `Iterator::sum` folds them, each histogram's sum taken afresh per
/// pair. The shipping `compare_hist` folds only nonzero bins and reads
/// cached sums; it must give these bits.
pub fn compare_hist_dense(ha: &[f64], hb: &[f64], method: HistCompare) -> f64 {
    let (sum_a, sum_b): (f64, f64) = (ha.iter().sum(), hb.iter().sum());
    let n = ha.len() as f64;
    let pairs = || ha.iter().zip(hb).map(|(&x, &y)| (x, y));
    match method {
        HistCompare::Correlation => {
            let (mean_a, mean_b) = (sum_a / n, sum_b / n);
            let (mut num, mut da, mut db) = (0.0, 0.0, 0.0);
            for (x, y) in pairs() {
                num += (x - mean_a) * (y - mean_b);
                da += (x - mean_a).powi(2);
                db += (y - mean_b).powi(2);
            }
            let denom = (da * db).sqrt();
            if denom < f64::MIN_POSITIVE {
                1.0
            } else {
                num / denom
            }
        }
        HistCompare::ChiSquare => {
            pairs().filter(|&(x, _)| x > 0.0).map(|(x, y)| (x - y).powi(2) / x).sum()
        }
        HistCompare::Intersection => pairs().map(|(x, y)| x.min(y)).sum(),
        HistCompare::Hellinger if sum_a < f64::MIN_POSITIVE || sum_b < f64::MIN_POSITIVE => 1.0,
        HistCompare::Hellinger => {
            let bc: f64 = pairs().map(|(x, y)| (x * y).sqrt()).sum();
            (1.0 - bc / (sum_a * sum_b).sqrt()).max(0.0).sqrt()
        }
    }
}

/// One pair through a batch-1 forward (dropout seeded by `dropout_seed`)
/// and backward: `(loss, correct, grads)`. At one row, dividing the loss
/// and scaling the gradient by `1/N` would be exact, so neither is done.
pub fn sample_pass(
    net: &NormXCorrNet,
    sample: &PairSample<'_>,
    dropout_seed: u64,
) -> Result<(f32, bool, NetGrads), TensorError> {
    let (logits, cache) = net.forward_ex(sample.a, sample.b, Some(dropout_seed))?;
    let (losses, grad) = softmax_cross_entropy_rows(&logits, &[sample.label])?;
    let pred = if logits.at2(0, 1) > logits.at2(0, 0) { 1 } else { 0 };
    let mut grads = net.zero_grads();
    net.backward(&cache, &grad, &mut grads)?;
    Ok((losses[0], pred == sample.label, grads))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hamming_distance_counts_bits() {
        assert_eq!(hamming(&[0xFF], &[0x00]), 8);
        assert_eq!(hamming(&[0b1010], &[0b0101]), 4);
        assert_eq!(hamming(&[1, 2, 3], &[1, 2, 3]), 0);
    }
}
