// taor-lint: allow(panic::index) — dense evaluation kernel: row indices are bounded by the descriptor containers they came from.
//! Recall@k-vs-exact evaluation for the gallery index.
//!
//! The exact oracle follows the naive matcher's pattern — a scalar scan
//! maintaining the lexicographically smallest `(distance, index)` pairs —
//! generalised from 2-NN to top-k, and recall is **tie-tolerant**: an
//! indexed neighbour counts as a hit when its (exact, rescored) distance
//! is no worse than the oracle's kth distance, so duplicated descriptors
//! cannot flip a correct answer into a miss by index disagreement alone.

use crate::keypoint::{hamming_words, BinaryDescriptors};

/// Exact top-`k` neighbours of a word-packed binary `query` in `train`
/// under Hamming distance as `(row, distance)`, ascending by
/// `(distance, index)`.
pub fn exact_knn_binary(query: &[u64], train: &BinaryDescriptors, k: usize) -> Vec<(usize, u32)> {
    let wpr = train.words_per_row();
    let packed = train.packed_words();
    let mut all: Vec<(usize, u32)> = (0..train.len())
        .map(|i| (i, hamming_words(query, &packed[i * wpr..(i + 1) * wpr])))
        .collect();
    all.sort_unstable_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
    all.truncate(k);
    all
}

/// Tie-tolerant recall@k for one query under integer (Hamming)
/// distances: the fraction of the first `k` indexed neighbours whose
/// distance is `≤` the exact kth distance. Returns 1.0 when the exact
/// list is empty (nothing to recall).
pub fn recall_at_k_u32(approx: &[(usize, u32)], exact: &[(usize, u32)], k: usize) -> f64 {
    let k = k.min(exact.len());
    if k == 0 {
        return 1.0;
    }
    let kth = exact[k - 1].1;
    let hits = approx.iter().take(k).filter(|&&(_, d)| d <= kth).count();
    hits as f64 / k as f64
}

/// Mean of per-query recalls; 1.0 for an empty batch.
pub fn mean_recall(per_query: &[f64]) -> f64 {
    if per_query.is_empty() {
        return 1.0;
    }
    per_query.iter().sum::<f64>() / per_query.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_binary_oracle_sorts_with_index_ties() {
        let mut train = BinaryDescriptors::new(1);
        train.push(&[0b11]);
        train.push(&[0b01]);
        train.push(&[0b01]);
        let nn = exact_knn_binary(&[0b01], &train, 2);
        assert_eq!(nn, vec![(1, 0), (2, 0)]);
    }

    #[test]
    fn recall_is_tie_tolerant() {
        let exact = vec![(1, 5u32), (2, 5)];
        // Different index, same distance: still a hit.
        let approx = vec![(7, 5u32), (2, 5)];
        assert_eq!(recall_at_k_u32(&approx, &exact, 2), 1.0);
        // A worse distance is a miss.
        let approx = vec![(7, 6u32), (2, 5)];
        assert_eq!(recall_at_k_u32(&approx, &exact, 2), 0.5);
        // Short indexed lists count the absent entries as misses.
        assert_eq!(recall_at_k_u32(&[], &exact, 2), 0.0);
        // Empty exact list: vacuous hit.
        assert_eq!(recall_at_k_u32(&approx, &[], 2), 1.0);
    }

    #[test]
    fn mean_recall_basics() {
        assert_eq!(mean_recall(&[]), 1.0);
        assert_eq!(mean_recall(&[1.0, 0.0]), 0.5);
    }
}
