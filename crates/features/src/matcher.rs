// taor-lint: allow(panic::index) — dense numeric kernel: indices are derived from dimensions validated at the public boundary and bounded by the enclosing loops.
//! Brute-force descriptor matching with Lowe's ratio test.
//!
//! The paper: "we relied on OpenCV built-in methods and used brute-force
//! matching", "trimmed the resulting matching keypoints to the second-
//! nearest neighbour. A ratio test was then applied … setting the threshold
//! to 0.75 and 0.5" (§3.3). SIFT/SURF use the L2 norm; ORB uses Hamming
//! "since in BRIEF descriptors are parsed to binary strings".
//!
//! Two kernel tiers per metric, selected by problem size:
//!
//! * **L2:** [`knn_match_float`] rewrites the distance matrix as
//!   `‖q−t‖² = ‖q‖² + ‖t‖² − 2q·t` and computes the `q·t` cross terms
//!   with `taor-nn`'s GEMM (query-block × trainᵀ), using cached
//!   row norms. The approximate distances only *select* a candidate set
//!   (with a rounding-error slack wide enough to be provably inclusive);
//!   every returned distance comes from an exact [`l2_sq`] rescore that
//!   replays the naive loop's update sequence over the candidates, so
//!   best/second indices, distances, tie behaviour and the NaN
//!   quarantine are bit-identical to [`knn_match_float_naive`]. Inputs
//!   containing non-finite (or overflow-prone) rows fall back to the
//!   naive loop outright.
//! * **Hamming:** [`knn_match_binary`] runs over cached `u64` repacked
//!   rows with `count_ones`.
//!
//! The original scalar double loops are retained as
//! [`knn_match_float_naive`] / [`knn_match_binary_naive`]: they are the
//! equivalence oracle for the property tests and the baseline the
//! criterion pins measure against.

use crate::error::{FeatureError, Result};
use crate::keypoint::{hamming, hamming_words, l2_sq, BinaryDescriptors, FloatDescriptors};
use rayon::prelude::*;

/// One query→train match: indices plus distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DMatch {
    pub query_idx: usize,
    pub train_idx: usize,
    pub distance: f32,
}

/// A query descriptor's two nearest neighbours (second may be absent when
/// the train set has a single descriptor).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatioMatch {
    pub best: DMatch,
    pub second: Option<DMatch>,
}

impl RatioMatch {
    /// Lowe's ratio test: accept when `best < ratio * second`. A match with
    /// no second neighbour is accepted (nothing to compare against).
    pub fn passes_ratio(&self, ratio: f32) -> bool {
        match self.second {
            Some(second) => self.best.distance < ratio * second.distance,
            None => true,
        }
    }
}

/// For each query descriptor, find its two nearest train descriptors under
/// squared L2. Returns one [`RatioMatch`] per query descriptor; empty when
/// either side is empty.
///
/// ```
/// use taor_features::{knn_match_float, ratio_test_matches, FloatDescriptors};
///
/// let mut train = FloatDescriptors::new(2);
/// train.push(&[0.0, 0.0]);
/// train.push(&[5.0, 5.0]);
/// let mut query = FloatDescriptors::new(2);
/// query.push(&[0.2, 0.1]);
/// let matches = knn_match_float(&query, &train).unwrap();
/// assert_eq!(matches[0].best.train_idx, 0);
/// assert_eq!(ratio_test_matches(&matches, 0.75).len(), 1);
/// ```
pub fn knn_match_float(
    query: &FloatDescriptors,
    train: &FloatDescriptors,
) -> Result<Vec<RatioMatch>> {
    if query.is_empty() || train.is_empty() {
        return Ok(Vec::new());
    }
    if query.width() != train.width() {
        return Err(FeatureError::DescriptorWidthMismatch {
            left: query.width(),
            right: train.width(),
        });
    }
    if query.len() * train.len() < GEMM_MIN_PAIRS || query.width() < GEMM_MIN_WIDTH {
        return knn_match_float_naive(query, train);
    }
    let qn = query.norms_sq();
    let tn = train.norms_sq();
    // The norm-trick error analysis below assumes every distance stays
    // well inside f32 range; rows with non-finite or overflow-prone
    // norms take the (NaN/∞-exact) naive loop instead.
    if !rows_clean(qn) || !rows_clean(tn) {
        return knn_match_float_naive(query, train);
    }
    Ok(knn_match_float_gemm(query, train, qn, tn))
}

/// The scalar O(Q·T·D) reference loop the seed shipped, retained
/// verbatim: the equivalence oracle for the GEMM-backed kernel (the
/// property tests assert bit-identical output) and the baseline of the
/// matcher criterion pins.
pub fn knn_match_float_naive(
    query: &FloatDescriptors,
    train: &FloatDescriptors,
) -> Result<Vec<RatioMatch>> {
    if query.is_empty() || train.is_empty() {
        return Ok(Vec::new());
    }
    if query.width() != train.width() {
        return Err(FeatureError::DescriptorWidthMismatch {
            left: query.width(),
            right: train.width(),
        });
    }
    let mut out = Vec::with_capacity(query.len());
    for qi in 0..query.len() {
        let q = query.row(qi);
        let mut best = DMatch { query_idx: qi, train_idx: 0, distance: f32::INFINITY };
        let mut second: Option<DMatch> = None;
        for ti in 0..train.len() {
            let d = l2_sq(q, train.row(ti));
            if d < best.distance {
                second = Some(best);
                best = DMatch { query_idx: qi, train_idx: ti, distance: d };
            } else if second.is_none_or(|s| d < s.distance) {
                second = Some(DMatch { query_idx: qi, train_idx: ti, distance: d });
            }
        }
        // The placeholder initial `best` must never leak out as `second`.
        let second = second.filter(|s| s.distance.is_finite());
        out.push(RatioMatch { best, second });
    }
    Ok(out)
}

/// Below this many (query × train) pairs the GEMM set-up cost exceeds
/// the naive loop; the paper's own reference sets (~10² descriptors a
/// side) sit under it.
const GEMM_MIN_PAIRS: usize = 4096;
/// Narrow descriptors gain nothing from the norm trick.
const GEMM_MIN_WIDTH: usize = 8;
/// Queries per GEMM block: one `QUERY_BLOCK × train` product panel.
const QUERY_BLOCK: usize = 64;
/// Rows with squared norms above this (or non-finite) use the naive
/// loop: keeps every quantity in the candidate-selection error bound
/// far from f32 overflow.
const MAX_CLEAN_NORM: f32 = 1e30;

fn rows_clean(norms: &[f32]) -> bool {
    norms.iter().all(|n| n.is_finite() && *n <= MAX_CLEAN_NORM)
}

/// The GEMM-backed kernel; requires validated, finite inputs.
///
/// Exactness: with `e(ti)` the exact distance and `a(ti)` the
/// norm-trick approximation, `|a − e| ≤ err(ti)` where `err` is a few
/// ulps of `D·(‖q‖² + ‖t‖²)` (Cauchy–Schwarz bounds every partial sum
/// of `q·t` by `(‖q‖² + ‖t‖²)/2`, and the GEMM accumulates `D` such
/// terms). The second-smallest approximation `a2` then satisfies
/// `e2 ≤ a2 + err_max`, so every index with `e ≤ e2` — the only ones
/// that can influence the naive loop's final state — has
/// `a ≤ a2 + 2·err_max`, inside the `4·err_max` cutoff used here. The
/// exact-rescore pass replays the naive update over that candidate
/// superset in ascending index order, which yields the identical
/// (best, second) pair, tie-for-tie.
fn knn_match_float_gemm(
    query: &FloatDescriptors,
    train: &FloatDescriptors,
    qn: &[f32],
    tn: &[f32],
) -> Vec<RatioMatch> {
    let d = query.width();
    let t = train.len();
    let qdata = query.as_slice();
    let tdata = train.as_slice();
    let tn_max = tn.iter().copied().fold(0.0f32, f32::max);
    // 16× cushion over the ~D·ε worst-case rounding, ×4 at the cutoff.
    let rel = 16.0 * d as f32 * f32::EPSILON;
    let nblocks = query.len().div_ceil(QUERY_BLOCK);
    let blocks: Vec<Vec<RatioMatch>> = (0..nblocks)
        .into_par_iter()
        .map(|b| {
            let q0 = b * QUERY_BLOCK;
            let qlen = QUERY_BLOCK.min(query.len() - q0);
            let mut prod = vec![0.0f32; qlen * t];
            taor_nn::gemm::gemm_nt(
                qlen,
                t,
                d,
                &qdata[q0 * d..(q0 + qlen) * d],
                d,
                tdata,
                d,
                &mut prod,
                false,
            );
            let mut out = Vec::with_capacity(qlen);
            for r in 0..qlen {
                let qi = q0 + r;
                let row = &prod[r * t..(r + 1) * t];
                // Pass 1: two smallest approximate distances.
                let (mut a1, mut a2) = (f32::INFINITY, f32::INFINITY);
                for (ti, &g) in row.iter().enumerate() {
                    let a = qn[qi] + tn[ti] - 2.0 * g;
                    if a < a1 {
                        a2 = a1;
                        a1 = a;
                    } else if a < a2 {
                        a2 = a;
                    }
                }
                let cutoff = a2 + 4.0 * rel * (qn[qi] + tn_max);
                // Pass 2: naive update sequence over the candidate set.
                let q_row = query.row(qi);
                let mut best = DMatch { query_idx: qi, train_idx: 0, distance: f32::INFINITY };
                let mut second: Option<DMatch> = None;
                for (ti, &g) in row.iter().enumerate() {
                    if qn[qi] + tn[ti] - 2.0 * g > cutoff {
                        continue;
                    }
                    let dist = l2_sq(q_row, train.row(ti));
                    if dist < best.distance {
                        second = Some(best);
                        best = DMatch { query_idx: qi, train_idx: ti, distance: dist };
                    } else if second.is_none_or(|s| dist < s.distance) {
                        second = Some(DMatch { query_idx: qi, train_idx: ti, distance: dist });
                    }
                }
                let second = second.filter(|s| s.distance.is_finite());
                out.push(RatioMatch { best, second });
            }
            out
        })
        .collect();
    blocks.into_iter().flatten().collect()
}

/// For each query descriptor, find its two nearest train descriptors under
/// Hamming distance. Word-packed popcount kernel; output is
/// bit-identical to [`knn_match_binary_naive`].
pub fn knn_match_binary(
    query: &BinaryDescriptors,
    train: &BinaryDescriptors,
) -> Result<Vec<RatioMatch>> {
    if query.is_empty() || train.is_empty() {
        return Ok(Vec::new());
    }
    if query.width_bytes() != train.width_bytes() {
        return Err(FeatureError::DescriptorWidthMismatch {
            left: query.width_bytes(),
            right: train.width_bytes(),
        });
    }
    let wpr = query.words_per_row();
    let qw = query.packed_words();
    let tw = train.packed_words();
    let t = train.len();
    Ok((0..query.len())
        .into_par_iter()
        .map(|qi| {
            let q = &qw[qi * wpr..(qi + 1) * wpr];
            let mut best = DMatch { query_idx: qi, train_idx: 0, distance: f32::INFINITY };
            let mut second: Option<DMatch> = None;
            for ti in 0..t {
                let d = hamming_words(q, &tw[ti * wpr..(ti + 1) * wpr]) as f32;
                if d < best.distance {
                    second = Some(best);
                    best = DMatch { query_idx: qi, train_idx: ti, distance: d };
                } else if second.is_none_or(|s| d < s.distance) {
                    second = Some(DMatch { query_idx: qi, train_idx: ti, distance: d });
                }
            }
            let second = second.filter(|s| s.distance.is_finite());
            RatioMatch { best, second }
        })
        .collect())
}

/// The scalar byte-wise Hamming reference loop, retained as the
/// equivalence oracle and criterion-pin baseline.
pub fn knn_match_binary_naive(
    query: &BinaryDescriptors,
    train: &BinaryDescriptors,
) -> Result<Vec<RatioMatch>> {
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

/// Filter kNN matches with Lowe's ratio test, returning the surviving best
/// matches.
pub fn ratio_test_matches(matches: &[RatioMatch], ratio: f32) -> Vec<DMatch> {
    matches.iter().filter(|m| m.passes_ratio(ratio)).map(|m| m.best).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn float_set(rows: &[&[f32]]) -> FloatDescriptors {
        let mut d = FloatDescriptors::new(rows[0].len());
        for r in rows {
            d.push(r);
        }
        d
    }

    #[test]
    fn nearest_neighbour_found() {
        let q = float_set(&[&[0.0, 0.0]]);
        let t = float_set(&[&[5.0, 5.0], &[0.1, 0.0], &[3.0, 0.0]]);
        let m = knn_match_float(&q, &t).unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].best.train_idx, 1);
        assert_eq!(m[0].second.unwrap().train_idx, 2);
    }

    #[test]
    fn ratio_test_rejects_ambiguous() {
        let q = float_set(&[&[0.0]]);
        // Two train descriptors almost equidistant: ambiguous.
        let t = float_set(&[&[1.0], &[-1.01]]);
        let m = knn_match_float(&q, &t).unwrap();
        assert!(!m[0].passes_ratio(0.75));
        // A clearly closer best match passes.
        let t2 = float_set(&[&[0.1], &[5.0]]);
        let m2 = knn_match_float(&q, &t2).unwrap();
        assert!(m2[0].passes_ratio(0.75));
    }

    #[test]
    fn single_train_descriptor_has_no_second() {
        let q = float_set(&[&[0.0]]);
        let t = float_set(&[&[2.0]]);
        let m = knn_match_float(&q, &t).unwrap();
        assert!(m[0].second.is_none());
        assert!(m[0].passes_ratio(0.5), "no second neighbour -> accepted");
    }

    #[test]
    fn empty_inputs_yield_empty_output() {
        let e = FloatDescriptors::new(4);
        let t = float_set(&[&[1.0, 2.0, 3.0, 4.0]]);
        assert!(knn_match_float(&e, &t).unwrap().is_empty());
        assert!(knn_match_float(&t, &e).unwrap().is_empty());
    }

    #[test]
    fn width_mismatch_is_error() {
        let a = float_set(&[&[1.0, 2.0]]);
        let b = float_set(&[&[1.0, 2.0, 3.0]]);
        assert!(matches!(
            knn_match_float(&a, &b),
            Err(FeatureError::DescriptorWidthMismatch { .. })
        ));
    }

    #[test]
    fn binary_matching_uses_hamming() {
        let mut q = BinaryDescriptors::new(1);
        q.push(&[0b0000_1111]);
        let mut t = BinaryDescriptors::new(1);
        t.push(&[0b1111_0000]); // distance 8
        t.push(&[0b0000_1110]); // distance 1
        let m = knn_match_binary(&q, &t).unwrap();
        assert_eq!(m[0].best.train_idx, 1);
        assert_eq!(m[0].best.distance, 1.0);
        assert_eq!(m[0].second.unwrap().distance, 8.0);
    }

    #[test]
    fn ratio_test_matches_filters() {
        let q = float_set(&[&[0.0], &[10.0]]);
        let t = float_set(&[&[0.1], &[0.2], &[10.05]]);
        let m = knn_match_float(&q, &t).unwrap();
        let kept = ratio_test_matches(&m, 0.5);
        // Query 0 is ambiguous (0.1 vs 0.2 -> squared 0.01 vs 0.04: ratio
        // 0.25 < 0.5 actually passes); query 1 clearly passes.
        assert!(kept.iter().any(|d| d.query_idx == 1));
    }

    #[test]
    fn every_query_gets_a_match_row() {
        let q = float_set(&[&[0.0], &[1.0], &[2.0]]);
        let t = float_set(&[&[0.5], &[1.5]]);
        let m = knn_match_float(&q, &t).unwrap();
        assert_eq!(m.len(), 3);
    }
}
