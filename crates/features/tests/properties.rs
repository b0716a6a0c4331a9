//! Property-based tests for descriptors and matching.

use proptest::prelude::*;
use taor_features::keypoint::{hamming, l2_sq};
use taor_features::matcher::{knn_match_float, ratio_test_matches};
use taor_features::ransac::Similarity;
use taor_features::FloatDescriptors;

fn descs(rows: Vec<Vec<f32>>) -> FloatDescriptors {
    let mut d = FloatDescriptors::new(rows[0].len());
    for r in &rows {
        d.push(r);
    }
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hamming_is_a_metric(
        a in proptest::collection::vec(any::<u8>(), 8),
        b in proptest::collection::vec(any::<u8>(), 8),
        c in proptest::collection::vec(any::<u8>(), 8),
    ) {
        prop_assert_eq!(hamming(&a, &a), 0);
        prop_assert_eq!(hamming(&a, &b), hamming(&b, &a));
        prop_assert!(hamming(&a, &c) <= hamming(&a, &b) + hamming(&b, &c));
        prop_assert!(hamming(&a, &b) <= 64);
    }

    #[test]
    fn l2_sq_properties(
        a in proptest::collection::vec(-10.0f32..10.0, 6),
        b in proptest::collection::vec(-10.0f32..10.0, 6),
    ) {
        prop_assert_eq!(l2_sq(&a, &a), 0.0);
        prop_assert!((l2_sq(&a, &b) - l2_sq(&b, &a)).abs() < 1e-4);
        prop_assert!(l2_sq(&a, &b) >= 0.0);
    }

    #[test]
    fn best_match_is_really_the_nearest(
        rows in proptest::collection::vec(proptest::collection::vec(-5.0f32..5.0, 4), 3..12),
        query in proptest::collection::vec(-5.0f32..5.0, 4),
    ) {
        let train = descs(rows.clone());
        let q = descs(vec![query.clone()]);
        let m = knn_match_float(&q, &train).unwrap();
        let best = m[0].best;
        for (i, r) in rows.iter().enumerate() {
            prop_assert!(
                l2_sq(&query, r) >= best.distance - 1e-5,
                "row {} at {} beats reported best {}",
                i,
                l2_sq(&query, r),
                best.distance
            );
        }
        if let Some(second) = m[0].second {
            prop_assert!(second.distance >= best.distance);
        }
    }

    #[test]
    fn ratio_test_monotone_in_threshold(
        rows in proptest::collection::vec(proptest::collection::vec(-5.0f32..5.0, 4), 4..10),
        queries in proptest::collection::vec(proptest::collection::vec(-5.0f32..5.0, 4), 1..6),
    ) {
        let train = descs(rows);
        let q = descs(queries);
        let m = knn_match_float(&q, &train).unwrap();
        let strict = ratio_test_matches(&m, 0.5).len();
        let loose = ratio_test_matches(&m, 0.9).len();
        prop_assert!(strict <= loose, "stricter threshold kept more matches");
    }

    #[test]
    fn similarity_roundtrips_any_nondegenerate_pair(
        ax in -20.0f32..20.0, ay in -20.0f32..20.0,
        s in 0.3f32..3.0, theta in -3.0f32..3.0,
        tx in -30.0f32..30.0, ty in -30.0f32..30.0,
    ) {
        let t = Similarity { a: s * theta.cos(), b: s * theta.sin(), tx, ty };
        let p1 = (ax, ay);
        let p2 = (ax + 5.0, ay - 3.0);
        let est = Similarity::from_two_points(p1, p2, t.apply(p1), t.apply(p2)).unwrap();
        prop_assert!((est.scale() - s).abs() < 1e-2 * s.max(1.0));
        let check = (7.0f32, -2.0f32);
        let (x1, y1) = t.apply(check);
        let (x2, y2) = est.apply(check);
        prop_assert!((x1 - x2).abs() < 0.05 && (y1 - y2).abs() < 0.05);
    }

    #[test]
    fn similarity_scale_and_angle_consistent(s in 0.2f32..4.0, theta in -3.1f32..3.1) {
        let t = Similarity { a: s * theta.cos(), b: s * theta.sin(), tx: 0.0, ty: 0.0 };
        prop_assert!((t.scale() - s).abs() < 1e-4);
        prop_assert!((t.angle() - theta).abs() < 1e-4);
    }
}

// ---------------------------------------------------------------------------
// Fast-path matcher equivalence: the GEMM-backed float matcher and the
// popcount Hamming matcher must be *bit-identical* to the retained naive
// reference loops — same best/second indices, same exact distances, same
// NaN-quarantine and tie behaviour.
// ---------------------------------------------------------------------------

use taor_features::matcher::{knn_match_binary, knn_match_binary_naive, knn_match_float_naive};
use taor_features::BinaryDescriptors;

/// Build a `FloatDescriptors` from a flat row-major buffer.
fn descs_flat(width: usize, flat: &[f32]) -> FloatDescriptors {
    let mut d = FloatDescriptors::new(width);
    for row in flat.chunks_exact(width) {
        d.push(row);
    }
    d
}

fn bdescs_flat(width_bytes: usize, flat: &[u8]) -> BinaryDescriptors {
    let mut d = BinaryDescriptors::new(width_bytes);
    for row in flat.chunks_exact(width_bytes) {
        d.push(row);
    }
    d
}

// Sized so query.len() * train.len() >= 4096 and width >= 8: these hit the
// GEMM fast path, not the naive fallback (see matcher::GEMM_MIN_PAIRS).
const EQ_WIDTH: usize = 16;
const EQ_QUERIES: usize = 72;
const EQ_TRAIN: usize = 60;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn gemm_float_matcher_is_bit_identical_to_naive(
        qflat in proptest::collection::vec(-4.0f32..4.0, EQ_QUERIES * EQ_WIDTH),
        tflat in proptest::collection::vec(-4.0f32..4.0, EQ_TRAIN * EQ_WIDTH),
    ) {
        let q = descs_flat(EQ_WIDTH, &qflat);
        let t = descs_flat(EQ_WIDTH, &tflat);
        let fast = knn_match_float(&q, &t).unwrap();
        let naive = knn_match_float_naive(&q, &t).unwrap();
        prop_assert_eq!(fast, naive);
    }

    #[test]
    fn gemm_float_matcher_matches_naive_on_tie_heavy_sets(
        qpick in proptest::collection::vec(0usize..3, EQ_QUERIES * EQ_WIDTH),
        tpick in proptest::collection::vec(0usize..3, EQ_TRAIN * EQ_WIDTH),
    ) {
        // A 3-value palette makes duplicate rows and exact distance ties
        // overwhelmingly likely; first-index-wins must agree exactly.
        let palette = [-1.0f32, 0.0, 2.5];
        let qflat: Vec<f32> = qpick.iter().map(|&i| palette[i]).collect();
        let tflat: Vec<f32> = tpick.iter().map(|&i| palette[i]).collect();
        let q = descs_flat(EQ_WIDTH, &qflat);
        let t = descs_flat(EQ_WIDTH, &tflat);
        let fast = knn_match_float(&q, &t).unwrap();
        let naive = knn_match_float_naive(&q, &t).unwrap();
        prop_assert_eq!(fast, naive);
    }

    #[test]
    fn float_matcher_matches_naive_with_nan_poisoned_rows(
        qflat in proptest::collection::vec(-4.0f32..4.0, EQ_QUERIES * EQ_WIDTH),
        tflat in proptest::collection::vec(-4.0f32..4.0, EQ_TRAIN * EQ_WIDTH),
        qbad in proptest::collection::vec(0usize..EQ_QUERIES * EQ_WIDTH, 1..8),
        tbad in proptest::collection::vec(0usize..EQ_TRAIN * EQ_WIDTH, 1..8),
        use_inf in 0u8..2,
    ) {
        let poison = if use_inf == 1 { f32::INFINITY } else { f32::NAN };
        let mut qflat = qflat;
        let mut tflat = tflat;
        for &i in &qbad {
            qflat[i] = poison;
        }
        for &i in &tbad {
            tflat[i] = poison;
        }
        let q = descs_flat(EQ_WIDTH, &qflat);
        let t = descs_flat(EQ_WIDTH, &tflat);
        let fast = knn_match_float(&q, &t).unwrap();
        let naive = knn_match_float_naive(&q, &t).unwrap();
        prop_assert_eq!(fast, naive);
    }

    #[test]
    fn binary_matcher_is_identical_to_naive(
        // 40-byte rows = 5 packed words per row: a width past ORB's four
        // words, so the word-packed kernel is checked beyond one 256-bit
        // row.
        qflat in proptest::collection::vec(any::<u8>(), 48 * 40),
        tflat in proptest::collection::vec(any::<u8>(), 40 * 40),
    ) {
        let q = bdescs_flat(40, &qflat);
        let t = bdescs_flat(40, &tflat);
        let fast = knn_match_binary(&q, &t).unwrap();
        let naive = knn_match_binary_naive(&q, &t).unwrap();
        prop_assert_eq!(fast, naive);
    }

    #[test]
    fn binary_matcher_is_identical_to_naive_orb_width(
        qflat in proptest::collection::vec(any::<u8>(), 24 * 32),
        tflat in proptest::collection::vec(any::<u8>(), 20 * 32),
    ) {
        // ORB's 32-byte rows pack to exactly 4 words.
        let q = bdescs_flat(32, &qflat);
        let t = bdescs_flat(32, &tflat);
        let fast = knn_match_binary(&q, &t).unwrap();
        let naive = knn_match_binary_naive(&q, &t).unwrap();
        prop_assert_eq!(fast, naive);
    }

    #[test]
    fn matchers_agree_on_degenerate_sets(width in 1usize..24) {
        // Empty query or train: Ok(vec![]) from both implementations.
        let empty = FloatDescriptors::new(width);
        let one = descs_flat(width, &vec![1.0; width]);
        prop_assert_eq!(knn_match_float(&empty, &one).unwrap(), vec![]);
        prop_assert_eq!(knn_match_float_naive(&empty, &one).unwrap(), vec![]);
        prop_assert_eq!(knn_match_float(&one, &empty).unwrap(), vec![]);
        prop_assert_eq!(knn_match_float_naive(&one, &empty).unwrap(), vec![]);

        // Width mismatch: both must refuse.
        let narrow = descs_flat(width, &vec![0.5; width]);
        let wide = descs_flat(width + 1, &vec![0.5; width + 1]);
        prop_assert!(knn_match_float(&narrow, &wide).is_err());
        prop_assert!(knn_match_float_naive(&narrow, &wide).is_err());

        let bempty = BinaryDescriptors::new(width);
        let bone = bdescs_flat(width, &vec![0xA5; width]);
        prop_assert_eq!(knn_match_binary(&bempty, &bone).unwrap(), vec![]);
        prop_assert_eq!(knn_match_binary(&bone, &bempty).unwrap(), vec![]);
        let bwide = bdescs_flat(width + 1, &vec![0xA5; width + 1]);
        prop_assert!(knn_match_binary(&bone, &bwide).is_err());
        prop_assert!(knn_match_binary_naive(&bone, &bwide).is_err());
    }
}

// ---------------------------------------------------------------------------
// MIH equivalence. MIH is exact by construction (the pigeonhole bound), so
// it must be bit-identical to the naive Hamming oracle on ANY input, at
// ANY substring width.
// ---------------------------------------------------------------------------

use taor_features::{MihIndex, MihParams};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn mih_knn_match_is_bit_identical_to_naive(
        qflat in proptest::collection::vec(any::<u8>(), 18 * 32),
        tflat in proptest::collection::vec(any::<u8>(), 15 * 32),
        // Substring widths past ~16 bits are legal but combinatorially
        // explosive on far queries (the radius sweep enumerates C(wb, r)
        // keys per table): exactness holds at any width, but the test
        // stays at the widths the index is actually usable at.
        wb in 1u32..=16,
    ) {
        let q = bdescs_flat(32, &qflat);
        let t = bdescs_flat(32, &tflat);
        let index = MihIndex::build(t.clone(), MihParams { substring_bits: wb }).unwrap();
        let naive = knn_match_binary_naive(&q, &t).unwrap();
        prop_assert_eq!(index.knn_match(&q).unwrap(), naive);
    }

    #[test]
    fn mih_is_exact_on_tie_heavy_codes(
        qpick in proptest::collection::vec(0usize..4, 20),
        tpick in proptest::collection::vec(0usize..4, 24),
    ) {
        // Four code words shared by every row: massive distance ties, so
        // first-index-wins must agree exactly with the ascending scan.
        let palette: [[u8; 8]; 4] =
            [[0x00; 8], [0xFF; 8], [0xA5; 8], [0x0F; 8]];
        let qflat: Vec<u8> = qpick.iter().flat_map(|&i| palette[i]).collect();
        let tflat: Vec<u8> = tpick.iter().flat_map(|&i| palette[i]).collect();
        let q = bdescs_flat(8, &qflat);
        let t = bdescs_flat(8, &tflat);
        let index = MihIndex::build(t.clone(), MihParams::default()).unwrap();
        let naive = knn_match_binary_naive(&q, &t).unwrap();
        prop_assert_eq!(index.knn_match(&q).unwrap(), naive);
    }
}
