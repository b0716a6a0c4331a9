// taor-lint: allow(panic::index) — dense numeric kernel: indices are derived from dimensions validated at the public boundary and bounded by the enclosing loops.
//! Image-pair construction for the Siamese pipeline (§3.4).
//!
//! The paper's three pair sets:
//!
//! * **Training** — "ShapeNetSet2 as baseline to form a training set,
//!   comprising of 9,450 RGB image pairs, with 52% being examples of
//!   similar images and the remainder 48% … dissimilar". With ten views ×
//!   ten classes, exhaustive same-class pairs cannot reach 52%, so the
//!   similar half is necessarily resampled; we draw same-class pairs with
//!   replacement for the similar quota and cross-class pairs for the rest
//!   (documented substitution — the paper does not spell out its sampler).
//! * **SNS1 test** — 3,321 pairs = C(82, 2), i.e. all unordered pairs of
//!   distinct SNS1 views; "similar" = same class, giving an ~9% positive
//!   rate matching the paper's 295/3,026 support split.
//! * **NYU+SNS1 test** — 8,200 pairs from 100 NYU crops (10 per class) ×
//!   82 SNS1 views; the paper's support of 4,160/4,040 implies balanced
//!   resampling rather than the raw cross product (which would be ~10%
//!   positive), so we draw 4,160 same-class and 4,040 cross-class pairs.

use crate::classes::ObjectClass;
use crate::dataset::{sample_per_class, Dataset, LabeledImage};
use rand::{Rng, SeedableRng};

/// One labelled pair (by reference into the source datasets).
#[derive(Debug, Clone, Copy)]
pub struct ImagePair<'a> {
    pub a: &'a LabeledImage,
    pub b: &'a LabeledImage,
    /// 1 = similar (same class), 0 = dissimilar.
    pub label: usize,
}

/// Paper §3.4 constants.
pub const TRAIN_PAIRS: usize = 9_450;
pub const TRAIN_SIMILAR_FRACTION: f64 = 0.52;
pub const SNS1_TEST_PAIRS: usize = 3_321;
pub const NYU_TEST_SIMILAR: usize = 4_160;
pub const NYU_TEST_DISSIMILAR: usize = 4_040;
pub const NYU_TEST_PER_CLASS: usize = 10;

/// Build the SNS2 training pairs (9,450; 52% similar).
///
/// Pass a smaller `total` to subsample proportionally (CPU-budget training
/// runs); `total = TRAIN_PAIRS` reproduces the paper's set size.
pub fn training_pairs(sns2: &Dataset, total: usize, seed: u64) -> Vec<ImagePair<'_>> {
    assert!(!sns2.is_empty(), "SNS2 must not be empty");
    let n_similar = (total as f64 * TRAIN_SIMILAR_FRACTION).round() as usize;
    let n_dissimilar = total - n_similar;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0x7EA1);

    let by_class: Vec<Vec<&LabeledImage>> =
        ObjectClass::ALL.iter().map(|&c| sns2.of_class(c).collect()).collect();

    let mut pairs = Vec::with_capacity(total);
    for _ in 0..n_similar {
        let c = rng.gen_range(0..ObjectClass::COUNT);
        let pool = &by_class[c];
        let i = rng.gen_range(0..pool.len());
        let mut j = rng.gen_range(0..pool.len());
        while j == i && pool.len() > 1 {
            j = rng.gen_range(0..pool.len());
        }
        pairs.push(ImagePair { a: pool[i], b: pool[j], label: 1 });
    }
    for _ in 0..n_dissimilar {
        let ca = rng.gen_range(0..ObjectClass::COUNT);
        let mut cb = rng.gen_range(0..ObjectClass::COUNT);
        while cb == ca {
            cb = rng.gen_range(0..ObjectClass::COUNT);
        }
        let a = by_class[ca][rng.gen_range(0..by_class[ca].len())];
        let b = by_class[cb][rng.gen_range(0..by_class[cb].len())];
        pairs.push(ImagePair { a, b, label: 0 });
    }
    // Interleave classes for SGD (deterministic shuffle).
    shuffle(&mut pairs, &mut rng);
    pairs
}

/// All C(82, 2) unordered pairs of SNS1 views (the 3,321-pair test set).
pub fn sns1_test_pairs(sns1: &Dataset) -> Vec<ImagePair<'_>> {
    let n = sns1.len();
    let mut pairs = Vec::with_capacity(n * n.saturating_sub(1) / 2);
    for i in 0..n {
        for j in i + 1..n {
            let a = &sns1.images[i];
            let b = &sns1.images[j];
            pairs.push(ImagePair { a, b, label: usize::from(a.class == b.class) });
        }
    }
    pairs
}

/// The 8,200-pair NYU+SNS1 test set, balanced per the paper's support
/// counts (4,160 similar / 4,040 dissimilar).
pub fn nyu_sns1_test_pairs<'a>(
    nyu: &'a Dataset,
    sns1: &'a Dataset,
    seed: u64,
) -> Vec<ImagePair<'a>> {
    let nyu_subset = sample_per_class(nyu, NYU_TEST_PER_CLASS, seed ^ 0x9A);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0x9B);

    let sns1_by_class: Vec<Vec<&LabeledImage>> =
        ObjectClass::ALL.iter().map(|&c| sns1.of_class(c).collect()).collect();

    let mut pairs = Vec::with_capacity(NYU_TEST_SIMILAR + NYU_TEST_DISSIMILAR);
    for _ in 0..NYU_TEST_SIMILAR {
        let q = nyu_subset[rng.gen_range(0..nyu_subset.len())];
        let pool = &sns1_by_class[q.class.index()];
        pairs.push(ImagePair { a: q, b: pool[rng.gen_range(0..pool.len())], label: 1 });
    }
    for _ in 0..NYU_TEST_DISSIMILAR {
        let q = nyu_subset[rng.gen_range(0..nyu_subset.len())];
        let mut c = rng.gen_range(0..ObjectClass::COUNT);
        while c == q.class.index() {
            c = rng.gen_range(0..ObjectClass::COUNT);
        }
        let pool = &sns1_by_class[c];
        pairs.push(ImagePair { a: q, b: pool[rng.gen_range(0..pool.len())], label: 0 });
    }
    shuffle(&mut pairs, &mut rng);
    pairs
}

/// Heterogeneous training pairs — the paper's proposed fix ("increasing
/// the heterogeneity of our datasets … for further application on RGB
/// frames captured by a mobile robot"): half the pairs come from the
/// catalog as in [`training_pairs`], half mix one NYU crop with one
/// catalog view, so the network sees both background conventions and the
/// scene degradations during training.
pub fn mixed_training_pairs<'a>(
    sns2: &'a Dataset,
    nyu: &'a Dataset,
    total: usize,
    seed: u64,
) -> Vec<ImagePair<'a>> {
    assert!(!sns2.is_empty() && !nyu.is_empty(), "both corpora required");
    let catalog_half = training_pairs(sns2, total / 2, seed);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0x313D);
    let sns2_by_class: Vec<Vec<&LabeledImage>> =
        ObjectClass::ALL.iter().map(|&c| sns2.of_class(c).collect()).collect();
    let nyu_all: Vec<&LabeledImage> = nyu.images.iter().collect();

    let cross_total = total - catalog_half.len();
    let n_similar = (cross_total as f64 * TRAIN_SIMILAR_FRACTION).round() as usize;
    let mut pairs = catalog_half;
    for i in 0..cross_total {
        let a = nyu_all[rng.gen_range(0..nyu_all.len())];
        let (b, label) = if i < n_similar {
            let pool = &sns2_by_class[a.class.index()];
            (pool[rng.gen_range(0..pool.len())], 1)
        } else {
            let mut c = rng.gen_range(0..ObjectClass::COUNT);
            while c == a.class.index() {
                c = rng.gen_range(0..ObjectClass::COUNT);
            }
            let pool = &sns2_by_class[c];
            (pool[rng.gen_range(0..pool.len())], 0)
        };
        pairs.push(ImagePair { a, b, label });
    }
    shuffle(&mut pairs, &mut rng);
    pairs
}

fn shuffle<T>(items: &mut [T], rng: &mut impl Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{nyu_set_subsampled, shapenet_set1, shapenet_set2, DatasetKind};

    #[test]
    fn training_pairs_match_paper_ratio() {
        let sns2 = shapenet_set2(1);
        let pairs = training_pairs(&sns2, TRAIN_PAIRS, 1);
        assert_eq!(pairs.len(), 9_450);
        let similar = pairs.iter().filter(|p| p.label == 1).count();
        let frac = similar as f64 / pairs.len() as f64;
        assert!((frac - 0.52).abs() < 0.001, "similar fraction {frac}");
        // Labels are consistent with classes.
        for p in pairs.iter().take(500) {
            assert_eq!(p.label == 1, p.a.class == p.b.class);
        }
    }

    #[test]
    fn sns1_pairs_are_all_unordered_pairs() {
        let sns1 = shapenet_set1(1);
        let pairs = sns1_test_pairs(&sns1);
        assert_eq!(pairs.len(), SNS1_TEST_PAIRS);
        let similar = pairs.iter().filter(|p| p.label == 1).count();
        // Σ_c C(n_c, 2) for Table 1 SNS1 counts.
        assert_eq!(similar, 333);
    }

    #[test]
    fn empty_set_has_no_sns1_pairs() {
        let empty = Dataset { kind: DatasetKind::ShapeNetSet1, images: Vec::new() };
        assert!(sns1_test_pairs(&empty).is_empty());
    }

    #[test]
    fn nyu_pairs_match_paper_support() {
        let nyu = nyu_set_subsampled(1, 12);
        let sns1 = shapenet_set1(1);
        let pairs = nyu_sns1_test_pairs(&nyu, &sns1, 1);
        assert_eq!(pairs.len(), 8_200);
        let similar = pairs.iter().filter(|p| p.label == 1).count();
        assert_eq!(similar, NYU_TEST_SIMILAR);
        for p in pairs.iter().take(500) {
            assert_eq!(p.label == 1, p.a.class == p.b.class);
        }
    }

    #[test]
    fn pair_sets_are_deterministic() {
        let sns2 = shapenet_set2(3);
        let p1 = training_pairs(&sns2, 200, 9);
        let p2 = training_pairs(&sns2, 200, 9);
        for (a, b) in p1.iter().zip(&p2) {
            assert_eq!(a.label, b.label);
            assert!(std::ptr::eq(a.a, b.a));
        }
    }

    #[test]
    fn mixed_pairs_cover_both_domains() {
        let sns2 = shapenet_set2(5);
        let nyu = nyu_set_subsampled(5, 6);
        let pairs = mixed_training_pairs(&sns2, &nyu, 400, 7);
        assert_eq!(pairs.len(), 400);
        // Cross-domain pairs have a black-background side.
        let cross = pairs
            .iter()
            .filter(|p| p.a.image.pixel(0, 0) == [0, 0, 0] || p.b.image.pixel(0, 0) == [0, 0, 0])
            .count();
        assert!(cross > 100, "only {cross} cross-domain pairs");
        // Labels stay class-consistent.
        for p in &pairs {
            assert_eq!(p.label == 1, p.a.class == p.b.class);
        }
    }

    #[test]
    fn subsampled_training_set_size() {
        let sns2 = shapenet_set2(2);
        let pairs = training_pairs(&sns2, 500, 4);
        assert_eq!(pairs.len(), 500);
    }
}
