// taor-lint: allow(panic::index) — dense numeric kernel: indices are derived from dimensions validated at the public boundary and bounded by the enclosing loops.
//! Pipeline (iv): feature-descriptor matching (paper §3.3).
//!
//! SIFT, SURF and ORB descriptors with brute-force matching, trimmed to
//! the second-nearest neighbour, filtered by Lowe's ratio test (thresholds
//! 0.75 and 0.5 in the paper; 0.5 gave the reported tables). SIFT/SURF use
//! L2, ORB uses Hamming. The predicted label is the class of the reference
//! view accumulating the most ratio-test survivors.

use crate::diag::Diagnostics;
use crate::error::{Error, Result};
use rayon::prelude::*;
use taor_data::{Dataset, ObjectClass};
use taor_features::{
    knn_match_binary, knn_match_float, orb_detect_and_compute, ratio_test_matches,
    sift_detect_and_compute, surf_detect_and_compute, verify_matches, BinaryDescriptors,
    FloatDescriptors, KeyPoint, MihIndex, MihParams, OrbParams, RansacParams, RatioMatch,
    SiftParams, SurfParams,
};
use taor_imgproc::cmp::nan_last_f32;
use taor_imgproc::color::rgb_to_gray;

/// Which descriptor family to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DescriptorKind {
    Sift,
    Surf,
    Orb,
}

impl DescriptorKind {
    /// All three, in paper order.
    pub const ALL: [DescriptorKind; 3] =
        [DescriptorKind::Sift, DescriptorKind::Surf, DescriptorKind::Orb];

    /// Table 3 row label.
    pub fn label(&self) -> &'static str {
        match self {
            DescriptorKind::Sift => "SIFT",
            DescriptorKind::Surf => "SURF",
            DescriptorKind::Orb => "ORB",
        }
    }
}

/// How the pooled reference gallery is searched during classification.
///
/// `Flat` is the paper's brute-force matcher; `Mih` searches binary (ORB)
/// pools through the exact multi-index hashing of `taor-features`, with
/// predictions bit-identical to `Flat`. Float (SIFT/SURF) pools always
/// match brute force, so either mode is safe with any descriptor kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AnnIndexMode {
    #[default]
    Flat,
    Mih,
}

impl AnnIndexMode {
    /// All modes, flat first.
    pub const ALL: [AnnIndexMode; 2] = [AnnIndexMode::Flat, AnnIndexMode::Mih];

    /// CLI / report label.
    pub fn label(&self) -> &'static str {
        match self {
            AnnIndexMode::Flat => "flat",
            AnnIndexMode::Mih => "mih",
        }
    }
}

impl std::str::FromStr for AnnIndexMode {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        match s {
            "flat" => Ok(AnnIndexMode::Flat),
            "mih" => Ok(AnnIndexMode::Mih),
            other => Err(format!("unknown index mode {other:?} (flat | mih)")),
        }
    }
}

/// Descriptors of one image.
#[derive(Debug, Clone)]
enum Descs {
    Float(FloatDescriptors),
    Binary(BinaryDescriptors),
}

/// The pooled reference gallery under one of the [`AnnIndexMode`]s.
enum PoolIndex {
    FloatFlat(FloatDescriptors),
    BinaryFlat(BinaryDescriptors),
    BinaryMih(Box<MihIndex>),
}

impl PoolIndex {
    fn build(pool: Descs, mode: AnnIndexMode) -> Result<PoolIndex> {
        Ok(match (pool, mode) {
            (Descs::Binary(p), AnnIndexMode::Mih) => PoolIndex::BinaryMih(Box::new(
                MihIndex::build(p, MihParams::default()).map_err(Error::from)?,
            )),
            (Descs::Binary(p), AnnIndexMode::Flat) => PoolIndex::BinaryFlat(p),
            // Float pools always match brute force.
            (Descs::Float(p), _) => PoolIndex::FloatFlat(p),
        })
    }

    /// 2-NN match a query image's descriptors against the pool; a matcher
    /// error degrades to "no matches" exactly like the flat path.
    fn knn(&self, q: &Descs) -> Vec<RatioMatch> {
        match (q, self) {
            (Descs::Float(q), PoolIndex::FloatFlat(p)) => knn_match_float(q, p).unwrap_or_default(),
            (Descs::Binary(q), PoolIndex::BinaryFlat(p)) => {
                knn_match_binary(q, p).unwrap_or_default()
            }
            (Descs::Binary(q), PoolIndex::BinaryMih(ix)) => ix.knn_match(q).unwrap_or_default(),
            _ => unreachable!("index holds a single descriptor kind"),
        }
    }
}

/// Extracted descriptors for a whole dataset.
#[derive(Debug, Clone)]
pub struct DescriptorIndex {
    kind: DescriptorKind,
    classes: Vec<ObjectClass>,
    descs: Vec<Descs>,
    keypoints: Vec<Vec<KeyPoint>>,
}

impl DescriptorIndex {
    /// Number of images indexed.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Total descriptor count across all images (diagnostics).
    pub fn total_descriptors(&self) -> usize {
        self.descs
            .iter()
            .map(|d| match d {
                Descs::Float(f) => f.len(),
                Descs::Binary(b) => b.len(),
            })
            .sum()
    }
}

/// Extract descriptors for every image of a dataset (parallel). Images
/// where the detector finds nothing contribute empty descriptor sets.
pub fn extract_index(dataset: &Dataset, kind: DescriptorKind) -> DescriptorIndex {
    // Unzip straight into the two column vectors (sized up front from the
    // exact iterator length) instead of materialising an intermediate
    // `Vec<(Descs, Vec<KeyPoint>)>` and splitting it in a second pass.
    let (descs, keypoints): (Vec<Descs>, Vec<Vec<KeyPoint>>) = dataset
        .images
        .par_iter()
        .map(|img| {
            let gray = rgb_to_gray(&img.image);
            match kind {
                DescriptorKind::Sift => {
                    let (k, d) = sift_detect_and_compute(&gray, &SiftParams::default())
                        .unwrap_or_else(|_| (Vec::new(), FloatDescriptors::new(128)));
                    (Descs::Float(d), k)
                }
                DescriptorKind::Surf => {
                    let (k, d) = surf_detect_and_compute(&gray, &SurfParams::default())
                        .unwrap_or_else(|_| (Vec::new(), FloatDescriptors::new(64)));
                    (Descs::Float(d), k)
                }
                DescriptorKind::Orb => {
                    let (k, d) = orb_detect_and_compute(&gray, &OrbParams::default())
                        .unwrap_or_else(|_| (Vec::new(), BinaryDescriptors::new(32)));
                    (Descs::Binary(d), k)
                }
            }
        })
        .collect();
    let mut classes = Vec::with_capacity(dataset.images.len());
    classes.extend(dataset.images.iter().map(|i| i.class));
    DescriptorIndex { kind, classes, descs, keypoints }
}

/// Classify with per-view matching plus RANSAC geometric verification:
/// the predicted class is the reference view with the most geometrically
/// consistent inliers (Lowe's full pipeline; ablation for Table 3).
///
/// Kind mismatches and empty reference indices are typed errors;
/// per-query failures (no descriptors, no geometrically consistent view,
/// a matcher error on a single view) degrade to the deterministic
/// fallback label and are counted in `diag` instead of aborting the
/// batch.
pub fn try_classify_descriptors_verified(
    queries: &DescriptorIndex,
    reference: &DescriptorIndex,
    ratio: f32,
    ransac: &RansacParams,
    diag: &Diagnostics,
) -> Result<Vec<ObjectClass>> {
    if queries.kind != reference.kind {
        return Err(Error::KindMismatch {
            query: queries.kind.label(),
            reference: reference.kind.label(),
        });
    }
    if reference.is_empty() {
        return Err(Error::EmptyReference("reference index is empty"));
    }
    Ok(queries
        .descs
        .par_iter()
        .enumerate()
        .map(|(qi, q)| {
            let q_kps = &queries.keypoints[qi];
            let mut best_class = reference.classes[0];
            let mut best_inliers = 0usize;
            let mut best_dist = f32::INFINITY;
            for (vi, v) in reference.descs.iter().enumerate() {
                // Widths are uniform per kind by construction; a matcher
                // error on one view degrades that view to "no matches"
                // rather than poisoning the whole batch.
                let matches = match (q, v) {
                    (Descs::Float(q), Descs::Float(v)) => knn_match_float(q, v).unwrap_or_default(),
                    (Descs::Binary(q), Descs::Binary(v)) => {
                        knn_match_binary(q, v).unwrap_or_default()
                    }
                    _ => unreachable!("index holds a single descriptor kind"),
                };
                if matches.is_empty() {
                    continue;
                }
                let survivors = ratio_test_matches(&matches, ratio);
                // A RANSAC failure on one view means that view offers no
                // verified inliers.
                let inliers = verify_matches(q_kps, &reference.keypoints[vi], &survivors, ransac)
                    .map(|v| v.inliers.len())
                    .unwrap_or(0);
                let mean_dist = if survivors.is_empty() {
                    f32::INFINITY
                } else {
                    survivors.iter().map(|m| m.distance).sum::<f32>() / survivors.len() as f32
                };
                if mean_dist.is_nan() {
                    diag.record_nan_scores(1);
                }
                if inliers > best_inliers
                    || (inliers == best_inliers
                        && nan_last_f32(mean_dist, best_dist) == std::cmp::Ordering::Less)
                {
                    best_inliers = inliers;
                    best_dist = mean_dist;
                    best_class = reference.classes[vi];
                }
            }
            if best_inliers == 0 {
                // Nothing geometrically consistent anywhere: deterministic
                // pseudo-random fallback (as in `try_classify_descriptors_with`).
                diag.record_degraded(1);
                ObjectClass::from_index((qi * 7 + 3) % ObjectClass::COUNT)
                    .unwrap_or(reference.classes[0])
            } else {
                best_class
            }
        })
        .collect())
}

/// Classify every query of `queries` against the `reference` index.
///
/// Decision rule (the paper's "ratio test … to select the best match
/// among all reference 2D views at each iteration"): every reference
/// descriptor is pooled with its owning class; each query keypoint finds
/// its two nearest pooled neighbours, survives Lowe's ratio test or is
/// dropped, and votes for the class owning its best match. The predicted
/// label is the majority vote, ties broken by summed match distance. A
/// query whose keypoints all fail the ratio test falls back to its single
/// best unfiltered match; a query with no descriptors at all gets a
/// deterministic pseudo-random label (the paper's effective behaviour on
/// textureless crops).
///
/// Kind mismatches and empty reference indices are typed errors;
/// featureless queries and queries whose keypoints all fail the ratio
/// test degrade per-item (counted in `diag`) instead of aborting the
/// batch.
///
/// `mode` picks the gallery index: the pooled reference descriptors are
/// searched brute-force (`Flat`, the paper's matcher) or, for binary
/// kinds, through multi-index hashing (`Mih` — exact, so predictions are
/// bit-identical to `Flat`; float kinds stay brute-force). The index is
/// built once per call and amortised over every query image.
pub fn try_classify_descriptors_with(
    queries: &DescriptorIndex,
    reference: &DescriptorIndex,
    ratio: f32,
    diag: &Diagnostics,
    mode: AnnIndexMode,
) -> Result<Vec<ObjectClass>> {
    if queries.kind != reference.kind {
        return Err(Error::KindMismatch {
            query: queries.kind.label(),
            reference: reference.kind.label(),
        });
    }
    if reference.is_empty() {
        return Err(Error::EmptyReference("reference index is empty"));
    }

    // Pool all reference descriptors, remembering each one's class.
    let (pool, owners): (Descs, Vec<ObjectClass>) = match &reference.descs[0] {
        Descs::Float(first) => {
            let mut pool = FloatDescriptors::new(first.width());
            let mut owners = Vec::new();
            for (d, &class) in reference.descs.iter().zip(&reference.classes) {
                let Descs::Float(d) = d else { unreachable!("single kind per index") };
                for i in 0..d.len() {
                    pool.push(d.row(i));
                    owners.push(class);
                }
            }
            (Descs::Float(pool), owners)
        }
        Descs::Binary(first) => {
            let mut pool = BinaryDescriptors::new(first.width_bytes());
            let mut owners = Vec::new();
            for (d, &class) in reference.descs.iter().zip(&reference.classes) {
                let Descs::Binary(d) = d else { unreachable!("single kind per index") };
                for i in 0..d.len() {
                    pool.push(d.row(i));
                    owners.push(class);
                }
            }
            (Descs::Binary(pool), owners)
        }
    };
    if owners.is_empty() {
        return Err(Error::EmptyReference("reference index has no descriptors"));
    }
    let pool = PoolIndex::build(pool, mode)?;

    Ok(queries
        .descs
        .par_iter()
        .enumerate()
        .map(|(qi, q)| {
            // Widths are uniform per kind by construction; a matcher error
            // degrades this query to "featureless" rather than poisoning
            // the whole batch.
            let matches = pool.knn(q);
            let fallback = ObjectClass::from_index((qi * 7 + 3) % ObjectClass::COUNT)
                .unwrap_or(reference.classes[0]);
            if matches.is_empty() {
                // Deterministic fallback for featureless queries.
                diag.record_degraded(1);
                return fallback;
            }
            diag.record_nan_scores(
                matches.iter().filter(|m| m.best.distance.is_nan()).count() as u64
            );
            let mut votes = [0usize; ObjectClass::COUNT];
            let mut dist_sum = [0.0f32; ObjectClass::COUNT];
            for m in ratio_test_matches(&matches, ratio) {
                let class = owners[m.train_idx];
                votes[class.index()] += 1;
                dist_sum[class.index()] += m.distance;
            }
            if votes.iter().all(|&v| v == 0) {
                // No survivor: fall back to the best unfiltered match
                // (a NaN distance never wins the argmin).
                return matches
                    .iter()
                    .min_by(|a, b| nan_last_f32(a.best.distance, b.best.distance))
                    .map(|best| owners[best.best.train_idx])
                    .unwrap_or(fallback);
            }
            // Majority vote; ties broken by smaller mean distance.
            let mut best_class = 0usize;
            for c in 1..ObjectClass::COUNT {
                let better = votes[c] > votes[best_class]
                    || (votes[c] == votes[best_class]
                        && votes[c] > 0
                        && dist_sum[c] / (votes[c] as f32)
                            < dist_sum[best_class] / (votes[best_class].max(1) as f32));
                if better {
                    best_class = c;
                }
            }
            ObjectClass::from_index(best_class).unwrap_or(fallback)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use taor_data::{shapenet_set1, shapenet_set2};

    fn flat(q: &DescriptorIndex, r: &DescriptorIndex, ratio: f32) -> Vec<ObjectClass> {
        try_classify_descriptors_with(q, r, ratio, &Diagnostics::new(), AnnIndexMode::Flat).unwrap()
    }

    #[test]
    fn extraction_produces_descriptors_for_most_views() {
        let sns1 = shapenet_set1(1);
        for kind in DescriptorKind::ALL {
            let idx = extract_index(&sns1, kind);
            assert_eq!(idx.len(), 82);
            assert!(
                idx.total_descriptors() > 82,
                "{}: only {} descriptors",
                kind.label(),
                idx.total_descriptors()
            );
        }
    }

    #[test]
    fn self_matching_is_strong() {
        // A view matched against an index containing itself scores its own
        // class (all descriptor distances are 0).
        let sns1 = shapenet_set1(2);
        let idx = extract_index(&sns1, DescriptorKind::Orb);
        let preds = flat(&idx, &idx, 0.75);
        let truth = idx.classes.clone();
        let correct = preds.iter().zip(&truth).filter(|(p, t)| p == t).count();
        assert!(correct as f64 / truth.len() as f64 > 0.8, "{correct}/82");
    }

    #[test]
    fn cross_set_classification_runs() {
        let q = extract_index(&shapenet_set1(3), DescriptorKind::Sift);
        let r = extract_index(&shapenet_set2(3), DescriptorKind::Sift);
        let preds = flat(&q, &r, 0.5);
        assert_eq!(preds.len(), 82);
    }

    #[test]
    fn kind_mismatch_is_a_typed_error() {
        let q = extract_index(&shapenet_set1(4), DescriptorKind::Sift);
        let r = extract_index(&shapenet_set2(4), DescriptorKind::Orb);
        assert!(matches!(
            try_classify_descriptors_with(&q, &r, 0.5, &Diagnostics::new(), AnnIndexMode::Flat),
            Err(Error::KindMismatch { query: "SIFT", reference: "ORB" })
        ));
    }

    #[test]
    fn labels_match_table3() {
        let labels: Vec<_> = DescriptorKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels, ["SIFT", "SURF", "ORB"]);
    }

    #[test]
    fn mih_mode_is_bit_identical_to_flat() {
        let q = extract_index(&shapenet_set1(6), DescriptorKind::Orb);
        let r = extract_index(&shapenet_set2(6), DescriptorKind::Orb);
        let diag = Diagnostics::new();
        let flat = try_classify_descriptors_with(&q, &r, 0.5, &diag, AnnIndexMode::Flat).unwrap();
        let mih = try_classify_descriptors_with(&q, &r, 0.5, &diag, AnnIndexMode::Mih).unwrap();
        assert_eq!(flat, mih, "MIH is exact: predictions must match flat exactly");
    }

    #[test]
    fn index_mode_labels_and_parsing() {
        for mode in AnnIndexMode::ALL {
            assert_eq!(mode.label().parse::<AnnIndexMode>().unwrap(), mode);
        }
        assert!("faiss".parse::<AnnIndexMode>().is_err());
        let err = "hnsw".parse::<AnnIndexMode>().unwrap_err();
        assert!(err.contains("flat | mih"), "{err}");
        assert_eq!(AnnIndexMode::default(), AnnIndexMode::Flat);
    }

    #[test]
    fn verified_classification_runs_and_is_plausible() {
        let sns1 = shapenet_set1(5);
        let idx = extract_index(&sns1, DescriptorKind::Orb);
        let diag = Diagnostics::new();
        let preds =
            try_classify_descriptors_verified(&idx, &idx, 0.75, &RansacParams::default(), &diag)
                .unwrap();
        assert_eq!(preds.len(), 82);
        // Self-matching with geometric verification should be strong: the
        // identical view is a perfect inlier set.
        let truth = idx.classes.clone();
        let correct = preds.iter().zip(&truth).filter(|(p, t)| p == t).count();
        assert!(correct as f64 / 82.0 > 0.7, "{correct}/82");
    }
}
