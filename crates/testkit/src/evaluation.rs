// taor-lint: allow(panic::index) — dense numeric kernel: indices are derived from dimensions validated at the public boundary and bounded by the enclosing loops.
//! Detector/descriptor evaluation under known geometry — the standard
//! repeatability and matching-score protocol (Mikolajczyk & Schmid).
//!
//! The paper compares SIFT/SURF/ORB only through downstream recognition
//! accuracy; this module measures the detectors directly: warp an image
//! by a known similarity transform, detect keypoints in both, and ask
//! (a) how many keypoints *re-occur* at the transformed location
//! (repeatability) and (b) how many descriptor matches are geometrically
//! correct (matching score).

use taor_features::{DMatch, KeyPoint, Similarity};

/// Repeatability of a detector under a known transform: the fraction of
/// keypoints in `a` whose transformed location lies within `tolerance`
/// pixels of some keypoint in `b`. Symmetric versions divide by the
/// smaller set; this uses `a` as the reference, matching common practice.
///
/// Returns 0 when `a` is empty.
pub fn repeatability(
    a: &[KeyPoint],
    b: &[KeyPoint],
    transform: &Similarity,
    tolerance: f32,
) -> f64 {
    if a.is_empty() {
        return 0.0;
    }
    let tol_sq = tolerance * tolerance;
    let hits = a
        .iter()
        .filter(|ka| {
            let (px, py) = transform.apply((ka.x, ka.y));
            b.iter().any(|kb| {
                let dx = kb.x - px;
                let dy = kb.y - py;
                dx * dx + dy * dy <= tol_sq
            })
        })
        .count();
    hits as f64 / a.len() as f64
}

/// Matching score: fraction of `matches` that are geometrically correct
/// under the known transform (query keypoint maps to within `tolerance`
/// of its matched train keypoint).
pub fn matching_score(
    query_kps: &[KeyPoint],
    train_kps: &[KeyPoint],
    matches: &[DMatch],
    transform: &Similarity,
    tolerance: f32,
) -> f64 {
    if matches.is_empty() {
        return 0.0;
    }
    let tol_sq = tolerance * tolerance;
    let correct = matches
        .iter()
        .filter(|m| {
            let q = &query_kps[m.query_idx];
            let t = &train_kps[m.train_idx];
            let (px, py) = transform.apply((q.x, q.y));
            let dx = t.x - px;
            let dy = t.y - py;
            dx * dx + dy * dy <= tol_sq
        })
        .count();
    correct as f64 / matches.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kp(x: f32, y: f32) -> KeyPoint {
        KeyPoint::at(x, y)
    }

    #[test]
    fn perfect_repeatability_under_identity() {
        let kps = vec![kp(1.0, 2.0), kp(10.0, 10.0), kp(5.0, 7.0)];
        let r = repeatability(&kps, &kps, &Similarity::identity(), 1.0);
        assert_eq!(r, 1.0);
    }

    #[test]
    fn repeatability_tracks_translation() {
        let a = vec![kp(0.0, 0.0), kp(10.0, 0.0)];
        let b = vec![kp(5.0, 5.0), kp(15.0, 5.0)];
        let t = Similarity { a: 1.0, b: 0.0, tx: 5.0, ty: 5.0 };
        assert_eq!(repeatability(&a, &b, &t, 1.0), 1.0);
        // Wrong transform: nothing lands.
        assert_eq!(repeatability(&a, &b, &Similarity::identity(), 1.0), 0.0);
    }

    #[test]
    fn partial_repeatability() {
        let a = vec![kp(0.0, 0.0), kp(50.0, 50.0)];
        let b = vec![kp(0.0, 0.0)];
        let r = repeatability(&a, &b, &Similarity::identity(), 2.0);
        assert!((r - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_are_zero() {
        assert_eq!(repeatability(&[], &[kp(0.0, 0.0)], &Similarity::identity(), 1.0), 0.0);
        assert_eq!(matching_score(&[], &[], &[], &Similarity::identity(), 1.0), 0.0);
    }

    #[test]
    fn matching_score_counts_correct_matches() {
        let q = vec![kp(0.0, 0.0), kp(10.0, 0.0)];
        let t = vec![kp(3.0, 0.0), kp(13.0, 0.0), kp(50.0, 50.0)];
        let transform = Similarity { a: 1.0, b: 0.0, tx: 3.0, ty: 0.0 };
        let matches = vec![
            DMatch { query_idx: 0, train_idx: 0, distance: 0.1 }, // correct
            DMatch { query_idx: 1, train_idx: 2, distance: 0.2 }, // wrong
        ];
        let s = matching_score(&q, &t, &matches, &transform, 1.0);
        assert!((s - 0.5).abs() < 1e-12);
    }
}
