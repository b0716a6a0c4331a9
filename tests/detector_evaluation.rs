//! Integration: detector repeatability under known warps — connecting
//! `taor_testkit::warp`, the three detectors and
//! `taor_testkit::evaluation`.

use taor::features::{
    orb_detect_and_compute, sift_detect_and_compute, OrbParams, SiftParams, Similarity,
};
use taor::imgproc::prelude::*;
use taor_testkit::draw::{fill_ellipse, fill_rot_rect};
use taor_testkit::evaluation::{matching_score, repeatability};
use taor_testkit::warp::{warp_affine, Affine};

/// A structured test card with corners, blobs and texture.
fn test_card() -> GrayImage {
    use taor::imgproc::draw::{p2, Canvas};
    let mut c = Canvas::new(128, 128, [20, 20, 20]);
    fill_rot_rect(&mut c, 46.0, 44.0, 42.0, 28.0, 0.35, [230, 230, 230]);
    c.fill_polygon(&[p2(80.0, 86.0), p2(114.0, 92.0), p2(86.0, 116.0)], [150, 150, 150]);
    fill_ellipse(&mut c, 34.0, 94.0, 12.0, 8.0, [200, 200, 200]);
    fill_rot_rect(&mut c, 94.0, 34.0, 18.0, 18.0, 0.8, [180, 180, 180]);
    rgb_to_gray(c.image())
}

#[test]
fn sift_repeatability_under_small_rotation() {
    let img = test_card();
    let angle = 0.2f32;
    let warp = Affine::rotation_about(64.0, 64.0, angle, 1.0);
    let warped = warp_affine(&img, &warp, 20).unwrap();

    let p = SiftParams::default();
    let (k1, d1) = sift_detect_and_compute(&img, &p).unwrap();
    let (k2, d2) = sift_detect_and_compute(&warped, &p).unwrap();
    assert!(!k1.is_empty() && !k2.is_empty());

    let (s, c) = angle.sin_cos();
    let t =
        Similarity { a: c, b: s, tx: 64.0 - c * 64.0 + s * 64.0, ty: 64.0 - s * 64.0 - c * 64.0 };
    let rep = repeatability(&k1, &k2, &t, 4.0);
    assert!(rep > 0.3, "SIFT repeatability under 0.2 rad: {rep}");

    // Matching score: ratio-test survivors should be mostly geometric.
    let matches = taor::features::knn_match_float(&d1, &d2).unwrap();
    let good = taor::features::ratio_test_matches(&matches, 0.8);
    if !good.is_empty() {
        let score = matching_score(&k1, &k2, &good, &t, 6.0);
        assert!(score > 0.3, "SIFT matching score: {score}");
    }
    let _ = d1;
}

#[test]
fn orb_repeatability_under_translation() {
    let img = test_card();
    let warp = Affine::translation(6.0, -4.0);
    let warped = warp_affine(&img, &warp, 20).unwrap();
    let p = OrbParams::default();
    let (k1, _) = orb_detect_and_compute(&img, &p).unwrap();
    let (k2, _) = orb_detect_and_compute(&warped, &p).unwrap();
    assert!(!k1.is_empty() && !k2.is_empty());
    let t = Similarity { a: 1.0, b: 0.0, tx: 6.0, ty: -4.0 };
    let rep = repeatability(&k1, &k2, &t, 3.0);
    assert!(rep > 0.4, "ORB repeatability under translation: {rep}");
}

#[test]
fn repeatability_collapses_under_wrong_transform() {
    let img = test_card();
    let p = OrbParams::default();
    let (k1, _) = orb_detect_and_compute(&img, &p).unwrap();
    if k1.len() < 4 {
        return;
    }
    // A transform that moves everything far away.
    let t = Similarity { a: 1.0, b: 0.0, tx: 500.0, ty: 500.0 };
    assert_eq!(repeatability(&k1, &k1, &t, 3.0), 0.0);
}
