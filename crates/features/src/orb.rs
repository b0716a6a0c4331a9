// taor-lint: allow(panic::index) — dense numeric kernel: indices are derived from dimensions validated at the public boundary and bounded by the enclosing loops.
//! ORB: Oriented FAST and Rotated BRIEF (Rublee et al., ICCV 2011).
//!
//! "ORB combines FAST for corner-based keypoint detection \[27\] with
//! improved feature descriptors derived from BRIEF \[7\], to accommodate for
//! rotation invariance. Since in BRIEF descriptors are parsed to binary
//! strings to reduce their dimensionality, we used the Hamming distance
//! instead of the L2 norm" (paper §3.3).
//!
//! The implementation follows the ICCV paper: FAST-9 segment-test corners
//! with non-maximum suppression, Harris response ranking, orientation by
//! the intensity centroid of a circular patch, and a 256-pair BRIEF test
//! pattern steered by the orientation. The test pattern is drawn from an
//! isotropic Gaussian (σ = patch/5) with a fixed seed, matching the
//! distribution Calonder et al. recommend.

use crate::error::{FeatureError, Result};
use crate::keypoint::{BinaryDescriptors, KeyPoint};
use rand::{Rng, SeedableRng};
use taor_imgproc::filter::gaussian_blur;
use taor_imgproc::image::{GrayF32, GrayImage};

/// ORB parameters.
#[derive(Debug, Clone)]
pub struct OrbParams {
    /// Maximum keypoints retained (strongest Harris responses first).
    pub max_features: usize,
    /// FAST segment-test threshold on absolute intensity difference.
    pub fast_threshold: u8,
    /// Patch side used for orientation and BRIEF tests.
    pub patch_size: u32,
    /// Seed for the BRIEF test-pattern (fixed so descriptors are
    /// comparable across runs and processes).
    pub pattern_seed: u64,
}

impl Default for OrbParams {
    fn default() -> Self {
        OrbParams {
            max_features: 500,
            fast_threshold: 20,
            patch_size: 31,
            pattern_seed: 0x2011_0b1f,
        }
    }
}

/// Bresenham circle of radius 3 used by the FAST segment test.
const FAST_CIRCLE: [(i32, i32); 16] = [
    (0, -3),
    (1, -3),
    (2, -2),
    (3, -1),
    (3, 0),
    (3, 1),
    (2, 2),
    (1, 3),
    (0, 3),
    (-1, 3),
    (-2, 2),
    (-3, 1),
    (-3, 0),
    (-3, -1),
    (-2, -2),
    (-1, -3),
];

/// FAST-9 with the compass pre-test: `None` unless two neighbouring
/// compass points (circle indices 0, 4, 8 and 12, neighbours cyclically)
/// are both brighter or both darker, otherwise [`fast_segment_score`].
///
/// Any arc of 9 contiguous circle pixels contains two neighbouring
/// compass points, and every pixel of a qualifying arc has the arc's
/// state, so the pre-test rejects only pixels the full test would reject.
fn fast_score(img: &GrayImage, x: u32, y: u32, t: i16) -> Option<f32> {
    let p = img.get(x, y) as i16;
    let compass = [0, 4, 8, 12].map(|i| {
        let (dx, dy) = FAST_CIRCLE[i];
        fast_state(img.get((x as i32 + dx) as u32, (y as i32 + dy) as u32) as i16, p, t)
    });
    let paired = (0..4).any(|i| compass[i] != 0 && compass[i] == compass[(i + 1) % 4]);
    if !paired {
        return None;
    }
    fast_segment_score(img, x, y, t)
}

/// A circle pixel's FAST state against centre `p`: 1 if at least `p + t`,
/// −1 if at most `p − t`, else 0.
fn fast_state(v: i16, p: i16, t: i16) -> i8 {
    if v >= p + t {
        1
    } else if v <= p - t {
        -1
    } else {
        0
    }
}

/// FAST-9: is there an arc of ≥ 9 contiguous circle pixels all brighter
/// than `p + t` or all darker than `p − t`? Returns the corner "score"
/// (sum of absolute differences over the arc) or `None`.
fn fast_segment_score(img: &GrayImage, x: u32, y: u32, t: i16) -> Option<f32> {
    let p = img.get(x, y) as i16;
    let mut states = [0i8; 32];
    for (i, &(dx, dy)) in FAST_CIRCLE.iter().enumerate() {
        let v = img.get((x as i32 + dx) as u32, (y as i32 + dy) as u32) as i16;
        let s = fast_state(v, p, t);
        states[i] = s;
        states[i + 16] = s; // duplicated to handle wraparound runs
    }
    // Longest run of identical non-zero state.
    let mut best_len = 0;
    let mut run = 0;
    let mut run_state = 0i8;
    for &s in &states {
        if s != 0 && s == run_state {
            run += 1;
        } else {
            run_state = s;
            run = if s != 0 { 1 } else { 0 };
        }
        best_len = best_len.max(if s != 0 { run } else { 0 });
    }
    if best_len < 9 {
        return None;
    }
    // Score: sum of |v - p| over circle pixels exceeding the threshold.
    let mut score = 0.0f32;
    for &(dx, dy) in &FAST_CIRCLE {
        let v = img.get((x as i32 + dx) as u32, (y as i32 + dy) as u32) as i16;
        let d = (v - p).abs();
        if d > t {
            score += d as f32;
        }
    }
    Some(score)
}

/// Harris corner response at `(x, y)` over a small window (used to rank
/// FAST corners, per the ORB paper: FAST "has large responses along
/// edges", Harris filters those out).
fn harris_response(img: &GrayF32, x: u32, y: u32, block: i64) -> f32 {
    let (mut sxx, mut syy, mut sxy) = (0.0f32, 0.0, 0.0);
    let xi = x as i64;
    let yi = y as i64;
    for dy in -block..=block {
        for dx in -block..=block {
            let gx = (img.get_clamped(xi + dx + 1, yi + dy)
                - img.get_clamped(xi + dx - 1, yi + dy))
                * 0.5;
            let gy = (img.get_clamped(xi + dx, yi + dy + 1)
                - img.get_clamped(xi + dx, yi + dy - 1))
                * 0.5;
            sxx += gx * gx;
            syy += gy * gy;
            sxy += gx * gy;
        }
    }
    let det = sxx * syy - sxy * sxy;
    let trace = sxx + syy;
    det - 0.04 * trace * trace
}

/// Orientation by intensity centroid (Rosin): θ = atan2(m01, m10) over a
/// circular patch of radius `r`.
fn intensity_centroid_angle(img: &GrayImage, x: u32, y: u32, r: i64) -> f32 {
    let (mut m10, mut m01) = (0.0f64, 0.0f64);
    let xi = x as i64;
    let yi = y as i64;
    for dy in -r..=r {
        for dx in -r..=r {
            if dx * dx + dy * dy > r * r {
                continue;
            }
            let v = img.get_clamped(xi + dx, yi + dy) as f64;
            m10 += dx as f64 * v;
            m01 += dy as f64 * v;
        }
    }
    let a = (m01).atan2(m10) as f32;
    if a < 0.0 {
        a + 2.0 * std::f32::consts::PI
    } else {
        a
    }
}

/// Generate the 256 BRIEF test pairs from an isotropic Gaussian, clamped
/// to the patch.
fn brief_pattern(patch_size: u32, seed: u64) -> Vec<(f32, f32, f32, f32)> {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let sigma = patch_size as f32 / 5.0;
    let half = (patch_size / 2) as f32 - 1.0;
    let gauss = move |rng: &mut rand::rngs::SmallRng| -> f32 {
        // Box–Muller; clamped to the patch.
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
        (z * sigma).clamp(-half, half)
    };
    (0..256).map(|_| (gauss(&mut rng), gauss(&mut rng), gauss(&mut rng), gauss(&mut rng))).collect()
}

/// Detect ORB keypoints and compute 256-bit steered-BRIEF descriptors.
///
/// Returns the keypoints (strongest first, at most `max_features`) and one
/// 32-byte descriptor per keypoint. Textureless images yield empty output
/// rather than an error — the descriptor pipeline treats "no keypoints" as
/// "no votes".
pub fn orb_detect_and_compute(
    img: &GrayImage,
    params: &OrbParams,
) -> Result<(Vec<KeyPoint>, BinaryDescriptors)> {
    let border = (params.patch_size / 2 + 4).max(7);
    if img.width() < 2 * border + 1 || img.height() < 2 * border + 1 {
        return Err(FeatureError::ImageTooSmall {
            width: img.width(),
            height: img.height(),
            min: 2 * border + 1,
        });
    }
    if params.max_features == 0 {
        return Err(FeatureError::InvalidParameter {
            name: "max_features",
            msg: "must be >= 1".into(),
        });
    }

    // --- FAST detection with non-maximum suppression over a 3x3 window.
    let t = params.fast_threshold as i16;
    let (w, h) = img.dimensions();
    let mut scores: Vec<(u32, u32, f32)> = Vec::new();
    let mut score_map = GrayF32::new(w, h);
    for y in border..h - border {
        for x in border..w - border {
            if let Some(s) = fast_score(img, x, y, t) {
                score_map.put(x, y, s);
            }
        }
    }
    for y in border..h - border {
        for x in border..w - border {
            let s = score_map.get(x, y);
            if s <= 0.0 {
                continue;
            }
            let mut is_max = true;
            'nms: for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    if (dx, dy) == (0, 0) {
                        continue;
                    }
                    let n = score_map.get_clamped(x as i64 + dx, y as i64 + dy);
                    if n > s || (n == s && (dy < 0 || (dy == 0 && dx < 0))) {
                        is_max = false;
                        break 'nms;
                    }
                }
            }
            if is_max {
                scores.push((x, y, s));
            }
        }
    }

    // --- Harris ranking, keep the strongest `max_features`.
    let img_f = img.to_f32();
    let mut ranked: Vec<(u32, u32, f32, f32)> =
        scores.into_iter().map(|(x, y, s)| (x, y, s, harris_response(&img_f, x, y, 3))).collect();
    ranked.sort_by(|a, b| taor_imgproc::cmp::nan_last_desc_f32(a.3, b.3));
    ranked.truncate(params.max_features);

    // --- Orientation + steered BRIEF over a smoothed image (BRIEF needs
    // pre-smoothing to be stable; Calonder et al. use a Gaussian).
    let smoothed = gaussian_blur(&img_f, 2.0).expect("fixed sigma is valid").to_u8(); // taor-lint: allow(panic::expect) — invariant expect: the message states why this cannot fail on valid state
    let pattern = brief_pattern(params.patch_size, params.pattern_seed);
    let radius = (params.patch_size / 2) as i64 - 1;

    let mut keypoints = Vec::with_capacity(ranked.len());
    let mut descriptors = BinaryDescriptors::new(32);
    for (x, y, fast_s, _harris) in ranked {
        let angle = intensity_centroid_angle(img, x, y, radius.min(15));
        let (sin_t, cos_t) = angle.sin_cos();
        let mut desc = [0u8; 32];
        for (bit, &(ax, ay, bx, by)) in pattern.iter().enumerate() {
            // Steer the test pair by the keypoint orientation.
            let rax = (ax * cos_t - ay * sin_t).round() as i64;
            let ray = (ax * sin_t + ay * cos_t).round() as i64;
            let rbx = (bx * cos_t - by * sin_t).round() as i64;
            let rby = (bx * sin_t + by * cos_t).round() as i64;
            let va = smoothed.get_clamped(x as i64 + rax, y as i64 + ray);
            let vb = smoothed.get_clamped(x as i64 + rbx, y as i64 + rby);
            if va < vb {
                desc[bit / 8] |= 1 << (bit % 8);
            }
        }
        keypoints.push(KeyPoint {
            x: x as f32,
            y: y as f32,
            size: params.patch_size as f32,
            angle,
            response: fast_s,
            octave: 0,
        });
        descriptors.push(&desc);
    }
    Ok((keypoints, descriptors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use taor_testkit::draw::fill_rot_rect;
    use taor_testkit::oracle::hamming;

    /// A 7×7 patch: centre `p`, circle pixel `i` at `p + offsets[i]`
    /// (clamped to `u8`), then `arc_len` contiguous circle pixels from
    /// `arc_start` (cyclically) forced to `p + arc_offset`; the other
    /// pixels hold `fill`.
    fn patch(
        p: u8,
        offsets: &[i16],
        arc_start: usize,
        arc_len: usize,
        arc_offset: i16,
        fill: u8,
    ) -> GrayImage {
        let mut img = GrayImage::filled(7, 7, [fill]);
        img.put(3, 3, p);
        let level = |d: i16| (p as i16 + d).clamp(0, 255) as u8;
        for (i, (&(dx, dy), &d)) in FAST_CIRCLE.iter().zip(offsets).enumerate() {
            let in_arc = (i + 16 - arc_start) % 16 < arc_len;
            img.put((3 + dx) as u32, (3 + dy) as u32, level(if in_arc { arc_offset } else { d }));
        }
        img
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Circle offsets straddle both thresholds, and a forced arc of
        /// 0–16 pixels at any start, wrapping arcs included, makes corners
        /// of both polarities common.
        #[test]
        fn compass_pretest_agrees_with_the_full_segment_test(
            p in any::<u8>(),
            t in 1i16..60,
            offsets in proptest::collection::vec(-70i16..70, 16),
            arc_start in 0usize..16,
            arc_len in 0usize..17,
            arc_offset in -90i16..90,
            fill in any::<u8>(),
        ) {
            let img = patch(p, &offsets, arc_start, arc_len, arc_offset, fill);
            prop_assert_eq!(fast_score(&img, 3, 3, t), fast_segment_score(&img, 3, 3, t));
        }
    }

    /// Each 9-pixel arc, starting at every circle index and of each
    /// polarity, is a corner under both forms.
    #[test]
    fn every_nine_pixel_arc_passes_the_pretest() {
        let offsets = [0i16; 16];
        for arc_start in 0..16 {
            for arc_offset in [-40, 40] {
                let img = patch(100, &offsets, arc_start, 9, arc_offset, 100);
                let full = fast_segment_score(&img, 3, 3, 20);
                assert!(full.is_some(), "arc from {arc_start} ({arc_offset})");
                assert_eq!(fast_score(&img, 3, 3, 20), full, "arc from {arc_start}");
            }
        }
    }

    /// A high-contrast test card with corners: dark background, bright
    /// rotated square plus a triangle.
    fn test_card(rot: f32) -> GrayImage {
        use taor_imgproc::draw::{p2, Canvas};
        let mut c = Canvas::new(96, 96, [10, 10, 10]);
        fill_rot_rect(&mut c, 48.0, 48.0, 40.0, 24.0, rot, [230, 230, 230]);
        c.fill_polygon(&[p2(20.0, 70.0), p2(38.0, 88.0), p2(20.0, 88.0)], [180, 180, 180]);
        taor_imgproc::color::rgb_to_gray(c.image())
    }

    #[test]
    fn detects_corners_on_test_card() {
        let img = test_card(0.3);
        let (kps, descs) = orb_detect_and_compute(&img, &OrbParams::default()).unwrap();
        assert!(!kps.is_empty(), "expected corners on the test card");
        assert_eq!(kps.len(), descs.len());
        assert_eq!(descs.width_bytes(), 32);
    }

    #[test]
    fn textureless_image_yields_no_keypoints() {
        let img = GrayImage::filled(96, 96, [128]);
        let (kps, descs) = orb_detect_and_compute(&img, &OrbParams::default()).unwrap();
        assert!(kps.is_empty());
        assert!(descs.is_empty());
    }

    #[test]
    fn too_small_image_is_an_error() {
        let img = GrayImage::new(10, 10);
        assert!(matches!(
            orb_detect_and_compute(&img, &OrbParams::default()),
            Err(FeatureError::ImageTooSmall { .. })
        ));
    }

    #[test]
    fn max_features_caps_output() {
        let img = test_card(0.0);
        let params = OrbParams { max_features: 3, ..OrbParams::default() };
        let (kps, _) = orb_detect_and_compute(&img, &params).unwrap();
        assert!(kps.len() <= 3);
    }

    #[test]
    fn zero_max_features_is_an_error() {
        let img = test_card(0.0);
        let params = OrbParams { max_features: 0, ..OrbParams::default() };
        assert!(orb_detect_and_compute(&img, &params).is_err());
    }

    #[test]
    fn descriptors_are_deterministic() {
        let img = test_card(0.5);
        let (_, d1) = orb_detect_and_compute(&img, &OrbParams::default()).unwrap();
        let (_, d2) = orb_detect_and_compute(&img, &OrbParams::default()).unwrap();
        assert_eq!(d1, d2);
    }

    #[test]
    fn same_scene_matches_better_than_different_scene() {
        // Two renderings of nearly the same scene vs. a very different one.
        let a = test_card(0.30);
        let b = test_card(0.34);
        let other = {
            use taor_imgproc::draw::Canvas;
            let mut c = Canvas::new(96, 96, [200, 200, 200]);
            fill_rot_rect(&mut c, 25.0, 25.0, 14.0, 14.0, 0.8, [20, 20, 20]);
            fill_rot_rect(&mut c, 70.0, 30.0, 18.0, 10.0, 2.1, [40, 40, 40]);
            fill_rot_rect(&mut c, 40.0, 70.0, 12.0, 20.0, 1.3, [10, 10, 10]);
            taor_imgproc::color::rgb_to_gray(c.image())
        };
        let p = OrbParams::default();
        let (_, da) = orb_detect_and_compute(&a, &p).unwrap();
        let (_, db) = orb_detect_and_compute(&b, &p).unwrap();
        let (_, dc) = orb_detect_and_compute(&other, &p).unwrap();
        assert!(!da.is_empty() && !db.is_empty() && !dc.is_empty());
        let mean_best = |q: &BinaryDescriptors, t: &BinaryDescriptors| -> f32 {
            let mut acc = 0.0;
            for i in 0..q.len() {
                let best = (0..t.len()).map(|j| hamming(q.row(i), t.row(j))).min().unwrap();
                acc += best as f32;
            }
            acc / q.len() as f32
        };
        let near = mean_best(&da, &db);
        let far = mean_best(&da, &dc);
        assert!(near < far, "near {near} !< far {far}");
    }

    #[test]
    fn orientation_angle_in_range() {
        let img = test_card(1.0);
        let (kps, _) = orb_detect_and_compute(&img, &OrbParams::default()).unwrap();
        for kp in kps {
            assert!((0.0..2.0 * std::f32::consts::PI + 1e-4).contains(&kp.angle));
        }
    }
}
