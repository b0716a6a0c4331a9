// taor-lint: allow(panic::index) — dense numeric kernel: indices are derived from dimensions validated at the public boundary and bounded by the enclosing loops.
//! SURF: Speeded-Up Robust Features (Bay, Tuytelaars, Van Gool, ECCV 2006).
//!
//! "SURF was originally conceived for providing a more scalable
//! alternative to SIFT, performing convolutions through square-shaped
//! filters … the keypoints are identified through maximising the
//! determinant of the Hessian matrix for blob detection. … set the Hessian
//! filter threshold to 400" (paper §3.3).
//!
//! Box-filter second derivatives are evaluated on an integral image, the
//! determinant of the approximated Hessian is thresholded and non-maximum
//! suppressed across a 3×3×3 scale neighbourhood, orientation comes from
//! Haar-wavelet responses in a circular window, and the descriptor is the
//! classic 4×4 grid of (Σdx, Σdy, Σ|dx|, Σ|dy|) = 64 dimensions.

use crate::error::{FeatureError, Result};
use crate::keypoint::{FloatDescriptors, KeyPoint};
use taor_imgproc::image::GrayImage;
use taor_imgproc::integral::IntegralImage;

/// SURF parameters.
#[derive(Debug, Clone)]
pub struct SurfParams {
    /// Threshold on the Hessian determinant (OpenCV default 100; the paper
    /// sets 400).
    pub hessian_threshold: f64,
    /// Number of octaves in the box-filter pyramid.
    pub octaves: usize,
    /// Maximum keypoints retained (strongest first); 0 = unlimited.
    pub max_features: usize,
}

impl Default for SurfParams {
    fn default() -> Self {
        SurfParams { hessian_threshold: 400.0, octaves: 3, max_features: 500 }
    }
}

/// The ten boxes of the filter of size `s` (s = 9, 15, 21, … per Bay et
/// al.), as `(dx, dy, w, h)` from the filter centre: Dyy's three stacked
/// horizontal lobes (white, black with weight 2, white), Dxx's transpose,
/// then Dxy's four diagonal lobes (two added, two subtracted).
fn filter_boxes(s: i64) -> [(i64, i64, i64, i64); 10] {
    let l = s / 3; // lobe size
    let w = 2 * l - 1;
    [
        (-w / 2, -l - l / 2, w, l),
        (-w / 2, -l / 2, w, l),
        (-w / 2, l - l / 2, w, l),
        (-l - l / 2, -w / 2, l, w),
        (-l / 2, -w / 2, l, w),
        (l - l / 2, -w / 2, l, w),
        (-l, -l, l, l),
        (1, 1, l, l),
        (1, -l, l, l),
        (-l, 1, l, l),
    ]
}

/// The determinant-of-Hessian map of filter size `s` on the grid of
/// stride `step` (`gw × gh` points at `(gx·step, gy·step)`), or
/// `NEG_INFINITY` where the point lies within `s/2 + 1` of a border.
///
/// Inside that margin no box reaches past the image, so each grid row
/// folds its ten box sums as whole runs at fixed offsets
/// ([`IntegralImage::fold_box_run`]) in the order of the per-point form:
/// `(b0 − 2·b1) + b2`, `(b3 − 2·b4) + b5`, `((b6 + b7) − b8) − b9`, each
/// times `1/s²`, then the determinant with Bay's 0.9 weight on Dxy.
fn response_map(ii: &IntegralImage, gw: usize, gh: usize, step: i64, s: i64) -> Vec<f64> {
    let (w, h) = (ii.width() as i64, ii.height() as i64);
    let margin = s / 2 + 1;
    let norm = 1.0 / (s * s) as f64;
    let mut map = vec![f64::NEG_INFINITY; gw * gh];
    // Grid columns whose x = gx·step lies in [margin, w − margin).
    let gx0 = (margin + step - 1) / step;
    let gx1 = ((w - margin + step - 1).max(0) / step).min(gw as i64);
    if gx1 <= gx0 {
        return map;
    }
    let (x, n) = (gx0 * step, (gx1 - gx0) as usize);
    let (b, stride) = (filter_boxes(s), step as usize);
    let (mut dyy, mut dxx, mut dxy) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    for (y, map_row) in (0..).step_by(stride).zip(map.chunks_exact_mut(gw)) {
        if y < margin || y >= h - margin {
            continue;
        }
        let run = |(dx, dy, bw, bh): (i64, i64, i64, i64)| (x + dx, y + dy, bw, bh);
        ii.fold_box_run(run(b[0]), stride, &mut dyy, |_, v| v);
        ii.fold_box_run(run(b[1]), stride, &mut dyy, |a, v| a - 2.0 * v);
        ii.fold_box_run(run(b[2]), stride, &mut dyy, |a, v| a + v);
        ii.fold_box_run(run(b[3]), stride, &mut dxx, |_, v| v);
        ii.fold_box_run(run(b[4]), stride, &mut dxx, |a, v| a - 2.0 * v);
        ii.fold_box_run(run(b[5]), stride, &mut dxx, |a, v| a + v);
        ii.fold_box_run(run(b[6]), stride, &mut dxy, |_, v| v);
        ii.fold_box_run(run(b[7]), stride, &mut dxy, |a, v| a + v);
        ii.fold_box_run(run(b[8]), stride, &mut dxy, |a, v| a - v);
        ii.fold_box_run(run(b[9]), stride, &mut dxy, |a, v| a - v);
        let cells = map_row.iter_mut().skip(gx0 as usize);
        for (((out, &dxx), &dyy), &dxy) in cells.zip(&dxx).zip(&dyy).zip(&dxy) {
            let (dxx, dyy, dxy) = (dxx * norm, dyy * norm, dxy * norm);
            *out = dxx * dyy - (0.9 * dxy) * (0.9 * dxy);
        }
    }
    map
}

/// Haar wavelet responses (dx, dy) of size `2r x 2r` at `(x, y)`.
fn haar(ii: &IntegralImage, x: i64, y: i64, r: i64) -> (f64, f64) {
    let dx = ii.box_sum(x, y - r, r, 2 * r) - ii.box_sum(x - r, y - r, r, 2 * r);
    let dy = ii.box_sum(x - r, y, 2 * r, r) - ii.box_sum(x - r, y - r, 2 * r, r);
    (dx, dy)
}

/// Dominant orientation: largest sum of Haar responses inside a sliding
/// π/3 window over a circle of radius 6σ (Bay et al. §3.3).
fn dominant_orientation(ii: &IntegralImage, x: i64, y: i64, scale: f64) -> f32 {
    let sigma = scale.max(1.0);
    let r_hw = (2.0 * sigma).round() as i64;
    let mut samples: Vec<(f64, f64, f64)> = Vec::new(); // (angle, dx, dy)
    for dy in -6..=6i64 {
        for dx in -6..=6i64 {
            if dx * dx + dy * dy > 36 {
                continue;
            }
            let px = x + (dx as f64 * sigma).round() as i64;
            let py = y + (dy as f64 * sigma).round() as i64;
            let (hx, hy) = haar(ii, px, py, r_hw.max(1));
            // Gaussian weight (σ = 2.5 in grid units).
            let wgt = (-((dx * dx + dy * dy) as f64) / (2.0 * 2.5 * 2.5)).exp();
            let wx = hx * wgt;
            let wy = hy * wgt;
            // taor-lint: allow(float::eq) — exact zero-weight guard before atan2; any tolerance would drop real gradients
            if wx != 0.0 || wy != 0.0 {
                samples.push((wy.atan2(wx), wx, wy));
            }
        }
    }
    if samples.is_empty() {
        return 0.0;
    }
    let window = std::f64::consts::FRAC_PI_3;
    let mut best = (0.0f64, 0.0f64);
    let mut best_norm = -1.0;
    for &(a0, _, _) in &samples {
        let (mut sx, mut sy) = (0.0, 0.0);
        for &(a, dx, dy) in &samples {
            let mut diff = a - a0;
            while diff > std::f64::consts::PI {
                diff -= 2.0 * std::f64::consts::PI;
            }
            while diff < -std::f64::consts::PI {
                diff += 2.0 * std::f64::consts::PI;
            }
            if diff >= 0.0 && diff < window {
                sx += dx;
                sy += dy;
            }
        }
        let n = sx * sx + sy * sy;
        if n > best_norm {
            best_norm = n;
            best = (sx, sy);
        }
    }
    let a = best.1.atan2(best.0) as f32;
    if a < 0.0 {
        a + 2.0 * std::f32::consts::PI
    } else {
        a
    }
}

/// 64-d SURF descriptor: 4×4 subregions × (Σdx, Σdy, Σ|dx|, Σ|dy|), sampled
/// on a 20σ window rotated to the keypoint orientation, L2-normalised.
fn descriptor(ii: &IntegralImage, kp: &KeyPoint) -> [f32; 64] {
    let sigma = (kp.size as f64 / 9.0 * 1.2).max(1.0);
    let (sin_t, cos_t) = (kp.angle as f64).sin_cos();
    let mut desc = [0.0f32; 64];
    let step = sigma; // sample spacing
    let r_hw = sigma.round().max(1.0) as i64;
    for sub_y in 0..4 {
        for sub_x in 0..4 {
            let base = (sub_y * 4 + sub_x) * 4;
            // 5x5 samples per subregion (Bay et al.).
            for sy in 0..5 {
                for sx in 0..5 {
                    // Offsets in the rotated frame, centred on the keypoint.
                    let u = ((sub_x as f64 - 2.0) * 5.0 + sx as f64 + 0.5) * step;
                    let v = ((sub_y as f64 - 2.0) * 5.0 + sy as f64 + 0.5) * step;
                    let px = kp.x as f64 + u * cos_t - v * sin_t;
                    let py = kp.y as f64 + u * sin_t + v * cos_t;
                    let (hx, hy) = haar(ii, px.round() as i64, py.round() as i64, r_hw);
                    // Rotate responses into the keypoint frame.
                    let dx = hx * cos_t + hy * sin_t;
                    let dy = -hx * sin_t + hy * cos_t;
                    desc[base] += dx as f32;
                    desc[base + 1] += dy as f32;
                    desc[base + 2] += dx.abs() as f32;
                    desc[base + 3] += dy.abs() as f32;
                }
            }
        }
    }
    let norm: f32 = desc.iter().map(|v| v * v).sum::<f32>().sqrt();
    if norm > 1e-12 {
        for v in &mut desc {
            *v /= norm;
        }
    }
    desc
}

/// Detect SURF keypoints and compute 64-d descriptors.
pub fn surf_detect_and_compute(
    img: &GrayImage,
    params: &SurfParams,
) -> Result<(Vec<KeyPoint>, FloatDescriptors)> {
    const MIN_SIDE: u32 = 48;
    if img.width() < MIN_SIDE || img.height() < MIN_SIDE {
        return Err(FeatureError::ImageTooSmall {
            width: img.width(),
            height: img.height(),
            min: MIN_SIDE,
        });
    }
    if params.octaves == 0 || params.octaves > 5 {
        return Err(FeatureError::InvalidParameter {
            name: "octaves",
            msg: format!("{} not in 1..=5", params.octaves),
        });
    }
    let ii = IntegralImage::from_gray(img);
    let (w, h) = (img.width() as i64, img.height() as i64);

    // Filter sizes per octave: {9,15,21,27}, {15,27,39,51}, {27,51,75,99}…
    let mut keypoints: Vec<KeyPoint> = Vec::new();
    for octave in 0..params.octaves {
        let step = 1i64 << octave; // sampling stride
                                   // Filter sizes: size_k = 3 · (2^(octave+1) · (k+1) + 1), giving
                                   // {9, 15, 21, 27} at octave 0, {15, 27, 39, 51} at octave 1, …
        let sizes: Vec<i64> = (0..4).map(|k| 3 * ((1i64 << (octave + 1)) * (k + 1) + 1)).collect();

        // Response maps for the 4 scales of this octave.
        let gw = (w / step) as usize;
        let gh = (h / step) as usize;
        let maps: Vec<Vec<f64>> =
            sizes.iter().map(|&s| response_map(&ii, gw, gh, step, s)).collect();

        // 3x3x3 non-maximum suppression over the two interior scales.
        for k in 1..3usize {
            for gy in 1..gh.saturating_sub(1) {
                for gx in 1..gw.saturating_sub(1) {
                    let v = maps[k][gy * gw + gx];
                    if !v.is_finite() || v < params.hessian_threshold {
                        continue;
                    }
                    let mut is_max = true;
                    'sup: for dk in 0..3usize {
                        for dy in 0..3usize {
                            for dx in 0..3usize {
                                if (dk, dy, dx) == (1, 1, 1) {
                                    continue;
                                }
                                let n = maps[k + dk - 1][(gy + dy - 1) * gw + (gx + dx - 1)];
                                if n.is_finite() && n >= v {
                                    is_max = false;
                                    break 'sup;
                                }
                            }
                        }
                    }
                    if !is_max {
                        continue;
                    }
                    let x = (gx as i64 * step) as f32;
                    let y = (gy as i64 * step) as f32;
                    let size = sizes[k] as f32;
                    keypoints.push(KeyPoint {
                        x,
                        y,
                        size,
                        angle: 0.0,
                        response: v as f32,
                        octave: octave as i32,
                    });
                }
            }
        }
    }

    keypoints.sort_by(|a, b| taor_imgproc::cmp::nan_last_desc_f32(a.response, b.response));
    if params.max_features > 0 {
        keypoints.truncate(params.max_features);
    }

    let mut descriptors = FloatDescriptors::new(64);
    for kp in &mut keypoints {
        let scale = kp.size as f64 / 9.0 * 1.2;
        kp.angle = dominant_orientation(&ii, kp.x as i64, kp.y as i64, scale);
        descriptors.push(&descriptor(&ii, kp));
    }
    Ok((keypoints, descriptors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use taor_testkit::draw::fill_ellipse;

    /// Box-filter approximations of the second-order Gaussian derivatives
    /// at filter size `s`, evaluated at `(x, y)` through the clamped
    /// `box_sum`; returns `(dxx, dyy, dxy)` normalised by the filter area.
    /// The per-point oracle [`response_map`] is pinned against.
    fn hessian_boxes(ii: &IntegralImage, x: i64, y: i64, s: i64) -> (f64, f64, f64) {
        let l = s / 3; // lobe size
        let norm = 1.0 / (s * s) as f64;

        // Dyy: three stacked horizontal lobes (white, black(x2 weight), white)
        let w = 2 * l - 1;
        let dyy = ii.box_sum(x - w / 2, y - l - l / 2, w, l)
            - 2.0 * ii.box_sum(x - w / 2, y - l / 2, w, l)
            + ii.box_sum(x - w / 2, y + l - l / 2, w, l);

        // Dxx: transpose of Dyy.
        let dxx = ii.box_sum(x - l - l / 2, y - w / 2, l, w)
            - 2.0 * ii.box_sum(x - l / 2, y - w / 2, l, w)
            + ii.box_sum(x + l - l / 2, y - w / 2, l, w);

        // Dxy: four diagonal lobes.
        let dxy = ii.box_sum(x - l, y - l, l, l) + ii.box_sum(x + 1, y + 1, l, l)
            - ii.box_sum(x + 1, y - l, l, l)
            - ii.box_sum(x - l, y + 1, l, l);

        (dxx * norm, dyy * norm, dxy * norm)
    }

    /// Hessian determinant with Bay's 0.9 weight on the Dxy term.
    fn det_hessian(ii: &IntegralImage, x: i64, y: i64, s: i64) -> f64 {
        let (dxx, dyy, dxy) = hessian_boxes(ii, x, y, s);
        dxx * dyy - (0.9 * dxy) * (0.9 * dxy)
    }

    /// The per-point map: [`det_hessian`] at every grid point inside the
    /// `s/2 + 1` margin, `NEG_INFINITY` elsewhere.
    fn response_map_per_point(
        ii: &IntegralImage,
        gw: usize,
        gh: usize,
        step: i64,
        s: i64,
    ) -> Vec<f64> {
        let (w, h) = (ii.width() as i64, ii.height() as i64);
        let margin = s / 2 + 1;
        let mut map = vec![f64::NEG_INFINITY; gw * gh];
        for gy in 0..gh as i64 {
            let y = gy * step;
            if y < margin || y >= h - margin {
                continue;
            }
            for gx in 0..gw as i64 {
                let x = gx * step;
                if x < margin || x >= w - margin {
                    continue;
                }
                map[(gy as usize) * gw + gx as usize] = det_hessian(ii, x, y, s);
            }
        }
        map
    }

    /// Every entry of every octave's four maps, against the per-point
    /// oracle, bit for bit (`NEG_INFINITY` borders included).
    fn assert_maps_match_the_oracle(img: &GrayImage) {
        let ii = IntegralImage::from_gray(img);
        let (w, h) = (img.width() as i64, img.height() as i64);
        for octave in 0..5 {
            let step = 1i64 << octave;
            let (gw, gh) = ((w / step) as usize, (h / step) as usize);
            for k in 0..4 {
                let s = 3 * ((1i64 << (octave + 1)) * (k + 1) + 1);
                let got = response_map(&ii, gw, gh, step, s);
                let want = response_map_per_point(&ii, gw, gh, step, s);
                assert_eq!(got.len(), want.len());
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{}x{} octave {octave} size {s} entry {i}: {g} vs {w}",
                        img.width(),
                        img.height()
                    );
                }
            }
        }
    }

    fn arb_image() -> impl Strategy<Value = GrayImage> {
        (1u32..=90, 1u32..=90).prop_flat_map(|(w, h)| {
            proptest::collection::vec(any::<u8>(), (w * h) as usize)
                .prop_map(move |data| GrayImage::from_vec(w, h, data).unwrap())
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Noise images of every size from 1×1 to 90×90, so each
        /// octave's grid meets odd widths and margins wider than the image.
        #[test]
        fn response_maps_match_the_per_point_oracle(img in arb_image()) {
            assert_maps_match_the_oracle(&img);
        }
    }

    #[test]
    fn blob_image_maps_match_the_per_point_oracle() {
        assert_maps_match_the_oracle(&blob_image());
    }

    /// Blob test image: bright discs on dark ground.
    fn blob_image() -> GrayImage {
        use taor_imgproc::draw::Canvas;
        let mut c = Canvas::new(128, 128, [15, 15, 15]);
        fill_ellipse(&mut c, 40.0, 40.0, 9.0, 9.0, [240, 240, 240]);
        fill_ellipse(&mut c, 90.0, 70.0, 14.0, 14.0, [220, 220, 220]);
        fill_ellipse(&mut c, 50.0, 100.0, 6.0, 6.0, [250, 250, 250]);
        taor_imgproc::color::rgb_to_gray(c.image())
    }

    #[test]
    fn detects_blobs() {
        let img = blob_image();
        let (kps, descs) = surf_detect_and_compute(&img, &SurfParams::default()).unwrap();
        assert!(!kps.is_empty(), "expected blob detections");
        assert_eq!(kps.len(), descs.len());
        assert_eq!(descs.width(), 64);
        // At least one detection near each disc centre.
        for &(cx, cy) in &[(40.0f32, 40.0f32), (90.0, 70.0)] {
            let close = kps.iter().any(|k| ((k.x - cx).powi(2) + (k.y - cy).powi(2)).sqrt() < 12.0);
            assert!(close, "no keypoint near ({cx},{cy}): {kps:?}");
        }
    }

    #[test]
    fn descriptors_are_unit_norm() {
        let img = blob_image();
        let (_, descs) = surf_detect_and_compute(&img, &SurfParams::default()).unwrap();
        for d in descs.iter() {
            let n: f32 = d.iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!((n - 1.0).abs() < 1e-4, "norm {n}");
        }
    }

    #[test]
    fn flat_image_yields_nothing() {
        let img = GrayImage::filled(96, 96, [100]);
        let (kps, _) = surf_detect_and_compute(&img, &SurfParams::default()).unwrap();
        assert!(kps.is_empty());
    }

    #[test]
    fn threshold_prunes_detections() {
        let img = blob_image();
        let lo = SurfParams { hessian_threshold: 10.0, ..Default::default() };
        let hi = SurfParams { hessian_threshold: 5000.0, ..Default::default() };
        let (k_lo, _) = surf_detect_and_compute(&img, &lo).unwrap();
        let (k_hi, _) = surf_detect_and_compute(&img, &hi).unwrap();
        assert!(k_lo.len() >= k_hi.len());
    }

    #[test]
    fn small_image_rejected() {
        let img = GrayImage::new(20, 20);
        assert!(matches!(
            surf_detect_and_compute(&img, &SurfParams::default()),
            Err(FeatureError::ImageTooSmall { .. })
        ));
    }

    #[test]
    fn invalid_octaves_rejected() {
        let img = blob_image();
        let p = SurfParams { octaves: 0, ..Default::default() };
        assert!(surf_detect_and_compute(&img, &p).is_err());
        let p = SurfParams { octaves: 9, ..Default::default() };
        assert!(surf_detect_and_compute(&img, &p).is_err());
    }

    #[test]
    fn deterministic() {
        let img = blob_image();
        let (k1, d1) = surf_detect_and_compute(&img, &SurfParams::default()).unwrap();
        let (k2, d2) = surf_detect_and_compute(&img, &SurfParams::default()).unwrap();
        assert_eq!(k1.len(), k2.len());
        assert_eq!(d1, d2);
    }
}
