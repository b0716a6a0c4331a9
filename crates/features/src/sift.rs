// taor-lint: allow(panic::index) — dense numeric kernel: indices are derived from dimensions validated at the public boundary and bounded by the enclosing loops.
//! SIFT: Scale-Invariant Feature Transform (Lowe, IJCV 2004).
//!
//! "the SIFT algorithm is based on the main rationale of describing images
//! through scale-invariant keypoints. We used L2 norm as distance measure
//! for the matching and trimmed the resulting matching keypoints to the
//! second-nearest neighbour" (paper §3.3).
//!
//! Implements the full pipeline from the IJCV paper: incremental Gaussian
//! scale space, difference-of-Gaussians extrema with sub-pixel quadratic
//! refinement, low-contrast and edge-response rejection, 36-bin gradient
//! orientation histograms with multiple-peak splitting, and the 4×4×8
//! descriptor with trilinear binning, normalisation, 0.2 clamping and
//! renormalisation.

use crate::error::{FeatureError, Result};
use crate::keypoint::{FloatDescriptors, KeyPoint};
use taor_imgproc::filter::gaussian_blur;
use taor_imgproc::image::{GrayF32, GrayImage};
use taor_imgproc::resize::resize_bilinear_f32;

/// SIFT parameters (defaults follow Lowe 2004 / OpenCV).
#[derive(Debug, Clone)]
pub struct SiftParams {
    /// Scales per octave (Lowe's `s`; 3 is standard).
    pub n_octave_layers: usize,
    /// DoG contrast threshold (on images scaled to \[0,1\]).
    pub contrast_threshold: f32,
    /// Edge-response threshold on the principal-curvature ratio.
    pub edge_threshold: f32,
    /// Base blur of the first scale.
    pub sigma: f32,
    /// Maximum keypoints retained (strongest first); 0 = unlimited.
    pub max_features: usize,
}

impl Default for SiftParams {
    fn default() -> Self {
        SiftParams {
            n_octave_layers: 3,
            contrast_threshold: 0.04,
            edge_threshold: 10.0,
            sigma: 1.6,
            max_features: 500,
        }
    }
}

/// Gaussian pyramid: `octaves × (n_octave_layers + 3)` images.
struct Pyramid {
    octaves: Vec<Vec<GrayF32>>,
}

/// Assumed blur of the input image (Lowe).
const INIT_SIGMA: f32 = 0.5;

fn build_gaussian_pyramid(base: &GrayF32, params: &SiftParams) -> Pyramid {
    let n_levels = params.n_octave_layers + 3;
    let k = 2.0f32.powf(1.0 / params.n_octave_layers as f32);

    // Per-level incremental sigmas within an octave.
    let mut sig = vec![0.0f32; n_levels];
    sig[0] = params.sigma;
    for (i, s) in sig.iter_mut().enumerate().skip(1) {
        let prev = params.sigma * k.powi(i as i32 - 1);
        let total = prev * k;
        *s = (total * total - prev * prev).sqrt();
    }

    let min_side = 16u32;
    let mut octaves = Vec::new();
    // First image: blur the input up to params.sigma.
    let add = (params.sigma * params.sigma - INIT_SIGMA * INIT_SIGMA).max(0.01).sqrt();
    let mut current = gaussian_blur(base, add).expect("valid sigma"); // taor-lint: allow(panic::expect) — invariant expect: the message states why this cannot fail on valid state
    loop {
        let mut levels = Vec::with_capacity(n_levels);
        levels.push(current.clone());
        for s in sig.iter().take(n_levels).skip(1) {
            let next = gaussian_blur(levels.last().expect("non-empty"), *s).expect("valid sigma"); // taor-lint: allow(panic::expect) — invariant expect: the message states why this cannot fail on valid state
            levels.push(next);
        }
        // Next octave starts from level n (blur 2σ) downsampled by 2.
        let seed = &levels[params.n_octave_layers];
        let (w, h) = seed.dimensions();
        let done = w / 2 < min_side || h / 2 < min_side;
        if !done {
            // taor-lint: allow(panic::expect) — invariant expect: the message states why this cannot fail on valid state
            current = resize_bilinear_f32(seed, w / 2, h / 2).expect("valid dims");
        }
        octaves.push(levels);
        if done {
            break;
        }
    }
    Pyramid { octaves }
}

fn build_dog(pyr: &Pyramid) -> Vec<Vec<GrayF32>> {
    pyr.octaves
        .iter()
        .map(|levels| {
            levels
                .windows(2)
                .map(|pair| {
                    let (w, h) = pair[0].dimensions();
                    let mut d = GrayF32::new(w, h);
                    for ((a, b), out) in
                        pair[1].as_raw().iter().zip(pair[0].as_raw()).zip(d.as_raw_mut())
                    {
                        *out = a - b;
                    }
                    d
                })
                .collect()
        })
        .collect()
}

/// A refined extremum inside one octave.
struct Extremum {
    /// Integer level within the octave's DoG stack.
    level: usize,
    /// Sub-pixel coordinates within the octave image.
    x: f32,
    y: f32,
    /// Sub-level offset.
    ds: f32,
    /// Interpolated |DoG| contrast.
    contrast: f32,
}

/// Quadratic sub-pixel refinement of a candidate extremum. Returns `None`
/// when the offset diverges or the refined contrast/edge tests fail.
#[allow(clippy::too_many_arguments)]
fn refine_extremum(
    dog: &[GrayF32],
    level: usize,
    x: u32,
    y: u32,
    params: &SiftParams,
) -> Option<Extremum> {
    let img_scale = 1.0 / 255.0;
    let (mut lx, mut ly, mut ll) = (x as i64, y as i64, level);
    let (w, h) = dog[0].dimensions();
    let mut offset = (0.0f32, 0.0f32, 0.0f32);

    for _attempt in 0..5 {
        let d = &dog[ll];
        let prev = &dog[ll - 1];
        let next = &dog[ll + 1];
        let v = |im: &GrayF32, dx: i64, dy: i64| im.get_clamped(lx + dx, ly + dy) * img_scale;

        // Gradient and Hessian of the DoG at (lx, ly, ll).
        let dx = (v(d, 1, 0) - v(d, -1, 0)) * 0.5;
        let dy = (v(d, 0, 1) - v(d, 0, -1)) * 0.5;
        let dsig = (v(next, 0, 0) - v(prev, 0, 0)) * 0.5;
        let dxx = v(d, 1, 0) + v(d, -1, 0) - 2.0 * v(d, 0, 0);
        let dyy = v(d, 0, 1) + v(d, 0, -1) - 2.0 * v(d, 0, 0);
        let dss = v(next, 0, 0) + v(prev, 0, 0) - 2.0 * v(d, 0, 0);
        let dxy = (v(d, 1, 1) - v(d, -1, 1) - v(d, 1, -1) + v(d, -1, -1)) * 0.25;
        let dxs = (v(next, 1, 0) - v(next, -1, 0) - v(prev, 1, 0) + v(prev, -1, 0)) * 0.25;
        let dys = (v(next, 0, 1) - v(next, 0, -1) - v(prev, 0, 1) + v(prev, 0, -1)) * 0.25;

        // Solve H * t = -g (3x3 Cramer).
        let det = dxx * (dyy * dss - dys * dys) - dxy * (dxy * dss - dys * dxs)
            + dxs * (dxy * dys - dyy * dxs);
        if det.abs() < 1e-12 {
            return None;
        }
        let inv = 1.0 / det;
        let tx = -inv
            * (dx * (dyy * dss - dys * dys) - dy * (dxy * dss - dys * dxs)
                + dsig * (dxy * dys - dyy * dxs));
        let ty = -inv
            * (dxx * (dy * dss - dsig * dys) - dxy * (dx * dss - dsig * dxs)
                + dxs * (dx * dys - dy * dxs));
        let ts = -inv
            * (dxx * (dyy * dsig - dy * dys) - dxy * (dxy * dsig - dy * dxs)
                + dxs * (dxy * dy - dyy * dx));

        offset = (tx, ty, ts);
        if tx.abs() < 0.5 && ty.abs() < 0.5 && ts.abs() < 0.5 {
            // Converged: contrast test on the interpolated value.
            let contrast = v(d, 0, 0) + 0.5 * (dx * tx + dy * ty + dsig * ts);
            if contrast.abs() * (params.n_octave_layers as f32) < params.contrast_threshold {
                return None;
            }
            // Edge rejection: ratio of principal curvatures.
            let tr = dxx + dyy;
            let det2 = dxx * dyy - dxy * dxy;
            let r = params.edge_threshold;
            if det2 <= 0.0 || tr * tr * r >= (r + 1.0) * (r + 1.0) * det2 {
                return None;
            }
            return Some(Extremum {
                level: ll,
                x: lx as f32 + tx,
                y: ly as f32 + ty,
                ds: ts,
                contrast: contrast.abs(),
            });
        }
        lx += tx.round() as i64;
        ly += ty.round() as i64;
        let nl = ll as i64 + ts.round() as i64;
        if nl < 1
            || nl as usize > dog.len() - 2
            || lx < 1
            || ly < 1
            || lx >= w as i64 - 1
            || ly >= h as i64 - 1
        {
            return None;
        }
        ll = nl as usize;
    }
    let _ = offset;
    None
}

/// Orientation histogram: 36 bins over gradient directions in a Gaussian-
/// weighted window; returns all peaks ≥ 0.8·max with parabolic refinement.
fn orientations(img: &GrayF32, x: f32, y: f32, sigma: f32) -> Vec<f32> {
    const BINS: usize = 36;
    let radius = (3.0 * 1.5 * sigma).round() as i64;
    let weight_denom = 2.0 * (1.5 * sigma) * (1.5 * sigma);
    let mut hist = [0.0f32; BINS];
    let cx = x.round() as i64;
    let cy = y.round() as i64;
    for dy in -radius..=radius {
        for dx in -radius..=radius {
            let px = cx + dx;
            let py = cy + dy;
            let gx = img.get_clamped(px + 1, py) - img.get_clamped(px - 1, py);
            let gy = img.get_clamped(px, py + 1) - img.get_clamped(px, py - 1);
            let mag = (gx * gx + gy * gy).sqrt();
            if mag <= 0.0 {
                continue;
            }
            let theta = gy.atan2(gx).rem_euclid(2.0 * std::f32::consts::PI);
            let w = (-((dx * dx + dy * dy) as f32) / weight_denom).exp();
            let bin = ((theta / (2.0 * std::f32::consts::PI)) * BINS as f32) as usize % BINS;
            hist[bin] += w * mag;
        }
    }
    // Smooth the histogram twice (standard practice).
    for _ in 0..2 {
        let snapshot = hist;
        for i in 0..BINS {
            hist[i] = 0.25 * snapshot[(i + BINS - 1) % BINS]
                + 0.5 * snapshot[i]
                + 0.25 * snapshot[(i + 1) % BINS];
        }
    }
    let max = hist.iter().cloned().fold(0.0f32, f32::max);
    if max <= 0.0 {
        return Vec::new();
    }
    let mut peaks = Vec::new();
    for i in 0..BINS {
        let l = hist[(i + BINS - 1) % BINS];
        let c = hist[i];
        let r = hist[(i + 1) % BINS];
        if c > l && c > r && c >= 0.8 * max {
            // Parabolic interpolation of the peak position.
            let delta = 0.5 * (l - r) / (l - 2.0 * c + r);
            let bin = (i as f32 + delta).rem_euclid(BINS as f32);
            peaks.push(bin / BINS as f32 * 2.0 * std::f32::consts::PI);
        }
    }
    peaks
}

/// 128-d descriptor: 4×4 spatial bins × 8 orientation bins with trilinear
/// interpolation, rotated to the keypoint orientation.
fn compute_descriptor(img: &GrayF32, x: f32, y: f32, angle: f32, scale: f32) -> [f32; 128] {
    const D: usize = 4;
    const B: usize = 8;
    let hist_width = 3.0 * scale;
    let radius = (hist_width * std::f32::consts::SQRT_2 * (D as f32 + 1.0) * 0.5).round() as i64;
    let (sin_t, cos_t) = (-angle).sin_cos(); // rotate gradients into kp frame
    let mut hist = [0.0f32; D * D * B];
    let cx = x.round() as i64;
    let cy = y.round() as i64;

    for dy in -radius..=radius {
        for dx in -radius..=radius {
            // Rotate the offset into the keypoint frame, in units of
            // histogram cells.
            let rx = (dx as f32 * cos_t - dy as f32 * sin_t) / hist_width;
            let ry = (dx as f32 * sin_t + dy as f32 * cos_t) / hist_width;
            let rbin = ry + D as f32 / 2.0 - 0.5;
            let cbin = rx + D as f32 / 2.0 - 0.5;
            if !(-1.0..D as f32).contains(&rbin) || !(-1.0..D as f32).contains(&cbin) {
                continue;
            }
            let px = cx + dx;
            let py = cy + dy;
            let gx = img.get_clamped(px + 1, py) - img.get_clamped(px - 1, py);
            let gy = img.get_clamped(px, py + 1) - img.get_clamped(px, py - 1);
            let mag = (gx * gx + gy * gy).sqrt();
            if mag <= 0.0 {
                continue;
            }
            let theta = (gy.atan2(gx) - angle).rem_euclid(2.0 * std::f32::consts::PI);
            let obin = theta / (2.0 * std::f32::consts::PI) * B as f32;
            let w = (-(rx * rx + ry * ry) / (0.5 * (D as f32) * (D as f32))).exp();
            let contrib = w * mag;

            // Trilinear distribution.
            let r0 = rbin.floor();
            let c0 = cbin.floor();
            let o0 = obin.floor();
            let dr = rbin - r0;
            let dc = cbin - c0;
            let dob = obin - o0;
            for (ri, rw) in [(r0 as i64, 1.0 - dr), (r0 as i64 + 1, dr)] {
                if ri < 0 || ri >= D as i64 {
                    continue;
                }
                for (ci, cw) in [(c0 as i64, 1.0 - dc), (c0 as i64 + 1, dc)] {
                    if ci < 0 || ci >= D as i64 {
                        continue;
                    }
                    for (oi, ow) in [(o0 as i64, 1.0 - dob), (o0 as i64 + 1, dob)] {
                        let ob = (oi.rem_euclid(B as i64)) as usize;
                        hist[(ri as usize * D + ci as usize) * B + ob] += contrib * rw * cw * ow;
                    }
                }
            }
        }
    }

    // Normalise, clamp at 0.2, renormalise (Lowe's illumination robustness).
    let mut desc = hist;
    let norm: f32 = desc.iter().map(|v| v * v).sum::<f32>().sqrt();
    if norm > 1e-12 {
        for v in &mut desc {
            *v = (*v / norm).min(0.2);
        }
    }
    let norm2: f32 = desc.iter().map(|v| v * v).sum::<f32>().sqrt();
    if norm2 > 1e-12 {
        for v in &mut desc {
            *v /= norm2;
        }
    }
    desc
}

/// Detect SIFT keypoints and compute 128-d descriptors.
pub fn sift_detect_and_compute(
    img: &GrayImage,
    params: &SiftParams,
) -> Result<(Vec<KeyPoint>, FloatDescriptors)> {
    const MIN_SIDE: u32 = 32;
    if img.width() < MIN_SIDE || img.height() < MIN_SIDE {
        return Err(FeatureError::ImageTooSmall {
            width: img.width(),
            height: img.height(),
            min: MIN_SIDE,
        });
    }
    if params.n_octave_layers == 0 || params.n_octave_layers > 6 {
        return Err(FeatureError::InvalidParameter {
            name: "n_octave_layers",
            msg: format!("{} not in 1..=6", params.n_octave_layers),
        });
    }

    let base = img.to_f32();
    let pyr = build_gaussian_pyramid(&base, params);
    let dog = build_dog(&pyr);
    let k = 2.0f32.powf(1.0 / params.n_octave_layers as f32);

    let mut keypoints: Vec<(KeyPoint, usize, usize, f32, f32)> = Vec::new();
    // (kp, octave_idx, level, x_in_octave, y_in_octave)

    let prelim_thresh = 0.5 * params.contrast_threshold / params.n_octave_layers as f32 * 255.0;
    for (oct_idx, stack) in dog.iter().enumerate() {
        let (w, h) = stack[0].dimensions();
        for level in 1..stack.len() - 1 {
            for y in 1..h - 1 {
                for x in 1..w - 1 {
                    let v = stack[level].get(x, y);
                    if v.abs() < prelim_thresh {
                        continue;
                    }
                    // 3x3x3 extremum test.
                    let mut is_max = true;
                    let mut is_min = true;
                    'ext: for dl in 0..3usize {
                        let s = &stack[level + dl - 1];
                        for dy in -1i64..=1 {
                            for dx in -1i64..=1 {
                                if (dl, dx, dy) == (1, 0, 0) {
                                    continue;
                                }
                                let n = s.get_clamped(x as i64 + dx, y as i64 + dy);
                                if n >= v {
                                    is_max = false;
                                }
                                if n <= v {
                                    is_min = false;
                                }
                                if !is_max && !is_min {
                                    break 'ext;
                                }
                            }
                        }
                    }
                    if !is_max && !is_min {
                        continue;
                    }
                    let Some(ext) = refine_extremum(stack, level, x, y, params) else {
                        continue;
                    };
                    let scale =
                        params.sigma * k.powf(ext.level as f32 + ext.ds) * (1 << oct_idx) as f32;
                    let kp = KeyPoint {
                        x: ext.x * (1 << oct_idx) as f32,
                        y: ext.y * (1 << oct_idx) as f32,
                        size: scale * 2.0,
                        angle: 0.0,
                        response: ext.contrast,
                        octave: oct_idx as i32,
                    };
                    keypoints.push((kp, oct_idx, ext.level, ext.x, ext.y));
                }
            }
        }
    }

    keypoints.sort_by(|a, b| taor_imgproc::cmp::nan_last_desc_f32(a.0.response, b.0.response));
    if params.max_features > 0 {
        keypoints.truncate(params.max_features);
    }

    let mut out_kps = Vec::new();
    let mut descriptors = FloatDescriptors::new(128);
    for (kp, oct_idx, level, ox, oy) in keypoints {
        // Gradients come from the Gaussian image at the keypoint's level.
        let gimg = &pyr.octaves[oct_idx][level];
        let local_scale = params.sigma * k.powi(level as i32);
        for angle in orientations(gimg, ox, oy, local_scale) {
            let desc = compute_descriptor(gimg, ox, oy, angle, local_scale);
            out_kps.push(KeyPoint { angle, ..kp });
            descriptors.push(&desc);
        }
    }
    Ok((out_kps, descriptors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use taor_testkit::draw::{fill_ellipse, fill_rot_rect};

    fn corner_card() -> GrayImage {
        use taor_imgproc::draw::{p2, Canvas};
        let mut c = Canvas::new(128, 128, [20, 20, 20]);
        fill_rot_rect(&mut c, 50.0, 46.0, 44.0, 30.0, 0.4, [230, 230, 230]);
        c.fill_polygon(&[p2(80.0, 90.0), p2(114.0, 96.0), p2(88.0, 118.0)], [160, 160, 160]);
        fill_ellipse(&mut c, 30.0, 96.0, 11.0, 7.0, [200, 200, 200]);
        taor_imgproc::color::rgb_to_gray(c.image())
    }

    #[test]
    fn detects_features_on_structured_image() {
        let img = corner_card();
        let (kps, descs) = sift_detect_and_compute(&img, &SiftParams::default()).unwrap();
        assert!(!kps.is_empty(), "expected SIFT keypoints");
        assert_eq!(kps.len(), descs.len());
        assert_eq!(descs.width(), 128);
    }

    #[test]
    fn descriptors_are_unit_norm_and_clamped() {
        let img = corner_card();
        let (_, descs) = sift_detect_and_compute(&img, &SiftParams::default()).unwrap();
        for d in descs.iter() {
            let n: f32 = d.iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!((n - 1.0).abs() < 1e-3, "norm {n}");
            // Values are clamped at 0.2 *before* the final renormalisation,
            // which can push them back up (same as OpenCV); 0.5 is a loose
            // post-renormalisation ceiling.
            for &v in d {
                assert!((0.0..=0.5).contains(&v), "bin value {v} out of clamped range");
            }
        }
    }

    #[test]
    fn flat_image_has_no_features() {
        let img = GrayImage::filled(64, 64, [77]);
        let (kps, _) = sift_detect_and_compute(&img, &SiftParams::default()).unwrap();
        assert!(kps.is_empty());
    }

    #[test]
    fn small_image_rejected() {
        let img = GrayImage::new(16, 16);
        assert!(matches!(
            sift_detect_and_compute(&img, &SiftParams::default()),
            Err(FeatureError::ImageTooSmall { .. })
        ));
    }

    #[test]
    fn invalid_layers_rejected() {
        let img = corner_card();
        let p = SiftParams { n_octave_layers: 0, ..Default::default() };
        assert!(sift_detect_and_compute(&img, &p).is_err());
    }

    #[test]
    fn higher_contrast_threshold_prunes() {
        let img = corner_card();
        let lo = SiftParams { contrast_threshold: 0.01, ..Default::default() };
        let hi = SiftParams { contrast_threshold: 0.2, ..Default::default() };
        let (k_lo, _) = sift_detect_and_compute(&img, &lo).unwrap();
        let (k_hi, _) = sift_detect_and_compute(&img, &hi).unwrap();
        assert!(k_lo.len() >= k_hi.len());
    }

    #[test]
    fn deterministic() {
        let img = corner_card();
        let (k1, d1) = sift_detect_and_compute(&img, &SiftParams::default()).unwrap();
        let (k2, d2) = sift_detect_and_compute(&img, &SiftParams::default()).unwrap();
        assert_eq!(k1.len(), k2.len());
        assert_eq!(d1, d2);
    }

    #[test]
    fn translated_image_matches_itself() {
        use crate::matcher::{knn_match_float, ratio_test_matches};
        let a = corner_card();
        // Translate by cropping two overlapping windows.
        let big = {
            use taor_imgproc::draw::Canvas;
            let mut c = Canvas::new(160, 160, [20, 20, 20]);
            fill_rot_rect(&mut c, 70.0, 66.0, 44.0, 30.0, 0.4, [230, 230, 230]);
            fill_ellipse(&mut c, 50.0, 116.0, 11.0, 7.0, [200, 200, 200]);
            taor_imgproc::color::rgb_to_gray(c.image())
        };
        let w1 = big.crop(taor_imgproc::Rect::new(0, 0, 128, 128)).unwrap();
        let w2 = big.crop(taor_imgproc::Rect::new(12, 12, 128, 128)).unwrap();
        let p = SiftParams::default();
        let (_, d1) = sift_detect_and_compute(&w1, &p).unwrap();
        let (_, d2) = sift_detect_and_compute(&w2, &p).unwrap();
        let _ = a;
        if d1.is_empty() || d2.is_empty() {
            panic!("expected features in both windows");
        }
        let m = knn_match_float(&d1, &d2).unwrap();
        let good = ratio_test_matches(&m, 0.75);
        assert!(
            !good.is_empty(),
            "translated views of the same scene should produce ratio-test survivors"
        );
    }
}
