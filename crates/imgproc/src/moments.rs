// taor-lint: allow(panic::index) — dense numeric kernel: indices are derived from dimensions validated at the public boundary and bounded by the enclosing loops.
//! Image and contour moments, Hu invariants, and `matchShapes`.
//!
//! The shape-only pipeline of the paper matches contours "through the
//! OpenCV built-in similarity function based on Hu moments \[15\], i.e.
//! moments invariant to translation, rotation and scale", with "distance
//! metric between image moments set to be the L1, L2, or L3 norm". Those
//! are OpenCV's `CONTOURS_MATCH_I1/I2/I3` modes, reproduced here bit-for-
//! bit from the published formulas (Hu 1962; OpenCV `matchShapes`).

use crate::contour::Contour;
use crate::image::GrayImage;

/// Raw, central and normalised-central moments up to order three.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Moments {
    // Raw spatial moments.
    pub m00: f64,
    pub m10: f64,
    pub m01: f64,
    pub m20: f64,
    pub m11: f64,
    pub m02: f64,
    pub m30: f64,
    pub m21: f64,
    pub m12: f64,
    pub m03: f64,
    // Central moments.
    pub mu20: f64,
    pub mu11: f64,
    pub mu02: f64,
    pub mu30: f64,
    pub mu21: f64,
    pub mu12: f64,
    pub mu03: f64,
    // Normalised central moments.
    pub nu20: f64,
    pub nu11: f64,
    pub nu02: f64,
    pub nu30: f64,
    pub nu21: f64,
    pub nu12: f64,
    pub nu03: f64,
}

/// The seven Hu invariants.
pub type HuMoments = [f64; 7];

impl Moments {
    /// Fill central and normalised moments from the raw ones.
    fn complete(&mut self) {
        if self.m00.abs() < f64::EPSILON {
            return;
        }
        let cx = self.m10 / self.m00;
        let cy = self.m01 / self.m00;

        self.mu20 = self.m20 - self.m10 * cx;
        self.mu11 = self.m11 - self.m10 * cy;
        self.mu02 = self.m02 - self.m01 * cy;
        self.mu30 = self.m30 - cx * (3.0 * self.mu20 + cx * self.m10);
        self.mu21 = self.m21 - cx * (2.0 * self.mu11 + cx * self.m01) - cy * self.mu20;
        self.mu12 = self.m12 - cy * (2.0 * self.mu11 + cy * self.m10) - cx * self.mu02;
        self.mu03 = self.m03 - cy * (3.0 * self.mu02 + cy * self.m01);

        // nu_pq = mu_pq / m00^((p+q)/2 + 1): exponent 2 for order-2, 2.5 for order-3.
        let inv_m00 = 1.0 / self.m00.abs();
        let n2 = inv_m00 * inv_m00;
        let n3 = n2 * inv_m00.sqrt();

        self.nu20 = self.mu20 * n2;
        self.nu11 = self.mu11 * n2;
        self.nu02 = self.mu02 * n2;
        self.nu30 = self.mu30 * n3;
        self.nu21 = self.mu21 * n3;
        self.nu12 = self.mu12 * n3;
        self.nu03 = self.mu03 * n3;
    }
}

/// Raster moments of a grayscale image. With `binary = true` every non-zero
/// pixel counts as 1 (OpenCV's `binaryImage` flag); otherwise pixels are
/// intensity-weighted.
pub fn moments(img: &GrayImage, binary: bool) -> Moments {
    let mut m = Moments::default();
    for (x, y, [v]) in img.enumerate_pixels() {
        if v == 0 {
            continue;
        }
        let w = if binary { 1.0 } else { v as f64 };
        let xf = x as f64;
        let yf = y as f64;
        m.m00 += w;
        m.m10 += w * xf;
        m.m01 += w * yf;
        m.m20 += w * xf * xf;
        m.m11 += w * xf * yf;
        m.m02 += w * yf * yf;
        m.m30 += w * xf * xf * xf;
        m.m21 += w * xf * xf * yf;
        m.m12 += w * xf * yf * yf;
        m.m03 += w * yf * yf * yf;
    }
    m.complete();
    m
}

/// Exact polygon moments of a closed contour (Green's theorem), following
/// OpenCV's `contourMoments`.
pub fn moments_of_contour(contour: &Contour) -> Moments {
    let pts = &contour.points;
    let mut m = Moments::default();
    if pts.len() < 3 {
        return m;
    }
    let (mut a00, mut a10, mut a01) = (0.0f64, 0.0, 0.0);
    let (mut a20, mut a11, mut a02) = (0.0f64, 0.0, 0.0);
    let (mut a30, mut a21, mut a12, mut a03) = (0.0f64, 0.0, 0.0, 0.0);

    let n = pts.len();
    for i in 0..n {
        let p = pts[i];
        let q = pts[(i + 1) % n];
        let (xi_1, yi_1) = (p.x as f64, p.y as f64);
        let (xi, yi) = (q.x as f64, q.y as f64);
        let xi2 = xi * xi;
        let yi2 = yi * yi;
        let xi_12 = xi_1 * xi_1;
        let yi_12 = yi_1 * yi_1;
        let dxy = xi_1 * yi - xi * yi_1;
        let xii_1 = xi_1 + xi;
        let yii_1 = yi_1 + yi;

        a00 += dxy;
        a10 += dxy * xii_1;
        a01 += dxy * yii_1;
        a20 += dxy * (xi_1 * xii_1 + xi2);
        a11 += dxy * (xi_1 * (yii_1 + yi_1) + xi * (yii_1 + yi));
        a02 += dxy * (yi_1 * yii_1 + yi2);
        a30 += dxy * xii_1 * (xi_12 + xi2);
        a03 += dxy * yii_1 * (yi_12 + yi2);
        a21 +=
            dxy * (xi_12 * (3.0 * yi_1 + yi) + 2.0 * xi * xi_1 * yii_1 + xi2 * (yi_1 + 3.0 * yi));
        a12 +=
            dxy * (yi_12 * (3.0 * xi_1 + xi) + 2.0 * yi * yi_1 * xii_1 + yi2 * (xi_1 + 3.0 * xi));
    }

    if a00.abs() < f64::EPSILON {
        return m;
    }
    let sign = if a00 > 0.0 { 1.0 } else { -1.0 };
    let db1_2 = 0.5 * sign;
    let db1_6 = sign / 6.0;
    let db1_12 = sign / 12.0;
    let db1_24 = sign / 24.0;
    let db1_20 = sign / 20.0;
    let db1_60 = sign / 60.0;

    m.m00 = a00 * db1_2;
    m.m10 = a10 * db1_6;
    m.m01 = a01 * db1_6;
    m.m20 = a20 * db1_12;
    m.m11 = a11 * db1_24;
    m.m02 = a02 * db1_12;
    m.m30 = a30 * db1_20;
    m.m21 = a21 * db1_60;
    m.m12 = a12 * db1_60;
    m.m03 = a03 * db1_20;
    m.complete();
    m
}

/// The seven Hu moment invariants (Hu 1962), invariant to translation,
/// scale and rotation (the 7th flips sign under reflection).
///
/// ```
/// use taor_imgproc::prelude::*;
///
/// let mut img = GrayImage::new(16, 16);
/// for y in 4..12 { for x in 4..10 { img.put(x, y, 255); } }
/// let hu = hu_moments(&moments(&img, true));
/// assert!(hu[0] > 0.0);
/// // A translated copy has identical invariants.
/// let mut moved = GrayImage::new(16, 16);
/// for y in 6..14 { for x in 8..14 { moved.put(x, y, 255); } }
/// let hu2 = hu_moments(&moments(&moved, true));
/// assert!((hu[0] - hu2[0]).abs() < 1e-9);
/// ```
pub fn hu_moments(m: &Moments) -> HuMoments {
    let (n20, n11, n02) = (m.nu20, m.nu11, m.nu02);
    let (n30, n21, n12, n03) = (m.nu30, m.nu21, m.nu12, m.nu03);

    let t0 = n30 + n12;
    let t1 = n21 + n03;
    let q0 = t0 * t0;
    let q1 = t1 * t1;
    let s0 = n30 - 3.0 * n12;
    let s1 = 3.0 * n21 - n03;

    [
        n20 + n02,
        (n20 - n02).powi(2) + 4.0 * n11 * n11,
        s0 * s0 + s1 * s1,
        q0 + q1,
        s0 * t0 * (q0 - 3.0 * q1) + s1 * t1 * (3.0 * q0 - q1),
        (n20 - n02) * (q0 - q1) + 4.0 * n11 * t0 * t1,
        s1 * t0 * (q0 - 3.0 * q1) - s0 * t1 * (3.0 * q0 - q1),
    ]
}

/// Distance mode for [`match_shapes`], mirroring OpenCV's
/// `CONTOURS_MATCH_I1/I2/I3`. The paper refers to these as the L1, L2 and
/// L3 norms between image moments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatchShapesMode {
    /// `Σ |1/mᴬᵢ − 1/mᴮᵢ|`
    I1,
    /// `Σ |mᴬᵢ − mᴮᵢ|`
    I2,
    /// `maxᵢ |mᴬᵢ − mᴮᵢ| / |mᴬᵢ|`
    I3,
}

/// The log-signed Hu invariants `mᵢ = sign(hᵢ)·log₁₀|hᵢ|` that
/// [`match_shapes`] compares. Each side's seven logs depend on that side
/// only, so a shape is transformed once (`taor-core` does it in
/// `preprocess`) and every pair it takes part in reads the cached values.
///
/// A component with `|hᵢ| ≤ f64::MIN_POSITIVE` (or a NaN invariant) is
/// numerically zero and not comparable; it is held as NaN, which no
/// comparable invariant logs to (`±∞` logs to `±∞`).
#[derive(Debug, Clone, Copy)]
pub struct LogHu([f64; 7]);

impl LogHu {
    /// Transform the seven invariants of one shape.
    pub fn new(hu: &HuMoments) -> Self {
        LogHu(hu.map(|h| {
            if h.abs() > f64::MIN_POSITIVE {
                h.signum() * h.abs().log10()
            } else {
                f64::NAN
            }
        }))
    }
}

/// Hu-moment shape distance between two sets of log-signed invariants.
/// Lower is more similar; identical shapes score 0.
///
/// Components where either invariant is (numerically) zero are skipped,
/// as in OpenCV. Unlike OpenCV, when *no* component is comparable — e.g.
/// one side is the all-zero vector of a degenerate/empty contour — the
/// distance is `+∞` rather than 0: an empty shape matches nothing, and
/// returning 0 would make degenerate references universal attractors in
/// argmin classification. Once the distance reaches `+∞` it stays there:
/// a later `∞ − ∞` term (two unit invariants under I1) does not turn it
/// into NaN.
pub fn match_shapes(a: &LogHu, b: &LogHu, mode: MatchShapesMode) -> f64 {
    let mut acc = 0.0f64;
    let mut compared = false;
    for (&ma, &mb) in a.0.iter().zip(&b.0) {
        if ma.is_nan() || mb.is_nan() {
            continue;
        }
        compared = true;
        match mode {
            MatchShapesMode::I1 => acc += (1.0 / ma - 1.0 / mb).abs(),
            MatchShapesMode::I2 => acc += (ma - mb).abs(),
            MatchShapesMode::I3 => {
                let d = (ma - mb).abs() / ma.abs();
                if d > acc {
                    acc = d;
                }
            }
        }
        if acc == f64::INFINITY {
            return acc;
        }
    }
    if compared {
        acc
    } else {
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contour::{find_contours, Point};

    fn rect_image(x0: u32, y0: u32, w: u32, h: u32, canvas: u32) -> GrayImage {
        let mut img = GrayImage::new(canvas, canvas);
        for y in y0..y0 + h {
            for x in x0..x0 + w {
                img.put(x, y, 255);
            }
        }
        img
    }

    #[test]
    fn raster_moments_of_rect() {
        let img = rect_image(2, 3, 4, 2, 16);
        let m = moments(&img, true);
        assert_eq!(m.m00, 8.0);
        // x over {2,3,4,5}, mean 3.5; y over {3,4}, mean 3.5.
        assert!((m.m10 / m.m00 - 3.5).abs() < 1e-12);
        assert!((m.m01 / m.m00 - 3.5).abs() < 1e-12);
    }

    #[test]
    fn intensity_weighting_differs_from_binary() {
        let mut img = GrayImage::new(4, 1);
        img.put(0, 0, 10);
        img.put(3, 0, 250);
        let mb = moments(&img, true);
        let mi = moments(&img, false);
        assert_eq!(mb.m10 / mb.m00, 1.5);
        assert!(mi.m10 / mi.m00 > 2.5, "intensity centroid pulled to bright pixel");
    }

    #[test]
    fn contour_moments_match_shoelace_area() {
        let img = rect_image(3, 3, 7, 5, 20);
        let contours = find_contours(&img);
        let m = moments_of_contour(&contours[0]);
        assert!((m.m00 - contours[0].area()).abs() < 1e-9);
    }

    #[test]
    fn empty_contour_moments_are_zero() {
        let c = Contour { points: vec![Point::new(1, 1)] };
        let m = moments_of_contour(&c);
        assert_eq!(m.m00, 0.0);
        assert_eq!(hu_moments(&m), [0.0; 7]);
    }

    #[test]
    fn hu_translation_invariance() {
        let a = moments(&rect_image(1, 1, 6, 3, 24), true);
        let b = moments(&rect_image(12, 15, 6, 3, 24), true);
        let ha = hu_moments(&a);
        let hb = hu_moments(&b);
        for i in 0..7 {
            assert!((ha[i] - hb[i]).abs() < 1e-12, "hu[{i}]: {} vs {}", ha[i], hb[i]);
        }
    }

    #[test]
    fn hu_scale_invariance() {
        let a = moments(&rect_image(2, 2, 8, 4, 64), true);
        let b = moments(&rect_image(2, 2, 32, 16, 64), true);
        let ha = hu_moments(&a);
        let hb = hu_moments(&b);
        // Discrete rasters are only approximately scale-invariant (the
        // variance of x over {0..w-1} is (w²−1)/12, not w²/12), so allow a
        // few percent on the first invariant.
        assert!((ha[0] - hb[0]).abs() / ha[0].abs() < 0.07);
        assert!(match_shapes(&LogHu::new(&ha), &LogHu::new(&hb), MatchShapesMode::I2) < 0.5);
    }

    #[test]
    fn hu_rotation_90_invariance() {
        let a = moments(&rect_image(4, 4, 10, 4, 32), true);
        let b = moments(&rect_image(4, 4, 4, 10, 32), true);
        let ha = hu_moments(&a);
        let hb = hu_moments(&b);
        for i in 0..6 {
            assert!(
                (ha[i] - hb[i]).abs() < 1e-10,
                "hu[{i}] not 90°-rotation invariant: {} vs {}",
                ha[i],
                hb[i]
            );
        }
    }

    #[test]
    fn match_shapes_identity_is_zero() {
        let img = rect_image(3, 3, 8, 5, 20);
        let hu = LogHu::new(&hu_moments(&moments(&img, true)));
        for mode in [MatchShapesMode::I1, MatchShapesMode::I2, MatchShapesMode::I3] {
            assert_eq!(match_shapes(&hu, &hu, mode), 0.0);
        }
    }

    #[test]
    fn match_shapes_discriminates_rect_from_bar() {
        let log_hu = |img: &GrayImage| LogHu::new(&hu_moments(&moments(img, true)));
        let square = log_hu(&rect_image(4, 4, 8, 8, 32));
        let square2 = log_hu(&rect_image(10, 10, 12, 12, 32));
        let bar = log_hu(&rect_image(4, 4, 24, 2, 32));
        for mode in [MatchShapesMode::I1, MatchShapesMode::I2, MatchShapesMode::I3] {
            let near = match_shapes(&square, &square2, mode);
            let far = match_shapes(&square, &bar, mode);
            assert!(near < far, "{mode:?}: near {near} !< far {far}");
        }
    }

    #[test]
    fn match_shapes_degenerate_is_infinite() {
        // An all-zero Hu vector (empty contour) must match nothing,
        // never everything.
        let zeroish = LogHu::new(&[0.0; 7]);
        let img = rect_image(3, 3, 8, 5, 20);
        let hu = LogHu::new(&hu_moments(&moments(&img, true)));
        for mode in [MatchShapesMode::I1, MatchShapesMode::I2, MatchShapesMode::I3] {
            assert_eq!(match_shapes(&zeroish, &hu, mode), f64::INFINITY);
            assert_eq!(match_shapes(&zeroish, &zeroish, mode), f64::INFINITY);
        }
    }
}
