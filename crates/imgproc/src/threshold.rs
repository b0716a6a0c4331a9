// taor-lint: allow(panic::index) — dense numeric kernel: indices are derived from dimensions validated at the public boundary and bounded by the enclosing loops.
//! Global binary thresholding.
//!
//! Steps (i) and (ii) of the paper's preprocessing: "converted to
//! grayscale, (ii) applied global binary thresholding (or its inverse,
//! depending on whether the input background was black or white
//! respectively)". Both happen in one pass from RGB to the mask.

use crate::color::luma_sum;
use crate::image::{GrayImage, RgbImage};

/// `dst = 255 if luma(src) > thresh else 0`: OpenCV's BT.601
/// `cvtColor(BGR2GRAY)` followed by `THRESH_BINARY`.
pub fn threshold_luma(img: &RgbImage, thresh: u8) -> GrayImage {
    luma_mask(img, thresh, 255, 0)
}

/// `dst = 0 if luma(src) > thresh else 255` (`THRESH_BINARY_INV`).
pub fn threshold_luma_inv(img: &RgbImage, thresh: u8) -> GrayImage {
    luma_mask(img, thresh, 0, 255)
}

/// `above` where the pixel's luma exceeds `thresh`, else `below`.
///
/// [`crate::color::luma`] rounds half away from zero and its sum is never
/// negative, so `luma > t` ⟺ `round(sum) ≥ t + 1` ⟺ `sum ≥ t + 0.5`. The
/// test compares the same `f32` sum against `t + 0.5` (exact in `f32`)
/// and needs no rounding call and no intermediate grey image.
fn luma_mask(img: &RgbImage, thresh: u8, above: u8, below: u8) -> GrayImage {
    let cut = f32::from(thresh) + 0.5;
    let mut mask = GrayImage::new(img.width(), img.height());
    for (m, px) in mask.as_raw_mut().iter_mut().zip(img.as_raw().chunks_exact(3)) {
        *m = if luma_sum(px[0], px[1], px[2]) >= cut { above } else { below };
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::luma;

    /// A one-row grey ramp, as RGB with r = g = b (`luma(v, v, v) == v`).
    fn gradient_image() -> RgbImage {
        let mut img = RgbImage::new(16, 1);
        for x in 0..16 {
            let v = (x * 16) as u8;
            img.put_pixel(x, 0, [v, v, v]);
        }
        img
    }

    #[test]
    fn binary_threshold_splits_at_value() {
        let img = gradient_image();
        let bin = threshold_luma(&img, 100);
        for x in 0..16 {
            let expected = if x * 16 > 100 { 255 } else { 0 };
            assert_eq!(bin.get(x, 0), expected, "x={x}");
        }
    }

    #[test]
    fn inverse_is_complement() {
        let img = gradient_image();
        let a = threshold_luma(&img, 80);
        let b = threshold_luma_inv(&img, 80);
        for x in 0..16 {
            assert_eq!(a.get(x, 0) ^ b.get(x, 0), 255);
        }
    }

    #[test]
    fn threshold_boundary_is_strict_greater() {
        let img = RgbImage::filled(2, 2, [100, 100, 100]);
        assert_eq!(threshold_luma(&img, 100).get(0, 0), 0);
        assert_eq!(threshold_luma(&img, 99).get(0, 0), 255);
    }

    #[test]
    fn grey_triples_have_their_own_luma() {
        for v in 0..=255u8 {
            assert_eq!(luma(v, v, v), v);
        }
    }

    #[test]
    fn one_pass_threshold_matches_rounded_luma_on_every_triple() {
        // All 2^24 triples, one 256x256 (g, b) plane per red value, at the
        // thresholds the pipelines use (10, 245, 250) and at the extremes.
        let mut plane = RgbImage::new(256, 256);
        for t in [0u8, 10, 128, 245, 250, 254, 255] {
            for r in 0..=255u8 {
                for (i, px) in plane.as_raw_mut().chunks_exact_mut(3).enumerate() {
                    px.copy_from_slice(&[r, (i % 256) as u8, (i / 256) as u8]);
                }
                let bin = threshold_luma(&plane, t);
                let inv = threshold_luma_inv(&plane, t);
                for ((px, &a), &b) in
                    plane.as_raw().chunks_exact(3).zip(bin.as_raw()).zip(inv.as_raw())
                {
                    let above = luma(px[0], px[1], px[2]) > t;
                    assert_eq!(a, if above { 255 } else { 0 }, "t={t} px={px:?}");
                    assert_eq!(b, 255 - a, "t={t} px={px:?}");
                }
            }
        }
    }
}
