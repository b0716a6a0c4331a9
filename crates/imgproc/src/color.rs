//! Colour-space conversion.
//!
//! The paper's preprocessing step (i) "converted to grayscale"; OpenCV's
//! `cvtColor(BGR2GRAY)` uses the ITU-R BT.601 luma weights, reproduced here.

use crate::image::{GrayImage, RgbImage};

/// A pixel in HSV space: `h` in degrees `[0, 360)`, `s`/`v` in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hsv {
    pub h: f32,
    pub s: f32,
    pub v: f32,
}

/// Luma of one RGB triple (ITU-R BT.601: 0.299 R + 0.587 G + 0.114 B).
#[inline]
pub fn luma(r: u8, g: u8, b: u8) -> u8 {
    luma_sum(r, g, b).round() as u8
}

/// The unrounded BT.601 weighted sum behind [`luma`]. Thresholding
/// compares this sum directly (see [`crate::threshold`]), so both must
/// evaluate the same `f32` expression.
#[inline]
pub(crate) fn luma_sum(r: u8, g: u8, b: u8) -> f32 {
    0.299 * r as f32 + 0.587 * g as f32 + 0.114 * b as f32
}

/// Convert an RGB image to grayscale with BT.601 weights.
pub fn rgb_to_gray(img: &RgbImage) -> GrayImage {
    let mut out = GrayImage::new(img.width(), img.height());
    for (x, y, [r, g, b]) in img.enumerate_pixels() {
        out.put(x, y, luma(r, g, b));
    }
    out
}

/// Convert one RGB triple to HSV.
pub fn pixel_to_hsv(r: u8, g: u8, b: u8) -> Hsv {
    let rf = r as f32 / 255.0;
    let gf = g as f32 / 255.0;
    let bf = b as f32 / 255.0;
    let max = rf.max(gf).max(bf);
    let min = rf.min(gf).min(bf);
    let delta = max - min;
    // taor-lint: allow(float::eq) — exact achromatic guard: delta is max-min of the same three values
    let h = if delta == 0.0 {
        0.0
    } else if max == rf {
        60.0 * (((gf - bf) / delta).rem_euclid(6.0))
    } else if max == gf {
        60.0 * ((bf - rf) / delta + 2.0)
    } else {
        60.0 * ((rf - gf) / delta + 4.0)
    };
    let s = if max == 0.0 { 0.0 } else { delta / max }; // taor-lint: allow(float::eq) — exact black guard protecting the division
    Hsv { h, s, v: max }
}

/// Convert one HSV value back to an RGB triple.
pub fn hsv_to_pixel(hsv: Hsv) -> [u8; 3] {
    let c = hsv.v * hsv.s;
    let hp = (hsv.h.rem_euclid(360.0)) / 60.0;
    let x = c * (1.0 - (hp % 2.0 - 1.0).abs());
    let (r1, g1, b1) = match hp as u32 {
        0 => (c, x, 0.0),
        1 => (x, c, 0.0),
        2 => (0.0, c, x),
        3 => (0.0, x, c),
        4 => (x, 0.0, c),
        _ => (c, 0.0, x),
    };
    let m = hsv.v - c;
    [
        ((r1 + m) * 255.0).round().clamp(0.0, 255.0) as u8,
        ((g1 + m) * 255.0).round().clamp(0.0, 255.0) as u8,
        ((b1 + m) * 255.0).round().clamp(0.0, 255.0) as u8,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn luma_of_primaries() {
        assert_eq!(luma(255, 255, 255), 255);
        assert_eq!(luma(0, 0, 0), 0);
        assert_eq!(luma(255, 0, 0), 76);
        assert_eq!(luma(0, 255, 0), 150);
        assert_eq!(luma(0, 0, 255), 29);
    }

    #[test]
    fn gray_conversion_shape_preserved() {
        let img = RgbImage::filled(5, 4, [10, 20, 30]);
        let g = rgb_to_gray(&img);
        assert_eq!(g.dimensions(), (5, 4));
        let expected = luma(10, 20, 30);
        assert!(g.as_raw().iter().all(|&v| v == expected));
    }

    #[test]
    fn hsv_primary_hues() {
        assert_eq!(pixel_to_hsv(255, 0, 0).h, 0.0);
        assert_eq!(pixel_to_hsv(0, 255, 0).h, 120.0);
        assert_eq!(pixel_to_hsv(0, 0, 255).h, 240.0);
    }

    #[test]
    fn hsv_gray_has_zero_saturation() {
        let hsv = pixel_to_hsv(128, 128, 128);
        assert_eq!(hsv.s, 0.0);
        assert!((hsv.v - 128.0 / 255.0).abs() < 1e-6);
    }

    #[test]
    fn hsv_roundtrip_is_lossless_enough() {
        for &(r, g, b) in &[(12u8, 200u8, 99u8), (255, 1, 77), (0, 0, 0), (250, 250, 250)] {
            let back = hsv_to_pixel(pixel_to_hsv(r, g, b));
            assert!((back[0] as i32 - r as i32).abs() <= 1, "{:?} vs {:?}", (r, g, b), back);
            assert!((back[1] as i32 - g as i32).abs() <= 1);
            assert!((back[2] as i32 - b as i32).abs() <= 1);
        }
    }
}
