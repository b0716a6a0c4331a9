// taor-lint: allow(panic::index) — dense numeric kernel: indices are derived from dimensions validated at the public boundary and bounded by the enclosing loops.
//! Global binary thresholding.
//!
//! Step (ii) of the paper's preprocessing: "applied global binary
//! thresholding (or its inverse, depending on whether the input background
//! was black or white respectively)".

use crate::image::GrayImage;

/// `dst = 255 if src > thresh else 0` (OpenCV `THRESH_BINARY`).
pub fn threshold_binary(img: &GrayImage, thresh: u8) -> GrayImage {
    img.map(|v| if v > thresh { 255 } else { 0 })
}

/// `dst = 0 if src > thresh else 255` (OpenCV `THRESH_BINARY_INV`).
pub fn threshold_binary_inv(img: &GrayImage, thresh: u8) -> GrayImage {
    img.map(|v| if v > thresh { 0 } else { 255 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient_image() -> GrayImage {
        let mut img = GrayImage::new(16, 1);
        for x in 0..16 {
            img.put(x, 0, (x * 16) as u8);
        }
        img
    }

    #[test]
    fn binary_threshold_splits_at_value() {
        let img = gradient_image();
        let bin = threshold_binary(&img, 100);
        for x in 0..16 {
            let expected = if x * 16 > 100 { 255 } else { 0 };
            assert_eq!(bin.get(x, 0), expected, "x={x}");
        }
    }

    #[test]
    fn inverse_is_complement() {
        let img = gradient_image();
        let a = threshold_binary(&img, 80);
        let b = threshold_binary_inv(&img, 80);
        for x in 0..16 {
            assert_eq!(a.get(x, 0) ^ b.get(x, 0), 255);
        }
    }

    #[test]
    fn threshold_boundary_is_strict_greater() {
        let img = GrayImage::filled(2, 2, [100]);
        assert_eq!(threshold_binary(&img, 100).get(0, 0), 0);
        assert_eq!(threshold_binary(&img, 99).get(0, 0), 255);
    }
}
