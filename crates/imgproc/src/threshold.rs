// taor-lint: allow(panic::index) — dense numeric kernel: indices are derived from dimensions validated at the public boundary and bounded by the enclosing loops.
//! Global binary thresholding.
//!
//! Step (ii) of the paper's preprocessing: "applied global binary
//! thresholding (or its inverse, depending on whether the input background
//! was black or white respectively)". Also provides Otsu's method for the
//! automatic threshold used when the input illumination varies (our NYU
//! stand-in applies lighting gain).

use crate::image::GrayImage;

/// `dst = 255 if src > thresh else 0` (OpenCV `THRESH_BINARY`).
pub fn threshold_binary(img: &GrayImage, thresh: u8) -> GrayImage {
    img.map(|v| if v > thresh { 255 } else { 0 })
}

/// `dst = 0 if src > thresh else 255` (OpenCV `THRESH_BINARY_INV`).
pub fn threshold_binary_inv(img: &GrayImage, thresh: u8) -> GrayImage {
    img.map(|v| if v > thresh { 0 } else { 255 })
}

/// Otsu's automatic threshold: maximises between-class variance of the
/// grayscale histogram. Returns the threshold value; apply with
/// [`threshold_binary`] / [`threshold_binary_inv`].
pub fn otsu_threshold(img: &GrayImage) -> u8 {
    let mut hist = [0u64; 256];
    for &v in img.as_raw() {
        hist[v as usize] += 1;
    }
    let total = img.as_raw().len() as f64;
    let sum_all: f64 = hist.iter().enumerate().map(|(i, &c)| i as f64 * c as f64).sum();

    let mut sum_bg = 0.0;
    let mut weight_bg = 0.0;
    let mut best_t = 0u8;
    let mut best_var = -1.0;
    for (t, &count) in hist.iter().enumerate() {
        weight_bg += count as f64;
        // taor-lint: allow(float::eq) — integer histogram counts summed in f64 are exact
        if weight_bg == 0.0 {
            continue;
        }
        let weight_fg = total - weight_bg;
        // taor-lint: allow(float::eq) — integer histogram counts summed in f64 are exact
        if weight_fg == 0.0 {
            break;
        }
        sum_bg += t as f64 * count as f64;
        let mean_bg = sum_bg / weight_bg;
        let mean_fg = (sum_all - sum_bg) / weight_fg;
        let var = weight_bg * weight_fg * (mean_bg - mean_fg).powi(2);
        if var > best_var {
            best_var = var;
            best_t = t as u8;
        }
    }
    best_t
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
    fn otsu_separates_bimodal() {
        // Half dark (around 40), half bright (around 210).
        let mut img = GrayImage::new(10, 10);
        for y in 0..10 {
            for x in 0..10 {
                img.put(x, y, if y < 5 { 40 + x as u8 } else { 200 + x as u8 });
            }
        }
        let t = otsu_threshold(&img);
        // The dark mode spans 40..=49, the bright one 200..=209; any
        // threshold in [49, 199] separates them under the strict-greater
        // binarisation rule.
        assert!((49..200).contains(&(t as usize)), "otsu threshold {t} should split the modes");
        let bin = threshold_binary(&img, t);
        assert_eq!(bin.get(0, 0), 0);
        assert_eq!(bin.get(0, 9), 255);
    }

    #[test]
    fn otsu_on_constant_image_does_not_panic() {
        let img = GrayImage::filled(4, 4, [128]);
        let _ = otsu_threshold(&img);
    }

    #[test]
    fn threshold_boundary_is_strict_greater() {
        let img = GrayImage::filled(2, 2, [100]);
        assert_eq!(threshold_binary(&img, 100).get(0, 0), 0);
        assert_eq!(threshold_binary(&img, 99).get(0, 0), 255);
    }
}
