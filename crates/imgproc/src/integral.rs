// taor-lint: allow(panic::index) — dense numeric kernel: indices are derived from dimensions validated at the public boundary and bounded by the enclosing loops.
//! Integral images (summed-area tables).
//!
//! SURF's box filters evaluate Hessian responses in constant time per
//! pixel via integral images — the key trick that made it "a more scalable
//! alternative to SIFT" (paper §3.3).

use crate::image::GrayImage;

/// Summed-area table: `sum(x, y)` holds the sum of all pixels in the
/// rectangle `[0, x) × [0, y)`, so the table is `(w+1) × (h+1)`.
#[derive(Debug, Clone)]
pub struct IntegralImage {
    width: u32,
    height: u32,
    /// Row-major `(w+1) × (h+1)` prefix sums.
    sums: Vec<f64>,
}

impl IntegralImage {
    /// Build from an 8-bit grayscale image.
    pub fn from_gray(img: &GrayImage) -> Self {
        let (width, height) = img.dimensions();
        let w1 = width as usize + 1;
        let h1 = height as usize + 1;
        let mut sums = vec![0.0f64; w1 * h1];
        for y in 0..height as usize {
            let mut row_acc = 0.0;
            for x in 0..width as usize {
                row_acc += img.get(x as u32, y as u32) as f64;
                sums[(y + 1) * w1 + (x + 1)] = sums[y * w1 + (x + 1)] + row_acc;
            }
        }
        IntegralImage { width, height, sums }
    }

    /// Source image width.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Source image height.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Sum over the axis-aligned box with top-left `(x, y)` and size
    /// `w × h`. Boxes are clipped to the image, so out-of-range queries are
    /// safe (SURF samples filters that overhang the border).
    pub fn box_sum(&self, x: i64, y: i64, w: i64, h: i64) -> f64 {
        if w <= 0 || h <= 0 {
            return 0.0;
        }
        let x0 = x.clamp(0, self.width as i64) as usize;
        let y0 = y.clamp(0, self.height as i64) as usize;
        let x1 = (x + w).clamp(0, self.width as i64) as usize;
        let y1 = (y + h).clamp(0, self.height as i64) as usize;
        if x1 <= x0 || y1 <= y0 {
            return 0.0;
        }
        let w1 = self.width as usize + 1;
        self.sums[y1 * w1 + x1] - self.sums[y0 * w1 + x1] - self.sums[y1 * w1 + x0]
            + self.sums[y0 * w1 + x0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counting_image(w: u32, h: u32) -> GrayImage {
        let mut img = GrayImage::new(w, h);
        for y in 0..h {
            for x in 0..w {
                img.put(x, y, ((x + y * w) % 251) as u8);
            }
        }
        img
    }

    fn brute_sum(img: &GrayImage, x: i64, y: i64, w: i64, h: i64) -> f64 {
        let mut acc = 0.0;
        for yy in y.max(0)..(y + h).min(img.height() as i64) {
            for xx in x.max(0)..(x + w).min(img.width() as i64) {
                acc += img.get(xx as u32, yy as u32) as f64;
            }
        }
        acc
    }

    #[test]
    fn matches_brute_force() {
        let img = counting_image(13, 9);
        let ii = IntegralImage::from_gray(&img);
        for &(x, y, w, h) in &[(0i64, 0i64, 13i64, 9i64), (2, 3, 4, 5), (5, 5, 1, 1), (12, 8, 1, 1)]
        {
            assert_eq!(ii.box_sum(x, y, w, h), brute_sum(&img, x, y, w, h));
        }
    }

    #[test]
    fn clips_out_of_range_queries() {
        let img = counting_image(8, 8);
        let ii = IntegralImage::from_gray(&img);
        assert_eq!(ii.box_sum(-3, -3, 5, 5), brute_sum(&img, -3, -3, 5, 5));
        assert_eq!(ii.box_sum(6, 6, 10, 10), brute_sum(&img, 6, 6, 10, 10));
        assert_eq!(ii.box_sum(100, 100, 5, 5), 0.0);
    }

    #[test]
    fn degenerate_boxes_are_zero() {
        let ii = IntegralImage::from_gray(&counting_image(4, 4));
        assert_eq!(ii.box_sum(1, 1, 0, 3), 0.0);
        assert_eq!(ii.box_sum(1, 1, 3, -1), 0.0);
    }
}
