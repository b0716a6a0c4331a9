// taor-lint: allow(panic::index) — dense numeric kernel: indices are derived from dimensions validated at the public boundary and bounded by the enclosing loops.
//! Minimal rasterisation used by the synthetic dataset renderer.
//!
//! The ShapeNet/NYU stand-in in `taor-data` draws each object class as a
//! composition of filled polygons and rectangles on a [`Canvas`].
//! Rasterisation is deliberately simple (no anti-aliasing): the paper's
//! pipelines all start by thresholding to a hard silhouette anyway.
//!
//! Every fill reduces to horizontal spans `x0..x1` on row `y`, which
//! [`Canvas`] clips to the canvas once and writes as one row slice: the
//! pixels set are exactly those of the span that lie on the canvas.

use crate::image::RgbImage;

/// A 2-D point in continuous canvas coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct P2 {
    pub x: f32,
    pub y: f32,
}

/// Shorthand constructor for [`P2`].
pub fn p2(x: f32, y: f32) -> P2 {
    P2 { x, y }
}

impl P2 {
    /// Rotate around `center` by `angle` radians (y-down screen coords).
    pub fn rotated(self, center: P2, angle: f32) -> P2 {
        let (s, c) = angle.sin_cos();
        let dx = self.x - center.x;
        let dy = self.y - center.y;
        P2 { x: center.x + dx * c - dy * s, y: center.y + dx * s + dy * c }
    }
}

/// An RGB drawing surface.
#[derive(Debug, Clone)]
pub struct Canvas {
    img: RgbImage,
}

impl Canvas {
    /// Create a canvas filled with `background`.
    pub fn new(width: u32, height: u32, background: [u8; 3]) -> Self {
        Canvas { img: RgbImage::filled(width, height, background) }
    }

    /// Continue drawing on an existing image.
    pub fn from_image(img: RgbImage) -> Self {
        Canvas { img }
    }

    /// Finish drawing, returning the image.
    pub fn into_image(self) -> RgbImage {
        self.img
    }

    /// Borrow the image being drawn.
    pub fn image(&self) -> &RgbImage {
        &self.img
    }

    /// Canvas width.
    pub fn width(&self) -> u32 {
        self.img.width()
    }

    /// Canvas height.
    pub fn height(&self) -> u32 {
        self.img.height()
    }

    /// Set pixels `x0..x1` of row `y` to `color`, dropping whatever lies
    /// off the canvas.
    #[inline]
    fn fill_span(&mut self, y: i64, x0: i64, x1: i64, color: [u8; 3]) {
        let (w, h) = (self.width() as i64, self.height() as i64);
        let (x0, x1) = (x0.max(0), x1.min(w));
        if !(0..h).contains(&y) || x0 >= x1 {
            return;
        }
        let row = y as usize * w as usize;
        let span = (row + x0 as usize) * 3..(row + x1 as usize) * 3;
        for px in self.img.as_raw_mut()[span].chunks_exact_mut(3) {
            px.copy_from_slice(&color);
        }
    }

    /// Fill an axis-aligned rectangle given top-left corner and size.
    pub fn fill_rect(&mut self, x: f32, y: f32, w: f32, h: f32, color: [u8; 3]) {
        let x0 = x.round() as i64;
        let y0 = y.round() as i64;
        let x1 = (x + w).round() as i64;
        let y1 = (y + h).round() as i64;
        for yy in y0.max(0)..y1.min(self.height() as i64) {
            self.fill_span(yy, x0, x1, color);
        }
    }

    /// Fill a simple polygon (even–odd rule, scanline algorithm). Works for
    /// convex and concave polygons; self-intersections follow even–odd.
    pub fn fill_polygon(&mut self, pts: &[P2], color: [u8; 3]) {
        if pts.len() < 3 {
            return;
        }
        let min_y = pts.iter().map(|p| p.y).fold(f32::INFINITY, f32::min).floor() as i64;
        let max_y = pts.iter().map(|p| p.y).fold(f32::NEG_INFINITY, f32::max).ceil() as i64;
        let mut xs: Vec<f32> = Vec::with_capacity(8);
        for yy in min_y.max(0)..=max_y.min(self.height() as i64 - 1) {
            let scan = yy as f32 + 0.5;
            xs.clear();
            for i in 0..pts.len() {
                let a = pts[i];
                let b = pts[(i + 1) % pts.len()];
                if (a.y <= scan && b.y > scan) || (b.y <= scan && a.y > scan) {
                    let t = (scan - a.y) / (b.y - a.y);
                    xs.push(a.x + t * (b.x - a.x));
                }
            }
            xs.sort_by(|p, q| crate::cmp::nan_last_f32(*p, *q));
            for pair in xs.chunks_exact(2) {
                self.fill_span(yy, pair[0].round() as i64, pair[1].round() as i64, color);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_color(img: &RgbImage, color: [u8; 3]) -> usize {
        img.as_raw().chunks_exact(3).filter(|px| *px == color).count()
    }

    #[test]
    fn fill_rect_covers_exact_pixels() {
        let mut c = Canvas::new(10, 10, [0, 0, 0]);
        c.fill_rect(2.0, 3.0, 4.0, 2.0, [255, 0, 0]);
        assert_eq!(count_color(c.image(), [255, 0, 0]), 8);
    }

    #[test]
    fn out_of_bounds_drawing_is_clipped() {
        let mut c = Canvas::new(5, 5, [0, 0, 0]);
        c.fill_rect(-10.0, -10.0, 100.0, 100.0, [1, 2, 3]);
        assert_eq!(count_color(c.image(), [1, 2, 3]), 25);
    }

    #[test]
    fn triangle_fill_plausible_area() {
        let mut c = Canvas::new(20, 20, [0, 0, 0]);
        c.fill_polygon(&[p2(0.0, 0.0), p2(16.0, 0.0), p2(0.0, 16.0)], [9, 9, 9]);
        let n = count_color(c.image(), [9, 9, 9]);
        // Ideal area 128; rasterisation within 20 %.
        assert!((n as f32 - 128.0).abs() < 26.0, "area {n}");
    }

    #[test]
    fn degenerate_polygon_draws_nothing() {
        let mut c = Canvas::new(8, 8, [0, 0, 0]);
        c.fill_polygon(&[p2(1.0, 1.0), p2(5.0, 5.0)], [9, 9, 9]);
        assert_eq!(count_color(c.image(), [9, 9, 9]), 0);
    }

    #[test]
    fn rotation_preserves_distance_from_center() {
        let c = p2(5.0, 5.0);
        let q = p2(9.0, 5.0).rotated(c, 1.234);
        let d = ((q.x - 5.0).powi(2) + (q.y - 5.0).powi(2)).sqrt();
        assert!((d - 4.0).abs() < 1e-5);
    }
}
