// taor-lint: allow(panic::index) — dense numeric kernel: indices are derived from dimensions validated at the public boundary and bounded by the enclosing loops.
//! Minimal rasterisation used by the synthetic dataset renderer.
//!
//! The ShapeNet/NYU stand-in in `taor-data` draws each object class as a
//! composition of filled polygons, ellipses and strokes on a [`Canvas`].
//! Rasterisation is deliberately simple (no anti-aliasing): the paper's
//! pipelines all start by thresholding to a hard silhouette anyway.

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

    /// Finish drawing, returning the image.
    pub fn into_image(self) -> RgbImage {
        self.img
    }

    /// Borrow the image being drawn.
    pub fn image(&self) -> &RgbImage {
        &self.img
    }

    /// Mutably borrow the image being drawn (e.g. to continue drawing on
    /// an existing image).
    pub fn image_mut(&mut self) -> &mut RgbImage {
        &mut self.img
    }

    /// Canvas width.
    pub fn width(&self) -> u32 {
        self.img.width()
    }

    /// Canvas height.
    pub fn height(&self) -> u32 {
        self.img.height()
    }

    /// Set one pixel, silently ignoring out-of-bounds coordinates.
    #[inline]
    pub fn plot(&mut self, x: i64, y: i64, color: [u8; 3]) {
        if self.img.in_bounds(x, y) {
            self.img.put_pixel(x as u32, y as u32, color);
        }
    }

    /// Fill an axis-aligned rectangle given top-left corner and size.
    pub fn fill_rect(&mut self, x: f32, y: f32, w: f32, h: f32, color: [u8; 3]) {
        let x0 = x.round() as i64;
        let y0 = y.round() as i64;
        let x1 = (x + w).round() as i64;
        let y1 = (y + h).round() as i64;
        for yy in y0..y1 {
            for xx in x0..x1 {
                self.plot(xx, yy, color);
            }
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
                let x0 = pair[0].round() as i64;
                let x1 = pair[1].round() as i64;
                for xx in x0..x1 {
                    self.plot(xx, yy, color);
                }
            }
        }
    }

    /// Fill an axis-aligned ellipse centred at `(cx, cy)`.
    pub fn fill_ellipse(&mut self, cx: f32, cy: f32, rx: f32, ry: f32, color: [u8; 3]) {
        if rx <= 0.0 || ry <= 0.0 {
            return;
        }
        let y0 = (cy - ry).floor() as i64;
        let y1 = (cy + ry).ceil() as i64;
        for yy in y0.max(0)..=y1.min(self.height() as i64 - 1) {
            let dy = (yy as f32 + 0.5 - cy) / ry;
            let rem = 1.0 - dy * dy;
            if rem <= 0.0 {
                continue;
            }
            let half = rx * rem.sqrt();
            let x0 = (cx - half).round() as i64;
            let x1 = (cx + half).round() as i64;
            for xx in x0..x1 {
                self.plot(xx, yy, color);
            }
        }
    }

    /// Fill a rotated rectangle: center `(cx, cy)`, size `w × h`, rotation
    /// `angle` radians.
    pub fn fill_rot_rect(&mut self, cx: f32, cy: f32, w: f32, h: f32, angle: f32, color: [u8; 3]) {
        let c = p2(cx, cy);
        let hw = w / 2.0;
        let hh = h / 2.0;
        let pts = [
            p2(cx - hw, cy - hh).rotated(c, angle),
            p2(cx + hw, cy - hh).rotated(c, angle),
            p2(cx + hw, cy + hh).rotated(c, angle),
            p2(cx - hw, cy + hh).rotated(c, angle),
        ];
        self.fill_polygon(&pts, color);
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
    fn ellipse_area_close_to_pi_ab() {
        let mut c = Canvas::new(40, 40, [0, 0, 0]);
        c.fill_ellipse(20.0, 20.0, 10.0, 6.0, [7, 7, 7]);
        let n = count_color(c.image(), [7, 7, 7]) as f32;
        let ideal = std::f32::consts::PI * 10.0 * 6.0;
        assert!((n - ideal).abs() / ideal < 0.15, "area {n} vs {ideal}");
    }

    #[test]
    fn rotated_rect_45_deg_has_same_area() {
        let mut c = Canvas::new(40, 40, [0, 0, 0]);
        c.fill_rot_rect(20.0, 20.0, 12.0, 8.0, std::f32::consts::FRAC_PI_4, [5, 5, 5]);
        let n = count_color(c.image(), [5, 5, 5]) as f32;
        assert!((n - 96.0).abs() / 96.0 < 0.2, "area {n}");
    }

    #[test]
    fn rotation_preserves_distance_from_center() {
        let c = p2(5.0, 5.0);
        let q = p2(9.0, 5.0).rotated(c, 1.234);
        let d = ((q.x - 5.0).powi(2) + (q.y - 5.0).powi(2)).sqrt();
        assert!((d - 4.0).abs() < 1e-5);
    }
}
