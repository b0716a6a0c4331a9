//! Drawing fixtures for detector and rasteriser tests: shapes that no
//! dataset renderer draws, built from [`Canvas`]'s public fills.

use taor_imgproc::draw::{p2, Canvas};

/// Fill an axis-aligned ellipse centred at `(cx, cy)`: on each row whose
/// centre lies inside it, the span between the rounded edges, written as
/// a one-row [`Canvas::fill_rect`] clipped to the canvas first.
pub fn fill_ellipse(canvas: &mut Canvas, cx: f32, cy: f32, rx: f32, ry: f32, color: [u8; 3]) {
    if rx <= 0.0 || ry <= 0.0 {
        return;
    }
    let y0 = (cy - ry).floor() as i64;
    let y1 = (cy + ry).ceil() as i64;
    for yy in y0.max(0)..=y1.min(canvas.height() as i64 - 1) {
        let dy = (yy as f32 + 0.5 - cy) / ry;
        let rem = 1.0 - dy * dy;
        if rem <= 0.0 {
            continue;
        }
        let half = rx * rem.sqrt();
        let x0 = ((cx - half).round() as i64).max(0);
        let x1 = ((cx + half).round() as i64).min(canvas.width() as i64);
        if x0 < x1 {
            canvas.fill_rect(x0 as f32, yy as f32, (x1 - x0) as f32, 1.0, color);
        }
    }
}

/// Fill a rotated rectangle: centre `(cx, cy)`, size `w × h`, rotation
/// `angle` radians; a [`Canvas::fill_polygon`] over the four corners.
pub fn fill_rot_rect(
    canvas: &mut Canvas,
    cx: f32,
    cy: f32,
    w: f32,
    h: f32,
    angle: f32,
    color: [u8; 3],
) {
    let c = p2(cx, cy);
    let (hw, hh) = (w / 2.0, h / 2.0);
    let pts = [
        p2(cx - hw, cy - hh).rotated(c, angle),
        p2(cx + hw, cy - hh).rotated(c, angle),
        p2(cx + hw, cy + hh).rotated(c, angle),
        p2(cx - hw, cy + hh).rotated(c, angle),
    ];
    canvas.fill_polygon(&pts, color);
}

#[cfg(test)]
mod tests {
    use super::*;
    use taor_imgproc::image::RgbImage;

    fn count_color(img: &RgbImage, color: [u8; 3]) -> usize {
        img.as_raw().chunks_exact(3).filter(|px| *px == color).count()
    }

    #[test]
    fn ellipse_area_close_to_pi_ab() {
        let mut c = Canvas::new(40, 40, [0, 0, 0]);
        fill_ellipse(&mut c, 20.0, 20.0, 10.0, 6.0, [7, 7, 7]);
        let n = count_color(c.image(), [7, 7, 7]) as f32;
        let ideal = std::f32::consts::PI * 10.0 * 6.0;
        assert!((n - ideal).abs() / ideal < 0.15, "area {n} vs {ideal}");
    }

    #[test]
    fn rotated_rect_45_deg_has_same_area() {
        let mut c = Canvas::new(40, 40, [0, 0, 0]);
        fill_rot_rect(&mut c, 20.0, 20.0, 12.0, 8.0, std::f32::consts::FRAC_PI_4, [5, 5, 5]);
        let n = count_color(c.image(), [5, 5, 5]) as f32;
        assert!((n - 96.0).abs() / 96.0 < 0.2, "area {n}");
    }
}
