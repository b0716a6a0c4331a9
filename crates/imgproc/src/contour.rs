// taor-lint: allow(panic::index) — dense numeric kernel: indices are derived from dimensions validated at the public boundary and bounded by the enclosing loops.
//! Contour extraction.
//!
//! Step (iii) of the paper's preprocessing applies "contour detection on
//! cascade" and step (iv) crops "the original RGB image to the contour of
//! largest area". OpenCV implements Suzuki–Abe border following; we get the
//! same outer borders by labelling 8-connected foreground components and
//! tracing each component's outer boundary once with Moore-neighbour
//! tracing (Jacob's stopping criterion). Only external contours are
//! produced, matching the `RETR_EXTERNAL` mode the pipeline needs.

use crate::image::{GrayImage, Rect};

/// A point on a contour, in pixel coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Point {
    pub x: i32,
    pub y: i32,
}

impl Point {
    pub fn new(x: i32, y: i32) -> Self {
        Point { x, y }
    }
}

/// A closed outer boundary of one connected foreground component, listed in
/// clockwise order (image coordinates, y down).
#[derive(Debug, Clone, PartialEq)]
pub struct Contour {
    pub points: Vec<Point>,
}

impl Contour {
    /// Signed shoelace area of the traced polygon, absolute value.
    ///
    /// Matches OpenCV's `contourArea` convention: a single-pixel component
    /// has zero polygonal area.
    pub fn area(&self) -> f64 {
        let n = self.points.len();
        if n < 3 {
            return 0.0;
        }
        let mut acc = 0i64;
        for i in 0..n {
            let p = self.points[i];
            let q = self.points[(i + 1) % n];
            acc += p.x as i64 * q.y as i64 - q.x as i64 * p.y as i64;
        }
        (acc.abs() as f64) / 2.0
    }

    /// Axis-aligned bounding rectangle of the contour.
    pub fn bounding_rect(&self) -> Rect {
        let min_x = self.points.iter().map(|p| p.x).min().unwrap_or(0).max(0) as u32;
        let min_y = self.points.iter().map(|p| p.y).min().unwrap_or(0).max(0) as u32;
        let max_x = self.points.iter().map(|p| p.x).max().unwrap_or(0).max(0) as u32;
        let max_y = self.points.iter().map(|p| p.y).max().unwrap_or(0).max(0) as u32;
        Rect::new(min_x, min_y, max_x - min_x + 1, max_y - min_y + 1)
    }
}

/// Moore neighbourhood in clockwise order starting from west.
const NEIGHBOURS: [(i32, i32); 8] =
    [(-1, 0), (-1, -1), (0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1)];

/// Cell states of [`find_contours`]' padded mask copy.
const BACKGROUND: u8 = 0;
const UNSEEN: u8 = 1;
const SEEN: u8 = 2;

/// Find the outer contour of every 8-connected foreground component
/// (`pixel > 0`). Components are discovered in raster order, so output
/// order is deterministic.
///
/// Works on a copy of the mask framed by one pixel of background, so
/// every neighbour probe indexes the flat buffer through an offset
/// precomputed from the padded width and needs no in-image check. Each
/// cell is background, foreground not yet reached, or foreground already
/// filled; the trace only asks "foreground?", so the fill does not change
/// what it sees.
pub fn find_contours(bin: &GrayImage) -> Vec<Contour> {
    let (w, h) = (bin.width() as usize, bin.height() as usize);
    let stride = w + 2;
    let mut cells = vec![BACKGROUND; stride * (h + 2)];
    for (dst, src) in cells[stride..].chunks_exact_mut(stride).zip(bin.as_raw().chunks_exact(w)) {
        for (d, &s) in dst[1..=w].iter_mut().zip(src) {
            *d = if s > 0 { UNSEEN } else { BACKGROUND };
        }
    }
    let offsets = NEIGHBOURS.map(|(dx, dy)| dy as isize * stride as isize + dx as isize);
    let max_points = w * h * 4;
    let mut contours = Vec::new();
    let mut stack: Vec<usize> = Vec::new();

    for y in 0..h {
        for x in 0..w {
            let start = (y + 1) * stride + x + 1;
            if cells[start] != UNSEEN {
                continue;
            }
            // New component: trace its outer boundary from this
            // raster-first pixel with Moore-neighbour tracing. Its west
            // neighbour is background by construction, so the clockwise
            // scan begins there; `back` indexes the background neighbour
            // we came from. An isolated pixel has no foreground
            // neighbour, and its contour is the pixel alone.
            let mut at = Point::new(x as i32, y as i32);
            let mut points = vec![at];
            let (mut cur, mut back) = (start, 0usize);
            while let Some(dir) = (1..=8)
                .map(|step| (back + step) % 8)
                .find(|&d| cells[cur.wrapping_add_signed(offsets[d])] != BACKGROUND)
            {
                let next = cur.wrapping_add_signed(offsets[dir]);
                if next == start && points.len() > 1 {
                    // Jacob's criterion variant: stop when we re-enter
                    // the start pixel; a full revisit of (start,
                    // first-move) would also do but this terminates
                    // equivalently for our flood-filled usage.
                    break;
                }
                let (dx, dy) = NEIGHBOURS[dir];
                at = Point::new(at.x + dx, at.y + dy);
                points.push(at);
                // The scan from `next` resumes just after the neighbour
                // we came from: the reverse of `dir`.
                back = (dir + 4) % 8;
                cur = next;
                if points.len() > max_points {
                    // Safety valve: malformed tracing cannot loop forever.
                    break;
                }
            }
            contours.push(Contour { points });

            // Flood-fill the component so the raster scan never starts
            // another trace inside it.
            cells[start] = SEEN;
            stack.push(start);
            while let Some(i) = stack.pop() {
                for off in offsets {
                    let n = i.wrapping_add_signed(off);
                    if cells[n] == UNSEEN {
                        cells[n] = SEEN;
                        stack.push(n);
                    }
                }
            }
        }
    }
    contours
}

/// The contour with the largest shoelace area. Of several with the same
/// largest area, the last in `contours` wins (`Iterator::max_by` keeps
/// the last maximum), which for [`find_contours`]' output is the
/// component whose first pixel comes last in raster order. A NaN area
/// never wins the maximum.
pub fn largest_contour(contours: &[Contour]) -> Option<&Contour> {
    contours.iter().max_by(|a, b| crate::cmp::nan_first_f64(a.area(), b.area()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_image(x0: u32, y0: u32, side: u32) -> GrayImage {
        let mut img = GrayImage::new(20, 20);
        for y in y0..y0 + side {
            for x in x0..x0 + side {
                img.put(x, y, 255);
            }
        }
        img
    }

    #[test]
    fn single_square_yields_one_contour() {
        let img = square_image(3, 4, 6);
        let contours = find_contours(&img);
        assert_eq!(contours.len(), 1);
        let c = &contours[0];
        assert_eq!(c.bounding_rect(), Rect::new(3, 4, 6, 6));
        // Boundary of a 6x6 square traced over pixel centres is a 5x5 square
        // polygon: area 25.
        assert!((c.area() - 25.0).abs() < 1e-9, "area {}", c.area());
    }

    #[test]
    fn two_components_two_contours() {
        let mut img = square_image(1, 1, 3);
        for y in 10..14 {
            for x in 10..15 {
                img.put(x, y, 255);
            }
        }
        let contours = find_contours(&img);
        assert_eq!(contours.len(), 2);
        let largest = largest_contour(&contours).unwrap();
        assert_eq!(largest.bounding_rect(), Rect::new(10, 10, 5, 4));
    }

    #[test]
    fn equal_areas_resolve_to_the_last_in_raster_order() {
        let mut img = square_image(1, 1, 4);
        for y in 10..14 {
            for x in 10..14 {
                img.put(x, y, 255);
            }
        }
        let contours = find_contours(&img);
        assert_eq!(contours.len(), 2);
        assert_eq!(contours[0].area(), contours[1].area());
        let largest = largest_contour(&contours).unwrap();
        assert_eq!(largest.bounding_rect(), Rect::new(10, 10, 4, 4));
    }

    #[test]
    fn empty_image_has_no_contours() {
        let img = GrayImage::new(8, 8);
        assert!(find_contours(&img).is_empty());
        assert!(largest_contour(&[]).is_none());
    }

    #[test]
    fn isolated_pixel_is_single_point_contour() {
        let mut img = GrayImage::new(5, 5);
        img.put(2, 2, 255);
        let contours = find_contours(&img);
        assert_eq!(contours.len(), 1);
        assert_eq!(contours[0].points, vec![Point::new(2, 2)]);
        assert_eq!(contours[0].area(), 0.0);
    }

    #[test]
    fn full_image_component_touches_borders() {
        let img = GrayImage::filled(6, 6, [255]);
        let contours = find_contours(&img);
        assert_eq!(contours.len(), 1);
        assert_eq!(contours[0].bounding_rect(), Rect::new(0, 0, 6, 6));
    }

    #[test]
    fn diagonal_pixels_are_one_component_under_8_connectivity() {
        let mut img = GrayImage::new(6, 6);
        img.put(1, 1, 255);
        img.put(2, 2, 255);
        img.put(3, 3, 255);
        let contours = find_contours(&img);
        assert_eq!(contours.len(), 1);
    }

    #[test]
    fn crop_to_largest_contour_extracts_object() {
        let bin = square_image(5, 6, 4);
        let mut rgb = crate::image::RgbImage::new(20, 20);
        rgb.put_pixel(5, 6, [9, 9, 9]);
        let contours = find_contours(&bin);
        let rect = largest_contour(&contours).unwrap().bounding_rect();
        let cropped = rgb.crop(rect).unwrap();
        assert_eq!(cropped.dimensions(), (4, 4));
        assert_eq!(cropped.pixel(0, 0), [9, 9, 9]);
    }

    #[test]
    fn l_shape_single_contour_and_sane_area() {
        let mut img = GrayImage::new(12, 12);
        for y in 2..10 {
            for x in 2..5 {
                img.put(x, y, 255);
            }
        }
        for y in 7..10 {
            for x in 5..10 {
                img.put(x, y, 255);
            }
        }
        let contours = find_contours(&img);
        assert_eq!(contours.len(), 1);
        let a = contours[0].area();
        // Pixel count is 8*3 + 3*5 = 39; the traced polygon area must be in
        // the same ballpark (smaller, since it runs over pixel centres).
        assert!(a > 15.0 && a < 39.0, "area {a}");
    }
}
