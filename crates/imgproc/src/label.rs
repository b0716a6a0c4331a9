//! Connected-component labelling.
//!
//! The scene-segmentation pipeline needs components as first-class
//! objects (pixel count, bounding box, label map), not just their outer
//! contours; this module exposes the 8-connected labelling that
//! [`crate::contour::find_contours`] performs internally.

use crate::image::{GrayImage, ImageBuf, Rect};

/// One labelled component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Component {
    /// Label value in the label map (1-based).
    pub label: u32,
    /// Number of foreground pixels.
    pub area: usize,
    /// Tight bounding box.
    pub bbox: Rect,
}

/// Result of labelling: per-pixel labels (0 = background) plus component
/// summaries ordered by label.
#[derive(Debug, Clone)]
pub struct Labels {
    pub map: ImageBuf<u32, 1>,
    pub components: Vec<Component>,
}

impl Labels {
    /// Components with at least `min_area` pixels, largest first.
    pub fn filtered(&self, min_area: usize) -> Vec<&Component> {
        let mut out: Vec<&Component> =
            self.components.iter().filter(|c| c.area >= min_area).collect();
        out.sort_by_key(|c| std::cmp::Reverse(c.area));
        out
    }
}

/// Label all 8-connected foreground (`> 0`) components in raster order.
pub fn label_components(bin: &GrayImage) -> Labels {
    let (w, h) = bin.dimensions();
    let mut map: ImageBuf<u32, 1> = ImageBuf::new(w, h);
    let mut components = Vec::new();
    let mut queue: Vec<(u32, u32)> = Vec::new();
    let mut next = 1u32;

    for y in 0..h {
        for x in 0..w {
            if bin.get(x, y) == 0 || map.pixel(x, y)[0] != 0 {
                continue;
            }
            let label = next;
            next += 1;
            let (mut min_x, mut min_y, mut max_x, mut max_y) = (x, y, x, y);
            let mut area = 0usize;
            queue.clear();
            queue.push((x, y));
            map.put_pixel(x, y, [label]);
            while let Some((cx, cy)) = queue.pop() {
                area += 1;
                min_x = min_x.min(cx);
                min_y = min_y.min(cy);
                max_x = max_x.max(cx);
                max_y = max_y.max(cy);
                for dy in -1i64..=1 {
                    for dx in -1i64..=1 {
                        let nx = cx as i64 + dx;
                        let ny = cy as i64 + dy;
                        if bin.in_bounds(nx, ny)
                            && bin.get(nx as u32, ny as u32) > 0
                            && map.pixel(nx as u32, ny as u32)[0] == 0
                        {
                            map.put_pixel(nx as u32, ny as u32, [label]);
                            queue.push((nx as u32, ny as u32));
                        }
                    }
                }
            }
            components.push(Component {
                label,
                area,
                bbox: Rect::new(min_x, min_y, max_x - min_x + 1, max_y - min_y + 1),
            });
        }
    }
    Labels { map, components }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_two_blobs() {
        let mut img = GrayImage::new(16, 16);
        for y in 1..4 {
            for x in 1..4 {
                img.put(x, y, 255);
            }
        }
        for y in 10..14 {
            for x in 8..13 {
                img.put(x, y, 255);
            }
        }
        let labels = label_components(&img);
        assert_eq!(labels.components.len(), 2);
        assert_eq!(labels.components[0].area, 9);
        assert_eq!(labels.components[1].area, 20);
        assert_eq!(labels.components[1].bbox, Rect::new(8, 10, 5, 4));
    }

    #[test]
    fn filtered_sorts_by_area_desc() {
        let mut img = GrayImage::new(20, 20);
        img.put(0, 0, 255); // area 1
        for x in 5..10 {
            img.put(x, 5, 255); // area 5
        }
        for y in 10..19 {
            for x in 10..19 {
                img.put(x, y, 255); // area 81
            }
        }
        let labels = label_components(&img);
        let big = labels.filtered(2);
        assert_eq!(big.len(), 2);
        assert_eq!(big[0].area, 81);
        assert_eq!(big[1].area, 5);
    }

    #[test]
    fn empty_image_no_components() {
        let labels = label_components(&GrayImage::new(5, 5));
        assert!(labels.components.is_empty());
    }

    #[test]
    fn diagonal_connectivity_is_8() {
        let mut img = GrayImage::new(6, 6);
        img.put(1, 1, 255);
        img.put(2, 2, 255);
        img.put(3, 3, 255);
        let labels = label_components(&img);
        assert_eq!(labels.components.len(), 1);
        assert_eq!(labels.components[0].area, 3);
    }

    #[test]
    fn label_map_is_consistent_with_areas() {
        let mut img = GrayImage::new(12, 12);
        for y in 2..9 {
            for x in 3..8 {
                img.put(x, y, 200);
            }
        }
        let labels = label_components(&img);
        let counted = labels.map.as_raw().iter().filter(|&&l| l == 1).count();
        assert_eq!(counted, labels.components[0].area);
    }
}
