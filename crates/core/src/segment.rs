// taor-lint: allow(panic::index) — dense numeric kernel: indices are derived from dimensions validated at the public boundary and bounded by the enclosing loops.
//! Scene segmentation front-end: from a whole robot frame to black-mask
//! object crops — the step the paper's controlled experiments skipped
//! ("leaving potential error-propagation from segmentation faults out of
//! the picture") and whose cost this module makes measurable.
//!
//! Approach (classical, matching the paper's pre-deep-segmentation era):
//! estimate the dominant background colours from the frame border, mark
//! pixels far from both as foreground, clean the mask with a
//! morphological opening, label 8-connected components, and emit one
//! black-masked crop per sufficiently large component — the same format
//! the NYU extraction script produced, so the recognition pipelines apply
//! unchanged.

use crate::error::{Error, Result};
use rayon::prelude::*;
use taor_data::{ObjectClass, RoomScene};
use taor_imgproc::image::{GrayImage, Rect, RgbImage};
use taor_imgproc::label::label_components;
use taor_imgproc::morphology::open;

/// One segmented region of a frame.
#[derive(Debug, Clone)]
pub struct SegmentedObject {
    /// Bounding box in frame coordinates.
    pub bbox: Rect,
    /// Black-masked RGB crop (NYU extraction format).
    pub crop: RgbImage,
    /// Component pixel count.
    pub area: usize,
}

/// Segmentation parameters.
#[derive(Debug, Clone)]
pub struct SegmentConfig {
    /// Colour distance (L1 over RGB) beyond which a pixel is foreground.
    pub color_threshold: u32,
    /// Morphological opening radius for mask cleanup.
    pub open_radius: u32,
    /// Minimum component area in pixels.
    pub min_area: usize,
    /// Number of dominant border colours modelled as background.
    pub background_colors: usize,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        SegmentConfig { color_threshold: 40, open_radius: 1, min_area: 150, background_colors: 3 }
    }
}

/// Estimate the `k` dominant border colours by coarse RGB quantisation
/// (5-bit per channel buckets, averaged).
pub fn border_colors(img: &RgbImage, k: usize) -> Vec<[u8; 3]> {
    use std::collections::BTreeMap;
    let (w, h) = img.dimensions();
    let mut buckets: BTreeMap<(u8, u8, u8), (u64, [u64; 3])> = BTreeMap::new();
    let mut push = |px: [u8; 3]| {
        let key = (px[0] >> 3, px[1] >> 3, px[2] >> 3);
        let e = buckets.entry(key).or_insert((0, [0; 3]));
        e.0 += 1;
        for (acc, &v) in e.1.iter_mut().zip(&px) {
            *acc += v as u64;
        }
    };
    for x in 0..w {
        push(img.pixel(x, 0));
        push(img.pixel(x, h - 1));
    }
    for y in 0..h {
        push(img.pixel(0, y));
        push(img.pixel(w - 1, y));
    }
    // BTreeMap yields buckets in key order, and the sort is stable, so
    // equally-populous buckets resolve in key order on every run.
    let mut sorted: Vec<_> = buckets.into_values().collect();
    sorted.sort_by_key(|&(n, _)| std::cmp::Reverse(n));
    sorted
        .into_iter()
        .take(k)
        .map(|(n, sums)| [(sums[0] / n) as u8, (sums[1] / n) as u8, (sums[2] / n) as u8])
        .collect()
}

#[inline]
fn l1(a: [u8; 3], b: [u8; 3]) -> u32 {
    a.iter().zip(&b).map(|(&x, &y)| (x as i32 - y as i32).unsigned_abs()).sum()
}

/// Foreground mask: pixels far from every modelled background colour.
/// An empty background colour model (`background_colors == 0`) is an
/// [`Error::EmptyInput`] instead of an all-foreground mask.
pub fn try_foreground_mask(img: &RgbImage, cfg: &SegmentConfig) -> Result<GrayImage> {
    let bg = border_colors(img, cfg.background_colors);
    mask_against(img, &bg, cfg.color_threshold)
}

/// Foreground mask against an explicit background colour model (e.g. the
/// model of a whole frame, applied to a crop of it).
///
/// An empty model is an [`Error::EmptyInput`]: with nothing to compare
/// against, every pixel would sit at infinite distance and the whole
/// frame would silently be declared foreground — a full-frame
/// "detection" that poisons downstream scene metrics.
pub fn mask_against(img: &RgbImage, background: &[[u8; 3]], threshold: u32) -> Result<GrayImage> {
    if background.is_empty() {
        return Err(Error::EmptyInput("background color model"));
    }
    let (w, h) = img.dimensions();
    let mut mask = GrayImage::new(w, h);
    for (x, y, px) in img.enumerate_pixels() {
        let min_d = background.iter().map(|&b| l1(px, b)).min().unwrap_or(u32::MAX);
        if min_d > threshold {
            mask.put(x, y, 255);
        }
    }
    Ok(mask)
}

/// Segment a frame into black-masked object crops. An empty background
/// colour model is an [`Error::EmptyInput`] instead of one giant
/// full-frame component.
///
/// ```
/// use taor_core::prelude::*;
/// use rand::SeedableRng;
///
/// # fn main() -> taor_core::Result<()> {
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// let scene = taor_data::render_room(&[taor_data::ObjectClass::Sofa], &mut rng);
/// let segments = try_segment_frame(&scene.image, &SegmentConfig::default())?;
/// assert!(!segments.is_empty());
/// # Ok(())
/// # }
/// ```
pub fn try_segment_frame(img: &RgbImage, cfg: &SegmentConfig) -> Result<Vec<SegmentedObject>> {
    let mask = open(&try_foreground_mask(img, cfg)?, cfg.open_radius);
    let labels = label_components(&mask);
    Ok(labels
        .filtered(cfg.min_area)
        .into_iter()
        .map(|comp| {
            let bbox = comp.bbox;
            let mut crop = RgbImage::new(bbox.width, bbox.height);
            for dy in 0..bbox.height {
                for dx in 0..bbox.width {
                    let (x, y) = (bbox.x + dx, bbox.y + dy);
                    if labels.map.pixel(x, y)[0] == comp.label {
                        crop.put_pixel(dx, dy, img.pixel(x, y));
                    }
                }
            }
            SegmentedObject { bbox, crop, area: comp.area }
        })
        .collect())
}

/// A detection: segmented region plus predicted class.
#[derive(Debug, Clone)]
pub struct Detection {
    pub bbox: Rect,
    pub class: ObjectClass,
}

/// Run segmentation + classification over a frame, propagating
/// segmentation errors. `classify` maps a black-masked crop to a class
/// (typically a closure over the hybrid pipeline and a prepared
/// reference set).
pub fn try_recognise_frame(
    img: &RgbImage,
    cfg: &SegmentConfig,
    classify: impl Fn(&RgbImage) -> ObjectClass + Sync,
) -> Result<Vec<Detection>> {
    Ok(try_segment_frame(img, cfg)?
        .into_par_iter()
        .map(|seg| Detection { bbox: seg.bbox, class: classify(&seg.crop) })
        .collect())
}

/// Intersection-over-union of two rectangles.
pub fn iou(a: &Rect, b: &Rect) -> f64 {
    match a.intersect(b) {
        Some(i) => {
            let inter = i.area() as f64;
            inter / (a.area() as f64 + b.area() as f64 - inter)
        }
        None => 0.0,
    }
}

/// End-to-end scene evaluation: greedy IoU matching of detections to
/// ground truth.
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct SceneEvaluation {
    /// Ground-truth objects across all frames.
    pub total_objects: usize,
    /// Objects matched by a detection with IoU ≥ 0.3.
    pub detected: usize,
    /// Detected objects whose predicted class is correct.
    pub correctly_classified: usize,
    /// Detections with no ground-truth match (false alarms).
    pub false_positives: usize,
}

impl SceneEvaluation {
    /// Fraction of objects found by the segmenter.
    pub fn detection_rate(&self) -> f64 {
        if self.total_objects == 0 {
            0.0
        } else {
            self.detected as f64 / self.total_objects as f64
        }
    }

    /// Classification accuracy *given* a correct detection.
    pub fn classification_rate(&self) -> f64 {
        if self.detected == 0 {
            0.0
        } else {
            self.correctly_classified as f64 / self.detected as f64
        }
    }

    /// End-to-end recall: correct class AND correct localisation.
    pub fn end_to_end_rate(&self) -> f64 {
        if self.total_objects == 0 {
            0.0
        } else {
            self.correctly_classified as f64 / self.total_objects as f64
        }
    }
}

/// Evaluate detections against a scene's ground truth (greedy best-IoU
/// matching, one detection per object).
pub fn evaluate_scene(scene: &RoomScene, detections: &[Detection]) -> SceneEvaluation {
    let mut eval = SceneEvaluation { total_objects: scene.objects.len(), ..Default::default() };
    let mut used = vec![false; detections.len()];
    for obj in &scene.objects {
        let mut best: Option<(usize, f64)> = None;
        for (i, det) in detections.iter().enumerate() {
            if used[i] {
                continue;
            }
            let v = iou(&obj.bbox, &det.bbox);
            if v >= 0.3 && best.is_none_or(|(_, bv)| v > bv) {
                best = Some((i, v));
            }
        }
        if let Some((i, _)) = best {
            used[i] = true;
            eval.detected += 1;
            if detections[i].class == obj.class {
                eval.correctly_classified += 1;
            }
        }
    }
    eval.false_positives = used.iter().filter(|&&u| !u).count();
    eval
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use taor_data::render_room;

    fn scene(seed: u64, classes: &[ObjectClass]) -> RoomScene {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        render_room(classes, &mut rng)
    }

    #[test]
    fn segmentation_finds_objects() {
        let s = scene(1, &[ObjectClass::Sofa, ObjectClass::Lamp, ObjectClass::Box]);
        let segs = try_segment_frame(&s.image, &SegmentConfig::default()).unwrap();
        assert!((2..=6).contains(&segs.len()), "expected ~3 segments, got {}", segs.len());
        // Each segment overlaps some ground-truth object.
        for seg in &segs {
            let hit = s.objects.iter().any(|o| iou(&o.bbox, &seg.bbox) > 0.1);
            assert!(hit, "segment {:?} matches no object", seg.bbox);
        }
    }

    #[test]
    fn crops_are_black_masked() {
        let s = scene(2, &[ObjectClass::Chair, ObjectClass::Bottle]);
        let segs = try_segment_frame(&s.image, &SegmentConfig::default()).unwrap();
        for seg in &segs {
            // Crops contain both object pixels and the black mask.
            let black = seg.crop.as_raw().chunks_exact(3).filter(|px| *px == [0, 0, 0]).count();
            let total = (seg.crop.width() * seg.crop.height()) as usize;
            assert!(black < total, "crop entirely black");
        }
    }

    #[test]
    fn iou_identities() {
        let a = Rect::new(0, 0, 10, 10);
        assert_eq!(iou(&a, &a), 1.0);
        assert_eq!(iou(&a, &Rect::new(20, 20, 5, 5)), 0.0);
        let half = iou(&a, &Rect::new(0, 0, 10, 5));
        assert!((half - 0.5).abs() < 1e-12);
    }

    #[test]
    fn evaluate_scene_counts() {
        let s = scene(3, &[ObjectClass::Table, ObjectClass::Door]);
        // Perfect detections from ground truth.
        let dets: Vec<Detection> =
            s.objects.iter().map(|o| Detection { bbox: o.bbox, class: o.class }).collect();
        let eval = evaluate_scene(&s, &dets);
        assert_eq!(eval.detected, 2);
        assert_eq!(eval.correctly_classified, 2);
        assert_eq!(eval.false_positives, 0);
        assert_eq!(eval.end_to_end_rate(), 1.0);
    }

    #[test]
    fn evaluate_scene_wrong_class_counts_detection_only() {
        let s = scene(4, &[ObjectClass::Window]);
        let dets = vec![Detection { bbox: s.objects[0].bbox, class: ObjectClass::Door }];
        let eval = evaluate_scene(&s, &dets);
        assert_eq!(eval.detected, 1);
        assert_eq!(eval.correctly_classified, 0);
        assert_eq!(eval.classification_rate(), 0.0);
    }

    #[test]
    fn empty_detections_all_missed() {
        let s = scene(5, &[ObjectClass::Lamp, ObjectClass::Paper]);
        let eval = evaluate_scene(&s, &[]);
        assert_eq!(eval.detected, 0);
        assert_eq!(eval.detection_rate(), 0.0);
    }

    #[test]
    fn empty_background_model_is_an_error_not_full_frame_foreground() {
        let s = scene(7, &[ObjectClass::Chair]);
        // Explicit empty model: must refuse, not mark every pixel.
        assert!(matches!(
            mask_against(&s.image, &[], 40),
            Err(crate::error::Error::EmptyInput("background color model"))
        ));
        // Zero modelled colours propagates the same error end to end.
        let cfg = SegmentConfig { background_colors: 0, ..Default::default() };
        assert!(try_foreground_mask(&s.image, &cfg).is_err());
        assert!(try_segment_frame(&s.image, &cfg).is_err());
        assert!(try_recognise_frame(&s.image, &cfg, |_| ObjectClass::Chair).is_err());
    }

    #[test]
    fn nonempty_model_still_masks() {
        let s = scene(8, &[ObjectClass::Lamp]);
        let bg = border_colors(&s.image, 3);
        let mask = mask_against(&s.image, &bg, 40).unwrap();
        let lit = mask.as_raw().iter().filter(|&&v| v > 0).count();
        let total = mask.as_raw().len();
        assert!(lit > 0, "no foreground found");
        assert!(lit < total, "whole frame marked foreground");
    }

    #[test]
    fn recognise_frame_plumbs_the_classifier() {
        let s = scene(6, &[ObjectClass::Sofa]);
        let dets = try_recognise_frame(&s.image, &SegmentConfig::default(), |_| ObjectClass::Sofa)
            .unwrap();
        assert!(!dets.is_empty());
        assert!(dets.iter().all(|d| d.class == ObjectClass::Sofa));
    }
}
