//! Integration: the end-to-end scene pipeline (the paper's future-work
//! setting) — rooms → segmentation → classification → evaluation.

use rand::SeedableRng;
use taor::core::prelude::*;
use taor::core::Result;
use taor::data::{patrol_frames, render_room, shapenet_set1, ObjectClass};

#[test]
fn segmentation_detects_most_objects_across_a_patrol() -> Result<()> {
    let frames = patrol_frames(2019, 6);
    let cfg = SegmentConfig::default();
    let mut total = 0usize;
    let mut detected = 0usize;
    for scene in &frames {
        let segs = try_segment_frame(&scene.image, &cfg)?;
        for obj in &scene.objects {
            total += 1;
            if segs.iter().any(|s| iou(&s.bbox, &obj.bbox) >= 0.3) {
                detected += 1;
            }
        }
    }
    let rate = detected as f64 / total as f64;
    assert!(rate > 0.5, "detection rate {rate} ({detected}/{total})");
    Ok(())
}

#[test]
fn end_to_end_recognition_beats_chance() -> Result<()> {
    let refs = prepare_views(&shapenet_set1(2019), Background::White);
    let hybrid = HybridConfig::default();
    let diag = Diagnostics::new();
    let classify = |crop: &taor::imgproc::RgbImage| {
        let q = RefView {
            class: ObjectClass::Chair,
            model_id: 0,
            feat: preprocess(crop, Background::Black),
        };
        let q = std::slice::from_ref(&q);
        try_classify_hybrid(q, &refs, &hybrid, Aggregation::WeightedSum, &diag)
            .expect("reference set is non-empty")[0]
    };
    let cfg = SegmentConfig::default();
    let mut agg = SceneEvaluation::default();
    for scene in patrol_frames(2019, 8) {
        let dets = try_recognise_frame(&scene.image, &cfg, classify)?;
        let e = evaluate_scene(&scene, &dets);
        agg.total_objects += e.total_objects;
        agg.detected += e.detected;
        agg.correctly_classified += e.correctly_classified;
        agg.false_positives += e.false_positives;
    }
    // Chance classification-given-detection would be ~0.10.
    assert!(
        agg.classification_rate() > 0.10,
        "classification | detected = {}",
        agg.classification_rate()
    );
    assert!(agg.detected > 0);
    Ok(())
}

#[test]
fn segmented_crops_feed_the_preprocessing_pipeline() -> Result<()> {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
    let scene = render_room(&[ObjectClass::Sofa, ObjectClass::Lamp], &mut rng);
    for seg in try_segment_frame(&scene.image, &SegmentConfig::default())? {
        // Segmenter output is NYU-format (black mask): the §3.2 pipeline
        // must process it without panicking and produce finite features.
        let p = preprocess(&seg.crop, Background::Black);
        assert!(p.hu.iter().all(|v| v.is_finite()));
        let mass: f64 = p.hist.as_slice().iter().sum();
        assert!((mass - 3.0).abs() < 1e-9);
    }
    Ok(())
}

#[test]
fn room_scenes_export_to_ppm() {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(9);
    let scene = render_room(&[ObjectClass::Table], &mut rng);
    let mut path = std::env::temp_dir();
    path.push(format!("taor_scene_{}.ppm", std::process::id()));
    taor::imgproc::io::write_ppm(&path, &scene.image).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let (w, h) = scene.image.dimensions();
    let mut want = format!("P6\n{w} {h}\n255\n").into_bytes();
    want.extend_from_slice(scene.image.as_raw());
    assert_eq!(bytes, want);
}
