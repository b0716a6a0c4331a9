//! Failure injection: degenerate and adversarial inputs through every
//! public pipeline. Nothing here may panic — a robot's perception loop
//! sees garbage frames routinely.

use taor::core::prelude::*;
use taor::data::{shapenet_set1, ObjectClass};
use taor::features::{
    orb_detect_and_compute, sift_detect_and_compute, surf_detect_and_compute, OrbParams,
    SiftParams, SurfParams,
};
use taor::imgproc::prelude::*;
use taor_testkit::warp::{warp_affine, Affine};

/// Pathological crops every stage must survive.
fn poison_crops() -> Vec<(&'static str, RgbImage)> {
    let mut salt_pepper = RgbImage::new(48, 48);
    for (i, v) in salt_pepper.as_raw_mut().iter_mut().enumerate() {
        *v = if (i * 2654435761usize) % 7 < 3 { 0 } else { 255 };
    }
    let mut one_px = RgbImage::new(33, 33);
    one_px.put_pixel(16, 16, [200, 30, 30]);
    vec![
        ("all-black", RgbImage::new(40, 40)),
        ("all-white", RgbImage::filled(40, 40, [255, 255, 255])),
        ("all-mid-grey", RgbImage::filled(40, 40, [128, 128, 128])),
        ("salt-and-pepper", salt_pepper),
        ("single-pixel-object", one_px),
        ("extreme-wide", RgbImage::filled(200, 2, [90, 120, 150])),
        ("extreme-tall", RgbImage::filled(2, 200, [90, 120, 150])),
        ("tiny", RgbImage::filled(3, 3, [10, 200, 60])),
    ]
}

#[test]
fn preprocessing_never_panics_on_poison() {
    for (name, img) in poison_crops() {
        for bg in [Background::White, Background::Black] {
            let p = preprocess(&img, bg);
            assert!(p.hu.iter().all(|v| v.is_finite()), "{name}/{bg:?}: non-finite Hu");
            let mass: f64 = p.hist.as_slice().iter().sum();
            assert!((mass - 3.0).abs() < 1e-9, "{name}/{bg:?}: histogram mass {mass}");
        }
    }
}

#[test]
fn recognizer_never_panics_on_poison() -> taor::core::Result<()> {
    let r = Recognizer::try_new(&shapenet_set1(2019), Method::default(), Background::Black)?;
    for (name, img) in poison_crops() {
        let rec = r.recognize(&img);
        assert!(rec.confidence.is_finite(), "{name}: confidence NaN");
        assert_eq!(rec.ranking.len(), ObjectClass::COUNT, "{name}: partial ranking");
    }
    Ok(())
}

#[test]
fn detectors_reject_or_survive_poison() {
    for (name, img) in poison_crops() {
        let gray = rgb_to_gray(&img);
        // Each detector either returns Ok (possibly empty) or a typed
        // too-small error — never a panic.
        let sift = sift_detect_and_compute(&gray, &SiftParams::default());
        let surf = surf_detect_and_compute(&gray, &SurfParams::default());
        let orb = orb_detect_and_compute(&gray, &OrbParams::default());
        for (det, result_empty_ok) in
            [("sift", sift.is_ok()), ("surf", surf.is_ok()), ("orb", orb.is_ok())]
        {
            // Just force evaluation; the assert documents intent.
            let _ = (det, result_empty_ok);
        }
        let _ = name;
    }
}

#[test]
fn segmentation_handles_textureless_frames() -> taor::core::Result<()> {
    let cfg = SegmentConfig::default();
    // A frame that is all background: no segments, no panic.
    let flat = RgbImage::filled(320, 200, [180, 175, 160]);
    assert!(try_segment_frame(&flat, &cfg)?.is_empty());
    // A frame that is a single huge foreground blob.
    let mut blob = RgbImage::filled(320, 200, [180, 175, 160]);
    for y in 40..160 {
        for x in 80..240 {
            blob.put_pixel(x, y, [30, 60, 120]);
        }
    }
    let segs = try_segment_frame(&blob, &cfg)?;
    assert_eq!(segs.len(), 1);
    assert!(segs[0].area > 10_000);
    Ok(())
}

#[test]
fn morphology_and_labeling_handle_extremes() {
    let empty = GrayImage::new(30, 30);
    assert!(label_components(&empty).components.is_empty());
    assert_eq!(erode(&empty, 3), empty);
    let full = GrayImage::filled(30, 30, [255]);
    let labels = label_components(&full);
    assert_eq!(labels.components.len(), 1);
    assert_eq!(labels.components[0].area, 900);
    // Erosion larger than the image: everything vanishes.
    let gone = erode(&full, 20);
    assert!(gone.as_raw().iter().all(|&v| v == 0));
}

#[test]
fn histogram_metrics_on_degenerate_distributions() {
    let black = rgb_histogram(&RgbImage::new(4, 4));
    let white = rgb_histogram(&RgbImage::filled(4, 4, [255, 255, 255]));
    for m in HistCompare::ALL {
        let v = compare_hist(&black, &white, m);
        assert!(v.is_finite(), "{m:?} produced {v}");
        let self_v = compare_hist(&black, &black, m);
        assert!(self_v.is_finite());
    }
}

#[test]
fn warp_of_tiny_images_is_safe() {
    let img = GrayImage::filled(2, 2, [100]);
    let t = Affine::rotation_about(1.0, 1.0, 0.7, 1.0);
    let w = warp_affine(&img, &t, 0).unwrap();
    assert_eq!(w.dimensions(), (2, 2));
}
