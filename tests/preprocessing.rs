//! Integration: the §3.2 preprocessing pipeline against both corpora'
//! background conventions, across every class and many seeds.

use taor::core::prelude::*;
use taor::data::{nyu_set_subsampled, shapenet_set1, shapenet_set2, ObjectClass};

#[test]
fn every_catalog_view_preprocesses() {
    for seed in [1u64, 2019] {
        for ds in [shapenet_set1(seed), shapenet_set2(seed)] {
            for img in &ds.images {
                let p = preprocess(&img.image, Background::White);
                assert!(p.rect.width > 0 && p.rect.height > 0);
                assert!(p.hu.iter().all(|v| v.is_finite()));
                let mass: f64 = p.hist.as_slice().iter().sum();
                assert!((mass - 3.0).abs() < 1e-9, "histogram mass {mass}");
            }
        }
    }
}

#[test]
fn every_scene_crop_preprocesses() {
    let ds = nyu_set_subsampled(2019, 15);
    let mut fallbacks = 0usize;
    for img in &ds.images {
        let p = preprocess(&img.image, Background::Black);
        assert!(p.hu.iter().all(|v| v.is_finite()));
        if !p.contour_ok {
            fallbacks += 1;
        }
    }
    // The black-mask convention almost always yields a contour; a few
    // degenerate crops may fall back but never the majority.
    assert!(
        fallbacks * 10 < ds.len(),
        "{fallbacks}/{} scene crops fell back to whole-image features",
        ds.len()
    );
}

#[test]
fn catalog_crops_are_tighter_than_the_canvas() {
    let ds = shapenet_set1(7);
    let mut tighter = 0usize;
    for img in &ds.images {
        let p = preprocess(&img.image, Background::White);
        if p.rect.width < img.image.width() || p.rect.height < img.image.height() {
            tighter += 1;
        }
    }
    assert!(
        tighter * 2 > ds.len(),
        "cropping should usually shrink the frame: {tighter}/{}",
        ds.len()
    );
}

#[test]
fn preprocessing_is_deterministic() {
    let ds = shapenet_set1(11);
    let a = preprocess(&ds.images[0].image, Background::White);
    let b = preprocess(&ds.images[0].image, Background::White);
    assert_eq!(a.hu, b.hu);
    assert_eq!(a.rect, b.rect);
    assert_eq!(a.hist, b.hist);
}

#[test]
fn wrong_background_convention_degrades_gracefully() {
    // Preprocessing a white-background view with the black-mask rule keeps
    // the whole frame as one blob rather than panicking.
    let ds = shapenet_set1(3);
    for img in ds.images.iter().take(10) {
        let p = preprocess(&img.image, Background::Black);
        assert!(p.hu.iter().all(|v| v.is_finite()));
    }
}

#[test]
fn paper_class_is_the_fragile_one_on_white() {
    // The near-white Paper models are the most likely to lose their
    // contour under the White convention — the paper's own Appendix shows
    // Paper rows collapsing to zero. Count per-class fallbacks.
    let ds = shapenet_set2(2019);
    let mut per_class = [0usize; ObjectClass::COUNT];
    for img in &ds.images {
        let p = preprocess(&img.image, Background::White);
        if !p.contour_ok {
            per_class[img.class.index()] += 1;
        }
    }
    let worst = per_class
        .iter()
        .enumerate()
        .max_by_key(|(_, &c)| c)
        .map(|(i, _)| ObjectClass::from_index(i).unwrap());
    // Either nothing fails (fine) or Paper leads the failures.
    let total: usize = per_class.iter().sum();
    if total > 0 {
        assert_eq!(worst, Some(ObjectClass::Paper), "fallbacks per class: {per_class:?}");
    }
}
