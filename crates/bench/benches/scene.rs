//! Bench: the extension pipeline — room rendering, foreground masking,
//! full-frame segmentation and the robot's per-frame recognition budget
//! (the on-board-cost question the paper raises for mobile deployment).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use taor_core::prelude::*;
use taor_data::{render_room, shapenet_set1, ObjectClass};

fn bench_scene(c: &mut Criterion) {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(2019);
    let scene = render_room(&[ObjectClass::Chair, ObjectClass::Table, ObjectClass::Lamp], &mut rng);
    let seg_cfg = SegmentConfig::default();
    let diag = Diagnostics::new();

    c.bench_function("render_room_3_objects", |b| {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        b.iter(|| {
            render_room(
                black_box(&[ObjectClass::Chair, ObjectClass::Table, ObjectClass::Lamp]),
                &mut rng,
            )
        })
    });
    c.bench_function("foreground_mask_320x200", |b| {
        b.iter(|| try_foreground_mask(black_box(&scene.image), &seg_cfg).unwrap())
    });
    c.bench_function("segment_frame_320x200", |b| {
        b.iter(|| try_segment_frame(black_box(&scene.image), &seg_cfg).unwrap())
    });

    // Whole-frame recognition (segmentation + hybrid classification).
    let refs = prepare_views(&shapenet_set1(2019), Background::White);
    let hybrid = HybridConfig::default();
    c.bench_function("recognise_frame_vs_82_views", |b| {
        b.iter(|| {
            try_recognise_frame(black_box(&scene.image), &seg_cfg, |crop| {
                let q = RefView {
                    class: ObjectClass::Chair,
                    model_id: 0,
                    feat: preprocess(crop, Background::Black, HIST_BINS),
                };
                let q = std::slice::from_ref(&q);
                try_classify_hybrid(q, &refs, &hybrid, Aggregation::WeightedSum, &diag).unwrap()[0]
            })
            .unwrap()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_scene
}
criterion_main!(benches);
