//! Bench: the preprocessing substrate — thresholding, contour tracing and
//! the full 4-step crop pipeline of §3.2.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use taor_core::prelude::*;
use taor_data::{nyu_set_subsampled, shapenet_set1};
use taor_imgproc::prelude::*;

fn bench_contours(c: &mut Criterion) {
    let catalog = shapenet_set1(2019);
    let scenes = nyu_set_subsampled(2019, 2);
    let white = &catalog.images[0].image;
    let black = &scenes.images[0].image;
    let bin = threshold_luma_inv(white, 245);

    c.bench_function("threshold_96px", |b| b.iter(|| threshold_luma_inv(black_box(white), 245)));
    c.bench_function("find_contours_96px", |b| b.iter(|| find_contours(black_box(&bin))));
    c.bench_function("preprocess_catalog", |b| {
        b.iter(|| preprocess(black_box(white), Background::White))
    });
    c.bench_function("preprocess_scene", |b| {
        b.iter(|| preprocess(black_box(black), Background::Black))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_contours
}
criterion_main!(benches);
