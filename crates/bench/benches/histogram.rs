//! Bench: building one RGB histogram and the four comparison metrics of
//! the colour-only pipeline.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use taor_data::shapenet_set1;
use taor_imgproc::prelude::*;

fn bench_histograms(c: &mut Criterion) {
    let ds = shapenet_set1(2019);
    let img_a = &ds.images[0].image;
    let img_b = &ds.images[50].image;

    c.bench_function("rgb_histogram", |b| b.iter(|| rgb_histogram(black_box(img_a))));

    let ha = rgb_histogram(img_a);
    let hb = rgb_histogram(img_b);
    let mut g = c.benchmark_group("compare_hist");
    for metric in HistCompare::ALL {
        g.bench_function(metric.name(), |b| {
            b.iter(|| compare_hist(black_box(&ha), black_box(&hb), metric))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_histograms
}
criterion_main!(benches);
