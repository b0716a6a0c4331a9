//! Ablation bench: the three `matchShapes` distance variants (the paper's
//! shape-only L1/L2/L3 rows differ only in this kernel), plus moment
//! extraction itself.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use taor_data::{shapenet_set1, ObjectClass};
use taor_imgproc::prelude::*;

fn bench_hu(c: &mut Criterion) {
    let ds = shapenet_set1(2019);
    let bin = threshold_luma_inv(&ds.images[0].image, 245);
    let contours = find_contours(&bin);
    let contour = largest_contour(&contours).expect("object present");
    let hu_a = LogHu::new(&hu_moments(&moments_of_contour(contour)));

    let other = &ds.of_class(ObjectClass::Sofa).next().unwrap().image;
    let bin_b = threshold_luma_inv(other, 245);
    let contours_b = find_contours(&bin_b);
    let hu_b = LogHu::new(&hu_moments(&moments_of_contour(largest_contour(&contours_b).unwrap())));

    c.bench_function("contour_moments_96px", |b| b.iter(|| moments_of_contour(black_box(contour))));
    c.bench_function("raster_moments_96px", |b| b.iter(|| moments(black_box(&bin), true)));

    let mut g = c.benchmark_group("match_shapes");
    for (name, mode) in
        [("I1", MatchShapesMode::I1), ("I2", MatchShapesMode::I2), ("I3", MatchShapesMode::I3)]
    {
        g.bench_function(name, |b| {
            b.iter(|| match_shapes(black_box(&hu_a), black_box(&hu_b), mode))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_hu
}
criterion_main!(benches);
