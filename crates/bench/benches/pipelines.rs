//! Bench: end-to-end classification cost per query for every pipeline
//! family — the on-board-installation scalability question the paper
//! raises ("more scalable solutions also represent a more suitable
//! alternative for mobile robot on-board installation").

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use taor_core::prelude::*;
use taor_data::{nyu_set_subsampled, shapenet_set1};

fn bench_pipelines(c: &mut Criterion) {
    let refs = prepare_views(&shapenet_set1(2019), Background::White);
    let crops = nyu_set_subsampled(2019, 2);
    let queries = prepare_views(&crops, Background::Black);
    let query = std::slice::from_ref(&queries[0]);
    let diag = Diagnostics::new();

    let mut g = c.benchmark_group("classify_one_query_vs_82_views");
    let shape = ShapeScorer::ALL[2];
    g.bench_function("shape_L3", |b| {
        b.iter(|| try_classify_per_view(black_box(query), &refs, &shape, &diag).unwrap())
    });
    let color = ColorScorer::ALL[3];
    g.bench_function("color_hellinger", |b| {
        b.iter(|| try_classify_per_view(black_box(query), &refs, &color, &diag).unwrap())
    });
    let hybrid = HybridConfig::default();
    g.bench_function("hybrid_weighted_sum", |b| {
        b.iter(|| {
            try_classify_hybrid(black_box(query), &refs, &hybrid, Aggregation::WeightedSum, &diag)
                .unwrap()
        })
    });
    g.finish();

    // Descriptor pipeline cost (query extraction amortised out).
    let q_idx = extract_index(&crops, DescriptorKind::Orb);
    let r_idx = extract_index(&shapenet_set1(2019), DescriptorKind::Orb);
    c.bench_function("orb_classify_20_queries", |b| {
        b.iter(|| {
            try_classify_descriptors_with(black_box(&q_idx), &r_idx, 0.5, &diag, AnnIndexMode::Flat)
                .unwrap()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_pipelines
}
criterion_main!(benches);
