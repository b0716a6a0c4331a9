//! Bench: pruned, tiled match-matrix classification vs the seed's
//! unpruned scan.
//!
//! `try_classify_per_view` walks the full query × reference distance matrix.
//! The overhauled kernel tiles the reference set and passes each query's
//! running best as an early-abandon bound to `score_bounded`, which lets
//! the monotone metrics (Hu L1/L2/L3, chi-square) stop mid-accumulation.
//! This bench pins both paths on the canonical SNS1-v-SNS2 task so the
//! pruning win stays visible in the perf trajectory.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use taor_core::pipeline::{prepare_views, try_classify_per_view, MatchScorer, RefView};
use taor_core::preprocess::Background;
use taor_core::{ColorScorer, Diagnostics, ShapeScorer};
use taor_data::{shapenet_set1, shapenet_set2, ObjectClass};
use taor_imgproc::histogram::HistCompare;
use taor_imgproc::moments::MatchShapesMode;

/// The seed's semantics: plain first-seen argmin, full `score` per pair.
fn classify_unpruned(
    queries: &[RefView],
    views: &[RefView],
    scorer: &dyn MatchScorer,
) -> Vec<ObjectClass> {
    queries
        .iter()
        .map(|q| {
            let mut best = f64::INFINITY;
            let mut best_class = views[0].class;
            for v in views {
                let s = scorer.score(&q.feat, &v.feat);
                if s < best {
                    best = s;
                    best_class = v.class;
                }
            }
            best_class
        })
        .collect()
}

fn bench_scoring(c: &mut Criterion) {
    let q = prepare_views(&shapenet_set1(2019), Background::White);
    let r = prepare_views(&shapenet_set2(2019), Background::White);
    let diag = Diagnostics::new();

    let scorers: Vec<(&str, Box<dyn MatchScorer>)> = vec![
        ("hu_l3", Box::new(ShapeScorer { mode: MatchShapesMode::I3 })),
        ("chi_square", Box::new(ColorScorer { metric: HistCompare::ChiSquare })),
        // Hellinger cannot prune (it normalises by histogram totals);
        // it pins the tiled loop's overhead on the fallback path.
        ("hellinger", Box::new(ColorScorer { metric: HistCompare::Hellinger })),
    ];
    for (name, scorer) in &scorers {
        let mut g = c.benchmark_group(format!("classify_sns1_v_sns2/{name}"));
        g.bench_function("pruned", |b| {
            b.iter(|| {
                try_classify_per_view(black_box(&q), black_box(&r), scorer.as_ref(), &diag).unwrap()
            })
        });
        g.bench_function("unpruned", |b| {
            b.iter(|| classify_unpruned(black_box(&q), black_box(&r), scorer.as_ref()))
        });
        g.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_scoring
}
criterion_main!(benches);
