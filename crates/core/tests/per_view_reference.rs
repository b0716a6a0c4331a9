//! Pins per-view classification to a plain argmin scan: for every shape
//! and colour scorer, `try_classify_per_view` must return
//! **byte-identical** predictions and the same ledger counts as the
//! reference below, on the canonical SNS1-vs-SNS2 task (white
//! backgrounds) and on black-background NYU crops against SNS1.
//!
//! The reference re-derives the seed's semantics from the public `score`
//! method alone: first-seen argmin over views in order with strict `<`,
//! NaN scores counted and skipped, and a query with no finite score
//! falling back to the first view's class as a degraded answer.

use taor_core::pipeline::{prepare_views, try_classify_per_view, MatchScorer, RefView};
use taor_core::preprocess::Background;
use taor_core::{ColorScorer, Diagnostics, ShapeScorer};
use taor_data::{nyu_set_subsampled, shapenet_set1, shapenet_set2, ObjectClass};

const SEED: u64 = 2019;

/// Plain argmin reference: predictions, NaN scores, degraded queries.
fn classify_reference(
    queries: &[RefView],
    views: &[RefView],
    scorer: &dyn MatchScorer,
) -> (Vec<ObjectClass>, u64, u64) {
    let (mut nan, mut degraded) = (0, 0);
    let preds = queries
        .iter()
        .map(|q| {
            let mut best = f64::INFINITY;
            let mut best_class = views[0].class;
            for v in views {
                let s = scorer.score(&q.feat, &v.feat);
                if s.is_nan() {
                    nan += 1;
                } else if s < best {
                    best = s;
                    best_class = v.class;
                }
            }
            if !best.is_finite() {
                degraded += 1;
            }
            best_class
        })
        .collect();
    (preds, nan, degraded)
}

fn all_scorers() -> Vec<Box<dyn MatchScorer>> {
    let mut scorers: Vec<Box<dyn MatchScorer>> = Vec::new();
    for s in ShapeScorer::ALL {
        scorers.push(Box::new(s));
    }
    for s in ColorScorer::ALL {
        scorers.push(Box::new(s));
    }
    scorers
}

/// Every scorer's per-view predictions and ledger against the reference.
fn assert_matches_reference(q: &[RefView], r: &[RefView]) {
    for scorer in all_scorers() {
        let diag = Diagnostics::new();
        let preds = try_classify_per_view(q, r, scorer.as_ref(), &diag).unwrap();
        let (want, nan, degraded) = classify_reference(q, r, scorer.as_ref());
        assert_eq!(preds, want, "{}: predictions diverged", scorer.name());
        assert_eq!(diag.nan_scores(), nan, "{}: NaN count", scorer.name());
        assert_eq!(diag.degraded(), degraded, "{}: degraded count", scorer.name());
    }
}

#[test]
fn per_view_matches_plain_argmin_on_sns1_vs_sns2() {
    let q = prepare_views(&shapenet_set1(SEED), Background::White);
    let r = prepare_views(&shapenet_set2(SEED), Background::White);
    assert_matches_reference(&q, &r);
}

#[test]
fn per_view_matches_plain_argmin_on_nyu_vs_sns1() {
    let q = prepare_views(&nyu_set_subsampled(SEED, 20), Background::Black);
    let r = prepare_views(&shapenet_set1(SEED), Background::White);
    assert_eq!(q.len(), 200);
    assert_matches_reference(&q, &r);
}
