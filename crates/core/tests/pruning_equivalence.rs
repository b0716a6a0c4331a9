//! Pins the early-abandon pruning contract: the tiled, bounded classify
//! loops must produce **byte-identical** predictions to an unpruned
//! argmin scan, for every shape and colour scorer, on the canonical
//! SNS1-vs-SNS2 matching task.
//!
//! The reference implementations below deliberately re-derive the
//! original (seed) semantics from the public `score` method alone: plain
//! first-seen argmin over views in order, no bound, no tiling.

use taor_core::pipeline::{prepare_views, try_classify_per_view, MatchScorer, RefView};
use taor_core::preprocess::Background;
use taor_core::{ColorScorer, Diagnostics, ShapeScorer};
use taor_data::{shapenet_set1, shapenet_set2, ObjectClass};

const SEED: u64 = 2019;

/// Unpruned reference: the seed's exact per-view argmin.
fn classify_reference(
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

#[test]
fn pruned_classification_is_byte_identical_on_sns1_vs_sns2() {
    let q = prepare_views(&shapenet_set1(SEED), Background::White);
    let r = prepare_views(&shapenet_set2(SEED), Background::White);
    for scorer in all_scorers() {
        let pruned = try_classify_per_view(&q, &r, scorer.as_ref(), &Diagnostics::new()).unwrap();
        let reference = classify_reference(&q, &r, scorer.as_ref());
        assert_eq!(pruned, reference, "{} diverged under pruning", scorer.name());
    }
}

#[test]
fn score_bounded_is_exact_below_the_bound() {
    // Direct contract check on a sample of pairs: whenever the bounded
    // result is below the bound it must equal the full score.
    let q = prepare_views(&shapenet_set1(SEED), Background::White);
    let r = prepare_views(&shapenet_set2(SEED), Background::White);
    for scorer in all_scorers() {
        for (i, qv) in q.iter().take(8).enumerate() {
            for rv in r.iter().skip(i).step_by(11) {
                let full = scorer.score(&qv.feat, &rv.feat);
                for bound in [full * 0.5, full, full * 1.5, f64::INFINITY] {
                    let b = scorer.score_bounded(&qv.feat, &rv.feat, bound);
                    if b < bound {
                        assert_eq!(b, full, "{}: inexact below bound", scorer.name());
                    } else {
                        assert!(b >= bound, "{}: result neither exact nor >= bound", scorer.name());
                    }
                }
            }
        }
    }
}
