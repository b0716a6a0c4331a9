// taor-lint: allow(panic::index) — dense numeric kernel: indices are derived from dimensions validated at the public boundary and bounded by the enclosing loops.
//! Shared machinery of the matching pipelines.
//!
//! The paper frames classification as: "a set of K Shapenet models, Mc,
//! is defined for c = 1..N object classes … Each input object to classify
//! is thus matched against each single view vj ∈ Vi, for all K models,
//! and for all N classes. The mi determining the predicted label is then
//! the argument optimising either a certain similarity or distance
//! function."
//!
//! [`prepare_views`] preprocesses a dataset once; a [`MatchScorer`] turns
//! a (query, view) pair into a *distance* (lower = more similar);
//! [`try_classify_per_view`] predicts by argmin over every reference view.

use crate::diag::Diagnostics;
use crate::error::{Error, Result};
use crate::preprocess::{preprocess, Background, Preprocessed, HIST_BINS};
use rayon::prelude::*;
use taor_data::{Dataset, ObjectClass};

/// One preprocessed reference view (or query crop).
#[derive(Debug, Clone)]
pub struct RefView {
    pub class: ObjectClass,
    pub model_id: usize,
    pub feat: Preprocessed,
}

/// Preprocess every image of a dataset under the given background
/// convention (parallel).
pub fn prepare_views(dataset: &Dataset, bg: Background) -> Vec<RefView> {
    dataset
        .images
        .par_iter()
        .map(|img| RefView {
            class: img.class,
            model_id: img.model_id,
            feat: preprocess(&img.image, bg, HIST_BINS),
        })
        .collect()
}

/// A (query, view) distance function. Implementations must be cheap and
/// thread-safe — the full NYU-vs-SNS1 run evaluates ~570 k pairs.
pub trait MatchScorer: Sync {
    /// Distance between a query and a reference view; lower = better.
    fn score(&self, query: &Preprocessed, view: &Preprocessed) -> f64;

    /// Distance with early abandon. **Contract:** the result must be
    /// exact whenever it is `< bound`; when the true distance is
    /// `≥ bound` the implementation may stop early and return any value
    /// `≥ bound`. Argmin searches that pass their running best as
    /// `bound` and compare with strict `<` therefore see identical
    /// decisions — a pruned candidate could never have replaced the
    /// incumbent. The default computes the full distance.
    fn score_bounded(&self, query: &Preprocessed, view: &Preprocessed, bound: f64) -> f64 {
        let _ = bound;
        self.score(query, view)
    }

    /// Human-readable configuration name for reports.
    fn name(&self) -> String;
}

/// Reference views scanned per tile of the distance-matrix loops: small
/// enough that a tile's features stay cache-resident while every query
/// of a block visits them, large enough to amortise the loop overhead.
const VIEW_TILE: usize = 64;
/// Queries per parallel work item in the classify loops.
const QUERY_BLOCK: usize = 8;

/// Classify every query by the class of its argmin view (the paper's
/// ΘT rule; also how the shape-only and colour-only pipelines decide).
///
/// An empty reference set is an [`Error::EmptyReference`]; NaN match
/// scores are quarantined (they never beat the running argmin) and
/// counted in `diag`; a query for which *no* view produced a finite
/// distance receives the first reference view's class as a
/// deterministic fallback and is counted as degraded.
pub fn try_classify_per_view(
    queries: &[RefView],
    views: &[RefView],
    scorer: &dyn MatchScorer,
    diag: &Diagnostics,
) -> Result<Vec<ObjectClass>> {
    if views.is_empty() {
        return Err(Error::EmptyReference("reference set is empty"));
    }
    // Tiled scan: a block of queries walks one tile of reference views at
    // a time, so tile features are reused across the block instead of
    // streaming the whole reference set per query. Each (query, view)
    // pair passes the query's running best as the abandon bound.
    Ok(queries
        .par_chunks(QUERY_BLOCK)
        .flat_map(|block| {
            let mut best = vec![f64::INFINITY; block.len()];
            let mut best_class = vec![views[0].class; block.len()];
            let mut nan_seen = 0u64;
            for tile in views.chunks(VIEW_TILE) {
                for (qi, q) in block.iter().enumerate() {
                    for v in tile {
                        let s = scorer.score_bounded(&q.feat, &v.feat, best[qi]);
                        if s.is_nan() {
                            nan_seen += 1;
                        } else if s < best[qi] {
                            best[qi] = s;
                            best_class[qi] = v.class;
                        }
                    }
                }
            }
            diag.record_nan_scores(nan_seen);
            diag.record_degraded(best.iter().filter(|b| b.is_infinite()).count() as u64);
            best_class
        })
        .collect())
}

/// Ground-truth classes of a prepared query set.
pub fn truth_of(queries: &[RefView]) -> Vec<ObjectClass> {
    queries.iter().map(|q| q.class).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use taor_data::{shapenet_set1, shapenet_set2};

    fn per_view(q: &[RefView], r: &[RefView]) -> Vec<ObjectClass> {
        try_classify_per_view(q, r, &ClassOracle, &Diagnostics::new()).unwrap()
    }

    struct ClassOracle;
    impl MatchScorer for ClassOracle {
        fn score(&self, q: &Preprocessed, v: &Preprocessed) -> f64 {
            // A scorer that can only see histograms; identical crops give 0.
            let mut acc = 0.0;
            for (a, b) in q.hist.as_slice().iter().zip(v.hist.as_slice()) {
                acc += (a - b).abs();
            }
            acc
        }
        fn name(&self) -> String {
            "L1-histogram".into()
        }
    }

    #[test]
    fn prepare_views_preserves_labels_and_order() {
        let ds = shapenet_set1(1);
        let views = prepare_views(&ds, Background::White);
        assert_eq!(views.len(), 82);
        for (v, img) in views.iter().zip(&ds.images) {
            assert_eq!(v.class, img.class);
            assert_eq!(v.model_id, img.model_id);
        }
    }

    #[test]
    fn self_matching_is_perfect() {
        // Classifying SNS1 against itself with any sane scorer must score
        // 100%: the argmin view is the query itself at distance 0.
        let ds = shapenet_set1(2);
        let views = prepare_views(&ds, Background::White);
        let preds = per_view(&views, &views);
        let truth = truth_of(&views);
        assert_eq!(preds, truth);
    }

    #[test]
    fn cross_set_matching_runs() {
        let q = prepare_views(&shapenet_set1(3), Background::White);
        let r = prepare_views(&shapenet_set2(3), Background::White);
        let preds = per_view(&q, &r);
        assert_eq!(preds.len(), q.len());
    }
}
