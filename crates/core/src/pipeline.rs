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
//! It and the hybrid pipeline share one argmin loop, `sweep`.

use crate::diag::Diagnostics;
use crate::error::{Error, Result};
use crate::hybrid::Aggregation;
use crate::preprocess::{preprocess, Background, Preprocessed};
use rayon::prelude::*;
use taor_data::{Dataset, ObjectClass};
use taor_imgproc::cmp::nan_last_f64;

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
            feat: preprocess(&img.image, bg),
        })
        .collect()
}

/// A (query, view) distance function. Implementations must be cheap and
/// thread-safe — the full NYU-vs-SNS1 run evaluates ~570 k pairs.
pub trait MatchScorer: Sync {
    /// Distance between a query and a reference view; lower = better.
    fn score(&self, query: &Preprocessed, view: &Preprocessed) -> f64;

    /// Human-readable configuration name for reports.
    fn name(&self) -> String;
}

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
    let rows = sweep(queries, views, |q, v| scorer.score(q, v), [Aggregation::WeightedSum], diag)?;
    Ok(rows.into_iter().map(|[class]| class).collect())
}

/// The one argmin loop: per query, `score` against every view in order,
/// then each of `aggs` picks its class from that one row of distances.
///
/// Each query's NaN distances are counted in `diag` once per
/// aggregation (they never win), and so is a query for which an
/// aggregation found no finite distance; that query falls back to
/// `views[0].class`. An empty `views` is an [`Error::EmptyReference`].
pub(crate) fn sweep<const N: usize>(
    queries: &[RefView],
    views: &[RefView],
    score: impl Fn(&Preprocessed, &Preprocessed) -> f64 + Sync,
    aggs: [Aggregation; N],
    diag: &Diagnostics,
) -> Result<Vec<[ObjectClass; N]>> {
    if views.is_empty() {
        return Err(Error::EmptyReference("reference set is empty"));
    }
    Ok(queries
        .par_iter()
        .map(|q| {
            let row: Vec<f64> = views.iter().map(|v| score(&q.feat, &v.feat)).collect();
            let nan = row.iter().filter(|d| d.is_nan()).count() as u64;
            aggs.map(|agg| {
                diag.record_nan_scores(nan);
                let (best, best_class) = match agg {
                    Aggregation::WeightedSum => {
                        let (mut best, mut best_class) = (f64::INFINITY, views[0].class);
                        for (v, &d) in views.iter().zip(&row) {
                            if d < best {
                                best = d;
                                best_class = v.class;
                            }
                        }
                        (best, best_class)
                    }
                    Aggregation::MicroAverage => {
                        // Average per (class, model) group.
                        argmin_grouped(views, &row, |v| (v.class.index(), v.model_id))
                    }
                    Aggregation::MacroAverage => {
                        argmin_grouped(views, &row, |v| (v.class.index(), 0))
                    }
                };
                if !best.is_finite() {
                    diag.record_degraded(1);
                }
                best_class
            })
        })
        .collect())
}

/// Argmin over group means; groups are keyed by `key(view)` and resolve
/// to `(mean, class)` of the winning group. A NaN group mean never wins
/// unless every mean is NaN; `views` must be non-empty (the caller
/// checks), and the all-NaN case still resolves deterministically to the
/// first group in key order.
fn argmin_grouped(
    views: &[RefView],
    row: &[f64],
    key: impl Fn(&RefView) -> (usize, usize),
) -> (f64, ObjectClass) {
    use std::collections::BTreeMap;
    let mut sums: BTreeMap<(usize, usize), (f64, usize, ObjectClass)> = BTreeMap::new();
    for (v, &d) in views.iter().zip(row) {
        let e = sums.entry(key(v)).or_insert((0.0, 0, v.class));
        e.0 += d;
        e.1 += 1;
    }
    // BTreeMap iterates in key order, so min_by ties (and the all-NaN
    // fallback) resolve to the first group in key order on every run.
    sums.into_iter()
        .map(|(_, (sum, n, class))| (sum / n as f64, class))
        .min_by(|a, b| nan_last_f64(a.0, b.0))
        .unwrap_or((f64::INFINITY, views[0].class))
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
