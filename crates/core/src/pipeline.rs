// taor-lint: allow(panic::index) — sweep kernel: every slot index comes from the plan `try_classify_columns` builds, so it is below the number of rows each query scores, and θ reads only earlier rows.
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
//! It, the hybrid pipeline and [`try_classify_columns`], which predicts
//! under many pipelines and aggregations at once, share one argmin loop,
//! `sweep`.

use crate::color_only::ColorScorer;
use crate::diag::Diagnostics;
use crate::error::{Error, Result};
use crate::hybrid::{Aggregation, HybridConfig};
use crate::preprocess::{preprocess, Background, Preprocessed};
use crate::recognizer::Method;
use crate::shape_only::ShapeScorer;
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
    let rows = |q: &Preprocessed| vec![views.iter().map(|v| scorer.score(q, &v.feat)).collect()];
    sweep(queries, views, rows, &[(0, Aggregation::WeightedSum, diag)]).map(only_column)
}

/// One prediction column of [`try_classify_columns`]: the pipeline whose
/// distance it reads, the aggregation that picks each query's class from
/// that distance's row, and the ledger its NaNs and fallbacks go to.
#[derive(Debug, Clone, Copy)]
pub struct Column<'a> {
    pub method: Method,
    pub agg: Aggregation,
    pub diag: &'a Diagnostics,
}

/// A distance a sweep scores once per (query, view) pair, into one row
/// per query, however many columns read it. Equal slots are one slot: a
/// NaN weight never equals itself, so its θ is scored once per column,
/// and ±0.0 weights can differ only in the sign of a zero θ, which no
/// comparison sees.
#[derive(Clone, Copy, PartialEq)]
enum Slot {
    Shape(ShapeScorer),
    Color(ColorScorer),
    /// θ from the rows of two earlier slots, shape then colour.
    Theta(HybridConfig, usize, usize),
}

/// Classify every query under each of `columns` in one sweep, returning
/// one prediction vector per column, in order.
///
/// Each distinct distance the columns read is computed once per (query,
/// view) pair. A hybrid column's θ is [`HybridConfig`]'s αS + βC over
/// the pair's shape and colour distances, so the ten NYU-v-SNS1 rows of
/// Table 2 cost seven distances and one θ per pair.
/// Each column records in its own `diag` what a call for that column
/// alone records ([`try_classify_per_view`] for a shape or colour column
/// under ΘT, [`try_classify_hybrid`](crate::hybrid::try_classify_hybrid)
/// for a hybrid one). An empty `views` is an [`Error::EmptyReference`].
pub fn try_classify_columns(
    queries: &[RefView],
    views: &[RefView],
    columns: &[Column<'_>],
) -> Result<Vec<Vec<ObjectClass>>> {
    let mut slots: Vec<Slot> = Vec::new();
    let mut slot_of = |slot: Slot| match slots.iter().position(|s| *s == slot) {
        Some(k) => k,
        None => {
            slots.push(slot);
            slots.len() - 1
        }
    };
    let reads: Vec<(usize, Aggregation, &Diagnostics)> = columns
        .iter()
        .map(|c| {
            let slot = match c.method {
                Method::Shape(s) => slot_of(Slot::Shape(s)),
                Method::Color(s) => slot_of(Slot::Color(s)),
                Method::Hybrid(h) => {
                    let (shape, color) =
                        (slot_of(Slot::Shape(h.shape)), slot_of(Slot::Color(h.color)));
                    slot_of(Slot::Theta(h, shape, color))
                }
            };
            (slot, c.agg, c.diag)
        })
        .collect();
    // One slot at a time over every view: one tight loop per distance.
    let rows = |q: &Preprocessed| {
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(slots.len());
        for slot in &slots {
            let row = match slot {
                Slot::Shape(s) => views.iter().map(|v| s.score(q, &v.feat)).collect(),
                Slot::Color(s) => views.iter().map(|v| s.score(q, &v.feat)).collect(),
                Slot::Theta(h, shape, color) => {
                    let pairs = rows[*shape].iter().zip(&rows[*color]);
                    pairs.map(|(&s, &c)| h.combine(s, c)).collect()
                }
            };
            rows.push(row);
        }
        rows
    };
    sweep(queries, views, rows, &reads)
}

/// The prediction vector of a one-column sweep.
pub(crate) fn only_column(mut columns: Vec<Vec<ObjectClass>>) -> Vec<ObjectClass> {
    columns.pop().unwrap_or_default()
}

/// The one argmin loop. Per query, `rows` scores every view, in order,
/// into one row of distances per slot; then each column
/// `(slot, agg, diag)` picks the query's class from its slot's row.
/// Returns one prediction vector per column.
///
/// Each column counts its row's NaN distances in its `diag` (they never
/// win), and so is a query for which its aggregation found no finite
/// distance; that query falls back to `views[0].class`. An empty `views`
/// is an [`Error::EmptyReference`].
fn sweep(
    queries: &[RefView],
    views: &[RefView],
    rows: impl Fn(&Preprocessed) -> Vec<Vec<f64>> + Sync,
    columns: &[(usize, Aggregation, &Diagnostics)],
) -> Result<Vec<Vec<ObjectClass>>> {
    if views.is_empty() {
        return Err(Error::EmptyReference("reference set is empty"));
    }
    let per_query: Vec<Vec<ObjectClass>> = queries
        .par_iter()
        .map(|q| {
            let rows = rows(&q.feat);
            columns
                .iter()
                .map(|&(slot, agg, diag)| {
                    let row = &rows[slot];
                    diag.record_nan_scores(row.iter().filter(|d| d.is_nan()).count() as u64);
                    let (best, best_class) = match agg {
                        Aggregation::WeightedSum => argmin(views, row),
                        // Average per (class, model) group.
                        Aggregation::MicroAverage => {
                            argmin_grouped(views, row, |v| (v.class.index(), v.model_id))
                        }
                        Aggregation::MacroAverage => {
                            argmin_grouped(views, row, |v| (v.class.index(), 0))
                        }
                    };
                    if !best.is_finite() {
                        diag.record_degraded(1);
                    }
                    best_class
                })
                .collect()
        })
        .collect();
    let mut preds = vec![Vec::with_capacity(queries.len()); columns.len()];
    for row in per_query {
        for (column, class) in preds.iter_mut().zip(row) {
            column.push(class);
        }
    }
    Ok(preds)
}

/// First-seen argmin over `row` with strict `<`, so a NaN never wins;
/// `(∞, views[0].class)` when no distance is finite.
fn argmin(views: &[RefView], row: &[f64]) -> (f64, ObjectClass) {
    let (mut best, mut best_class) = (f64::INFINITY, views[0].class);
    for (v, &d) in views.iter().zip(row) {
        if d < best {
            best = d;
            best_class = v.class;
        }
    }
    (best, best_class)
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
