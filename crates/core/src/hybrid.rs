//! Pipeline (iii): hybrid shape + colour matching (paper §3.2).
//!
//! "Let S and C be the scores obtained with shape-only and colour-only
//! matching … with α and β being their relative weights. Then, the
//! weighted sum of scores is defined as θ = αS + βC" — with the inverse
//! of C taken for similarity-trending metrics, and the selected model
//! minimising θ under three aggregation strategies:
//!
//! * **ΘT (weighted sum)** — argmin over every individual view θt,
//! * **ΘZ (micro-average)** — θ averaged per *model* first,
//! * **ΘC (macro-average)** — θ averaged per *class* first.
//!
//! The paper reports the Hu-L3 + Hellinger configuration at α = 0.3,
//! β = 0.7 as its most consistent hybrid; those are the defaults here.

use crate::color_only::ColorScorer;
use crate::diag::Diagnostics;
use crate::error::Result;
use crate::pipeline::{sweep, MatchScorer, RefView};
use crate::preprocess::Preprocessed;
use crate::shape_only::ShapeScorer;
use taor_data::ObjectClass;
use taor_imgproc::histogram::HistCompare;
use taor_imgproc::moments::MatchShapesMode;

/// Aggregation strategy for the hybrid argmin. Per-view classification
/// ([`try_classify_per_view`](crate::pipeline::try_classify_per_view))
/// is the ΘT rule over one scorer's distances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregation {
    /// ΘT: argmin over all individual views.
    WeightedSum,
    /// ΘZ: average θ per model, argmin over models.
    MicroAverage,
    /// ΘC: average θ per class, argmin over classes.
    MacroAverage,
}

impl Aggregation {
    /// The three strategies in the paper's table order.
    pub const ALL: [Aggregation; 3] =
        [Aggregation::WeightedSum, Aggregation::MicroAverage, Aggregation::MacroAverage];

    /// Row label used in Tables 2, 7 and 8.
    pub fn label(&self) -> &'static str {
        match self {
            Aggregation::WeightedSum => "Shape+Color (weighted sum)",
            Aggregation::MicroAverage => "Shape+Color (micro-avg)",
            Aggregation::MacroAverage => "Shape+Color (macro-avg)",
        }
    }
}

/// Hybrid pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub struct HybridConfig {
    pub shape: ShapeScorer,
    pub color: ColorScorer,
    pub alpha: f64,
    pub beta: f64,
}

impl Default for HybridConfig {
    fn default() -> Self {
        // The configuration the paper reports: Hu L3 + Hellinger,
        // α = 0.3, β = 0.7.
        HybridConfig {
            shape: ShapeScorer { mode: MatchShapesMode::I3 },
            color: ColorScorer { metric: HistCompare::Hellinger },
            alpha: 0.3,
            beta: 0.7,
        }
    }
}

impl HybridConfig {
    /// θ = αS + βC for one (query, view) pair.
    pub(crate) fn theta(&self, q: &Preprocessed, v: &Preprocessed) -> f64 {
        self.alpha * self.shape.score(q, v) + self.beta * self.color.score(q, v)
    }
}

/// Classify queries with the hybrid pipeline under one aggregation rule.
///
/// An empty reference set is an
/// [`Error::EmptyReference`](crate::Error::EmptyReference); NaN θ scores
/// are quarantined (counted in `diag`, never winning the argmin under
/// any aggregation); a query for which no group produced a finite mean
/// falls back to the first reference view's class and is counted as
/// degraded.
pub fn try_classify_hybrid(
    queries: &[RefView],
    views: &[RefView],
    cfg: &HybridConfig,
    agg: Aggregation,
    diag: &Diagnostics,
) -> Result<Vec<ObjectClass>> {
    let rows = sweep(queries, views, |q, v| cfg.theta(q, v), [agg], diag)?;
    Ok(rows.into_iter().map(|[class]| class).collect())
}

/// [`try_classify_hybrid`] under all three aggregations, in
/// [`Aggregation::ALL`] order, from one θ sweep: each (query, view) θ is
/// computed once and read by every aggregation.
///
/// Predictions and `diag` counts are exactly those of three single
/// calls: each query's NaN θs are counted once per aggregation, and a
/// degraded query once per aggregation that found no finite group.
pub fn try_classify_hybrid_all(
    queries: &[RefView],
    views: &[RefView],
    cfg: &HybridConfig,
    diag: &Diagnostics,
) -> Result<[Vec<ObjectClass>; 3]> {
    let mut preds: [Vec<ObjectClass>; 3] = Default::default();
    for row in sweep(queries, views, |q, v| cfg.theta(q, v), Aggregation::ALL, diag)? {
        for (column, class) in preds.iter_mut().zip(row) {
            column.push(class);
        }
    }
    Ok(preds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{prepare_views, truth_of};
    use crate::preprocess::Background;
    use taor_data::{shapenet_set1, shapenet_set2};

    fn classify(
        q: &[RefView],
        r: &[RefView],
        cfg: &HybridConfig,
        agg: Aggregation,
    ) -> Vec<ObjectClass> {
        try_classify_hybrid(q, r, cfg, agg, &Diagnostics::new()).unwrap()
    }

    #[test]
    fn labels_match_table2() {
        let labels: Vec<_> = Aggregation::ALL.iter().map(|a| a.label()).collect();
        assert_eq!(
            labels,
            ["Shape+Color (weighted sum)", "Shape+Color (micro-avg)", "Shape+Color (macro-avg)"]
        );
    }

    #[test]
    fn self_classification_weighted_sum_perfect() {
        let views = prepare_views(&shapenet_set1(1), Background::White);
        let preds = classify(&views, &views, &HybridConfig::default(), Aggregation::WeightedSum);
        assert_eq!(preds, truth_of(&views));
    }

    #[test]
    fn all_aggregations_produce_predictions() {
        let q = prepare_views(&shapenet_set2(2), Background::White);
        let r = prepare_views(&shapenet_set1(2), Background::White);
        for agg in Aggregation::ALL {
            let preds = classify(&q, &r, &HybridConfig::default(), agg);
            assert_eq!(preds.len(), q.len());
        }
    }

    #[test]
    fn aggregations_differ_in_general() {
        let q = prepare_views(&shapenet_set2(3), Background::White);
        let r = prepare_views(&shapenet_set1(3), Background::White);
        let cfg = HybridConfig::default();
        let a = classify(&q, &r, &cfg, Aggregation::WeightedSum);
        let b = classify(&q, &r, &cfg, Aggregation::MacroAverage);
        assert!(a.iter().zip(&b).any(|(x, y)| x != y), "ΘT and ΘC should disagree on some queries");
    }

    #[test]
    fn one_sweep_matches_three_single_calls() {
        let q = prepare_views(&shapenet_set2(5), Background::White);
        let r = prepare_views(&shapenet_set1(5), Background::White);
        let cfg = HybridConfig::default();
        let all = try_classify_hybrid_all(&q, &r, &cfg, &Diagnostics::new()).unwrap();
        for (agg, preds) in Aggregation::ALL.into_iter().zip(&all) {
            assert_eq!(preds, &classify(&q, &r, &cfg, agg), "{}", agg.label());
        }
    }

    #[test]
    fn zero_alpha_reduces_to_color_only() {
        let q = prepare_views(&shapenet_set2(4), Background::White);
        let r = prepare_views(&shapenet_set1(4), Background::White);
        let cfg = HybridConfig { alpha: 0.0, beta: 1.0, ..Default::default() };
        let hybrid = classify(&q, &r, &cfg, Aggregation::WeightedSum);
        let color = crate::pipeline::try_classify_per_view(&q, &r, &cfg.color, &Diagnostics::new())
            .unwrap();
        assert_eq!(hybrid, color);
    }
}
