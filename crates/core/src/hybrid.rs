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
use crate::pipeline::{only_column, try_classify_columns, Column, MatchScorer, RefView};
use crate::preprocess::Preprocessed;
use crate::recognizer::Method;
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
#[derive(Debug, Clone, Copy, PartialEq)]
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
        self.combine(self.shape.score(q, v), self.color.score(q, v))
    }

    /// θ from a pair's shape distance `s` and colour distance `c`: the one
    /// spelling of αS + βC, so a sweep that already has both gets θ's bits.
    pub(crate) fn combine(&self, s: f64, c: f64) -> f64 {
        self.alpha * s + self.beta * c
    }
}

/// Classify queries with the hybrid pipeline under one aggregation rule:
/// a one-column [`try_classify_columns`] sweep.
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
    let column = Column { method: Method::Hybrid(*cfg), agg, diag };
    try_classify_columns(queries, views, &[column]).map(only_column)
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
        let diag = Diagnostics::new();
        let columns =
            Aggregation::ALL.map(|agg| Column { method: Method::Hybrid(cfg), agg, diag: &diag });
        let all = try_classify_columns(&q, &r, &columns).unwrap();
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
