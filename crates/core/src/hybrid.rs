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
use crate::error::{Error, Result};
use crate::pipeline::{MatchScorer, RefView};
use crate::shape_only::ShapeScorer;
use rayon::prelude::*;
use taor_data::ObjectClass;
use taor_imgproc::cmp::nan_last_f64;
use taor_imgproc::histogram::HistCompare;
use taor_imgproc::moments::MatchShapesMode;

/// Aggregation strategy for the hybrid argmin.
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
    /// θ for one (query, view) pair.
    fn theta(
        &self,
        q: &crate::preprocess::Preprocessed,
        v: &crate::preprocess::Preprocessed,
    ) -> f64 {
        self.alpha * self.shape.score(q, v) + self.beta * self.color.score(q, v)
    }
}

/// Classify queries with the hybrid pipeline under one aggregation rule.
///
/// An empty reference set is an [`Error::EmptyReference`]; NaN θ scores
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
    if views.is_empty() {
        return Err(Error::EmptyReference("reference set is empty"));
    }
    Ok(queries
        .par_iter()
        .map(|q| {
            let thetas: Vec<f64> = views.iter().map(|v| cfg.theta(&q.feat, &v.feat)).collect();
            diag.record_nan_scores(thetas.iter().filter(|t| t.is_nan()).count() as u64);
            let (best, best_class) = match agg {
                Aggregation::WeightedSum => {
                    let (mut best, mut best_class) = (f64::INFINITY, views[0].class);
                    for (v, &t) in views.iter().zip(&thetas) {
                        if t < best {
                            best = t;
                            best_class = v.class;
                        }
                    }
                    (best, best_class)
                }
                Aggregation::MicroAverage => {
                    // Average per (class, model) group.
                    argmin_grouped(views, &thetas, |v| (v.class.index(), v.model_id))
                }
                Aggregation::MacroAverage => {
                    argmin_grouped(views, &thetas, |v| (v.class.index(), 0))
                }
            };
            if !best.is_finite() {
                diag.record_degraded(1);
            }
            best_class
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
    thetas: &[f64],
    key: impl Fn(&RefView) -> (usize, usize),
) -> (f64, ObjectClass) {
    use std::collections::BTreeMap;
    let mut sums: BTreeMap<(usize, usize), (f64, usize, ObjectClass)> = BTreeMap::new();
    for (v, &t) in views.iter().zip(thetas) {
        let e = sums.entry(key(v)).or_insert((0.0, 0, v.class));
        e.0 += t;
        e.1 += 1;
    }
    // BTreeMap iterates in key order, so min_by ties (and the all-NaN
    // fallback) resolve to the first group in key order on every run.
    sums.into_iter()
        .map(|(_, (sum, n, class))| (sum / n as f64, class))
        .min_by(|a, b| nan_last_f64(a.0, b.0))
        .unwrap_or((f64::INFINITY, views[0].class))
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
