//! Pipeline (ii): colour-only matching (paper §3.2).
//!
//! "comparing the RGB histograms of the input image pairs … we relied on
//! the OpenCV library and tested different comparison metrics, namely
//! Correlation, Chi-square, Intersection and Hellinger distance."
//!
//! Correlation and Intersection are similarities; to expose a uniform
//! lower-is-better interface (and to feed the hybrid combination, where
//! "the inverse of C was taken in those cases were histogram comparison
//! returned a similarity function with opposite trend"), the scorer
//! inverts them: `1 / max(C, ε)`.

use crate::pipeline::MatchScorer;
use crate::preprocess::Preprocessed;
use taor_imgproc::histogram::{compare_hist, HistCompare};

/// Floor for inverted similarity scores, so zero or negative correlation
/// maps to a very large (but finite) distance.
const SIM_FLOOR: f64 = 1e-6;

/// Histogram-comparison scorer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColorScorer {
    pub metric: HistCompare,
}

impl ColorScorer {
    /// The four metrics in paper order.
    pub const ALL: [ColorScorer; 4] = [
        ColorScorer { metric: HistCompare::Correlation },
        ColorScorer { metric: HistCompare::ChiSquare },
        ColorScorer { metric: HistCompare::Intersection },
        ColorScorer { metric: HistCompare::Hellinger },
    ];
}

impl MatchScorer for ColorScorer {
    fn score(&self, query: &Preprocessed, view: &Preprocessed) -> f64 {
        let c = compare_hist(&query.hist, &view.hist, self.metric);
        if self.metric.higher_is_more_similar() {
            1.0 / c.max(SIM_FLOOR)
        } else {
            c
        }
    }

    /// Table 2 row label.
    fn name(&self) -> String {
        format!("Color only {}", self.metric.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Diagnostics;
    use crate::pipeline::{prepare_views, truth_of, try_classify_per_view};
    use crate::preprocess::Background;
    use taor_data::shapenet_set1;

    #[test]
    fn labels_match_table2() {
        let labels: Vec<_> = ColorScorer::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            labels,
            [
                "Color only Correlation",
                "Color only Chi-square",
                "Color only Intersection",
                "Color only Hellinger"
            ]
        );
    }

    #[test]
    fn all_metrics_give_lower_is_better() {
        let views = prepare_views(&shapenet_set1(1), Background::White);
        for scorer in ColorScorer::ALL {
            let self_score = scorer.score(&views[0].feat, &views[0].feat);
            let cross_score = scorer.score(&views[0].feat, &views[40].feat);
            assert!(
                self_score <= cross_score,
                "{}: self {self_score} vs cross {cross_score}",
                scorer.name()
            );
        }
    }

    #[test]
    fn self_classification_is_high() {
        let views = prepare_views(&shapenet_set1(2), Background::White);
        let truth = truth_of(&views);
        for scorer in ColorScorer::ALL {
            let preds =
                try_classify_per_view(&views, &views, &scorer, &Diagnostics::new()).unwrap();
            let correct = preds.iter().zip(&truth).filter(|(p, t)| p == t).count();
            assert!(correct as f64 / truth.len() as f64 > 0.9, "{}: {correct}/82", scorer.name());
        }
    }

    #[test]
    fn negative_correlation_maps_to_huge_distance() {
        let views = prepare_views(&shapenet_set1(3), Background::White);
        let scorer = ColorScorer { metric: HistCompare::Correlation };
        // Any score must be finite and positive under the inversion rule.
        for v in views.iter().take(10) {
            let s = scorer.score(&views[0].feat, &v.feat);
            assert!(s.is_finite() && s > 0.0);
        }
    }
}
