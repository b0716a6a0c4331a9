//! Pipeline (i): shape-only matching (paper §3.2).
//!
//! "Contours extracted from input samples were matched through the OpenCV
//! built-in similarity function based on Hu moments \[15\] … We tested
//! three different variants of this method, with distance metric between
//! image moments set to be the L1, L2, or L3 norm respectively."

use crate::pipeline::MatchScorer;
use crate::preprocess::Preprocessed;
use taor_imgproc::moments::{match_shapes, MatchShapesMode};

/// Hu-moment shape scorer; the paper's L1/L2/L3 variants map to
/// [`MatchShapesMode::I1`]/[`I2`](MatchShapesMode::I2)/[`I3`](MatchShapesMode::I3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShapeScorer {
    pub mode: MatchShapesMode,
}

impl ShapeScorer {
    /// The three variants in paper order (L1, L2, L3).
    pub const ALL: [ShapeScorer; 3] = [
        ShapeScorer { mode: MatchShapesMode::I1 },
        ShapeScorer { mode: MatchShapesMode::I2 },
        ShapeScorer { mode: MatchShapesMode::I3 },
    ];
}

impl MatchScorer for ShapeScorer {
    fn score(&self, query: &Preprocessed, view: &Preprocessed) -> f64 {
        match_shapes(&query.log_hu, &view.log_hu, self.mode)
    }

    /// Table 2 row label.
    fn name(&self) -> String {
        match self.mode {
            MatchShapesMode::I1 => "Shape only L1",
            MatchShapesMode::I2 => "Shape only L2",
            MatchShapesMode::I3 => "Shape only L3",
        }
        .to_string()
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
        let labels: Vec<_> = ShapeScorer::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(labels, ["Shape only L1", "Shape only L2", "Shape only L3"]);
    }

    #[test]
    fn identical_views_score_zero() {
        let views = prepare_views(&shapenet_set1(1), Background::White);
        let s = ShapeScorer { mode: MatchShapesMode::I2 };
        assert_eq!(s.score(&views[0].feat, &views[0].feat), 0.0);
    }

    #[test]
    fn self_classification_beats_chance_strongly() {
        // Matching SNS1 against itself: the query view is in the reference
        // set at distance 0, so accuracy is 1.0 (ties cannot beat 0 first).
        let views = prepare_views(&shapenet_set1(2), Background::White);
        for scorer in ShapeScorer::ALL {
            let preds =
                try_classify_per_view(&views, &views, &scorer, &Diagnostics::new()).unwrap();
            let truth = truth_of(&views);
            let correct = preds.iter().zip(&truth).filter(|(p, t)| p == t).count();
            assert!(correct as f64 / truth.len() as f64 > 0.9, "{}: {correct}/82", scorer.name());
        }
    }
}
