// taor-lint: allow(panic::index) — dense numeric kernel: indices are derived from dimensions validated at the public boundary and bounded by the enclosing loops.
//! Evaluation metrics matching the paper's tables.
//!
//! Two conventions are needed:
//!
//! * **Multi-class tables (2, 5–9).** Per class the paper reports
//!   "Accuracy" (= within-class recall), "Precision", "Recall" and "F1".
//!   Reverse-engineering the numbers shows the paper's *Precision* is
//!   `TP_c / N_total` — the true positives of the class over the size of
//!   the whole evaluation set, not over the class's predicted-positive
//!   count (e.g. Table 5 baseline, Chair: recall 0.156, precision
//!   0.0225 = 0.156 · 1000 / 6934). [`ClassMetrics`] carries both that
//!   paper-convention precision and the standard one.
//! * **Binary pair table (4).** Standard per-class precision/recall/F1
//!   with support counts.

use serde::Serialize;
use taor_data::ObjectClass;

/// Per-class metrics for the multi-class pipelines.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ClassMetrics {
    /// Within-class accuracy (identical to recall; the paper lists both).
    pub accuracy: f64,
    /// The paper's precision convention: `TP / N_total`.
    pub precision_paper: f64,
    /// Standard precision: `TP / predicted-positive`.
    pub precision_std: f64,
    pub recall: f64,
    /// F1 computed from the paper's precision (to match its tables).
    pub f1: f64,
    /// Number of ground-truth samples of this class.
    pub support: usize,
}

/// Full evaluation of a multi-class prediction run.
#[derive(Debug, Clone, Serialize)]
pub struct Evaluation {
    /// Cross-class cumulative accuracy (the paper's headline number).
    pub cumulative_accuracy: f64,
    /// Per-class metrics in Table 1 class order.
    pub per_class: Vec<ClassMetrics>,
    /// Confusion matrix: `confusion[truth][pred]`.
    pub confusion: Vec<Vec<usize>>,
}

/// Evaluate predictions against ground truth (both as class indices).
///
/// # Panics
/// Panics if the slices disagree in length or contain out-of-range
/// indices — those are harness bugs, not data conditions.
pub fn evaluate(truth: &[ObjectClass], predictions: &[ObjectClass]) -> Evaluation {
    assert_eq!(truth.len(), predictions.len(), "truth/prediction length mismatch");
    assert!(!truth.is_empty(), "cannot evaluate an empty prediction set");
    let k = ObjectClass::COUNT;
    let n = truth.len() as f64;
    let mut confusion = vec![vec![0usize; k]; k];
    for (t, p) in truth.iter().zip(predictions) {
        confusion[t.index()][p.index()] += 1;
    }
    let mut per_class = Vec::with_capacity(k);
    let mut correct_total = 0usize;
    for (c, row) in confusion.iter().enumerate() {
        let tp = row[c];
        correct_total += tp;
        let support: usize = row.iter().sum();
        let predicted: usize = confusion.iter().map(|r| r[c]).sum();
        let recall = if support > 0 { tp as f64 / support as f64 } else { 0.0 };
        let precision_paper = tp as f64 / n;
        let precision_std = if predicted > 0 { tp as f64 / predicted as f64 } else { 0.0 };
        let f1 = if precision_paper + recall > 0.0 {
            2.0 * precision_paper * recall / (precision_paper + recall)
        } else {
            0.0
        };
        per_class.push(ClassMetrics {
            accuracy: recall,
            precision_paper,
            precision_std,
            recall,
            f1,
            support,
        });
    }
    Evaluation { cumulative_accuracy: correct_total as f64 / n, per_class, confusion }
}

/// Randomised label assignment — the paper's reference baseline for every
/// experiment. Deterministic per seed.
pub fn random_baseline(truth: &[ObjectClass], seed: u64) -> Vec<ObjectClass> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    truth
        .iter()
        .map(|_| ObjectClass::from_index(rng.gen_range(0..ObjectClass::COUNT)).expect("in range")) // taor-lint: allow(panic::expect) — invariant expect: the message states why this cannot fail on valid state
        .collect()
}

/// Binary-classification metrics for one class of the pair task.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BinaryClassMetrics {
    pub precision: f64,
    pub recall: f64,
    pub f1: f64,
    pub support: usize,
}

/// Table-4-style report: metrics for "Similar" (label 1) and "Dissimilar"
/// (label 0).
#[derive(Debug, Clone, Serialize)]
pub struct BinaryEvaluation {
    pub similar: BinaryClassMetrics,
    pub dissimilar: BinaryClassMetrics,
    pub accuracy: f64,
}

/// Evaluate a binary (similar/dissimilar) prediction run with standard
/// metrics, as used by the paper's Table 4.
pub fn evaluate_binary(truth: &[usize], predictions: &[usize]) -> BinaryEvaluation {
    assert_eq!(truth.len(), predictions.len(), "truth/prediction length mismatch");
    assert!(!truth.is_empty(), "cannot evaluate an empty prediction set");
    let metric_for = |positive: usize| {
        let tp =
            truth.iter().zip(predictions).filter(|(&t, &p)| t == positive && p == positive).count();
        let pred_pos = predictions.iter().filter(|&&p| p == positive).count();
        let support = truth.iter().filter(|&&t| t == positive).count();
        let precision = if pred_pos > 0 { tp as f64 / pred_pos as f64 } else { 0.0 };
        let recall = if support > 0 { tp as f64 / support as f64 } else { 0.0 };
        let f1 = if precision + recall > 0.0 {
            2.0 * precision * recall / (precision + recall)
        } else {
            0.0
        };
        BinaryClassMetrics { precision, recall, f1, support }
    };
    let correct = truth.iter().zip(predictions).filter(|(t, p)| t == p).count();
    BinaryEvaluation {
        similar: metric_for(1),
        dissimilar: metric_for(0),
        accuracy: correct as f64 / truth.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classes(idx: &[usize]) -> Vec<ObjectClass> {
        idx.iter().map(|&i| ObjectClass::from_index(i).unwrap()).collect()
    }

    #[test]
    fn perfect_predictions() {
        let truth = classes(&[0, 1, 2, 3]);
        let eval = evaluate(&truth, &truth);
        assert_eq!(eval.cumulative_accuracy, 1.0);
        assert_eq!(eval.per_class[0].recall, 1.0);
        assert_eq!(eval.per_class[0].precision_std, 1.0);
        // Paper precision divides by the whole set.
        assert_eq!(eval.per_class[0].precision_paper, 0.25);
    }

    #[test]
    fn paper_precision_convention_reproduces_baseline_numbers() {
        // Table 5 baseline, Chair: recall 0.156 on support 1000 of 6934
        // gives paper-precision 0.0225 and F1 0.0393.
        let tp = 156;
        let support = 1000;
        let total = 6934;
        let mut truth = Vec::new();
        let mut pred = Vec::new();
        // `tp` chairs predicted chair, rest of chairs predicted bottle.
        for i in 0..support {
            truth.push(ObjectClass::Chair);
            pred.push(if i < tp { ObjectClass::Chair } else { ObjectClass::Bottle });
        }
        // Fill the remaining samples with non-chair truth predicted paper.
        for _ in support..total {
            truth.push(ObjectClass::Table);
            pred.push(ObjectClass::Paper);
        }
        let eval = evaluate(&truth, &pred);
        let chair = eval.per_class[ObjectClass::Chair.index()];
        assert!((chair.recall - 0.156).abs() < 1e-9);
        assert!((chair.precision_paper - 0.0225).abs() < 2e-4, "{}", chair.precision_paper);
        assert!((chair.f1 - 0.0393).abs() < 5e-4, "{}", chair.f1);
    }

    #[test]
    fn confusion_matrix_rows_sum_to_support() {
        let truth = classes(&[0, 0, 1, 2, 2, 2]);
        let pred = classes(&[0, 1, 1, 2, 0, 2]);
        let eval = evaluate(&truth, &pred);
        assert_eq!(eval.confusion[0][0], 1);
        assert_eq!(eval.confusion[0][1], 1);
        assert_eq!(eval.per_class[2].support, 3);
        assert!((eval.cumulative_accuracy - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_class_has_zero_metrics_without_nan() {
        let truth = classes(&[0, 0]);
        let pred = classes(&[1, 1]);
        let eval = evaluate(&truth, &pred);
        let m = eval.per_class[3];
        assert_eq!(m.recall, 0.0);
        assert_eq!(m.precision_std, 0.0);
        assert_eq!(m.f1, 0.0);
        assert!(m.f1.is_finite());
    }

    #[test]
    fn random_baseline_near_ten_percent() {
        let truth: Vec<ObjectClass> =
            (0..5000).map(|i| ObjectClass::from_index(i % 10).unwrap()).collect();
        let pred = random_baseline(&truth, 2019);
        let eval = evaluate(&truth, &pred);
        assert!(
            (eval.cumulative_accuracy - 0.1).abs() < 0.02,
            "baseline accuracy {}",
            eval.cumulative_accuracy
        );
        // Deterministic per seed.
        assert_eq!(pred, random_baseline(&truth, 2019));
        assert_ne!(pred, random_baseline(&truth, 2020));
    }

    #[test]
    fn binary_all_positive_collapse() {
        // The Normalized-X-Corr failure mode: everything predicted similar.
        let truth: Vec<usize> = (0..1000).map(|i| usize::from(i < 90)).collect(); // 90 similar
        let pred = vec![1usize; 1000];
        let eval = evaluate_binary(&truth, &pred);
        assert!((eval.similar.precision - 0.09).abs() < 1e-12);
        assert_eq!(eval.similar.recall, 1.0);
        assert_eq!(eval.dissimilar.precision, 0.0);
        assert_eq!(eval.dissimilar.recall, 0.0);
        assert_eq!(eval.dissimilar.f1, 0.0);
        assert_eq!(eval.similar.support, 90);
        assert_eq!(eval.dissimilar.support, 910);
    }

    #[test]
    fn binary_perfect() {
        let truth = vec![0, 1, 0, 1];
        let eval = evaluate_binary(&truth, &truth);
        assert_eq!(eval.accuracy, 1.0);
        assert_eq!(eval.similar.f1, 1.0);
        assert_eq!(eval.dissimilar.f1, 1.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let truth = classes(&[0]);
        let pred = classes(&[0, 1]);
        evaluate(&truth, &pred);
    }
}
