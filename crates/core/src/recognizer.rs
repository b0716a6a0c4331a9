//! High-level recognition facade.
//!
//! The pipelines in this crate are exposed piecemeal for the repro
//! harness; a robot stack wants one object that owns a prepared reference
//! catalog and answers "what is this crop?" with a label, a confidence
//! and a hypothesis ranking. [`Recognizer`] bundles exactly that, over
//! any of the paper's matching pipelines.

use crate::color_only::ColorScorer;
use crate::diag::{Diagnostics, DiagnosticsReport};
use crate::error::{Error, Result};
use crate::hybrid::HybridConfig;
use crate::pipeline::{prepare_views, MatchScorer, RefView};
use crate::preprocess::{preprocess, Background, HIST_BINS};
use crate::shape_only::ShapeScorer;
use std::sync::Arc;
use taor_data::{Dataset, ObjectClass};
use taor_imgproc::cmp::nan_last_f64;
use taor_imgproc::image::RgbImage;

/// Which matching pipeline the recognizer runs.
#[derive(Debug, Clone, Copy)]
pub enum Method {
    /// Hu-moment shape matching (the paper's L3 variant by default).
    Shape(ShapeScorer),
    /// RGB-histogram matching.
    Color(ColorScorer),
    /// The hybrid αS + βC weighted sum.
    Hybrid(HybridConfig),
}

impl Default for Method {
    fn default() -> Self {
        // The paper's most consistent configuration.
        Method::Hybrid(HybridConfig::default())
    }
}

/// One recognition result.
#[derive(Debug, Clone)]
pub struct Recognition {
    /// Top-1 label.
    pub class: ObjectClass,
    /// Softmax-style confidence over the per-class best distances
    /// (1 = the best class is far ahead of the runner-up).
    pub confidence: f64,
    /// Full hypothesis ranking, best first.
    pub ranking: Vec<ObjectClass>,
    /// Per-class minimum distances, Table 1 class order.
    pub distances: [f64; ObjectClass::COUNT],
    /// The grounded synset of the top-1 label.
    pub synset: taor_data::Synset,
    /// Whether this answer came from a fallback path (nothing matched:
    /// uniform confidence) rather than a real ranking.
    pub degraded: bool,
}

/// A ready-to-use recogniser over a prepared reference catalog.
///
/// The reference views are `Arc`-shared and the diagnostics ledger is
/// too, so `Clone` is cheap: clones answer queries over the same
/// precomputed gallery and fold their degradation counts into one
/// shared ledger — exactly what a multi-worker service needs.
#[derive(Clone)]
pub struct Recognizer {
    refs: Arc<[RefView]>,
    method: Method,
    query_background: Background,
    diag: Arc<Diagnostics>,
}

impl Recognizer {
    /// Build from a catalog dataset (preprocessed once, white-background
    /// convention) and a matching method. `query_background` states which
    /// convention incoming crops use (black masks for robot/NYU crops).
    /// An empty catalog is an [`Error::EmptyReference`].
    pub fn try_new(
        catalog: &Dataset,
        method: Method,
        query_background: Background,
    ) -> Result<Self> {
        if catalog.is_empty() {
            return Err(Error::EmptyReference("reference catalog is empty"));
        }
        Ok(Recognizer {
            refs: prepare_views(catalog, Background::White).into(),
            method,
            query_background,
            diag: Arc::new(Diagnostics::new()),
        })
    }

    /// Snapshot of the degradation counters accumulated over every
    /// [`Recognizer::recognize`] call so far (NaN distances quarantined,
    /// crops answered via the uniform-confidence fallback).
    pub fn diagnostics(&self) -> DiagnosticsReport {
        self.diag.report()
    }

    /// Number of reference views held.
    pub fn reference_count(&self) -> usize {
        self.refs.len()
    }

    fn distance(&self, q: &crate::preprocess::Preprocessed, v: &RefView) -> f64 {
        match &self.method {
            Method::Shape(s) => s.score(q, &v.feat),
            Method::Color(s) => s.score(q, &v.feat),
            Method::Hybrid(h) => {
                h.alpha * h.shape.score(q, &v.feat) + h.beta * h.color.score(q, &v.feat)
            }
        }
    }

    /// Recognise one segmented crop. Never panics: NaN distances are
    /// quarantined (counted in [`Recognizer::diagnostics`], never
    /// winning the argmin) and a crop that matches nothing still yields
    /// a full ranking with uniform confidence, counted as degraded.
    pub fn recognize(&self, crop: &RgbImage) -> Recognition {
        let q = preprocess(crop, self.query_background, HIST_BINS);
        rank_scores(self.refs.iter().map(|v| (v.class, self.distance(&q, v))), &self.diag)
    }
}

/// The ranking rule every recogniser answers with, over one distance
/// per reference view. Each class scores its best (smallest) distance;
/// NaN distances never win and are counted in `diag`. The classes rank
/// by that distance (NaN last), and the confidence is the softmin margin
/// between the best and second-best finite distances (0.5 = tie, → 1 as
/// the gap grows; 1 when only one class matched). When nothing matched,
/// the confidence is uniform and the answer is degraded, counted in
/// `diag` too.
pub fn rank_scores(
    scores: impl IntoIterator<Item = (ObjectClass, f64)>,
    diag: &Diagnostics,
) -> Recognition {
    let mut best = [f64::INFINITY; ObjectClass::COUNT];
    let mut nan_seen = 0u64;
    for (class, d) in scores {
        if d.is_nan() {
            nan_seen += 1;
        } else if let Some(slot) = best.get_mut(class.index()) {
            if d < *slot {
                *slot = d;
            }
        }
    }
    diag.record_nan_scores(nan_seen);
    let dist = |i: usize| best.get(i).copied().unwrap_or(f64::INFINITY);
    let mut order: Vec<usize> = (0..ObjectClass::COUNT).collect();
    order.sort_by(|&a, &b| nan_last_f64(dist(a), dist(b)));
    let ranking: Vec<ObjectClass> =
        order.iter().copied().filter_map(ObjectClass::from_index).collect();
    let d1 = order.first().map_or(f64::INFINITY, |&i| dist(i));
    let d2 = order.get(1).map_or(f64::INFINITY, |&i| dist(i));
    let degraded = !d1.is_finite();
    let confidence = if degraded {
        diag.record_degraded(1);
        1.0 / ObjectClass::COUNT as f64
    } else if !d2.is_finite() {
        1.0
    } else {
        let gap = (d2 - d1).max(0.0);
        let scale = d1.abs().max(1e-6);
        1.0 - 0.5 * (-gap / scale).exp()
    };
    let class = ranking.first().copied().unwrap_or(ObjectClass::Box);
    Recognition { class, confidence, ranking, distances: best, synset: class.synset(), degraded }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taor_data::{nyu_set_subsampled, shapenet_set1};

    fn recognizer() -> Recognizer {
        Recognizer::try_new(&shapenet_set1(2019), Method::default(), Background::Black).unwrap()
    }

    #[test]
    fn recognises_crops_with_full_output() {
        let r = recognizer();
        assert_eq!(r.reference_count(), 82);
        let crops = nyu_set_subsampled(2019, 2);
        let rec = r.recognize(&crops.images[0].image);
        assert_eq!(rec.ranking.len(), 10);
        assert_eq!(rec.ranking[0], rec.class);
        assert!((0.0..=1.0).contains(&rec.confidence));
        assert!(!rec.synset.hypernyms.is_empty());
        // Distances are sorted consistently with the ranking.
        let d0 = rec.distances[rec.ranking[0].index()];
        let d1 = rec.distances[rec.ranking[1].index()];
        assert!(d0 <= d1);
    }

    #[test]
    fn beats_chance_on_a_batch() {
        let r = recognizer();
        let crops = nyu_set_subsampled(2019, 12);
        let n = crops.images.len() as f64;
        let top_k = |k: usize| {
            let hits = crops
                .images
                .iter()
                .filter(|i| r.recognize(&i.image).ranking[..k].contains(&i.class));
            hits.count() as f64 / n
        };
        let t1 = top_k(1);
        let t3 = top_k(3);
        assert!(t1 > 0.10, "top-1 {t1}");
        assert!(t3 > t1, "top-3 {t3} should exceed top-1 {t1}");
    }

    #[test]
    fn shape_and_color_methods_run() {
        let catalog = shapenet_set1(1);
        let crops = nyu_set_subsampled(1, 1);
        for method in [
            Method::Shape(ShapeScorer::ALL[2]),
            Method::Color(ColorScorer::ALL[3]),
            Method::default(),
        ] {
            let r = Recognizer::try_new(&catalog, method, Background::Black).unwrap();
            let rec = r.recognize(&crops.images[0].image);
            assert!(rec.confidence.is_finite());
        }
    }

    #[test]
    fn degenerate_crop_gets_uniformish_confidence() {
        let r = recognizer();
        // An all-black crop: preprocessing falls back, distances may all be
        // infinite for shape; the recogniser must stay well-defined.
        let crop = RgbImage::new(32, 32);
        let rec = r.recognize(&crop);
        assert!(rec.confidence.is_finite());
        assert_eq!(rec.ranking.len(), 10);
        // The degraded flag agrees with the ledger.
        assert_eq!(rec.degraded, r.diagnostics().degraded > 0);
    }

    #[test]
    fn clones_share_the_gallery_and_the_ledger() {
        let r = recognizer();
        let clone = r.clone();
        assert!(Arc::ptr_eq(&r.refs, &clone.refs));
        // A degraded answer recorded through the clone is visible on the
        // original's ledger: the counters are one shared ledger.
        let rec = clone.recognize(&RgbImage::new(32, 32));
        if rec.degraded {
            assert!(r.diagnostics().degraded >= 1);
        }
    }

    #[test]
    fn rank_scores_quarantines_nan_and_flags_an_empty_match() {
        let diag = Diagnostics::new();
        let rec = rank_scores(
            [(ObjectClass::Lamp, f64::NAN), (ObjectClass::Book, 0.5), (ObjectClass::Book, 0.2)],
            &diag,
        );
        assert_eq!(rec.class, ObjectClass::Book);
        assert_eq!(rec.distances[ObjectClass::Book.index()], 0.2);
        assert_eq!(rec.confidence, 1.0, "one matched class is certain");
        assert!(!rec.degraded);
        assert_eq!((diag.report().nan_scores, diag.report().degraded), (1, 0));

        let rec = rank_scores([(ObjectClass::Lamp, f64::NAN)], &diag);
        assert!(rec.degraded);
        assert_eq!(rec.confidence, 1.0 / ObjectClass::COUNT as f64);
        assert_eq!(rec.ranking.len(), ObjectClass::COUNT);
        assert_eq!((diag.report().nan_scores, diag.report().degraded), (2, 1));
    }
}
