//! Fault-injection harness for the inference core.
//!
//! A mobile robot's segmentation front-end hands the recognition
//! pipelines whatever the scene produces: one-pixel slivers, constant
//! crops from over-exposed frames, sensor noise, or nothing at all. The
//! paper's controlled experiments never exercised those inputs; this
//! module makes them a first-class test target. [`adversarial_corpus`]
//! builds the degenerate crops, [`NanScorer`] poisons the match scores,
//! and [`run_fault_injection`] drives all five pipelines over them
//! under `catch_unwind`, reporting per-pipeline outcomes and the
//! degradation counters — the contract is *no panics, well-formed
//! outputs*, not good accuracy.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::{Rng, SeedableRng};
use taor_core::color_only::ColorScorer;
use taor_core::descriptors::{
    extract_index, try_classify_descriptors_with, AnnIndexMode, DescriptorKind,
};
use taor_core::diag::{Diagnostics, DiagnosticsReport};
use taor_core::error::Error;
use taor_core::hybrid::{try_classify_hybrid, Aggregation, HybridConfig};
use taor_core::pipeline::{prepare_views, try_classify_per_view, MatchScorer};
use taor_core::preprocess::{Background, Preprocessed};
use taor_core::shape_only::ShapeScorer;
use taor_core::siamese::image_to_tensor;
use taor_core::wire;
use taor_data::{Dataset, DatasetKind, LabeledImage, ObjectClass};
use taor_imgproc::histogram::HistCompare;
use taor_imgproc::image::RgbImage;
use taor_imgproc::moments::MatchShapesMode;
use taor_nn::{NetConfig, NormXCorrNet, TensorError};

/// One named degenerate input.
#[derive(Debug, Clone)]
pub struct AdversarialCase {
    /// Short name used in failure reports.
    pub name: &'static str,
    /// The crop itself.
    pub image: RgbImage,
}

fn constant(w: u32, h: u32, px: [u8; 3]) -> RgbImage {
    let mut img = RgbImage::new(w, h);
    for y in 0..h {
        for x in 0..w {
            img.put_pixel(x, y, px);
        }
    }
    img
}

/// The degenerate-crop corpus: everything a broken segmenter can emit.
///
/// Deterministic (fixed seed for the noise case) so failures reproduce.
pub fn adversarial_corpus() -> Vec<AdversarialCase> {
    let mut salt_pepper = RgbImage::new(32, 32);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(0xFAu64);
    for y in 0..32 {
        for x in 0..32 {
            let v = if rng.gen_bool(0.5) { 255 } else { 0 };
            salt_pepper.put_pixel(x, y, [v, v, v]);
        }
    }
    let mut gradient = RgbImage::new(48, 48);
    for y in 0..48u32 {
        for x in 0..48u32 {
            gradient.put_pixel(x, y, [(x * 5) as u8, (y * 5) as u8, ((x + y) * 2) as u8]);
        }
    }
    vec![
        AdversarialCase { name: "1x1_black", image: RgbImage::new(1, 1) },
        AdversarialCase { name: "1x1_white", image: constant(1, 1, [255, 255, 255]) },
        AdversarialCase { name: "2x2_gray", image: constant(2, 2, [128, 128, 128]) },
        AdversarialCase { name: "all_black_32", image: RgbImage::new(32, 32) },
        AdversarialCase { name: "all_white_32", image: constant(32, 32, [255, 255, 255]) },
        AdversarialCase { name: "mid_gray_64", image: constant(64, 64, [127, 127, 127]) },
        AdversarialCase { name: "strip_1x64", image: constant(1, 64, [90, 30, 200]) },
        AdversarialCase { name: "strip_64x1", image: constant(64, 1, [10, 250, 40]) },
        AdversarialCase { name: "salt_pepper_32", image: salt_pepper },
        AdversarialCase { name: "gradient_48", image: gradient },
    ]
}

/// A [`MatchScorer`] stub that poisons every comparison with NaN —
/// models a distance function dividing by a zero norm.
pub struct NanScorer;

impl MatchScorer for NanScorer {
    fn score(&self, _query: &Preprocessed, _view: &Preprocessed) -> f64 {
        f64::NAN
    }
    fn name(&self) -> String {
        "NaN-stub".into()
    }
}

/// Outcome of driving one pipeline over the adversarial corpus.
#[derive(Debug, Clone, serde::Serialize)]
pub struct PipelineOutcome {
    /// Pipeline label ("shape-only", "color-only", ...).
    pub pipeline: &'static str,
    /// Whether the pipeline panicked (the one unacceptable outcome).
    pub panicked: bool,
    /// Whether the output was well-formed: one prediction per query (or
    /// a typed error for structurally impossible requests).
    pub well_formed: bool,
    /// Human-readable detail on failure.
    pub detail: String,
}

/// Aggregate result of a fault-injection run.
#[derive(Debug, Clone, serde::Serialize)]
pub struct FaultReport {
    /// Per-pipeline outcomes.
    pub outcomes: Vec<PipelineOutcome>,
    /// Degradation counters accumulated across every pipeline driven.
    pub diagnostics: DiagnosticsReport,
}

impl FaultReport {
    /// Whether no pipeline panicked.
    pub fn no_panics(&self) -> bool {
        self.outcomes.iter().all(|o| !o.panicked)
    }

    /// Whether every pipeline produced well-formed output.
    pub fn all_well_formed(&self) -> bool {
        self.outcomes.iter().all(|o| o.well_formed)
    }

    /// Names of pipelines that panicked or produced malformed output.
    pub fn failures(&self) -> Vec<String> {
        self.outcomes
            .iter()
            .filter(|o| o.panicked || !o.well_formed)
            .map(|o| format!("{}: {}", o.pipeline, o.detail))
            .collect()
    }
}

/// Run one pipeline closure under `catch_unwind`, normalising the
/// outcome. The closure returns `Ok(detail)` when its output was
/// well-formed and `Err(detail)` otherwise.
fn drive(
    pipeline: &'static str,
    f: impl FnOnce() -> std::result::Result<String, String>,
) -> PipelineOutcome {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(detail)) => PipelineOutcome { pipeline, panicked: false, well_formed: true, detail },
        Ok(Err(detail)) => {
            PipelineOutcome { pipeline, panicked: false, well_formed: false, detail }
        }
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            PipelineOutcome {
                pipeline,
                panicked: true,
                well_formed: false,
                detail: format!("panicked: {msg}"),
            }
        }
    }
}

/// Check a `try_*` batch result: every query answered, or a typed error.
fn check_batch<T>(
    res: taor_core::error::Result<Vec<T>>,
    n_queries: usize,
) -> std::result::Result<String, String> {
    match res {
        Ok(preds) if preds.len() == n_queries => Ok(format!("{n_queries} queries answered")),
        Ok(preds) => Err(format!("{} predictions for {} queries", preds.len(), n_queries)),
        Err(e) => Err(format!("unexpected error: {e}")),
    }
}

/// A corpus as a query dataset (labels are irrelevant; the harness
/// checks shape, not accuracy).
fn images_to_dataset(images: Vec<RgbImage>) -> Dataset {
    let images = images
        .into_iter()
        .enumerate()
        .map(|(i, image)| LabeledImage {
            image,
            class: ObjectClass::from_index(i % ObjectClass::COUNT).unwrap_or(ObjectClass::Box),
            model_id: i,
            view_id: 0,
        })
        .collect();
    Dataset { kind: DatasetKind::NyuSet, images }
}

fn corpus_dataset() -> Dataset {
    images_to_dataset(adversarial_corpus().into_iter().map(|c| c.image).collect())
}

/// Drive all five pipelines over the adversarial corpus against
/// `catalog` as the reference set, plus the NaN-score stub and the
/// empty-reference error paths. Returns the per-pipeline outcomes and
/// accumulated degradation counters; it never panics itself.
pub fn run_fault_injection(catalog: &Dataset) -> FaultReport {
    let diag = Diagnostics::new();
    let crops = corpus_dataset();
    let mut outcomes = drive_pipelines(&crops, catalog, &diag);
    outcomes.extend(drive_stubs(&crops, catalog, &diag));
    FaultReport { outcomes, diagnostics: diag.report() }
}

/// The five real pipelines over an arbitrary query dataset.
fn drive_pipelines(crops: &Dataset, catalog: &Dataset, diag: &Diagnostics) -> Vec<PipelineOutcome> {
    let queries = prepare_views(crops, Background::Black);
    let refs = prepare_views(catalog, Background::White);
    let n = queries.len();
    let mut outcomes = Vec::new();

    // (i) shape-only and (ii) colour-only: per-view argmin matching.
    let shape = ShapeScorer { mode: MatchShapesMode::I3 };
    outcomes.push(drive("shape-only", || {
        check_batch(try_classify_per_view(&queries, &refs, &shape, diag), n)
    }));
    let color = ColorScorer { metric: HistCompare::Hellinger };
    outcomes.push(drive("color-only", || {
        check_batch(try_classify_per_view(&queries, &refs, &color, diag), n)
    }));

    // (iii) hybrid, every aggregation rule.
    let hybrid_cfg = HybridConfig::default();
    for agg in Aggregation::ALL {
        outcomes.push(drive(agg.label(), || {
            check_batch(try_classify_hybrid(&queries, &refs, &hybrid_cfg, agg, diag), n)
        }));
    }

    // (iv) descriptor matching (ORB: the cheapest family; featureless
    // constant crops must fall back, not abort).
    outcomes.push(drive("descriptors-orb", || {
        let q_idx = extract_index(crops, DescriptorKind::Orb);
        let r_idx = extract_index(catalog, DescriptorKind::Orb);
        check_batch(
            try_classify_descriptors_with(&q_idx, &r_idx, 0.75, diag, AnnIndexMode::Flat),
            n,
        )
    }));

    // (v) siamese: an untrained Normalized-X-Corr forward pass over every
    // query crop (resize + tensorise + full net), plus the
    // undersized-input error path.
    outcomes.push(drive("siamese-forward", || {
        let cfg = NetConfig {
            height: 32,
            width: 24,
            c1: 4,
            c2: 4,
            c3: 4,
            dense: 8,
            ..NetConfig::default()
        };
        let net = NormXCorrNet::new(cfg.clone()).map_err(|e| format!("constructor: {e}"))?;
        let reference_img =
            catalog.images.first().map(|i| &i.image).ok_or("catalog has no images")?;
        let reference = net
            .tower_embed(&image_to_tensor(reference_img, &cfg))
            .map_err(|e| format!("reference: tower failed: {e}"))?;
        for (i, labeled) in crops.images.iter().enumerate() {
            let t = image_to_tensor(&labeled.image, &cfg);
            net.tower_embed(&t)
                .and_then(|f| net.predict_similar_features(&f, &reference))
                .map_err(|e| format!("crop #{i}: forward failed: {e}"))?;
        }
        match NormXCorrNet::new(NetConfig { height: 6, width: 6, ..cfg }) {
            Err(TensorError::InputTooSmall { .. }) => {
                Ok("forward pass survived the corpus; undersized input is typed".into())
            }
            Err(e) => Err(format!("wrong error for undersized input: {e}")),
            Ok(_) => Err("6x6 input unexpectedly accepted".into()),
        }
    }));

    outcomes
}

/// The score-poisoning and empty-reference stubs: failure modes that
/// live below the image boundary.
fn drive_stubs(crops: &Dataset, _catalog: &Dataset, diag: &Diagnostics) -> Vec<PipelineOutcome> {
    let queries = prepare_views(crops, Background::Black);
    let refs = prepare_views(crops, Background::White);
    let n = queries.len();
    let shape = ShapeScorer { mode: MatchShapesMode::I3 };
    let mut outcomes = Vec::new();

    // NaN-score stub: the argmin must quarantine, not panic.
    outcomes.push(drive("nan-scorer", || {
        check_batch(try_classify_per_view(&queries, &refs, &NanScorer, diag), n)?;
        Ok("NaN scores quarantined in top-1 output".into())
    }));

    // Empty reference catalog: a typed error, never a panic or a guess.
    outcomes.push(drive("empty-reference", || {
        match try_classify_per_view(&queries, &[], &shape, diag) {
            Err(Error::EmptyReference(_)) => Ok("empty reference set rejected".into()),
            Err(e) => Err(format!("wrong error kind: {e}")),
            Ok(_) => Err("empty reference set produced predictions".into()),
        }
    }));

    outcomes
}

// ---------------------------------------------------------------------------
// Service-shaped corpus: raw byte buffers, as a client would POST them.
// ---------------------------------------------------------------------------

/// Expected wire-boundary outcome for a service-shaped buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceExpect {
    /// Decodes into a usable crop (possibly with quarantined samples).
    Decodes,
    /// Rejected at the wire boundary with a typed [`WireError`].
    ///
    /// [`WireError`]: taor_core::wire::WireError
    Rejected,
}

/// One named service-shaped input: the exact bytes a client would put
/// in a request body.
#[derive(Debug, Clone)]
pub struct ServiceCase {
    /// Short name used in failure reports.
    pub name: &'static str,
    /// The raw body bytes.
    pub bytes: Vec<u8>,
    /// What the wire decoder must do with them.
    pub expect: ServiceExpect,
}

/// A bare wire header with the given format tag and dimensions.
fn wire_header(format_tag: u8, width: u32, height: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(wire::WIRE_HEADER_LEN);
    out.extend_from_slice(&wire::WIRE_MAGIC);
    out.push(wire::WIRE_VERSION);
    out.push(format_tag);
    out.extend_from_slice(&width.to_le_bytes());
    out.extend_from_slice(&height.to_le_bytes());
    out
}

/// The service-shaped corpus: everything a hostile, buggy or flaky
/// client can put on the wire. Deterministic, so failures reproduce.
pub fn service_corpus() -> Vec<ServiceCase> {
    let mut gradient = RgbImage::new(48, 48);
    for y in 0..48u32 {
        for x in 0..48u32 {
            gradient.put_pixel(x, y, [(x * 5) as u8, (y * 5) as u8, ((x + y) * 2) as u8]);
        }
    }
    let valid = wire::encode_rgb8(&gradient);

    // An 8x8 float crop with a repeating ramp, poisoned with NaN and
    // infinity every seventh sample.
    let poisoned: Vec<f32> = (0..8 * 8 * 3)
        .map(|i| match i % 7 {
            0 => f32::NAN,
            3 => f32::INFINITY,
            _ => (i % 192) as f32 / 191.0,
        })
        .collect();
    let clean_f32: Vec<f32> = (0..8 * 8 * 3).map(|i| (i % 192) as f32 / 191.0).collect();

    let mut truncated_header = valid.clone();
    truncated_header.truncate(7);
    let mut truncated_payload = valid.clone();
    truncated_payload.truncate(valid.len() - 3);
    let mut trailing = valid.clone();
    trailing.extend_from_slice(&[0u8; 5]);
    let mut bad_magic = valid.clone();
    bad_magic[0] = b'X';
    let mut bad_version = valid.clone();
    bad_version[4] = 0;

    let mut bad_format = wire_header(9, 4, 4);
    bad_format.extend_from_slice(&[0u8; 4 * 4 * 3]);

    vec![
        ServiceCase { name: "valid_rgb8", bytes: valid, expect: ServiceExpect::Decodes },
        ServiceCase {
            name: "valid_f32",
            bytes: wire::encode_f32(8, 8, &clean_f32),
            expect: ServiceExpect::Decodes,
        },
        ServiceCase {
            name: "nan_pixels_f32",
            bytes: wire::encode_f32(8, 8, &poisoned),
            expect: ServiceExpect::Decodes,
        },
        ServiceCase { name: "empty_body", bytes: Vec::new(), expect: ServiceExpect::Rejected },
        ServiceCase {
            name: "truncated_header",
            bytes: truncated_header,
            expect: ServiceExpect::Rejected,
        },
        ServiceCase {
            name: "truncated_payload",
            bytes: truncated_payload,
            expect: ServiceExpect::Rejected,
        },
        ServiceCase { name: "trailing_bytes", bytes: trailing, expect: ServiceExpect::Rejected },
        ServiceCase {
            name: "zero_dimension_header",
            bytes: wire_header(0, 0, 16),
            expect: ServiceExpect::Rejected,
        },
        ServiceCase {
            name: "oversized_dims_header",
            bytes: wire_header(0, wire::MAX_WIRE_DIM + 1, 1),
            expect: ServiceExpect::Rejected,
        },
        ServiceCase { name: "bad_magic", bytes: bad_magic, expect: ServiceExpect::Rejected },
        ServiceCase { name: "bad_version", bytes: bad_version, expect: ServiceExpect::Rejected },
        ServiceCase { name: "bad_format_tag", bytes: bad_format, expect: ServiceExpect::Rejected },
    ]
}

/// Drive the service boundary under fault: decode every corpus buffer,
/// asserting typed rejection for the malformed ones, then push every
/// decodable crop through all five recognition pipelines. Never panics
/// itself.
pub fn run_service_fault_injection(catalog: &Dataset) -> FaultReport {
    let diag = Diagnostics::new();
    let mut outcomes = Vec::new();
    let mut decoded: Vec<RgbImage> = Vec::new();
    for case in service_corpus() {
        let ServiceCase { name, bytes, expect } = case;
        let dec = &mut decoded;
        outcomes.push(drive(name, move || match (wire::decode_crop(&bytes), expect) {
            (Ok((img, stats)), ServiceExpect::Decodes) => {
                dec.push(img);
                Ok(format!("decoded ({} samples quarantined)", stats.nan_pixels))
            }
            (Ok(_), ServiceExpect::Rejected) => Err("malformed buffer decoded successfully".into()),
            (Err(Error::Wire(e)), ServiceExpect::Rejected) => Ok(format!("rejected: {e}")),
            (Err(e), ServiceExpect::Rejected) => Err(format!("wrong error kind: {e}")),
            (Err(e), ServiceExpect::Decodes) => Err(format!("unexpected rejection: {e}")),
        }));
    }
    let crops = images_to_dataset(decoded);
    outcomes.extend(drive_pipelines(&crops, catalog, &diag));
    outcomes.extend(drive_stubs(&crops, catalog, &diag));
    FaultReport { outcomes, diagnostics: diag.report() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_covers_the_degenerate_shapes() {
        let corpus = adversarial_corpus();
        assert!(corpus.len() >= 8);
        assert!(corpus.iter().any(|c| c.image.dimensions() == (1, 1)));
        assert!(corpus.iter().any(|c| c.image.dimensions().0 == 1 && c.image.dimensions().1 > 1));
        assert!(corpus.iter().any(|c| c.image.dimensions().1 == 1 && c.image.dimensions().0 > 1));
        // Deterministic: two builds agree pixel for pixel.
        let again = adversarial_corpus();
        for (a, b) in corpus.iter().zip(&again) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.image.as_raw(), b.image.as_raw());
        }
    }

    #[test]
    fn nan_scorer_scores_nan() {
        let views = prepare_views(&corpus_dataset(), Background::Black);
        assert!(NanScorer.score(&views[0].feat, &views[0].feat).is_nan());
    }

    #[test]
    fn service_corpus_is_deterministic_and_covers_both_outcomes() {
        let corpus = service_corpus();
        assert!(corpus.len() >= 10);
        assert!(corpus.iter().any(|c| c.expect == ServiceExpect::Decodes));
        assert!(corpus.iter().filter(|c| c.expect == ServiceExpect::Rejected).count() >= 6);
        let again = service_corpus();
        for (a, b) in corpus.iter().zip(&again) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.bytes, b.bytes);
        }
    }

    #[test]
    fn service_decode_outcomes_match_expectations() {
        for case in service_corpus() {
            let res = wire::decode_crop(&case.bytes);
            match case.expect {
                ServiceExpect::Decodes => {
                    assert!(res.is_ok(), "{} failed to decode: {res:?}", case.name)
                }
                ServiceExpect::Rejected => assert!(
                    matches!(res, Err(Error::Wire(_))),
                    "{} was not rejected with a wire error",
                    case.name
                ),
            }
        }
    }
}
