//! Fault-injection suite for the inference core.
//!
//! Drives all five pipelines over the adversarial corpus (1×1 slivers,
//! constant-colour crops, sensor noise, NaN-poisoned scorers, empty
//! reference catalogs) and asserts the hardening contract: **no panics,
//! well-formed outputs, degradation counted** — never good accuracy.

use proptest::prelude::*;
use std::sync::OnceLock;
use taor_core::prelude::*;
use taor_core::Error;
use taor_data::{catalog_custom, Dataset, DatasetKind, LabeledImage, ObjectClass};
use taor_imgproc::histogram::HistCompare;
use taor_imgproc::moments::MatchShapesMode;
use taor_imgproc::RgbImage;
use taor_nn::{NetConfig, NormXCorrNet};
use taor_testkit::fault::{
    adversarial_corpus, run_fault_injection, run_service_fault_injection, service_corpus,
    NanScorer, ServiceExpect,
};

/// A small but real reference catalog (1 model x 2 views per class),
/// shared across cases so proptest iterations stay cheap.
fn ref_catalog() -> &'static Dataset {
    static CAT: OnceLock<Dataset> = OnceLock::new();
    CAT.get_or_init(|| catalog_custom(2019, 1, 2))
}

fn ref_views() -> &'static [RefView] {
    static VIEWS: OnceLock<Vec<RefView>> = OnceLock::new();
    VIEWS.get_or_init(|| prepare_views(ref_catalog(), Background::White))
}

fn ref_orb() -> &'static DescriptorIndex {
    static IDX: OnceLock<DescriptorIndex> = OnceLock::new();
    IDX.get_or_init(|| extract_index(ref_catalog(), DescriptorKind::Orb))
}

fn untrained_net() -> &'static (NormXCorrNet, NetConfig) {
    static NET: OnceLock<(NormXCorrNet, NetConfig)> = OnceLock::new();
    NET.get_or_init(|| {
        let cfg = NetConfig {
            height: 32,
            width: 24,
            c1: 2,
            c2: 2,
            c3: 2,
            dense: 4,
            ..NetConfig::default()
        };
        let net = NormXCorrNet::new(cfg.clone()).expect("32x24 fits the architecture");
        (net, cfg)
    })
}

fn constant_img(w: u32, h: u32, px: [u8; 3]) -> RgbImage {
    let mut img = RgbImage::new(w, h);
    for y in 0..h {
        for x in 0..w {
            img.put_pixel(x, y, px);
        }
    }
    img
}

fn query_of(img: &RgbImage) -> RefView {
    RefView {
        class: ObjectClass::Box, // placeholder truth; the harness checks shape, not accuracy
        model_id: 0,
        feat: preprocess(img, Background::Black),
    }
}

// ---------------------------------------------------------------------
// The full harness: every pipeline, the whole corpus, one report.
// ---------------------------------------------------------------------

#[test]
fn all_pipelines_survive_the_adversarial_corpus() {
    let report = run_fault_injection(ref_catalog());
    assert!(report.no_panics(), "pipelines panicked: {:?}", report.failures());
    assert!(report.all_well_formed(), "malformed outputs: {:?}", report.failures());
    // The corpus is built to trigger quarantine/fallback paths; a fully
    // clean ledger would mean the counters are not wired through.
    assert!(
        !report.diagnostics.is_clean(),
        "adversarial corpus should exercise the degradation counters: {:?}",
        report.diagnostics
    );
}

// ---------------------------------------------------------------------
// The service boundary: raw byte buffers through the wire decoder, the
// decodable crops through every pipeline.
// ---------------------------------------------------------------------

#[test]
fn all_pipelines_survive_the_service_corpus() {
    let report = run_service_fault_injection(ref_catalog());
    assert!(report.no_panics(), "service pipelines panicked: {:?}", report.failures());
    assert!(report.all_well_formed(), "malformed service outputs: {:?}", report.failures());
}

#[test]
fn service_corpus_decodables_run_every_pipeline_individually() {
    // Beyond the aggregate harness: each decodable buffer, decoded by
    // hand, through shape, colour, hybrid, descriptors and siamese.
    let diag = Diagnostics::new();
    let (net, cfg) = untrained_net();
    let reference = net.tower_embed(&image_to_tensor(&ref_catalog().images[0].image, cfg)).unwrap();
    for case in service_corpus() {
        let Ok((img, stats)) = decode_crop(&case.bytes) else { continue };
        if case.name == "nan_pixels_f32" {
            assert!(stats.nan_pixels > 0, "poisoned buffer must report quarantined samples");
        }
        let queries = [query_of(&img)];
        let shape = ShapeScorer { mode: MatchShapesMode::I3 };
        let color = ColorScorer { metric: HistCompare::Hellinger };
        assert_eq!(
            try_classify_per_view(&queries, ref_views(), &shape, &diag).unwrap().len(),
            1,
            "{}: shape-only",
            case.name
        );
        assert_eq!(
            try_classify_per_view(&queries, ref_views(), &color, &diag).unwrap().len(),
            1,
            "{}: color-only",
            case.name
        );
        for agg in Aggregation::ALL {
            let preds =
                try_classify_hybrid(&queries, ref_views(), &HybridConfig::default(), agg, &diag)
                    .unwrap();
            assert_eq!(preds.len(), 1, "{}: hybrid {}", case.name, agg.label());
        }
        let ds = Dataset {
            kind: DatasetKind::NyuSet,
            images: vec![LabeledImage {
                image: img.clone(),
                class: ObjectClass::Box,
                model_id: 0,
                view_id: 0,
            }],
        };
        let q_idx = extract_index(&ds, DescriptorKind::Orb);
        let preds =
            try_classify_descriptors_with(&q_idx, ref_orb(), 0.75, &diag, AnnIndexMode::Flat)
                .unwrap();
        assert_eq!(preds.len(), 1, "{}: descriptors", case.name);
        let t = image_to_tensor(&img, cfg);
        let scored = net.tower_embed(&t).and_then(|f| net.predict_similar_features(&f, &reference));
        assert!(scored.is_ok(), "{}: siamese", case.name);
    }
}

#[test]
fn malformed_service_buffers_are_typed_wire_errors() {
    for case in service_corpus() {
        match (decode_crop(&case.bytes), case.expect) {
            (Ok(_), ServiceExpect::Decodes) => {}
            (Err(Error::Wire(_)), ServiceExpect::Rejected) => {}
            (res, expect) => {
                panic!("{}: expected {expect:?}, got {res:?}", case.name)
            }
        }
    }
}

// ---------------------------------------------------------------------
// NaN-injection regression: the eleven partial_cmp().expect() sorts used
// to panic on the first NaN; now NaNs rank last and are counted.
// ---------------------------------------------------------------------

#[test]
fn nan_scores_yield_a_ranking_instead_of_a_panic() {
    let queries: Vec<RefView> = adversarial_corpus().iter().map(|c| query_of(&c.image)).collect();
    let diag = Diagnostics::new();

    let top1 = try_classify_per_view(&queries, ref_views(), &NanScorer, &diag)
        .expect("NaN scores must degrade, not error");
    assert_eq!(top1.len(), queries.len());

    assert!(diag.nan_scores() > 0, "quarantined NaNs must be counted");
    assert!(diag.degraded() > 0, "all-NaN queries fall back and must be counted");
}

// ---------------------------------------------------------------------
// The one sweep: every shape, colour and hybrid column of one
// `try_classify_columns` call must predict and count exactly what a
// single call per column does, with θ formed from the sweep's own L3 and
// Hellinger values.
// ---------------------------------------------------------------------

/// Table 2's ten columns under `cfg`, each family recording in its own
/// ledger (shape, colour, hybrid), as `repro` scores them.
fn table2_columns<'a>(cfg: &HybridConfig, ledgers: &'a [Diagnostics; 3]) -> Vec<Column<'a>> {
    let per_view = |method, diag| Column { method, agg: Aggregation::WeightedSum, diag };
    let mut columns: Vec<Column<'a>> = Vec::new();
    columns.extend(ShapeScorer::ALL.map(|s| per_view(Method::Shape(s), &ledgers[0])));
    columns.extend(ColorScorer::ALL.map(|s| per_view(Method::Color(s), &ledgers[1])));
    columns.extend(Aggregation::ALL.map(|agg| Column {
        method: Method::Hybrid(*cfg),
        agg,
        diag: &ledgers[2],
    }));
    columns
}

#[test]
fn fused_hybrid_matches_three_single_calls_on_the_corpus() {
    let queries: Vec<RefView> = adversarial_corpus().iter().map(|c| query_of(&c.image)).collect();
    // The default weights, and NaN weights that poison every θ but no
    // shape or colour distance of the same sweep.
    let poisoned = HybridConfig { alpha: f64::NAN, ..HybridConfig::default() };
    for cfg in [HybridConfig::default(), poisoned] {
        let fused_diag: [Diagnostics; 3] = Default::default();
        let fused = try_classify_columns(&queries, ref_views(), &table2_columns(&cfg, &fused_diag))
            .unwrap();
        let single_diag: [Diagnostics; 3] = Default::default();
        let mut preds = fused.iter();
        for s in ShapeScorer::ALL {
            let single = try_classify_per_view(&queries, ref_views(), &s, &single_diag[0]).unwrap();
            assert_eq!(preds.next(), Some(&single), "alpha {}: {}", cfg.alpha, s.name());
        }
        for s in ColorScorer::ALL {
            let single = try_classify_per_view(&queries, ref_views(), &s, &single_diag[1]).unwrap();
            assert_eq!(preds.next(), Some(&single), "alpha {}: {}", cfg.alpha, s.name());
        }
        for agg in Aggregation::ALL {
            let single =
                try_classify_hybrid(&queries, ref_views(), &cfg, agg, &single_diag[2]).unwrap();
            assert_eq!(preds.next(), Some(&single), "alpha {}: {}", cfg.alpha, agg.label());
        }
        assert_eq!(preds.next(), None);
        for (fused, single) in fused_diag.iter().zip(&single_diag) {
            assert_eq!(fused.report(), single.report(), "alpha {}", cfg.alpha);
        }
    }
    // Under the poisoned weights the hybrid ledger counts every θ.
    let ledgers: [Diagnostics; 3] = Default::default();
    try_classify_columns(&queries, ref_views(), &table2_columns(&poisoned, &ledgers)).unwrap();
    let views = ref_views().len() as u64;
    let n = queries.len() as u64;
    assert_eq!(ledgers[2].nan_scores(), 3 * n * views, "every θ, once per aggregation");
    assert_eq!(ledgers[2].degraded(), 3 * n, "every query, once per aggregation");
}

// ---------------------------------------------------------------------
// Empty reference catalogs: typed errors, never panics or fabricated
// predictions.
// ---------------------------------------------------------------------

#[test]
fn empty_catalogs_are_typed_errors() {
    let empty = Dataset { kind: DatasetKind::NyuSet, images: Vec::new() };
    let queries = vec![query_of(&constant_img(8, 8, [50, 90, 130]))];
    let diag = Diagnostics::new();

    assert!(matches!(
        Recognizer::try_new(&empty, Method::Hybrid(HybridConfig::default()), Background::Black),
        Err(Error::EmptyReference(_))
    ));
    assert!(matches!(
        try_classify_per_view(&queries, &[], &NanScorer, &diag),
        Err(Error::EmptyReference(_))
    ));
    assert!(matches!(
        try_classify_hybrid(
            &queries,
            &[],
            &HybridConfig::default(),
            Aggregation::WeightedSum,
            &diag
        ),
        Err(Error::EmptyReference(_))
    ));
    let column = Column { method: Method::default(), agg: Aggregation::MacroAverage, diag: &diag };
    assert!(matches!(
        try_classify_columns(&queries, &[], &[column]),
        Err(Error::EmptyReference(_))
    ));
    let empty_idx = extract_index(&empty, DescriptorKind::Orb);
    let q_idx = extract_index(ref_catalog(), DescriptorKind::Orb);
    assert!(matches!(
        try_classify_descriptors_with(&q_idx, &empty_idx, 0.75, &diag, AnnIndexMode::Flat),
        Err(Error::EmptyReference(_))
    ));
}

// ---------------------------------------------------------------------
// Degenerate-input property tests: random tiny constant-colour crops
// through each of the five pipelines.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn tiny_crops_never_panic_the_matchers(
        (w, h, r, g, b) in (1u32..6, 1u32..6, 0u8..=255, 0u8..=255, 0u8..=255),
    ) {
        let queries = [query_of(&constant_img(w, h, [r, g, b]))];
        let diag = Diagnostics::new();
        let shape = ShapeScorer { mode: MatchShapesMode::I3 };
        let color = ColorScorer { metric: HistCompare::Hellinger };
        prop_assert_eq!(
            try_classify_per_view(&queries, ref_views(), &shape, &diag).unwrap().len(), 1
        );
        prop_assert_eq!(
            try_classify_per_view(&queries, ref_views(), &color, &diag).unwrap().len(), 1
        );
        for agg in Aggregation::ALL {
            let preds = try_classify_hybrid(
                &queries, ref_views(), &HybridConfig::default(), agg, &diag,
            ).unwrap();
            prop_assert_eq!(preds.len(), 1);
        }
    }

    #[test]
    fn tiny_crops_never_panic_descriptor_matching(
        (w, h, r, g, b) in (1u32..6, 1u32..6, 0u8..=255, 0u8..=255, 0u8..=255),
    ) {
        let ds = Dataset {
            kind: DatasetKind::NyuSet,
            images: vec![LabeledImage {
                image: constant_img(w, h, [r, g, b]),
                class: ObjectClass::Box,
                model_id: 0,
                view_id: 0,
            }],
        };
        let q_idx = extract_index(&ds, DescriptorKind::Orb);
        let diag = Diagnostics::new();
        let preds =
            try_classify_descriptors_with(&q_idx, ref_orb(), 0.75, &diag, AnnIndexMode::Flat)
                .unwrap();
        prop_assert_eq!(preds.len(), 1);
        // A featureless constant crop is a per-item fallback, not an abort.
        prop_assert!(diag.degraded() <= 1);
    }

    #[test]
    fn tiny_crops_never_panic_the_siamese_forward(
        (w, h, r, g, b) in (1u32..6, 1u32..6, 0u8..=255, 0u8..=255, 0u8..=255),
    ) {
        let (net, cfg) = untrained_net();
        let a = image_to_tensor(&constant_img(w, h, [r, g, b]), cfg);
        let b = image_to_tensor(&ref_catalog().images[0].image, cfg);
        let out = net
            .tower_embed(&a)
            .and_then(|fa| net.predict_similar_features(&fa, &net.tower_embed(&b)?));
        prop_assert!(out.is_ok(), "forward pass failed: {:?}", out.err());
    }

    #[test]
    fn tiny_frames_never_panic_segmentation(
        (w, h, r, g, b) in (1u32..6, 1u32..6, 0u8..=255, 0u8..=255, 0u8..=255),
    ) {
        let frame = constant_img(w, h, [r, g, b]);
        let cfg = SegmentConfig::default();
        // A degenerate frame may yield zero segments but must not panic,
        // and the empty background model stays a typed error.
        prop_assert!(try_segment_frame(&frame, &cfg).is_ok());
        let res = mask_against(&frame, &[], cfg.color_threshold);
        prop_assert!(matches!(res, Err(Error::EmptyInput("background color model"))));
    }
}
