//! Property-based tests for evaluation metrics and pipeline invariants.

use proptest::prelude::*;
use taor_core::prelude::*;
use taor_data::ObjectClass;

fn arb_classes(len: usize) -> impl Strategy<Value = Vec<ObjectClass>> {
    proptest::collection::vec(0usize..ObjectClass::COUNT, len)
        .prop_map(|v| v.into_iter().map(|i| ObjectClass::from_index(i).unwrap()).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn accuracy_bounded_and_consistent(truth in arb_classes(40), preds in arb_classes(40)) {
        let e = evaluate(&truth, &preds);
        prop_assert!((0.0..=1.0).contains(&e.cumulative_accuracy));
        // Confusion-matrix marginals: rows sum to class supports; the
        // total equals the sample count.
        let total: usize = e.confusion.iter().flatten().sum();
        prop_assert_eq!(total, 40);
        for (c, m) in e.per_class.iter().enumerate() {
            let row_sum: usize = e.confusion[c].iter().sum();
            prop_assert_eq!(row_sum, m.support);
            prop_assert!((0.0..=1.0).contains(&m.recall));
            prop_assert!((0.0..=1.0).contains(&m.precision_std));
            prop_assert!(m.precision_paper <= m.recall + 1e-12,
                "paper precision can never exceed recall (divides by N >= support)");
        }
        // Cumulative accuracy equals the diagonal mass.
        let diag: usize = (0..ObjectClass::COUNT).map(|i| e.confusion[i][i]).sum();
        prop_assert!((e.cumulative_accuracy - diag as f64 / 40.0).abs() < 1e-12);
    }

    #[test]
    fn self_evaluation_is_perfect(truth in arb_classes(25)) {
        let e = evaluate(&truth, &truth);
        prop_assert_eq!(e.cumulative_accuracy, 1.0);
        for m in &e.per_class {
            if m.support > 0 {
                prop_assert_eq!(m.recall, 1.0);
                prop_assert_eq!(m.precision_std, 1.0);
            }
        }
    }

    #[test]
    fn binary_metrics_bounded(
        truth in proptest::collection::vec(0usize..2, 30),
        preds in proptest::collection::vec(0usize..2, 30),
    ) {
        let e = evaluate_binary(&truth, &preds);
        for m in [e.similar, e.dissimilar] {
            prop_assert!((0.0..=1.0).contains(&m.precision));
            prop_assert!((0.0..=1.0).contains(&m.recall));
            prop_assert!(m.f1 <= 1.0 + 1e-12);
            // F1 is bounded by min and max of P and R (harmonic mean).
            if m.precision > 0.0 && m.recall > 0.0 {
                prop_assert!(m.f1 >= m.precision.min(m.recall) - 1e-9);
                prop_assert!(m.f1 <= m.precision.max(m.recall) + 1e-9);
            }
        }
        prop_assert_eq!(e.similar.support + e.dissimilar.support, 30);
    }

    #[test]
    fn iou_bounded_and_symmetric(
        ax in 0u32..50, ay in 0u32..50, aw in 1u32..30, ah in 1u32..30,
        bx in 0u32..50, by in 0u32..50, bw in 1u32..30, bh in 1u32..30,
    ) {
        let a = taor_imgproc::Rect::new(ax, ay, aw, ah);
        let b = taor_imgproc::Rect::new(bx, by, bw, bh);
        let v = iou(&a, &b);
        prop_assert!((0.0..=1.0).contains(&v));
        prop_assert!((v - iou(&b, &a)).abs() < 1e-12);
        prop_assert_eq!(iou(&a, &a), 1.0);
    }

    #[test]
    fn random_baseline_deterministic_and_bounded(truth in arb_classes(60), seed in any::<u64>()) {
        let p1 = random_baseline(&truth, seed);
        let p2 = random_baseline(&truth, seed);
        prop_assert_eq!(&p1, &p2);
        let e = evaluate(&truth, &p1);
        prop_assert!(e.cumulative_accuracy < 0.55, "baseline suspiciously strong");
    }
}

// ---------------------------------------------------------------------------
// Wire codec. Crop bytes come off the network, so the decoder must answer
// every input with a crop or a typed `Error::Wire` and never panic, and
// whatever the encoders write must decode back to the same pixels.
// ---------------------------------------------------------------------------

/// A header with the current magic and version.
fn wire_header(format: u8, width: u32, height: u32) -> Vec<u8> {
    let mut out = WIRE_MAGIC.to_vec();
    out.push(WIRE_VERSION);
    out.push(format);
    out.extend_from_slice(&width.to_le_bytes());
    out.extend_from_slice(&height.to_le_bytes());
    out
}

/// `bytes` decode to a crop of the size its header names, or to a wire
/// error.
fn decodes_or_rejects(bytes: &[u8]) -> Result<(), String> {
    match decode_crop(bytes) {
        Ok((img, stats)) => {
            let le = |at: usize| {
                u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
            };
            prop_assert_eq!(img.dimensions(), (le(6), le(10)));
            prop_assert!(stats.nan_pixels <= img.as_raw().len() as u64);
            Ok(())
        }
        Err(taor_core::Error::Wire(_)) => Ok(()),
        Err(other) => Err(format!("{} bytes: not a wire error: {other:?}", bytes.len())),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn decode_crop_answers_arbitrary_bytes(bytes in collection::vec(any::<u8>(), 0..48)) {
        decodes_or_rejects(&bytes)?;
    }

    #[test]
    fn decode_crop_answers_a_valid_header_with_any_payload(
        (format, width, height, payload) in (0u8..2, 1u32..6, 1u32..6, any::<bool>())
            .prop_flat_map(|(format, width, height, exact)| {
                let sample_bytes = if format == 0 { 1 } else { 4 };
                let expected = (width * height * 3) as usize * sample_bytes;
                // Half the cases carry exactly the promised length, so the
                // accepting path sees arbitrary (for RGBF32, sometimes
                // non-finite) samples.
                let len = if exact { expected..expected + 1 } else { 0..expected + 8 };
                (Just(format), Just(width), Just(height), collection::vec(any::<u8>(), len))
            }),
    ) {
        let mut bytes = wire_header(format, width, height);
        bytes.extend_from_slice(&payload);
        decodes_or_rejects(&bytes)?;
    }

    #[test]
    fn rgb8_encoding_round_trips(
        (width, height, raw) in (1u32..9, 1u32..9).prop_flat_map(|(width, height)| {
            let n = (width * height * 3) as usize;
            (Just(width), Just(height), collection::vec(any::<u8>(), n))
        }),
    ) {
        let img = taor_imgproc::image::RgbImage::from_vec(width, height, raw).unwrap();
        let (back, stats) = decode_crop(&encode_rgb8(&img)).unwrap();
        prop_assert_eq!(back.dimensions(), (width, height));
        prop_assert_eq!(back.as_raw(), img.as_raw());
        prop_assert_eq!(stats.nan_pixels, 0);
    }

    #[test]
    fn f32_encoding_counts_every_non_finite_sample(
        (width, height, samples, poison) in (1u32..6, 1u32..6).prop_flat_map(|(width, height)| {
            let n = (width * height * 3) as usize;
            (Just(width), Just(height), collection::vec(-0.5f32..1.5, n), collection::vec(0u8..6, n))
        }),
    ) {
        // Poison codes 0-2 put NaN, +inf or -inf in place of the sample.
        let mixed: Vec<f32> = samples
            .iter()
            .zip(&poison)
            .map(|(&s, &p)| match p {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                _ => s,
            })
            .collect();
        let non_finite = mixed.iter().filter(|v| !v.is_finite()).count() as u64;
        let (img, stats) = decode_crop(&encode_f32(width, height, &mixed)).unwrap();
        prop_assert_eq!(img.dimensions(), (width, height));
        prop_assert_eq!(stats.nan_pixels, non_finite);
        for (v, &b) in mixed.iter().zip(img.as_raw()) {
            prop_assert!(v.is_finite() || b == 0, "a quarantined sample decodes as 0");
        }
    }
}
