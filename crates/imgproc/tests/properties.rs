//! Property-based tests for the image-processing substrate.

use proptest::prelude::*;
use taor_imgproc::prelude::*;
use taor_imgproc::resize::{resize_bilinear_f32, sample_bilinear};

/// Arbitrary small grayscale image with at least one foreground pixel.
fn arb_gray(max_side: u32) -> impl Strategy<Value = GrayImage> {
    (2..=max_side, 2..=max_side).prop_flat_map(|(w, h)| {
        proptest::collection::vec(any::<u8>(), (w * h) as usize)
            .prop_map(move |data| GrayImage::from_vec(w, h, data).unwrap())
    })
}

fn arb_rgb(max_side: u32) -> impl Strategy<Value = RgbImage> {
    (2..=max_side, 2..=max_side).prop_flat_map(|(w, h)| {
        proptest::collection::vec(any::<u8>(), (w * h * 3) as usize)
            .prop_map(move |data| RgbImage::from_vec(w, h, data).unwrap())
    })
}

/// The previous `resize_bilinear_rgb`, kept as the oracle: split the
/// crop into three `f32` planes, then [`sample_bilinear`] every output
/// sample.
fn resize_rgb_oracle(img: &RgbImage, new_w: u32, new_h: u32) -> RgbImage {
    let (w, h) = img.dimensions();
    let mut out = RgbImage::new(new_w, new_h);
    let mut planes = [GrayF32::new(w, h), GrayF32::new(w, h), GrayF32::new(w, h)];
    for (x, y, px) in img.enumerate_pixels() {
        for c in 0..3 {
            planes[c].put(x, y, px[c] as f32);
        }
    }
    let sx = w as f32 / new_w as f32;
    let sy = h as f32 / new_h as f32;
    for y in 0..new_h {
        for x in 0..new_w {
            let src_x = (x as f32 + 0.5) * sx - 0.5;
            let src_y = (y as f32 + 0.5) * sy - 0.5;
            let px = [
                sample_bilinear(&planes[0], src_x, src_y).round().clamp(0.0, 255.0) as u8,
                sample_bilinear(&planes[1], src_x, src_y).round().clamp(0.0, 255.0) as u8,
                sample_bilinear(&planes[2], src_x, src_y).round().clamp(0.0, 255.0) as u8,
            ];
            out.put_pixel(x, y, px);
        }
    }
    out
}

/// Arbitrary RGB crop from 1×1 up to `max_side` per side, any aspect.
fn arb_crop(max_side: u32) -> impl Strategy<Value = RgbImage> {
    (1..=max_side, 1..=max_side).prop_flat_map(|(w, h)| {
        proptest::collection::vec(any::<u8>(), (w * h * 3) as usize)
            .prop_map(move |data| RgbImage::from_vec(w, h, data).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn rgb_resize_matches_the_plane_split_oracle(
        img in arb_crop(40),
        w in 1u32..70,
        h in 1u32..70,
    ) {
        // Down- and upscales, non-square crops and targets, 1×1 at
        // either end.
        for (tw, th) in [(w, h), (1, 1), (24, 32), (img.width(), img.height())] {
            let got = resize_bilinear_rgb(&img, tw, th).unwrap();
            prop_assert_eq!(got, resize_rgb_oracle(&img, tw, th));
        }
    }
}

proptest! {
    #[test]
    fn threshold_outputs_only_0_and_255(img in arb_gray(24), t in any::<u8>()) {
        let bin = threshold_binary(&img, t);
        prop_assert!(bin.as_raw().iter().all(|&v| v == 0 || v == 255));
        let inv = threshold_binary_inv(&img, t);
        for (a, b) in bin.as_raw().iter().zip(inv.as_raw()) {
            prop_assert_eq!(a ^ b, 255);
        }
    }

    #[test]
    fn contours_cover_every_component_start(img in arb_gray(20)) {
        let bin = threshold_binary(&img, 127);
        let contours = find_contours(&bin);
        // Every contour's bounding rect lies inside the image.
        for c in &contours {
            let r = c.bounding_rect();
            prop_assert!(r.x + r.width <= bin.width());
            prop_assert!(r.y + r.height <= bin.height());
            // Every traced point is a foreground pixel.
            for p in &c.points {
                prop_assert!(bin.get(p.x as u32, p.y as u32) > 0);
            }
        }
    }

    #[test]
    fn contour_area_bounded_by_bounding_box(img in arb_gray(20)) {
        // Traced borders of thin 8-connected structures may self-intersect,
        // in which case the shoelace value double-counts wound regions (the
        // same caveat OpenCV documents for `contourArea`). The area is still
        // bounded by a small multiple of the bounding box.
        let bin = threshold_binary(&img, 100);
        for c in find_contours(&bin) {
            let bb = c.bounding_rect().area() as f64;
            prop_assert!(
                c.area() <= 2.0 * bb + 1.0,
                "polygon area {} >> bbox {}",
                c.area(),
                bb
            );
        }
    }

    #[test]
    fn hu_translation_invariance_prop(w in 2u32..10, h in 2u32..10, ox in 0u32..12, oy in 0u32..12) {
        let mut a = GrayImage::new(32, 32);
        let mut b = GrayImage::new(32, 32);
        for y in 0..h {
            for x in 0..w {
                a.put(x + 1, y + 1, 255);
                b.put(x + ox + 1, y + oy + 1, 255);
            }
        }
        let ha = hu_moments(&moments(&a, true));
        let hb = hu_moments(&moments(&b, true));
        for i in 0..7 {
            prop_assert!((ha[i] - hb[i]).abs() < 1e-9, "hu[{}]: {} vs {}", i, ha[i], hb[i]);
        }
    }

    #[test]
    fn match_shapes_symmetry_i2(img1 in arb_gray(16), img2 in arb_gray(16)) {
        let h1 = hu_moments(&moments(&threshold_binary(&img1, 127), true));
        let h2 = hu_moments(&moments(&threshold_binary(&img2, 127), true));
        let d12 = match_shapes(&h1, &h2, MatchShapesMode::I2);
        let d21 = match_shapes(&h2, &h1, MatchShapesMode::I2);
        // Degenerate (empty-contour) Hu vectors yield +inf on both sides;
        // finite distances must agree exactly.
        if d12.is_finite() || d21.is_finite() {
            prop_assert!((d12 - d21).abs() < 1e-12);
        } else {
            prop_assert_eq!(d12, f64::INFINITY);
            prop_assert_eq!(d21, f64::INFINITY);
        }
        prop_assert!(!d12.is_nan());
    }

    #[test]
    fn histogram_metrics_well_behaved(a in arb_rgb(12), b in arb_rgb(12)) {
        let ha = rgb_histogram(&a, 16).unwrap();
        let hb = rgb_histogram(&b, 16).unwrap();
        let corr = compare_hist(&ha, &hb, HistCompare::Correlation).unwrap();
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&corr));
        let hell = compare_hist(&ha, &hb, HistCompare::Hellinger).unwrap();
        prop_assert!((0.0..=1.0 + 1e-9).contains(&hell));
        let inter = compare_hist(&ha, &hb, HistCompare::Intersection).unwrap();
        prop_assert!((0.0..=3.0 + 1e-9).contains(&inter));
        let chi = compare_hist(&ha, &hb, HistCompare::ChiSquare).unwrap();
        prop_assert!(chi >= 0.0 && chi.is_finite());
    }

    #[test]
    fn hellinger_triangleish_self_identity(a in arb_rgb(10)) {
        let h = rgb_histogram(&a, 8).unwrap();
        prop_assert!(compare_hist(&h, &h, HistCompare::Hellinger).unwrap() < 1e-6);
        prop_assert_eq!(compare_hist(&h, &h, HistCompare::ChiSquare).unwrap(), 0.0);
    }

    #[test]
    fn resize_dimensions_honoured(img in arb_gray(16), w in 1u32..40, h in 1u32..40) {
        let r = resize_bilinear_f32(&img.to_f32(), w, h).unwrap();
        prop_assert_eq!(r.dimensions(), (w, h));
    }

    #[test]
    fn resize_output_within_input_range(img in arb_gray(12)) {
        let lo = f32::from(*img.as_raw().iter().min().unwrap());
        let hi = f32::from(*img.as_raw().iter().max().unwrap());
        let r = resize_bilinear_f32(&img.to_f32(), 7, 9).unwrap();
        for &v in r.as_raw() {
            prop_assert!(v >= lo - 1e-3 && v <= hi + 1e-3);
        }
    }

    #[test]
    fn gaussian_blur_stays_in_range(img in arb_gray(12), sigma in 0.3f32..3.0) {
        let f = img.to_f32();
        let b = gaussian_blur(&f, sigma).unwrap();
        for &v in b.as_raw() {
            prop_assert!((-0.5..=255.5).contains(&v));
        }
    }

    #[test]
    fn integral_box_sum_nonnegative_and_monotone(img in arb_gray(14)) {
        let ii = IntegralImage::from_gray(&img);
        let w = img.width() as i64;
        let h = img.height() as i64;
        let inner = ii.box_sum(1, 1, w - 2, h - 2);
        let outer = ii.box_sum(0, 0, w, h);
        prop_assert!(inner >= 0.0);
        prop_assert!(outer + 1e-9 >= inner);
    }

    #[test]
    fn crop_roundtrip_pixels(img in arb_rgb(12)) {
        let (w, h) = img.dimensions();
        let rect = Rect::new(0, 0, w, h);
        let c = img.crop(rect).unwrap();
        prop_assert_eq!(c, img);
    }

    #[test]
    fn gray_conversion_is_bounded_by_channel_extremes(img in arb_rgb(10)) {
        let g = rgb_to_gray(&img);
        for (x, y, [r, gr, b]) in img.enumerate_pixels() {
            let lo = r.min(gr).min(b);
            let hi = r.max(gr).max(b);
            let v = g.get(x, y);
            prop_assert!(v >= lo.saturating_sub(1) && v <= hi.saturating_add(1));
        }
    }
}
