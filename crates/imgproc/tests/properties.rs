//! Property-based tests for the image-processing substrate.

use proptest::prelude::*;
use taor_imgproc::contour::Point;
use taor_imgproc::draw::{p2, P2};
use taor_imgproc::prelude::*;
use taor_imgproc::resize::{resize_bilinear_f32, sample_bilinear};
use taor_testkit::draw::fill_ellipse;
use taor_testkit::oracle::compare_hist_dense;

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

/// The grey image as RGB with r = g = b, whose luma is the grey value, so
/// thresholding it thresholds the grey values themselves.
fn grey_rgb(img: &GrayImage) -> RgbImage {
    let data = img.as_raw().iter().flat_map(|&v| [v, v, v]).collect();
    RgbImage::from_vec(img.width(), img.height(), data).unwrap()
}

/// The per-pair `matchShapes` that took both sides' logs on every call,
/// kept as the oracle of [`match_shapes`] over cached [`LogHu`] vectors:
/// `log_sign` plus the early-abandon kernel at an infinite bound.
fn match_shapes_oracle(a: &HuMoments, b: &HuMoments, mode: MatchShapesMode) -> f64 {
    fn log_sign(h: f64) -> Option<f64> {
        if h.abs() > f64::MIN_POSITIVE {
            Some(h.signum() * h.abs().log10())
        } else {
            None
        }
    }
    let bound = f64::INFINITY;
    let mut acc = 0.0f64;
    let mut compared = 0usize;
    for i in 0..7 {
        let (Some(ma), Some(mb)) = (log_sign(a[i]), log_sign(b[i])) else {
            continue;
        };
        compared += 1;
        match mode {
            MatchShapesMode::I1 => acc += (1.0 / ma - 1.0 / mb).abs(),
            MatchShapesMode::I2 => acc += (ma - mb).abs(),
            MatchShapesMode::I3 => {
                let d = (ma - mb).abs() / ma.abs();
                if d > acc {
                    acc = d;
                }
            }
        }
        if acc >= bound {
            return acc;
        }
    }
    if compared == 0 {
        f64::INFINITY
    } else {
        acc
    }
}

/// One Hu invariant, weighted towards the edge cases of the log-signed
/// transform: zeros, `±MIN_POSITIVE`, subnormals, `±1` (log 0), `±∞`,
/// NaN, arbitrary bit patterns and realistic magnitudes.
fn arb_hu_component() -> impl Strategy<Value = f64> {
    (0u8..12, any::<u64>(), any::<bool>()).prop_map(|(kind, bits, negative)| {
        let v = match kind {
            0 => 0.0,
            1 => f64::MIN_POSITIVE,
            2 => f64::from_bits(bits % (1 << 52)), // subnormal (or zero)
            3 => 1.0,
            4 => f64::INFINITY,
            5 => f64::NAN,
            6 | 7 => f64::from_bits(bits),
            // Hu invariants of real contours span ~1e-30..1.
            _ => (bits % 1000 + 1) as f64 * 10f64.powi(-(((bits >> 10) % 32) as i32) - 3),
        };
        if negative {
            -v
        } else {
            v
        }
    })
}

/// A pair of Hu vectors; each component of the second repeats the
/// first's about half the time, so `∞ − ∞`, `0/0` and exact zeros occur.
fn arb_hu_pair() -> impl Strategy<Value = (HuMoments, HuMoments)> {
    (collection::vec(arb_hu_component(), 7), collection::vec(arb_hu_component(), 7), any::<u8>())
        .prop_map(|(a, b, shared)| {
            let mut ha = [0.0; 7];
            let mut hb = [0.0; 7];
            for i in 0..7 {
                ha[i] = a[i];
                hb[i] = if (shared >> i) & 1 == 1 { a[i] } else { b[i] };
            }
            (ha, hb)
        })
}

/// One shape painted into a test mask: `(kind, x, y, size, bits)`.
type Stroke = (u8, u32, u32, u32, u64);

/// A mask from 1×1 up to `max_side` per side, painted from a few shapes
/// that may run past the border: filled rectangles, rectangles with a
/// hole, pairs of equal squares, single pixels, diagonal chains and
/// speckle.
fn arb_mask(max_side: u32) -> impl Strategy<Value = GrayImage> {
    let stroke = (0u8..6, 0..max_side + 2, 0..max_side + 2, 1u32..9, any::<u64>());
    (1..=max_side, 1..=max_side, proptest::collection::vec(stroke, 0..7))
        .prop_map(|(w, h, strokes)| paint_mask(w, h, &strokes))
}

fn paint_mask(w: u32, h: u32, strokes: &[Stroke]) -> GrayImage {
    let mut img = GrayImage::new(w, h);
    let mut put = |x: u32, y: u32| {
        if x < w && y < h {
            img.put(x, y, 255);
        }
    };
    for &(kind, x0, y0, size, bits) in strokes {
        match kind {
            // Filled rectangle; with kind 1, a one-pixel hole inside it.
            0 | 1 => {
                let (rw, rh) = (size, (bits % 8) as u32 + 1);
                for y in y0..y0 + rh {
                    for x in x0..x0 + rw {
                        let hole = kind == 1 && x == x0 + rw / 2 && y == y0 + rh / 2;
                        if !hole {
                            put(x, y);
                        }
                    }
                }
            }
            // Two equal squares side by side: equal areas.
            2 => {
                for (ox, oy) in [(0, 0), (size + 1 + (bits % 3) as u32, (bits >> 8) as u32 % 4)] {
                    for y in 0..size {
                        for x in 0..size {
                            put(x0 + ox + x, y0 + oy + y);
                        }
                    }
                }
            }
            3 => put(x0, y0),
            // Diagonal chain, down-right or down-left.
            4 => {
                for i in 0..size + 2 {
                    if bits & 1 == 0 {
                        put(x0 + i, y0 + i);
                    } else if let Some(x) = x0.checked_sub(i) {
                        put(x, y0 + i);
                    }
                }
            }
            // Speckle: one bit per pixel of an 8x8 block.
            _ => {
                for i in 0..64 {
                    if bits >> i & 1 == 1 {
                        put(x0 + i % 8, y0 + i / 8);
                    }
                }
            }
        }
    }
    img
}

/// The previous `find_contours`, kept as the oracle: label components on
/// a `u32` image with bounds-checked accessors, trace each one's outer
/// border with Moore-neighbour tracing from its raster-first pixel.
fn find_contours_oracle(bin: &GrayImage) -> Vec<Contour> {
    const NEIGHBOURS: [(i32, i32); 8] =
        [(-1, 0), (-1, -1), (0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1)];
    let trace = |sx: u32, sy: u32| {
        let start = Point::new(sx as i32, sy as i32);
        let mut points = vec![start];
        let fg =
            |p: Point| bin.in_bounds(p.x as i64, p.y as i64) && bin.get(p.x as u32, p.y as u32) > 0;
        let mut current = start;
        let mut backtrack_dir = 0usize;
        loop {
            let mut found = None;
            for step in 1..=8 {
                let dir = (backtrack_dir + step) % 8;
                let (dx, dy) = NEIGHBOURS[dir];
                let cand = Point::new(current.x + dx, current.y + dy);
                if fg(cand) {
                    found = Some((cand, dir));
                    break;
                }
            }
            let Some((next, dir)) = found else { break };
            if next == start && points.len() > 1 {
                break;
            }
            points.push(next);
            backtrack_dir = (dir + 4) % 8;
            current = next;
            if points.len() > (bin.width() as usize * bin.height() as usize * 4) {
                break;
            }
        }
        Contour { points }
    };
    let (w, h) = bin.dimensions();
    let mut labels: ImageBuf<u32, 1> = ImageBuf::new(w, h);
    let mut contours = Vec::new();
    let mut next_label = 1u32;
    let mut queue: Vec<(u32, u32)> = Vec::new();
    for y in 0..h {
        for x in 0..w {
            if bin.get(x, y) == 0 || labels.pixel(x, y)[0] != 0 {
                continue;
            }
            contours.push(trace(x, y));
            let label = next_label;
            next_label += 1;
            queue.clear();
            queue.push((x, y));
            labels.put_pixel(x, y, [label]);
            while let Some((cx, cy)) = queue.pop() {
                for (dx, dy) in NEIGHBOURS {
                    let nx = cx as i64 + dx as i64;
                    let ny = cy as i64 + dy as i64;
                    if bin.in_bounds(nx, ny)
                        && bin.get(nx as u32, ny as u32) > 0
                        && labels.pixel(nx as u32, ny as u32)[0] == 0
                    {
                        labels.put_pixel(nx as u32, ny as u32, [label]);
                        queue.push((nx as u32, ny as u32));
                    }
                }
            }
        }
    }
    contours
}

/// The previous `largest_contour`: `max_by` keeps the last of equal
/// maxima.
fn largest_contour_oracle(contours: &[Contour]) -> Option<&Contour> {
    contours.iter().max_by(|a, b| nan_first_f64(a.area(), b.area()))
}

/// Arbitrary RGB crop from 1×1 up to `max_side` per side, any aspect.
fn arb_crop(max_side: u32) -> impl Strategy<Value = RgbImage> {
    (1..=max_side, 1..=max_side).prop_flat_map(|(w, h)| {
        proptest::collection::vec(any::<u8>(), (w * h * 3) as usize)
            .prop_map(move |data| RgbImage::from_vec(w, h, data).unwrap())
    })
}

/// Two images for the sparse folds: each side any [`arb_hist_image`]
/// kind, or, a quarter of the time, two crops whose channel values lie
/// in disjoint halves of the range, so no bin is nonzero on both sides.
fn arb_hist_pair() -> impl Strategy<Value = (RgbImage, RgbImage)> {
    (0u8..4, arb_hist_image(), arb_hist_image()).prop_map(|(kind, a, b)| {
        if kind > 0 {
            return (a, b);
        }
        let half = |img: &RgbImage, base: u8| {
            let (w, h) = img.dimensions();
            let data = img.as_raw().iter().map(|&v| base + v / 2).collect();
            RgbImage::from_vec(w, h, data).unwrap()
        };
        (half(&a, 0), half(&b, 128))
    })
}

/// An image for the histogram metrics: half the time an arbitrary crop,
/// otherwise one of the degenerate kinds — 1×1, single-colour,
/// all-black, all-white, and a one-value-per-bin ramp whose histogram is
/// flat in every channel (the Correlation formula's zero-variance
/// branch).
fn arb_hist_image() -> impl Strategy<Value = RgbImage> {
    (0u8..10, arb_crop(12), any::<u8>()).prop_map(|(kind, img, v)| {
        let (w, h) = img.dimensions();
        let ramp = (0..HIST_BINS).flat_map(|i| [(i * 256 / HIST_BINS) as u8 + v % 8; 3]);
        match kind {
            0 => RgbImage::filled(1, 1, [v, v / 3, 255 - v]),
            1 => RgbImage::filled(w, h, [v, 255 - v, v / 7]),
            2 => RgbImage::new(w, h),
            3 => RgbImage::filled(w, h, [255, 255, 255]),
            4 => RgbImage::from_vec(HIST_BINS as u32, 1, ramp.collect()).unwrap(),
            _ => img,
        }
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
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn contours_match_the_labelling_oracle(bin in arb_mask(24)) {
        let contours = find_contours(&bin);
        let oracle = find_contours_oracle(&bin);
        prop_assert_eq!(&contours, &oracle);
        prop_assert_eq!(largest_contour(&contours), largest_contour_oracle(&oracle));
    }
}

proptest! {
    #[test]
    fn threshold_outputs_only_0_and_255(img in arb_gray(24), t in any::<u8>()) {
        let bin = threshold_luma(&grey_rgb(&img), t);
        prop_assert!(bin.as_raw().iter().all(|&v| v == 0 || v == 255));
        let inv = threshold_luma_inv(&grey_rgb(&img), t);
        for (a, b) in bin.as_raw().iter().zip(inv.as_raw()) {
            prop_assert_eq!(a ^ b, 255);
        }
    }

    #[test]
    fn contours_cover_every_component_start(img in arb_gray(20)) {
        let bin = threshold_luma(&grey_rgb(&img), 127);
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
        let bin = threshold_luma(&grey_rgb(&img), 100);
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
        let h1 = LogHu::new(&hu_moments(&moments(&threshold_luma(&grey_rgb(&img1), 127), true)));
        let h2 = LogHu::new(&hu_moments(&moments(&threshold_luma(&grey_rgb(&img2), 127), true)));
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
        let ha = rgb_histogram(&a);
        let hb = rgb_histogram(&b);
        let corr = compare_hist(&ha, &hb, HistCompare::Correlation);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&corr));
        let hell = compare_hist(&ha, &hb, HistCompare::Hellinger);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&hell));
        let inter = compare_hist(&ha, &hb, HistCompare::Intersection);
        prop_assert!((0.0..=3.0 + 1e-9).contains(&inter));
        let chi = compare_hist(&ha, &hb, HistCompare::ChiSquare);
        prop_assert!(chi >= 0.0 && chi.is_finite());
    }

    #[test]
    fn hellinger_triangleish_self_identity(a in arb_rgb(10)) {
        let h = rgb_histogram(&a);
        prop_assert!(compare_hist(&h, &h, HistCompare::Hellinger) < 1e-6);
        prop_assert_eq!(compare_hist(&h, &h, HistCompare::ChiSquare), 0.0);
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

// Pure arithmetic on seven-component vectors: many cases are cheap.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn match_shapes_on_cached_logs_is_bit_identical_to_per_pair_logs((a, b) in arb_hu_pair()) {
        let (la, lb) = (LogHu::new(&a), LogHu::new(&b));
        for mode in [MatchShapesMode::I1, MatchShapesMode::I2, MatchShapesMode::I3] {
            for (x, y, lx, ly) in [(&a, &b, &la, &lb), (&b, &a, &lb, &la), (&a, &a, &la, &la)] {
                let want = match_shapes_oracle(x, y, mode);
                let got = match_shapes(lx, ly, mode);
                // NaN has many bit patterns; compare NaN as NaN, all else bitwise.
                prop_assert!(
                    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                    "{:?} on {:?} v {:?}: {} (cached) vs {} (oracle)", mode, x, y, got, want
                );
            }
        }
    }
}

// Histograms of crops up to 12×12: cheap enough for many cases.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn compare_hist_matches_the_resumming_oracle(a in arb_hist_image(), b in arb_hist_image()) {
        // The cached per-histogram sums give the same bits as summing
        // both histograms again for every pair, NaN included.
        let (ha, hb) = (rgb_histogram(&a), rgb_histogram(&b));
        for m in HistCompare::ALL {
            let got = compare_hist(&ha, &hb, m);
            let want = compare_hist_dense(ha.as_slice(), hb.as_slice(), m);
            prop_assert!(
                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                "{m:?}: {got} vs oracle {want}"
            );
        }
    }

    #[test]
    fn nonzero_bin_fold_matches_the_dense_fold((a, b) in arb_hist_pair()) {
        // Chi-square over `a`'s nonzero bins, Intersection and Hellinger
        // over the bins nonzero on both sides: the dense fold's bits, +0.0
        // included when no bin is shared.
        let (ha, hb) = (rgb_histogram(&a), rgb_histogram(&b));
        for (x, y) in [(&ha, &hb), (&hb, &ha)] {
            for m in [HistCompare::ChiSquare, HistCompare::Intersection, HistCompare::Hellinger] {
                let got = compare_hist(x, y, m);
                let want = compare_hist_dense(x.as_slice(), y.as_slice(), m);
                prop_assert_eq!(got.to_bits(), want.to_bits(), "{:?}: {} vs dense {}", m, got, want);
            }
        }
    }
}

/// The per-pixel rasteriser the span fills replaced: every pixel of every
/// span goes through a bounds-checked `plot`. Its loops stop two pixels
/// past the canvas so infinite spans end; `plot` drops the rest.
struct PlotReference(RgbImage);

impl PlotReference {
    fn plot(&mut self, x: i64, y: i64, color: [u8; 3]) {
        let (w, h) = (self.0.width() as i64, self.0.height() as i64);
        if (0..w).contains(&x) && (0..h).contains(&y) {
            self.0.put_pixel(x as u32, y as u32, color);
        }
    }

    fn span(&mut self, y: i64, x0: i64, x1: i64, color: [u8; 3]) {
        for x in x0.max(-2)..x1.min(self.0.width() as i64 + 2) {
            self.plot(x, y, color);
        }
    }

    fn rows(&self) -> std::ops::Range<i64> {
        -2..self.0.height() as i64 + 2
    }

    fn fill_rect(&mut self, x: f32, y: f32, w: f32, h: f32, color: [u8; 3]) {
        let rows = self.rows();
        let (y0, y1) = (y.round() as i64, (y + h).round() as i64);
        for yy in y0.max(rows.start)..y1.min(rows.end) {
            self.span(yy, x.round() as i64, (x + w).round() as i64, color);
        }
    }

    /// Even-odd scanline fill over every row of the canvas and its
    /// margin: a row outside the vertices' span crosses no edge.
    fn fill_polygon(&mut self, pts: &[P2], color: [u8; 3]) {
        if pts.len() < 3 {
            return;
        }
        for yy in self.rows() {
            let scan = yy as f32 + 0.5;
            let mut xs = Vec::new();
            for (i, &a) in pts.iter().enumerate() {
                let b = pts[(i + 1) % pts.len()];
                if (a.y <= scan && b.y > scan) || (b.y <= scan && a.y > scan) {
                    xs.push(a.x + (scan - a.y) / (b.y - a.y) * (b.x - a.x));
                }
            }
            xs.sort_by(|p, q| nan_last_f32(*p, *q));
            for pair in xs.chunks_exact(2) {
                self.span(yy, pair[0].round() as i64, pair[1].round() as i64, color);
            }
        }
    }

    fn fill_ellipse(&mut self, cx: f32, cy: f32, rx: f32, ry: f32, color: [u8; 3]) {
        if rx <= 0.0 || ry <= 0.0 {
            return;
        }
        let rows = self.rows();
        let (y0, y1) = ((cy - ry).floor() as i64, (cy + ry).ceil() as i64);
        for yy in y0.max(rows.start)..=y1.min(rows.end) {
            let dy = (yy as f32 + 0.5 - cy) / ry;
            let rem = 1.0 - dy * dy;
            if rem > 0.0 {
                let half = rx * rem.sqrt();
                self.span(yy, (cx - half).round() as i64, (cx + half).round() as i64, color);
            }
        }
    }
}

/// A coordinate or extent around a canvas of up to 12 pixels a side: on
/// it, partly or wholly off it, negative, zero, on a rounding half, or
/// NaN or ±∞.
fn arb_coord() -> impl Strategy<Value = f32> {
    (0u32..20, -30.0f32..42.0).prop_map(|(pick, v)| match pick {
        0 => f32::NAN,
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        3 => 0.0,
        4 => v.trunc() + 0.5,
        _ => v,
    })
}

fn arb_canvas() -> impl Strategy<Value = (u32, u32, [u8; 3])> {
    (1u32..=12, 1u32..=12, any::<u8>()).prop_map(|(w, h, g)| (w, h, [g, g / 2, 255 - g]))
}

const INK: [u8; 3] = [7, 200, 31];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn fill_rect_sets_the_plotted_pixels(
        (w, h, bg) in arb_canvas(),
        (x, y, rw, rh) in (arb_coord(), arb_coord(), arb_coord(), arb_coord()),
    ) {
        let mut canvas = Canvas::new(w, h, bg);
        canvas.fill_rect(x, y, rw, rh, INK);
        let mut want = PlotReference(RgbImage::filled(w, h, bg));
        want.fill_rect(x, y, rw, rh, INK);
        prop_assert_eq!(canvas.image(), &want.0);
    }

    #[test]
    fn fill_polygon_sets_the_plotted_pixels(
        (w, h, bg) in arb_canvas(),
        coords in proptest::collection::vec((arb_coord(), arb_coord()), 0..8),
    ) {
        let pts: Vec<P2> = coords.into_iter().map(|(x, y)| p2(x, y)).collect();
        let mut canvas = Canvas::new(w, h, bg);
        canvas.fill_polygon(&pts, INK);
        let mut want = PlotReference(RgbImage::filled(w, h, bg));
        want.fill_polygon(&pts, INK);
        prop_assert_eq!(canvas.image(), &want.0);
    }

    #[test]
    fn fill_ellipse_sets_the_plotted_pixels(
        (w, h, bg) in arb_canvas(),
        (cx, cy, rx, ry) in (arb_coord(), arb_coord(), arb_coord(), arb_coord()),
    ) {
        let mut canvas = Canvas::new(w, h, bg);
        fill_ellipse(&mut canvas, cx, cy, rx, ry, INK);
        let mut want = PlotReference(RgbImage::filled(w, h, bg));
        want.fill_ellipse(cx, cy, rx, ry, INK);
        prop_assert_eq!(canvas.image(), &want.0);
    }
}
