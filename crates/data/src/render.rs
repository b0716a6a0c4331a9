// taor-lint: allow(panic::index) — dense numeric kernel: indices are derived from dimensions validated at the public boundary and bounded by the enclosing loops.
//! Catalog (ShapeNet-like) vs. scene (NYU-like) rendering.
//!
//! "the segmented regions from the NYUset were extracted through a
//! blackmask, while 2D views from ShapeNet lay on a white background"
//! (paper §3.2). The two modes reproduce exactly that asymmetry plus the
//! degradations that distinguish real segmented crops from clean catalog
//! views: lighting gain, sensor noise, partial occlusion and sloppy
//! segmentation margins.

use crate::shapes::{draw_object, ModelParams, ViewParams};
use rand::{Rng, SeedableRng};
use taor_imgproc::color::{hsv_to_pixel, pixel_to_hsv};
use taor_imgproc::draw::Canvas;
use taor_imgproc::image::RgbImage;

/// Canvas side for every generated image.
pub const CANVAS: u32 = 96;

/// Render one catalog view: `view_idx` selects a canonical rotation
/// (ShapeNet views are a small set of fixed object rotations).
pub fn render_catalog_view(m: &ModelParams, view_idx: usize, rng: &mut impl Rng) -> RgbImage {
    let mut canvas = Canvas::new(CANVAS, CANVAS, [255, 255, 255]);
    // Canonical rotations: 0°, ±12°, ±24°, 36°… mild, like re-photographed
    // or manually rotated views (paper: views "manually-derived by
    // rotating an existing view, when not available").
    let base_angles = [0.0f32, 0.21, -0.21, 0.42, -0.42, 0.63, -0.63, 0.85];
    let rotation = base_angles[view_idx % base_angles.len()] + rng.gen_range(-0.03..0.03);
    let view = ViewParams {
        rotation,
        scale: CANVAS as f32 * rng.gen_range(0.30..0.38),
        cx: CANVAS as f32 / 2.0 + rng.gen_range(-2.0..2.0),
        cy: CANVAS as f32 / 2.0 + rng.gen_range(-2.0..2.0),
        flip: view_idx % 2 == 1 && view_idx >= 4,
        // Each canonical view corresponds to a different 3-D viewpoint,
        // which stretches the projected silhouette anisotropically.
        // Views of one model are a handful of nearby camera angles: the
        // per-view silhouette jitter is mild; it is the per-*model*
        // proportions (aspect, elongation, style) that vary wildly.
        stretch_x: rng.gen_range(0.78..1.25),
        stretch_y: rng.gen_range(0.82..1.2),
        shear: rng.gen_range(-0.28..0.28),
    };
    // A 3-D viewpoint change also alters the apparent proportions of the
    // model (seat depth, shade height, ...) slightly.
    let mut mv = m.clone();
    mv.detail = (m.detail + rng.gen_range(-0.12..0.12)).clamp(0.0, 1.0);
    draw_object(&mut canvas, &mv, view);
    let mut img = canvas.into_image();
    shade_catalog(&mut img, rng);
    img
}

/// ShapeNet 2-D views are *renders*: shaded, not flat fills. Apply a
/// directional lighting gradient plus mild sensor noise to the object
/// pixels (the white background stays clean). Without this, descriptor
/// matching is unrealistically easy — every view of a model would be a
/// pixel-exact template.
fn shade_catalog(img: &mut RgbImage, rng: &mut impl Rng) {
    let light_dir = rng.gen_range(0.0..std::f32::consts::TAU);
    let (lx, ly) = (light_dir.cos(), light_dir.sin());
    let (w, h) = (img.width() as f32, img.height() as f32);
    let mut noise_rng = rand::rngs::SmallRng::seed_from_u64(rng.gen());
    for y in 0..img.height() {
        for x in 0..img.width() {
            let px = img.pixel(x, y);
            if px == [255, 255, 255] {
                continue;
            }
            // Gain in [0.78, 1.08] across the object along the light axis.
            let t = (x as f32 / w - 0.5) * lx + (y as f32 / h - 0.5) * ly;
            let gain = 0.9 + 0.44 * t;
            let mut out = [0u8; 3];
            for c in 0..3 {
                let noise = noise_rng.gen_range(-12i16..=12);
                out[c] = ((px[c] as f32 * gain) as i16 + noise).clamp(0, 254) as u8;
            }
            img.put_pixel(x, y, out);
        }
    }
}

/// Render one cell of a yaw × pitch view grid: the regular camera orbit a
/// real ShapeNet rendering pipeline sweeps around each CAD model (the
/// gallery regime the ANN indexes are built for). `yaw` controls the
/// in-plane rotation plus the shear a turntable step induces on the
/// silhouette; `pitch` controls the anisotropic squash of looking down at
/// the object. A small jitter keeps two renders of the same cell from
/// being pixel-exact templates; the jitter draws come from `rng`, so the
/// same cell re-rendered with a differently seeded stream yields a
/// near-duplicate, not a copy.
pub fn render_grid_view(
    m: &ModelParams,
    yaw_idx: usize,
    pitch_idx: usize,
    yaw_steps: usize,
    pitch_steps: usize,
    rng: &mut impl Rng,
) -> RgbImage {
    let yaw_t = if yaw_steps > 1 { yaw_idx as f32 / (yaw_steps - 1) as f32 } else { 0.5 };
    let pitch_t = if pitch_steps > 1 { pitch_idx as f32 / (pitch_steps - 1) as f32 } else { 0.5 };
    let mut canvas = Canvas::new(CANVAS, CANVAS, [255, 255, 255]);
    let view = ViewParams {
        rotation: (yaw_t - 0.5) * 1.6 + rng.gen_range(-0.02..0.02),
        scale: CANVAS as f32 * (0.33 + rng.gen_range(-0.015..0.015)),
        cx: CANVAS as f32 / 2.0 + rng.gen_range(-1.5..1.5),
        cy: CANVAS as f32 / 2.0 + rng.gen_range(-1.5..1.5),
        flip: yaw_idx >= yaw_steps.div_ceil(2),
        stretch_x: 0.82 + 0.36 * yaw_t + rng.gen_range(-0.02..0.02),
        stretch_y: 1.18 - 0.38 * pitch_t + rng.gen_range(-0.02..0.02),
        shear: (pitch_t - 0.5) * 0.5 + rng.gen_range(-0.015..0.015),
    };
    let mut mv = m.clone();
    mv.detail = (m.detail + rng.gen_range(-0.08..0.08)).clamp(0.0, 1.0);
    draw_object(&mut canvas, &mv, view);
    let mut img = canvas.into_image();
    shade_catalog(&mut img, rng);
    img
}

/// Render one scene crop: black background, strong jitter, degradations.
pub fn render_scene_crop(m: &ModelParams, rng: &mut impl Rng) -> RgbImage {
    draw_scene_crop(RgbImage::new(CANVAS, CANVAS), m, rng)
}

/// [`render_scene_crop`] into a caller's `CANVAS × CANVAS` buffer, which
/// is cleared to black first: the same draws from `rng`, the same crop.
pub(crate) fn draw_scene_crop(mut img: RgbImage, m: &ModelParams, rng: &mut impl Rng) -> RgbImage {
    img.as_raw_mut().fill(0);
    let mut canvas = Canvas::from_image(img);
    let view = ViewParams {
        rotation: rng.gen_range(-0.5..0.5),
        scale: CANVAS as f32 * rng.gen_range(0.26..0.40),
        cx: CANVAS as f32 / 2.0 + rng.gen_range(-8.0..8.0),
        cy: CANVAS as f32 / 2.0 + rng.gen_range(-8.0..8.0),
        flip: rng.gen_bool(0.5),
        stretch_x: rng.gen_range(0.7..1.35),
        stretch_y: rng.gen_range(0.75..1.3),
        shear: rng.gen_range(-0.3..0.3),
    };
    // NYU's segmented regions come from hand-drawn LabelMe-style polygon
    // masks: coarse outlines that keep a margin of wall/floor *inside*
    // the labelled region. Thresholding such a crop therefore recovers
    // the label polygon, not the object silhouette — the main reason the
    // paper's shape-only pipeline barely beats chance on the NYUSet.
    if rng.gen_bool(0.7) {
        let surface = [
            [196u8, 186, 168], // beige wall
            [168, 160, 150],   // grey wall
            [142, 110, 78],    // wooden floor
            [120, 120, 126],   // carpet
        ][rng.gen_range(0..4)];
        let n_vertices = rng.gen_range(5..=8);
        let pts: Vec<taor_imgproc::draw::P2> = (0..n_vertices)
            .map(|i| {
                let angle = i as f32 / n_vertices as f32 * std::f32::consts::TAU
                    + rng.gen_range(-0.25..0.25);
                let radius = view.scale * rng.gen_range(0.9..1.45);
                taor_imgproc::draw::p2(
                    view.cx + radius * angle.cos(),
                    view.cy + radius * angle.sin(),
                )
            })
            .collect();
        canvas.fill_polygon(&pts, surface);
    }
    let mut mv = m.clone();
    mv.detail = (m.detail + rng.gen_range(-0.2..0.2)).clamp(0.0, 1.0);
    draw_object(&mut canvas, &mv, view);

    // Lighting: global value gain + slight hue drift, applied to the
    // non-mask pixels (the black mask stays black).
    let gain = rng.gen_range(0.75..1.15f32);
    let hue_shift = rng.gen_range(-6.0..6.0f32);
    let mut img = canvas.into_image();
    light(img.as_raw_mut(), gain, hue_shift);
    let mut canvas = Canvas::from_image(img);

    // Occlusion: with some probability, bite one to three black
    // rectangles out of the object (another object in front of it was
    // masked away).
    if rng.gen_bool(0.5) {
        let bites = rng.gen_range(1..=3);
        for _ in 0..bites {
            let w = rng.gen_range(10.0..30.0f32);
            let h = rng.gen_range(10.0..30.0f32);
            let x = rng.gen_range(0.0..CANVAS as f32 - w);
            let y = rng.gen_range(0.0..CANVAS as f32 - h);
            canvas.fill_rect(x, y, w, h, [0, 0, 0]);
        }
    }

    // Sloppy segmentation: occasionally a sliver of some *other* surface
    // survives at a border of the mask.
    if rng.gen_bool(0.25) {
        let color = [rng.gen_range(60..220u8), rng.gen_range(60..220u8), rng.gen_range(60..220u8)];
        let along_x = rng.gen_bool(0.5);
        let thickness = rng.gen_range(3.0..8.0f32);
        if along_x {
            let y = if rng.gen_bool(0.5) { 0.0 } else { CANVAS as f32 - thickness };
            canvas.fill_rect(0.0, y, CANVAS as f32, thickness, color);
        } else {
            let x = if rng.gen_bool(0.5) { 0.0 } else { CANVAS as f32 - thickness };
            canvas.fill_rect(x, 0.0, thickness, CANVAS as f32, color);
        }
    }

    // Sensor noise on object pixels.
    let mut img = canvas.into_image();
    for px in img.as_raw_mut().chunks_exact_mut(3) {
        if px == [0, 0, 0] {
            continue;
        }
        for v in px.iter_mut() {
            let noise = rng.gen_range(-10i16..=10);
            *v = (*v as i16 + noise).clamp(0, 255) as u8;
        }
    }
    img
}

/// Scale the value and drift the hue of every non-black pixel of an
/// interleaved RGB buffer through the HSV round trip.
///
/// Before noise, a scene crop holds at most four distinct non-black
/// colours (the flat fills of surface, primary, secondary and door
/// panel) over thousands of pixels, and the round trip is a pure
/// function of `(rgb, gain, hue_shift)`. So each distinct colour is
/// converted once and its result copied to the rest: a small table
/// remembers the first eight conversions, the last colour seen is
/// checked before the table, and a colour missing from a full table is
/// converted afresh. No path skips the conversion of an unseen colour,
/// so the output equals the per-pixel round trip for any input.
fn light(raw: &mut [u8], gain: f32, hue_shift: f32) {
    let convert = |rgb: [u8; 3]| {
        let mut hsv = pixel_to_hsv(rgb[0], rgb[1], rgb[2]);
        hsv.v = (hsv.v * gain).clamp(0.0, 1.0);
        hsv.h += hue_shift;
        hsv_to_pixel(hsv)
    };
    let mut table = [([0u8; 3], [0u8; 3]); 8];
    let mut filled = 0;
    // Black pixels are skipped before any lookup, so black can stand for
    // "no colour seen yet".
    let mut last = ([0u8; 3], [0u8; 3]);
    for px in raw.chunks_exact_mut(3) {
        let rgb = [px[0], px[1], px[2]];
        if rgb == [0, 0, 0] {
            continue;
        }
        if rgb != last.0 {
            last = match table[..filled].iter().find(|(from, _)| *from == rgb) {
                Some(&hit) => hit,
                None => {
                    let miss = (rgb, convert(rgb));
                    if filled < table.len() {
                        table[filled] = miss;
                        filled += 1;
                    }
                    miss
                }
            };
        }
        px.copy_from_slice(&last.1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::ObjectClass;
    use crate::shapes::sample_model;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn model(seed: u64) -> ModelParams {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        sample_model(ObjectClass::Chair, &mut rng)
    }

    /// The lighting pass as it was written before the memo: the HSV round
    /// trip on every non-black pixel.
    fn light_per_pixel(raw: &mut [u8], gain: f32, hue_shift: f32) {
        for px in raw.chunks_exact_mut(3) {
            if px == [0, 0, 0] {
                continue;
            }
            let mut hsv = pixel_to_hsv(px[0], px[1], px[2]);
            hsv.v = (hsv.v * gain).clamp(0.0, 1.0);
            hsv.h += hue_shift;
            px.copy_from_slice(&hsv_to_pixel(hsv));
        }
    }

    /// The pixels of a 1×1 to 16×16 image, 1 to 256 of them, painted
    /// from a palette of 1 to 20 colours (more than the memo's table
    /// holds) whose entry 0 is black.
    fn arb_paletted() -> impl Strategy<Value = Vec<u8>> {
        (1usize..=20, 1usize..=256).prop_flat_map(|(colours, pixels)| {
            (
                proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), colours),
                proptest::collection::vec(0..colours, pixels),
            )
                .prop_map(|(palette, picks)| {
                    picks
                        .into_iter()
                        .flat_map(|i| match i {
                            0 => [0, 0, 0],
                            _ => [palette[i].0, palette[i].1, palette[i].2],
                        })
                        .collect()
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn memoised_lighting_equals_the_per_pixel_round_trip(
            raw in arb_paletted(),
            gain in 0.0f32..2.0,
            hue_shift in -400.0f32..400.0,
        ) {
            let mut got = raw.clone();
            light(&mut got, gain, hue_shift);
            let mut want = raw;
            light_per_pixel(&mut want, gain, hue_shift);
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn catalog_has_white_background() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        let img = render_catalog_view(&model(1), 0, &mut rng);
        assert_eq!(img.pixel(0, 0), [255, 255, 255]);
        assert_eq!(img.pixel(CANVAS - 1, CANVAS - 1), [255, 255, 255]);
    }

    #[test]
    fn scene_has_black_background() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(2);
        let img = render_scene_crop(&model(2), &mut rng);
        // Corners are outside any plausible object placement most of the
        // time; check that a majority of border pixels are black.
        let mut black = 0;
        let mut total = 0;
        for x in 0..CANVAS {
            for &y in &[0, CANVAS - 1] {
                total += 1;
                if img.pixel(x, y) == [0, 0, 0] {
                    black += 1;
                }
            }
        }
        assert!(black * 2 > total, "{black}/{total} border pixels black");
    }

    #[test]
    fn views_of_same_model_share_palette_but_differ() {
        let m = model(3);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        let v0 = render_catalog_view(&m, 0, &mut rng);
        let v1 = render_catalog_view(&m, 3, &mut rng);
        assert_ne!(v0, v1);
        // Both contain pixels near the model's primary colour (shading and
        // sensor noise perturb, but do not replace, the palette).
        let has_primary = |img: &RgbImage| {
            img.as_raw().chunks_exact(3).any(|px| {
                px.iter().zip(&m.primary).all(|(&a, &b)| (a as i16 - b as i16).abs() <= 40)
            })
        };
        assert!(has_primary(&v0) && has_primary(&v1));
    }

    #[test]
    fn scene_rendering_is_seeded() {
        let m = model(4);
        let mut r1 = rand::rngs::SmallRng::seed_from_u64(77);
        let mut r2 = rand::rngs::SmallRng::seed_from_u64(77);
        assert_eq!(render_scene_crop(&m, &mut r1), render_scene_crop(&m, &mut r2));
    }

    #[test]
    fn scene_crops_vary_across_draws() {
        let m = model(5);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(6);
        let a = render_scene_crop(&m, &mut rng);
        let b = render_scene_crop(&m, &mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn object_survives_degradations() {
        // Even with occlusion, a meaningful number of non-black pixels
        // must remain (the paper's crops always contain the object).
        let m = model(8);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(8);
        for _ in 0..20 {
            let img = render_scene_crop(&m, &mut rng);
            let visible = img.as_raw().chunks_exact(3).filter(|px| *px != [0, 0, 0]).count();
            assert!(visible > 150, "object almost fully erased: {visible} px");
        }
    }
}
