// taor-lint: allow(panic::index) — dense numeric kernel: indices are derived from dimensions validated at the public boundary and bounded by the enclosing loops.
//! Parametric 2-D object generators — the stand-in for ShapeNet models.
//!
//! Each class has a generator that samples a *model* (persistent geometry
//! and palette parameters, like one ShapeNet mesh) and a renderer that
//! draws a *view* of that model (in-plane rotation + scale + position,
//! like one of the dataset's 2D views). Palettes deliberately overlap
//! across classes (wood browns shared by chair/table/door/box; whites
//! shared by paper/window/door frames) so that colour histograms are
//! informative but far from perfectly discriminative — the regime the
//! paper's Table 2 numbers live in.

use crate::classes::ObjectClass;
use rand::Rng;
use taor_imgproc::draw::{p2, Canvas, P2};

/// Persistent parameters of one synthetic model.
#[derive(Debug, Clone)]
pub struct ModelParams {
    pub class: ObjectClass,
    /// Primary body colour.
    pub primary: [u8; 3],
    /// Secondary / accent colour.
    pub secondary: [u8; 3],
    /// Width/height aspect jitter factor.
    pub aspect: f32,
    /// Per-model vertical elongation — two "chairs" can be a squat club
    /// chair and a tall bar stool; inter-model silhouette diversity is
    /// what defeats Hu matching on real ShapeNet categories.
    pub elongation: f32,
    /// Discrete style variant (legs count, panel layout, …).
    pub style: u32,
    /// Continuous detail knob in `[0, 1]` (proportions).
    pub detail: f32,
}

/// A view of a model: in-plane pose plus the anisotropic stretch that a
/// change of 3-D viewpoint induces on the 2-D silhouette. The stretch is
/// what keeps Hu moments from being trivially discriminative: Hu is
/// invariant to rotation/scale/translation but *not* to the aspect
/// changes real re-projections produce.
#[derive(Debug, Clone, Copy)]
pub struct ViewParams {
    /// In-plane rotation (radians).
    pub rotation: f32,
    /// Half-size of the object in pixels.
    pub scale: f32,
    /// Centre position on the canvas.
    pub cx: f32,
    pub cy: f32,
    /// Horizontal mirror.
    pub flip: bool,
    /// Viewpoint-induced horizontal stretch.
    pub stretch_x: f32,
    /// Viewpoint-induced vertical stretch.
    pub stretch_y: f32,
    /// Viewpoint-induced shear (x += shear · y), the first-order effect
    /// of out-of-plane rotation on a projected silhouette.
    pub shear: f32,
}

/// Small per-model colour jitter so two models of a class differ.
/// Channels cap at 254, never 255: a pure-white model would be invisible
/// against the catalog background (white paper at +22 jitter saturated
/// to [255,255,255] and rendered zero pixels).
fn jitter_color(rng: &mut impl Rng, c: [u8; 3], amount: i16) -> [u8; 3] {
    let mut out = [0u8; 3];
    for i in 0..3 {
        let d = rng.gen_range(-amount..=amount);
        out[i] = (c[i] as i16 + d).clamp(0, 254) as u8;
    }
    out
}

const WOODS: [[u8; 3]; 4] = [[139, 90, 43], [160, 120, 60], [96, 64, 38], [178, 132, 80]];
const WHITES: [[u8; 3]; 3] = [[236, 234, 228], [245, 244, 240], [222, 221, 214]];
const GRAYS: [[u8; 3]; 3] = [[150, 150, 148], [120, 122, 126], [178, 180, 178]];
const DARKS: [[u8; 3]; 2] = [[52, 50, 48], [70, 66, 72]];
const REDS: [[u8; 3]; 2] = [[178, 52, 48], [142, 40, 52]];
const BLUES: [[u8; 3]; 2] = [[58, 82, 152], [84, 110, 168]];
const GREENS: [[u8; 3]; 2] = [[52, 118, 62], [88, 128, 84]];
const YELLOWS: [[u8; 3]; 2] = [[214, 168, 60], [228, 196, 110]];
const TANS: [[u8; 3]; 2] = [[192, 152, 104], [172, 134, 88]];

/// Weighted palette draw: a class *biases* towards certain colour pools
/// but can take almost any indoor colour — real ShapeNet categories have
/// no tight palette, which is why colour histograms help but never solve
/// the paper's task.
fn weighted_color(rng: &mut impl Rng, pools: &[(&[[u8; 3]], u32)]) -> [u8; 3] {
    let total: u32 = pools.iter().map(|(_, w)| w).sum();
    let mut pick_at = rng.gen_range(0..total);
    for (pool, w) in pools {
        if pick_at < *w {
            return pool[rng.gen_range(0..pool.len())];
        }
        pick_at -= w;
    }
    unreachable!("weights cover the range")
}

/// Sample a model of the given class.
pub fn sample_model(class: ObjectClass, rng: &mut impl Rng) -> ModelParams {
    let any: [(&[[u8; 3]], u32); 7] = [
        (&GRAYS, 2),
        (&DARKS, 2),
        (&REDS, 1),
        (&BLUES, 1),
        (&GREENS, 1),
        (&WOODS, 2),
        (&WHITES, 1),
    ];
    let (primary, secondary) = match class {
        ObjectClass::Chair => (
            weighted_color(rng, &[(&WOODS, 4), (&DARKS, 2), (&REDS, 1), (&BLUES, 1), (&GRAYS, 2)]),
            weighted_color(rng, &[(&DARKS, 3), (&WOODS, 2), (&GRAYS, 1)]),
        ),
        ObjectClass::Bottle => (
            weighted_color(
                rng,
                &[(&GREENS, 3), (&BLUES, 2), (&GRAYS, 2), (&TANS, 1), (&WHITES, 1)],
            ),
            weighted_color(rng, &[(&REDS, 1), (&WHITES, 1), (&DARKS, 1)]),
        ),
        ObjectClass::Paper => (
            weighted_color(rng, &[(&WHITES, 8), (&GRAYS, 1), (&YELLOWS, 1)]),
            weighted_color(rng, &[(&GRAYS, 1), (&BLUES, 1)]),
        ),
        ObjectClass::Book => {
            (weighted_color(rng, &any), weighted_color(rng, &[(&WHITES, 2), (&YELLOWS, 1)]))
        }
        ObjectClass::Table => (
            weighted_color(rng, &[(&WOODS, 5), (&WHITES, 1), (&GRAYS, 1), (&DARKS, 1)]),
            weighted_color(rng, &[(&WOODS, 2), (&DARKS, 2), (&GRAYS, 1)]),
        ),
        ObjectClass::Box => (
            weighted_color(rng, &[(&TANS, 5), (&WHITES, 1), (&GRAYS, 1), (&WOODS, 1)]),
            weighted_color(rng, &[(&TANS, 2), (&GRAYS, 1), (&DARKS, 1)]),
        ),
        ObjectClass::Window => (
            weighted_color(rng, &[(&WHITES, 4), (&WOODS, 2), (&GRAYS, 2)]),
            // Glass keeps a pale blue-grey bias.
            weighted_color(
                rng,
                &[(&[[188u8, 214, 234], [206, 226, 240], [170, 200, 224]][..], 3), (&GRAYS, 1)],
            ),
        ),
        ObjectClass::Door => (
            weighted_color(rng, &[(&WOODS, 4), (&WHITES, 3), (&GRAYS, 1), (&DARKS, 1)]),
            weighted_color(rng, &[(&YELLOWS, 2), (&GRAYS, 1), (&DARKS, 1)]),
        ),
        ObjectClass::Sofa => (
            weighted_color(
                rng,
                &[(&REDS, 2), (&BLUES, 2), (&GRAYS, 2), (&GREENS, 1), (&TANS, 1), (&DARKS, 1)],
            ),
            weighted_color(rng, &[(&DARKS, 2), (&GRAYS, 1)]),
        ),
        ObjectClass::Lamp => (
            weighted_color(rng, &[(&YELLOWS, 3), (&WHITES, 3), (&GRAYS, 1), (&TANS, 1)]),
            weighted_color(rng, &[(&DARKS, 2), (&GRAYS, 2), (&WOODS, 1)]),
        ),
    };
    ModelParams {
        class,
        primary: jitter_color(rng, primary, 22),
        secondary: jitter_color(rng, secondary, 22),
        aspect: rng.gen_range(0.55..1.7),
        elongation: rng.gen_range(0.7..1.45),
        style: rng.gen_range(0..4),
        detail: rng.gen_range(0.0..1.0),
    }
}

/// Local→canvas transform for a view: local coordinates live in roughly
/// `[-1, 1]²` with +y pointing down.
struct Frame {
    view: ViewParams,
    aspect: f32,
    elongation: f32,
}

impl Frame {
    fn map(&self, x: f32, y: f32) -> P2 {
        let x = if self.view.flip { -x } else { x } * self.aspect * self.view.stretch_x;
        let y = y * self.elongation * self.view.stretch_y;
        let x = x + self.view.shear * y;
        let p = p2(self.view.cx + x * self.view.scale, self.view.cy + y * self.view.scale);
        p.rotated(p2(self.view.cx, self.view.cy), self.view.rotation)
    }

    fn poly(&self, c: &mut Canvas, pts: &[(f32, f32)], color: [u8; 3]) {
        let mapped: Vec<P2> = pts.iter().map(|&(x, y)| self.map(x, y)).collect();
        c.fill_polygon(&mapped, color);
    }

    fn rect(&self, c: &mut Canvas, x0: f32, y0: f32, x1: f32, y1: f32, color: [u8; 3]) {
        self.poly(c, &[(x0, y0), (x1, y0), (x1, y1), (x0, y1)], color);
    }

    fn ellipse(&self, c: &mut Canvas, cx: f32, cy: f32, rx: f32, ry: f32, color: [u8; 3]) {
        // Rasterise a rotated ellipse as a polygon.
        let pts: Vec<(f32, f32)> = (0..24)
            .map(|i| {
                let t = i as f32 / 24.0 * std::f32::consts::TAU;
                (cx + rx * t.cos(), cy + ry * t.sin())
            })
            .collect();
        self.poly(c, &pts, color);
    }
}

/// Draw one view of a model onto the canvas.
/// Draw one view of a model onto the canvas.
///
/// Every class has several *structural* style variants (selected by
/// `style`), mirroring the heterogeneity of real ShapeNet categories —
/// a "chair" can be a four-legged dining chair, an armchair or a stool;
/// a "lamp" a floor, desk or bedside lamp. This intra-class silhouette
/// diversity is what keeps Hu-moment matching in the weak regime the
/// paper reports.
pub fn draw_object(canvas: &mut Canvas, m: &ModelParams, view: ViewParams) {
    let f = Frame { view, aspect: m.aspect, elongation: m.elongation };
    let d = m.detail;
    match m.class {
        ObjectClass::Chair => match m.style % 4 {
            0 | 1 => {
                // Dining chair: backrest + seat + legs.
                let seat_y = 0.1 + 0.1 * d;
                f.rect(canvas, -0.55, -1.0, 0.55, seat_y, m.primary);
                if m.style == 0 {
                    f.rect(canvas, -0.35, -0.8, -0.15, seat_y - 0.15, m.secondary);
                    f.rect(canvas, 0.15, -0.8, 0.35, seat_y - 0.15, m.secondary);
                }
                f.rect(canvas, -0.65, seat_y, 0.65, seat_y + 0.22, m.primary);
                for &lx in &[-0.6f32, -0.2, 0.15, 0.5] {
                    f.rect(canvas, lx, seat_y + 0.22, lx + 0.1, 1.0, m.secondary);
                }
            }
            2 => {
                // Armchair: fat body, low back, stubby legs.
                f.rect(canvas, -0.75, -0.55, 0.75, 0.55, m.primary);
                f.rect(canvas, -0.9, -0.2 - 0.2 * d, -0.6, 0.55, m.secondary);
                f.rect(canvas, 0.6, -0.2 - 0.2 * d, 0.9, 0.55, m.secondary);
                f.rect(canvas, -0.6, 0.55, -0.45, 0.8, m.secondary);
                f.rect(canvas, 0.45, 0.55, 0.6, 0.8, m.secondary);
            }
            _ => {
                // Stool: seat disc + splayed legs, no backrest.
                f.ellipse(canvas, 0.0, -0.3, 0.55, 0.18, m.primary);
                f.poly(
                    canvas,
                    &[(-0.45, -0.2), (-0.7, 0.9), (-0.55, 0.9), (-0.3, -0.2)],
                    m.secondary,
                );
                f.poly(canvas, &[(0.45, -0.2), (0.7, 0.9), (0.55, 0.9), (0.3, -0.2)], m.secondary);
                f.rect(canvas, -0.06, -0.2, 0.06, 0.9, m.secondary);
            }
        },
        ObjectClass::Bottle => match m.style % 3 {
            0 => {
                // Wine bottle: tall, thin neck.
                let neck_w = 0.1 + 0.06 * d;
                f.rect(canvas, -0.32, -0.3, 0.32, 0.9, m.primary);
                f.poly(
                    canvas,
                    &[(-0.32, -0.3), (-neck_w, -0.62), (neck_w, -0.62), (0.32, -0.3)],
                    m.primary,
                );
                f.rect(canvas, -neck_w, -1.0, neck_w, -0.55, m.primary);
                f.rect(canvas, -neck_w - 0.02, -1.05, neck_w + 0.02, -0.94, m.secondary);
                if m.style == 0 && d > 0.4 {
                    f.rect(canvas, -0.32, 0.15, 0.32, 0.5, m.secondary);
                }
            }
            1 => {
                // Jar: wide cylinder, wide lid, no neck.
                f.rect(canvas, -0.5, -0.6, 0.5, 0.8, m.primary);
                f.ellipse(canvas, 0.0, 0.8, 0.5, 0.12, m.primary);
                f.rect(canvas, -0.54, -0.82, 0.54, -0.58, m.secondary);
            }
            _ => {
                // Flask: round body, medium neck.
                f.ellipse(canvas, 0.0, 0.3, 0.55, 0.55, m.primary);
                let neck_w = 0.12 + 0.05 * d;
                f.rect(canvas, -neck_w, -0.9, neck_w, -0.1, m.primary);
                f.rect(canvas, -neck_w - 0.04, -1.0, neck_w + 0.04, -0.86, m.secondary);
            }
        },
        ObjectClass::Paper => match m.style % 3 {
            0 => {
                // Portrait sheet with ruled lines.
                f.rect(canvas, -0.68, -0.92, 0.68, 0.92, m.primary);
                let lines = 4 + (d * 4.0) as i32;
                for i in 0..lines {
                    let y = -0.7 + 1.4 * i as f32 / lines as f32;
                    f.rect(canvas, -0.55, y, 0.55, y + 0.035, m.secondary);
                }
            }
            1 => {
                // Landscape sheet, blank.
                f.rect(canvas, -0.92, -0.64, 0.92, 0.64, m.primary);
            }
            _ => {
                // Slightly crumpled sheet: irregular pentagon.
                f.poly(
                    canvas,
                    &[(-0.62, -0.85), (0.55, -0.95), (0.72, 0.1), (0.5, 0.9), (-0.7, 0.8)],
                    m.primary,
                );
            }
        },
        ObjectClass::Book => match m.style % 3 {
            0 | 1 => {
                // Upright cover with spine stripe and title block.
                f.rect(canvas, -0.62, -0.88, 0.62, 0.88, m.primary);
                f.rect(canvas, -0.62, -0.88, -0.45, 0.88, m.secondary);
                if m.style == 0 {
                    f.rect(canvas, -0.25, -0.55, 0.45, -0.25 + 0.2 * d, m.secondary);
                }
            }
            _ => {
                // Lying flat: wide slab with page edge visible.
                f.rect(canvas, -0.9, -0.35, 0.9, 0.35, m.primary);
                f.rect(canvas, -0.9, 0.2, 0.9, 0.35, m.secondary);
            }
        },
        ObjectClass::Table => match m.style % 3 {
            0 => {
                // Four-leg table.
                let top_y = -0.45 + 0.15 * d;
                f.rect(canvas, -1.0, top_y, 1.0, top_y + 0.18, m.primary);
                let inset = 0.12 + 0.1 * d;
                f.rect(canvas, -1.0 + inset, top_y + 0.18, -0.82 + inset, 0.95, m.secondary);
                f.rect(canvas, 0.82 - inset, top_y + 0.18, 1.0 - inset, 0.95, m.secondary);
            }
            1 => {
                // Pedestal table.
                f.rect(canvas, -0.95, -0.5, 0.95, -0.3, m.primary);
                f.rect(canvas, -0.12, -0.3, 0.12, 0.75, m.secondary);
                f.poly(canvas, &[(-0.5, 0.95), (0.5, 0.95), (0.2, 0.7), (-0.2, 0.7)], m.secondary);
            }
            _ => {
                // Desk with side drawers (box-like silhouette).
                f.rect(canvas, -1.0, -0.5, 1.0, -0.3, m.primary);
                f.rect(canvas, 0.35, -0.3, 0.95, 0.9, m.secondary);
                f.rect(canvas, -0.95, -0.3, -0.8, 0.9, m.secondary);
                f.rect(canvas, 0.42, -0.1 - 0.1 * d, 0.88, 0.05, m.primary);
                f.rect(canvas, 0.42, 0.25, 0.88, 0.4, m.primary);
            }
        },
        ObjectClass::Box => match m.style % 3 {
            0 => {
                // Closed carton with tape.
                f.rect(canvas, -0.7, -0.6, 0.7, 0.75, m.primary);
                f.rect(canvas, -0.7, -0.62, 0.7, -0.52, m.secondary);
                f.rect(canvas, -0.08, -0.6, 0.08, 0.75, m.secondary);
            }
            1 => {
                // Open box with raised flaps.
                f.rect(canvas, -0.65, -0.4, 0.65, 0.8, m.primary);
                f.poly(
                    canvas,
                    &[(-0.65, -0.4), (-0.95, -0.85), (-0.75, -0.9), (-0.5, -0.4)],
                    m.secondary,
                );
                f.poly(
                    canvas,
                    &[(0.65, -0.4), (0.95, -0.85), (0.75, -0.9), (0.5, -0.4)],
                    m.secondary,
                );
            }
            _ => {
                // Flat parcel.
                f.rect(canvas, -0.9, -0.2 - 0.2 * d, 0.9, 0.55, m.primary);
                f.rect(canvas, -0.9, 0.1, 0.9, 0.2, m.secondary);
            }
        },
        ObjectClass::Window => match m.style % 3 {
            0 | 1 => {
                // Rectangular frame with mullions.
                f.rect(canvas, -0.8, -0.9, 0.8, 0.9, m.primary);
                f.rect(canvas, -0.68, -0.78, 0.68, 0.78, m.secondary);
                f.rect(canvas, -0.06, -0.78, 0.06, 0.78, m.primary);
                if m.style == 0 {
                    f.rect(canvas, -0.68, -0.06, 0.68, 0.06, m.primary);
                }
            }
            _ => {
                // Arched window.
                f.rect(canvas, -0.7, -0.3, 0.7, 0.9, m.primary);
                f.ellipse(canvas, 0.0, -0.3, 0.7, 0.6, m.primary);
                f.rect(canvas, -0.58, -0.25, 0.58, 0.78, m.secondary);
                f.ellipse(canvas, 0.0, -0.3, 0.55, 0.45, m.secondary);
                f.rect(canvas, -0.05, -0.75, 0.05, 0.78, m.primary);
            }
        },
        ObjectClass::Door => match m.style % 3 {
            0 | 1 => {
                // Panelled door with knob.
                f.rect(canvas, -0.48, -1.0, 0.48, 1.0, m.primary);
                let panel = [
                    (m.primary[0] as i16 - 25).max(0) as u8,
                    (m.primary[1] as i16 - 25).max(0) as u8,
                    (m.primary[2] as i16 - 25).max(0) as u8,
                ];
                f.rect(canvas, -0.32, -0.8, 0.32, -0.15, panel);
                f.rect(canvas, -0.32, 0.05, 0.32, 0.8, panel);
                f.ellipse(canvas, 0.34, -0.02, 0.07, 0.07, m.secondary);
            }
            _ => {
                // Door with arched glazing at the top.
                f.rect(canvas, -0.48, -1.0, 0.48, 1.0, m.primary);
                f.ellipse(canvas, 0.0, -0.55, 0.3, 0.3 + 0.1 * d, m.secondary);
                f.ellipse(canvas, -0.34, 0.05, 0.06, 0.06, m.secondary);
            }
        },
        ObjectClass::Sofa => match m.style % 3 {
            0 | 1 => {
                // Two-seater with armrests.
                f.rect(canvas, -0.95, -0.55, 0.95, 0.1, m.primary);
                f.rect(canvas, -0.95, 0.1, 0.95, 0.55, m.primary);
                f.rect(canvas, -1.0, -0.25, -0.78, 0.55, m.secondary);
                f.rect(canvas, 0.78, -0.25, 1.0, 0.55, m.secondary);
                if m.style == 0 {
                    f.rect(canvas, -0.03, 0.1, 0.03, 0.55, m.secondary);
                }
                f.rect(canvas, -0.85, 0.55, -0.72, 0.75, m.secondary);
                f.rect(canvas, 0.72, 0.55, 0.85, 0.75, m.secondary);
            }
            _ => {
                // Chaise longue: asymmetric, one armrest, long seat.
                f.rect(canvas, -1.0, -0.5, -0.6, 0.55, m.secondary);
                f.rect(canvas, -1.0, 0.0, 1.0, 0.55, m.primary);
                f.poly(canvas, &[(0.6, 0.0), (1.0, 0.0), (1.0, -0.25), (0.75, -0.2)], m.primary);
                f.rect(canvas, -0.85, 0.55, -0.72, 0.75, m.secondary);
                f.rect(canvas, 0.72, 0.55, 0.85, 0.75, m.secondary);
            }
        },
        ObjectClass::Lamp => match m.style % 3 {
            0 => {
                // Floor lamp: tall thin pole, trapezoid shade.
                let top = 0.22 + 0.15 * d;
                f.poly(
                    canvas,
                    &[(-top, -1.0), (top, -1.0), (0.45, -0.55), (-0.45, -0.55)],
                    m.primary,
                );
                f.rect(canvas, -0.04, -0.55, 0.04, 0.8, m.secondary);
                f.ellipse(canvas, 0.0, 0.85, 0.35, 0.1, m.secondary);
            }
            1 => {
                // Desk lamp: big shade, short bent arm, heavy base.
                f.ellipse(canvas, -0.2, -0.5, 0.55, 0.35, m.primary);
                f.poly(
                    canvas,
                    &[(0.1, -0.3), (0.55, 0.5), (0.45, 0.55), (0.0, -0.25)],
                    m.secondary,
                );
                f.rect(canvas, 0.15, 0.5, 0.85, 0.7, m.secondary);
            }
            _ => {
                // Bedside lamp: round shade on a squat base.
                f.ellipse(canvas, 0.0, -0.4, 0.5, 0.42, m.primary);
                f.rect(canvas, -0.08, 0.0, 0.08, 0.45, m.secondary);
                f.poly(
                    canvas,
                    &[(-0.4, 0.85), (0.4, 0.85), (0.15, 0.4), (-0.15, 0.4)],
                    m.secondary,
                );
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use taor_imgproc::prelude::*;

    /// A canonical front-facing view (no stretch).
    fn frontal(scale: f32, cx: f32, cy: f32) -> ViewParams {
        ViewParams {
            rotation: 0.0,
            scale,
            cx,
            cy,
            flip: false,
            stretch_x: 1.0,
            stretch_y: 1.0,
            shear: 0.0,
        }
    }

    fn render(class: ObjectClass, seed: u64) -> taor_imgproc::RgbImage {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let m = sample_model(class, &mut rng);
        let mut canvas = Canvas::new(96, 96, [255, 255, 255]);
        draw_object(&mut canvas, &m, frontal(36.0, 48.0, 48.0));
        canvas.into_image()
    }

    #[test]
    fn every_class_draws_something() {
        for class in ObjectClass::ALL {
            let img = render(class, 7);
            let non_white =
                img.as_raw().chunks_exact(3).filter(|px| *px != [255, 255, 255]).count();
            assert!(non_white > 200, "{class:?} drew only {non_white} pixels");
        }
    }

    #[test]
    fn object_produces_one_dominant_contour() {
        for class in ObjectClass::ALL {
            let img = render(class, 3);
            let gray = rgb_to_gray(&img);
            let bin = threshold_binary_inv(&gray, 250);
            let contours = find_contours(&bin);
            let largest = largest_contour(&contours).expect("object visible");
            assert!(largest.area() > 100.0, "{class:?} area {}", largest.area());
        }
    }

    #[test]
    fn models_of_same_class_differ() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        let a = sample_model(ObjectClass::Chair, &mut rng);
        let b = sample_model(ObjectClass::Chair, &mut rng);
        assert!(
            a.primary != b.primary || a.style != b.style || a.aspect != b.aspect,
            "independent samples should differ"
        );
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let mut r1 = rand::rngs::SmallRng::seed_from_u64(11);
        let mut r2 = rand::rngs::SmallRng::seed_from_u64(11);
        let a = sample_model(ObjectClass::Sofa, &mut r1);
        let b = sample_model(ObjectClass::Sofa, &mut r2);
        assert_eq!(a.primary, b.primary);
        assert_eq!(a.style, b.style);
    }

    #[test]
    fn rotation_changes_the_render() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(9);
        let m = sample_model(ObjectClass::Lamp, &mut rng);
        let mut c1 = Canvas::new(96, 96, [255, 255, 255]);
        let mut c2 = Canvas::new(96, 96, [255, 255, 255]);
        let base = frontal(34.0, 48.0, 48.0);
        draw_object(&mut c1, &m, base);
        draw_object(&mut c2, &m, ViewParams { rotation: 0.8, ..base });
        assert_ne!(c1.into_image(), c2.into_image());
    }

    #[test]
    fn flip_mirrors_the_render() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(13);
        let m = sample_model(ObjectClass::Door, &mut rng);
        let base = frontal(34.0, 48.0, 48.0);
        let mut c1 = Canvas::new(96, 96, [255, 255, 255]);
        draw_object(&mut c1, &m, base);
        let mut c2 = Canvas::new(96, 96, [255, 255, 255]);
        draw_object(&mut c2, &m, ViewParams { flip: true, ..base });
        let i1 = c1.into_image();
        let i2 = c2.into_image();
        assert_ne!(i1, i2, "door knob breaks mirror symmetry");
    }
}
