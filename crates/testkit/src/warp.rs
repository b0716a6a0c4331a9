// taor-lint: allow(panic::index) — dense numeric kernel: indices are derived from dimensions validated at the public boundary and bounded by the enclosing loops.
//! Affine warping.
//!
//! Generates image pairs under a *known* transform for the
//! detector-evaluation metrics in [`crate::evaluation`].

use taor_imgproc::error::{ImgError, Result};
use taor_imgproc::image::{GrayF32, GrayImage};
use taor_imgproc::resize::sample_bilinear;

/// A 2×3 affine transform `p' = A·p + t` in row-major order
/// `[a00, a01, tx, a10, a11, ty]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Affine {
    pub m: [f32; 6],
}

impl Affine {
    /// Identity.
    pub fn identity() -> Self {
        Affine { m: [1.0, 0.0, 0.0, 0.0, 1.0, 0.0] }
    }

    /// Translation.
    pub fn translation(tx: f32, ty: f32) -> Self {
        Affine { m: [1.0, 0.0, tx, 0.0, 1.0, ty] }
    }

    /// Rotation by `angle` radians around `(cx, cy)` with uniform `scale`.
    pub fn rotation_about(cx: f32, cy: f32, angle: f32, scale: f32) -> Self {
        let (s, c) = angle.sin_cos();
        let (a, b) = (scale * c, scale * s);
        // p' = R(p - c) + c
        Affine { m: [a, -b, cx - a * cx + b * cy, b, a, cy - b * cx - a * cy] }
    }

    /// Apply to a point.
    #[inline]
    pub fn apply(&self, x: f32, y: f32) -> (f32, f32) {
        (self.m[0] * x + self.m[1] * y + self.m[2], self.m[3] * x + self.m[4] * y + self.m[5])
    }

    /// Inverse transform; errors when the linear part is singular.
    pub fn inverse(&self) -> Result<Affine> {
        let [a, b, tx, c, d, ty] = self.m;
        let det = a * d - b * c;
        if det.abs() < 1e-12 {
            return Err(ImgError::InvalidParameter {
                name: "affine",
                msg: "singular linear part".into(),
            });
        }
        let inv = 1.0 / det;
        let (ia, ib, ic, id) = (d * inv, -b * inv, -c * inv, a * inv);
        Affine { m: [ia, ib, -(ia * tx + ib * ty), ic, id, -(ic * tx + id * ty)] }.into_ok()
    }

    fn into_ok(self) -> Result<Affine> {
        Ok(self)
    }

    /// Composition: `self ∘ other` (apply `other` first).
    pub fn then(&self, other: &Affine) -> Affine {
        // self(other(p))
        let [a, b, tx, c, d, ty] = self.m;
        let [e, f, ux, g, h, uy] = other.m;
        Affine {
            m: [
                a * e + b * g,
                a * f + b * h,
                a * ux + b * uy + tx,
                c * e + d * g,
                c * f + d * h,
                c * ux + d * uy + ty,
            ],
        }
    }
}

/// Warp a grayscale image by `transform` (forward mapping semantics:
/// output pixel `q` samples the input at `transform⁻¹(q)` bilinearly).
/// Out-of-source pixels become `fill`.
pub fn warp_affine(img: &GrayImage, transform: &Affine, fill: u8) -> Result<GrayImage> {
    let inv = transform.inverse()?;
    let (w, h) = img.dimensions();
    let f32img: GrayF32 = img.to_f32();
    let mut out = GrayImage::new(w, h);
    for y in 0..h {
        for x in 0..w {
            let (sx, sy) = inv.apply(x as f32, y as f32);
            if sx >= -0.5 && sy >= -0.5 && sx <= w as f32 - 0.5 && sy <= h as f32 - 0.5 {
                out.put(x, y, sample_bilinear(&f32img, sx, sy).round().clamp(0.0, 255.0) as u8);
            } else {
                out.put(x, y, fill);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checker() -> GrayImage {
        let mut img = GrayImage::new(32, 32);
        for y in 0..32 {
            for x in 0..32 {
                img.put(x, y, if (x / 4 + y / 4) % 2 == 0 { 40 } else { 210 });
            }
        }
        img
    }

    #[test]
    fn identity_warp_is_noop() {
        let img = checker();
        let w = warp_affine(&img, &Affine::identity(), 0).unwrap();
        assert_eq!(w, img);
    }

    #[test]
    fn translation_moves_content() {
        let mut img = GrayImage::new(16, 16);
        img.put(4, 4, 200);
        let t = Affine::translation(3.0, 2.0);
        let w = warp_affine(&img, &t, 0).unwrap();
        assert_eq!(w.get(7, 6), 200);
        assert_eq!(w.get(4, 4), 0);
    }

    #[test]
    fn rotation_roundtrip_approximately_identity() {
        let img = checker();
        let fwd = Affine::rotation_about(16.0, 16.0, 0.6, 1.0);
        let back = Affine::rotation_about(16.0, 16.0, -0.6, 1.0);
        let once = warp_affine(&img, &fwd, 128).unwrap();
        let twice = warp_affine(&once, &back, 128).unwrap();
        // Compare interior pixels (borders lose content to the fill).
        let mut diff = 0.0f64;
        let mut n = 0usize;
        for y in 10..22 {
            for x in 10..22 {
                diff += (twice.get(x, y) as f64 - img.get(x, y) as f64).abs();
                n += 1;
            }
        }
        assert!(diff / (n as f64) < 30.0, "mean abs diff {}", diff / n as f64);
    }

    #[test]
    fn inverse_composes_to_identity() {
        let t = Affine::rotation_about(5.0, 7.0, 1.1, 1.4).then(&Affine::translation(3.0, -2.0));
        let inv = t.inverse().unwrap();
        let both = t.then(&inv);
        let p = both.apply(11.0, -4.0);
        assert!((p.0 - 11.0).abs() < 1e-3 && (p.1 + 4.0).abs() < 1e-3);
    }

    #[test]
    fn singular_transform_rejected() {
        let t = Affine { m: [1.0, 2.0, 0.0, 2.0, 4.0, 0.0] };
        assert!(t.inverse().is_err());
        let img = checker();
        assert!(warp_affine(&img, &t, 0).is_err());
    }

    #[test]
    fn out_of_bounds_filled() {
        let img = GrayImage::filled(8, 8, [100]);
        let w = warp_affine(&img, &Affine::translation(6.0, 0.0), 7).unwrap();
        assert_eq!(w.get(0, 0), 7);
        assert_eq!(w.get(7, 0), 100);
    }
}
