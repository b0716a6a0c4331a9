// taor-lint: allow(panic::index) — dense numeric kernel: indices are derived from dimensions validated at the public boundary and bounded by the enclosing loops.
//! Bilinear image resizing.
//!
//! The Siamese pipeline resizes every input crop to a fixed resolution
//! before feeding the network (60×160×3 in the paper); the descriptor
//! pipelines normalise reference views to a common scale.

use crate::error::{ImgError, Result};
use crate::image::{GrayF32, RgbImage};

fn check_dims(w: u32, h: u32) -> Result<()> {
    if w == 0 || h == 0 {
        Err(ImgError::InvalidDimensions { width: w, height: h })
    } else {
        Ok(())
    }
}

/// Bilinear sample of a grayscale f32 image at fractional coordinates.
#[inline]
pub fn sample_bilinear(img: &GrayF32, x: f32, y: f32) -> f32 {
    let x0 = x.floor();
    let y0 = y.floor();
    let fx = x - x0;
    let fy = y - y0;
    let xi = x0 as i64;
    let yi = y0 as i64;
    let p00 = img.get_clamped(xi, yi);
    let p10 = img.get_clamped(xi + 1, yi);
    let p01 = img.get_clamped(xi, yi + 1);
    let p11 = img.get_clamped(xi + 1, yi + 1);
    p00 * (1.0 - fx) * (1.0 - fy) + p10 * fx * (1.0 - fy) + p01 * (1.0 - fx) * fy + p11 * fx * fy
}

/// Bilinear resize of a grayscale f32 image.
pub fn resize_bilinear_f32(img: &GrayF32, new_w: u32, new_h: u32) -> Result<GrayF32> {
    check_dims(new_w, new_h)?;
    let mut out = GrayF32::new(new_w, new_h);
    let sx = img.width() as f32 / new_w as f32;
    let sy = img.height() as f32 / new_h as f32;
    for y in 0..new_h {
        for x in 0..new_w {
            let src_x = (x as f32 + 0.5) * sx - 0.5;
            let src_y = (y as f32 + 0.5) * sy - 0.5;
            out.put(x, y, sample_bilinear(img, src_x, src_y));
        }
    }
    Ok(out)
}

/// Source taps of one output axis: for each output index the two
/// clamped source indices and the interpolation fraction, computed as
/// [`sample_bilinear`] computes them for `src = (i + 0.5)·scale − 0.5`.
fn axis_taps(out_len: u32, in_len: u32) -> Vec<(usize, usize, f32)> {
    let scale = in_len as f32 / out_len as f32;
    let last = i64::from(in_len) - 1;
    (0..out_len)
        .map(|i| {
            let src = (i as f32 + 0.5) * scale - 0.5;
            let i0 = src.floor();
            let frac = src - i0;
            let i0 = i0 as i64;
            (i0.clamp(0, last) as usize, (i0 + 1).clamp(0, last) as usize, frac)
        })
        .collect()
}

/// Bilinear resize of an RGB image, channel by channel.
///
/// Samples the interleaved `u8` buffer directly with
/// [`sample_bilinear`]'s arithmetic (`u8 as f32` is exact, the weights
/// and their products are formed in the same order), so the result is
/// byte-identical to splitting the crop into `f32` planes and sampling
/// those. Source indices and fractions are computed once per output
/// column and once per output row.
pub fn resize_bilinear_rgb(img: &RgbImage, new_w: u32, new_h: u32) -> Result<RgbImage> {
    check_dims(new_w, new_h)?;
    let (w, h) = img.dimensions();
    let cols = axis_taps(new_w, w);
    let rows = axis_taps(new_h, h);
    let src = img.as_raw();
    let stride = w as usize * 3;
    let mut out = vec![0u8; new_w as usize * new_h as usize * 3];
    for (dst_row, &(y0, y1, fy)) in out.chunks_exact_mut(new_w as usize * 3).zip(&rows) {
        let top = &src[y0 * stride..(y0 + 1) * stride];
        let bottom = &src[y1 * stride..(y1 + 1) * stride];
        for (dst, &(x0, x1, fx)) in dst_row.chunks_exact_mut(3).zip(&cols) {
            for (c, d) in dst.iter_mut().enumerate() {
                let p00 = f32::from(top[x0 * 3 + c]);
                let p10 = f32::from(top[x1 * 3 + c]);
                let p01 = f32::from(bottom[x0 * 3 + c]);
                let p11 = f32::from(bottom[x1 * 3 + c]);
                let v = p00 * (1.0 - fx) * (1.0 - fy)
                    + p10 * fx * (1.0 - fy)
                    + p01 * (1.0 - fx) * fy
                    + p11 * fx * fy;
                *d = v.round().clamp(0.0, 255.0) as u8;
            }
        }
    }
    RgbImage::from_vec(new_w, new_h, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::GrayImage;

    #[test]
    fn bilinear_constant_image_stays_constant() {
        let img = GrayImage::filled(5, 5, [77]).to_f32();
        let r = resize_bilinear_f32(&img, 13, 9).unwrap();
        assert!(r.as_raw().iter().all(|&v| (v - 77.0).abs() < 1e-4));
    }

    #[test]
    fn bilinear_preserves_mean_approximately() {
        let mut img = GrayImage::new(8, 8);
        for y in 0..8 {
            for x in 0..8 {
                img.put(x, y, (x * 30) as u8);
            }
        }
        let r = resize_bilinear_f32(&img.to_f32(), 16, 16).unwrap();
        let mean_src: f64 =
            img.as_raw().iter().map(|&v| v as f64).sum::<f64>() / img.as_raw().len() as f64;
        let mean_dst: f64 =
            r.as_raw().iter().map(|&v| f64::from(v)).sum::<f64>() / r.as_raw().len() as f64;
        assert!((mean_src - mean_dst).abs() < 4.0, "{mean_src} vs {mean_dst}");
    }

    #[test]
    fn zero_target_rejected() {
        let img = GrayImage::new(4, 4);
        assert!(resize_bilinear_f32(&img.to_f32(), 4, 0).is_err());
        assert!(resize_bilinear_rgb(&RgbImage::new(4, 4), 0, 0).is_err());
    }

    #[test]
    fn rgb_resize_keeps_channels_independent() {
        let img = RgbImage::filled(4, 4, [200, 100, 50]);
        let r = resize_bilinear_rgb(&img, 9, 3).unwrap();
        for (_, _, px) in r.enumerate_pixels() {
            assert_eq!(px, [200, 100, 50]);
        }
    }

    #[test]
    fn sample_bilinear_interpolates_midpoint() {
        let mut img = GrayF32::new(2, 1);
        img.put(0, 0, 0.0);
        img.put(1, 0, 100.0);
        assert!((sample_bilinear(&img, 0.5, 0.0) - 50.0).abs() < 1e-6);
    }
}
