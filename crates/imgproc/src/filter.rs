//! Separable Gaussian smoothing: the scale-space substrate for SIFT
//! (Gaussian pyramid, DoG) and ORB's pre-smoothing.

use crate::error::{ImgError, Result};
use crate::image::GrayF32;

/// Build a normalised 1-D Gaussian kernel for standard deviation `sigma`.
/// Radius is `ceil(3σ)` (99.7 % of mass), matching common practice.
pub fn gaussian_kernel(sigma: f32) -> Result<Vec<f32>> {
    if sigma <= 0.0 || !sigma.is_finite() {
        return Err(ImgError::InvalidParameter {
            name: "sigma",
            msg: format!("{sigma} must be finite and > 0"),
        });
    }
    let radius = (3.0 * sigma).ceil() as i32;
    let mut kernel = Vec::with_capacity((2 * radius + 1) as usize);
    let denom = 2.0 * sigma * sigma;
    for i in -radius..=radius {
        kernel.push((-(i * i) as f32 / denom).exp());
    }
    let sum: f32 = kernel.iter().sum();
    for v in &mut kernel {
        *v /= sum;
    }
    Ok(kernel)
}

/// Horizontal 1-D convolution with replicate borders.
fn convolve_h(img: &GrayF32, kernel: &[f32]) -> GrayF32 {
    let (w, h) = img.dimensions();
    let radius = (kernel.len() / 2) as i64;
    let mut out = GrayF32::new(w, h);
    for y in 0..h {
        for x in 0..w {
            let mut acc = 0.0;
            for (k, &kv) in kernel.iter().enumerate() {
                acc += kv * img.get_clamped(x as i64 + k as i64 - radius, y as i64);
            }
            out.put(x, y, acc);
        }
    }
    out
}

/// Vertical 1-D convolution with replicate borders.
fn convolve_v(img: &GrayF32, kernel: &[f32]) -> GrayF32 {
    let (w, h) = img.dimensions();
    let radius = (kernel.len() / 2) as i64;
    let mut out = GrayF32::new(w, h);
    for y in 0..h {
        for x in 0..w {
            let mut acc = 0.0;
            for (k, &kv) in kernel.iter().enumerate() {
                acc += kv * img.get_clamped(x as i64, y as i64 + k as i64 - radius);
            }
            out.put(x, y, acc);
        }
    }
    out
}

/// Separable Gaussian blur with standard deviation `sigma`.
pub fn gaussian_blur(img: &GrayF32, sigma: f32) -> Result<GrayF32> {
    let kernel = gaussian_kernel(sigma)?;
    Ok(convolve_v(&convolve_h(img, &kernel), &kernel))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_normalised_and_symmetric() {
        let k = gaussian_kernel(1.5).unwrap();
        let sum: f32 = k.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        for i in 0..k.len() / 2 {
            assert!((k[i] - k[k.len() - 1 - i]).abs() < 1e-7);
        }
        assert_eq!(k.len() % 2, 1);
    }

    #[test]
    fn invalid_sigma_rejected() {
        assert!(gaussian_kernel(0.0).is_err());
        assert!(gaussian_kernel(-1.0).is_err());
        assert!(gaussian_kernel(f32::NAN).is_err());
    }

    #[test]
    fn blur_preserves_constant_images() {
        let img = GrayF32::filled(9, 9, [42.0]);
        let b = gaussian_blur(&img, 2.0).unwrap();
        for (_, _, [v]) in b.enumerate_pixels() {
            assert!((v - 42.0).abs() < 1e-4);
        }
    }

    #[test]
    fn blur_reduces_variance() {
        let mut img = GrayF32::new(16, 16);
        for (i, v) in img.as_raw_mut().iter_mut().enumerate() {
            *v = if i % 2 == 0 { 0.0 } else { 255.0 };
        }
        let var = |im: &GrayF32| {
            let n = im.as_raw().len() as f32;
            let mean: f32 = im.as_raw().iter().sum::<f32>() / n;
            im.as_raw().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / n
        };
        let b = gaussian_blur(&img, 1.0).unwrap();
        assert!(var(&b) < var(&img) * 0.5);
    }
}
