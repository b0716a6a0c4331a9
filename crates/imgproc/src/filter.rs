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
///
/// Each row is copied once into a buffer padded with `radius` copies of
/// its end pixels; tap `k` then reads the window that starts `k` pixels
/// into that buffer. Taps run outside and pixels inside, so every output
/// pixel sums `kernel[k] * v` from `0.0` in tap order: the expression and
/// order of the per-pixel clamped form, bit for bit.
fn convolve_h(img: &GrayF32, kernel: &[f32]) -> GrayF32 {
    let (w, h) = img.dimensions();
    let radius = kernel.len() / 2;
    let mut out = GrayF32::new(w, h);
    let mut padded = Vec::with_capacity(w as usize + 2 * radius);
    for (row, out_row) in
        img.as_raw().chunks_exact(w as usize).zip(out.as_raw_mut().chunks_exact_mut(w as usize))
    {
        let (Some(&first), Some(&last)) = (row.first(), row.last()) else { continue };
        padded.clear();
        padded.extend(std::iter::repeat_n(first, radius));
        padded.extend_from_slice(row);
        padded.extend(std::iter::repeat_n(last, radius));
        for (&kv, window) in kernel.iter().zip(padded.windows(w as usize)) {
            for (acc, &v) in out_row.iter_mut().zip(window) {
                *acc += kv * v;
            }
        }
    }
    out
}

/// Vertical 1-D convolution with replicate borders: tap `k` of output
/// row `y` adds `kernel[k]` times the whole source row `y + k − radius`,
/// clamped into the image, so every pixel sums its taps from `0.0` in
/// tap order, as [`convolve_h`] does.
fn convolve_v(img: &GrayF32, kernel: &[f32]) -> GrayF32 {
    let (w, h) = img.dimensions();
    let radius = (kernel.len() / 2) as i64;
    let mut out = GrayF32::new(w, h);
    for (y, out_row) in (0i64..).zip(out.as_raw_mut().chunks_exact_mut(w as usize)) {
        for (k, &kv) in (0i64..).zip(kernel) {
            let src = img.row((y + k - radius).clamp(0, h as i64 - 1) as u32);
            for (acc, &v) in out_row.iter_mut().zip(src) {
                *acc += kv * v;
            }
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
    use proptest::prelude::*;

    /// The per-pixel horizontal pass that reads every tap through
    /// `get_clamped`: the oracle [`convolve_h`] is pinned against.
    fn convolve_h_clamped(img: &GrayF32, kernel: &[f32]) -> GrayF32 {
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

    /// The per-pixel vertical pass, the oracle for [`convolve_v`].
    fn convolve_v_clamped(img: &GrayF32, kernel: &[f32]) -> GrayF32 {
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

    fn assert_same_bits(got: &GrayF32, want: &GrayF32, what: &str) {
        assert_eq!(got.dimensions(), want.dimensions(), "{what}");
        for (i, (g, w)) in got.as_raw().iter().zip(want.as_raw()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what} [{i}]: {g} vs {w}");
        }
    }

    /// Both passes and the blur against the clamped oracles.
    fn assert_matches_the_clamped_oracle(img: &GrayF32, kernel: &[f32]) {
        let (w, h) = img.dimensions();
        let what = format!("{w}x{h}, {} taps", kernel.len());
        assert_same_bits(&convolve_h(img, kernel), &convolve_h_clamped(img, kernel), &what);
        assert_same_bits(&convolve_v(img, kernel), &convolve_v_clamped(img, kernel), &what);
        assert_same_bits(
            &convolve_v(&convolve_h(img, kernel), kernel),
            &convolve_v_clamped(&convolve_h_clamped(img, kernel), kernel),
            &what,
        );
    }

    fn arb_plane(max_side: u32) -> impl Strategy<Value = GrayF32> {
        (1..=max_side, 1..=max_side).prop_flat_map(|(w, h)| {
            proptest::collection::vec(-300.0f32..300.0, (w * h) as usize)
                .prop_map(move |data| GrayF32::from_vec(w, h, data).unwrap())
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary sizes from 1×1 up, odd and even tap counts, and
        /// kernels wider than the image.
        #[test]
        fn blur_passes_match_the_clamped_oracle(
            img in arb_plane(24),
            kernel in proptest::collection::vec(-1.0f32..1.0, 1..=41),
        ) {
            assert_matches_the_clamped_oracle(&img, &kernel);
        }
    }

    #[test]
    fn thin_images_and_wide_kernels_match_the_clamped_oracle() {
        let wide = gaussian_kernel(4.0).unwrap();
        assert_eq!(wide.len(), 25);
        for (w, h) in [(1, 1), (1, 7), (7, 1), (1, 30), (30, 1), (3, 40), (40, 3)] {
            let data = (0..w * h).map(|i| ((i * 37 % 101) as f32 - 50.0) * 1.7).collect();
            let img = GrayF32::from_vec(w, h, data).unwrap();
            for kernel in [&wide[..], &gaussian_kernel(2.0).unwrap()[..], &[0.25, 0.5, 0.25]] {
                assert_matches_the_clamped_oracle(&img, kernel);
            }
        }
    }

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
