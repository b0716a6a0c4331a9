// taor-lint: allow(panic::index) — dense numeric kernel: mask fill over row*f..(row+1)*f with f*rows == len asserted at entry.
//! Inverted dropout.
//!
//! The paper attributes its Table-4 failure to overfitting and proposes
//! "further tweaking of the framework" — dropout is the canonical first
//! tweak. Inverted scaling (`kept / (1 − rate)`) keeps inference
//! untouched: at prediction time the layer is the identity.

use crate::tensor::Tensor;
use rand::{Rng, SeedableRng};

/// Dropout layer configuration.
#[derive(Debug, Clone, Copy)]
pub struct Dropout {
    /// Fraction of activations zeroed during training, in `[0, 1)`.
    pub rate: f32,
}

/// Cache: the applied keep-mask with its inverted scale folded in.
pub struct DropoutCache {
    scale_mask: Vec<f32>,
}

impl Dropout {
    /// New dropout layer.
    ///
    /// # Panics
    /// Panics if `rate` is outside `[0, 1)`.
    pub fn new(rate: f32) -> Self {
        assert!((0.0..1.0).contains(&rate), "dropout rate {rate} not in [0, 1)");
        Dropout { rate }
    }

    /// Training-mode forward with a caller-provided seed (keeps the whole
    /// training run deterministic).
    pub fn forward_train(&self, x: &Tensor, seed: u64) -> (Tensor, DropoutCache) {
        // taor-lint: allow(float::eq) — config fast path for the exact disabled value
        if self.rate == 0.0 {
            return (x.clone(), DropoutCache { scale_mask: vec![1.0; x.len()] });
        }
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let keep = 1.0 - self.rate;
        let inv = 1.0 / keep;
        let mut out = x.clone();
        let mut scale_mask = vec![0.0f32; x.len()];
        for (v, m) in out.data_mut().iter_mut().zip(&mut scale_mask) {
            if rng.gen::<f32>() < keep {
                *m = inv;
                *v *= inv;
            } else {
                *v = 0.0;
            }
        }
        (out, DropoutCache { scale_mask })
    }

    /// Batched training-mode forward for a `[N, F]` activation where row
    /// `i` draws its mask from a fresh `SmallRng` stream seeded with
    /// `seeds[i]`.
    ///
    /// Bit-identical to calling [`Self::forward_train`] on each row as a
    /// `[1, F]` tensor with its seed — which is exactly what keeps the
    /// batched trainer's masks independent of how samples are grouped
    /// into micro-batches.
    pub fn forward_train_rows(&self, x: &Tensor, seeds: &[u64]) -> (Tensor, DropoutCache) {
        // taor-lint: allow(float::eq) — config fast path for the exact disabled value
        if self.rate == 0.0 {
            return (x.clone(), DropoutCache { scale_mask: vec![1.0; x.len()] });
        }
        let n = seeds.len();
        let f = x.len().checked_div(n).unwrap_or(0);
        debug_assert_eq!(f * n, x.len(), "rows must evenly split the activation");
        let keep = 1.0 - self.rate;
        let inv = 1.0 / keep;
        let mut out = x.clone();
        let mut scale_mask = vec![0.0f32; x.len()];
        let data = out.data_mut();
        for (row, &seed) in seeds.iter().enumerate() {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            for idx in row * f..(row + 1) * f {
                if rng.gen::<f32>() < keep {
                    scale_mask[idx] = inv;
                    data[idx] *= inv;
                } else {
                    data[idx] = 0.0;
                }
            }
        }
        (out, DropoutCache { scale_mask })
    }

    /// Backward: gradient flows only through kept units, with the same
    /// inverted scale.
    pub fn backward(&self, cache: &DropoutCache, grad_out: &Tensor) -> Tensor {
        let mut grad = grad_out.clone();
        for (g, &m) in grad.data_mut().iter_mut().zip(&cache.scale_mask) {
            *g *= m;
        }
        grad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn train_zeroes_roughly_rate_fraction() {
        let d = Dropout::new(0.4);
        let x = Tensor::full(&[10_000], 1.0);
        let (y, _) = d.forward_train(&x, 7);
        let zeros = y.data().iter().filter(|&&v| v == 0.0).count();
        let frac = zeros as f32 / 10_000.0;
        assert!((frac - 0.4).abs() < 0.03, "dropped {frac}");
    }

    #[test]
    fn inverted_scaling_preserves_expectation() {
        let d = Dropout::new(0.3);
        let x = Tensor::full(&[50_000], 2.0);
        let (y, _) = d.forward_train(&x, 13);
        let mean: f32 = y.data().iter().sum::<f32>() / y.len() as f32;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn deterministic_per_seed() {
        let d = Dropout::new(0.5);
        let x = Tensor::full(&[64], 1.0);
        let (a, _) = d.forward_train(&x, 42);
        let (b, _) = d.forward_train(&x, 42);
        assert_eq!(a, b);
        let (c, _) = d.forward_train(&x, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn backward_masks_gradient_consistently() {
        let d = Dropout::new(0.5);
        let x = Tensor::full(&[32], 1.0);
        let (y, cache) = d.forward_train(&x, 3);
        let g = d.backward(&cache, &Tensor::full(&[32], 1.0));
        for (yv, gv) in y.data().iter().zip(g.data()) {
            assert_eq!(*yv == 0.0, *gv == 0.0, "mask mismatch");
        }
    }

    #[test]
    fn zero_rate_is_transparent() {
        let d = Dropout::new(0.0);
        let x = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]).unwrap();
        let (y, cache) = d.forward_train(&x, 1);
        assert_eq!(y, x);
        let g = d.backward(&cache, &Tensor::full(&[3], 1.0));
        assert!(g.data().iter().all(|&v| v == 1.0));
    }

    #[test]
    #[should_panic(expected = "not in [0, 1)")]
    fn rate_one_panics() {
        Dropout::new(1.0);
    }

    #[test]
    fn rows_variant_matches_per_row_forward_bitwise() {
        let d = Dropout::new(0.35);
        let x = Tensor::from_vec(&[3, 8], (0..24).map(|i| i as f32 * 0.5 - 3.0).collect()).unwrap();
        let seeds = [11u64, 97, 11];
        let (y, cache) = d.forward_train_rows(&x, &seeds);
        for (i, &seed) in seeds.iter().enumerate() {
            let row = Tensor::from_vec(&[1, 8], x.data()[i * 8..(i + 1) * 8].to_vec()).unwrap();
            let (yr, cr) = d.forward_train(&row, seed);
            for j in 0..8 {
                assert_eq!(y.data()[i * 8 + j].to_bits(), yr.data()[j].to_bits());
                assert_eq!(cache.scale_mask[i * 8 + j].to_bits(), cr.scale_mask[j].to_bits());
            }
        }
        // Equal seeds must yield equal masks regardless of row position.
        assert_eq!(&cache.scale_mask[0..8], &cache.scale_mask[16..24], "rows 0 and 2 share a seed");
    }
}
