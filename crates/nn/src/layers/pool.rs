// taor-lint: allow(panic::index) — dense numeric kernel: indices are derived from dimensions validated at the public boundary and bounded by the enclosing loops.
//! Max pooling.

use crate::tensor::{Tensor, TensorError};

/// 2-D max pooling with square window and equal stride (the architecture
/// uses 2×2/2 throughout).
#[derive(Debug, Clone, Copy)]
pub struct MaxPool2D {
    pub size: usize,
    pub stride: usize,
}

/// Cache: flat argmax index (into the input tensor) per output element.
pub struct PoolCache {
    argmax: Vec<usize>,
    in_shape: [usize; 4],
}

impl MaxPool2D {
    /// New pool layer. `size` and `stride` must be ≥ 1.
    pub fn new(size: usize, stride: usize) -> Self {
        assert!(size >= 1 && stride >= 1, "pool size/stride must be >= 1");
        MaxPool2D { size, stride }
    }

    /// Output spatial size.
    pub fn out_size(&self, h: usize, w: usize) -> (usize, usize) {
        (
            (h.saturating_sub(self.size)) / self.stride + 1,
            (w.saturating_sub(self.size)) / self.stride + 1,
        )
    }

    /// Forward: `[N, C, H, W] → [N, C, OH, OW]`.
    pub fn forward(&self, x: &Tensor) -> Result<(Tensor, PoolCache), TensorError> {
        let s = x.shape();
        if s.len() != 4 || s[2] < self.size || s[3] < self.size {
            return Err(TensorError::ShapeMismatch {
                expected: vec![0, 0, self.size, self.size],
                got: s.to_vec(),
            });
        }
        let [n, c, h, w] = [s[0], s[1], s[2], s[3]];
        let (oh, ow) = self.out_size(h, w);
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        let mut argmax = vec![0usize; n * c * oh * ow];
        let data = x.data();
        for ni in 0..n {
            for ci in 0..c {
                let plane = (ni * c + ci) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        // A window with nothing above −∞ (all NaN, say)
                        // keeps its own first tap.
                        let mut best_idx = plane + oy * self.stride * w + ox * self.stride;
                        for ky in 0..self.size {
                            for kx in 0..self.size {
                                let idx =
                                    plane + (oy * self.stride + ky) * w + ox * self.stride + kx;
                                if data[idx] > best {
                                    best = data[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        let o = ((ni * c + ci) * oh + oy) * ow + ox;
                        out.data_mut()[o] = best;
                        argmax[o] = best_idx;
                    }
                }
            }
        }
        Ok((out, PoolCache { argmax, in_shape: [n, c, h, w] }))
    }

    /// Backward: routes each output gradient to its argmax input position.
    pub fn backward(&self, cache: &PoolCache, grad_out: &Tensor) -> Tensor {
        let [n, c, h, w] = cache.in_shape;
        let mut grad_in = Tensor::zeros(&[n, c, h, w]);
        for (o, &src) in cache.argmax.iter().enumerate() {
            grad_in.data_mut()[src] += grad_out.data()[o];
        }
        grad_in
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_maxima() {
        let pool = MaxPool2D::new(2, 2);
        let x = Tensor::from_vec(
            &[1, 1, 4, 4],
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                9.0, 10.0, 13.0, 14.0, //
                11.0, 12.0, 15.0, 16.0,
            ],
        )
        .unwrap();
        let (y, _) = pool.forward(&x).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[4.0, 8.0, 12.0, 16.0]);
    }

    #[test]
    fn odd_sizes_truncate() {
        let pool = MaxPool2D::new(2, 2);
        let x = Tensor::zeros(&[1, 2, 5, 7]);
        let (y, _) = pool.forward(&x).unwrap();
        assert_eq!(y.shape(), &[1, 2, 2, 3]);
    }

    #[test]
    fn too_small_input_rejected() {
        let pool = MaxPool2D::new(3, 3);
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        assert!(pool.forward(&x).is_err());
    }

    #[test]
    fn backward_routes_to_argmax() {
        let pool = MaxPool2D::new(2, 2);
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 9.0, 3.0, 4.0]).unwrap();
        let (y, cache) = pool.forward(&x).unwrap();
        assert_eq!(y.data(), &[9.0]);
        let g = pool.backward(&cache, &Tensor::full(&[1, 1, 1, 1], 2.5));
        assert_eq!(g.data(), &[0.0, 2.5, 0.0, 0.0]);
    }

    #[test]
    fn all_nan_window_keeps_its_gradient_in_its_own_item() {
        let pool = MaxPool2D::new(2, 2);
        let items = [vec![1.0, 2.0, 3.0, 4.0], vec![f32::NAN; 4]];
        let grads = [10.0f32, 0.5];
        let x = Tensor::from_vec(&[2, 1, 2, 2], items.concat()).unwrap();
        let (_, cache) = pool.forward(&x).unwrap();
        let batched =
            pool.backward(&cache, &Tensor::from_vec(&[2, 1, 1, 1], grads.to_vec()).unwrap());
        for (i, item) in items.iter().enumerate() {
            let alone = Tensor::from_vec(&[1, 1, 2, 2], item.clone()).unwrap();
            let (_, cache) = pool.forward(&alone).unwrap();
            let want = pool.backward(&cache, &Tensor::full(&[1, 1, 1, 1], grads[i]));
            assert_eq!(&batched.data()[i * 4..(i + 1) * 4], want.data(), "item {i}");
        }
    }

    #[test]
    fn gradient_check() {
        let pool = MaxPool2D::new(2, 2);
        let x = Tensor::from_vec(
            &[1, 2, 4, 4],
            (0..32).map(|v| ((v * 7919) % 97) as f32 * 0.1).collect(),
        )
        .unwrap();
        let (y, cache) = pool.forward(&x).unwrap();
        let grad_out = Tensor::full(y.shape(), 1.0);
        let gin = pool.backward(&cache, &grad_out);
        let eps = 1e-3f32;
        let mut x2 = x.clone();
        for idx in [0usize, 5, 16, 31] {
            let orig = x2.data()[idx];
            x2.data_mut()[idx] = orig + eps;
            let (y1, _) = pool.forward(&x2).unwrap();
            x2.data_mut()[idx] = orig - eps;
            let (y2, _) = pool.forward(&x2).unwrap();
            x2.data_mut()[idx] = orig;
            let num: f32 =
                y1.data().iter().zip(y2.data()).map(|(a, b)| (a - b) / (2.0 * eps)).sum();
            assert!((num - gin.data()[idx]).abs() < 1e-3, "idx {idx}");
        }
    }
}
