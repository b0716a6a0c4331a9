// taor-lint: allow(panic::index) — dense numeric kernel: indices are derived from dimensions validated at the public boundary and bounded by the enclosing loops.
//! Fully-connected layer.

use crate::tensor::{Tensor, TensorError};

/// A dense layer: `y = x · W + b`, with `x` of shape `[N, in]`, `W` of
/// shape `[in, out]`.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Dense {
    pub weight: Tensor,
    pub bias: Tensor,
    pub in_features: usize,
    pub out_features: usize,
}

/// Cache: the input activations.
pub struct DenseCache {
    x: Tensor,
}

/// Gradient accumulator matching a [`Dense`]'s parameters.
#[derive(Debug, Clone)]
pub struct DenseGrads {
    pub weight: Tensor,
    pub bias: Tensor,
}

impl Dense {
    /// New dense layer with Glorot-uniform weights (Keras default).
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Self {
        Dense {
            weight: crate::init::glorot_uniform(
                &[in_features, out_features],
                in_features,
                out_features,
                seed,
            ),
            bias: Tensor::zeros(&[out_features]),
            in_features,
            out_features,
        }
    }

    /// Fresh zeroed gradient accumulator.
    pub fn zero_grads(&self) -> DenseGrads {
        DenseGrads {
            weight: Tensor::zeros(self.weight.shape()),
            bias: Tensor::zeros(self.bias.shape()),
        }
    }

    /// Forward: `[N, in] → [N, out]`.
    pub fn forward(&self, x: &Tensor) -> Result<(Tensor, DenseCache), TensorError> {
        if x.shape().len() != 2 || x.shape()[1] != self.in_features {
            return Err(TensorError::ShapeMismatch {
                expected: vec![0, self.in_features],
                got: x.shape().to_vec(),
            });
        }
        let mut y = x.matmul(&self.weight)?;
        let n = y.shape()[0];
        let out = self.out_features;
        for i in 0..n {
            for j in 0..out {
                y.data_mut()[i * out + j] += self.bias.data()[j];
            }
        }
        Ok((y, DenseCache { x: x.clone() }))
    }

    /// Backward: accumulates `dW = xᵀ·g`, `db = Σg`, returns `dx = g·Wᵀ`.
    pub fn backward(
        &self,
        cache: &DenseCache,
        grad_out: &Tensor,
        grads: &mut DenseGrads,
    ) -> Result<Tensor, TensorError> {
        let n = grad_out.shape()[0];
        // dW += xᵀ·g via the transposed-operand kernel: x is read in place
        // and the product accumulates straight into the gradient store.
        crate::gemm::gemm_tn(
            self.in_features,
            self.out_features,
            n,
            cache.x.data(),
            grad_out.data(),
            grads.weight.data_mut(),
            true,
        );
        for i in 0..n {
            for j in 0..self.out_features {
                grads.bias.data_mut()[j] += grad_out.data()[i * self.out_features + j];
            }
        }
        // dx = g·Wᵀ, again without materialising the transpose.
        let mut dx = Tensor::zeros(&[n, self.in_features]);
        crate::gemm::gemm_nt(
            n,
            self.in_features,
            self.out_features,
            grad_out.data(),
            self.out_features,
            self.weight.data(),
            self.out_features,
            dx.data_mut(),
            false,
        );
        Ok(dx)
    }

    /// Batched backward whose **parameter accumulation is bit-identical
    /// to the per-sample oracle**: each row gets its own `k = 1` GEMM
    /// into a zeroed temp — the exact call [`Self::backward`] makes at
    /// batch size 1 — plus a per-row bias temp, both added into `grads`
    /// in row order. One batched `k = N` GEMM would regroup the f32 fold
    /// across rows and shift the low bits. The input gradient contracts
    /// over `out`, per row, so it stays one batched GEMM.
    pub fn backward_rows(
        &self,
        cache: &DenseCache,
        grad_out: &Tensor,
        grads: &mut DenseGrads,
    ) -> Result<Tensor, TensorError> {
        let n = grad_out.shape()[0];
        let (fi, fo) = (self.in_features, self.out_features);
        let mut wtmp = crate::scratch::Scratch::take_zeroed(fi * fo);
        for i in 0..n {
            wtmp.fill(0.0);
            crate::gemm::gemm_tn(
                fi,
                fo,
                1,
                &cache.x.data()[i * fi..(i + 1) * fi],
                &grad_out.data()[i * fo..(i + 1) * fo],
                &mut wtmp,
                true,
            );
            for (d, &s) in grads.weight.data_mut().iter_mut().zip(wtmp.iter()) {
                *d += s;
            }
            for j in 0..fo {
                // The oracle's per-sample bias store starts at zero, so
                // the total sees `total + (0.0 + g)` — replicate both
                // adds (they differ from `total + g` when g is -0.0).
                let per = 0.0f32 + grad_out.data()[i * fo + j];
                grads.bias.data_mut()[j] += per;
            }
        }

        let mut dx = Tensor::zeros(&[n, fi]);
        crate::gemm::gemm_nt(
            n,
            fi,
            fo,
            grad_out.data(),
            fo,
            self.weight.data(),
            fo,
            dx.data_mut(),
            false,
        );
        Ok(dx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_affine() {
        let mut d = Dense::new(2, 2, 1);
        d.weight = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        d.bias = Tensor::from_vec(&[2], vec![0.5, -0.5]).unwrap();
        let x = Tensor::from_vec(&[1, 2], vec![1.0, 1.0]).unwrap();
        let (y, _) = d.forward(&x).unwrap();
        assert_eq!(y.data(), &[4.5, 5.5]);
    }

    #[test]
    fn shape_validation() {
        let d = Dense::new(3, 2, 1);
        assert!(d.forward(&Tensor::zeros(&[1, 4])).is_err());
        assert!(d.forward(&Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn gradient_check() {
        let d = Dense::new(3, 2, 5);
        let x = Tensor::from_vec(&[2, 3], vec![0.1, -0.2, 0.3, 0.4, 0.5, -0.6]).unwrap();
        let (y, cache) = d.forward(&x).unwrap();
        let grad_out = Tensor::full(y.shape(), 1.0);
        let mut grads = d.zero_grads();
        let gin = d.backward(&cache, &grad_out, &mut grads).unwrap();

        let eps = 1e-3f32;
        // Check dX.
        let mut x2 = x.clone();
        for idx in 0..x.len() {
            let orig = x2.data()[idx];
            x2.data_mut()[idx] = orig + eps;
            let (y1, _) = d.forward(&x2).unwrap();
            x2.data_mut()[idx] = orig - eps;
            let (y2, _) = d.forward(&x2).unwrap();
            x2.data_mut()[idx] = orig;
            let num: f32 =
                y1.data().iter().zip(y2.data()).map(|(a, b)| (a - b) / (2.0 * eps)).sum();
            assert!((num - gin.data()[idx]).abs() < 1e-2, "dX[{idx}]");
        }
        // db sums over batch.
        assert_eq!(grads.bias.data(), &[2.0, 2.0]);
    }

    #[test]
    fn backward_rows_matches_per_sample_oracle_bitwise() {
        let d = Dense::new(5, 3, 17);
        let x =
            Tensor::from_vec(&[4, 5], (0..20).map(|v| (v as f32 * 0.19).sin()).collect()).unwrap();
        let (y, cache) = d.forward(&x).unwrap();
        let g = Tensor::from_vec(y.shape(), (0..12).map(|v| (v as f32 * 0.37).cos()).collect())
            .unwrap();

        let mut batched = d.zero_grads();
        let dx = d.backward_rows(&cache, &g, &mut batched).unwrap();

        // Oracle: each row alone (B = 1), per-sample stores summed in order.
        let mut total = d.zero_grads();
        let mut dx_rows = Vec::new();
        for i in 0..4 {
            let xi = Tensor::from_vec(&[1, 5], x.data()[i * 5..(i + 1) * 5].to_vec()).unwrap();
            let (_, ci) = d.forward(&xi).unwrap();
            let gi = Tensor::from_vec(&[1, 3], g.data()[i * 3..(i + 1) * 3].to_vec()).unwrap();
            let mut per = d.zero_grads();
            let dxi = d.backward(&ci, &gi, &mut per).unwrap();
            dx_rows.extend_from_slice(dxi.data());
            for (t, &v) in total.weight.data_mut().iter_mut().zip(per.weight.data()) {
                *t += v;
            }
            for (t, &v) in total.bias.data_mut().iter_mut().zip(per.bias.data()) {
                *t += v;
            }
        }
        for (i, (a, b)) in batched.weight.data().iter().zip(total.weight.data()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "dW[{i}]");
        }
        for (i, (a, b)) in batched.bias.data().iter().zip(total.bias.data()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "db[{i}]");
        }
        for (i, (a, b)) in dx.data().iter().zip(&dx_rows).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "dx[{i}]");
        }
    }

    #[test]
    fn weight_gradient_accumulates_across_calls() {
        let d = Dense::new(2, 1, 9);
        let x = Tensor::from_vec(&[1, 2], vec![1.0, 2.0]).unwrap();
        let (y, cache) = d.forward(&x).unwrap();
        let g = Tensor::full(y.shape(), 1.0);
        let mut grads = d.zero_grads();
        d.backward(&cache, &g, &mut grads).unwrap();
        d.backward(&cache, &g, &mut grads).unwrap();
        // Two identical backward passes double the gradient (shared-weight
        // accumulation property the Siamese towers rely on).
        assert_eq!(grads.weight.data(), &[2.0, 4.0]);
    }
}
