// taor-lint: allow(panic::index) — dense numeric kernel: indices are derived from dimensions validated at the public boundary and bounded by the enclosing loops.
//! 2-D convolution via im2col.
//!
//! Forward and backward are fully batched: one im2col matrix covers the
//! whole `[N, C, H, W]` input, so each pass costs exactly one GEMM
//! (`taor_nn::gemm`) regardless of batch size. All large temporaries —
//! the im2col matrix, the gathered gradient panel, the col2im staging
//! buffer — come from the [`Scratch`] arena, so steady-state passes
//! allocate nothing per sample.

use crate::gemm::{gemm_nn, gemm_nt, gemm_tn};
use crate::scratch::{Scratch, ScratchBuf};
use crate::tensor::{Tensor, TensorError};

/// A 2-D convolution with stride 1 and symmetric zero padding.
///
/// Weights are stored as a `[out_channels, in_channels * kh * kw]` matrix
/// so forward/backward reduce to matrix products against the im2col
/// buffer.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Conv2D {
    pub weight: Tensor,
    pub bias: Tensor,
    pub in_channels: usize,
    pub out_channels: usize,
    pub kernel: usize,
    pub padding: usize,
}

/// Activation cache of one conv forward pass.
#[derive(Debug)]
pub struct ConvCache {
    /// Batched im2col matrix `[C·K·K, N·OH·OW]` (arena-owned).
    col: ScratchBuf,
    in_shape: [usize; 4],
    out_hw: (usize, usize),
}

/// Gradient accumulator matching a [`Conv2D`]'s parameters.
#[derive(Debug, Clone)]
pub struct ConvGrads {
    pub weight: Tensor,
    pub bias: Tensor,
}

impl Conv2D {
    /// New conv layer with He-uniform weights (it is always followed by a
    /// ReLU in the Normalized-X-Corr architecture).
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        padding: usize,
        seed: u64,
    ) -> Self {
        let fan_in = in_channels * kernel * kernel;
        Conv2D {
            weight: crate::init::he_uniform(&[out_channels, fan_in], fan_in, seed),
            bias: Tensor::zeros(&[out_channels]),
            in_channels,
            out_channels,
            kernel,
            padding,
        }
    }

    /// Fresh zeroed gradient accumulator.
    pub fn zero_grads(&self) -> ConvGrads {
        ConvGrads {
            weight: Tensor::zeros(self.weight.shape()),
            bias: Tensor::zeros(self.bias.shape()),
        }
    }

    /// Output spatial size for an `h × w` input, or an error when the
    /// kernel does not fit inside the padded input (the subtraction
    /// underflowed silently in release builds before this guard).
    pub fn try_out_size(&self, h: usize, w: usize) -> Result<(usize, usize), TensorError> {
        let (ph, pw) = (h + 2 * self.padding, w + 2 * self.padding);
        if self.kernel == 0 || self.kernel > ph || self.kernel > pw {
            return Err(TensorError::KernelTooLarge {
                kernel: self.kernel,
                padded_h: ph,
                padded_w: pw,
            });
        }
        Ok((ph + 1 - self.kernel, pw + 1 - self.kernel))
    }

    /// Batched im2col: fills `col` as `[C·K·K, N·OH·OW]`, columns grouped
    /// per batch item (`col[row, n·OH·OW + oy·OW + ox]`). `col` must be
    /// zeroed — padding taps are skipped, not written.
    fn im2col_batched(&self, x: &Tensor, col: &mut [f32], oh: usize, ow: usize) {
        let [n, c, h, w] = [x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]];
        let k = self.kernel;
        let p = self.padding;
        let x_data = x.data();
        let row_len = n * oh * ow;
        for ci in 0..c {
            for ky in 0..k {
                for kx in 0..k {
                    let row = ((ci * k) + ky) * k + kx;
                    let dst_row = &mut col[row * row_len..(row + 1) * row_len];
                    for ni in 0..n {
                        let src_plane = &x_data[(ni * c + ci) * h * w..(ni * c + ci + 1) * h * w];
                        let dst_item = &mut dst_row[ni * oh * ow..(ni + 1) * oh * ow];
                        for oy in 0..oh {
                            let sy = oy + ky;
                            if sy < p || sy >= h + p {
                                continue;
                            }
                            let sy = sy - p;
                            // Valid ox range: p <= ox + kx < w + p.
                            let ox_lo = p.saturating_sub(kx);
                            let ox_hi = (w + p - kx).min(ow);
                            if ox_lo >= ox_hi {
                                continue;
                            }
                            let src = &src_plane[sy * w + ox_lo + kx - p..sy * w + ox_hi + kx - p];
                            dst_item[oy * ow + ox_lo..oy * ow + ox_hi].copy_from_slice(src);
                        }
                    }
                }
            }
        }
    }

    /// Forward pass: `x` is `[N, C, H, W]` → `[N, OC, OH, OW]`.
    pub fn forward(&self, x: &Tensor) -> Result<(Tensor, ConvCache), TensorError> {
        let shape = x.shape();
        if shape.len() != 4 || shape[1] != self.in_channels {
            return Err(TensorError::ShapeMismatch {
                expected: vec![0, self.in_channels, 0, 0],
                got: shape.to_vec(),
            });
        }
        let [n, c, h, w] = [shape[0], shape[1], shape[2], shape[3]];
        let (oh, ow) = self.try_out_size(h, w)?;
        let ckk = c * self.kernel * self.kernel;
        let cols_n = n * oh * ow;

        // Padding taps are skipped by im2col, so the buffer must start
        // zeroed — but a valid (p = 0) conv overwrites every element and
        // can take the arena buffer as-is.
        let mut col = if self.padding == 0 {
            Scratch::take(ckk * cols_n)
        } else {
            Scratch::take_zeroed(ckk * cols_n)
        };
        self.im2col_batched(x, &mut col, oh, ow);

        // One GEMM for the whole batch: [OC, CKK] × [CKK, N·OH·OW].
        let mut y = Scratch::take(self.out_channels * cols_n);
        gemm_nn(self.out_channels, cols_n, ckk, self.weight.data(), &col, &mut y, false);

        // Permute [OC, N·OH·OW] → [N, OC, OH·OW] and add bias.
        let mut out = Tensor::zeros(&[n, self.out_channels, oh, ow]);
        let out_data = out.data_mut();
        let plane = oh * ow;
        for oc in 0..self.out_channels {
            let b = self.bias.data()[oc];
            for ni in 0..n {
                let src = &y[oc * cols_n + ni * plane..oc * cols_n + (ni + 1) * plane];
                let dst = &mut out_data[(ni * self.out_channels + oc) * plane
                    ..(ni * self.out_channels + oc + 1) * plane];
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d = s + b;
                }
            }
        }
        Ok((out, ConvCache { col, in_shape: [n, c, h, w], out_hw: (oh, ow) }))
    }

    /// Gather `grad_out` `[N, OC, OH·OW]` → `[OC, N·OH·OW]`, matching the
    /// batched column layout of the im2col cache.
    fn gather_gy(&self, grad_out: &Tensor, n: usize, plane: usize) -> ScratchBuf {
        let cols_n = n * plane;
        let mut gy = Scratch::take(self.out_channels * cols_n);
        for oc in 0..self.out_channels {
            for ni in 0..n {
                let src = &grad_out.data()[(ni * self.out_channels + oc) * plane
                    ..(ni * self.out_channels + oc + 1) * plane];
                gy[oc * cols_n + ni * plane..oc * cols_n + (ni + 1) * plane].copy_from_slice(src);
            }
        }
        gy
    }

    /// Backward pass: accumulates parameter gradients into `grads` and
    /// returns the gradient w.r.t. the input.
    pub fn backward(
        &self,
        cache: &ConvCache,
        grad_out: &Tensor,
        grads: &mut ConvGrads,
    ) -> Result<Tensor, TensorError> {
        let [n, _c, _h, _w] = cache.in_shape;
        let (oh, ow) = cache.out_hw;
        let ckk = self.in_channels * self.kernel * self.kernel;
        let plane = oh * ow;
        let cols_n = n * plane;

        let gy = self.gather_gy(grad_out, n, plane);

        // dW += gy · colᵀ, accumulated straight into the gradient store
        // (no temporary product or add_assign pass).
        gemm_nt(self.out_channels, ckk, cols_n, &gy, &cache.col, grads.weight.data_mut(), true);
        // db += row sums of gy.
        for oc in 0..self.out_channels {
            let s: f32 = gy[oc * cols_n..(oc + 1) * cols_n].iter().sum();
            grads.bias.data_mut()[oc] += s;
        }

        self.input_grad(cache, &gy)
    }

    /// Batched backward whose **parameter-gradient accumulation order is
    /// bit-identical to the per-sample oracle**: consecutive runs of
    /// `group` batch items form one oracle sample (the Siamese tower
    /// interleaves `[a₀, b₀, a₁, b₁, …]`, so its convs pass `group = 2`
    /// — the oracle runs the a-branch then the b-branch into one
    /// per-sample store; head convs pass `group = 1`). Each item gets its
    /// own `k = OH·OW` GEMM — the exact call the per-sample path makes —
    /// accumulated into a zeroed temp, and the temp is added into
    /// `grads` elementwise per group. One batched GEMM over
    /// `k = N·OH·OW` would regroup the f32 fold and shift the low bits.
    /// The input gradient has no such hazard (its contraction runs over
    /// `OC`, per column) and stays one batched GEMM.
    pub fn backward_grouped(
        &self,
        cache: &ConvCache,
        grad_out: &Tensor,
        grads: &mut ConvGrads,
        group: usize,
    ) -> Result<Tensor, TensorError> {
        let [n, _c, _h, _w] = cache.in_shape;
        let (oh, ow) = cache.out_hw;
        let ckk = self.in_channels * self.kernel * self.kernel;
        let plane = oh * ow;
        let cols_n = n * plane;
        debug_assert!(group >= 1, "group must be >= 1");

        let gy = self.gather_gy(grad_out, n, plane);

        let wlen = self.out_channels * ckk;
        let mut wtmp = Scratch::take_zeroed(wlen);
        let mut btmp = Scratch::take_zeroed(self.out_channels);
        for g0 in (0..n).step_by(group.max(1)) {
            wtmp.fill(0.0);
            btmp.fill(0.0);
            for j in g0..(g0 + group).min(n) {
                // Item `j`'s panels are strided views of the batched
                // buffers (row stride `cols_n`, row length `plane`) —
                // the strided kernel reads them in place with the exact
                // per-sample fold (same m, n, k → same chain per
                // element), so no per-item copies are needed.
                crate::gemm::gemm_nt_kseq(
                    self.out_channels,
                    ckk,
                    plane,
                    &gy[j * plane..],
                    cols_n,
                    &cache.col[j * plane..],
                    cols_n,
                    &mut wtmp,
                    true,
                );
                for oc in 0..self.out_channels {
                    let s: f32 =
                        gy[oc * cols_n + j * plane..oc * cols_n + (j + 1) * plane].iter().sum();
                    btmp[oc] += s;
                }
            }
            for (d, &s) in grads.weight.data_mut().iter_mut().zip(wtmp.iter()) {
                *d += s;
            }
            for (d, &s) in grads.bias.data_mut().iter_mut().zip(btmp.iter()) {
                *d += s;
            }
        }

        self.input_grad(cache, &gy)
    }

    /// Input gradient: `dcol = Wᵀ · gy` then col2im scatter-add. Each
    /// dcol column is a `k = OC` fold, so batching cannot regroup it.
    fn input_grad(&self, cache: &ConvCache, gy: &[f32]) -> Result<Tensor, TensorError> {
        let [n, c, h, w] = cache.in_shape;
        let (oh, ow) = cache.out_hw;
        let k = self.kernel;
        let p = self.padding;
        let ckk = c * k * k;
        let plane = oh * ow;
        let cols_n = n * plane;

        // dcol = Wᵀ · gy — the transposed-operand kernel reads W in place.
        let mut dcol = Scratch::take(ckk * cols_n);
        gemm_tn(ckk, cols_n, self.out_channels, self.weight.data(), gy, &mut dcol, false);

        // col2im scatter-add back to input geometry.
        let mut grad_in = Tensor::zeros(&[n, c, h, w]);
        let gin = grad_in.data_mut();
        for ci in 0..c {
            for ky in 0..k {
                for kx in 0..k {
                    let row = ((ci * k) + ky) * k + kx;
                    let src_row = &dcol[row * cols_n..(row + 1) * cols_n];
                    for ni in 0..n {
                        let dst_plane = &mut gin[(ni * c + ci) * h * w..(ni * c + ci + 1) * h * w];
                        let src_item = &src_row[ni * plane..(ni + 1) * plane];
                        for oy in 0..oh {
                            let sy = oy + ky;
                            if sy < p || sy >= h + p {
                                continue;
                            }
                            let sy = sy - p;
                            let ox_lo = p.saturating_sub(kx);
                            let ox_hi = (w + p - kx).min(ow);
                            if ox_lo >= ox_hi {
                                continue;
                            }
                            let dst =
                                &mut dst_plane[sy * w + ox_lo + kx - p..sy * w + ox_hi + kx - p];
                            let src = &src_item[oy * ow + ox_lo..oy * ow + ox_hi];
                            for (d, &s) in dst.iter_mut().zip(src) {
                                *d += s;
                            }
                        }
                    }
                }
            }
        }
        Ok(grad_in)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_conv() -> Conv2D {
        let mut c = Conv2D::new(1, 1, 3, 0, 1);
        // Identity-ish kernel: centre 1.
        c.weight =
            Tensor::from_vec(&[1, 9], vec![0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]).unwrap();
        c.bias = Tensor::from_vec(&[1], vec![0.5]).unwrap();
        c
    }

    #[test]
    fn centre_kernel_shifts_input() {
        let conv = tiny_conv();
        let x = Tensor::from_vec(&[1, 1, 4, 4], (0..16).map(|v| v as f32).collect()).unwrap();
        let (y, _) = conv.forward(&x).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        // Valid conv picks the 2x2 interior + bias 0.5.
        assert_eq!(y.data(), &[5.5, 6.5, 9.5, 10.5]);
    }

    #[test]
    fn padding_preserves_spatial_size() {
        let conv = Conv2D::new(2, 3, 3, 1, 7);
        let x = Tensor::zeros(&[2, 2, 8, 8]);
        let (y, _) = conv.forward(&x).unwrap();
        assert_eq!(y.shape(), &[2, 3, 8, 8]);
    }

    #[test]
    fn wrong_channel_count_rejected() {
        let conv = Conv2D::new(3, 4, 3, 0, 7);
        let x = Tensor::zeros(&[1, 2, 8, 8]);
        assert!(conv.forward(&x).is_err());
    }

    #[test]
    fn oversized_kernel_is_a_typed_error_not_an_underflow() {
        // Regression: the output size was `h + 2p + 1 - k` in usize
        // arithmetic, which underflowed (debug panic / release wrap) for
        // kernels larger than the padded input.
        let conv = Conv2D::new(1, 1, 5, 0, 3);
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        match conv.forward(&x) {
            Err(TensorError::KernelTooLarge { kernel: 5, padded_h: 2, padded_w: 2 }) => {}
            other => panic!("expected KernelTooLarge, got {other:?}"),
        }
        assert!(conv.try_out_size(2, 2).is_err());
        assert_eq!(conv.try_out_size(5, 7), Ok((1, 3)));
    }

    #[test]
    fn batched_forward_matches_per_sample() {
        // Two items through one batched pass == each item alone.
        let conv = Conv2D::new(2, 3, 3, 1, 21);
        let data: Vec<f32> = (0..2 * 2 * 6 * 5).map(|v| (v as f32 * 0.31).sin()).collect();
        let x = Tensor::from_vec(&[2, 2, 6, 5], data.clone()).unwrap();
        let (y, _) = conv.forward(&x).unwrap();
        for ni in 0..2 {
            let xi =
                Tensor::from_vec(&[1, 2, 6, 5], data[ni * 60..(ni + 1) * 60].to_vec()).unwrap();
            let (yi, _) = conv.forward(&xi).unwrap();
            let plane = 3 * 6 * 5;
            assert_eq!(&y.data()[ni * plane..(ni + 1) * plane], yi.data());
        }
    }

    #[test]
    fn gradient_check_weights() {
        // Finite-difference check of dL/dW for L = sum(conv(x)).
        let mut conv = Conv2D::new(2, 2, 3, 1, 11);
        let x = Tensor::from_vec(&[1, 2, 5, 5], (0..50).map(|v| (v as f32 * 0.17).sin()).collect())
            .unwrap();
        let (y, cache) = conv.forward(&x).unwrap();
        let grad_out = Tensor::full(y.shape(), 1.0);
        let mut grads = conv.zero_grads();
        conv.backward(&cache, &grad_out, &mut grads).unwrap();

        let eps = 1e-2f32;
        for &idx in &[0usize, 7, 17, 35] {
            let orig = conv.weight.data()[idx];
            conv.weight.data_mut()[idx] = orig + eps;
            let (y1, _) = conv.forward(&x).unwrap();
            conv.weight.data_mut()[idx] = orig - eps;
            let (y2, _) = conv.forward(&x).unwrap();
            conv.weight.data_mut()[idx] = orig;
            let num: f32 =
                y1.data().iter().zip(y2.data()).map(|(a, b)| (a - b) / (2.0 * eps)).sum();
            let ana = grads.weight.data()[idx];
            assert!(
                (num - ana).abs() < 1e-2 * (1.0 + ana.abs()),
                "dW[{idx}]: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn gradient_check_input() {
        let conv = Conv2D::new(1, 2, 3, 0, 13);
        let x = Tensor::from_vec(&[1, 1, 5, 5], (0..25).map(|v| (v as f32 * 0.23).cos()).collect())
            .unwrap();
        let (y, cache) = conv.forward(&x).unwrap();
        let grad_out = Tensor::full(y.shape(), 1.0);
        let mut grads = conv.zero_grads();
        let gin = conv.backward(&cache, &grad_out, &mut grads).unwrap();

        let eps = 1e-2f32;
        let mut x2 = x.clone();
        for &idx in &[0usize, 6, 12, 24] {
            let orig = x2.data()[idx];
            x2.data_mut()[idx] = orig + eps;
            let (y1, _) = conv.forward(&x2).unwrap();
            x2.data_mut()[idx] = orig - eps;
            let (y2, _) = conv.forward(&x2).unwrap();
            x2.data_mut()[idx] = orig;
            let num: f32 =
                y1.data().iter().zip(y2.data()).map(|(a, b)| (a - b) / (2.0 * eps)).sum();
            let ana = gin.data()[idx];
            assert!(
                (num - ana).abs() < 1e-2 * (1.0 + ana.abs()),
                "dX[{idx}]: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn grouped_backward_matches_per_sample_oracle_bitwise() {
        // 4 batch items = 2 oracle samples of 2 interleaved items each
        // (the Siamese tower layout). backward_grouped must replay the
        // oracle's exact accumulation order: per sample, item a then
        // item b into one zeroed store, stores summed in sample order.
        let conv = Conv2D::new(2, 3, 3, 1, 33);
        let (n, item, gitem) = (4usize, 2 * 6 * 5, 3 * 6 * 5);
        let data: Vec<f32> = (0..n * item).map(|v| (v as f32 * 0.23).sin()).collect();
        let x = Tensor::from_vec(&[n, 2, 6, 5], data.clone()).unwrap();
        let (y, cache) = conv.forward(&x).unwrap();
        let gdata: Vec<f32> = (0..y.len()).map(|v| (v as f32 * 0.11).cos()).collect();
        let g = Tensor::from_vec(y.shape(), gdata.clone()).unwrap();

        let mut grads = conv.zero_grads();
        let gin = conv.backward_grouped(&cache, &g, &mut grads, 2).unwrap();

        let mut total = conv.zero_grads();
        for s in 0..2 {
            let mut per = conv.zero_grads();
            for j in [2 * s, 2 * s + 1] {
                let xi = Tensor::from_vec(&[1, 2, 6, 5], data[j * item..(j + 1) * item].to_vec())
                    .unwrap();
                let (_, ci) = conv.forward(&xi).unwrap();
                let gi =
                    Tensor::from_vec(&[1, 3, 6, 5], gdata[j * gitem..(j + 1) * gitem].to_vec())
                        .unwrap();
                conv.backward(&ci, &gi, &mut per).unwrap();
            }
            for (d, &v) in total.weight.data_mut().iter_mut().zip(per.weight.data()) {
                *d += v;
            }
            for (d, &v) in total.bias.data_mut().iter_mut().zip(per.bias.data()) {
                *d += v;
            }
        }
        for (i, (a, b)) in grads.weight.data().iter().zip(total.weight.data()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "dW[{i}]: {a} vs {b}");
        }
        for (i, (a, b)) in grads.bias.data().iter().zip(total.bias.data()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "db[{i}]: {a} vs {b}");
        }

        // The input gradient takes the batched path in both variants.
        let mut g2 = conv.zero_grads();
        let gin2 = conv.backward(&cache, &g, &mut g2).unwrap();
        for (a, b) in gin.data().iter().zip(gin2.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn bias_gradient_counts_positions() {
        let conv = Conv2D::new(1, 1, 3, 0, 3);
        let x = Tensor::zeros(&[2, 1, 5, 5]);
        let (y, cache) = conv.forward(&x).unwrap();
        let grad_out = Tensor::full(y.shape(), 1.0);
        let mut grads = conv.zero_grads();
        conv.backward(&cache, &grad_out, &mut grads).unwrap();
        // 2 batch items x 3x3 output positions each.
        assert_eq!(grads.bias.data()[0], 18.0);
    }
}
