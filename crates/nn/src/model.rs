// taor-lint: allow(panic::index) — dense numeric kernel: interleave/split kernels: ranges are i*item-stepped with buffers sized 2*n*item at allocation.
//! The Normalized-X-Corr network (Subramaniam et al. 2016), as re-built in
//! the paper's Keras pipeline (§3.4).
//!
//! Architecture, following the NIPS paper and the description in §3.4:
//!
//! ```text
//!   image A ─┐                                  (shared weights)
//!            ├─ Conv(5×5) → ReLU → MaxPool(2) → Conv(5×5) → ReLU → MaxPool(2) ─┐
//!   image B ─┘                                                                 │
//!                             Normalized-X-Corr (patch, radius) ◄──────────────┤
//!                                        │
//!        Conv(3×3) → ReLU → Conv(3×3) → ReLU → MaxPool(2)     ("two successive
//!                                        │       convolutional layers followed
//!                                   Flatten                    by Maxpooling")
//!                                        │
//!                          Dense → ReLU → Dense(2) → softmax
//! ```
//!
//! The paper resizes inputs to 60×160×3; that resolution is configurable
//! here (the repro harness defaults to a reduced one so CPU training stays
//! within budget — the failure mode under study does not depend on it).

use crate::layers::conv::{Conv2D, ConvGrads};
use crate::layers::dense::{Dense, DenseGrads};
use crate::layers::dropout::{Dropout, DropoutCache};
use crate::layers::flatten::{flatten, unflatten};
use crate::layers::pool::MaxPool2D;
use crate::layers::softmax::softmax_probs;
use crate::layers::Relu;
use crate::tensor::{Tensor, TensorError};
use crate::xcorr::{NormXCorr, PreparedGallery};

/// Network hyperparameters.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct NetConfig {
    /// Input height (paper: 160).
    pub height: usize,
    /// Input width (paper: 60).
    pub width: usize,
    /// Channels of the first shared conv (NIPS paper: 20).
    pub c1: usize,
    /// Channels of the second shared conv (NIPS paper: 25).
    pub c2: usize,
    /// Channels of the two post-correlation convs.
    pub c3: usize,
    /// NCC patch side.
    pub patch: usize,
    /// NCC displacement radius.
    pub radius: usize,
    /// Width of the penultimate dense layer.
    pub dense: usize,
    /// Dropout rate applied after the penultimate dense layer during
    /// training (0 disables it) — the paper's mooted overfitting fix.
    #[serde(default)]
    pub dropout: f32,
    /// Weight-init seed.
    pub seed: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        // CPU-budget default: 64×24 inputs, 20/25-channel towers like the
        // NIPS paper, small correlation neighbourhood.
        NetConfig {
            height: 64,
            width: 24,
            c1: 20,
            c2: 25,
            c3: 25,
            patch: 3,
            radius: 1,
            dense: 64,
            dropout: 0.0,
            seed: 2019,
        }
    }
}

/// The full network. All parameters are owned; the shared tower is stored
/// once and applied to both inputs.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct NormXCorrNet {
    pub config: NetConfig,
    pub conv1: Conv2D,
    pub conv2: Conv2D,
    pub conv3: Conv2D,
    pub conv4: Conv2D,
    pub dense1: Dense,
    pub dense2: Dense,
    #[serde(skip, default = "default_pool")]
    pool: MaxPool2D,
}

fn default_pool() -> MaxPool2D {
    MaxPool2D::new(2, 2)
}

/// Parameter gradients for one training step.
#[derive(Clone)]
pub struct NetGrads {
    pub conv1: ConvGrads,
    pub conv2: ConvGrads,
    pub conv3: ConvGrads,
    pub conv4: ConvGrads,
    pub dense1: DenseGrads,
    pub dense2: DenseGrads,
}

impl NetGrads {
    /// Elementwise accumulate another gradient set (used to reduce
    /// per-sample gradients computed in parallel).
    pub fn accumulate(&mut self, other: &NetGrads) -> Result<(), TensorError> {
        self.conv1.weight.add_assign(&other.conv1.weight)?;
        self.conv1.bias.add_assign(&other.conv1.bias)?;
        self.conv2.weight.add_assign(&other.conv2.weight)?;
        self.conv2.bias.add_assign(&other.conv2.bias)?;
        self.conv3.weight.add_assign(&other.conv3.weight)?;
        self.conv3.bias.add_assign(&other.conv3.bias)?;
        self.conv4.weight.add_assign(&other.conv4.weight)?;
        self.conv4.bias.add_assign(&other.conv4.bias)?;
        self.dense1.weight.add_assign(&other.dense1.weight)?;
        self.dense1.bias.add_assign(&other.dense1.bias)?;
        self.dense2.weight.add_assign(&other.dense2.weight)?;
        self.dense2.bias.add_assign(&other.dense2.bias)?;
        Ok(())
    }

    /// Fixed-order pairwise tree reduction of per-micro-batch gradient
    /// sets: adjacent pairs are combined until one set remains
    /// (`((g₀+g₁)+(g₂+g₃))` for four inputs). The tree's shape depends
    /// only on `parts.len()`, never on how many threads produced the
    /// parts, so the reduced gradient — and therefore the whole training
    /// trajectory — is byte-identical at any `TAOR_THREADS` width.
    pub fn tree_sum(mut parts: Vec<NetGrads>) -> Result<Option<NetGrads>, TensorError> {
        while parts.len() > 1 {
            let mut next = Vec::with_capacity(parts.len().div_ceil(2));
            let mut it = parts.into_iter();
            while let Some(mut a) = it.next() {
                if let Some(b) = it.next() {
                    a.accumulate(&b)?;
                }
                next.push(a);
            }
            parts = next;
        }
        Ok(parts.pop())
    }

    /// Scale every gradient (e.g. by 1/batch).
    pub fn scale(&mut self, k: f32) {
        for t in [
            &mut self.conv1.weight,
            &mut self.conv1.bias,
            &mut self.conv2.weight,
            &mut self.conv2.bias,
            &mut self.conv3.weight,
            &mut self.conv3.bias,
            &mut self.conv4.weight,
            &mut self.conv4.bias,
            &mut self.dense1.weight,
            &mut self.dense1.bias,
            &mut self.dense2.weight,
            &mut self.dense2.bias,
        ] {
            t.scale(k);
        }
    }
}

/// Opaque forward caches for one (A, B) batch.
pub struct NetCache {
    // Tower caches for each of the two inputs.
    tower_a: TowerCache,
    tower_b: TowerCache,
    xc: crate::xcorr::XCorrCache,
    c3: crate::layers::conv::ConvCache,
    r3: crate::layers::activation::ReluCache,
    c4: crate::layers::conv::ConvCache,
    r4: crate::layers::activation::ReluCache,
    p3: crate::layers::pool::PoolCache,
    pre_flat_shape: Vec<usize>,
    d1: crate::layers::dense::DenseCache,
    r5: crate::layers::activation::ReluCache,
    drop: Option<DropoutCache>,
    d2: crate::layers::dense::DenseCache,
}

struct TowerCache {
    c1: crate::layers::conv::ConvCache,
    r1: crate::layers::activation::ReluCache,
    p1: crate::layers::pool::PoolCache,
    c2: crate::layers::conv::ConvCache,
    r2: crate::layers::activation::ReluCache,
    p2: crate::layers::pool::PoolCache,
}

/// Forward caches of one batched training pass ([`NormXCorrNet::forward_batch`]).
/// Unlike [`NetCache`] there is a single tower cache: both branches of
/// every pair travel through the shared tower as one interleaved batch.
pub struct BatchCache {
    tower: TowerCache,
    xc: crate::xcorr::XCorrCache,
    c3: crate::layers::conv::ConvCache,
    r3: crate::layers::activation::ReluCache,
    c4: crate::layers::conv::ConvCache,
    r4: crate::layers::activation::ReluCache,
    p3: crate::layers::pool::PoolCache,
    pre_flat_shape: Vec<usize>,
    d1: crate::layers::dense::DenseCache,
    r5: crate::layers::activation::ReluCache,
    drop: Option<DropoutCache>,
    d2: crate::layers::dense::DenseCache,
}

/// Interleave two `[N, C, H, W]` stacks into `[2N, C, H, W]` as
/// `[a₀, b₀, a₁, b₁, …]`, so the two branches of pair `s` are batch
/// items `2s` and `2s + 1` — the layout `Conv2D::backward_grouped`
/// (group = 2) needs to replay the per-sample a-then-b weight-gradient
/// accumulation of the shared tower.
fn interleave(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let s = a.shape();
    if s != b.shape() || s.len() != 4 {
        return Err(TensorError::ShapeMismatch {
            expected: a.shape().to_vec(),
            got: b.shape().to_vec(),
        });
    }
    let n = s[0];
    let item = s[1] * s[2] * s[3];
    let mut out = vec![0.0f32; 2 * n * item];
    for i in 0..n {
        out[2 * i * item..(2 * i + 1) * item].copy_from_slice(&a.data()[i * item..(i + 1) * item]);
        out[(2 * i + 1) * item..(2 * i + 2) * item]
            .copy_from_slice(&b.data()[i * item..(i + 1) * item]);
    }
    Tensor::from_vec(&[2 * n, s[1], s[2], s[3]], out)
}

/// Undo [`interleave`]: split `[2N, C, H, W]` into the even-index and
/// odd-index `[N, C, H, W]` stacks.
fn split_even_odd(t: &Tensor) -> Result<(Tensor, Tensor), TensorError> {
    let s = t.shape();
    if s.len() != 4 || !s[0].is_multiple_of(2) {
        return Err(TensorError::ShapeMismatch { expected: vec![0, 0, 0, 0], got: s.to_vec() });
    }
    let n = s[0] / 2;
    let item = s[1] * s[2] * s[3];
    let mut a = Vec::with_capacity(n * item);
    let mut b = Vec::with_capacity(n * item);
    for i in 0..n {
        a.extend_from_slice(&t.data()[2 * i * item..(2 * i + 1) * item]);
        b.extend_from_slice(&t.data()[(2 * i + 1) * item..(2 * i + 2) * item]);
    }
    Ok((Tensor::from_vec(&[n, s[1], s[2], s[3]], a)?, Tensor::from_vec(&[n, s[1], s[2], s[3]], b)?))
}

/// `(in, out, kernel, padding)` of the four convs and `(in, out)` of the
/// two dense layers [`NormXCorrNet::new`] builds for `config` — the one
/// source of layer geometry for building and for checking a loaded model.
type LayerSpecs = ([(usize, usize, usize, usize); 4], [(usize, usize); 2]);

fn layer_specs(config: &NetConfig) -> Result<LayerSpecs, TensorError> {
    let xcorr = NormXCorr::new(config.patch, config.radius)?;
    if !(0.0..1.0).contains(&config.dropout) {
        return Err(TensorError::InvalidModel {
            reason: format!("dropout rate {} not in [0, 1)", config.dropout),
        });
    }
    // Spatial bookkeeping to size the dense layer. Explicit checked
    // arithmetic so undersized inputs fail loudly in release builds too.
    let shrink = |v: usize| v.checked_sub(4).filter(|&r| r >= 2); // conv 5x5 valid
    let stage = |v: usize| shrink(v).map(|r| r / 2); // + pool 2
    let (h3, w3) = match (
        stage(config.height).and_then(stage).map(|v| v / 2),
        stage(config.width).and_then(stage).map(|v| v / 2),
    ) {
        (Some(h), Some(w)) if h >= 1 && w >= 1 => (h, w),
        _ => return Err(TensorError::InputTooSmall { width: config.width, height: config.height }),
    };
    // xcorr keeps spatial dims; conv3/conv4 are 3x3 pad 1; final pool /2.
    let k_side = xcorr.radius.checked_mul(2).and_then(|d| d.checked_add(1));
    let xc_channels = k_side.and_then(|k| k.checked_mul(k)).and_then(|k| k.checked_mul(config.c2));
    let flat = config.c3.checked_mul(h3).and_then(|v| v.checked_mul(w3));
    let (Some(xc_channels), Some(flat)) = (xc_channels, flat) else {
        return Err(TensorError::InvalidModel { reason: "layer sizes overflow".into() });
    };
    Ok((
        [
            (3, config.c1, 5, 0),
            (config.c1, config.c2, 5, 0),
            (xc_channels, config.c3, 3, 1),
            (config.c3, config.c3, 3, 1),
        ],
        [(flat, config.dense), (config.dense, 2)],
    ))
}

impl NormXCorrNet {
    /// Build the network for a configuration.
    ///
    /// Returns [`TensorError::InputTooSmall`] when the configured input
    /// resolution cannot survive the two conv-5×5 + pool-2 stages of the
    /// shared tower plus the final pool — undersized crops are a data
    /// condition on a robot, not a programming error, so they must not
    /// abort the process. An even or zero NCC `patch` is
    /// [`TensorError::InvalidPatch`], a dropout rate outside `[0, 1)`
    /// [`TensorError::InvalidModel`].
    ///
    /// ```
    /// use taor_nn::{NetConfig, NormXCorrNet, Tensor};
    ///
    /// let cfg = NetConfig { height: 24, width: 20, c1: 3, c2: 4, c3: 4, dense: 8,
    ///                       ..NetConfig::default() };
    /// let net = NormXCorrNet::new(cfg.clone()).unwrap();
    /// let x = Tensor::full(&[1, 3, cfg.height, cfg.width], 0.1);
    /// let (logits, _) = net.forward(&x, &x).unwrap();
    /// assert_eq!(logits.shape(), &[1, 2]);
    /// ```
    pub fn new(config: NetConfig) -> Result<Self, TensorError> {
        let ([c1, c2, c3, c4], [d1, d2]) = layer_specs(&config)?;
        let seed = config.seed;
        let conv = |(cin, cout, k, p), salt: u64| Conv2D::new(cin, cout, k, p, seed ^ salt);
        let dense = |(fin, fout), salt: u64| Dense::new(fin, fout, seed ^ salt);
        Ok(NormXCorrNet {
            conv1: conv(c1, 0xC0_01),
            conv2: conv(c2, 0xC0_02),
            conv3: conv(c3, 0xC0_03),
            conv4: conv(c4, 0xC0_04),
            dense1: dense(d1, 0xD0_01),
            dense2: dense(d2, 0xD0_02),
            config,
            pool: default_pool(),
        })
    }

    fn xcorr(&self) -> Result<NormXCorr, TensorError> {
        NormXCorr::new(self.config.patch, self.config.radius)
    }

    /// Fresh zeroed gradient store.
    pub fn zero_grads(&self) -> NetGrads {
        NetGrads {
            conv1: self.conv1.zero_grads(),
            conv2: self.conv2.zero_grads(),
            conv3: self.conv3.zero_grads(),
            conv4: self.conv4.zero_grads(),
            dense1: self.dense1.zero_grads(),
            dense2: self.dense2.zero_grads(),
        }
    }

    fn tower_forward(&self, x: &Tensor) -> Result<(Tensor, TowerCache), TensorError> {
        let (y, c1) = self.conv1.forward(x)?;
        let (y, r1) = Relu.forward(&y);
        let (y, p1) = self.pool.forward(&y)?;
        let (y, c2) = self.conv2.forward(&y)?;
        let (y, r2) = Relu.forward(&y);
        let (y, p2) = self.pool.forward(&y)?;
        Ok((y, TowerCache { c1, r1, p1, c2, r2, p2 }))
    }

    fn tower_backward(
        &self,
        cache: &TowerCache,
        grad: &Tensor,
        grads: &mut NetGrads,
    ) -> Result<(), TensorError> {
        let g = self.pool.backward(&cache.p2, grad);
        let g = Relu.backward(&cache.r2, &g);
        let g = self.conv2.backward(&cache.c2, &g, &mut grads.conv2)?;
        let g = self.pool.backward(&cache.p1, &g);
        let g = Relu.backward(&cache.r1, &g);
        // conv1's input is the image: only its parameters need a gradient.
        self.conv1.backward_params(&cache.c1, &g, &mut grads.conv1)?;
        Ok(())
    }

    /// Forward pass over a batch of image pairs, both `[N, 3, H, W]`.
    /// Returns the `[N, 2]` logits and the caches needed for backward.
    /// Inference mode: dropout (if configured) is bypassed.
    pub fn forward(&self, a: &Tensor, b: &Tensor) -> Result<(Tensor, NetCache), TensorError> {
        self.forward_ex(a, b, None)
    }

    /// Forward pass with optional training-mode dropout, seeded by
    /// `dropout_seed` so full runs stay reproducible.
    pub fn forward_ex(
        &self,
        a: &Tensor,
        b: &Tensor,
        dropout_seed: Option<u64>,
    ) -> Result<(Tensor, NetCache), TensorError> {
        let (fa, tower_a) = self.tower_forward(a)?;
        let (fb, tower_b) = self.tower_forward(b)?;
        let (xc_out, xc) = self.xcorr()?.forward(&fa, &fb)?;
        let (y, c3) = self.conv3.forward(&xc_out)?;
        let (y, r3) = Relu.forward(&y);
        let (y, c4) = self.conv4.forward(&y)?;
        let (y, r4) = Relu.forward(&y);
        let (y, p3) = self.pool.forward(&y)?;
        let pre_flat_shape = y.shape().to_vec();
        let y = flatten(&y)?;
        let (y, d1) = self.dense1.forward(&y)?;
        let (y, r5) = Relu.forward(&y);
        let (y, drop) = match dropout_seed {
            Some(seed) if self.config.dropout > 0.0 => {
                let layer = Dropout::new(self.config.dropout);
                let (y, cache) = layer.forward_train(&y, seed);
                (y, Some(cache))
            }
            _ => (y, None),
        };
        let (logits, d2) = self.dense2.forward(&y)?;
        Ok((
            logits,
            NetCache { tower_a, tower_b, xc, c3, r3, c4, r4, p3, pre_flat_shape, d1, r5, drop, d2 },
        ))
    }

    /// Backward pass from `dL/dlogits`; accumulates into `grads`.
    pub fn backward(
        &self,
        cache: &NetCache,
        grad_logits: &Tensor,
        grads: &mut NetGrads,
    ) -> Result<(), TensorError> {
        let g = self.dense2.backward(&cache.d2, grad_logits, &mut grads.dense2)?;
        let g = match &cache.drop {
            Some(dc) => Dropout::new(self.config.dropout).backward(dc, &g),
            None => g,
        };
        let g = Relu.backward(&cache.r5, &g);
        let g = self.dense1.backward(&cache.d1, &g, &mut grads.dense1)?;
        let g = unflatten(&g, &cache.pre_flat_shape)?;
        let g = self.pool.backward(&cache.p3, &g);
        let g = Relu.backward(&cache.r4, &g);
        let g = self.conv4.backward(&cache.c4, &g, &mut grads.conv4)?;
        let g = Relu.backward(&cache.r3, &g);
        let g = self.conv3.backward(&cache.c3, &g, &mut grads.conv3)?;
        let (ga, gb) = self.xcorr()?.backward(&cache.xc, &g)?;
        // Shared tower: both branches accumulate into the same parameters.
        self.tower_backward(&cache.tower_a, &ga, grads)?;
        self.tower_backward(&cache.tower_b, &gb, grads)?;
        Ok(())
    }

    /// Batched training forward: both branches of every pair travel
    /// through the shared tower as **one interleaved `[2N, …]` batch**
    /// (one GEMM per conv instead of two), and dropout — when enabled —
    /// draws a separate stream per row from `dropout_seeds[i]`.
    ///
    /// Per-pair logits are bit-identical to [`Self::forward_ex`] on each
    /// pair alone with the matching seed: every layer's per-item fold is
    /// independent of the batch grouping (conv GEMM columns, dense rows,
    /// xcorr planes, elementwise ops).
    pub fn forward_batch(
        &self,
        a: &Tensor,
        b: &Tensor,
        dropout_seeds: Option<&[u64]>,
    ) -> Result<(Tensor, BatchCache), TensorError> {
        let t = interleave(a, b)?;
        let (f, tower) = self.tower_forward(&t)?;
        let (fa, fb) = split_even_odd(&f)?;
        let (xc_out, xc) = self.xcorr()?.forward(&fa, &fb)?;
        let (y, c3) = self.conv3.forward(&xc_out)?;
        let (y, r3) = Relu.forward(&y);
        let (y, c4) = self.conv4.forward(&y)?;
        let (y, r4) = Relu.forward(&y);
        let (y, p3) = self.pool.forward(&y)?;
        let pre_flat_shape = y.shape().to_vec();
        let y = flatten(&y)?;
        let (y, d1) = self.dense1.forward(&y)?;
        let (y, r5) = Relu.forward(&y);
        let (y, drop) = match dropout_seeds {
            Some(seeds) if self.config.dropout > 0.0 => {
                let layer = Dropout::new(self.config.dropout);
                let (y, cache) = layer.forward_train_rows(&y, seeds);
                (y, Some(cache))
            }
            _ => (y, None),
        };
        let (logits, d2) = self.dense2.forward(&y)?;
        Ok((logits, BatchCache { tower, xc, c3, r3, c4, r4, p3, pre_flat_shape, d1, r5, drop, d2 }))
    }

    /// Batched backward from **unscaled** per-row `dL/dlogits`;
    /// accumulates into `grads`.
    ///
    /// Parameter gradients are bit-identical to running the per-sample
    /// oracle ([`Self::forward_ex`] + [`Self::backward`]) on each pair in
    /// order and summing the per-sample stores: every layer replays the
    /// oracle's accumulation order (grouped conv GEMMs with `group = 2`
    /// on the interleaved tower, per-row dense rank-1 products), so f32
    /// non-associativity cannot shift a single bit. conv1, whose input is
    /// the image, computes its parameter gradients only.
    pub fn backward_batch(
        &self,
        cache: &BatchCache,
        grad_logits: &Tensor,
        grads: &mut NetGrads,
    ) -> Result<(), TensorError> {
        let g = self.dense2.backward_rows(&cache.d2, grad_logits, &mut grads.dense2)?;
        let g = match &cache.drop {
            Some(dc) => Dropout::new(self.config.dropout).backward(dc, &g),
            None => g,
        };
        let g = Relu.backward(&cache.r5, &g);
        let g = self.dense1.backward_rows(&cache.d1, &g, &mut grads.dense1)?;
        let g = unflatten(&g, &cache.pre_flat_shape)?;
        let g = self.pool.backward(&cache.p3, &g);
        let g = Relu.backward(&cache.r4, &g);
        let g = self.conv4.backward_grouped(&cache.c4, &g, &mut grads.conv4, 1)?;
        let g = Relu.backward(&cache.r3, &g);
        let g = self.conv3.backward_grouped(&cache.c3, &g, &mut grads.conv3, 1)?;
        let (ga, gb) = self.xcorr()?.backward(&cache.xc, &g)?;
        let gt = interleave(&ga, &gb)?;
        let g = self.pool.backward(&cache.tower.p2, &gt);
        let g = Relu.backward(&cache.tower.r2, &g);
        let g = self.conv2.backward_grouped(&cache.tower.c2, &g, &mut grads.conv2, 2)?;
        let g = self.pool.backward(&cache.tower.p1, &g);
        let g = Relu.backward(&cache.tower.r1, &g);
        self.conv1.backward_params_grouped(&cache.tower.c1, &g, &mut grads.conv1, 2)?;
        Ok(())
    }

    /// Shared-tower features for a batch of images — the expensive half
    /// of [`Self::forward`], exposed separately so evaluation can embed
    /// each *distinct* image once and score many pairs against the
    /// features (pairs share images heavily in the re-identification
    /// protocol).
    pub fn tower_embed(&self, x: &Tensor) -> Result<Tensor, TensorError> {
        let (y, _) = self.tower_forward(x)?;
        Ok(y)
    }

    /// Inference head from precomputed tower features
    /// ([`Self::tower_embed`]): NormXCorr → conv stack → dense stack.
    /// Composing `tower_embed` + `head_logits` is bit-identical to
    /// [`Self::forward`] on the raw pair.
    pub fn head_logits(&self, fa: &Tensor, fb: &Tensor) -> Result<Tensor, TensorError> {
        let (xc_out, _) = self.xcorr()?.forward(fa, fb)?;
        let (y, _) = self.conv3.forward(&xc_out)?;
        self.head_tail(&y)
    }

    /// The inference head after conv3: ReLU → conv4 → ReLU → pool →
    /// dense stack. Shared by the pairwise and the prepared-gallery heads.
    fn head_tail(&self, conv3_out: &Tensor) -> Result<Tensor, TensorError> {
        let (y, _) = Relu.forward(conv3_out);
        let (y, _) = self.conv4.forward(&y)?;
        let (y, _) = Relu.forward(&y);
        let (y, _) = self.pool.forward(&y)?;
        let y = flatten(&y)?;
        let (y, _) = self.dense1.forward(&y)?;
        let (y, _) = Relu.forward(&y);
        let (logits, _) = self.dense2.forward(&y)?;
        Ok(logits)
    }

    /// Predicted "similar" probability per pair (class 1).
    pub fn predict_similar(&self, a: &Tensor, b: &Tensor) -> Result<Vec<f32>, TensorError> {
        let (logits, _) = self.forward(a, b)?;
        similar_column(&logits)
    }

    /// Predicted "similar" probability per pair from precomputed tower
    /// features — the pairwise head, and the bit-exact reference for
    /// [`Self::predict_similar_gallery`].
    pub fn predict_similar_features(
        &self,
        fa: &Tensor,
        fb: &Tensor,
    ) -> Result<Vec<f32>, TensorError> {
        similar_column(&self.head_logits(fa, fb)?)
    }

    /// Prepare a gallery once for [`Self::predict_similar_gallery`]:
    /// `features` are the views' tower features ([`Self::tower_embed`]),
    /// `[V, C, H, W]`.
    pub fn prepare_gallery(&self, features: &Tensor) -> Result<PreparedGallery, TensorError> {
        self.xcorr()?.prepare(features)
    }

    /// Predicted "similar" probability of one query (tower features,
    /// `[1, C, H, W]`) against every view of a prepared gallery, in view
    /// order.
    ///
    /// Bit-identical to [`Self::predict_similar_features`] on the query
    /// stacked once per view against the gallery features, without
    /// building either stack: the query's NCC panels are built once and
    /// swept across all views ([`PreparedGallery::correlate`]), conv3
    /// runs one GEMM per output position with the views as columns
    /// ([`Conv2D::forward_lanes`]), and the rest of the head is shared.
    pub fn predict_similar_gallery(
        &self,
        query: &Tensor,
        gallery: &PreparedGallery,
    ) -> Result<Vec<f32>, TensorError> {
        let layer = self.xcorr()?;
        if gallery.layer() != layer {
            return Err(TensorError::ShapeMismatch {
                expected: vec![layer.patch, layer.radius],
                got: vec![gallery.layer().patch, gallery.layer().radius],
            });
        }
        let xc = gallery.correlate(query)?;
        let [_, h, w] = gallery.feature_shape();
        let y = self.conv3.forward_lanes(&xc, gallery.views(), h, w)?;
        similar_column(&self.head_tail(&y)?)
    }

    /// Mutable references to every parameter tensor, position-stable (for
    /// the optimiser).
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![
            &mut self.conv1.weight,
            &mut self.conv1.bias,
            &mut self.conv2.weight,
            &mut self.conv2.bias,
            &mut self.conv3.weight,
            &mut self.conv3.bias,
            &mut self.conv4.weight,
            &mut self.conv4.bias,
            &mut self.dense1.weight,
            &mut self.dense1.bias,
            &mut self.dense2.weight,
            &mut self.dense2.bias,
        ]
    }

    /// Gradient tensors matching [`NormXCorrNet::params_mut`] order.
    pub fn grads_vec(grads: &NetGrads) -> Vec<&Tensor> {
        vec![
            &grads.conv1.weight,
            &grads.conv1.bias,
            &grads.conv2.weight,
            &grads.conv2.bias,
            &grads.conv3.weight,
            &grads.conv3.bias,
            &grads.conv4.weight,
            &grads.conv4.bias,
            &grads.dense1.weight,
            &grads.dense1.bias,
            &grads.dense2.weight,
            &grads.dense2.bias,
        ]
    }

    /// Serialise the whole model to JSON (weights included).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("model serialisation cannot fail") // taor-lint: allow(panic::expect) — invariant expect: the message states why this cannot fail on valid state
    }

    /// Restore a model from [`NormXCorrNet::to_json`] output.
    ///
    /// A model file is untrusted input, so it is checked before any
    /// kernel sees it: the config must pass [`Self::new`]'s checks, every
    /// tensor's length must equal its shape's product
    /// ([`TensorError::LengthMismatch`]), and every layer must have the
    /// geometry `new(config)` builds ([`TensorError::ShapeMismatch`] for
    /// a weight or bias, [`TensorError::InvalidModel`] for the layer
    /// fields or unparsable JSON).
    pub fn from_json(s: &str) -> Result<Self, TensorError> {
        let net: NormXCorrNet = serde_json::from_str(s)
            .map_err(|e| TensorError::InvalidModel { reason: e.to_string() })?;
        let (convs, denses) = layer_specs(&net.config)?;
        let convs = [&net.conv1, &net.conv2, &net.conv3, &net.conv4].into_iter().zip(convs);
        for (i, (conv, (cin, cout, k, p))) in convs.enumerate() {
            if (conv.in_channels, conv.out_channels, conv.kernel, conv.padding) != (cin, cout, k, p)
            {
                return Err(TensorError::InvalidModel {
                    reason: format!("conv{} is not {cin}→{cout} k{k} p{p}", i + 1),
                });
            }
            check_param(&conv.weight, &[cout, cin * k * k])?;
            check_param(&conv.bias, &[cout])?;
        }
        for (i, (dense, (fin, fout))) in
            [&net.dense1, &net.dense2].into_iter().zip(denses).enumerate()
        {
            if (dense.in_features, dense.out_features) != (fin, fout) {
                return Err(TensorError::InvalidModel {
                    reason: format!("dense{} is not {fin}→{fout}", i + 1),
                });
            }
            check_param(&dense.weight, &[fin, fout])?;
            check_param(&dense.bias, &[fout])?;
        }
        Ok(net)
    }
}

/// A loaded parameter tensor must be self-consistent and have the shape
/// the config builds.
fn check_param(t: &Tensor, shape: &[usize]) -> Result<(), TensorError> {
    t.check_len()?;
    if t.shape() != shape {
        return Err(TensorError::ShapeMismatch {
            expected: shape.to_vec(),
            got: t.shape().to_vec(),
        });
    }
    Ok(())
}

/// Softmax over `[N, 2]` logits, keeping the "similar" column.
fn similar_column(logits: &Tensor) -> Result<Vec<f32>, TensorError> {
    let probs = softmax_probs(logits)?;
    Ok((0..probs.shape()[0]).map(|i| probs.at2(i, 1)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::softmax::softmax_cross_entropy;

    fn tiny_config() -> NetConfig {
        NetConfig { height: 24, width: 20, c1: 4, c2: 5, c3: 6, dense: 16, ..Default::default() }
    }

    fn random_pair(cfg: &NetConfig, seed: u64) -> (Tensor, Tensor) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let len = 3 * cfg.height * cfg.width;
        let a = Tensor::from_vec(
            &[1, 3, cfg.height, cfg.width],
            (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        )
        .unwrap();
        let b = Tensor::from_vec(
            &[1, 3, cfg.height, cfg.width],
            (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        )
        .unwrap();
        (a, b)
    }

    #[test]
    fn forward_produces_two_logits() {
        let cfg = tiny_config();
        let net = NormXCorrNet::new(cfg.clone()).expect("test config is large enough");
        let (a, b) = random_pair(&cfg, 1);
        let (logits, _) = net.forward(&a, &b).unwrap();
        assert_eq!(logits.shape(), &[1, 2]);
        assert!(logits.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn backward_runs_and_produces_finite_grads() {
        let cfg = tiny_config();
        let net = NormXCorrNet::new(cfg.clone()).expect("test config is large enough");
        let (a, b) = random_pair(&cfg, 2);
        let (logits, cache) = net.forward(&a, &b).unwrap();
        let (_, grad) = softmax_cross_entropy(&logits, &[1]).unwrap();
        let mut grads = net.zero_grads();
        net.backward(&cache, &grad, &mut grads).unwrap();
        for t in NormXCorrNet::grads_vec(&grads) {
            assert!(t.data().iter().all(|v| v.is_finite()));
        }
        // Tower gradients must be non-zero: signal reaches the shared conv1.
        assert!(grads.conv1.weight.data().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn single_step_reduces_loss_on_one_pair() {
        let cfg = tiny_config();
        let mut net = NormXCorrNet::new(cfg.clone()).expect("test config is large enough");
        let (a, b) = random_pair(&cfg, 3);
        let mut adam = crate::optim::Adam::new(1e-3, 0.0);
        let mut last = f32::INFINITY;
        for step in 0..8 {
            let (logits, cache) = net.forward(&a, &b).unwrap();
            let (loss, grad) = softmax_cross_entropy(&logits, &[0]).unwrap();
            if step == 7 {
                assert!(loss < last, "loss should decrease: {last} -> {loss}");
            }
            last = loss.min(last);
            let mut grads = net.zero_grads();
            net.backward(&cache, &grad, &mut grads).unwrap();
            let gvec = NormXCorrNet::grads_vec(&grads).into_iter().cloned().collect::<Vec<_>>();
            let grefs: Vec<&Tensor> = gvec.iter().collect();
            adam.step(&mut net.params_mut(), &grefs);
        }
    }

    #[test]
    fn symmetric_inputs_symmetric_weight_grads() {
        // Feeding (a, a) must give identical gradient contributions from
        // both tower applications — sanity of the weight sharing.
        let cfg = tiny_config();
        let net = NormXCorrNet::new(cfg.clone()).expect("test config is large enough");
        let (a, _) = random_pair(&cfg, 4);
        let (logits, cache) = net.forward(&a, &a).unwrap();
        let (_, grad) = softmax_cross_entropy(&logits, &[1]).unwrap();
        let mut grads = net.zero_grads();
        net.backward(&cache, &grad, &mut grads).unwrap();
        assert!(grads.conv1.weight.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn serde_roundtrip_preserves_predictions() {
        let cfg = tiny_config();
        let net = NormXCorrNet::new(cfg.clone()).expect("test config is large enough");
        let (a, b) = random_pair(&cfg, 5);
        let p1 = net.predict_similar(&a, &b).unwrap();
        let json = net.to_json();
        let restored = NormXCorrNet::from_json(&json).unwrap();
        let p2 = restored.predict_similar(&a, &b).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn dropout_changes_training_forward_but_not_inference() {
        let cfg = NetConfig { dropout: 0.5, ..tiny_config() };
        let net = NormXCorrNet::new(cfg.clone()).expect("test config is large enough");
        let (a, b) = random_pair(&cfg, 9);
        let (train1, _) = net.forward_ex(&a, &b, Some(1)).unwrap();
        let (train2, _) = net.forward_ex(&a, &b, Some(2)).unwrap();
        assert_ne!(train1, train2, "different dropout seeds differ");
        let (eval1, _) = net.forward(&a, &b).unwrap();
        let (eval2, _) = net.forward(&a, &b).unwrap();
        assert_eq!(eval1, eval2, "inference is deterministic");
    }

    #[test]
    fn dropout_backward_runs() {
        let cfg = NetConfig { dropout: 0.3, ..tiny_config() };
        let net = NormXCorrNet::new(cfg.clone()).expect("test config is large enough");
        let (a, b) = random_pair(&cfg, 10);
        let (logits, cache) = net.forward_ex(&a, &b, Some(5)).unwrap();
        let (_, grad) = softmax_cross_entropy(&logits, &[0]).unwrap();
        let mut grads = net.zero_grads();
        net.backward(&cache, &grad, &mut grads).unwrap();
        assert!(grads.dense1.weight.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn even_patch_is_a_typed_error_in_new_and_in_json() {
        let cfg = NetConfig { patch: 2, ..tiny_config() };
        assert_eq!(NormXCorrNet::new(cfg).err(), Some(TensorError::InvalidPatch { patch: 2 }));
        let json = NormXCorrNet::new(tiny_config()).unwrap().to_json().replacen(
            "\"patch\":3",
            "\"patch\":2",
            1,
        );
        assert_eq!(
            NormXCorrNet::from_json(&json).err(),
            Some(TensorError::InvalidPatch { patch: 2 })
        );
    }

    #[test]
    fn tampered_tensors_are_typed_errors() {
        let net = NormXCorrNet::new(tiny_config()).unwrap();
        // A truncated conv1.weight: drop its last value.
        let mut cut = net.clone();
        let w = &cut.conv1.weight;
        let (shape, data) = (w.shape().to_vec(), w.data()[..w.len() - 1].to_vec());
        let good = serde_json::to_string(&net.conv1.weight).unwrap();
        let bad = format!(
            "{{\"shape\":{},\"data\":{}}}",
            serde_json::to_string(&shape).unwrap(),
            serde_json::to_string(&data).unwrap()
        );
        let json = net.to_json().replacen(&good, &bad, 1);
        assert!(matches!(
            NormXCorrNet::from_json(&json),
            Err(TensorError::LengthMismatch { len, .. }) if len == data.len()
        ));
        // A self-consistent dense1 of the wrong shape.
        cut.dense1.weight = Tensor::zeros(&[3, 4]);
        assert!(matches!(
            NormXCorrNet::from_json(&cut.to_json()),
            Err(TensorError::ShapeMismatch { got, .. }) if got == [3, 4]
        ));
        // Layer geometry that disagrees with the config, and bad JSON.
        let mut moved = net.clone();
        moved.conv3.padding = 0;
        assert!(matches!(
            NormXCorrNet::from_json(&moved.to_json()),
            Err(TensorError::InvalidModel { .. })
        ));
        assert!(matches!(
            NormXCorrNet::from_json("{\"config\":"),
            Err(TensorError::InvalidModel { .. })
        ));
        // The untampered model still loads.
        assert!(NormXCorrNet::from_json(&net.to_json()).is_ok());
    }

    #[test]
    fn absurdly_small_input_is_a_typed_error() {
        let cfg = NetConfig { height: 10, width: 10, ..tiny_config() };
        match NormXCorrNet::new(cfg) {
            Err(TensorError::InputTooSmall { width: 10, height: 10 }) => {}
            other => panic!("expected InputTooSmall, got {other:?}"),
        }
    }
}
