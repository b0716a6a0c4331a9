// taor-lint: allow(panic::index) — dense numeric kernel: indices are derived from dimensions validated at the public boundary and bounded by the enclosing loops.
//! The Normalized-X-Corr cross-input matching layer.
//!
//! Subramaniam, Chatterjee & Mittal (NIPS 2016) replace the Siamese
//! "exact" similarity (cosine of two embeddings) with an *inexact*
//! matching layer: every local patch of feature stack A is correlated,
//! under normalised cross-correlation, against patches of feature stack B
//! over a neighbourhood of displacements. "regions of pixels across the
//! two image representations are compared so that a larger region is
//! carried over from one image to another during the matching, hence
//! explaining its inexact nature" (paper §3.4). The output is symmetric in
//! the two inputs up to the displacement sign, and is fed to further
//! conv + maxpool stages.
//!
//! For inputs `[N, C, H, W]` the layer emits `[N, C·K, H, W]` where
//! `K = (2·radius+1)²` displacement cells; channel `c·K + k` at `(x, y)`
//! holds `NCC(patch_A(c, x, y), patch_B(c, x+dx_k, y+dy_k))` with
//!
//! `NCC(a, b) = ⟨â, b̂⟩ / (‖â‖·‖b̂‖ + ε)`,  `â = a − mean(a)`.
//!
//! Patches are square (`patch` side) with zero padding outside the map.
//!
//! Two implementations live here. [`NormXCorr::forward`] expands each
//! `(n, c)` plane once into mean-centred *patch panels* held in the
//! [`Scratch`] arena and turns every displacement cell into a banded
//! row-product between the A panel and a shifted view of the B panel —
//! the layout the PR-3 norm-trick matcher uses for its GEMM panels.
//! [`NormXCorr::backward`] reads those panels and dots back from the
//! forward's [`XCorrCache`]. Each output dot keeps the exact
//! sequential `j = 0..psz` fold of the scalar path, so the results are
//! bit-identical to [`NormXCorr::forward_naive`] /
//! [`NormXCorr::backward_naive`], which are retained as the
//! bit-exactness oracles. (Bit-identical up to NaN payloads: IEEE 754
//! leaves NaN sign/payload propagation unspecified and the compiler may
//! commute `fmul`/`fadd` operands, so on NaN-quarantine inputs only the
//! NaN *positions* are pinned, not their payload bits.) (a full `taor_nn::gemm` call is deliberately
//! not used: the needed output is a `K`-band of the `PAᵀ·PB` product and
//! the shared `k = psz` dimension is tiny, so packing overhead would
//! dominate the saved flops).
//!
//! A gallery that every query is compared against is prepared once
//! ([`NormXCorr::prepare`]): its B panels and norms are built by the same
//! `build_panel` and stored view-innermost, and
//! [`PreparedGallery::correlate`] sweeps one query across every view with
//! the views as contiguous lanes — the same per-element folds as
//! [`NormXCorr::forward`] on the query repeated once per view.

use crate::scratch::{Scratch, ScratchBuf};
use crate::tensor::{Tensor, TensorError};

/// Stabiliser added to the product of patch norms.
const EPS: f32 = 1e-4;
/// Norm below which a patch is treated as flat (zero direction vector).
const FLAT: f32 = 1e-6;

/// Normalized cross-correlation layer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NormXCorr {
    /// Patch side (odd).
    pub patch: usize,
    /// Displacement radius; K = (2r+1)² offsets.
    pub radius: usize,
}

/// What [`NormXCorr::forward`] built, kept for [`NormXCorr::backward`]:
/// per `(n, c)` plane `p`, the mean-centred A and B patch panels, their
/// patch norms and the NCC numerators. The buffers come from the
/// [`Scratch`] arena, so a caller that drops the cache returns them for
/// the next forward.
pub struct XCorrCache {
    /// `[N, C, H, W]` of each input.
    shape: [usize; 4],
    /// `pa[(p·psz + j)·H·W + pos]`: element `j` of the centred A patch
    /// around `pos` (`build_panel` with no padding).
    pa: ScratchBuf,
    /// `pb[(p·psz + j)·next + e]`: the same for B around extended-grid
    /// cell `e` (`build_panel` padded by the radius).
    pb: ScratchBuf,
    /// `norms_a[p·H·W + pos]`, `norms_b[p·next + e]`: the patch norms.
    norms_a: ScratchBuf,
    norms_b: ScratchBuf,
    /// `dots[i]`: the numerator `⟨â, b̂⟩` of output element `i`, in the
    /// output's `[N, C·K, H, W]` layout.
    dots: ScratchBuf,
}

/// The gallery half of every Normalized-X-Corr comparison against a
/// fixed set of views, built once by [`NormXCorr::prepare`].
///
/// Holds, per channel, the mean-centred radius-padded patch panel and the
/// patch norms of every view — exactly the B-side panels
/// [`NormXCorr::forward`] rebuilds for each pair — with the view index
/// innermost, so [`Self::correlate`] reads all views of one
/// `(channel, patch element, cell)` as one contiguous run.
#[derive(Debug, Clone)]
pub struct PreparedGallery {
    layer: NormXCorr,
    views: usize,
    /// `[C, H, W]` of each view's feature stack.
    shape: [usize; 3],
    /// `panels[((c·psz + j)·next + e)·views + v]`: element `j` of the
    /// centred patch around extended-grid cell `e` of view `v`, channel `c`.
    panels: Vec<f32>,
    /// `norms[(c·next + e)·views + v]`: that patch's norm.
    norms: Vec<f32>,
}

impl NormXCorr {
    /// New layer; `patch` must be odd and ≥ 1 ([`TensorError::InvalidPatch`]).
    pub fn new(patch: usize, radius: usize) -> Result<Self, TensorError> {
        if patch.is_multiple_of(2) {
            return Err(TensorError::InvalidPatch { patch });
        }
        Ok(NormXCorr { patch, radius })
    }

    /// Number of displacement cells.
    pub fn offsets(&self) -> usize {
        let k = 2 * self.radius + 1;
        k * k
    }

    /// Output channel count for `c` input channels.
    pub fn out_channels(&self, c: usize) -> usize {
        c * self.offsets()
    }

    fn check(&self, a: &Tensor, b: &Tensor) -> Result<[usize; 4], TensorError> {
        if a.shape() != b.shape() || a.shape().len() != 4 {
            return Err(TensorError::ShapeMismatch {
                expected: a.shape().to_vec(),
                got: b.shape().to_vec(),
            });
        }
        let s = a.shape();
        Ok([s[0], s[1], s[2], s[3]])
    }

    /// Collect the zero-padded patch of `t` centred at `(cx, cy)` in plane
    /// `(n, c)`, subtract its mean, and return `(centred, norm)`.
    fn centred_patch(
        &self,
        t: &Tensor,
        n: usize,
        c: usize,
        cx: i64,
        cy: i64,
        buf: &mut [f32],
    ) -> f32 {
        let s = t.shape();
        let (h, w) = (s[2] as i64, s[3] as i64);
        let r = (self.patch / 2) as i64;
        let mut sum = 0.0f32;
        let mut i = 0usize;
        for dy in -r..=r {
            for dx in -r..=r {
                let x = cx + dx;
                let y = cy + dy;
                let v = if x >= 0 && x < w && y >= 0 && y < h {
                    t.at4(n, c, y as usize, x as usize)
                } else {
                    0.0
                };
                buf[i] = v;
                sum += v;
                i += 1;
            }
        }
        let mean = sum / buf.len() as f32;
        let mut norm_sq = 0.0f32;
        for v in buf.iter_mut() {
            *v -= mean;
            norm_sq += *v * *v;
        }
        norm_sq.sqrt()
    }

    /// Expand one `h × w` plane into a mean-centred patch panel.
    ///
    /// Column `ey·(w+2·pad) + ex` holds the centred patch around centre
    /// `(ex − pad, ey − pad)`; row `j` is patch element `j` (row-major
    /// `(dy, dx)` order), i.e. the panel is stored transposed so the
    /// displacement kernels read contiguous rows. `norms[col]` is the
    /// centred patch's Euclidean norm. Per column this replays
    /// [`Self::centred_patch`]'s fill/sum/centre order exactly, so every
    /// stored value and norm is bit-identical to the scalar path.
    fn build_panel(
        &self,
        plane: &[f32],
        h: usize,
        w: usize,
        pad: usize,
        panel: &mut [f32],
        norms: &mut [f32],
    ) {
        let r = (self.patch / 2) as i64;
        let psz = self.patch * self.patch;
        let (gh, gw) = (h + 2 * pad, w + 2 * pad);
        let ncols = gh * gw;
        let mut col = 0usize;
        for ey in 0..gh {
            let cy = ey as i64 - pad as i64;
            for ex in 0..gw {
                let cx = ex as i64 - pad as i64;
                let mut sum = 0.0f32;
                let mut i = 0usize;
                for dy in -r..=r {
                    for dx in -r..=r {
                        let x = cx + dx;
                        let y = cy + dy;
                        let v = if x >= 0 && x < w as i64 && y >= 0 && y < h as i64 {
                            plane[y as usize * w + x as usize]
                        } else {
                            0.0
                        };
                        panel[i * ncols + col] = v;
                        sum += v;
                        i += 1;
                    }
                }
                let mean = sum / psz as f32;
                let mut norm_sq = 0.0f32;
                for j in 0..psz {
                    let p = &mut panel[j * ncols + col];
                    *p -= mean;
                    norm_sq += *p * *p;
                }
                norms[col] = norm_sq.sqrt();
                col += 1;
            }
        }
    }

    /// Forward: `(A, B)` of shape `[N, C, H, W]` → `[N, C·K, H, W]`.
    ///
    /// Panel formulation: both planes are centred once ([`Self::build_panel`]),
    /// then each displacement cell is a banded row-product between the A
    /// panel and a shifted window of the B panel. Bit-identical to
    /// [`Self::forward_naive`] (pinned by the `*_matches_naive` tests).
    /// The panels, norms and numerators stay in the returned cache.
    pub fn forward(&self, a: &Tensor, b: &Tensor) -> Result<(Tensor, XCorrCache), TensorError> {
        let [n, c, h, w] = self.check(a, b)?;
        let k_side = 2 * self.radius + 1;
        let koff = self.offsets();
        let psz = self.patch * self.patch;
        let rad = self.radius;
        let npos = h * w;
        let (gh, gw) = (h + 2 * rad, w + 2 * rad);
        let next = gh * gw;
        let planes = n * c;
        let mut out = Tensor::zeros(&[n, c * koff, h, w]);
        let out_data = out.data_mut();
        let mut cache = XCorrCache {
            shape: [n, c, h, w],
            pa: Scratch::take(planes * psz * npos),
            pb: Scratch::take(planes * psz * next),
            norms_a: Scratch::take(planes * npos),
            norms_b: Scratch::take(planes * next),
            dots: Scratch::take(planes * koff * npos),
        };
        let mut acc = Scratch::take(w);
        let a_data = a.data();
        let b_data = b.data();
        for p in 0..planes {
            let plane = p * npos;
            let pa = &mut cache.pa[p * psz * npos..(p + 1) * psz * npos];
            let pb = &mut cache.pb[p * psz * next..(p + 1) * psz * next];
            let norms_a = &mut cache.norms_a[plane..plane + npos];
            let norms_b = &mut cache.norms_b[p * next..(p + 1) * next];
            self.build_panel(&a_data[plane..plane + npos], h, w, 0, pa, norms_a);
            self.build_panel(&b_data[plane..plane + npos], h, w, rad, pb, norms_b);
            for ky in 0..k_side {
                for kx in 0..k_side {
                    let ochan = (p * koff + ky * k_side + kx) * npos;
                    for y in 0..h {
                        // B centre for output (y, x) at this offset is
                        // extended-grid cell (y + ky, x + kx).
                        let bbase = (y + ky) * gw + kx;
                        let arow = y * w;
                        acc[..w].fill(0.0);
                        // j-outer so each acc[x] is the same sequential
                        // j-fold as the scalar dot product.
                        for j in 0..psz {
                            let pa_row = &pa[j * npos + arow..j * npos + arow + w];
                            let pb_row = &pb[j * next + bbase..j * next + bbase + w];
                            for x in 0..w {
                                acc[x] += pa_row[x] * pb_row[x];
                            }
                        }
                        cache.dots[ochan + arow..ochan + arow + w].copy_from_slice(&acc[..w]);
                        for x in 0..w {
                            out_data[ochan + arow + x] =
                                acc[x] / (norms_a[arow + x] * norms_b[bbase + x] + EPS);
                        }
                    }
                }
            }
        }
        Ok((out, cache))
    }

    /// Prepare `b` (`[V, C, H, W]`, one feature stack per gallery view)
    /// as the B side of every later [`PreparedGallery::correlate`]: each
    /// `(view, channel)` plane goes through `build_panel` once,
    /// exactly as [`Self::forward`] builds it per pair.
    pub fn prepare(&self, b: &Tensor) -> Result<PreparedGallery, TensorError> {
        if b.shape().len() != 4 {
            return Err(TensorError::ShapeMismatch {
                expected: vec![0, 0, 0, 0],
                got: b.shape().to_vec(),
            });
        }
        let [views, c, h, w] = [b.shape()[0], b.shape()[1], b.shape()[2], b.shape()[3]];
        let psz = self.patch * self.patch;
        let rad = self.radius;
        let npos = h * w;
        let next = (h + 2 * rad) * (w + 2 * rad);
        let mut panels = vec![0.0f32; c * psz * next * views];
        let mut norms = vec![0.0f32; c * next * views];
        let mut pb = Scratch::take(psz * next);
        let mut norms_b = Scratch::take(next);
        for v in 0..views {
            for ci in 0..c {
                let plane = (v * c + ci) * npos;
                self.build_panel(&b.data()[plane..plane + npos], h, w, rad, &mut pb, &mut norms_b);
                for (row, &p) in pb.iter().enumerate() {
                    panels[(ci * psz * next + row) * views + v] = p;
                }
                for (e, &n) in norms_b.iter().enumerate() {
                    norms[(ci * next + e) * views + v] = n;
                }
            }
        }
        Ok(PreparedGallery { layer: *self, views, shape: [c, h, w], panels, norms })
    }

    /// Reference scalar forward, retained as the bit-exactness oracle for
    /// the panel path: [`Self::forward`] must match it bit-for-bit,
    /// including NaN payloads.
    pub fn forward_naive(&self, a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
        let [n, c, h, w] = self.check(a, b)?;
        let k_side = 2 * self.radius as i64 + 1;
        let koff = self.offsets();
        let psz = self.patch * self.patch;
        let mut out = Tensor::zeros(&[n, c * koff, h, w]);
        let mut pa = vec![0.0f32; psz];
        let mut pb = vec![0.0f32; psz];
        for ni in 0..n {
            for ci in 0..c {
                for y in 0..h as i64 {
                    for x in 0..w as i64 {
                        let na = self.centred_patch(a, ni, ci, x, y, &mut pa);
                        for ky in 0..k_side {
                            for kx in 0..k_side {
                                let dy = ky - self.radius as i64;
                                let dx = kx - self.radius as i64;
                                let nb = self.centred_patch(b, ni, ci, x + dx, y + dy, &mut pb);
                                let dot: f32 = pa.iter().zip(&pb).map(|(&u, &v)| u * v).sum();
                                let ncc = dot / (na * nb + EPS);
                                let oc = ci * koff + (ky * k_side + kx) as usize;
                                *out.at4_mut(ni, oc, y as usize, x as usize) = ncc;
                            }
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// The `[N, C·K, H, W]` gradient of an `[N, C, H, W]` pair's output;
    /// any other shape is a [`TensorError::ShapeMismatch`].
    fn check_grad(&self, shape: [usize; 4], grad_out: &Tensor) -> Result<(), TensorError> {
        let [n, c, h, w] = shape;
        let expected = [n, self.out_channels(c), h, w];
        if grad_out.shape() != expected {
            return Err(TensorError::ShapeMismatch {
                expected: expected.to_vec(),
                got: grad_out.shape().to_vec(),
            });
        }
        Ok(())
    }

    /// Scatter `grad * d(ncc)/d(patch)` back into `grad_t` for the patch of
    /// `t` centred at `(cx, cy)`.
    #[allow(clippy::too_many_arguments)]
    fn scatter_patch_grad(
        &self,
        grad_t: &mut Tensor,
        n: usize,
        c: usize,
        cx: i64,
        cy: i64,
        dvals: &[f32],
    ) {
        let s = grad_t.shape();
        let (h, w) = (s[2], s[3]);
        let base = (n * s[1] + c) * h * w;
        let plane = &mut grad_t.data_mut()[base..base + h * w];
        let r = (self.patch / 2) as i64;
        let (hi, wi) = (h as i64, w as i64);
        // Chain through the mean subtraction: the gradient w.r.t. the raw
        // patch is (I − 11ᵀ/n) · dvals, and positions outside the image are
        // dropped (they were constant zeros, not samples of t).
        let mean_d: f32 = dvals.iter().sum::<f32>() / dvals.len() as f32;
        let mut i = 0usize;
        for dy in -r..=r {
            let y = cy + dy;
            if y < 0 || y >= hi {
                i += self.patch;
                continue;
            }
            let row = y as usize * w;
            for dx in -r..=r {
                let x = cx + dx;
                if x >= 0 && x < wi {
                    plane[row + x as usize] += dvals[i] - mean_d;
                }
                i += 1;
            }
        }
    }

    /// [`Self::scatter_patch_grad`] into a zero-padded plane of row
    /// length `stride`, for the patch whose top-left tap is cell
    /// `(top, left)`: every tap is in the plane, so there is no bounds
    /// test. Taps the oracle drops land in the margin, and every interior
    /// cell gets the same terms in the same order.
    fn scatter_padded(
        &self,
        plane: &mut [f32],
        stride: usize,
        top: usize,
        left: usize,
        dvals: &[f32],
    ) {
        let mean_d: f32 = dvals.iter().sum::<f32>() / dvals.len() as f32;
        for (dy, row) in dvals.chunks_exact(self.patch).enumerate() {
            let start = (top + dy) * stride + left;
            for (g, &d) in plane[start..start + self.patch].iter_mut().zip(row) {
                *g += d - mean_d;
            }
        }
    }

    /// Backward: returns `(grad_a, grad_b)`.
    ///
    /// Reads the centred panels, norms and dot products the forward left
    /// in `cache`, then replays the oracle's exact `(y, x, ky, kx)`
    /// scatter order — including the `g == 0` sparsity skip and the
    /// `FLAT`-gated norm coefficients — into zero-padded planes (margin
    /// `patch / 2` for A, `radius + patch / 2` for B) whose interiors are
    /// the gradients. Bit-identical to [`Self::backward_naive`].
    pub fn backward(
        &self,
        cache: &XCorrCache,
        grad_out: &Tensor,
    ) -> Result<(Tensor, Tensor), TensorError> {
        self.check_grad(cache.shape, grad_out)?;
        let [n, c, h, w] = cache.shape;
        let k_side = 2 * self.radius + 1;
        let koff = self.offsets();
        let psz = self.patch * self.patch;
        let rad = self.radius;
        let npos = h * w;
        let gw = w + 2 * rad;
        let next = (h + 2 * rad) * gw;
        // Padded gradient planes: A patch taps reach `patch / 2` past the
        // map, B patch taps `radius` further.
        let (ma, mb) = (self.patch / 2, rad + self.patch / 2);
        let (aw, bw) = (w + 2 * ma, w + 2 * mb);
        let mut ga_pad = Scratch::take((h + 2 * ma) * aw);
        let mut gb_pad = Scratch::take((h + 2 * mb) * bw);
        let mut grad_a = Tensor::zeros(&cache.shape);
        let mut grad_b = Tensor::zeros(&cache.shape);
        let mut da = Scratch::take(psz);
        let mut db = Scratch::take(psz);
        let mut pa_patch = Scratch::take(psz);
        let go_data = grad_out.data();
        let ga_data = grad_a.data_mut();
        let gb_data = grad_b.data_mut();
        for p in 0..n * c {
            let pa = &cache.pa[p * psz * npos..(p + 1) * psz * npos];
            let pb = &cache.pb[p * psz * next..(p + 1) * psz * next];
            let norms_a = &cache.norms_a[p * npos..(p + 1) * npos];
            let norms_b = &cache.norms_b[p * next..(p + 1) * next];
            let dots = &cache.dots[p * koff * npos..(p + 1) * koff * npos];
            let go = &go_data[p * koff * npos..(p + 1) * koff * npos];
            ga_pad.fill(0.0);
            gb_pad.fill(0.0);
            for y in 0..h {
                for x in 0..w {
                    let pos = y * w + x;
                    let na = norms_a[pos];
                    for (i, v) in pa_patch.iter_mut().enumerate() {
                        *v = pa[i * npos + pos];
                    }
                    for ky in 0..k_side {
                        for kx in 0..k_side {
                            let off = ky * k_side + kx;
                            let g = go[off * npos + pos];
                            // taor-lint: allow(float::eq) — sparsity skip: only a bit-exact zero may be elided
                            if g == 0.0 {
                                continue;
                            }
                            let epos = (y + ky) * gw + (x + kx);
                            let nb = norms_b[epos];
                            let dot = dots[off * npos + pos];
                            let denom = na * nb + EPS;
                            let inv = 1.0 / denom;
                            let coef_a =
                                if na > FLAT { dot * nb / (na * denom * denom) } else { 0.0 };
                            let coef_b =
                                if nb > FLAT { dot * na / (nb * denom * denom) } else { 0.0 };
                            for i in 0..psz {
                                let (u, v) = (pa_patch[i], pb[i * next + epos]);
                                da[i] = g * (v * inv - coef_a * u);
                                db[i] = g * (u * inv - coef_b * v);
                            }
                            // The A patch centred at (x, y) starts at padded
                            // cell (y, x); the B patch centred at
                            // (x + kx − radius, y + ky − radius) at
                            // (y + ky, x + kx).
                            self.scatter_padded(&mut ga_pad, aw, y, x, &da);
                            self.scatter_padded(&mut gb_pad, bw, y + ky, x + kx, &db);
                        }
                    }
                }
            }
            for y in 0..h {
                let dst = p * npos + y * w;
                ga_data[dst..dst + w].copy_from_slice(&ga_pad[(y + ma) * aw + ma..][..w]);
                gb_data[dst..dst + w].copy_from_slice(&gb_pad[(y + mb) * bw + mb..][..w]);
            }
        }
        Ok((grad_a, grad_b))
    }

    /// Reference scalar backward from the inputs `a`, `b` and `grad_out`,
    /// retained as the bit-exactness oracle for the panel path:
    /// [`Self::backward`] must match it bit-for-bit.
    pub fn backward_naive(
        &self,
        a: &Tensor,
        b: &Tensor,
        grad_out: &Tensor,
    ) -> Result<(Tensor, Tensor), TensorError> {
        let shape = self.check(a, b)?;
        self.check_grad(shape, grad_out)?;
        let [n, c, h, w] = shape;
        let k_side = 2 * self.radius as i64 + 1;
        let koff = self.offsets();
        let psz = self.patch * self.patch;
        let mut grad_a = Tensor::zeros(a.shape());
        let mut grad_b = Tensor::zeros(b.shape());
        let mut pa = vec![0.0f32; psz];
        let mut pb = vec![0.0f32; psz];
        let mut da = vec![0.0f32; psz];
        let mut db = vec![0.0f32; psz];

        for ni in 0..n {
            for ci in 0..c {
                for y in 0..h as i64 {
                    for x in 0..w as i64 {
                        let na = self.centred_patch(a, ni, ci, x, y, &mut pa);
                        for ky in 0..k_side {
                            for kx in 0..k_side {
                                let dy = ky - self.radius as i64;
                                let dx = kx - self.radius as i64;
                                let oc = ci * koff + (ky * k_side + kx) as usize;
                                let g = grad_out.at4(ni, oc, y as usize, x as usize);
                                // taor-lint: allow(float::eq) — sparsity skip: only a bit-exact zero may be elided
                                if g == 0.0 {
                                    continue;
                                }
                                let nb = self.centred_patch(b, ni, ci, x + dx, y + dy, &mut pb);
                                let dot: f32 = pa.iter().zip(&pb).map(|(&u, &v)| u * v).sum();
                                let denom = na * nb + EPS;
                                let inv = 1.0 / denom;
                                // d(ncc)/dâ = b̂/denom − dot·nb·(â/‖â‖)/denom²
                                // d(ncc)/db̂ symmetric.
                                let coef_a =
                                    if na > FLAT { dot * nb / (na * denom * denom) } else { 0.0 };
                                let coef_b =
                                    if nb > FLAT { dot * na / (nb * denom * denom) } else { 0.0 };
                                for i in 0..psz {
                                    da[i] = g * (pb[i] * inv - coef_a * pa[i]);
                                    db[i] = g * (pa[i] * inv - coef_b * pb[i]);
                                }
                                self.scatter_patch_grad(&mut grad_a, ni, ci, x, y, &da);
                                self.scatter_patch_grad(&mut grad_b, ni, ci, x + dx, y + dy, &db);
                            }
                        }
                    }
                }
            }
        }
        Ok((grad_a, grad_b))
    }
}

impl PreparedGallery {
    /// Number of gallery views.
    pub fn views(&self) -> usize {
        self.views
    }

    /// `[C, H, W]` of each view's feature stack.
    pub fn feature_shape(&self) -> [usize; 3] {
        self.shape
    }

    /// The layer geometry the panels were built for.
    pub fn layer(&self) -> NormXCorr {
        self.layer
    }

    /// Correlate one query feature stack `a` (`[1, C, H, W]`) with every
    /// view: the `[V, C·K, H, W]` output of [`NormXCorr::forward`] on
    /// `a` repeated once per view against the prepared views, stored
    /// view-innermost as `out[((oc·H + y)·W + x)·V + v]`.
    ///
    /// The query panel is built once per channel instead of once per
    /// view. Each dot is the same sequential `j`-fold from zero
    /// (`acc += a·b`) with the same denominator `na·nb + EPS`, so every
    /// value is bit-identical to the pairwise forward (up to NaN payloads,
    /// as in the module docs).
    pub fn correlate(&self, a: &Tensor) -> Result<ScratchBuf, TensorError> {
        let [c, h, w] = self.shape;
        if a.shape() != [1, c, h, w] {
            return Err(TensorError::ShapeMismatch {
                expected: vec![1, c, h, w],
                got: a.shape().to_vec(),
            });
        }
        let views = self.views;
        let layer = self.layer;
        let k_side = 2 * layer.radius + 1;
        let koff = layer.offsets();
        let psz = layer.patch * layer.patch;
        let npos = h * w;
        let gw = w + 2 * layer.radius;
        let next = (h + 2 * layer.radius) * gw;
        let mut out = Scratch::take(c * koff * npos * views);
        let mut pa = Scratch::take(psz * npos);
        let mut norms_a = Scratch::take(npos);
        let mut acc = Scratch::take(views);
        for ci in 0..c {
            layer.build_panel(
                &a.data()[ci * npos..(ci + 1) * npos],
                h,
                w,
                0,
                &mut pa,
                &mut norms_a,
            );
            let panel = &self.panels[ci * psz * next * views..(ci + 1) * psz * next * views];
            let norms = &self.norms[ci * next * views..(ci + 1) * next * views];
            for ky in 0..k_side {
                for kx in 0..k_side {
                    let oc = ci * koff + ky * k_side + kx;
                    for y in 0..h {
                        for x in 0..w {
                            let pos = y * w + x;
                            // Extended-grid cell of the B centre at this
                            // offset, as in `NormXCorr::forward`.
                            let e = (y + ky) * gw + x + kx;
                            acc.fill(0.0);
                            for j in 0..psz {
                                let q = pa[j * npos + pos];
                                let lanes = &panel[(j * next + e) * views..][..views];
                                for (s, &g) in acc.iter_mut().zip(lanes) {
                                    *s += q * g;
                                }
                            }
                            let na = norms_a[pos];
                            let nb = &norms[e * views..(e + 1) * views];
                            let dst = &mut out[((oc * h + y) * w + x) * views..][..views];
                            for ((d, &s), &n) in dst.iter_mut().zip(acc.iter()).zip(nb) {
                                *d = s / (na * n + EPS);
                            }
                        }
                    }
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tensor_from(shape: &[usize], f: impl Fn(usize) -> f32) -> Tensor {
        let len: usize = shape.iter().product();
        Tensor::from_vec(shape, (0..len).map(f).collect()).unwrap()
    }

    #[test]
    fn even_or_zero_patch_is_a_typed_error() {
        for patch in [0usize, 2, 4] {
            assert_eq!(NormXCorr::new(patch, 1), Err(TensorError::InvalidPatch { patch }));
        }
    }

    #[test]
    fn prepared_gallery_matches_pairwise_forward_bitwise() {
        for (patch, radius) in [(3usize, 1usize), (5, 2), (3, 0)] {
            let layer = NormXCorr::new(patch, radius).unwrap();
            let (views, c, h, w) = (5usize, 3usize, 5usize, 4usize);
            let q = tensor_from(&[1, c, h, w], |i| (i as f32 * 0.43).sin() * 1.7);
            let mut g = tensor_from(&[views, c, h, w], |i| (i as f32 * 0.61).cos() - 0.2);
            g.data_mut()[7] = f32::NAN;
            g.data_mut()[40] = f32::INFINITY;
            let repeated = Tensor::stack_batch(&vec![&q; views]).unwrap();
            let (want, _) = layer.forward(&repeated, &g).unwrap();
            let prepared = layer.prepare(&g).unwrap();
            let got = prepared.correlate(&q).unwrap();
            assert!(prepared.correlate(&tensor_from(&[1, c, h, w + 1], |_| 0.0)).is_err());
            let koff = layer.offsets();
            for v in 0..views {
                for oc in 0..c * koff {
                    for p in 0..h * w {
                        let u = want.data()[(v * c * koff + oc) * h * w + p];
                        let x = got[(oc * h * w + p) * views + v];
                        assert!(
                            u.to_bits() == x.to_bits() || (u.is_nan() && x.is_nan()),
                            "view {v} channel {oc} pos {p}: {u} vs {x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn output_shape() {
        let layer = NormXCorr::new(3, 1).unwrap();
        let a = Tensor::zeros(&[2, 4, 5, 6]);
        let b = Tensor::zeros(&[2, 4, 5, 6]);
        let (y, _) = layer.forward(&a, &b).unwrap();
        assert_eq!(y.shape(), &[2, 36, 5, 6]);
        assert_eq!(layer.offsets(), 9);
        assert_eq!(layer.out_channels(4), 36);
    }

    #[test]
    fn identical_inputs_give_unit_centre_correlation() {
        let layer = NormXCorr::new(3, 1).unwrap();
        let a = tensor_from(&[1, 1, 7, 7], |i| ((i * 37) % 11) as f32 - 5.0);
        let (y, _) = layer.forward(&a, &a).unwrap();
        // Zero-displacement cell is channel index radius*k_side + radius = 4.
        for yy in 1..6usize {
            for xx in 1..6usize {
                let v = y.at4(0, 4, yy, xx);
                assert!(v > 0.9, "self-NCC at ({xx},{yy}) = {v}");
            }
        }
    }

    #[test]
    fn values_bounded_by_one() {
        let layer = NormXCorr::new(3, 1).unwrap();
        let a = tensor_from(&[1, 2, 6, 6], |i| (i as f32 * 0.7).sin());
        let b = tensor_from(&[1, 2, 6, 6], |i| (i as f32 * 1.3).cos());
        let (y, _) = layer.forward(&a, &b).unwrap();
        for &v in y.data() {
            assert!(v.abs() <= 1.0 + 1e-4, "|ncc| = {v}");
        }
    }

    #[test]
    fn anticorrelated_patches_score_negative() {
        let layer = NormXCorr::new(3, 0).unwrap();
        let a = tensor_from(&[1, 1, 5, 5], |i| if i % 2 == 0 { 1.0 } else { -1.0 });
        let mut bneg = a.clone();
        bneg.scale(-1.0);
        let (y, _) = layer.forward(&a, &bneg).unwrap();
        let centre = y.at4(0, 0, 2, 2);
        assert!(centre < -0.9, "anti-correlation = {centre}");
    }

    #[test]
    fn flat_patches_do_not_blow_up() {
        let layer = NormXCorr::new(3, 1).unwrap();
        let a = Tensor::full(&[1, 1, 5, 5], 3.0);
        let b = tensor_from(&[1, 1, 5, 5], |i| i as f32);
        let (y, cache) = layer.forward(&a, &b).unwrap();
        assert!(y.data().iter().all(|v| v.is_finite()));
        let g = Tensor::full(y.shape(), 1.0);
        let (ga, gb) = layer.backward(&cache, &g).unwrap();
        assert!(ga.data().iter().all(|v| v.is_finite()));
        assert!(gb.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let layer = NormXCorr::new(3, 1).unwrap();
        let a = Tensor::zeros(&[1, 1, 5, 5]);
        let b = Tensor::zeros(&[1, 1, 5, 6]);
        assert!(layer.forward(&a, &b).is_err());
    }

    #[test]
    fn symmetry_of_zero_displacement_cell() {
        // NCC(a, b) at displacement 0 equals NCC(b, a) at displacement 0.
        let layer = NormXCorr::new(3, 1).unwrap();
        let a = tensor_from(&[1, 1, 6, 6], |i| (i as f32 * 0.31).sin());
        let b = tensor_from(&[1, 1, 6, 6], |i| (i as f32 * 0.57).cos());
        let (yab, _) = layer.forward(&a, &b).unwrap();
        let (yba, _) = layer.forward(&b, &a).unwrap();
        for yy in 0..6 {
            for xx in 0..6 {
                let u = yab.at4(0, 4, yy, xx);
                let v = yba.at4(0, 4, yy, xx);
                assert!((u - v).abs() < 1e-5, "({xx},{yy}): {u} vs {v}");
            }
        }
    }

    /// Bit-for-bit equality, except that two NaNs always match: IEEE 754
    /// leaves NaN sign/payload propagation unspecified and LLVM may
    /// commute `fmul`/`fadd` operands, so separately compiled instances
    /// of the same fold can legally pick different NaN payloads. NaN
    /// *positions* must still coincide exactly.
    fn assert_bits_eq(x: &Tensor, y: &Tensor) {
        assert_eq!(x.shape(), y.shape());
        for (i, (u, v)) in x.data().iter().zip(y.data()).enumerate() {
            if u.is_nan() && v.is_nan() {
                continue;
            }
            assert_eq!(u.to_bits(), v.to_bits(), "elem {i}: {u} vs {v}");
        }
    }

    #[test]
    fn panel_forward_matches_naive_bitwise() {
        for (patch, radius, shape) in
            [(3usize, 1usize, [2usize, 3, 6, 5]), (5, 2, [1, 2, 5, 7]), (3, 0, [2, 1, 4, 3])]
        {
            let layer = NormXCorr::new(patch, radius).unwrap();
            let a = tensor_from(&shape, |i| (i as f32 * 0.37).sin() * 2.0 - 0.4);
            let b = tensor_from(&shape, |i| (i as f32 * 0.73).cos() * 1.5 + 0.1);
            let (fast, _) = layer.forward(&a, &b).unwrap();
            let slow = layer.forward_naive(&a, &b).unwrap();
            assert_bits_eq(&fast, &slow);
        }
    }

    #[test]
    fn panel_backward_matches_naive_bitwise() {
        // The last two planes are narrower than the patch, so most taps
        // land in the padded margins.
        for (patch, radius, shape) in [
            (3usize, 1usize, [2usize, 3, 6, 5]),
            (5, 2, [1, 2, 5, 7]),
            (3, 1, [1, 2, 4, 1]),
            (5, 2, [1, 1, 3, 2]),
        ] {
            let layer = NormXCorr::new(patch, radius).unwrap();
            let a = tensor_from(&shape, |i| (i as f32 * 0.41).sin() + 0.2);
            let b = tensor_from(&shape, |i| (i as f32 * 0.77).cos() - 0.1);
            let (y, cache) = layer.forward(&a, &b).unwrap();
            // Exercise the g == 0 sparsity skip alongside dense entries.
            let g =
                tensor_from(y.shape(), |i| if i % 7 == 0 { 0.0 } else { (i as f32 * 0.13).sin() });
            let (fa, fb) = layer.backward(&cache, &g).unwrap();
            let (sa, sb) = layer.backward_naive(&a, &b, &g).unwrap();
            assert_bits_eq(&fa, &sa);
            assert_bits_eq(&fb, &sb);
        }
    }

    #[test]
    fn grad_out_of_another_shape_is_a_typed_error() {
        let layer = NormXCorr::new(3, 1).unwrap();
        let a = tensor_from(&[1, 2, 5, 3], |i| (i as f32 * 0.41).sin());
        let b = tensor_from(&[1, 2, 5, 3], |i| (i as f32 * 0.77).cos());
        let (y, cache) = layer.forward(&a, &b).unwrap();
        assert_eq!(y.shape(), &[1, 18, 5, 3]);
        // Fewer channels than the output indexed out of bounds; a second
        // item was silently ignored.
        for bad in [[1usize, 2, 5, 3], [2, 18, 5, 3]] {
            let want =
                Some(TensorError::ShapeMismatch { expected: vec![1, 18, 5, 3], got: bad.to_vec() });
            let g = Tensor::full(&bad, 1.0);
            assert_eq!(layer.backward(&cache, &g).err(), want);
            assert_eq!(layer.backward_naive(&a, &b, &g).err(), want);
        }
    }

    #[test]
    fn panel_matches_naive_on_nan_quarantine_inputs() {
        let layer = NormXCorr::new(3, 1).unwrap();
        let mut a = tensor_from(&[1, 2, 5, 4], |i| (i as f32 * 0.29).sin());
        let mut b = tensor_from(&[1, 2, 5, 4], |i| (i as f32 * 0.61).cos());
        a.data_mut()[3] = f32::NAN;
        a.data_mut()[17] = f32::INFINITY;
        b.data_mut()[9] = f32::NAN;
        let (fast, cache) = layer.forward(&a, &b).unwrap();
        let slow = layer.forward_naive(&a, &b).unwrap();
        assert_bits_eq(&fast, &slow);
        let g = tensor_from(fast.shape(), |i| if i % 5 == 0 { 0.0 } else { 1.0 });
        let (fa, fb) = layer.backward(&cache, &g).unwrap();
        let (sa, sb) = layer.backward_naive(&a, &b, &g).unwrap();
        assert_bits_eq(&fa, &sa);
        assert_bits_eq(&fb, &sb);
    }

    #[test]
    fn gradient_check_both_inputs() {
        let layer = NormXCorr::new(3, 1).unwrap();
        let a = tensor_from(&[1, 1, 4, 4], |i| (i as f32 * 0.41).sin() + 0.2);
        let b = tensor_from(&[1, 1, 4, 4], |i| (i as f32 * 0.77).cos() - 0.1);
        let (y, cache) = layer.forward(&a, &b).unwrap();
        let grad_out = Tensor::full(y.shape(), 1.0);
        let (ga, gb) = layer.backward(&cache, &grad_out).unwrap();

        let eps = 1e-2f32;
        let total = |a: &Tensor, b: &Tensor| -> f32 {
            let (y, _) = layer.forward(a, b).unwrap();
            y.data().iter().sum()
        };
        for idx in [0usize, 5, 10, 15] {
            let mut a2 = a.clone();
            a2.data_mut()[idx] += eps;
            let lp = total(&a2, &b);
            a2.data_mut()[idx] -= 2.0 * eps;
            let lm = total(&a2, &b);
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - ga.data()[idx]).abs() < 2e-2 * (1.0 + num.abs()),
                "dA[{idx}]: {num} vs {}",
                ga.data()[idx]
            );

            let mut b2 = b.clone();
            b2.data_mut()[idx] += eps;
            let lp = total(&a, &b2);
            b2.data_mut()[idx] -= 2.0 * eps;
            let lm = total(&a, &b2);
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - gb.data()[idx]).abs() < 2e-2 * (1.0 + num.abs()),
                "dB[{idx}]: {num} vs {}",
                gb.data()[idx]
            );
        }
    }
}
