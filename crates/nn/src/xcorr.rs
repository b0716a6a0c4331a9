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
//! Two implementations live here. [`NormXCorr::forward`] runs the `N·C`
//! feature planes as contiguous *lanes*: every plane does the same
//! arithmetic on the same geometry, so with the plane index innermost
//! each scalar step is one auto-vectorised loop across the planes. One
//! panel builder (`NormXCorr::build_panel`) expands the lanes into
//! mean-centred *patch panels* held in the [`Scratch`] arena, and every
//! output dot is a sequential `j = 0..psz` fold per lane.
//! [`NormXCorr::backward`] reads those panels, norms and dots back from
//! the forward's [`XCorrCache`] and scatters into lane-major padded
//! planes. Each lane keeps the scalar path's operation order, so the
//! results are bit-identical to `NormXCorr::forward_naive` /
//! `backward_naive`, which are retained, test-only, as the bit-exactness
//! oracles. (Bit-identical up to NaN payloads: IEEE 754
//! leaves NaN sign/payload propagation unspecified and the compiler may
//! commute `fmul`/`fadd` operands, so on NaN-quarantine inputs only the
//! NaN *positions* are pinned, not their payload bits.) (a full `taor_nn::gemm` call is deliberately
//! not used: the needed output is a `K`-band of the `PAᵀ·PB` product and
//! the shared `k = psz` dimension is tiny, so packing overhead would
//! dominate the saved flops).
//!
//! A gallery that every query is compared against is prepared once
//! ([`NormXCorr::prepare`]): its B panels and norms are built by the same
//! `build_panel` with the views as lanes, and
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
/// the mean-centred A and B patch panels, their patch norms and the NCC
/// numerators, all lane-major: lane `l` is the `(n, c)` plane
/// `l = n·C + c`, innermost. The buffers come from the [`Scratch`] arena,
/// so a caller that drops the cache returns them for the next forward.
pub struct XCorrCache {
    /// `[N, C, H, W]` of each input.
    shape: [usize; 4],
    /// `pa[(j·H·W + pos)·L + l]`: element `j` of lane `l`'s centred A
    /// patch around `pos` (`build_panel` with no padding).
    pa: ScratchBuf,
    /// `pb[(j·next + e)·L + l]`: the same for B around extended-grid
    /// cell `e` (`build_panel` padded by the radius).
    pb: ScratchBuf,
    /// `norms_a[pos·L + l]`, `norms_b[e·L + l]`: the patch norms.
    norms_a: ScratchBuf,
    norms_b: ScratchBuf,
    /// `dots[(k·H·W + pos)·L + l]`: the numerator `⟨â, b̂⟩` of lane `l`'s
    /// output at displacement cell `k` and position `pos`.
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
    #[cfg(test)]
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

    /// Expand `lanes` planes of `h × w`, stored lane-innermost
    /// (`x[pos·lanes + l]`), into mean-centred patch panels.
    ///
    /// Column `col = ey·(w+2·pad) + ex` is the patch centred at
    /// `(ex − pad, ey − pad)`: `panel[(j·ncols + col)·lanes + l]` holds
    /// element `j` (row-major `(dy, dx)` order) of lane `l`'s centred
    /// patch and `norms[col·lanes + l]` its Euclidean norm. Each lane
    /// repeats [`Self::centred_patch`]'s steps in its order — fill (zero
    /// outside the map), sum from zero, mean, centre, sum of squares,
    /// `sqrt` — so every stored value and norm is bit-identical to the
    /// scalar path's.
    #[allow(clippy::too_many_arguments)]
    fn build_panel(
        &self,
        x: &[f32],
        lanes: usize,
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
        for ey in 0..gh {
            let cy = ey as i64 - pad as i64;
            for ex in 0..gw {
                let cx = ex as i64 - pad as i64;
                let col = ey * gw + ex;
                // The norm slot holds the patch sum, then its mean, until
                // the centring is done.
                let norm = &mut norms[col * lanes..][..lanes];
                norm.fill(0.0);
                let mut j = 0usize;
                for dy in -r..=r {
                    for dx in -r..=r {
                        let (tx, ty) = (cx + dx, cy + dy);
                        let dst = &mut panel[(j * ncols + col) * lanes..][..lanes];
                        if tx >= 0 && tx < w as i64 && ty >= 0 && ty < h as i64 {
                            let tap = ty as usize * w + tx as usize;
                            dst.copy_from_slice(&x[tap * lanes..][..lanes]);
                        } else {
                            dst.fill(0.0);
                        }
                        for (s, &v) in norm.iter_mut().zip(dst.iter()) {
                            *s += v;
                        }
                        j += 1;
                    }
                }
                for s in norm.iter_mut() {
                    *s /= psz as f32;
                }
                for j in 0..psz {
                    let row = &mut panel[(j * ncols + col) * lanes..][..lanes];
                    for (p, &mean) in row.iter_mut().zip(norm.iter()) {
                        *p -= mean;
                    }
                }
                norm.fill(0.0);
                for j in 0..psz {
                    let row = &panel[(j * ncols + col) * lanes..][..lanes];
                    for (s, &p) in norm.iter_mut().zip(row) {
                        *s += p * p;
                    }
                }
                for s in norm.iter_mut() {
                    *s = s.sqrt();
                }
            }
        }
    }

    /// Forward: `(A, B)` of shape `[N, C, H, W]` → `[N, C·K, H, W]`.
    ///
    /// Both inputs are transposed into `N·C` lanes and centred once
    /// (`build_panel`); every `(displacement, position)` output
    /// is then a `j = 0..psz` fold of `acc += pa·pb` from zero in each
    /// lane, and `acc / (na·nb + ε)`. Bit-identical to the test-only
    /// `forward_naive` (pinned by the `*_matches_naive` tests). The
    /// panels, norms and numerators stay in the returned cache.
    pub fn forward(&self, a: &Tensor, b: &Tensor) -> Result<(Tensor, XCorrCache), TensorError> {
        let [n, c, h, w] = self.check(a, b)?;
        let k_side = 2 * self.radius + 1;
        let koff = self.offsets();
        let psz = self.patch * self.patch;
        let rad = self.radius;
        let npos = h * w;
        let gw = w + 2 * rad;
        let next = (h + 2 * rad) * gw;
        let lanes = n * c;
        let mut cache = XCorrCache {
            shape: [n, c, h, w],
            pa: Scratch::take(psz * npos * lanes),
            pb: Scratch::take(psz * next * lanes),
            norms_a: Scratch::take(npos * lanes),
            norms_b: Scratch::take(next * lanes),
            dots: Scratch::take(koff * npos * lanes),
        };
        let mut planes = Scratch::take(npos * lanes);
        to_lanes(a.data(), 0, npos, npos, lanes, &mut planes);
        self.build_panel(&planes, lanes, h, w, 0, &mut cache.pa, &mut cache.norms_a);
        to_lanes(b.data(), 0, npos, npos, lanes, &mut planes);
        self.build_panel(&planes, lanes, h, w, rad, &mut cache.pb, &mut cache.norms_b);
        let mut out = Tensor::zeros(&[n, c * koff, h, w]);
        let out_data = out.data_mut();
        for ky in 0..k_side {
            for kx in 0..k_side {
                let k = ky * k_side + kx;
                for y in 0..h {
                    for x in 0..w {
                        let pos = y * w + x;
                        // B centre for output (y, x) at this offset is
                        // extended-grid cell (y + ky, x + kx).
                        let e = (y + ky) * gw + x + kx;
                        let acc = &mut cache.dots[(k * npos + pos) * lanes..][..lanes];
                        acc.fill(0.0);
                        for j in 0..psz {
                            let ra = &cache.pa[(j * npos + pos) * lanes..][..lanes];
                            let rb = &cache.pb[(j * next + e) * lanes..][..lanes];
                            for ((s, &u), &v) in acc.iter_mut().zip(ra).zip(rb) {
                                *s += u * v;
                            }
                        }
                        let na = &cache.norms_a[pos * lanes..][..lanes];
                        let nb = &cache.norms_b[e * lanes..][..lanes];
                        for (l, ((&d, &u), &v)) in acc.iter().zip(na).zip(nb).enumerate() {
                            out_data[(l * koff + k) * npos + pos] = d / (u * v + EPS);
                        }
                    }
                }
            }
        }
        Ok((out, cache))
    }

    /// Prepare `b` (`[V, C, H, W]`, one feature stack per gallery view)
    /// as the B side of every later [`PreparedGallery::correlate`]: each
    /// channel's `V` view planes go through `build_panel` once as lanes,
    /// exactly as [`Self::forward`] builds them per pair.
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
        let mut planes = Scratch::take(npos * views);
        for ci in 0..c {
            to_lanes(b.data(), ci * npos, c * npos, npos, views, &mut planes);
            self.build_panel(
                &planes,
                views,
                h,
                w,
                rad,
                &mut panels[ci * psz * next * views..(ci + 1) * psz * next * views],
                &mut norms[ci * next * views..(ci + 1) * next * views],
            );
        }
        Ok(PreparedGallery { layer: *self, views, shape: [c, h, w], panels, norms })
    }

    /// Reference scalar forward, retained as the bit-exactness oracle for
    /// the panel path: [`Self::forward`] must match it bit-for-bit,
    /// including NaN payloads.
    #[cfg(test)]
    fn forward_naive(&self, a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
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
    #[cfg(test)]
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

    /// Backward: returns `(grad_a, grad_b)`.
    ///
    /// Reads the lane-major panels, norms and dot products the forward
    /// left in `cache`, then replays the oracle's `(y, x, ky, kx, i)`
    /// scatter order in every lane into lane-major zero-padded planes
    /// (margin `patch / 2` for A, `radius + patch / 2` for B) whose
    /// interiors are the gradients. The oracle's `g == 0` skip is a
    /// per-lane select that writes `+0` into the patch gradient: a padded
    /// cell starts at `+0` and never holds `−0`, so adding `+0 − mean(+0…)`
    /// leaves it unchanged. The norm coefficients keep their `FLAT` gate
    /// per lane. Bit-identical to the test-only `backward_naive`.
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
        let lanes = n * c;
        // Padded gradient planes: A patch taps reach `patch / 2` past the
        // map, B patch taps `radius` further.
        let (ma, mb) = (self.patch / 2, rad + self.patch / 2);
        let (aw, bw) = (w + 2 * ma, w + 2 * mb);
        let mut ga = Scratch::take_zeroed((h + 2 * ma) * aw * lanes);
        let mut gb = Scratch::take_zeroed((h + 2 * mb) * bw * lanes);
        // `go[(k·H·W + pos)·L + l]`: the output gradient in the dots' layout.
        let mut go = Scratch::take(koff * npos * lanes);
        to_lanes(grad_out.data(), 0, koff * npos, koff * npos, lanes, &mut go);
        // The patch gradients `da`, `db` (`psz` rows of lanes), then one
        // row each for `1/denom`, the two norm coefficients and the two
        // patch-gradient sums.
        let mut work = Scratch::take((2 * psz + 5) * lanes);
        let (da, rest) = work.split_at_mut(psz * lanes);
        let (db, rest) = rest.split_at_mut(psz * lanes);
        let (inv, rest) = rest.split_at_mut(lanes);
        let (coef_a, rest) = rest.split_at_mut(lanes);
        let (coef_b, rest) = rest.split_at_mut(lanes);
        let (mean_a, rest) = rest.split_at_mut(lanes);
        let mean_b = &mut rest[..lanes];
        for y in 0..h {
            for x in 0..w {
                let pos = y * w + x;
                let na = &cache.norms_a[pos * lanes..][..lanes];
                for ky in 0..k_side {
                    for kx in 0..k_side {
                        let at = ((ky * k_side + kx) * npos + pos) * lanes;
                        let g = &go[at..][..lanes];
                        let dot = &cache.dots[at..][..lanes];
                        let epos = (y + ky) * gw + (x + kx);
                        let nb = &cache.norms_b[epos * lanes..][..lanes];
                        lane_coefficients(na, nb, dot, inv, coef_a, coef_b);
                        // `Iterator::sum`'s start, as the oracle's mean.
                        mean_a.fill(-0.0);
                        mean_b.fill(-0.0);
                        for i in 0..psz {
                            let u = &cache.pa[(i * npos + pos) * lanes..][..lanes];
                            let v = &cache.pb[(i * next + epos) * lanes..][..lanes];
                            let dai = &mut da[i * lanes..][..lanes];
                            lane_patch_grad(g, u, v, inv, coef_a, dai, mean_a);
                            let dbi = &mut db[i * lanes..][..lanes];
                            lane_patch_grad(g, v, u, inv, coef_b, dbi, mean_b);
                        }
                        for s in mean_a.iter_mut().chain(mean_b.iter_mut()) {
                            *s /= psz as f32;
                        }
                        // The A patch centred at (x, y) starts at padded
                        // cell (y, x); the B patch centred at
                        // (x + kx − radius, y + ky − radius) at
                        // (y + ky, x + kx).
                        for dy in 0..self.patch {
                            for dx in 0..self.patch {
                                let i = (dy * self.patch + dx) * lanes;
                                let cell = ((y + dy) * aw + x + dx) * lanes;
                                lane_scatter(&mut ga[cell..][..lanes], &da[i..][..lanes], mean_a);
                                let cell = ((y + ky + dy) * bw + x + kx + dx) * lanes;
                                lane_scatter(&mut gb[cell..][..lanes], &db[i..][..lanes], mean_b);
                            }
                        }
                    }
                }
            }
        }
        let mut grad_a = Tensor::zeros(&cache.shape);
        let mut grad_b = Tensor::zeros(&cache.shape);
        let (out_a, out_b) = (grad_a.data_mut(), grad_b.data_mut());
        for y in 0..h {
            for x in 0..w {
                let pos = y * w + x;
                let ra = &ga[((y + ma) * aw + x + ma) * lanes..][..lanes];
                let rb = &gb[((y + mb) * bw + x + mb) * lanes..][..lanes];
                for (l, (&u, &v)) in ra.iter().zip(rb).enumerate() {
                    out_a[l * npos + pos] = u;
                    out_b[l * npos + pos] = v;
                }
            }
        }
        Ok((grad_a, grad_b))
    }

    /// Reference scalar backward from the inputs `a`, `b` and `grad_out`,
    /// retained as the bit-exactness oracle for the panel path:
    /// [`Self::backward`] must match it bit-for-bit.
    #[cfg(test)]
    fn backward_naive(
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
    /// The query panel is built once per channel (one lane) instead of
    /// once per view. Each dot is the same sequential `j`-fold from zero
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
            // One channel is one lane, so its plane is already lane-major.
            let plane = &a.data()[ci * npos..(ci + 1) * npos];
            layer.build_panel(plane, 1, h, w, 0, &mut pa, &mut norms_a);
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

// The per-lane steps of `NormXCorr::backward`, each a function of its
// own so that its slices are distinct arguments the compiler may
// vectorise across without aliasing checks.

/// Per lane: `inv = 1/denom` with `denom = na·nb + ε`, and the norm
/// coefficients `dot·nb/(na·denom²)` and `dot·na/(nb·denom²)`, each `0`
/// where its own norm is at most `FLAT`.
fn lane_coefficients(
    na: &[f32],
    nb: &[f32],
    dot: &[f32],
    inv: &mut [f32],
    coef_a: &mut [f32],
    coef_b: &mut [f32],
) {
    let lanes = inv.len();
    let (na, nb, dot) = (&na[..lanes], &nb[..lanes], &dot[..lanes]);
    let (coef_a, coef_b) = (&mut coef_a[..lanes], &mut coef_b[..lanes]);
    // Both coefficients are computed in every lane and then selected, so
    // the loop has no branch to keep it from vectorising.
    for l in 0..lanes {
        let denom = na[l] * nb[l] + EPS;
        inv[l] = 1.0 / denom;
        let ca = dot[l] * nb[l] / (na[l] * denom * denom);
        let cb = dot[l] * na[l] / (nb[l] * denom * denom);
        coef_a[l] = if na[l] > FLAT { ca } else { 0.0 };
        coef_b[l] = if nb[l] > FLAT { cb } else { 0.0 };
    }
}

/// Per lane: one patch element's gradient `g·(o·inv − coef·t)` for the
/// centred patch `t` against the other patch `o`, added to `sum`. Where
/// `g == 0` it is `+0`, not the product, which is NaN when a panel holds
/// NaN or ∞; the product is still computed there, so the select has no
/// branch.
fn lane_patch_grad(
    g: &[f32],
    t: &[f32],
    o: &[f32],
    inv: &[f32],
    coef: &[f32],
    d: &mut [f32],
    sum: &mut [f32],
) {
    let lanes = d.len();
    let (g, t, o, inv, coef) =
        (&g[..lanes], &t[..lanes], &o[..lanes], &inv[..lanes], &coef[..lanes]);
    let sum = &mut sum[..lanes];
    for l in 0..lanes {
        let v = g[l] * (o[l] * inv[l] - coef[l] * t[l]);
        // taor-lint: allow(float::eq) — sparsity skip: only a bit-exact zero may be elided
        let v = if g[l] == 0.0 { 0.0 } else { v };
        d[l] = v;
        sum[l] += v;
    }
}

/// Per lane: `cell += d − mean`.
fn lane_scatter(cell: &mut [f32], d: &[f32], mean: &[f32]) {
    for ((c, &d), &m) in cell.iter_mut().zip(d).zip(mean) {
        *c += d - m;
    }
}

/// Copy `lanes` planes of `len` elements, plane `l` starting at
/// `src[first + l·stride]`, into `dst` lane-innermost: `dst[i·lanes + l]`.
fn to_lanes(src: &[f32], first: usize, stride: usize, len: usize, lanes: usize, dst: &mut [f32]) {
    for l in 0..lanes {
        for (i, &v) in src[first + l * stride..][..len].iter().enumerate() {
            dst[i * lanes + l] = v;
        }
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

    /// The lane shapes the workloads run — medium training `[4,10,5,3]`,
    /// evaluation `[16,10,5,3]` and the paper recipe `[4,25,13,3]` — plus
    /// one plane and nine planes, a count that is not a multiple of any
    /// vector width.
    const LANE_SHAPES: [[usize; 4]; 5] =
        [[4, 10, 5, 3], [16, 10, 5, 3], [4, 25, 13, 3], [1, 1, 5, 3], [3, 3, 5, 3]];

    /// A gradient for output `y` that is zero at every seventh element,
    /// at every other zero output (a flat A or B patch) and at each NaN
    /// output (a NaN or ∞ tap in either patch) whose index `zero_nan`
    /// picks, and dense elsewhere, so the `g == 0` skip meets flat panels
    /// and, as `zero_nan` picks, poisoned ones.
    fn grad_for(y: &Tensor, zero_nan: impl Fn(usize) -> bool) -> Tensor {
        let g = |(i, &v): (usize, &f32)| {
            if i % 7 == 0 || (v.is_nan() && zero_nan(i)) || (v == 0.0 && i % 2 == 0) {
                0.0
            } else {
                (i as f32 * 0.13).sin()
            }
        };
        Tensor::from_vec(y.shape(), y.data().iter().enumerate().map(g).collect()).unwrap()
    }

    /// Smooth inputs at `shape` whose first A plane is flat, with NaN and
    /// ∞ taps in both inputs when `poison` is set.
    fn pin_inputs(shape: &[usize; 4], poison: bool) -> (Tensor, Tensor) {
        let npos = shape[2] * shape[3];
        let mut a =
            tensor_from(shape, |i| if i < npos { 0.75 } else { (i as f32 * 0.41).sin() + 0.2 });
        let mut b = tensor_from(shape, |i| (i as f32 * 0.77).cos() - 0.1);
        if poison {
            let len = a.len();
            a.data_mut()[len / 3] = f32::NAN;
            a.data_mut()[len - 2] = f32::INFINITY;
            b.data_mut()[len / 2] = f32::NAN;
            b.data_mut()[npos / 2] = f32::NEG_INFINITY;
        }
        (a, b)
    }

    #[test]
    fn panel_forward_matches_naive_bitwise() {
        let cases =
            [(3usize, 1usize, [2usize, 3, 6, 5]), (5, 2, [1, 2, 5, 7]), (3, 0, [2, 1, 4, 3])]
                .into_iter()
                .chain(LANE_SHAPES.map(|s| (3, 1, s)));
        for (patch, radius, shape) in cases {
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
        // The [1,2,4,1] and [1,1,3,2] planes are narrower than the patch,
        // so most taps land in the padded margins.
        let cases = [
            (3usize, 1usize, [2usize, 3, 6, 5]),
            (5, 2, [1, 2, 5, 7]),
            (3, 1, [1, 2, 4, 1]),
            (5, 2, [1, 1, 3, 2]),
        ]
        .into_iter()
        .chain(LANE_SHAPES.map(|s| (3, 1, s)));
        for (patch, radius, shape) in cases {
            let layer = NormXCorr::new(patch, radius).unwrap();
            let (a, b) = pin_inputs(&shape, false);
            let (y, cache) = layer.forward(&a, &b).unwrap();
            let g = grad_for(&y, |_| true);
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

        for shape in LANE_SHAPES {
            let (a, b) = pin_inputs(&shape, true);
            let (fast, cache) = layer.forward(&a, &b).unwrap();
            let slow = layer.forward_naive(&a, &b).unwrap();
            assert_bits_eq(&fast, &slow);
            assert!(fast.data().iter().any(|v| v.is_nan()), "{shape:?} has poisoned panels");
            // With a zero gradient at every NaN output the skip keeps the
            // poison out of the input gradients; with zeros at only every
            // other one, the dense NaN outputs carry it in.
            for every_nan in [true, false] {
                let g = grad_for(&fast, |i| every_nan || i % 2 == 0);
                let (fa, fb) = layer.backward(&cache, &g).unwrap();
                let (sa, sb) = layer.backward_naive(&a, &b, &g).unwrap();
                assert_bits_eq(&fa, &sa);
                assert_bits_eq(&fb, &sb);
                let poisoned = fa.data().iter().chain(fb.data()).any(|v| !v.is_finite());
                assert_eq!(poisoned, !every_nan, "{shape:?}");
            }
        }
    }

    #[test]
    fn empty_planes_give_empty_outputs() {
        let layer = NormXCorr::new(3, 1).unwrap();
        for shape in [[2usize, 3, 0, 4], [2, 3, 4, 0]] {
            let a = Tensor::zeros(&shape);
            let (y, cache) = layer.forward(&a, &a).unwrap();
            assert_eq!(y.shape(), &[2, 27, shape[2], shape[3]]);
            let (ga, gb) = layer.backward(&cache, &y).unwrap();
            assert_eq!((ga.shape(), gb.shape()), (&shape[..], &shape[..]));
            let prepared = layer.prepare(&a).unwrap();
            let q = Tensor::zeros(&[1, 3, shape[2], shape[3]]);
            assert!(prepared.correlate(&q).unwrap().is_empty());
        }
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
