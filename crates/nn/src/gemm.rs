// taor-lint: allow(panic::index) — dense numeric kernel: indices are derived from dimensions validated at the public boundary and bounded by the enclosing loops.
//! Cache-blocked, register-tiled GEMM for `f32` — the single hot kernel
//! under every conv/dense forward and backward pass.
//!
//! Classic BLIS-style structure: the operand matrices are cut into
//! `KC × NC` panels of B and `MC × KC` blocks of A, packed into
//! contiguous scratch so the innermost microkernel streams both with
//! unit stride, then an `MR × NR` register tile is accumulated per
//! `(i, j)` position. On x86-64 with AVX2+FMA the microkernel uses
//! twelve 256-bit accumulators (6 rows × 2 vectors of 8 lanes);
//! elsewhere a portable unrolled tile that LLVM auto-vectorises.
//!
//! Row blocks of C are distributed with rayon (`par_chunks_mut`): each
//! task packs its own A block into a thread-local scratch while the B
//! panel is packed once and shared read-only. On a single-core host the
//! adapters degrade to the caller's thread with zero overhead.
//!
//! The `nt`/`tn` entry points fold operand transposition into the pack
//! step, so backward passes never materialise a transposed matrix.

use rayon::prelude::*;
use std::cell::RefCell;

/// Microkernel tile rows.
pub const MR: usize = 6;
/// Microkernel tile columns (two 8-lane AVX2 vectors).
pub const NR: usize = 16;
/// Small-`m` microkernel tile rows. Conv layers in this workspace have
/// 8–25 output channels, so a 6-row tile wastes up to half its row slots
/// on the `m`-edge; a 4×24 tile keeps the same twelve accumulators fully
/// utilised for `m ∈ {4, 8, 12, 16}` and much closer for the rest.
pub const MR_S: usize = 4;
/// Small-`m` microkernel tile columns (three 8-lane AVX2 vectors).
pub const NR_S: usize = 24;
/// `m` at or below which the small-`m` tile shape is selected. Tile
/// shape only changes which output elements share registers — each
/// element's k-fold is the same sequential FMA chain either way, so the
/// switch is bit-invisible.
const SMALL_M: usize = 16;
/// Rows of C per parallel task (multiple of `MR`).
pub const MC: usize = 72;
/// Depth of one packed slice of A/B (L1-resident panel depth).
pub const KC: usize = 256;
/// Columns of B packed per outer iteration (multiple of `NR`).
pub const NC: usize = 1024;

/// How the logical `A[m,k]`/`B[k,n]` operands are stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// `a` is `[m,k]`, `b` is `[k,n]` — plain product.
    Nn,
    /// `a` is `[m,k]`, `b` is `[n,k]` — product with Bᵀ.
    Nt,
    /// `a` is `[k,m]`, `b` is `[k,n]` — product with Aᵀ.
    Tn,
}

thread_local! {
    /// Per-thread packed-A scratch (`MC × KC` worst case).
    static PACKED_A: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// `C = A·B` (or `+=` with `accumulate`): `a` is `[m,k]`, `b` is
/// `[k,n]`, `c` is `[m,n]`, all row-major and contiguous.
pub fn gemm_nn(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    accumulate: bool,
) {
    check_len("a", a.len(), m, k);
    check_len("b", b.len(), k, n);
    check_len("c", c.len(), m, n);
    // Skinny products skip packing entirely; the fold per output
    // element is identical, so the dispatch is bit-invisible.
    if m <= SMALL_M {
        return gemm_nn_kseq(m, n, k, a, b, c, accumulate);
    }
    gemm(m, n, k, a, b, c, accumulate, Layout::Nn)
}

/// Skinny-`m` `C = A·B` (or `+=`) with **no packing**, bit-identical to
/// the packed path: every output element is the same `KC`-chunked
/// ascending-`k` fold (FMA chain from zero per chunk on AVX2, mul-then-
/// add on the portable path). B's rows are contiguous in `j`, so the
/// inner loop vectorises over output columns and streams B once per
/// pair of A rows.
fn gemm_nn_kseq(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    accumulate: bool,
) {
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        if !accumulate {
            c.fill(0.0);
        }
        return;
    }
    for pc in (0..k).step_by(KC) {
        let kc = KC.min(k - pc);
        let acc_this = accumulate || pc > 0;
        kseq_nn_block(m, n, kc, k, pc, 1, a, b, pc, c, acc_this);
    }
}

/// `C = Aᵀ·B` (or `+=`) without packing — the dcol (`k = OC`) and
/// per-row dense-dW (`k = 1`) shapes, where packing and tile overhead
/// dwarf the short folds. Same `KC`-chunked per-element chain as the
/// packed path; `at` is `[k, m]`, so the only difference from the NN
/// variant is the A addressing (per-row stride 1, per-k step `m`).
pub fn gemm_tn_kseq(
    m: usize,
    n: usize,
    k: usize,
    at: &[f32],
    b: &[f32],
    c: &mut [f32],
    accumulate: bool,
) {
    check_len("at", at.len(), k, m);
    check_len("b", b.len(), k, n);
    check_len("c", c.len(), m, n);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        if !accumulate {
            c.fill(0.0);
        }
        return;
    }
    for pc in (0..k).step_by(KC) {
        let kc = KC.min(k - pc);
        let acc_this = accumulate || pc > 0;
        kseq_nn_block(m, n, kc, 1, pc * m, m, at, b, pc, c, acc_this);
    }
}

/// One KC block of [`gemm_nn_kseq`]: dispatches to the FMA or portable
/// inner loop so the chunk fold matches whichever packed microkernel
/// this host runs.
/// A's element for logical `(i, p)` sits at `i·ars + aoff + p·astep`:
/// `(k, pc, 1)` for row-major A (NN), `(1, pc·m, m)` for `[k, m]`
/// transposed A (TN).
#[allow(clippy::too_many_arguments)]
fn kseq_nn_block(
    m: usize,
    n: usize,
    kc: usize,
    ars: usize,
    aoff: usize,
    astep: usize,
    a: &[f32],
    b: &[f32],
    pc: usize,
    c: &mut [f32],
    accumulate: bool,
) {
    #[cfg(target_arch = "x86_64")]
    if have_avx2_fma() {
        // SAFETY: AVX2+FMA presence was runtime-checked above.
        unsafe {
            kseq_nn_block_avx2(m, n, kc, ars, aoff, astep, a, b, pc, c, accumulate);
        }
        return;
    }
    for i in 0..m {
        let abase = i * ars + aoff;
        for j in 0..n {
            let mut acc = 0.0f32;
            // Mul-then-add per step: the portable microkernel's fold.
            for p in 0..kc {
                acc += a[abase + p * astep] * b[(pc + p) * n + j];
            }
            let idx = i * n + j;
            if accumulate {
                c[idx] += acc;
            } else {
                c[idx] = acc;
            }
        }
    }
}

/// AVX2+FMA inner loop of [`gemm_nn_kseq`]: 2 A-rows × 32 output
/// columns in eight independent accumulator chains; each element's fold
/// is the same ascending-`k` FMA chain from zero as the packed
/// microkernels'.
///
/// # Safety
/// Caller must ensure AVX2 and FMA are available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn kseq_nn_block_avx2(
    m: usize,
    n: usize,
    kc: usize,
    ars: usize,
    aoff: usize,
    astep: usize,
    a: &[f32],
    b: &[f32],
    pc: usize,
    c: &mut [f32],
    accumulate: bool,
) {
    use std::arch::x86_64::*;
    /// Store 4 accumulator vectors into one C row segment.
    ///
    /// # Safety
    /// `dst..dst+32` must be in bounds of the row.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn store4(dst: *mut f32, acc: [__m256; 4], accumulate: bool) {
        // SAFETY: caller guarantees 32 in-bounds floats at `dst`.
        unsafe {
            for (v, &av) in acc.iter().enumerate() {
                let d = dst.add(8 * v);
                if accumulate {
                    _mm256_storeu_ps(d, _mm256_add_ps(_mm256_loadu_ps(d), av));
                } else {
                    _mm256_storeu_ps(d, av);
                }
            }
        }
    }
    // SAFETY: the caller guarantees AVX2+FMA; every pointer stays inside
    // `a`/`b`/`c`: full 32-column blocks read `b[(pc+p)·n + jb .. +32]`
    // and write `c[i·n + jb .. +32]` with `jb + 32 <= n`, and the column
    // tail uses safe indexing.
    unsafe {
        let nb = n - n % 32;
        let mut jb = 0;
        while jb < nb {
            let mut i = 0;
            while i + 2 <= m {
                let a0 = a.as_ptr().add(i * ars + aoff);
                let a1 = a.as_ptr().add((i + 1) * ars + aoff);
                let mut bp = b.as_ptr().add(pc * n + jb);
                let mut r0 = [_mm256_setzero_ps(); 4];
                let mut r1 = [_mm256_setzero_ps(); 4];
                for p in 0..kc {
                    let av0 = _mm256_broadcast_ss(&*a0.add(p * astep));
                    let av1 = _mm256_broadcast_ss(&*a1.add(p * astep));
                    for v in 0..4 {
                        let bv = _mm256_loadu_ps(bp.add(8 * v));
                        r0[v] = _mm256_fmadd_ps(av0, bv, r0[v]);
                        r1[v] = _mm256_fmadd_ps(av1, bv, r1[v]);
                    }
                    bp = bp.add(n);
                }
                store4(c.as_mut_ptr().add(i * n + jb), r0, accumulate);
                store4(c.as_mut_ptr().add((i + 1) * n + jb), r1, accumulate);
                i += 2;
            }
            if i < m {
                let a0 = a.as_ptr().add(i * ars + aoff);
                let mut bp = b.as_ptr().add(pc * n + jb);
                let mut r0 = [_mm256_setzero_ps(); 4];
                for p in 0..kc {
                    let av0 = _mm256_broadcast_ss(&*a0.add(p * astep));
                    for (v, r) in r0.iter_mut().enumerate() {
                        *r = _mm256_fmadd_ps(av0, _mm256_loadu_ps(bp.add(8 * v)), *r);
                    }
                    bp = bp.add(n);
                }
                store4(c.as_mut_ptr().add(i * n + jb), r0, accumulate);
            }
            jb += 32;
        }
        // Column tail in 8-wide (masked past `n`) vector blocks — a
        // scalar tail would serialise one long fmadd chain per element
        // and dominate tall-`k` products. Masked lanes load zero, get
        // folded, and are discarded at the store; the per-element fold
        // is the same FMA chain as the main blocks.
        let mut jb = nb;
        while jb < n {
            let cols = (n - jb).min(8);
            let mask = {
                let mut lanes = [0i32; 8];
                for l in &mut lanes[..cols] {
                    *l = -1;
                }
                _mm256_loadu_si256(lanes.as_ptr().cast())
            };
            let store_cols = |c: &mut [f32], acc: __m256, i: usize| {
                let mut spill = [0.0f32; 8];
                // Storing 8 floats into an 8-float stack buffer (covered by
                // the enclosing unsafe block's safety argument).
                _mm256_storeu_ps(spill.as_mut_ptr(), acc);
                for (j, &v) in spill.iter().enumerate().take(cols) {
                    let idx = i * n + jb + j;
                    if accumulate {
                        c[idx] += v;
                    } else {
                        c[idx] = v;
                    }
                }
            };
            let mut i = 0;
            while i < m {
                let rows = (m - i).min(2);
                let a0 = a.as_ptr().add(i * ars + aoff);
                let a1 = a.as_ptr().add((i + rows - 1) * ars + aoff);
                let mut bp = b.as_ptr().add(pc * n + jb);
                let mut r0 = _mm256_setzero_ps();
                let mut r1 = _mm256_setzero_ps();
                for p in 0..kc {
                    let bv = _mm256_maskload_ps(bp, mask);
                    r0 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*a0.add(p * astep)), bv, r0);
                    r1 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*a1.add(p * astep)), bv, r1);
                    bp = bp.add(n);
                }
                store_cols(c, r0, i);
                if rows == 2 {
                    store_cols(c, r1, i + 1);
                }
                i += rows;
            }
            jb += 8;
        }
    }
}

/// `C = A·Bᵀ`: `a` is `[m,k]`, `bt` is `[n,k]` — the dense backward
/// `dx = g · Wᵀ` shape, without materialising `Wᵀ`.
pub fn gemm_nt(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    bt: &[f32],
    c: &mut [f32],
    accumulate: bool,
) {
    check_len("a", a.len(), m, k);
    check_len("bt", bt.len(), n, k);
    check_len("c", c.len(), m, n);
    // Skinny products skip packing entirely; the fold per output
    // element is identical, so the dispatch is bit-invisible.
    if m <= SMALL_M {
        return gemm_nt_kseq(m, n, k, a, k, bt, k, c, accumulate);
    }
    gemm(m, n, k, a, bt, c, accumulate, Layout::Nt)
}

/// `C = Aᵀ·B`: `at` is `[k,m]`, `b` is `[k,n]` — the weight-gradient
/// `dW = xᵀ · g` shape, without materialising `xᵀ`.
pub fn gemm_tn(
    m: usize,
    n: usize,
    k: usize,
    at: &[f32],
    b: &[f32],
    c: &mut [f32],
    accumulate: bool,
) {
    check_len("at", at.len(), k, m);
    check_len("b", b.len(), k, n);
    check_len("c", c.len(), m, n);
    // Skinny or short-fold products (dcol's k = OC, dense-dW's k = 1)
    // skip packing; the fold per element is identical either way.
    if m <= SMALL_M || k <= SMALL_M {
        return gemm_tn_kseq(m, n, k, at, b, c, accumulate);
    }
    gemm(m, n, k, at, b, c, accumulate, Layout::Tn)
}

/// Skinny-`m` `C = A·Bᵀ` (or `+=`) with **strided operands and no
/// packing**, bit-identical to the packed kernels: rows of `a` start at
/// `i·lda`, rows of `bt` at `j·ldb` (so conv's per-item dW products can
/// read the batched `gy`/im2col buffers in place), and each output
/// element is the same `KC`-chunked ascending-`k` fold — an FMA chain
/// from zero per chunk on AVX2, a mul-then-add chain on the portable
/// path — that the packed microkernels compute, so swapping kernels
/// never moves a bit. Packing dominates the packed path at these shapes
/// (a per-item dW product spends ~90% of its time in `pack_b`); this
/// entry point exists purely to delete that cost.
#[allow(clippy::too_many_arguments)]
pub fn gemm_nt_kseq(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    bt: &[f32],
    ldb: usize,
    c: &mut [f32],
    accumulate: bool,
) {
    check_len("c", c.len(), m, n);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        if !accumulate {
            c.fill(0.0);
        }
        return;
    }
    check_strided("a", a.len(), m, k, lda);
    check_strided("bt", bt.len(), n, k, ldb);
    // A transposed per KC block into lane-padded scratch: at[p·lanes + i]
    // = a[i·lda + pc + p], zero in the pad lanes (computed, discarded).
    let lanes = m.next_multiple_of(8);
    let mut at = crate::scratch::Scratch::take(KC.min(k) * lanes);
    for pc in (0..k).step_by(KC) {
        let kc = KC.min(k - pc);
        // First chunk honours the caller's flag; later chunks always
        // accumulate — the same chunk fold the packed path produces.
        let acc_this = accumulate || pc > 0;
        for i in 0..lanes {
            if i < m {
                let src = &a[i * lda + pc..i * lda + pc + kc];
                for (p, &v) in src.iter().enumerate() {
                    at[p * lanes + i] = v;
                }
            } else {
                for p in 0..kc {
                    at[p * lanes + i] = 0.0;
                }
            }
        }
        kseq_nt_block(m, n, kc, lanes, &at, bt, ldb, pc, c, acc_this);
    }
}

/// One KC block of [`gemm_nt_kseq`]: dispatches to the FMA or portable
/// inner loop so the chunk fold matches whichever packed microkernel
/// this host runs.
#[allow(clippy::too_many_arguments)]
fn kseq_nt_block(
    m: usize,
    n: usize,
    kc: usize,
    lanes: usize,
    at: &[f32],
    bt: &[f32],
    ldb: usize,
    pc: usize,
    c: &mut [f32],
    accumulate: bool,
) {
    #[cfg(target_arch = "x86_64")]
    if have_avx2_fma() {
        // SAFETY: AVX2+FMA presence was runtime-checked above.
        unsafe {
            kseq_nt_block_avx2(m, n, kc, lanes, at, bt, ldb, pc, c, accumulate);
        }
        return;
    }
    for j in 0..n {
        let brow = &bt[j * ldb + pc..j * ldb + pc + kc];
        for i in 0..m {
            let mut acc = 0.0f32;
            // Mul-then-add per step: the portable microkernel's fold.
            for (p, &bv) in brow.iter().enumerate() {
                acc += at[p * lanes + i] * bv;
            }
            let idx = i * n + j;
            if accumulate {
                c[idx] += acc;
            } else {
                c[idx] = acc;
            }
        }
    }
}

/// AVX2+FMA inner loop of [`gemm_nt_kseq`]: eight output rows share one
/// accumulator vector; each lane's fold is the same ascending-`k` FMA
/// chain from zero as the packed microkernels'.
///
/// # Safety
/// Caller must ensure AVX2 and FMA are available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn kseq_nt_block_avx2(
    m: usize,
    n: usize,
    kc: usize,
    lanes: usize,
    at: &[f32],
    bt: &[f32],
    ldb: usize,
    pc: usize,
    c: &mut [f32],
    accumulate: bool,
) {
    use std::arch::x86_64::*;
    // SAFETY: the caller guarantees AVX2+FMA; `at` holds `kc * lanes`
    // floats with `lanes` a multiple of 8, each `brow` slice is bounds-
    // checked safe Rust, and stores go through a stack spill plus safe
    // indexing of `c`.
    unsafe {
        let store = |c: &mut [f32], acc: __m256, g: usize, j: usize| {
            let mut spill = [0.0f32; 8];
            // Storing 8 floats into an 8-float stack buffer (covered by
            // the enclosing unsafe block's safety argument).
            _mm256_storeu_ps(spill.as_mut_ptr(), acc);
            for (r, &v) in spill.iter().enumerate().take(m - g.min(m)) {
                let idx = (g + r) * n + j;
                if accumulate {
                    c[idx] += v;
                } else {
                    c[idx] = v;
                }
            }
        };
        for g in (0..lanes).step_by(8) {
            let at_g = at.as_ptr().add(g);
            let mut j = 0;
            // Four output columns per pass: four independent FMA chains
            // hide the ~4-cycle fmadd latency a single serial chain
            // would expose. Each (i, j) element still owns its own
            // ascending-k chain, so the unroll is bit-invisible.
            while j + 4 <= n {
                let b0 = &bt[j * ldb + pc..j * ldb + pc + kc];
                let b1 = &bt[(j + 1) * ldb + pc..(j + 1) * ldb + pc + kc];
                let b2 = &bt[(j + 2) * ldb + pc..(j + 2) * ldb + pc + kc];
                let b3 = &bt[(j + 3) * ldb + pc..(j + 3) * ldb + pc + kc];
                let mut acc0 = _mm256_setzero_ps();
                let mut acc1 = _mm256_setzero_ps();
                let mut acc2 = _mm256_setzero_ps();
                let mut acc3 = _mm256_setzero_ps();
                let mut ap = at_g;
                for p in 0..kc {
                    let av = _mm256_loadu_ps(ap);
                    acc0 = _mm256_fmadd_ps(av, _mm256_broadcast_ss(b0.get_unchecked(p)), acc0);
                    acc1 = _mm256_fmadd_ps(av, _mm256_broadcast_ss(b1.get_unchecked(p)), acc1);
                    acc2 = _mm256_fmadd_ps(av, _mm256_broadcast_ss(b2.get_unchecked(p)), acc2);
                    acc3 = _mm256_fmadd_ps(av, _mm256_broadcast_ss(b3.get_unchecked(p)), acc3);
                    ap = ap.add(lanes);
                }
                store(c, acc0, g, j);
                store(c, acc1, g, j + 1);
                store(c, acc2, g, j + 2);
                store(c, acc3, g, j + 3);
                j += 4;
            }
            while j < n {
                let brow = &bt[j * ldb + pc..j * ldb + pc + kc];
                let mut acc = _mm256_setzero_ps();
                let mut ap = at_g;
                for &bv in brow {
                    let bvv = _mm256_broadcast_ss(&bv);
                    acc = _mm256_fmadd_ps(_mm256_loadu_ps(ap), bvv, acc);
                    ap = ap.add(lanes);
                }
                store(c, acc, g, j);
                j += 1;
            }
        }
    }
}

/// Panics unless an operand holds exactly `rows × cols` floats. The
/// AVX2 kernels address operands through raw pointers derived from
/// `m`, `n` and `k`, so every public entry checks its slices in release
/// builds too: a short slice must panic here, never be read or written
/// past its end.
#[track_caller]
fn check_len(name: &str, len: usize, rows: usize, cols: usize) {
    assert!(
        rows.checked_mul(cols) == Some(len),
        "gemm: operand `{name}` holds {len} floats, expected {rows}×{cols}"
    );
}

/// Panics unless a strided operand covers `rows` rows of `cols` floats
/// at row stride `ld` (`ld >= cols`, last row ending inside the slice).
#[track_caller]
fn check_strided(name: &str, len: usize, rows: usize, cols: usize, ld: usize) {
    let need = (rows - 1).checked_mul(ld).and_then(|v| v.checked_add(cols));
    assert!(
        ld >= cols && need.is_some_and(|need| len >= need),
        "gemm: strided operand `{name}` holds {len} floats, too few for {rows} rows of {cols} at stride {ld}"
    );
}

/// Reference kernel: the seed's naive ikj loop, kept for property tests
/// and as the bench baseline the blocked kernel is measured against.
pub fn matmul_naive(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    c[..m * n].fill(0.0);
    for i in 0..m {
        for kk in 0..k {
            let av = a[i * k + kk];
            // taor-lint: allow(float::eq) — sparsity skip: only a bit-exact zero may be elided
            if av == 0.0 {
                continue;
            }
            let row = &b[kk * n..(kk + 1) * n];
            let dst = &mut c[i * n..(i + 1) * n];
            for (d, &bv) in dst.iter_mut().zip(row) {
                *d += av * bv;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn have_avx2_fma() -> bool {
    // Miri interprets portable Rust, not vendor intrinsics: force the
    // scalar path so `cargo miri test` exercises the same kernels it
    // can actually check.
    if cfg!(miri) {
        return false;
    }
    use std::sync::OnceLock;
    static DETECTED: OnceLock<bool> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    })
}

#[allow(clippy::too_many_arguments)]
fn gemm(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    accumulate: bool,
    layout: Layout,
) {
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        if !accumulate {
            c.fill(0.0);
        }
        return;
    }
    // Tile shape: small-`m` products (conv forward/dW with few output
    // channels) use the 4×24 kernel, everything else the 6×16 one.
    let (mr, nr) = if m <= SMALL_M { (MR_S, NR_S) } else { (MR, NR) };
    // Shared packed-B panel for the current (jc, pc) iteration, recycled
    // through the arena — the batched trainer issues many small dW
    // products per step and a heap allocation each would dominate them.
    // Sized for the widest panel, rounded up to whole `nr` tiles (NC is
    // a multiple of NR but not of NR_S).
    let mut packed_b = crate::scratch::Scratch::take(KC.min(k) * NC.min(n).next_multiple_of(nr));

    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        let nc_tiles = nc.div_ceil(nr);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            pack_b(&mut packed_b, b, n, k, jc, pc, nc, kc, nr, layout);
            // First k-slice either overwrites or accumulates depending
            // on the caller's flag; later slices always accumulate.
            let acc_this = accumulate || pc > 0;
            let pb: &[f32] = &packed_b;
            c.par_chunks_mut(MC * n).enumerate().for_each(|(bi, cblock)| {
                let ic = bi * MC;
                let mc = MC.min(m - ic);
                PACKED_A.with(|pa_cell| {
                    let mut pa = pa_cell.borrow_mut();
                    pa.resize(MC * KC, 0.0);
                    pack_a(&mut pa, a, m, k, ic, pc, mc, kc, mr, layout);
                    for it in 0..mc.div_ceil(mr) {
                        let rows = mr.min(mc - it * mr);
                        for jt in 0..nc_tiles {
                            let cols = nr.min(nc - jt * nr);
                            microkernel(
                                &pa[it * mr * kc..],
                                &pb[jt * nr * kc..],
                                kc,
                                cblock,
                                it * mr,
                                jc + jt * nr,
                                n,
                                rows,
                                cols,
                                acc_this,
                                mr,
                            );
                        }
                    }
                });
            });
        }
    }
}

/// Pack the `mc × kc` block of A at `(ic, pc)` as `ceil(mc/mr)` tiles,
/// each stored k-major with `mr` consecutive row entries per k step
/// (zero-padded past `mc`).
#[allow(clippy::too_many_arguments)]
fn pack_a(
    pa: &mut [f32],
    a: &[f32],
    m: usize,
    k: usize,
    ic: usize,
    pc: usize,
    mc: usize,
    kc: usize,
    mr: usize,
    layout: Layout,
) {
    let _ = m;
    for it in 0..mc.div_ceil(mr) {
        let tile = &mut pa[it * mr * kc..(it + 1) * mr * kc];
        let rows = mr.min(mc - it * mr);
        match layout {
            Layout::Nn | Layout::Nt => {
                // Row-outer traversal: each source row is one contiguous
                // run of `kc` floats, scattered into the tile at stride
                // `mr` (the tile itself is L1-resident). The per-element
                // row-inner order read A at stride `k` per element and
                // thrashed on long rows; same packed bytes either way.
                for r in 0..mr {
                    if r < rows {
                        let src = &a[(ic + it * mr + r) * k + pc..][..kc];
                        for (p, &v) in src.iter().enumerate() {
                            tile[p * mr + r] = v;
                        }
                    } else {
                        for p in 0..kc {
                            tile[p * mr + r] = 0.0;
                        }
                    }
                }
            }
            Layout::Tn => {
                // A is stored `[k,m]`: rows of the logical block are
                // contiguous per k step.
                for p in 0..kc {
                    let src = &a[(pc + p) * m + ic + it * mr..];
                    for r in 0..mr {
                        tile[p * mr + r] = if r < rows { src[r] } else { 0.0 };
                    }
                }
            }
        }
    }
}

/// Pack the `kc × nc` panel of B at `(pc, jc)` as `ceil(nc/nr)` tiles,
/// each stored k-major with `nr` consecutive column entries per k step
/// (zero-padded past `nc`).
#[allow(clippy::too_many_arguments)]
fn pack_b(
    pb: &mut [f32],
    b: &[f32],
    n: usize,
    k: usize,
    jc: usize,
    pc: usize,
    nc: usize,
    kc: usize,
    nr: usize,
    layout: Layout,
) {
    match layout {
        Layout::Nn | Layout::Tn => {
            // p-outer traversal: each source row of B is one contiguous
            // `nc`-float run, cut into `nr`-wide memcpys — the dominant
            // cost of every skinny-`m` product is this pack, and the old
            // jt-outer order re-walked B at a `n`-float stride per
            // element. Same packed bytes either way.
            let n_tiles = nc.div_ceil(nr);
            for p in 0..kc {
                let src = &b[(pc + p) * n + jc..(pc + p) * n + jc + nc];
                for jt in 0..n_tiles {
                    let cols = nr.min(nc - jt * nr);
                    let dst = &mut pb[jt * nr * kc + p * nr..jt * nr * kc + (p + 1) * nr];
                    dst[..cols].copy_from_slice(&src[jt * nr..jt * nr + cols]);
                    dst[cols..].fill(0.0);
                }
            }
        }
        Layout::Nt => {
            // B is stored `[n,k]`: each packed column is one contiguous
            // source row, scattered into the (L1-resident) tile at
            // stride `nr`.
            for jt in 0..nc.div_ceil(nr) {
                let tile = &mut pb[jt * nr * kc..(jt + 1) * nr * kc];
                let cols = nr.min(nc - jt * nr);
                for cc in 0..nr {
                    if cc < cols {
                        let src = &b[(jc + jt * nr + cc) * k + pc..][..kc];
                        for (p, &v) in src.iter().enumerate() {
                            tile[p * nr + cc] = v;
                        }
                    } else {
                        for p in 0..kc {
                            tile[p * nr + cc] = 0.0;
                        }
                    }
                }
            }
        }
    }
}

/// Accumulate one `rows × cols` tile of C at `(row0, col0)` from packed
/// operand tiles (`pa`: `kc × mr`, `pb`: `kc × nr` with `nr` implied by
/// `mr`: 6×16 or 4×24).
#[allow(clippy::too_many_arguments)]
#[inline]
fn microkernel(
    pa: &[f32],
    pb: &[f32],
    kc: usize,
    c: &mut [f32],
    row0: usize,
    col0: usize,
    ldc: usize,
    rows: usize,
    cols: usize,
    accumulate: bool,
    mr: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if have_avx2_fma() {
        // SAFETY: AVX2+FMA presence was runtime-checked above.
        unsafe {
            if mr == MR_S {
                microkernel_avx2_s(pa, pb, kc, c, row0, col0, ldc, rows, cols, accumulate);
            } else {
                microkernel_avx2(pa, pb, kc, c, row0, col0, ldc, rows, cols, accumulate);
            }
        }
        return;
    }
    if mr == MR_S {
        microkernel_portable::<MR_S, NR_S>(pa, pb, kc, c, row0, col0, ldc, rows, cols, accumulate);
    } else {
        microkernel_portable::<MR, NR>(pa, pb, kc, c, row0, col0, ldc, rows, cols, accumulate);
    }
}

/// Portable `TM × TN` register tile; the fixed-size inner loops
/// auto-vectorise on any SIMD target.
#[allow(clippy::too_many_arguments)]
fn microkernel_portable<const TM: usize, const TN: usize>(
    pa: &[f32],
    pb: &[f32],
    kc: usize,
    c: &mut [f32],
    row0: usize,
    col0: usize,
    ldc: usize,
    rows: usize,
    cols: usize,
    accumulate: bool,
) {
    let mut acc = [[0.0f32; TN]; TM];
    for p in 0..kc {
        let bp = &pb[p * TN..(p + 1) * TN];
        let ap = &pa[p * TM..(p + 1) * TM];
        for r in 0..TM {
            let av = ap[r];
            let dst = &mut acc[r];
            for (d, &bv) in dst.iter_mut().zip(bp) {
                *d += av * bv;
            }
        }
    }
    store_tile(&acc, c, row0, col0, ldc, rows, cols, accumulate);
}

#[allow(clippy::too_many_arguments)]
fn store_tile<const TM: usize, const TN: usize>(
    acc: &[[f32; TN]; TM],
    c: &mut [f32],
    row0: usize,
    col0: usize,
    ldc: usize,
    rows: usize,
    cols: usize,
    accumulate: bool,
) {
    for r in 0..rows {
        let dst = &mut c[(row0 + r) * ldc + col0..(row0 + r) * ldc + col0 + cols];
        if accumulate {
            for (d, &v) in dst.iter_mut().zip(&acc[r][..cols]) {
                *d += v;
            }
        } else {
            dst.copy_from_slice(&acc[r][..cols]);
        }
    }
}

/// AVX2+FMA microkernel: 6×16 tile in twelve ymm accumulators.
///
/// # Safety
/// Caller must ensure AVX2 and FMA are available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn microkernel_avx2(
    pa: &[f32],
    pb: &[f32],
    kc: usize,
    c: &mut [f32],
    row0: usize,
    col0: usize,
    ldc: usize,
    rows: usize,
    cols: usize,
    accumulate: bool,
) {
    use std::arch::x86_64::*;
    // SAFETY: the caller guarantees AVX2+FMA (the only contract of this
    // fn); every pointer below stays inside `pa`/`pb`/`c`: the packed
    // panels hold `kc * MR` and `kc * NR` floats, and full tiles write
    // `MR x NR` in-bounds elements of `c` (edge tiles spill to a stack
    // buffer and copy through the safe `store_tile`).
    unsafe {
        let mut acc0 = [_mm256_setzero_ps(); MR];
        let mut acc1 = [_mm256_setzero_ps(); MR];
        let mut ap = pa.as_ptr();
        let mut bp = pb.as_ptr();
        for _ in 0..kc {
            let b0 = _mm256_loadu_ps(bp);
            let b1 = _mm256_loadu_ps(bp.add(8));
            // Fully unrolled over the six rows: one broadcast feeds two FMAs.
            for r in 0..MR {
                let av = _mm256_broadcast_ss(&*ap.add(r));
                acc0[r] = _mm256_fmadd_ps(av, b0, acc0[r]);
                acc1[r] = _mm256_fmadd_ps(av, b1, acc1[r]);
            }
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
        if rows == MR && cols == NR {
            for r in 0..MR {
                let dst = c.as_mut_ptr().add((row0 + r) * ldc + col0);
                if accumulate {
                    let cur0 = _mm256_loadu_ps(dst);
                    let cur1 = _mm256_loadu_ps(dst.add(8));
                    _mm256_storeu_ps(dst, _mm256_add_ps(cur0, acc0[r]));
                    _mm256_storeu_ps(dst.add(8), _mm256_add_ps(cur1, acc1[r]));
                } else {
                    _mm256_storeu_ps(dst, acc0[r]);
                    _mm256_storeu_ps(dst.add(8), acc1[r]);
                }
            }
        } else {
            // Edge tile: spill to a stack buffer, then copy the valid part.
            let mut tile = [[0.0f32; NR]; MR];
            for r in 0..MR {
                _mm256_storeu_ps(tile[r].as_mut_ptr(), acc0[r]);
                _mm256_storeu_ps(tile[r].as_mut_ptr().add(8), acc1[r]);
            }
            store_tile(&tile, c, row0, col0, ldc, rows, cols, accumulate);
        }
    }
}

/// AVX2+FMA small-`m` microkernel: 4×24 tile in twelve ymm accumulators
/// (4 rows × 3 vectors). Same per-element sequential k-fold as the 6×16
/// kernel, so both tile shapes produce bit-identical products.
///
/// # Safety
/// Caller must ensure AVX2 and FMA are available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn microkernel_avx2_s(
    pa: &[f32],
    pb: &[f32],
    kc: usize,
    c: &mut [f32],
    row0: usize,
    col0: usize,
    ldc: usize,
    rows: usize,
    cols: usize,
    accumulate: bool,
) {
    use std::arch::x86_64::*;
    // SAFETY: the caller guarantees AVX2+FMA; every pointer below stays
    // inside `pa`/`pb`/`c`: the packed panels hold `kc * MR_S` and
    // `kc * NR_S` floats, and full tiles write `MR_S x NR_S` in-bounds
    // elements of `c` (edge tiles spill to a stack buffer and copy
    // through the safe `store_tile`).
    unsafe {
        let mut acc0 = [_mm256_setzero_ps(); MR_S];
        let mut acc1 = [_mm256_setzero_ps(); MR_S];
        let mut acc2 = [_mm256_setzero_ps(); MR_S];
        let mut ap = pa.as_ptr();
        let mut bp = pb.as_ptr();
        for _ in 0..kc {
            let b0 = _mm256_loadu_ps(bp);
            let b1 = _mm256_loadu_ps(bp.add(8));
            let b2 = _mm256_loadu_ps(bp.add(16));
            // Fully unrolled over the four rows: one broadcast feeds
            // three FMAs.
            for r in 0..MR_S {
                let av = _mm256_broadcast_ss(&*ap.add(r));
                acc0[r] = _mm256_fmadd_ps(av, b0, acc0[r]);
                acc1[r] = _mm256_fmadd_ps(av, b1, acc1[r]);
                acc2[r] = _mm256_fmadd_ps(av, b2, acc2[r]);
            }
            ap = ap.add(MR_S);
            bp = bp.add(NR_S);
        }
        if rows == MR_S && cols == NR_S {
            for r in 0..MR_S {
                let dst = c.as_mut_ptr().add((row0 + r) * ldc + col0);
                if accumulate {
                    let cur0 = _mm256_loadu_ps(dst);
                    let cur1 = _mm256_loadu_ps(dst.add(8));
                    let cur2 = _mm256_loadu_ps(dst.add(16));
                    _mm256_storeu_ps(dst, _mm256_add_ps(cur0, acc0[r]));
                    _mm256_storeu_ps(dst.add(8), _mm256_add_ps(cur1, acc1[r]));
                    _mm256_storeu_ps(dst.add(16), _mm256_add_ps(cur2, acc2[r]));
                } else {
                    _mm256_storeu_ps(dst, acc0[r]);
                    _mm256_storeu_ps(dst.add(8), acc1[r]);
                    _mm256_storeu_ps(dst.add(16), acc2[r]);
                }
            }
        } else {
            // Edge tile: spill to a stack buffer, then copy the valid part.
            let mut tile = [[0.0f32; NR_S]; MR_S];
            for r in 0..MR_S {
                _mm256_storeu_ps(tile[r].as_mut_ptr(), acc0[r]);
                _mm256_storeu_ps(tile[r].as_mut_ptr().add(8), acc1[r]);
                _mm256_storeu_ps(tile[r].as_mut_ptr().add(16), acc2[r]);
            }
            store_tile(&tile, c, row0, col0, ldc, rows, cols, accumulate);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill_pattern(len: usize, seed: u32) -> Vec<f32> {
        // Cheap deterministic pseudo-random values in [-1, 1].
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                (state >> 8) as f32 / (1u32 << 23) as f32 - 1.0
            })
            .collect()
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() <= tol, "idx {i}: {x} vs {y}");
        }
    }

    #[test]
    fn blocked_matches_naive_across_shapes() {
        // Shapes straddle every blocking boundary: below MR/NR, exact
        // multiples, one past a boundary, and > KC depth.
        for &(m, n, k) in &[
            (1, 1, 1),
            (3, 5, 2),
            (6, 16, 8),
            (7, 17, 9),
            (12, 32, 300),
            (73, 33, 70),
            (25, 1025, 13),
        ] {
            let a = fill_pattern(m * k, (m * 31 + n) as u32);
            let b = fill_pattern(k * n, (n * 17 + k) as u32);
            let mut want = vec![0.0; m * n];
            matmul_naive(m, n, k, &a, &b, &mut want);
            let mut got = vec![0.0; m * n];
            gemm_nn(m, n, k, &a, &b, &mut got, false);
            assert_close(&got, &want, 1e-4 * k as f32);
        }
    }

    #[test]
    fn nt_and_tn_match_explicit_transposes() {
        let (m, n, k) = (13, 21, 17);
        let a = fill_pattern(m * k, 3);
        let b = fill_pattern(k * n, 4);
        let mut want = vec![0.0; m * n];
        matmul_naive(m, n, k, &a, &b, &mut want);

        // bt[j*k + l] = b[l*n + j]
        let mut bt = vec![0.0; n * k];
        for l in 0..k {
            for j in 0..n {
                bt[j * k + l] = b[l * n + j];
            }
        }
        let mut got = vec![0.0; m * n];
        gemm_nt(m, n, k, &a, &bt, &mut got, false);
        assert_close(&got, &want, 1e-4);

        // at[l*m + i] = a[i*k + l]
        let mut at = vec![0.0; k * m];
        for i in 0..m {
            for l in 0..k {
                at[l * m + i] = a[i * k + l];
            }
        }
        let mut got_tn = vec![0.0; m * n];
        gemm_tn(m, n, k, &at, &b, &mut got_tn, false);
        assert_close(&got_tn, &want, 1e-4);
    }

    #[test]
    fn accumulate_adds_to_existing() {
        let (m, n, k) = (9, 20, 33);
        let a = fill_pattern(m * k, 5);
        let b = fill_pattern(k * n, 6);
        let mut base = fill_pattern(m * n, 7);
        let mut want = vec![0.0; m * n];
        matmul_naive(m, n, k, &a, &b, &mut want);
        for (w, &x) in want.iter_mut().zip(&base) {
            *w += x;
        }
        gemm_nn(m, n, k, &a, &b, &mut base, true);
        assert_close(&base, &want, 1e-4);
    }

    #[test]
    fn tile_shape_is_bit_invisible() {
        // The same logical product computed through the 6×16 path (m=20)
        // and the 4×24 path (two m=10 calls over row halves) must agree
        // bitwise: every output element is the same sequential k-fold
        // regardless of tile shape. The batched trainer's per-sample /
        // batched equivalence rests on exactly this property.
        let (m, n, k) = (20, 100, 300);
        let a = fill_pattern(m * k, 11);
        let b = fill_pattern(k * n, 12);
        let mut whole = vec![0.0; m * n];
        gemm_nn(m, n, k, &a, &b, &mut whole, false);
        let mut halves = vec![0.0; m * n];
        gemm_nn(10, n, k, &a[..10 * k], &b, &mut halves[..10 * n], false);
        gemm_nn(10, n, k, &a[10 * k..], &b, &mut halves[10 * n..], false);
        assert_eq!(whole, halves);
    }

    #[test]
    fn batch_split_is_bit_invisible() {
        // Column subsets of one product equal the same columns computed
        // alone — the property that makes batched conv forward bit-equal
        // to per-sample forward.
        let (m, n, k) = (8, 96, 75);
        let a = fill_pattern(m * k, 21);
        let b = fill_pattern(k * n, 22);
        let mut whole = vec![0.0; m * n];
        gemm_nn(m, n, k, &a, &b, &mut whole, false);
        // Extract columns 32..64 of B and recompute them alone.
        let sub = 32usize;
        let mut bsub = vec![0.0; k * sub];
        for p in 0..k {
            bsub[p * sub..(p + 1) * sub].copy_from_slice(&b[p * n + 32..p * n + 64]);
        }
        let mut alone = vec![0.0; m * sub];
        gemm_nn(m, sub, k, &a, &bsub, &mut alone, false);
        for i in 0..m {
            assert_eq!(&whole[i * n + 32..i * n + 64], &alone[i * sub..(i + 1) * sub]);
        }
    }

    #[test]
    fn nt_kseq_matches_packed_kernel_bitwise() {
        // Embed the skinny A into a matrix tall enough to force the
        // packed path (m > SMALL_M), then compare its leading rows
        // against the no-pack kernel bit-for-bit: per-element folds are
        // row-independent, so both must produce identical chains. Shapes
        // cover k ≤ KC, k > KC (chunked fold), and accumulate.
        for &(m, n, k) in &[(8, 75, 560), (10, 200, 480), (4, 20, 32), (16, 33, 300), (3, 5, 7)] {
            let a = fill_pattern(m * k, (m * 7 + k) as u32);
            let bt = fill_pattern(n * k, (n * 13 + k) as u32);
            let mbig = SMALL_M + 1;
            let mut abig = a.clone();
            for r in 0..mbig - m {
                abig.extend_from_slice(&a[(r % m) * k..(r % m + 1) * k]);
            }
            for &acc in &[false, true] {
                let base = fill_pattern(m * n, 99);
                let mut want_big = {
                    let mut cb = fill_pattern(mbig * n, 99);
                    cb[..m * n].copy_from_slice(&base);
                    cb
                };
                gemm(mbig, n, k, &abig, &bt, &mut want_big, acc, Layout::Nt);
                let mut got = base.clone();
                gemm_nt_kseq(m, n, k, &a, k, &bt, k, &mut got, acc);
                for (i, (g, w)) in got.iter().zip(&want_big[..m * n]).enumerate() {
                    assert_eq!(g.to_bits(), w.to_bits(), "m={m} n={n} k={k} acc={acc} [{i}]");
                }
            }
        }
    }

    #[test]
    fn nn_kseq_matches_packed_kernel_bitwise() {
        // Same row-embedding pin as the NT variant: the packed path
        // (forced via m > SMALL_M) and the no-pack kernel must agree
        // bit-for-bit. Shapes cover the conv forward products (n ≫ 32
        // with a 32-column tail), k > KC chunking, and accumulate.
        for &(m, n, k) in &[(8, 4480, 75), (10, 60, 810), (4, 33, 32), (16, 100, 300), (3, 5, 7)] {
            let a = fill_pattern(m * k, (m * 3 + k) as u32);
            let b = fill_pattern(k * n, (n * 5 + k) as u32);
            let mbig = SMALL_M + 1;
            let mut abig = a.clone();
            for r in 0..mbig - m {
                abig.extend_from_slice(&a[(r % m) * k..(r % m + 1) * k]);
            }
            for &acc in &[false, true] {
                let base = fill_pattern(m * n, 98);
                let mut want_big = {
                    let mut cb = fill_pattern(mbig * n, 98);
                    cb[..m * n].copy_from_slice(&base);
                    cb
                };
                gemm(mbig, n, k, &abig, &b, &mut want_big, acc, Layout::Nn);
                let mut got = base.clone();
                gemm_nn_kseq(m, n, k, &a, &b, &mut got, acc);
                for (i, (g, w)) in got.iter().zip(&want_big[..m * n]).enumerate() {
                    assert_eq!(g.to_bits(), w.to_bits(), "m={m} n={n} k={k} acc={acc} [{i}]");
                }
            }
        }
    }

    #[test]
    fn tn_kseq_matches_packed_kernel_bitwise() {
        // Direct pin against the packed TN path across the dcol shape
        // (short k), the per-row dense-dW shape (k = 1), and a chunked
        // k > KC shape.
        for &(m, n, k) in &[(75, 4480, 8), (20, 32, 1), (810, 60, 10), (16, 33, 300)] {
            let at = fill_pattern(k * m, (m * 11 + k) as u32);
            let b = fill_pattern(k * n, (n * 29 + k) as u32);
            for &acc in &[false, true] {
                let mut want = fill_pattern(m * n, 97);
                let mut got = want.clone();
                gemm(m, n, k, &at, &b, &mut want, acc, Layout::Tn);
                gemm_tn_kseq(m, n, k, &at, &b, &mut got, acc);
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(g.to_bits(), w.to_bits(), "m={m} n={n} k={k} acc={acc} [{i}]");
                }
            }
        }
    }

    #[test]
    fn nt_kseq_strided_views_match_contiguous() {
        // Operands embedded in wider row strides (the batched gy/im2col
        // buffers) must give the same bits as contiguous copies.
        let (m, n, k) = (8, 75, 60);
        let (lda, ldb) = (k * 4, k * 4);
        let abig = fill_pattern(m * lda, 31);
        let btbig = fill_pattern(n * ldb, 32);
        let off = k; // item 1 of 4 in the batched layout
        let mut a = Vec::new();
        let mut bt = Vec::new();
        for i in 0..m {
            a.extend_from_slice(&abig[i * lda + off..i * lda + off + k]);
        }
        for j in 0..n {
            bt.extend_from_slice(&btbig[j * ldb + off..j * ldb + off + k]);
        }
        let mut want = vec![0.1f32; m * n];
        gemm_nt_kseq(m, n, k, &a, k, &bt, k, &mut want, true);
        let mut got = vec![0.1f32; m * n];
        gemm_nt_kseq(m, n, k, &abig[off..], lda, &btbig[off..], ldb, &mut got, true);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "[{i}]");
        }
    }

    // Short operands must panic at the entry check in release builds
    // too; before it, the AVX2 kernels wrote past the end of `c`.
    #[test]
    #[should_panic(expected = "operand `a`")]
    fn short_a_panics() {
        let mut c = vec![0.0f32; 128];
        gemm_nn(2, 64, 1, &[1.0; 1], &[1.0; 64], &mut c, false);
    }

    #[test]
    #[should_panic(expected = "operand `b`")]
    fn short_b_panics() {
        let mut c = vec![0.0f32; 128];
        gemm_nn(2, 64, 1, &[1.0; 2], &[1.0; 63], &mut c, false);
    }

    #[test]
    #[should_panic(expected = "operand `c`")]
    fn short_c_panics() {
        let mut big = vec![0.0f32; 256];
        gemm_nn(2, 64, 1, &[1.0; 2], &[1.0; 64], &mut big[..1], false);
    }

    #[test]
    fn every_entry_rejects_a_short_c() {
        type Entry = fn(&mut [f32]);
        let entries: [(&str, Entry); 5] = [
            ("nn packed", |c| gemm_nn(20, 64, 3, &[1.0; 60], &[1.0; 192], c, false)),
            ("nt", |c| gemm_nt(2, 64, 3, &[1.0; 6], &[1.0; 192], c, false)),
            ("tn", |c| gemm_tn(2, 64, 3, &[1.0; 6], &[1.0; 192], c, false)),
            ("tn kseq", |c| gemm_tn_kseq(2, 64, 3, &[1.0; 6], &[1.0; 192], c, false)),
            ("nt kseq", |c| gemm_nt_kseq(2, 64, 3, &[1.0; 6], 3, &[1.0; 192], 3, c, false)),
        ];
        for (name, entry) in entries {
            let mut big = vec![0.0f32; 2048];
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                entry(&mut big[..1]);
            }));
            assert!(caught.is_err(), "{name}: a 1-float `c` must panic");
            assert!(big[1..].iter().all(|&v| v == 0.0), "{name}: wrote past `c`");
        }
        let caught = std::panic::catch_unwind(|| {
            let mut c = vec![0.0f32; 128];
            gemm_nt_kseq(2, 64, 3, &[1.0; 6], 3, &[1.0; 191], 3, &mut c, false);
        });
        assert!(caught.is_err(), "nt kseq: a short strided `bt` must panic");
    }

    #[test]
    fn zero_k_clears_or_keeps() {
        let mut c = vec![1.0f32; 6];
        gemm_nn(2, 3, 0, &[], &[], &mut c, true);
        assert_eq!(c, vec![1.0; 6]);
        gemm_nn(2, 3, 0, &[], &[], &mut c, false);
        assert_eq!(c, vec![0.0; 6]);
    }
}
