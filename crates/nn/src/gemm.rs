// taor-lint: allow(panic::index) — dense numeric kernel: indices are derived from dimensions validated at the public boundary and bounded by the enclosing loops.
//! `f32` GEMM for every conv/dense forward and backward pass and for the
//! SIFT/SURF matcher: one kernel per operand layout, none of which packs
//! B or hands work to the thread pool.
//!
//! **Fold contract.** Every output element is a `KC`-chunked,
//! ascending-`k` chain from zero per chunk: an FMA per step on x86-64
//! hosts with AVX2+FMA, a multiply then an add elsewhere (and under
//! Miri). The first chunk is stored into `C`, or added with
//! `accumulate`; every later chunk is added. No element's chain depends
//! on its row, its column or the other rows and columns of the call, so
//! splitting a product by rows or columns never moves a bit — the
//! batched trainer's per-sample equivalence rests on this.
//!
//! The `nt`/`tn` entry points read the transposed operand in place, so
//! backward passes never materialise a transpose.

/// Depth of one chunk of the fold. Every table and served body depends
/// on this value: changing it regroups each long product's additions.
pub const KC: usize = 256;

/// `C = A·B` (or `+=` with `accumulate`): `a` is `[m,k]`, `b` is
/// `[k,n]`, `c` is `[m,n]`, all row-major and contiguous. B's rows are
/// contiguous in `j`, so the inner loop vectorises over output columns
/// and streams B once per pair of A rows.
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
    fold_a_rows(m, n, k, k, 1, a, b, c, accumulate);
}

/// `C = Aᵀ·B` (or `+=`): `at` is `[k,m]`, `b` is `[k,n]` — the
/// weight-gradient `dW = xᵀ·g` and conv `dcol = Wᵀ·gy` shapes, without
/// materialising the transpose. The same loop as [`gemm_nn`]; only A's
/// addressing differs (per-row stride 1, per-k step `m`).
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
    fold_a_rows(m, n, k, 1, m, at, b, c, accumulate);
}

/// The chunked fold behind [`gemm_nn`] and [`gemm_tn`]. A's element for
/// logical `(i, p)` sits at `i·ars + p·astep`: `(k, 1)` for row-major A,
/// `(1, m)` for `[k, m]` transposed A. Callers have checked every
/// operand's length.
#[allow(clippy::too_many_arguments)]
fn fold_a_rows(
    m: usize,
    n: usize,
    k: usize,
    ars: usize,
    astep: usize,
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
        // First chunk honours the caller's flag; later chunks always add.
        let acc_this = accumulate || pc > 0;
        nn_block(m, n, kc, ars, astep, a, b, pc, c, acc_this);
    }
}

/// One `KC` chunk of [`fold_a_rows`]: the FMA inner loop on AVX2+FMA
/// hosts, the mul-then-add loop elsewhere.
#[allow(clippy::too_many_arguments)]
fn nn_block(
    m: usize,
    n: usize,
    kc: usize,
    ars: usize,
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
            nn_block_avx2(m, n, kc, ars, astep, a, b, pc, c, accumulate);
        }
        return;
    }
    let aoff = pc * astep;
    for i in 0..m {
        let abase = i * ars + aoff;
        for j in 0..n {
            let mut acc = 0.0f32;
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

/// AVX2+FMA inner loop of [`nn_block`]: 2 A-rows × 32 output columns in
/// eight independent accumulator chains, each element's fold the
/// ascending-`k` FMA chain from zero of the fold contract.
///
/// # Safety
/// Caller must ensure AVX2 and FMA are available, and that `a`, `b` and
/// `c` hold the operands [`fold_a_rows`] describes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn nn_block_avx2(
    m: usize,
    n: usize,
    kc: usize,
    ars: usize,
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
    let aoff = pc * astep;
    // SAFETY: the caller guarantees AVX2+FMA; every pointer stays inside
    // `a`/`b`/`c`: A reads `a[i·ars + (pc + p)·astep]` for `i < m`,
    // `p < kc`, full 32-column blocks read `b[(pc+p)·n + jb .. +32]` and
    // write `c[i·n + jb .. +32]` with `jb + 32 <= n`, and the column tail
    // masks its loads and uses safe indexing.
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

/// `C = A·Bᵀ` (or `+=`): `a` holds `m` rows of `k` floats starting at
/// `i·lda`, `bt` holds `n` rows of `k` starting at `j·ldb`, and `c` is
/// `[m,n]` contiguous. Contiguous operands pass `k` for both strides;
/// conv's per-item dW products read the batched `gy`/im2col buffers in
/// place at their batch stride. Used for the dense backward `dx = g·Wᵀ`
/// and the matcher's `q·tᵀ` cross terms without materialising a
/// transpose.
#[allow(clippy::too_many_arguments)]
pub fn gemm_nt(
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
        // First chunk honours the caller's flag; later chunks always add.
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
        nt_block(m, n, kc, lanes, &at, bt, ldb, pc, c, acc_this);
    }
}

/// One `KC` chunk of [`gemm_nt`]: the FMA inner loop on AVX2+FMA hosts,
/// the mul-then-add loop elsewhere.
#[allow(clippy::too_many_arguments)]
fn nt_block(
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
            nt_block_avx2(m, n, kc, lanes, at, bt, ldb, pc, c, accumulate);
        }
        return;
    }
    for j in 0..n {
        let brow = &bt[j * ldb + pc..j * ldb + pc + kc];
        for i in 0..m {
            let mut acc = 0.0f32;
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

/// AVX2+FMA inner loop of [`nt_block`]: eight output rows share one
/// accumulator vector; each lane's fold is the ascending-`k` FMA chain
/// from zero of the fold contract.
///
/// # Safety
/// Caller must ensure AVX2 and FMA are available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn nt_block_avx2(
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
/// and as the bench baseline the GEMM kernels are measured against.
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

    /// `[rows, cols]` row-major → `[cols, rows]` row-major.
    fn transpose(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        let mut t = vec![0.0; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                t[c * rows + r] = x[r * cols + c];
            }
        }
        t
    }

    /// The fold contract, one output element at a time: `a` is `[m,k]`
    /// and `b` is `[k,n]`, and each element is a `KC`-chunked,
    /// ascending-`k` chain from zero per chunk — `a.mul_add(b, s)` on
    /// hosts whose kernels use FMA, `s + a * b` elsewhere and under
    /// Miri — whose first chunk is stored into `c` unless `accumulate`
    /// and whose later chunks are added.
    fn fold_oracle(
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        accumulate: bool,
    ) {
        #[cfg(target_arch = "x86_64")]
        let fma = have_avx2_fma();
        #[cfg(not(target_arch = "x86_64"))]
        let fma = false;
        for i in 0..m {
            for j in 0..n {
                let idx = i * n + j;
                if k == 0 && !accumulate {
                    c[idx] = 0.0;
                }
                for pc in (0..k).step_by(KC) {
                    let mut s = 0.0f32;
                    for p in pc..k.min(pc + KC) {
                        let (x, y) = (a[i * k + p], b[p * n + j]);
                        s = if fma { x.mul_add(y, s) } else { s + x * y };
                    }
                    if accumulate || pc > 0 {
                        c[idx] += s;
                    } else {
                        c[idx] = s;
                    }
                }
            }
        }
    }

    /// Runs every entry point on the logical product `A[m,k]·B[k,n]`,
    /// accumulating onto a patterned `C` and overwriting it, and asserts
    /// each matches [`fold_oracle`] bit for bit. The strided `nt` call
    /// embeds its operands at offsets inside wider, NaN-padded rows, so
    /// a read outside the logical rows shows.
    fn assert_fold_contract(m: usize, n: usize, k: usize) {
        let a = fill_pattern(m * k, (m * 31 + k) as u32);
        let b = fill_pattern(k * n, (n * 17 + k) as u32);
        let at = transpose(&a, m, k);
        let bt = transpose(&b, k, n);
        let (lda, ldb, aoff, boff) = (k + 3, k + 5, 1, 2);
        let mut a_wide = vec![f32::NAN; m * lda + aoff];
        for i in 0..m {
            a_wide[aoff + i * lda..][..k].copy_from_slice(&a[i * k..(i + 1) * k]);
        }
        let mut bt_wide = vec![f32::NAN; n * ldb + boff];
        for j in 0..n {
            bt_wide[boff + j * ldb..][..k].copy_from_slice(&bt[j * k..(j + 1) * k]);
        }
        for accumulate in [false, true] {
            let base = fill_pattern(m * n, (m + n + k) as u32);
            let mut want = base.clone();
            fold_oracle(m, n, k, &a, &b, &mut want, accumulate);
            type Entry<'a> = (&'a str, &'a dyn Fn(&mut [f32]));
            let entries: [Entry; 4] = [
                ("nn", &|c| gemm_nn(m, n, k, &a, &b, c, accumulate)),
                ("nt", &|c| gemm_nt(m, n, k, &a, k, &bt, k, c, accumulate)),
                ("nt strided", &|c| {
                    gemm_nt(m, n, k, &a_wide[aoff..], lda, &bt_wide[boff..], ldb, c, accumulate)
                }),
                ("tn", &|c| gemm_tn(m, n, k, &at, &b, c, accumulate)),
            ];
            for (name, entry) in entries {
                let mut got = base.clone();
                entry(&mut got);
                for (idx, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{name} {m}x{n}x{k} accumulate={accumulate} [{idx}]: {g} vs {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_entry_matches_the_fold_contract_at_small_shapes() {
        // Small enough for Miri, which checks the portable fold: shapes
        // straddle one and two `KC` chunks, the 32-column blocks and the
        // 8-column tails of the `nn` loop, the 8-row lane groups of the
        // `nt` loop, odd row counts, and `k = 0` and empty products.
        for (m, n, k) in [
            (1, 1, 1),
            (2, 8, 3),
            (3, 9, KC),
            (2, 33, KC + 1),
            (3, 41, 2 * KC + 3),
            (9, 31, 7),
            (17, 40, 12),
            (2, 7, 0),
            (0, 5, 3),
            (4, 0, 3),
        ] {
            assert_fold_contract(m, n, k);
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "full-size products; the small-shape test covers the scalar path")]
    fn every_entry_matches_the_fold_contract_at_traced_shapes() {
        // Every product shape the workloads run on more than 16 rows:
        // the SURF query block of Tables 3 and 9, `taor-serve`'s dense
        // head over the 82-view gallery, and the paper-recipe network's
        // forward (`nn`) and input-gradient (`tn`) products.
        for (m, n, k) in [
            (19, 721, 64),
            (82, 8, 8),
            (82, 2, 8),
            (20, 9600, 75),
            (25, 1248, 500),
            (25, 156, 2025),
            (25, 156, 225),
            (500, 1248, 25),
            (2025, 156, 25),
            (225, 156, 25),
        ] {
            assert_fold_contract(m, n, k);
        }
    }

    #[test]
    fn blocked_matches_naive_across_shapes() {
        // Shapes straddle every loop boundary: the 2-row pairs, the
        // 32-column blocks and 8-column tails, and > KC depth.
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

        let bt = transpose(&b, k, n);
        let mut got = vec![0.0; m * n];
        gemm_nt(m, n, k, &a, k, &bt, k, &mut got, false);
        assert_close(&got, &want, 1e-4);

        let at = transpose(&a, m, k);
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
    fn rows_are_independent() {
        // A 20-row product equals its two 10-row halves computed alone,
        // bitwise, in every layout: each output element is its own
        // k-fold whatever rows share the call. The batched trainer's
        // per-sample / batched equivalence rests on exactly this.
        let (m, n, k) = (20, 100, 300);
        let h = m / 2;
        let a = fill_pattern(m * k, 11);
        let b = fill_pattern(k * n, 12);
        let mut whole = vec![0.0; m * n];
        gemm_nn(m, n, k, &a, &b, &mut whole, false);
        let mut halves = vec![0.0; m * n];
        gemm_nn(h, n, k, &a[..h * k], &b, &mut halves[..h * n], false);
        gemm_nn(h, n, k, &a[h * k..], &b, &mut halves[h * n..], false);
        assert_eq!(whole, halves);

        let bt = transpose(&b, k, n);
        let mut whole = vec![0.0; m * n];
        gemm_nt(m, n, k, &a, k, &bt, k, &mut whole, false);
        let mut halves = vec![0.0; m * n];
        gemm_nt(h, n, k, &a[..h * k], k, &bt, k, &mut halves[..h * n], false);
        gemm_nt(h, n, k, &a[h * k..], k, &bt, k, &mut halves[h * n..], false);
        assert_eq!(whole, halves);

        // `tn` reads A as `[k, m]`: row halves are column halves of `at`.
        let at = transpose(&a, m, k);
        let half_at = |lo: usize| -> Vec<f32> {
            (0..k).flat_map(|p| at[p * m + lo..p * m + lo + h].to_vec()).collect()
        };
        let mut whole = vec![0.0; m * n];
        gemm_tn(m, n, k, &at, &b, &mut whole, false);
        let mut halves = vec![0.0; m * n];
        gemm_tn(h, n, k, &half_at(0), &b, &mut halves[..h * n], false);
        gemm_tn(h, n, k, &half_at(h), &b, &mut halves[h * n..], false);
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
        gemm_nt(m, n, k, &a, k, &bt, k, &mut want, true);
        let mut got = vec![0.1f32; m * n];
        gemm_nt(m, n, k, &abig[off..], lda, &btbig[off..], ldb, &mut got, true);
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
        let entries: [(&str, Entry); 4] = [
            ("nn", |c| gemm_nn(20, 64, 3, &[1.0; 60], &[1.0; 192], c, false)),
            ("nt", |c| gemm_nt(2, 64, 3, &[1.0; 6], 3, &[1.0; 192], 3, c, false)),
            ("nt strided", |c| gemm_nt(2, 64, 3, &[1.0; 8], 5, &[1.0; 320], 5, c, false)),
            ("tn", |c| gemm_tn(2, 64, 3, &[1.0; 6], &[1.0; 192], c, false)),
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
            gemm_nt(2, 64, 3, &[1.0; 6], 3, &[1.0; 191], 3, &mut c, false);
        });
        assert!(caught.is_err(), "nt: a short strided `bt` must panic");
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
