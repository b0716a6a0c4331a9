//! Bench: the GEMM kernels at the product shapes the workloads run on
//! more than 16 rows, against the seed's naive ikj loop where the layout
//! is the plain `nn` product.
//!
//! Shapes (layout m×n×k, traced in DESIGN.md §6.1): the SURF query block
//! of Tables 3 and 9 (`nt` 19×721×64), `taor-serve`'s dense head over the
//! 82-view gallery (`nn` 82×8×8), and the paper-recipe network's conv
//! forward (`nn` 20×9600×75, 25×1248×500) and input-gradient (`tn`
//! 500×1248×25, 2025×156×25) products, each run once per micro-batch.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use taor_nn::gemm::{gemm_nn, gemm_nt, gemm_tn};
use taor_testkit::oracle::matmul_naive;

fn fill(len: usize, seed: u32) -> Vec<f32> {
    let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            (state >> 8) as f32 / (1u32 << 23) as f32 - 1.0
        })
        .collect()
}

fn bench_gemm(c: &mut Criterion) {
    for &(m, n, k) in &[(82usize, 8usize, 8usize), (20, 9600, 75), (25, 1248, 500)] {
        let a = fill(m * k, 1);
        let b = fill(k * n, 2);
        let mut out = vec![0.0f32; m * n];
        let mut g = c.benchmark_group(format!("gemm_nn_{m}x{n}x{k}"));
        g.bench_function("gemm", |bch| {
            bch.iter(|| gemm_nn(m, n, k, black_box(&a), black_box(&b), &mut out, false))
        });
        g.bench_function("naive", |bch| {
            bch.iter(|| matmul_naive(m, n, k, black_box(&a), black_box(&b), &mut out))
        });
        g.finish();
    }

    let (m, n, k) = (19usize, 721usize, 64usize);
    let a = fill(m * k, 3);
    let bt = fill(n * k, 4);
    let mut out = vec![0.0f32; m * n];
    c.bench_function("gemm_nt_19x721x64", |bch| {
        bch.iter(|| gemm_nt(m, n, k, black_box(&a), k, black_box(&bt), k, &mut out, false))
    });

    for &(m, n, k) in &[(500usize, 1248usize, 25usize), (2025, 156, 25)] {
        let at = fill(k * m, 5);
        let b = fill(k * n, 6);
        let mut out = vec![0.0f32; m * n];
        c.bench_function(&format!("gemm_tn_{m}x{n}x{k}"), |bch| {
            bch.iter(|| gemm_tn(m, n, k, black_box(&at), black_box(&b), &mut out, false))
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_gemm
}
criterion_main!(benches);
