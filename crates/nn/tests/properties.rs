//! Property-based tests for the neural-network substrate.

use proptest::prelude::*;
use taor_nn::gemm::{gemm_nn, gemm_nt, gemm_tn};
use taor_nn::layers::{flatten, softmax_probs, Conv2D, Dense, MaxPool2D, Relu};
use taor_nn::{Adam, NormXCorr, Tensor};
use taor_testkit::oracle::matmul_naive;

/// Random GEMM problem: shapes crossing the kernels' 2-row, 8-row and
/// 8-/32-column loop boundaries plus matching operand data.
fn arb_gemm() -> impl Strategy<Value = (usize, usize, usize, Vec<f32>, Vec<f32>)> {
    (1usize..80, 1usize..60, 1usize..80).prop_flat_map(|(m, n, k)| {
        (
            proptest::strategy::Just(m),
            proptest::strategy::Just(n),
            proptest::strategy::Just(k),
            proptest::collection::vec(-1.0f32..1.0, m * k),
            proptest::collection::vec(-1.0f32..1.0, k * n),
        )
    })
}

fn transpose(rows: usize, cols: usize, x: &[f32]) -> Vec<f32> {
    let mut t = vec![0.0f32; x.len()];
    for i in 0..rows {
        for j in 0..cols {
            t[j * rows + i] = x[i * cols + j];
        }
    }
    t
}

fn arb_tensor(shape: &'static [usize]) -> impl Strategy<Value = Tensor> {
    let len: usize = shape.iter().product();
    proptest::collection::vec(-2.0f32..2.0, len)
        .prop_map(move |data| Tensor::from_vec(shape, data).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn softmax_rows_are_distributions(t in arb_tensor(&[4, 6])) {
        let p = softmax_probs(&t).unwrap();
        for i in 0..4 {
            let row = &p.data()[i * 6..(i + 1) * 6];
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-5);
            prop_assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn relu_idempotent(t in arb_tensor(&[24])) {
        let (y1, _) = Relu.forward(&t);
        let (y2, _) = Relu.forward(&y1);
        prop_assert_eq!(y1, y2);
    }

    #[test]
    fn maxpool_output_bounded_by_input(t in arb_tensor(&[1, 2, 6, 6])) {
        let pool = MaxPool2D::new(2, 2);
        let (y, _) = pool.forward(&t).unwrap();
        let max_in = t.data().iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let max_out = y.data().iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        prop_assert!(max_out <= max_in + 1e-6);
        // Every pooled value exists in the input.
        for &v in y.data() {
            prop_assert!(t.data().contains(&v));
        }
    }

    #[test]
    fn conv_linearity_in_input(a in arb_tensor(&[1, 1, 6, 6]), b in arb_tensor(&[1, 1, 6, 6])) {
        // conv(a + b) == conv(a) + conv(b) - conv(0) accounting for bias.
        let conv = Conv2D::new(1, 2, 3, 1, 7);
        let mut sum = a.clone();
        sum.add_assign(&b).unwrap();
        let (ya, _) = conv.forward(&a).unwrap();
        let (yb, _) = conv.forward(&b).unwrap();
        let (ysum, _) = conv.forward(&sum).unwrap();
        let (y0, _) = conv.forward(&Tensor::zeros(&[1, 1, 6, 6])).unwrap();
        for i in 0..ysum.len() {
            let lhs = ysum.data()[i];
            let rhs = ya.data()[i] + yb.data()[i] - y0.data()[i];
            prop_assert!((lhs - rhs).abs() < 1e-3, "i={}: {} vs {}", i, lhs, rhs);
        }
    }

    #[test]
    fn dense_batch_consistency(x in arb_tensor(&[3, 4])) {
        // Processing rows individually equals processing them as a batch.
        let d = Dense::new(4, 2, 3);
        let (batch, _) = d.forward(&x).unwrap();
        for i in 0..3 {
            let row = Tensor::from_vec(&[1, 4], x.data()[i * 4..(i + 1) * 4].to_vec()).unwrap();
            let (single, _) = d.forward(&row).unwrap();
            for j in 0..2 {
                prop_assert!((single.at2(0, j) - batch.at2(i, j)).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn flatten_preserves_values(t in arb_tensor(&[2, 3, 2, 2])) {
        let f = flatten(&t).unwrap();
        prop_assert_eq!(f.data(), t.data());
        prop_assert_eq!(f.shape(), &[2, 12]);
    }

    #[test]
    fn xcorr_bounded_and_symmetric_at_zero_offset(
        a in arb_tensor(&[1, 1, 5, 5]),
        b in arb_tensor(&[1, 1, 5, 5]),
    ) {
        let layer = NormXCorr::new(3, 0).unwrap();
        let (yab, _) = layer.forward(&a, &b).unwrap();
        let (yba, _) = layer.forward(&b, &a).unwrap();
        for (u, v) in yab.data().iter().zip(yba.data()) {
            prop_assert!(u.abs() <= 1.0 + 1e-3);
            prop_assert!((u - v).abs() < 1e-4, "zero-offset NCC must be symmetric");
        }
    }

    #[test]
    fn adam_step_moves_against_gradient(g in proptest::collection::vec(-1.0f32..1.0, 8)) {
        let mut x = Tensor::zeros(&[8]);
        let grad = Tensor::from_vec(&[8], g.clone()).unwrap();
        let mut adam = Adam::new(0.01, 0.0);
        adam.step(&mut [&mut x], &[&grad]);
        for (xv, gv) in x.data().iter().zip(&g) {
            if gv.abs() > 1e-6 {
                prop_assert!(xv.signum() == -gv.signum(), "x {} vs g {}", xv, gv);
            }
        }
    }

    #[test]
    fn matmul_associates_with_scalars(t in arb_tensor(&[3, 3]), k in 0.1f32..3.0) {
        let mut kt = t.clone();
        kt.scale(k);
        let i3 = Tensor::from_vec(
            &[3, 3],
            vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
        ).unwrap();
        let prod = kt.matmul(&i3).unwrap();
        for (a, b) in prod.data().iter().zip(t.data()) {
            prop_assert!((a - b * k).abs() < 1e-4);
        }
    }

    #[test]
    fn blocked_gemm_matches_naive_on_random_shapes((m, n, k, a, b) in arb_gemm()) {
        // The GEMM kernels (AVX2+FMA loops when available) must agree
        // with the seed's ikj reference loop; the tolerance scales with k
        // because summation order differs.
        let tol = 1e-4 * k as f32;
        let mut reference = vec![0.0f32; m * n];
        matmul_naive(m, n, k, &a, &b, &mut reference);

        let mut c = vec![0.0f32; m * n];
        gemm_nn(m, n, k, &a, &b, &mut c, false);
        for (i, (x, y)) in c.iter().zip(&reference).enumerate() {
            prop_assert!((x - y).abs() <= tol, "nn ({m},{n},{k}) at {}: {} vs {}", i, x, y);
        }

        // The transposed-operand entry points must match the same
        // reference when fed explicit transposes.
        let bt = transpose(k, n, &b);
        c.fill(0.0);
        gemm_nt(m, n, k, &a, k, &bt, k, &mut c, false);
        for (i, (x, y)) in c.iter().zip(&reference).enumerate() {
            prop_assert!((x - y).abs() <= tol, "nt ({m},{n},{k}) at {}: {} vs {}", i, x, y);
        }

        let at = transpose(m, k, &a);
        c.fill(0.0);
        gemm_tn(m, n, k, &at, &b, &mut c, false);
        for (i, (x, y)) in c.iter().zip(&reference).enumerate() {
            prop_assert!((x - y).abs() <= tol, "tn ({m},{n},{k}) at {}: {} vs {}", i, x, y);
        }
    }

    #[test]
    fn conv_backward_matches_finite_differences(x in arb_tensor(&[2, 2, 5, 5])) {
        // With L = ½‖conv(x)‖², dL/dy = y, so backward(y) must return
        // dL/dx and fill dL/dW — both checkable by central differences.
        // Pins that the scratch-arena + batched-GEMM backward still
        // computes the same gradients as the definition.
        let conv = Conv2D::new(2, 3, 3, 1, 11);
        let loss = |c: &Conv2D, x: &Tensor| -> f32 {
            let (y, _) = c.forward(x).unwrap();
            0.5 * y.data().iter().map(|v| v * v).sum::<f32>()
        };
        let (y, cache) = conv.forward(&x).unwrap();
        let mut grads = conv.zero_grads();
        let dx = conv.backward(&cache, &y, &mut grads).unwrap();

        let eps = 1e-2f32;
        let close = |fd: f32, an: f32| (fd - an).abs() < 1e-2 * (1.0 + fd.abs().max(an.abs()));
        for idx in [0, 7, x.len() / 2, x.len() - 1] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let fd = (loss(&conv, &xp) - loss(&conv, &xm)) / (2.0 * eps);
            prop_assert!(close(fd, dx.data()[idx]), "dx[{}]: fd {} vs {}", idx, fd, dx.data()[idx]);
        }
        let wlen = conv.weight.len();
        for idx in [0, wlen / 3, wlen - 1] {
            let mut cp = conv.clone();
            cp.weight.data_mut()[idx] += eps;
            let mut cm = conv.clone();
            cm.weight.data_mut()[idx] -= eps;
            let fd = (loss(&cp, &x) - loss(&cm, &x)) / (2.0 * eps);
            let an = grads.weight.data()[idx];
            prop_assert!(close(fd, an), "dW[{}]: fd {} vs {}", idx, fd, an);
        }
    }
}
