//! Per-layer wall-time breakdown of one batched training step at the
//! medium-mode shapes — the measurement tool behind the Table-4
//! batching work. Run with:
//!
//! ```text
//! cargo run --release -p taor-nn --example profile_train
//! ```

use std::time::Instant;
use taor_nn::layers::softmax_cross_entropy_rows;
use taor_nn::{NetConfig, NormXCorrNet, Tensor};

fn time<T>(label: &str, iters: usize, mut f: impl FnMut() -> T) -> f64 {
    // Warm-up.
    let _ = f();
    let started = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    let per = started.elapsed().as_secs_f64() / iters as f64;
    println!("{label:32} {:9.1} us/call", per * 1e6);
    per
}

fn main() {
    let cfg = NetConfig {
        height: 32,
        width: 24,
        c1: 8,
        c2: 10,
        c3: 10,
        dense: 32,
        ..NetConfig::default()
    };
    let net = NormXCorrNet::new(cfg).unwrap();
    let b = 4usize;
    let len = 3 * 32 * 24;
    let images: Vec<(Tensor, Tensor)> = (0..b)
        .map(|i| {
            let a: Vec<f32> = (0..len).map(|v| ((v + i * 97) as f32 * 0.013).sin() * 0.5).collect();
            let mut bb = a.clone();
            bb.rotate_left(29);
            (
                Tensor::from_vec(&[1, 3, 32, 24], a).unwrap(),
                Tensor::from_vec(&[1, 3, 32, 24], bb).unwrap(),
            )
        })
        .collect();
    let a: Vec<&Tensor> = images.iter().map(|(a, _)| a).collect();
    let bb: Vec<&Tensor> = images.iter().map(|(_, b)| b).collect();
    let a = Tensor::stack_batch(&a).unwrap();
    let bt = Tensor::stack_batch(&bb).unwrap();
    let labels: Vec<usize> = (0..b).map(|i| i % 2).collect();
    let seeds: Vec<u64> = (0..b as u64).collect();

    let iters = 200;
    let fwd =
        time("forward_batch (B=4)", iters, || net.forward_batch(&a, &bt, Some(&seeds)).unwrap());
    let (logits, cache) = net.forward_batch(&a, &bt, Some(&seeds)).unwrap();
    let (_, grad) = softmax_cross_entropy_rows(&logits, &labels).unwrap();
    let bwd = time("backward_batch (B=4)", iters, || {
        let mut g = net.zero_grads();
        net.backward_batch(&cache, &grad, &mut g).unwrap();
        g
    });
    let zg = time("zero_grads alone", iters, || net.zero_grads());
    println!(
        "step total {:.1} us => {:.0} pairs/s single-thread",
        (fwd + bwd) * 1e6,
        b as f64 / (fwd + bwd)
    );
    println!("zero_grads share of backward: {:.1}%", 100.0 * zg / bwd);

    // Per-layer slices at the same shapes (tower runs interleaved 2B).
    let item = 3 * 32 * 24;
    let mut inter = vec![0.0f32; 2 * b * item];
    for i in 0..b {
        inter[2 * i * item..(2 * i + 1) * item]
            .copy_from_slice(&a.data()[i * item..(i + 1) * item]);
        inter[(2 * i + 1) * item..(2 * i + 2) * item]
            .copy_from_slice(&bt.data()[i * item..(i + 1) * item]);
    }
    let t0 = Tensor::from_vec(&[2 * b, 3, 32, 24], inter).unwrap();
    let (y1, c1) = net.conv1.forward(&t0).unwrap();
    time("conv1.forward [8,3,32,24]", iters, || net.conv1.forward(&t0).unwrap());
    let g1 = Tensor::full(y1.shape(), 0.01);
    time("conv1.backward_params_grouped", iters, || {
        let mut g = net.conv1.zero_grads();
        net.conv1.backward_params_grouped(&c1, &g1, &mut g, 2).unwrap();
        g
    });
    // The tower's order: conv → ReLU → pool.
    let relu = taor_nn::layers::Relu;
    let (r1, rc1) = relu.forward(&y1);
    time("relu after conv1, forward", iters, || relu.forward(&y1));
    time("relu after conv1, backward", iters, || relu.backward(&rc1, &g1));
    let (p1, _) = taor_nn::MaxPool2D::new(2, 2).forward(&r1).unwrap();
    let (y2, c2) = net.conv2.forward(&p1).unwrap();
    time("conv2.forward", iters, || net.conv2.forward(&p1).unwrap());
    let g2 = Tensor::full(y2.shape(), 0.01);
    time("conv2.backward_grouped", iters, || {
        let mut g = net.conv2.zero_grads();
        net.conv2.backward_grouped(&c2, &g2, &mut g, 2).unwrap()
    });
    let (r2, _) = relu.forward(&y2);
    let (f, _) = taor_nn::MaxPool2D::new(2, 2).forward(&r2).unwrap();
    // Split even/odd.
    let s = f.shape();
    let item = s[1] * s[2] * s[3];
    let mut fa = Vec::new();
    let mut fb = Vec::new();
    for i in 0..b {
        fa.extend_from_slice(&f.data()[2 * i * item..(2 * i + 1) * item]);
        fb.extend_from_slice(&f.data()[(2 * i + 1) * item..(2 * i + 2) * item]);
    }
    let fa = Tensor::from_vec(&[b, s[1], s[2], s[3]], fa).unwrap();
    let fb = Tensor::from_vec(&[b, s[1], s[2], s[3]], fb).unwrap();
    let xc = taor_nn::NormXCorr::new(3, 1).unwrap();
    let (xo, xcache) = xc.forward(&fa, &fb).unwrap();
    time("xcorr.forward", iters, || xc.forward(&fa, &fb).unwrap());
    let gx = Tensor::full(xo.shape(), 0.01);
    time("xcorr.backward", iters, || xc.backward(&xcache, &gx).unwrap());
    let (y3, c3) = net.conv3.forward(&xo).unwrap();
    time("conv3.forward", iters, || net.conv3.forward(&xo).unwrap());
    let g3 = Tensor::full(y3.shape(), 0.01);
    time("conv3.backward_grouped", iters, || {
        let mut g = net.conv3.zero_grads();
        net.conv3.backward_grouped(&c3, &g3, &mut g, 1).unwrap()
    });
    let (y4, c4) = net.conv4.forward(&y3).unwrap();
    time("conv4.forward", iters, || net.conv4.forward(&y3).unwrap());
    let g4 = Tensor::full(y4.shape(), 0.01);
    time("conv4.backward_grouped", iters, || {
        let mut g = net.conv4.zero_grads();
        net.conv4.backward_grouped(&c4, &g4, &mut g, 1).unwrap()
    });

    // Raw GEMM shapes behind conv1 at 2B = 8 interleaved items.
    use taor_nn::gemm::{gemm_nn, gemm_nt};
    let a1 = vec![0.3f32; 8 * 75];
    let b1 = vec![0.2f32; 75 * 4480];
    let mut c1buf = vec![0.0f32; 8 * 4480];
    time("gemm_nn 8x4480x75 (fwd)", iters, || gemm_nn(8, 4480, 75, &a1, &b1, &mut c1buf, false));
    let a2 = vec![0.3f32; 8 * 560];
    let b2 = vec![0.2f32; 75 * 560];
    let mut c2buf = vec![0.0f32; 8 * 75];
    time("gemm_nt 8x75x560 (dW item)", iters, || {
        gemm_nt(8, 75, 560, &a2, 560, &b2, 560, &mut c2buf, true)
    });
}
