//! Bench: the Normalized-X-Corr layer — forward, backward, and the full
//! network pass, across displacement radii (the layer's cost knob), then
//! pinned at the lane shapes the training, evaluation and paper-recipe
//! workloads run.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use taor_nn::{NetConfig, NormXCorr, NormXCorrNet, Tensor};

fn bench_xcorr(c: &mut Criterion) {
    let a = Tensor::from_vec(&[1, 8, 10, 10], (0..800).map(|i| (i as f32 * 0.37).sin()).collect())
        .unwrap();
    let b = Tensor::from_vec(&[1, 8, 10, 10], (0..800).map(|i| (i as f32 * 0.73).cos()).collect())
        .unwrap();

    let mut g = c.benchmark_group("normxcorr_forward_8c_10x10");
    for radius in [0usize, 1, 2] {
        let layer = NormXCorr::new(3, radius).expect("odd patch");
        g.bench_function(format!("r{radius}"), |bch| {
            bch.iter(|| layer.forward(black_box(&a), black_box(&b)).unwrap())
        });
    }
    g.finish();

    let layer = NormXCorr::new(3, 1).expect("odd patch");
    let (y, cache) = layer.forward(&a, &b).unwrap();
    let grad = Tensor::full(y.shape(), 1.0);
    c.bench_function("normxcorr_backward_r1", |bch| {
        bch.iter(|| layer.backward(black_box(&cache), black_box(&grad)).unwrap())
    });

    // Full network pass at the repro harness's quick resolution.
    let cfg = NetConfig {
        height: 32,
        width: 24,
        c1: 8,
        c2: 10,
        c3: 10,
        dense: 32,
        ..NetConfig::default()
    };
    let net = NormXCorrNet::new(cfg.clone()).expect("bench config is large enough");
    let x = Tensor::full(&[1, 3, cfg.height, cfg.width], 0.1);
    c.bench_function("net_forward_32x24", |bch| {
        bch.iter(|| net.forward(black_box(&x), black_box(&x)).unwrap())
    });

    // Perf pins at the lane shapes the workloads run, forward and then
    // backward from the forward's cache with a dense gradient (no
    // `g == 0` skips): medium training's micro-batch (B = 4, 10 channels,
    // 5×3 planes, 40 lanes; unsuffixed), evaluation's batch of 16 (160
    // lanes) and the paper recipe's micro-batch (25 channels, 13×3
    // planes, 100 lanes).
    let pin = NormXCorr::new(3, 1).expect("odd patch");
    for (shape, suffix) in
        [([4usize, 10, 5, 3], ""), ([16, 10, 5, 3], "_16x10x5x3"), ([4, 25, 13, 3], "_4x25x13x3")]
    {
        let len = shape.iter().product::<usize>();
        let fa =
            Tensor::from_vec(&shape, (0..len).map(|i| (i as f32 * 0.11).sin()).collect()).unwrap();
        let fb =
            Tensor::from_vec(&shape, (0..len).map(|i| (i as f32 * 0.29).cos()).collect()).unwrap();
        c.bench_function(&format!("pin_xcorr_forward{suffix}"), |bch| {
            bch.iter(|| pin.forward(black_box(&fa), black_box(&fb)).unwrap())
        });
        let (y, pin_cache) = pin.forward(&fa, &fb).unwrap();
        let pin_grad =
            Tensor::from_vec(y.shape(), (0..y.len()).map(|i| (i as f32 * 0.07).cos()).collect())
                .unwrap();
        c.bench_function(&format!("pin_xcorr_backward{suffix}"), |bch| {
            bch.iter(|| pin.backward(black_box(&pin_cache), black_box(&pin_grad)).unwrap())
        });
    }

    // One query against an 82-view gallery at the taor-serve network
    // shape (tower features [4, 5, 3]): the pairwise head on the query
    // stacked once per view, and the prepared-gallery sweep that
    // replaces it on the request path.
    let serve = NetConfig { height: 32, width: 24, c1: 4, c2: 4, c3: 4, dense: 8, ..cfg };
    let net = NormXCorrNet::new(serve).expect("serve config is large enough");
    let (views, item) = (82usize, 4 * 5 * 3);
    let gallery = Tensor::from_vec(
        &[views, 4, 5, 3],
        (0..views * item).map(|i| (i as f32 * 0.13).sin()).collect(),
    )
    .unwrap();
    let query =
        Tensor::from_vec(&[1, 4, 5, 3], (0..item).map(|i| (i as f32 * 0.41).cos()).collect())
            .unwrap();
    c.bench_function("pairwise_head_82", |bch| {
        bch.iter(|| {
            let rows = Tensor::stack_batch(&vec![black_box(&query); views]).unwrap();
            net.predict_similar_features(&rows, black_box(&gallery)).unwrap()
        })
    });
    let prepared = net.prepare_gallery(&gallery).unwrap();
    c.bench_function("pin_gallery_head_82", |bch| {
        bch.iter(|| net.predict_similar_gallery(black_box(&query), black_box(&prepared)).unwrap())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_xcorr
}
criterion_main!(benches);
