//! Bit-exactness pins for the batched training/inference paths.
//!
//! The batched trainer must be a pure performance transformation: its
//! logits, per-row losses, and accumulated parameter gradients are
//! pinned bit-for-bit against the per-sample path
//! ([`taor_testkit::oracle::sample_pass`] over `forward_ex` and
//! `backward`), including under dropout
//! and under NaN-quarantine inputs — and [`NetGrads::tree_sum`] is
//! pinned to its fixed reduction shape so the training trajectory
//! cannot depend on the worker-pool width.

use proptest::prelude::*;
use taor_nn::layers::{softmax_cross_entropy_rows, Dense};
use taor_nn::{NetConfig, NetGrads, NormXCorrNet, PairSample, Tensor};
use taor_testkit::oracle::sample_pass;

fn tiny_cfg(dropout: f32) -> NetConfig {
    NetConfig {
        height: 24,
        width: 20,
        c1: 3,
        c2: 4,
        c3: 4,
        dense: 8,
        dropout,
        ..NetConfig::default()
    }
}

/// A pair that owns its tensors; [`Pair::sample`] borrows them as the
/// trainer's samples do.
struct Pair {
    a: Tensor,
    b: Tensor,
    label: usize,
}

impl Pair {
    fn sample(&self) -> PairSample<'_> {
        PairSample { a: &self.a, b: &self.b, label: self.label }
    }
}

fn pair_from(h: usize, w: usize, data_a: Vec<f32>, data_b: Vec<f32>, label: usize) -> Pair {
    Pair {
        a: Tensor::from_vec(&[1, 3, h, w], data_a).unwrap(),
        b: Tensor::from_vec(&[1, 3, h, w], data_b).unwrap(),
        label,
    }
}

fn stack(samples: &[PairSample<'_>]) -> (Tensor, Tensor) {
    let a: Vec<&Tensor> = samples.iter().map(|s| s.a).collect();
    let b: Vec<&Tensor> = samples.iter().map(|s| s.b).collect();
    (Tensor::stack_batch(&a).unwrap(), Tensor::stack_batch(&b).unwrap())
}

/// Bitwise equality that also accepts NaN == NaN (positions pinned,
/// payloads not: IEEE 754 leaves NaN sign/payload propagation
/// unspecified and LLVM may commute operands between separately
/// compiled instances of the same fold).
fn assert_bits_eq(left: &[f32], right: &[f32], what: &str) {
    assert_eq!(left.len(), right.len(), "{what}: length");
    for (i, (a, b)) in left.iter().zip(right).enumerate() {
        if a.is_nan() && b.is_nan() {
            continue;
        }
        assert_eq!(a.to_bits(), b.to_bits(), "{what}[{i}]: {a} vs {b}");
    }
}

fn assert_grads_eq(batched: &NetGrads, oracle: &NetGrads, what: &str) {
    let l = NormXCorrNet::grads_vec(batched);
    let r = NormXCorrNet::grads_vec(oracle);
    assert_eq!(l.len(), r.len());
    for (p, (a, b)) in l.iter().zip(&r).enumerate() {
        assert_bits_eq(a.data(), b.data(), &format!("{what} param {p}"));
    }
}

/// Run the batched pass over `pairs` with the trainer's seed formula
/// and pin logits, losses, correctness, and gradients against the
/// per-sample oracle accumulated in row order.
fn check_batch_against_oracle(net: &NormXCorrNet, pairs: &[Pair], seed: u64) {
    let samples: Vec<PairSample<'_>> = pairs.iter().map(Pair::sample).collect();
    let (a, b) = stack(&samples);
    let seeds: Vec<u64> = (0..samples.len()).map(|i| seed ^ (i as u64)).collect();
    let labels: Vec<usize> = samples.iter().map(|s| s.label).collect();

    let (logits, cache) = net.forward_batch(&a, &b, Some(&seeds)).unwrap();
    let (losses, grad) = softmax_cross_entropy_rows(&logits, &labels).unwrap();
    let mut batched = net.zero_grads();
    net.backward_batch(&cache, &grad, &mut batched).unwrap();

    let mut oracle = net.zero_grads();
    for (i, s) in samples.iter().enumerate() {
        let (loss, _, g) = sample_pass(net, s, seeds[i]).unwrap();
        let (l1, _) = net.forward_ex(s.a, s.b, Some(seeds[i])).unwrap();
        assert_bits_eq(&logits.data()[i * 2..(i + 1) * 2], l1.data(), &format!("row {i} logits"));
        if !(losses[i].is_nan() && loss.is_nan()) {
            assert_eq!(losses[i].to_bits(), loss.to_bits(), "row {i} loss");
        }
        oracle.accumulate(&g).unwrap();
    }
    assert_grads_eq(&batched, &oracle, "batch");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Batched forward/backward == per-sample oracle, no dropout, odd
    /// batch sizes included (the trainer's tail micro-batches).
    #[test]
    fn batched_pass_matches_oracle(
        seed in 0u64..1000,
        n in 1usize..6,
        raw in proptest::collection::vec(-0.5f32..0.5, 6 * 3 * 24 * 20),
    ) {
        let net = NormXCorrNet::new(tiny_cfg(0.0)).unwrap();
        let len = 3 * 24 * 20;
        let pairs: Vec<Pair> = (0..n)
            .map(|i| {
                let a = raw[i * len..(i + 1) * len].to_vec();
                let mut b = a.clone();
                b.rotate_left(7);
                pair_from(24, 20, a, b, i % 2)
            })
            .collect();
        check_batch_against_oracle(&net, &pairs, seed);
    }

    /// Same pin with dropout enabled: per-row seeded masks must make the
    /// batched pass independent of how samples are grouped.
    #[test]
    fn batched_pass_matches_oracle_with_dropout(
        seed in 0u64..1000,
        raw in proptest::collection::vec(-0.5f32..0.5, 4 * 3 * 24 * 20),
    ) {
        let net = NormXCorrNet::new(tiny_cfg(0.4)).unwrap();
        let len = 3 * 24 * 20;
        let pairs: Vec<Pair> = (0..4)
            .map(|i| {
                let a = raw[i * len..(i + 1) * len].to_vec();
                let mut b = a.clone();
                b.reverse();
                pair_from(24, 20, a, b, 1 - i % 2)
            })
            .collect();
        check_batch_against_oracle(&net, &pairs, seed);
    }
}

/// NaN-quarantine inputs: a poisoned pair must not perturb a single bit
/// of the other rows' logits or of the healthy per-sample gradient
/// contributions (NaN positions coincide; payloads are unpinned).
#[test]
fn batched_pass_matches_oracle_on_nan_quarantine_inputs() {
    let net = NormXCorrNet::new(tiny_cfg(0.0)).unwrap();
    let len = 3 * 24 * 20;
    let mut pairs: Vec<Pair> = (0..3)
        .map(|i| {
            let a: Vec<f32> = (0..len).map(|v| ((v + i * 31) as f32 * 0.11).sin()).collect();
            let mut b = a.clone();
            b.rotate_left(13);
            pair_from(24, 20, a, b, i % 2)
        })
        .collect();
    // Poison the middle pair.
    pairs[1].a.data_mut()[17] = f32::NAN;
    pairs[1].b.data_mut()[200] = f32::INFINITY;
    check_batch_against_oracle(&net, &pairs, 99);
}

/// Table 4's own networks at the trainer's micro-batch of four pairs:
/// `--quick` and `--medium`, whose 32×24 inputs reach 5×3 xcorr planes
/// (40 lanes), where the tiny config's reach 3×2; and the paper recipe
/// (`--full`, the default config), whose 64×24 inputs and 20/25/25
/// channels reach 13×3 planes (100 lanes).
#[test]
fn batched_pass_matches_oracle_at_table4_shapes() {
    let medium = NetConfig {
        height: 32,
        width: 24,
        c1: 8,
        c2: 10,
        c3: 10,
        dense: 32,
        ..NetConfig::default()
    };
    for cfg in [medium, NetConfig::default()] {
        let net = NormXCorrNet::new(cfg.clone()).unwrap();
        let len = 3 * cfg.height * cfg.width;
        let pairs: Vec<Pair> = (0..4)
            .map(|i| {
                let a: Vec<f32> =
                    (0..len).map(|v| ((v + i * 97) as f32 * 0.013).sin() * 0.5).collect();
                let mut b = a.clone();
                b.rotate_left(29);
                pair_from(cfg.height, cfg.width, a, b, i % 2)
            })
            .collect();
        check_batch_against_oracle(&net, &pairs, 2019);
    }
}

/// `tree_sum` is a *fixed* pairwise reduction: its result must equal the
/// hand-unrolled `((p0+p1)+(p2+p3))+p4` shape regardless of anything
/// environmental — this is the invariant that keeps training
/// byte-identical at every `TAOR_THREADS` width.
#[test]
fn tree_sum_has_fixed_reduction_shape() {
    let d = Dense::new(3, 2, 7);
    let mk = |scale: f32| {
        let mut g = d.zero_grads();
        for (i, v) in g.weight.data_mut().iter_mut().enumerate() {
            *v = scale * (i as f32 * 0.37 + 0.123);
        }
        for (i, v) in g.bias.data_mut().iter_mut().enumerate() {
            *v = scale * (i as f32 * 1.93 - 0.5);
        }
        g
    };
    // NetGrads is built from layer grads; use a real net for a full store.
    let net = NormXCorrNet::new(tiny_cfg(0.0)).unwrap();
    let parts: Vec<NetGrads> = (0..5)
        .map(|i| {
            let mut g = net.zero_grads();
            let _ = &mk(1.0); // keep Dense-based scaffolding exercised
            for t in
                [&mut g.conv1.weight, &mut g.conv2.weight, &mut g.dense1.weight, &mut g.dense2.bias]
            {
                for (j, v) in t.data_mut().iter_mut().enumerate() {
                    *v = ((i * 131 + j) as f32 * 0.017).sin();
                }
            }
            g
        })
        .collect();

    let tree = NetGrads::tree_sum(parts.clone()).unwrap().unwrap();

    let mut p01 = parts[0].clone();
    p01.accumulate(&parts[1]).unwrap();
    let mut p23 = parts[2].clone();
    p23.accumulate(&parts[3]).unwrap();
    p01.accumulate(&p23).unwrap();
    p01.accumulate(&parts[4]).unwrap();

    assert_grads_eq(&tree, &p01, "tree");
    assert!(NetGrads::tree_sum(Vec::new()).unwrap().is_none());
}
