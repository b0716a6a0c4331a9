//! Bit-exactness pin for the prepared-gallery head.
//!
//! [`NormXCorrNet::predict_similar_gallery`] must be a pure performance
//! transformation of the pairwise head: for every query and gallery its
//! probabilities equal [`NormXCorrNet::predict_similar_features`] on the
//! query stacked once per view, bit for bit — across NCC geometries,
//! gallery sizes, flat (zero-norm) patches and NaN/∞ features. NaN
//! positions are pinned, payloads are not (IEEE 754 leaves NaN
//! propagation unspecified, as in the xcorr tests).

use proptest::prelude::*;
use taor_nn::{NetConfig, NormXCorrNet, Tensor};

/// The `taor-serve` network shape (tower features `[4, 5, 3]`) with the
/// NCC geometry under test.
fn serve_cfg(patch: usize, radius: usize) -> NetConfig {
    NetConfig {
        height: 32,
        width: 24,
        c1: 4,
        c2: 4,
        c3: 4,
        dense: 8,
        patch,
        radius,
        ..NetConfig::default()
    }
}

const FEATURE: [usize; 3] = [4, 5, 3];

/// Deterministic features in `[-2, 2)` from `seed`.
fn features(seed: u64, items: usize) -> Vec<f32> {
    let mut state = seed | 1;
    (0..items * FEATURE.iter().product::<usize>())
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 40) as f32 / (1u64 << 24) as f32 * 4.0 - 2.0
        })
        .collect()
}

/// Query `[1, C, H, W]` and gallery `[views, C, H, W]`. `flat` makes
/// whole planes constant (every patch norm below the flat threshold);
/// `poison` plants NaN and ±∞ values.
fn inputs(seed: u64, views: usize, flat: u8, poison: u8) -> (Tensor, Tensor) {
    let plane = FEATURE[1] * FEATURE[2];
    let item = FEATURE[0] * plane;
    let mut q = features(seed, 1);
    let mut g = features(seed ^ 0x9E37_79B9, views);
    match flat {
        1 => q[..plane].fill(0.75),
        2 => g.chunks_mut(item).for_each(|v| v[plane..2 * plane].fill(-1.25)),
        3 => q.fill(0.0),
        _ => {}
    }
    match poison {
        1 => q[plane + 4] = f32::NAN,
        2 => g[item - 1] = f32::INFINITY,
        3 => {
            q[2] = f32::NEG_INFINITY;
            g[(views - 1) * item + 7] = f32::NAN;
        }
        _ => {}
    }
    let shape = |n| [n, FEATURE[0], FEATURE[1], FEATURE[2]];
    (Tensor::from_vec(&shape(1), q).unwrap(), Tensor::from_vec(&shape(views), g).unwrap())
}

fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        if a.is_nan() && b.is_nan() {
            continue;
        }
        assert_eq!(a.to_bits(), b.to_bits(), "{what}[{i}]: {a} vs {b}");
    }
}

/// The pairwise reference: the query repeated once per gallery row.
fn pairwise(net: &NormXCorrNet, query: &Tensor, gallery: &Tensor) -> Vec<f32> {
    let rows = gallery.shape()[0];
    let repeated = Tensor::stack_batch(&vec![query; rows]).unwrap();
    net.predict_similar_features(&repeated, gallery).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn prepared_gallery_matches_the_pairwise_head(
        seed in any::<u64>(),
        flat in 0u8..4,
        poison in 0u8..4,
    ) {
        for (patch, radius) in [(3usize, 1usize), (5, 2), (3, 0)] {
            let net = NormXCorrNet::new(serve_cfg(patch, radius)).unwrap();
            for views in [1usize, 7, 82] {
                let what = format!("patch {patch} radius {radius} views {views}");
                let (query, gallery) = inputs(seed, views, flat, poison);
                let prepared = net.prepare_gallery(&gallery).unwrap();
                assert_eq!(prepared.views(), views);
                let got = net.predict_similar_gallery(&query, &prepared).unwrap();
                assert_bits_eq(&got, &pairwise(&net, &query, &gallery), &what);
            }
        }
    }
}

#[test]
fn a_gallery_from_another_geometry_is_rejected() {
    let net = NormXCorrNet::new(serve_cfg(3, 1)).unwrap();
    let other = NormXCorrNet::new(serve_cfg(3, 0)).unwrap();
    let (query, gallery) = inputs(7, 3, 0, 0);
    let prepared = other.prepare_gallery(&gallery).unwrap();
    assert!(net.predict_similar_gallery(&query, &prepared).is_err());
    let wrong_query = Tensor::zeros(&[2, 4, 5, 3]);
    assert!(net
        .predict_similar_gallery(&wrong_query, &net.prepare_gallery(&gallery).unwrap())
        .is_err());
}
