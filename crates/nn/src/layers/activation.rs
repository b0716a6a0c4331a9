//! Activation functions.

use crate::tensor::Tensor;

/// Rectified linear unit.
#[derive(Debug, Clone, Copy, Default)]
pub struct Relu;

/// Cache: the sign mask of the input.
pub struct ReluCache {
    mask: Vec<bool>,
}

impl Relu {
    /// Forward: `max(0, x)` elementwise; NaN, `−0` and `+0` give `+0`.
    ///
    /// Both loops are selects, not branches: a branch on the sign of a
    /// feature map goes whichever way the data goes.
    pub fn forward(&self, x: &Tensor) -> (Tensor, ReluCache) {
        let mut out = x.clone();
        let mut mask = vec![false; x.len()];
        for (v, m) in out.data_mut().iter_mut().zip(&mut mask) {
            *m = *v > 0.0;
            *v = if *m { *v } else { 0.0 };
        }
        (out, ReluCache { mask })
    }

    /// Backward: pass gradient where the input was positive, `+0` elsewhere.
    pub fn backward(&self, cache: &ReluCache, grad_out: &Tensor) -> Tensor {
        let mut grad_in = grad_out.clone();
        for (g, &m) in grad_in.data_mut().iter_mut().zip(&cache.mask) {
            *g = if m { *g } else { 0.0 };
        }
        grad_in
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clips_negatives() {
        let x = Tensor::from_vec(&[4], vec![-1.0, 0.0, 2.0, -3.0]).unwrap();
        let (y, _) = Relu.forward(&x);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn gradient_masked() {
        let x = Tensor::from_vec(&[4], vec![-1.0, 0.5, 2.0, -3.0]).unwrap();
        let (_, cache) = Relu.forward(&x);
        let g = Relu.backward(&cache, &Tensor::full(&[4], 1.0));
        assert_eq!(g.data(), &[0.0, 1.0, 1.0, 0.0]);
    }

    /// The branchy loops the selects replaced, kept as the oracle.
    fn branchy(x: &[f32], g: &[f32]) -> (Vec<f32>, Vec<bool>, Vec<f32>) {
        let mut out = x.to_vec();
        let mut mask = vec![false; x.len()];
        for (v, m) in out.iter_mut().zip(&mut mask) {
            if *v > 0.0 {
                *m = true;
            } else {
                *v = 0.0;
            }
        }
        let mut grad = g.to_vec();
        for (v, &m) in grad.iter_mut().zip(&mask) {
            if !m {
                *v = 0.0;
            }
        }
        (out, mask, grad)
    }

    #[test]
    fn selects_match_the_branchy_loops_bitwise() {
        let special = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::MIN_POSITIVE / 4.0,
            -f32::MIN_POSITIVE / 4.0,
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            1.5,
            -2.25,
        ];
        // Every special value as input against every one as gradient,
        // plus a tail that is not a multiple of any vector width.
        let mut x = Vec::new();
        let mut g = Vec::new();
        for &u in &special {
            for &v in &special {
                x.push(u);
                g.push(v);
            }
        }
        x.extend([3.0, -1.0, 0.5]);
        g.extend([-0.0, f32::NAN, 7.0]);
        let (want_out, want_mask, want_grad) = branchy(&x, &g);
        let xt = Tensor::from_vec(&[x.len()], x).unwrap();
        let gt = Tensor::from_vec(&[g.len()], g).unwrap();
        let (out, cache) = Relu.forward(&xt);
        assert_eq!(cache.mask, want_mask);
        let grad = Relu.backward(&cache, &gt);
        for (i, (u, v)) in out.data().iter().zip(&want_out).enumerate() {
            assert_eq!(u.to_bits(), v.to_bits(), "output {i}");
        }
        for (i, (u, v)) in grad.data().iter().zip(&want_grad).enumerate() {
            assert_eq!(u.to_bits(), v.to_bits(), "gradient {i}");
        }
    }

    #[test]
    fn zero_input_blocks_gradient() {
        let x = Tensor::from_vec(&[1], vec![0.0]).unwrap();
        let (_, cache) = Relu.forward(&x);
        let g = Relu.backward(&cache, &Tensor::full(&[1], 5.0));
        assert_eq!(g.data(), &[0.0]);
    }
}
