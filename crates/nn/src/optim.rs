//! Adam optimiser with learning-rate decay.
//!
//! The paper: "the learning rate was initialised to 0.0001 and its decay
//! set to 1e−7" with the Adam optimiser. Decay follows Keras' legacy
//! convention: `lr_t = lr / (1 + decay · iterations)`.

use crate::tensor::Tensor;

/// Adam optimiser state.
#[derive(Debug, Clone)]
pub struct Adam {
    pub lr: f32,
    pub decay: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    /// L2 weight-decay coefficient added to every gradient
    /// (`g += wd · w`); 0 disables it. An overfitting countermeasure the
    /// paper's conclusion motivates.
    pub weight_decay: f32,
    /// Completed steps.
    t: u64,
    /// First/second moment buffers, keyed by parameter position.
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Adam with the paper's hyperparameters for the given base `lr` and
    /// `decay` (β₁ = 0.9, β₂ = 0.999, ε = 1e-7 — the Keras defaults).
    pub fn new(lr: f32, decay: f32) -> Self {
        Adam {
            lr,
            decay,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-7,
            weight_decay: 0.0,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Builder-style L2 weight decay.
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Effective learning rate for the *next* step.
    pub fn current_lr(&self) -> f32 {
        self.lr / (1.0 + self.decay * self.t as f32)
    }

    /// Apply one update. `params` and `grads` must be position-aligned and
    /// keep the same shapes across calls (moments are keyed by position).
    ///
    /// # Panics
    /// Panics on length or shape mismatch — that is a programming error in
    /// the training loop, not a recoverable condition.
    pub fn step(&mut self, params: &mut [&mut Tensor], grads: &[&Tensor]) {
        assert_eq!(params.len(), grads.len(), "params/grads must align");
        if self.m.is_empty() {
            self.m = params.iter().map(|p| Tensor::zeros(p.shape())).collect();
            self.v = params.iter().map(|p| Tensor::zeros(p.shape())).collect();
        }
        assert_eq!(self.m.len(), params.len(), "parameter count changed between steps");
        let lr_t = self.current_lr();
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for ((p, g), (m, v)) in
            params.iter_mut().zip(grads).zip(self.m.iter_mut().zip(self.v.iter_mut()))
        {
            assert_eq!(p.shape(), g.shape(), "param/grad shape mismatch");
            for ((pv, &gv), (mv, vv)) in p
                .data_mut()
                .iter_mut()
                .zip(g.data())
                .zip(m.data_mut().iter_mut().zip(v.data_mut().iter_mut()))
            {
                let gv = gv + self.weight_decay * *pv;
                *mv = self.beta1 * *mv + (1.0 - self.beta1) * gv;
                *vv = self.beta2 * *vv + (1.0 - self.beta2) * gv * gv;
                let mhat = *mv / b1t;
                let vhat = *vv / b2t;
                *pv -= lr_t * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimises_quadratic() {
        // f(x) = (x - 3)², gradient 2(x - 3).
        let mut x = Tensor::from_vec(&[1], vec![0.0]).unwrap();
        let mut adam = Adam::new(0.1, 0.0);
        for _ in 0..500 {
            let g = Tensor::from_vec(&[1], vec![2.0 * (x.data()[0] - 3.0)]).unwrap();
            adam.step(&mut [&mut x], &[&g]);
        }
        assert!((x.data()[0] - 3.0).abs() < 0.05, "x = {}", x.data()[0]);
    }

    #[test]
    fn decay_reduces_learning_rate() {
        let mut adam = Adam::new(0.001, 0.1);
        assert_eq!(adam.current_lr(), 0.001);
        let mut x = Tensor::zeros(&[1]);
        let g = Tensor::full(&[1], 1.0);
        for _ in 0..10 {
            adam.step(&mut [&mut x], &[&g]);
        }
        assert!((adam.current_lr() - 0.001 / 2.0).abs() < 1e-9);
        assert_eq!(adam.t, 10);
    }

    #[test]
    fn handles_multiple_parameter_groups() {
        let mut a = Tensor::from_vec(&[2], vec![1.0, -1.0]).unwrap();
        let mut b = Tensor::from_vec(&[1], vec![5.0]).unwrap();
        let mut adam = Adam::new(0.05, 0.0);
        for _ in 0..300 {
            let ga = Tensor::from_vec(&[2], a.data().to_vec()).unwrap(); // min at 0
            let gb = Tensor::from_vec(&[1], b.data().to_vec()).unwrap();
            adam.step(&mut [&mut a, &mut b], &[&ga, &gb]);
        }
        assert!(a.data().iter().all(|v| v.abs() < 0.1));
        assert!(b.data()[0].abs() < 0.1);
    }

    #[test]
    fn weight_decay_pulls_towards_zero() {
        // Zero task gradient: with decay the weight shrinks, without it
        // the weight is untouched.
        let mut with = Tensor::from_vec(&[1], vec![4.0]).unwrap();
        let mut without = with.clone();
        let g = Tensor::zeros(&[1]);
        let mut adam_wd = Adam::new(0.05, 0.0).with_weight_decay(0.1);
        let mut adam = Adam::new(0.05, 0.0);
        for _ in 0..200 {
            adam_wd.step(&mut [&mut with], &[&g]);
            adam.step(&mut [&mut without], &[&g]);
        }
        assert!(with.data()[0].abs() < 1.0, "decayed to {}", with.data()[0]);
        assert_eq!(without.data()[0], 4.0);
    }

    #[test]
    #[should_panic(expected = "params/grads must align")]
    fn misaligned_inputs_panic() {
        let mut x = Tensor::zeros(&[1]);
        let mut adam = Adam::new(0.1, 0.0);
        adam.step(&mut [&mut x], &[]);
    }
}
