// taor-lint: allow(panic::index) — dense numeric kernel: indices are derived from dimensions validated at the public boundary and bounded by the enclosing loops.
//! A minimal dense `f32` tensor.
//!
//! Row-major, owned storage, arbitrary rank. This is the only numeric
//! container the network code uses; convolution layers flatten it through
//! im2col, so no stride tricks or views are needed.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors produced by tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Shapes were incompatible for the requested operation.
    ShapeMismatch { expected: Vec<usize>, got: Vec<usize> },
    /// The flat data length does not match the product of the shape.
    LengthMismatch { shape: Vec<usize>, len: usize },
    /// A convolution kernel does not fit inside the padded input.
    KernelTooLarge { kernel: usize, padded_h: usize, padded_w: usize },
    /// A network input resolution is too small for the architecture to
    /// produce a non-empty feature map (e.g. the Normalized-X-Corr tower
    /// shrinks twice by conv 5x5 + pool 2 before the final pool).
    InputTooSmall { width: usize, height: usize },
    /// A training entry point was handed zero samples.
    EmptyTrainingSet,
    /// A training configuration requested a batch size of zero.
    InvalidBatchSize { batch_size: usize },
    /// A Normalized-X-Corr patch side that is even or zero.
    InvalidPatch { patch: usize },
    /// A training label that names no class of the classifier.
    InvalidLabel { label: usize, classes: usize },
    /// A network config or serialised model that describes no network
    /// this crate builds: unparsable JSON, a dropout rate outside
    /// `[0, 1)`, a layer whose geometry differs from what the config
    /// builds, or sizes that overflow.
    InvalidModel { reason: String },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { expected, got } => {
                write!(f, "shape mismatch: expected {expected:?}, got {got:?}")
            }
            TensorError::LengthMismatch { shape, len } => {
                write!(f, "data length {len} does not match shape {shape:?}")
            }
            TensorError::KernelTooLarge { kernel, padded_h, padded_w } => {
                write!(f, "kernel {kernel}x{kernel} exceeds padded input {padded_h}x{padded_w}")
            }
            TensorError::InputTooSmall { width, height } => {
                write!(f, "input {width}x{height} too small for the architecture")
            }
            // The next two messages are load-bearing: `repro` prints them
            // verbatim (`error: table 4 failed: …`, E2's degraded row).
            TensorError::EmptyTrainingSet => write!(f, "training set is empty"),
            TensorError::InvalidBatchSize { batch_size } => {
                write!(f, "batch size must be >= 1 (got {batch_size})")
            }
            TensorError::InvalidPatch { patch } => {
                write!(f, "NCC patch side must be odd and >= 1 (got {patch})")
            }
            TensorError::InvalidLabel { label, classes } => {
                write!(f, "label {label} out of range for {classes} classes")
            }
            TensorError::InvalidModel { reason } => write!(f, "invalid model: {reason}"),
        }
    }
}

impl std::error::Error for TensorError {}

/// Dense row-major `f32` tensor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// All-zeros tensor of the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor { shape: shape.to_vec(), data: vec![0.0; shape.iter().product()] }
    }

    /// Tensor filled with a constant.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Tensor { shape: shape.to_vec(), data: vec![value; shape.iter().product()] }
    }

    /// Wrap a flat buffer.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Result<Self, TensorError> {
        let expected: usize = shape.iter().product();
        if data.len() != expected {
            return Err(TensorError::LengthMismatch { shape: shape.to_vec(), len: data.len() });
        }
        Ok(Tensor { shape: shape.to_vec(), data })
    }

    /// Check that the data length equals the shape's product (without
    /// overflowing). The constructors guarantee it; a deserialised tensor
    /// is only trusted after this check.
    pub(crate) fn check_len(&self) -> Result<(), TensorError> {
        let expected = self.shape.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d));
        if expected == Some(self.data.len()) {
            Ok(())
        } else {
            Err(TensorError::LengthMismatch { shape: self.shape.clone(), len: self.data.len() })
        }
    }

    /// Tensor shape.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat immutable data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reinterpret with a new shape of equal length.
    pub fn reshape(&self, shape: &[usize]) -> Result<Tensor, TensorError> {
        let expected: usize = shape.iter().product();
        if expected != self.data.len() {
            return Err(TensorError::LengthMismatch {
                shape: shape.to_vec(),
                len: self.data.len(),
            });
        }
        Ok(Tensor { shape: shape.to_vec(), data: self.data.clone() })
    }

    /// 4-D index (NCHW convention). Debug-checked.
    #[cfg(test)]
    pub(crate) fn at4(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 4);
        let [_, cs, hs, ws] = [self.shape[0], self.shape[1], self.shape[2], self.shape[3]];
        self.data[((n * cs + c) * hs + h) * ws + w]
    }

    /// Mutable 4-D access.
    #[cfg(test)]
    pub(crate) fn at4_mut(&mut self, n: usize, c: usize, h: usize, w: usize) -> &mut f32 {
        debug_assert_eq!(self.shape.len(), 4);
        let [_, cs, hs, ws] = [self.shape[0], self.shape[1], self.shape[2], self.shape[3]];
        &mut self.data[((n * cs + c) * hs + h) * ws + w]
    }

    /// 2-D index (row, col).
    #[inline]
    pub fn at2(&self, r: usize, c: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 2);
        self.data[r * self.shape[1] + c]
    }

    /// Elementwise in-place addition. Shapes must match.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<(), TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                expected: self.shape.clone(),
                got: other.shape.clone(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
        Ok(())
    }

    /// Multiply every element by `k` in place.
    pub fn scale(&mut self, k: f32) {
        for v in &mut self.data {
            *v *= k;
        }
    }

    /// Matrix product of two rank-2 tensors: `[m,k] × [k,n] → [m,n]`.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        if self.shape.len() != 2 || other.shape.len() != 2 || self.shape[1] != other.shape[0] {
            return Err(TensorError::ShapeMismatch {
                expected: self.shape.clone(),
                got: other.shape.clone(),
            });
        }
        let (m, k) = (self.shape[0], self.shape[1]);
        let n = other.shape[1];
        let mut out = Tensor::zeros(&[m, n]);
        crate::gemm::gemm_nn(m, n, k, &self.data, &other.data, &mut out.data, false);
        Ok(out)
    }

    /// Stack same-shaped tensors along a fresh leading batch axis:
    /// `B × [1, …] → [B, …]` (any leading dimension is replaced by the
    /// item count; every other dimension must match the first item).
    ///
    /// This is the batched-inference entry point: callers assemble a
    /// micro-batch of independent items, run it through the batch
    /// kernels once, and split the result back with
    /// [`Tensor::split_batch`]. Per-item values are bit-identical to
    /// running each item alone — the layers fold per item, independent
    /// of the batch grouping.
    pub fn stack_batch(items: &[&Tensor]) -> Result<Tensor, TensorError> {
        let Some(first) = items.first() else {
            return Err(TensorError::EmptyTrainingSet);
        };
        let per_item: usize = first.shape().iter().skip(1).product();
        let mut data = Vec::with_capacity(items.len() * per_item);
        for t in items {
            if t.shape().len() != first.shape().len() || t.shape()[1..] != first.shape()[1..] {
                return Err(TensorError::ShapeMismatch {
                    expected: first.shape().to_vec(),
                    got: t.shape().to_vec(),
                });
            }
            // Items may themselves carry a leading batch axis; flatten it.
            data.extend_from_slice(t.data());
        }
        let mut shape = first.shape().to_vec();
        shape[0] = data.len() / per_item.max(1);
        Tensor::from_vec(&shape, data)
    }

    /// Undo [`Tensor::stack_batch`]: split `[B, …]` into `B` tensors of
    /// leading dimension 1.
    pub fn split_batch(&self) -> Result<Vec<Tensor>, TensorError> {
        if self.shape.is_empty() {
            return Err(TensorError::ShapeMismatch { expected: vec![0], got: vec![] });
        }
        let n = self.shape[0];
        let plane = self.len().checked_div(n).unwrap_or(0);
        let mut shape = self.shape.clone();
        shape[0] = 1;
        (0..n)
            .map(|i| Tensor::from_vec(&shape, self.data[i * plane..(i + 1) * plane].to_vec()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.shape(), &[2, 3, 4]);
        assert_eq!(t.len(), 24);
        assert!(t.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_vec_validates() {
        assert!(Tensor::from_vec(&[2, 2], vec![1.0; 4]).is_ok());
        assert!(Tensor::from_vec(&[2, 2], vec![1.0; 5]).is_err());
    }

    #[test]
    fn reshape_roundtrip() {
        let t = Tensor::from_vec(&[2, 6], (0..12).map(|v| v as f32).collect()).unwrap();
        let r = t.reshape(&[3, 4]).unwrap();
        assert_eq!(r.shape(), &[3, 4]);
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(&[5, 5]).is_err());
    }

    #[test]
    fn indexing_4d_row_major() {
        let mut t = Tensor::zeros(&[2, 3, 4, 5]);
        *t.at4_mut(1, 2, 3, 4) = 9.0;
        assert_eq!(t.at4(1, 2, 3, 4), 9.0);
        assert_eq!(t.data()[t.len() - 1], 9.0);
    }

    #[test]
    fn matmul_known_product() {
        let a = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Tensor::from_vec(&[3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn transpose_and_matmul_identity() {
        let a = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let at = Tensor::from_vec(&[3, 2], vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]).unwrap();
        let aat = a.matmul(&at).unwrap();
        // (A Aᵀ) is symmetric.
        assert_eq!(aat.at2(0, 1), aat.at2(1, 0));
    }

    #[test]
    fn add_assign_and_scale() {
        let mut a = Tensor::full(&[4], 1.0);
        let b = Tensor::full(&[4], 2.0);
        a.add_assign(&b).unwrap();
        assert!(a.data().iter().all(|&v| v == 3.0));
        a.scale(0.5);
        assert!(a.data().iter().all(|&v| v == 1.5));
        let c = Tensor::zeros(&[5]);
        assert!(a.add_assign(&c).is_err());
    }

    #[test]
    fn stack_and_split_batch_roundtrip() {
        let a = Tensor::from_vec(&[1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Tensor::from_vec(&[1, 2, 2], vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let batch = Tensor::stack_batch(&[&a, &b]).unwrap();
        assert_eq!(batch.shape(), &[2, 2, 2]);
        let parts = batch.split_batch().unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn stack_batch_flattens_nested_batches_and_validates() {
        let a = Tensor::zeros(&[2, 3]); // already a 2-item batch
        let b = Tensor::zeros(&[1, 3]);
        let batch = Tensor::stack_batch(&[&a, &b]).unwrap();
        assert_eq!(batch.shape(), &[3, 3]);
        // Trailing-dimension mismatch is a typed error.
        let c = Tensor::zeros(&[1, 4]);
        assert!(matches!(Tensor::stack_batch(&[&a, &c]), Err(TensorError::ShapeMismatch { .. })));
        // Empty input is a typed error, not a panic.
        assert!(Tensor::stack_batch(&[]).is_err());
    }

    #[test]
    fn serde_roundtrip() {
        let t = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let json = serde_json::to_string(&t).unwrap();
        let back: Tensor = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }
}
