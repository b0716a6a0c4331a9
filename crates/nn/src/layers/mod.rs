//! Network layers.
//!
//! Layers are *functional*: `forward` borrows the layer immutably and
//! returns the output together with an opaque cache; `backward` consumes
//! the cache, the upstream gradient, and a gradient accumulator, returning
//! the gradient w.r.t. the layer input. Keeping activations out of the
//! layer struct is what makes the Siamese weight sharing trivial — the
//! same `Conv2D` can be applied to both input images, each application
//! owning its own cache, with parameter gradients *accumulated* across the
//! two passes.

pub mod activation;
pub mod conv;
pub mod dense;
pub mod dropout;
pub mod flatten;
pub mod pool;
pub mod softmax;

pub use activation::Relu;
pub use conv::Conv2D;
pub use dense::Dense;
pub use dropout::Dropout;
pub use flatten::flatten;
pub use pool::MaxPool2D;
pub use softmax::{softmax_cross_entropy_rows, softmax_probs};
