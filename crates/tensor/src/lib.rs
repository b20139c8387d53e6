//! # tlpgnn-tensor — dense tensor substrate
//!
//! Feature matrices and the regular (non-graph) neural-network operations
//! of a GNN layer: matmul, activations, softmax, dropout, and a dense
//! linear layer. Everything is deterministic in its seed and independent
//! of the thread count: the ops a forward pass spends its time in are
//! row-chunked over the persistent worker pool in [`pool`] (which the
//! native graph-convolution engine shares) once an input is large enough
//! to pay for the hand-off, and run on the calling thread below that.
//!
//! ```
//! use tlpgnn_tensor::{activations, Linear, Matrix};
//!
//! let x = Matrix::random(16, 32, 1.0, 7);
//! let layer = Linear::new(32, 8, true, 1);
//! let mut h = layer.forward(&x);
//! activations::relu(&mut h);
//! assert_eq!(h.shape(), (16, 8));
//! ```
//!
//! ## Public API
//!
//! The public API is the `pub use` re-exports and `pub mod`s below, one
//! path per item; everything else is `pub(crate)`. A `pub` type inside a
//! private module is reached only through the signatures of those items.

#![warn(missing_docs)]

pub mod activations;
pub(crate) mod linear;
pub(crate) mod matrix;
pub mod ops;
pub mod pool;

pub use linear::Linear;
pub use matrix::Matrix;
