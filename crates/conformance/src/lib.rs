//! # tlpgnn-conformance — cross-engine differential conformance harness
//!
//! Every convolution implementation in this workspace — the design-space
//! kernel variants, the fused TLPGNN engine in each configuration, the
//! CPU native engine, and all baseline systems — must compute the same
//! function. This crate enforces that with three mechanisms:
//!
//! 1. **Differential checking** against the scalar reference
//!    (`tlpgnn::oracle`) under a ULP-bounded float comparison (`ulp`).
//! 2. **Metamorphic invariants** that need no oracle (`metamorphic`):
//!    vertex-permutation equivariance, bitwise determinism under repeats
//!    and (for atomic-free backends) under SM-count changes, exact
//!    linearity in the features, and the gpu-sim accounting conservation
//!    laws.
//! 3. **A regression corpus** ([`corpus`]): failing cases are shrunk
//!    ([`shrink`]) to minimal form, serialized as JSON, and replayed on
//!    every `cargo test` run.
//!
//! The seeded fuzzer (`fuzz`) ties them together; the
//! `conformance_fuzz` binary in `tlpgnn-bench` drives it from CI.
//!
//! ## Public API
//!
//! The public API is the `pub use` re-exports and `pub mod`s below, one
//! path per item; everything else is `pub(crate)`. A `pub` type inside a
//! private module is reached only through the signatures of those items.

#![warn(missing_docs)]

pub(crate) mod backends;
pub(crate) mod case;
pub mod corpus;
pub(crate) mod fuzz;
pub(crate) mod metamorphic;
pub mod shrink;
pub(crate) mod ulp;

pub use backends::Backend;
pub use case::{ModelSpec, TestCase};
pub use fuzz::fuzz_with;
pub use metamorphic::check_case;
pub use shrink::shrink as shrink_case;
pub use ulp::Tolerance;
