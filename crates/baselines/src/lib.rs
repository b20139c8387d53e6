//! # tlpgnn-baselines — the compared GNN computation systems
//!
//! Simulated-GPU implementations of every system TLPGNN is evaluated
//! against in the paper:
//!
//! * [`push`] — push updating policy (atomic write per edge);
//! * `edge_centric` — X-Stream-style edge parallelism (atomic per edge);
//! * `advisor` — GNNAdvisor-like neighbor grouping with preprocessing
//!   and atomic combines;
//! * `dgl` — DGL-like multi-kernel pipelines over a cuSPARSE-style SpMM
//!   (6/8/10/18 launches for GCN/GIN/Sage/GAT);
//! * `featgraph` — FeatGraph-like TVM kernels with a rigid
//!   block-per-vertex mapping (1 kernel; 3 for GAT);
//! * [`multikernel`] — the hand-written three-kernel GAT of Table 3.
//!
//! Every system is checked against the serial oracle in `tlpgnn::oracle`;
//! they differ only in *how* they compute, which is exactly what the
//! profiles compare. The [`system::GnnSystem`] trait gives the experiment
//! harness a uniform interface.
//!
//! ## Public API
//!
//! The public API is the `pub use` re-exports and `pub mod`s below, one
//! path per item; everything else is `pub(crate)`. A `pub` type inside a
//! private module is reached only through the signatures of those items.

#![warn(missing_docs)]
// Index-based loops here typically walk several parallel arrays (CSR
// offsets, norms, degrees) at once; iterator rewrites obscure that.
#![allow(clippy::needless_range_loop)]

pub(crate) mod advisor;
pub mod common;
pub(crate) mod dgl;
pub(crate) mod edge_centric;
pub(crate) mod featgraph;
pub mod multikernel;
pub(crate) mod prims;
pub mod push;
pub(crate) mod system;

pub use advisor::AdvisorSystem;
pub use dgl::DglSystem;
pub use edge_centric::EdgeCentricSystem;
pub use featgraph::FeatGraphSystem;
pub use multikernel::ThreeKernelGatSystem;
pub use push::PushSystem;
pub use system::{all_systems, GnnSystem, TlpgnnSystem};
