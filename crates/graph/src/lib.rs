//! # tlpgnn-graph — graph substrate for the TLPGNN reproduction
//!
//! CSR graph storage in the exact layout the paper's kernels consume,
//! deterministic synthetic generators, the Table 4 dataset registry, and
//! the preprocessing utilities (reordering, neighbor grouping, vertex
//! partitioning, k-hop ego-graph extraction for online serving) the
//! compared systems and the serving layer rely on.
//!
//! ```
//! use tlpgnn_graph::{datasets, GraphStats};
//!
//! let cora = datasets::by_abbr("CR").unwrap();
//! let g = cora.load();
//! let stats = GraphStats::of(&g);
//! assert!(stats.vertices > 2_000);
//! assert!((stats.avg_degree - cora.avg_degree()).abs() < 1.0);
//! ```
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

pub(crate) mod builder;
pub mod components;
pub(crate) mod csr;
pub mod datasets;
pub(crate) mod delta;
pub mod generators;
pub mod io;
pub mod partition;
pub mod reorder;
pub(crate) mod stats;
pub mod subgraph;

pub use builder::GraphBuilder;
pub use csr::Csr;
pub use datasets::DatasetSpec;
pub use delta::{DeltaGraph, GraphEpoch};
pub use stats::GraphStats;
