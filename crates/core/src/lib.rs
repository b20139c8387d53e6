//! # tlpgnn — A Lightweight Two-Level Parallelism Paradigm for GNN Computation
//!
//! Reproduction of Fu, Ji & Huang, *TLPGNN* (HPDC 2022). The paper's
//! contribution is a GPU graph-convolution design built from four ideas:
//!
//! 1. **Vertex parallelism** (first level): one warp per vertex — no
//!    atomics, no branch divergence ([`kernels::fused`]).
//! 2. **Feature parallelism** (second level): warp lanes cover consecutive
//!    feature dimensions — perfectly coalesced loads.
//! 3. **Hybrid dynamic workload balancing**: hardware block scheduling vs
//!    a software task pool, chosen by a |V|/degree heuristic
//!    ([`schedule`]).
//! 4. **Kernel fusion + register caching**: the whole convolution is one
//!    kernel and hot state lives in registers ([`kernels::fused`],
//!    [`kernels::gat`]).
//!
//! Kernels run on the [`gpu_sim`] software SIMT simulator (see that
//! crate's docs for the substitution rationale); the [`native`] module
//! additionally maps the pull design onto host threads, timed by the
//! `native_conv` workload of `benchmark/`. The paper's future work is
//! here as [`hetero`] (multi-relation graphs) and [`tune`] (the
//! assignment's tunables); its multi-GPU item is the sharded serving
//! tier (`tlpgnn_shard`, `tlpgnn_serve::ShardedServer`).
//!
//! ## Quick start
//!
//! ```
//! use tlpgnn::{GnnModel, TlpgnnEngine};
//! use tlpgnn_graph::generators;
//! use tlpgnn_tensor::Matrix;
//!
//! let graph = generators::rmat_default(500, 4000, 7);
//! let feats = Matrix::random(500, 32, 1.0, 8);
//! let mut engine = TlpgnnEngine::v100();
//! let (out, profile) = engine.conv(&GnnModel::Gcn, &graph, &feats);
//! assert_eq!(out.shape(), (500, 32));
//! assert_eq!(profile.kernel_launches, 1); // fused: a single kernel
//! ```

#![warn(missing_docs)]
// Index-based loops here typically walk several parallel arrays (CSR
// offsets, norms, degrees) at once; iterator rewrites obscure that.
#![allow(clippy::needless_range_loop)]

pub mod engine;
pub mod gpu;
pub mod hetero;
pub mod kernels;
pub mod model;
pub mod native;
pub mod oracle;
pub mod schedule;
pub mod tune;

pub use engine::{EngineOptions, TlpgnnEngine};
pub use gpu::{GatScoresOnDevice, GraphOnDevice};
pub use kernels::variants::KernelVariant;
pub use kernels::{Aggregator, WorkSource};
pub use model::{Combine, GatParams, GnnLayer, GnnModel, GnnNetwork};
pub use native::{NativeEngine, NativeSchedule};
pub use schedule::{Assignment, BoundLaunch, HybridHeuristic};
