//! # tlpgnn-serve — online GNN inference serving on the TLPGNN engine
//!
//! The rest of the workspace runs *offline* full-graph sweeps; this crate
//! adds the missing request path: a node-classification service that
//! answers "what are the model's outputs at these vertices, now?" under
//! latency/throughput load. Online GNN inference is dominated by
//! host-side per-request work — subgraph and metadata assembly — so the
//! serving layer is built around amortizing exactly that:
//!
//! * **Requests** name target vertices (and optionally an extraction
//!   depth); responses carry one output row per target plus a latency
//!   breakdown (`request`).
//! * A **dynamic micro-batcher** coalesces concurrent requests: a batch
//!   flushes when it reaches `max_batch` requests *or* its oldest request
//!   has waited `max_wait`, whichever comes first (`batcher`).
//! * Each batch runs one **k-hop ego-graph extraction**
//!   (`tlpgnn_graph::subgraph`) over the union of its miss targets, then
//!   a single engine forward pass on the ego graph — one upload +
//!   kernel-launch sequence for the whole batch instead of one per
//!   request (`pipeline`).
//! * An **LRU feature cache** keyed by
//!   `(vertex, layer, hops, version, shard, epoch)` lets hot
//!   vertices skip extraction and recomputation entirely. Rows do not
//!   age: the key pins the epoch and mutations evict what they reach,
//!   so a hit is always exact (`cache`).
//! * **Streaming graph mutations**: [`server::GnnServer::mutate`] applies
//!   atomic batches of edge/vertex insertions and feature updates against
//!   an epoch-versioned delta overlay (`tlpgnn_graph::DeltaGraph`).
//!   In-flight requests pin the snapshot current at submission, mutation
//!   invalidates exactly the cache entries whose receptive field touches
//!   a dirty vertex, and a `Sampled` degradation rung serves seeded
//!   fanout-capped extractions under load ([`request::GraphMutation`]).
//! * **Backpressure** is explicit: the request queue is bounded and
//!   `submit` fails fast with [`ServeError::Overloaded`] past capacity —
//!   the queue never grows without bound (`batcher`, `pipeline`).
//! * **Resilience** against injected device faults (`gpu_sim::FaultPlan`):
//!   per-request deadlines, bounded retry with seeded exponential backoff
//!   (`policy`), worker supervision with exactly-once batch requeueing
//!   (`supervisor`), and a load-shedding degradation ladder —
//!   sampled extraction, then one hop less, then shedding, at fixed
//!   pressure thresholds — whose approximate responses are explicitly
//!   flagged (`request::Degradation`). The supervisor and the ladder
//!   are internal; callers tune supervision through
//!   [`SupervisorConfig`]. The fault-handling contract is written once,
//!   in the `pipeline` module docs.
//! * **Sharded serving** for graphs larger than one device: a
//!   [`sharded::ShardedServer`] partitions the graph across N simulated
//!   devices (`tlpgnn_shard`), routes each request to the shard owning
//!   its seed vertex, and extracts ego graphs through a halo-exchange
//!   path whose results are bitwise equal to the single-device server
//!   (`sharded`).
//!
//! Both servers are thin façades over one request path (`pipeline`):
//! a [`GnnServer`] is one lane of it with N workers over a live, mutable
//! graph, a [`ShardedServer`] is N single-worker lanes over a frozen
//! partitioned one, and they report the same [`ServeStats`].
//!
//! Everything is instrumented through `telemetry` under the server's
//! metrics prefix (default `serve`): `<prefix>.queue_depth` gauge,
//! `<prefix>.{batch_size, extraction_ms, compute_ms, e2e_latency_ms}`
//! histograms, and `<prefix>.{completed, rejected}` plus cache hit/miss
//! counters; `tests/metric_names.rs` pins the names dashboards read.
//! Wall-clock load (Zipfian targets from `workload`) is driven by the
//! standalone `benchmark/` package's `serve_*` workloads.
//!
//! ## Quick start
//!
//! ```
//! use tlpgnn::{GnnModel, GnnNetwork};
//! use tlpgnn_graph::generators;
//! use tlpgnn_serve::{GnnServer, Request, ServeConfig};
//! use tlpgnn_tensor::Matrix;
//!
//! let g = generators::rmat_default(500, 3000, 1);
//! let x = Matrix::random(500, 8, 1.0, 2);
//! let net = GnnNetwork::two_layer(|_| GnnModel::Gcn, 8, 8, 4, 3);
//! let server = GnnServer::start(ServeConfig::default(), g, x, net);
//! let handle = server.submit(Request::new(vec![7, 42])).unwrap();
//! let response = handle.wait().unwrap();
//! assert_eq!(response.outputs.shape(), (2, 4));
//! ```
//!
//! ## Public API
//!
//! The public API is the `pub use` re-exports below, one path per item;
//! everything else is `pub(crate)`. A `pub` type inside a private module
//! is reached only through the signatures of those items.

#![warn(missing_docs)]

pub(crate) mod batcher;
pub(crate) mod cache;
pub(crate) mod pipeline;
pub(crate) mod policy;
pub(crate) mod request;
pub(crate) mod server;
pub(crate) mod sharded;
pub(crate) mod supervisor;
pub(crate) mod workload;

pub use batcher::{BatchQueue, PushError};
pub use cache::{CacheKey, FeatureCache};
pub use pipeline::{ResponseHandle, ServeStats};
pub use policy::RetryPolicy;
pub use request::{GraphMutation, Request, Response, ServeError};
pub use server::{GnnServer, ServeConfig};
pub use sharded::{ShardedConfig, ShardedServer};
pub use supervisor::SupervisorConfig;
pub use workload::ZipfSampler;
