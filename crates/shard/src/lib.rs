//! Graph sharding for multi-device serving.
//!
//! The serve tier's original design holds the whole graph and feature
//! matrix on every worker, so the largest servable graph is the largest
//! one device holds. This crate removes that ceiling by partitioning the
//! graph across N simulated devices:
//!
//! * [`ShardPlan`] wraps the graph crate's `edge_balanced_partition`
//!   into a vertex→shard directory plus a replication set of hot
//!   (high-degree) vertices mirrored on every shard — the vertices most
//!   likely to sit on many ego-graph frontiers.
//! * [`ShardStore`] is one device's slice of the graph: the adjacency
//!   rows and feature rows of its owned vertex range, plus replica
//!   copies of the hot set. [`ShardStore::bytes`] is the footprint a
//!   device memory budget is checked against.
//! * [`distributed_ego`] extracts a k-hop ego graph while reading rows
//!   only through the stores, batching cross-shard "halo" fetches per
//!   BFS level and per remote shard, and accounting every fetch in
//!   [`HaloStats`]. It is the graph crate's one extraction
//!   (`ego_graph_on`) over a store-backed view, so its output is bitwise
//!   identical to `ego_graph` on the unpartitioned graph.
//! * **Standby replicas** (`ShardPlan::build_with_standby`): each
//!   shard's owned range is mirrored in full on one buddy shard, priced
//!   against the device budget. [`distributed_ego_with_health`] then
//!   serves a dead shard's rows from the buddy's mirror (bitwise
//!   copies, so covered extractions stay bitwise exact) and reports
//!   anything unreachable via [`HaloStats::missing`] for the serve tier
//!   to flag as partial service.
//!
//! The serve tier (`tlpgnn-serve::sharded`) builds a router on top:
//! requests route to the shard owning their seed vertex, and each
//! shard's worker extracts through this crate.
//!
//! ## Public API
//!
//! The public API is the `pub use` re-exports below, one path per item;
//! everything else is `pub(crate)`. A `pub` type inside a private module
//! is reached only through the signatures of those items.

#![warn(missing_docs)]

pub(crate) mod extract;
pub(crate) mod plan;
pub(crate) mod store;

pub use extract::{distributed_ego, distributed_ego_with_health, HaloStats};
pub use plan::ShardPlan;
pub use store::{graph_bytes, ShardStore};
