//! The request/response model of the serving layer.

use std::fmt;
use std::time::Duration;

use tlpgnn_tensor::Matrix;

/// One inference request: compute the network's outputs at `targets`.
#[derive(Debug, Clone)]
pub struct Request {
    /// Target vertex ids (original graph ids). Duplicates are allowed;
    /// the response carries one row per entry, in order.
    pub(crate) targets: Vec<u32>,
    /// Optional ego-graph extraction depth override. `None` uses the
    /// server's exact receptive field (`GnnNetwork::receptive_hops`);
    /// a smaller value trades accuracy for latency: vertices at the
    /// requested depth contribute their features but aggregate nothing
    /// (their rows are empty), so every layer past the first sees a
    /// truncated field. A larger value only costs extraction time.
    /// Batches use the maximum requested depth.
    pub(crate) hops: Option<usize>,
    /// Optional end-to-end deadline, measured from submission. A request
    /// still queued (or awaiting a retry) past its deadline is shed with
    /// [`ServeError::DeadlineExceeded`] instead of burning compute on an
    /// answer nobody is waiting for.
    pub(crate) deadline: Option<Duration>,
}

impl Request {
    /// A request for `targets` at the server's exact receptive depth.
    pub fn new(targets: Vec<u32>) -> Self {
        Self {
            targets,
            hops: None,
            deadline: None,
        }
    }

    /// A request with an explicit extraction depth.
    pub fn with_hops(targets: Vec<u32>, hops: usize) -> Self {
        Self {
            targets,
            hops: Some(hops),
            deadline: None,
        }
    }

    /// Attach an end-to-end deadline (from submission).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// One streaming graph mutation, applied through
/// `GnnServer::mutate`. A mutation batch validates and applies
/// atomically: either every entry is applied (one new epoch per accepted
/// entry, duplicates skipped) or none is.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphMutation {
    /// Insert edge `src -> dst` (both ids must already exist; inserting
    /// an edge the graph already has is a no-op that burns no epoch).
    InsertEdge {
        /// Source vertex id.
        src: u32,
        /// Destination vertex id.
        dst: u32,
    },
    /// Append a new vertex with the given feature row (width must match
    /// the server's embedding dimension). Ids are dense: the new vertex
    /// gets the current `num_vertices()`.
    InsertVertex {
        /// The new vertex's feature row.
        features: Vec<f32>,
    },
    /// Overwrite an existing vertex's feature row.
    SetFeatures {
        /// Vertex whose features change.
        vertex: u32,
        /// Replacement feature row (embedding-dim wide).
        features: Vec<f32>,
    },
}

/// Which degraded-service measures shaped a response. Each flag names a
/// change to the computation itself (a shallower, sampled or incomplete
/// receptive field), so a response with any flag set is *approximate* —
/// correct under the degradation contract, but not bitwise what full
/// service would have returned. A cache hit is never one of them: a
/// cached row is exact for its key, and mutations evict every row they
/// reach.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Degradation {
    /// At least one target row was computed with a truncated receptive
    /// field (extraction depth reduced under load).
    pub(crate) reduced_hops: bool,
    /// At least one target row was computed from a seeded fanout-capped
    /// neighbor-sampled extraction (the `Sampled` degradation rung).
    pub(crate) sampled: bool,
    /// The sharded tier's shard-aware rung: the request's receptive
    /// field needed rows owned by a dead shard that no live standby
    /// mirror covers. The missing neighbors were dropped and their
    /// feature rows gathered as zeros — `Sampled`-style partial service
    /// instead of a hard error. Partial rows are never cached.
    pub partial: bool,
}

impl Degradation {
    /// Whether any degradation measure applied.
    pub fn any(&self) -> bool {
        self.reduced_hops || self.sampled || self.partial
    }
}

/// A served response: one output row per request target, plus where the
/// time went.
#[derive(Debug, Clone)]
pub struct Response {
    /// `targets.len() × classes` output rows, in request-target order.
    pub outputs: Matrix,
    /// Latency breakdown of the batch that served this request.
    pub timing: RequestTiming,
    /// Degraded-service flags; `Degradation::default()` (no flags) means
    /// full-fidelity service.
    pub degraded: Degradation,
    /// The graph epoch this request was pinned to at submission: its
    /// rows are exact (or flagged-degraded) for the graph as of this
    /// epoch. Always 0 on a server whose graph was never mutated (the
    /// epoch layer is invisible for frozen graphs).
    pub epoch: u64,
}

/// Where a request's latency went. Extraction/compute are per *batch*
/// (shared by every request the batch served); queue time is per
/// request.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RequestTiming {
    /// Time spent queued before a worker picked the batch up, ms.
    pub queue_ms: f64,
    /// Ego-graph extraction time of the serving batch, ms (0 when every
    /// target was a cache hit).
    pub extract_ms: f64,
    /// Engine forward-pass time of the serving batch, ms (0 on full
    /// cache hit).
    pub compute_ms: f64,
    /// How many requests the serving batch coalesced.
    pub batch_size: usize,
    /// How many of *this request's* targets were served from the cache.
    pub cache_hits: usize,
}

/// Why a request was not served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded request queue is full — admission control rejected the
    /// request instead of letting the queue grow without bound. Retry
    /// with backoff.
    Overloaded,
    /// The server is shutting down and accepts no new work.
    ShuttingDown,
    /// A target vertex id is outside the graph.
    InvalidTarget(u32),
    /// The request named no targets.
    EmptyRequest,
    /// The worker serving this request died before responding.
    WorkerLost,
    /// The request's deadline passed before it could be served; it was
    /// shed without computing.
    DeadlineExceeded,
    /// Device faults exhausted the retry budget for this request's batch.
    DeviceFault,
    /// A graph mutation carried a feature row whose width differs from
    /// the server's embedding dimension; the whole batch was rejected
    /// (mutation batches apply atomically or not at all).
    FeatureDimMismatch,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "request queue full (overloaded)"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::InvalidTarget(v) => write!(f, "target vertex {v} out of range"),
            ServeError::EmptyRequest => write!(f, "request has no targets"),
            ServeError::WorkerLost => write!(f, "serving worker terminated unexpectedly"),
            ServeError::DeadlineExceeded => {
                write!(f, "deadline passed before the request was served")
            }
            ServeError::DeviceFault => write!(f, "device faults exhausted the retry budget"),
            ServeError::FeatureDimMismatch => {
                write!(
                    f,
                    "mutation feature row width differs from the embedding dim"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_hops() {
        assert_eq!(Request::new(vec![1]).hops, None);
        assert_eq!(Request::with_hops(vec![1], 2).hops, Some(2));
    }

    #[test]
    fn deadline_builder_and_degradation_flags() {
        let r = Request::new(vec![1]).with_deadline(Duration::from_millis(5));
        assert_eq!(r.deadline, Some(Duration::from_millis(5)));
        assert_eq!(Request::new(vec![1]).deadline, None);
        assert!(!Degradation::default().any());
        assert!(Degradation {
            reduced_hops: true,
            ..Degradation::default()
        }
        .any());
    }

    #[test]
    fn errors_display() {
        assert!(ServeError::Overloaded.to_string().contains("queue full"));
        assert!(ServeError::InvalidTarget(9).to_string().contains('9'));
    }
}
