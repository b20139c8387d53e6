//! The single-device server: one lane of the serving pipeline over a
//! live, mutable graph.
//!
//! A [`GnnServer`] owns the graph, the feature matrix, and the trained
//! network. Clients call [`submit`](GnnServer::submit) from any thread;
//! each worker thread owns one `TlpgnnEngine` (one simulated device per
//! worker) and drains the shared queue. A batch is served with at most
//! one ego-graph extraction and one engine forward pass, no matter how
//! many requests it coalesced; per-vertex outputs are LRU cached so hot
//! vertices skip both.
//!
//! The request path itself — admission, batching, caching, retries,
//! salvage, the degradation ladder — is the shared [`crate::pipeline`],
//! whose module docs hold the fault-handling contract. This module adds
//! what only a single device can do: the graph lives behind one lock, so
//! it can change. Submissions pin an epoch snapshot, [`mutate`] and
//! [`compact_graph`] write, and every worker-side ladder rung
//! (stale-cache, sampled, reduced-hops) is available.
//!
//! [`mutate`]: GnnServer::mutate
//! [`compact_graph`]: GnnServer::compact_graph

use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

use gpu_sim::DeviceConfig;
use telemetry::{SloReport, SloSpec, TraceContext};
use tlpgnn::GnnNetwork;
use tlpgnn_graph::{Csr, DeltaGraph, GraphEpoch};
use tlpgnn_tensor::Matrix;

use crate::pipeline::{count, Core, ExtractJob, Extracted, GraphSource, LaneNames, Pipeline};
pub use crate::pipeline::{ResponseHandle, ServeStats as ServerStats};
use crate::policy::{DegradationLevel, DegradationPolicy, RetryPolicy};
use crate::request::{GraphMutation, Request, ServeError};
use crate::supervisor::SupervisorConfig;

/// Base seed of the sampled extraction's per-vertex draws; combined with
/// the pinned epoch so samples are stable within an epoch and refresh
/// across mutations.
const SAMPLE_SEED: u64 = 0x5a3d_11e9_c0de_f00d;

/// Configuration of a [`GnnServer`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads, each owning one simulated device/engine.
    pub workers: usize,
    /// Maximum requests coalesced into one batch.
    pub max_batch: usize,
    /// Maximum time the oldest queued request waits before a partial
    /// batch flushes.
    pub max_wait: Duration,
    /// Bounded request-queue capacity; pushes past it are rejected with
    /// [`ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// LRU feature-cache capacity in vertex rows (0 disables caching).
    pub cache_capacity: usize,
    /// Cache-entry time-to-live. `None` (the default) means entries
    /// never go stale; with a TTL, entries past it are only served under
    /// degraded service (flagged), within `stale_grace`.
    pub cache_ttl: Option<Duration>,
    /// How far past the TTL a stale entry may still be served when the
    /// degradation ladder allows it.
    pub stale_grace: Duration,
    /// Simulated device each worker runs on (including its fault plan;
    /// worker `i` salts the plan's seed with its slot index so workers
    /// fault independently).
    pub device: DeviceConfig,
    /// Retry policy for transient device faults.
    pub retry: RetryPolicy,
    /// Thresholds of the load-shedding degradation ladder.
    pub degradation: DegradationPolicy,
    /// Worker supervision knobs (respawn budget, monitor cadence).
    pub supervisor: SupervisorConfig,
    /// Chaos hook: a worker inserting this vertex's row into the cache
    /// panics while holding the cache lock. Exercises lock-poison
    /// recovery and exactly-once requeueing; `None` in production.
    pub chaos_panic_on_vertex: Option<u32>,
    /// Prefix for every telemetry metric the server emits (lets several
    /// server instances in one process keep their metrics apart).
    pub metrics_prefix: String,
    /// Service-level objective the online monitor evaluates: windowed
    /// p99 latency target and unflagged-error budget. Gauges publish
    /// under `<metrics_prefix>.slo.*`.
    pub slo: SloSpec,
    /// Fanout cap of the `Sampled` degradation rung's seeded
    /// neighbor-sampled extraction (GraphSAGE-style). 0 disables the
    /// rung (it behaves like `StaleOk`).
    pub sample_fanout: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            max_batch: 32,
            max_wait: Duration::from_millis(2),
            queue_capacity: 256,
            cache_capacity: 65_536,
            cache_ttl: None,
            stale_grace: Duration::from_secs(30),
            device: DeviceConfig::test_small(),
            retry: RetryPolicy::default(),
            degradation: DegradationPolicy::default(),
            supervisor: SupervisorConfig::default(),
            chaos_panic_on_vertex: None,
            metrics_prefix: "serve".to_string(),
            slo: SloSpec::default(),
            sample_fanout: 8,
        }
    }
}

/// The mutable graph state behind the server: the delta graph (writer
/// side) and the dense feature matrix its overlay resolves against.
/// Guarded by one `RwLock` — submissions take brief read locks to pin a
/// snapshot; mutations and compactions take the write lock.
struct GraphState {
    delta: DeltaGraph,
    features: Arc<Matrix>,
}

/// An immutable `(snapshot, features)` pair pinned by a request at
/// submission: workers extract against it no matter how far the writer
/// has moved on, so the response is exact for the epoch the trace
/// records. Feature rows resolve overlay-first: rows written (or
/// appended) after the base matrix was built live in the snapshot's
/// overlay until a compaction folds them in.
#[derive(Clone)]
pub(crate) struct EpochView {
    snap: GraphEpoch,
    features: Arc<Matrix>,
}

impl EpochView {
    fn feature_row(&self, v: u32) -> &[f32] {
        self.snap
            .feature_row(v)
            .unwrap_or_else(|| self.features.row(v as usize))
    }
}

/// The whole graph on one device, behind one lock.
pub(crate) struct LocalSource {
    state: RwLock<GraphState>,
}

impl LocalSource {
    /// Read-lock the graph state (poison-tolerant: the state is only
    /// written under [`GnnServer::mutate`]/[`GnnServer::compact_graph`],
    /// which don't panic mid-write; a poisoned lock still holds a
    /// consistent value).
    fn read(&self) -> RwLockReadGuard<'_, GraphState> {
        self.state.read().unwrap_or_else(|p| p.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, GraphState> {
        self.state.write().unwrap_or_else(|p| p.into_inner())
    }
}

impl GraphSource for LocalSource {
    type View = EpochView;
    type Worker = ();
    const MAX_RUNG: DegradationLevel = DegradationLevel::Shed;

    fn epoch(view: &EpochView) -> u64 {
        view.snap.epoch()
    }

    /// Validate against the *live* vertex count and pin the snapshot
    /// under one read lock: a target valid at this epoch stays valid for
    /// the pinned view no matter what the writer does next. (Capturing
    /// the count outside the lock would go stale under concurrent vertex
    /// insertion.)
    fn pin(&self, targets: &[u32]) -> Result<EpochView, ServeError> {
        let st = self.read();
        let n = st.delta.num_vertices() as u32;
        if let Some(&bad) = targets.iter().find(|&&t| t >= n) {
            return Err(ServeError::InvalidTarget(bad));
        }
        Ok(EpochView {
            snap: st.delta.snapshot(),
            features: Arc::clone(&st.features),
        })
    }

    fn route(
        &self,
        _core: &Core<Self>,
        view: &EpochView,
        _targets: &[u32],
        trace: &TraceContext,
    ) -> Result<usize, usize> {
        trace.push("epoch", || format!("epoch={}", view.snap.epoch()));
        Ok(0)
    }

    fn extract(
        &self,
        core: &Core<Self>,
        _worker: &mut (),
        job: &ExtractJob<'_, EpochView>,
    ) -> Option<Extracted> {
        let view = &job.batch[0].0.view;
        let ego = if job.sampled {
            // Epoch-salted seed: the draw is deterministic per
            // (vertex, epoch), so replays reproduce it exactly while
            // different graph versions decorrelate.
            view.snap.sampled_ego_graph(
                job.misses,
                job.hops,
                core.cfg.sample_fanout,
                SAMPLE_SEED ^ view.snap.epoch(),
            )
        } else {
            view.snap.ego_graph(job.misses, job.hops)
        };
        let mut feats = Matrix::zeros(ego.vertices.len(), view.features.cols());
        for (local, &orig) in ego.vertices.iter().enumerate() {
            feats.row_mut(local).copy_from_slice(view.feature_row(orig));
        }
        Some(Extracted {
            ego,
            feats,
            halo_ms: 0.0,
            partial: false,
        })
    }

    /// Any worker of the one lane reaches the whole graph.
    fn salvage_lane(&self, _core: &Core<Self>, lane: usize) -> Option<usize> {
        Some(lane)
    }
}

/// An online GNN inference server over one graph + feature matrix +
/// trained network. See the crate docs for the serving pipeline.
pub struct GnnServer {
    pub(crate) pipeline: Pipeline<LocalSource>,
}

impl GnnServer {
    /// Start the worker pool (under supervision) and return a server
    /// ready for [`submit`](Self::submit).
    ///
    /// # Panics
    /// Panics if the feature matrix does not have one row per graph
    /// vertex, or if `cfg.workers` is zero.
    pub fn start(cfg: ServeConfig, graph: Csr, features: Matrix, net: GnnNetwork) -> Self {
        assert_eq!(
            features.rows(),
            graph.num_vertices(),
            "feature matrix must have one row per vertex"
        );
        let lane = LaneNames {
            depth: format!("{}.queue_depth", cfg.metrics_prefix),
            own: None,
        };
        let source = LocalSource {
            state: RwLock::new(GraphState {
                delta: DeltaGraph::new(graph),
                features: Arc::new(features),
            }),
        };
        Self {
            pipeline: Pipeline::start(cfg, vec![lane], None, source, net),
        }
    }

    /// Submit one request. Returns immediately with a handle, or fails
    /// fast: [`ServeError::EmptyRequest`] / [`ServeError::InvalidTarget`]
    /// on malformed input, [`ServeError::Overloaded`] when the bounded
    /// queue is full or the degradation ladder is shedding,
    /// [`ServeError::ShuttingDown`] after shutdown began.
    pub fn submit(&self, request: Request) -> Result<ResponseHandle, ServeError> {
        self.pipeline.core.submit(request)
    }

    /// Evaluate the declared SLO against the current completion window.
    pub fn slo_report(&self) -> SloReport {
        self.pipeline.core.slo.report()
    }

    /// The exact extraction depth (`GnnNetwork::receptive_hops`) used for
    /// requests that don't override `hops`.
    pub fn exact_hops(&self) -> usize {
        self.pipeline.core.exact_hops
    }

    /// The current graph epoch (0 until the first accepted mutation).
    pub fn epoch(&self) -> u64 {
        self.pipeline.core.source.read().delta.epoch()
    }

    /// Vertices in the current graph (grows under `InsertVertex`).
    pub fn num_vertices(&self) -> usize {
        self.pipeline.core.source.read().delta.num_vertices()
    }

    /// Apply a batch of streaming graph mutations atomically.
    ///
    /// The batch is validated up front (ids in range — entries may refer
    /// to vertices inserted *earlier in the same batch* — and feature
    /// rows embedding-dim wide); any violation rejects the whole batch
    /// with nothing applied. On success every accepted entry bumps the
    /// epoch (duplicate edge inserts are skipped silently) and the
    /// method returns the new epoch.
    ///
    /// Cache coherence happens under the same write lock that bumps the
    /// epoch: entries keyed at the previously-current epoch are walked
    /// once — rows whose vertex is within `exact_hops` (or the deepest
    /// depth cached, if greater) of a dirty vertex along out-edges are
    /// evicted, the rest re-keyed forward. In-flight requests keep
    /// serving their pinned snapshots; no stale row is ever served
    /// unflagged.
    pub fn mutate(&self, mutations: &[GraphMutation]) -> Result<u64, ServeError> {
        let core = &self.pipeline.core;
        let mut st = core.source.write();
        if mutations.is_empty() {
            return Ok(st.delta.epoch());
        }
        let feat_dim = st.features.cols();
        // Validation pass: simulate the vertex count so later entries can
        // reference vertices the batch itself inserts.
        let mut n = st.delta.num_vertices() as u32;
        for m in mutations {
            match m {
                GraphMutation::InsertEdge { src, dst } => {
                    for &v in [src, dst] {
                        if v >= n {
                            return Err(ServeError::InvalidTarget(v));
                        }
                    }
                }
                GraphMutation::InsertVertex { features } => {
                    if features.len() != feat_dim {
                        return Err(ServeError::FeatureDimMismatch);
                    }
                    n += 1;
                }
                GraphMutation::SetFeatures { vertex, features } => {
                    if *vertex >= n {
                        return Err(ServeError::InvalidTarget(*vertex));
                    }
                    if features.len() != feat_dim {
                        return Err(ServeError::FeatureDimMismatch);
                    }
                }
            }
        }
        let old_epoch = st.delta.epoch();
        let mut dirty: Vec<u32> = Vec::new();
        let mut applied = 0u64;
        for m in mutations {
            match m {
                GraphMutation::InsertEdge { src, dst } => {
                    if st.delta.insert_edge(*src, *dst) {
                        dirty.push(*src);
                        dirty.push(*dst);
                        applied += 1;
                    }
                }
                GraphMutation::InsertVertex { features } => {
                    dirty.push(st.delta.insert_vertex(features.clone()));
                    applied += 1;
                }
                GraphMutation::SetFeatures { vertex, features } => {
                    st.delta.set_features(*vertex, features.clone());
                    dirty.push(*vertex);
                    applied += 1;
                }
            }
        }
        let new_epoch = st.delta.epoch();
        if new_epoch == old_epoch {
            return Ok(new_epoch); // every entry was a duplicate edge
        }
        count(&core.counters.mutations, &core.names.mutations, applied);
        telemetry::gauge_set(&core.names.epoch, new_epoch as f64);
        // Invalidate under the state lock so a concurrent mutation cannot
        // interleave between the epoch bump and the keyspace walk (the
        // cache lock nests inside the state lock here and nowhere else,
        // so the order is deadlock-free).
        let mut cache = core.lock_cache(0);
        let depth = cache
            .max_hops_at_epoch(old_epoch)
            .map_or(core.exact_hops, |h| (h as usize).max(core.exact_hops));
        let affected: HashSet<u32> = st
            .delta
            .affected_within(&dirty, depth)
            .into_iter()
            .collect();
        let (evicted, _rekeyed) = cache.invalidate_mutated(old_epoch, new_epoch, &affected);
        let evictions = &core.counters.mutation_evictions;
        count(evictions, &core.names.mutation_evictions, evicted);
        Ok(new_epoch)
    }

    /// Fold the accumulated delta back into frozen CSR form and fold the
    /// feature overlay into a dense matrix. Bitwise-invisible to serving:
    /// the compacted graph is identical to the overlay view (the epoch
    /// does not change and cached rows stay valid), extraction just stops
    /// paying the merge overhead. In-flight snapshots keep their
    /// pre-compaction view.
    pub fn compact_graph(&self) {
        let mut st = self.pipeline.core.source.write();
        st.delta.compact();
        let overlay = st.delta.take_feature_overlay();
        let n = st.delta.num_vertices();
        if !overlay.is_empty() || st.features.rows() < n {
            let dim = st.features.cols();
            let mut folded = Matrix::zeros(n, dim);
            for v in 0..st.features.rows() {
                folded.row_mut(v).copy_from_slice(st.features.row(v));
            }
            for (v, row) in overlay {
                folded.row_mut(v as usize).copy_from_slice(&row);
            }
            st.features = Arc::new(folded);
        }
        self.pipeline
            .core
            .counters
            .compactions
            .fetch_add(1, Ordering::Relaxed);
    }

    /// A snapshot of the server's counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            epoch: self.epoch(),
            ..self.pipeline.core.stats()
        }
    }

    /// Stop accepting requests, serve everything already queued, join the
    /// workers, and return the final counters.
    pub fn shutdown(mut self) -> ServerStats {
        self.pipeline.stop_and_join();
        self.stats()
    }
}

#[cfg(test)]
impl GnnServer {
    /// The active degradation level.
    fn degradation_level(&self) -> DegradationLevel {
        self.pipeline.core.degradation.level()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlpgnn::GnnModel;
    use tlpgnn_graph::generators;

    fn small_config(cache_capacity: usize) -> ServeConfig {
        ServeConfig {
            workers: 1,
            max_batch: 4,
            max_wait: Duration::from_millis(1),
            cache_capacity,
            metrics_prefix: "serve.test".to_string(),
            ..ServeConfig::default()
        }
    }

    fn small_server_with(cfg: ServeConfig) -> GnnServer {
        let g = generators::rmat_default(200, 1200, 7);
        let x = Matrix::random(200, 8, 1.0, 9);
        let net = GnnNetwork::two_layer(|_| GnnModel::Gin { eps: 0.1 }, 8, 8, 4, 3);
        GnnServer::start(cfg, g, x, net)
    }

    fn small_server(cache_capacity: usize) -> GnnServer {
        small_server_with(small_config(cache_capacity))
    }

    #[test]
    fn serves_a_request_end_to_end() {
        let server = small_server(64);
        let resp = server
            .submit(Request::new(vec![0, 5, 5]))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(resp.outputs.shape(), (3, 4));
        // Duplicate targets get identical rows.
        assert_eq!(resp.outputs.row(1), resp.outputs.row(2));
        assert!(!resp.degraded.any(), "healthy server serves full fidelity");
        let stats = server.shutdown();
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn transient_faults_are_retried_to_success() {
        let mut cfg = small_config(64);
        cfg.device.fault = gpu_sim::FaultPlan::transient(3, 0.3);
        cfg.retry = RetryPolicy {
            max_retries: 64,
            base_backoff: Duration::from_micros(10),
            max_backoff: Duration::from_micros(100),
            ..RetryPolicy::default()
        };
        let faulty = small_server_with(cfg);
        let clean = small_server(64);
        for t in [0u32, 7, 42] {
            let a = faulty
                .submit(Request::new(vec![t]))
                .unwrap()
                .wait()
                .unwrap();
            let b = clean.submit(Request::new(vec![t])).unwrap().wait().unwrap();
            assert_eq!(
                a.outputs.data(),
                b.outputs.data(),
                "retried result must be bitwise identical to clean"
            );
            assert!(!a.degraded.any());
        }
        let stats = faulty.shutdown();
        assert_eq!(stats.completed, 3);
        assert!(stats.retries > 0, "a 0.3 fault rate must trigger retries");
        assert_eq!(stats.device_faults, 0);
    }

    #[test]
    fn lost_device_worker_is_respawned_and_batch_requeued() {
        let mut cfg = small_config(64);
        // The worker's very first launch kills its device. with_salt
        // keeps `lost_at_launch`, so slot salting doesn't defuse this.
        cfg.device.fault = gpu_sim::FaultPlan::device_lost_at(0);
        let server = small_server_with(cfg);
        let resp = server.submit(Request::new(vec![5])).unwrap().wait();
        let resp = resp.expect("requeued batch must be served by the respawned worker");
        assert_eq!(resp.outputs.shape(), (1, 4));
        let stats = server.shutdown();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.worker_deaths, 1);
        assert_eq!(stats.requeued, 1);
        assert!(stats.respawns >= 1);
        assert_eq!(stats.worker_lost, 0);
    }

    #[test]
    fn chaos_panic_fails_request_after_exactly_one_requeue() {
        let mut cfg = small_config(64);
        cfg.chaos_panic_on_vertex = Some(9);
        let server = small_server_with(cfg);
        // Both the original worker and its replacement hit the panic:
        // one requeue, then a terminal WorkerLost.
        let h = server.submit(Request::new(vec![9])).unwrap();
        assert_eq!(h.wait().unwrap_err(), ServeError::WorkerLost);
        // The poisoned cache lock recovers; an unrelated vertex serves.
        let ok = server.submit(Request::new(vec![3])).unwrap().wait();
        assert!(ok.is_ok(), "server must keep serving after the panic");
        let stats = server.shutdown();
        assert_eq!(stats.requeued, 1, "requeued exactly once");
        assert_eq!(stats.worker_lost, 1);
        assert_eq!(stats.worker_deaths, 2);
        assert!(stats.poison_recoveries >= 1, "lock poison was recovered");
    }

    /// Park the supervisor's tick far in the future so a test can force
    /// a degradation level without the monitor recomputing it.
    fn freeze_ladder(cfg: &mut ServeConfig) {
        cfg.supervisor.monitor_interval = Duration::from_secs(3600);
    }

    /// Let the monitor's *first* tick (which runs immediately at start,
    /// before the frozen interval) pass, so it can't overwrite a level
    /// the test forces afterwards.
    fn settle(server: &GnnServer) {
        std::thread::sleep(Duration::from_millis(30));
        let _ = server.degradation_level();
    }

    #[test]
    fn stale_cache_service_is_flagged_and_only_under_degradation() {
        let mut cfg = small_config(64);
        cfg.cache_ttl = Some(Duration::ZERO); // everything is stale
        cfg.stale_grace = Duration::from_secs(3600);
        freeze_ladder(&mut cfg);
        let server = small_server_with(cfg);
        settle(&server);
        // Populate the cache at Normal level.
        let a = server
            .submit(Request::new(vec![4]))
            .unwrap()
            .wait()
            .unwrap();
        // At Normal, the stale entry is not served: recomputed instead.
        let b = server
            .submit(Request::new(vec![4]))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(a.outputs.data(), b.outputs.data());
        assert!(!b.degraded.stale_cache);
        // Force the ladder up: full queue pressure via the controller.
        server.pipeline.core.degradation.update(0.6, 0.0);
        assert_eq!(server.degradation_level(), DegradationLevel::StaleOk);
        let c = server
            .submit(Request::new(vec![4]))
            .unwrap()
            .wait()
            .unwrap();
        assert!(c.degraded.stale_cache, "stale row must be flagged");
        assert_eq!(a.outputs.data(), c.outputs.data());
        let stats = server.shutdown();
        assert!(stats.cache_stale_hits >= 1);
        assert!(stats.degraded >= 1);
    }

    #[test]
    fn reduced_hops_is_flagged_and_invisible_at_full_depth() {
        let mut cfg = small_config(64);
        freeze_ladder(&mut cfg);
        let server = small_server_with(cfg);
        settle(&server);
        server.pipeline.core.degradation.update(0.9, 0.0);
        assert_eq!(server.degradation_level(), DegradationLevel::ReducedHops);
        let r = server
            .submit(Request::new(vec![8]))
            .unwrap()
            .wait()
            .unwrap();
        assert!(r.degraded.reduced_hops);
        // The truncated row caches only under its own depth key: back at
        // Normal the vertex is recomputed at full depth, unflagged.
        server.pipeline.core.degradation.update(0.0, 0.0);
        let full = server
            .submit(Request::new(vec![8]))
            .unwrap()
            .wait()
            .unwrap();
        assert!(!full.degraded.any());
        let stats = server.shutdown();
        assert_eq!(
            stats.computed_targets, 2,
            "full-depth lookup must not see the truncated row"
        );
    }

    #[test]
    fn sampled_rung_flags_responses_and_never_caches() {
        let mut cfg = small_config(64);
        cfg.sample_fanout = 2; // rmat rows routinely exceed this
        freeze_ladder(&mut cfg);
        let server = small_server_with(cfg);
        settle(&server);
        server.pipeline.core.degradation.update(0.75, 0.0);
        assert_eq!(server.degradation_level(), DegradationLevel::Sampled);
        let r = server
            .submit(Request::new(vec![8]))
            .unwrap()
            .wait()
            .unwrap();
        assert!(r.degraded.sampled, "sampled rows must be flagged");
        assert!(!r.degraded.reduced_hops, "sampling keeps full depth");
        // Back at Normal the same vertex must be recomputed: the sampled
        // row never entered the cache.
        server.pipeline.core.degradation.update(0.0, 0.0);
        let full = server
            .submit(Request::new(vec![8]))
            .unwrap()
            .wait()
            .unwrap();
        assert!(!full.degraded.any());
        let stats = server.shutdown();
        assert_eq!(
            stats.computed_targets, 2,
            "a sampled row must not satisfy a healthy lookup"
        );
        assert!(stats.sampled >= 1);
        assert!(stats.degraded >= 1);
    }

    #[test]
    fn sampled_service_is_same_seed_deterministic() {
        let serve_once = || {
            let mut cfg = small_config(64);
            cfg.sample_fanout = 2;
            freeze_ladder(&mut cfg);
            let server = small_server_with(cfg);
            settle(&server);
            server.pipeline.core.degradation.update(0.75, 0.0);
            let r = server
                .submit(Request::new(vec![13, 29]))
                .unwrap()
                .wait()
                .unwrap();
            server.shutdown();
            r
        };
        let (a, b) = (serve_once(), serve_once());
        assert!(a.degraded.sampled && b.degraded.sampled);
        assert_eq!(
            a.outputs.data(),
            b.outputs.data(),
            "same seed, same epoch: the sampled draw must be bitwise stable"
        );
    }

    #[test]
    fn mutations_bump_epoch_and_new_vertices_are_servable() {
        let server = small_server(64);
        let before = server
            .submit(Request::new(vec![3]))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(before.epoch, 0, "frozen graph serves at epoch 0");
        let n0 = server.num_vertices();
        let epoch = server
            .mutate(&[
                GraphMutation::InsertVertex {
                    features: vec![0.25; 8],
                },
                GraphMutation::InsertEdge {
                    src: 3,
                    dst: n0 as u32,
                },
            ])
            .unwrap();
        assert_eq!(epoch, 2, "one epoch per accepted mutation");
        assert_eq!(server.epoch(), 2);
        assert_eq!(server.num_vertices(), n0 + 1);
        // The appended vertex serves through the delta overlay...
        let r = server
            .submit(Request::new(vec![n0 as u32]))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(r.epoch, 2);
        assert!(!r.degraded.any());
        // ...and identically after compaction (same logical graph, same
        // epoch, so the cached row may legitimately be reused).
        server.compact_graph();
        assert_eq!(server.epoch(), 2, "compaction must not bump the epoch");
        let rc = server
            .submit(Request::new(vec![n0 as u32]))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(rc.outputs.data(), r.outputs.data());
        let stats = server.shutdown();
        assert_eq!(stats.mutations, 2);
        assert_eq!(stats.epoch, 2);
        assert_eq!(stats.compactions, 1);
    }

    #[test]
    fn mutation_batches_validate_atomically() {
        let server = small_server(16);
        let n = server.num_vertices() as u32;
        // Second entry is invalid: the whole batch must be rejected...
        let err = server
            .mutate(&[
                GraphMutation::InsertEdge { src: 0, dst: 1 },
                GraphMutation::InsertEdge { src: n + 7, dst: 0 },
            ])
            .unwrap_err();
        assert_eq!(err, ServeError::InvalidTarget(n + 7));
        assert_eq!(server.epoch(), 0, "rejected batch burns no epoch");
        // ...as is a feature row of the wrong width.
        let err = server
            .mutate(&[GraphMutation::InsertVertex {
                features: vec![1.0; 3],
            }])
            .unwrap_err();
        assert_eq!(err, ServeError::FeatureDimMismatch);
        // Intra-batch references resolve against the simulated size.
        let epoch = server
            .mutate(&[
                GraphMutation::InsertVertex {
                    features: vec![0.5; 8],
                },
                GraphMutation::InsertEdge { src: n, dst: 0 },
                GraphMutation::SetFeatures {
                    vertex: n,
                    features: vec![1.5; 8],
                },
            ])
            .unwrap();
        assert_eq!(epoch, 3);
        let stats = server.shutdown();
        assert_eq!(stats.mutations, 3);
    }

    #[test]
    fn shed_level_rejects_submissions() {
        let mut cfg = small_config(64);
        freeze_ladder(&mut cfg);
        let server = small_server_with(cfg);
        settle(&server);
        server.pipeline.core.degradation.update(2.0, 0.0);
        assert_eq!(server.degradation_level(), DegradationLevel::Shed);
        assert_eq!(
            server.submit(Request::new(vec![1])).unwrap_err(),
            ServeError::Overloaded
        );
        assert_eq!(server.stats().rejected, 1);
    }
}
