//! Shard-aware serving: route by seed-vertex shard, extract through
//! halo exchange, serve graphs no single device can hold.
//!
//! A [`ShardedServer`] slices the graph and feature matrix into one
//! [`ShardStore`] per simulated device (`tlpgnn_shard`) and then drops
//! the unpartitioned copies — no worker ever holds the whole graph.
//! Each shard is one lane of the shared [`crate::pipeline`]: one worker
//! with its own engine, bounded queue, and feature cache (keyed with the
//! shard's index, modelling per-device cache memory). The request path
//! and its fault-handling contract are the pipeline's; this module
//! supplies the partitioned graph.
//!
//! ## Routing and coalescing
//!
//! [`submit`](ShardedServer::submit) routes a request to the shard
//! owning its *seed* (first) target and records the decision as a
//! `shard_route` trace event directly after `submit` — on every path,
//! including rejects, so `TraceChain::validate` can hold the routing
//! invariant unconditionally. Requests routed to the same shard coalesce
//! in its queue: one distributed extraction and one forward pass serve
//! the union of a batch's misses.
//!
//! ## Halo exchange
//!
//! A request's receptive field rarely stays inside one shard. The
//! extraction ([`tlpgnn_shard::distributed_ego`]) pulls remote rows in
//! one batched fetch per (expanded BFS level, remote shard), every fetch is
//! counted under `<prefix>.halo.*`, and the modelled transfer time
//! (an NVLink-style latency-plus-bandwidth price, `halo_transfer_ms`)
//! is charged to the request's latency. Because the
//! traversal is the single-device `ego_graph_on` over a store-backed
//! view and the fused engine is atomic-free, sharded responses are **bitwise
//! equal** to the unsharded server's given the same batch composition.
//!
//! ## Failover
//!
//! Shard devices honor their configured fault plan (salted per shard
//! so shards fault independently, or overridden per shard through
//! [`ShardedConfig::per_shard_fault`]). On top of the pipeline's
//! contract the partitioned graph adds:
//!
//! * **Halo-fetch timeouts** ([`ShardedConfig::halo_fault`], drawn
//!   from a per-shard salted stream) abort the fetch *before any row
//!   moves* and retry under the retry policy, so a retried fetch
//!   contributes to [`HaloStats`](tlpgnn_shard::HaloStats) exactly once.
//! * **Standby buddy mirrors** (`ShardedConfig::standby`): each
//!   shard's owned range is mirrored bitwise on one buddy shard. A dead
//!   shard's parked batch is salvaged there (a `shard_failover` trace
//!   event after the `salvage`), and a *retired* shard's rows keep
//!   serving — covered responses stay bitwise equal to the fault-free
//!   reference. With no live buddy the parked requests fail with
//!   [`ServeError::WorkerLost`], and requests whose receptive field
//!   needs the dead shard are served *partially* (missing neighbors
//!   dropped, features zeroed), flagged [`Degradation::partial`].
//!
//! The partitioned graph is frozen: every view is epoch 0, mutations go
//! through the single-device [`GnnServer`], and shards offer no
//! worker-side ladder rung yet (they only shed). With the default
//! `FaultPlan::none()` and `standby` off every failover path is dormant.
//!
//! [`GnnServer`]: crate::server::GnnServer
//! [`Degradation::partial`]: crate::request::Degradation::partial

use std::time::Duration;

use gpu_sim::{DeviceConfig, FaultKind, FaultPlan};
use telemetry::{SloReport, SloSpec, TraceContext};
use tlpgnn::GnnNetwork;
use tlpgnn_graph::Csr;
use tlpgnn_shard::{distributed_ego_with_health, graph_bytes, ShardPlan, ShardStore};
use tlpgnn_tensor::Matrix;

pub use crate::pipeline::ServeStats as ShardedStats;
use crate::pipeline::{
    count, lock, trace_all, Core, ExtractJob, Extracted, GraphSource, LaneNames, OwnNames,
    Pipeline, ResponseHandle,
};
use crate::policy::{DegradationLevel, RetryPolicy};
use crate::request::{Request, ServeError};
use crate::server::ServeConfig;
use crate::supervisor::SupervisorConfig;

/// Effective peer-to-peer bandwidth of the modelled interconnect, GB/s
/// (NVLink 2.0 is ≈ 25 GB/s per direction per brick; this is an
/// aggregate figure).
const HALO_BANDWIDTH_GBPS: f64 = 50.0;

/// Latency of one halo transfer, microseconds.
const HALO_LATENCY_US: f64 = 10.0;

/// Modelled time of `batches` coalesced halo transfers moving `bytes` in
/// total, ms: each batch pays the latency once, the bytes pay the
/// bandwidth term once; zero batches cost nothing.
fn halo_transfer_ms(batches: u64, bytes: u64) -> f64 {
    if batches == 0 {
        0.0
    } else {
        batches as f64 * HALO_LATENCY_US / 1e3 + bytes as f64 / (HALO_BANDWIDTH_GBPS * 1e9) * 1e3
    }
}

/// Configuration of a [`ShardedServer`].
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Simulated devices the graph is partitioned across (one worker,
    /// queue, and cache per shard).
    pub shards: usize,
    /// Highest-degree vertices replicated on every shard (adjacency +
    /// feature rows), converting the hottest halo fetches into local
    /// reads.
    pub replicate_hot: usize,
    /// Mirror each shard's owned range in full on one standby buddy
    /// shard (ring assignment, priced against the device budget). The
    /// mirrors are bitwise copies, so failover responses covered by a
    /// live buddy stay bitwise equal to the fault-free reference. Off
    /// by default: the failover layer is invisible unless asked for.
    pub standby: bool,
    /// Maximum requests coalesced into one per-shard batch.
    pub max_batch: usize,
    /// Maximum time the oldest queued request waits before a partial
    /// batch flushes.
    pub max_wait: Duration,
    /// Bounded per-shard queue capacity; pushes past it are rejected
    /// with [`ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// Per-shard LRU cache capacity in vertex rows (0 disables).
    pub cache_capacity: usize,
    /// Simulated device each shard runs on, including its fault plan:
    /// shard `i` salts the plan's seed with its index so shards fault
    /// independently (replacement workers get a fresh fault-free
    /// device, like the unsharded pool).
    pub device: DeviceConfig,
    /// Per-shard fault-plan override for deterministic chaos scripts:
    /// entry `i` replaces `device.fault` on shard `i` *as-is* (no
    /// salting). Must have one entry per shard when set.
    pub per_shard_fault: Option<Vec<FaultPlan>>,
    /// Fault stream of the halo-fetch path (timeouts on the simulated
    /// interconnect). Transient draws abort the fetch before any row
    /// moves and retry under `retry`; each shard draws from its own
    /// salted stream. `FaultPlan::none()` (the default) skips the draw
    /// entirely.
    pub halo_fault: FaultPlan,
    /// Retry policy for transient compute faults and halo-fetch
    /// timeouts.
    pub retry: RetryPolicy,
    /// Shard-worker supervision knobs (respawn budget, breaker,
    /// monitor cadence).
    pub supervisor: SupervisorConfig,
    /// Optional per-device memory budget, bytes. When set, `start`
    /// panics if any shard's store exceeds it — the guard that proves a
    /// serving graph outgrew a single device.
    pub device_budget_bytes: Option<u64>,
    /// Prefix for every telemetry metric (halo counters land under
    /// `<prefix>.halo.*`, per-shard gauges under `<prefix>.shard.<i>.*`).
    pub metrics_prefix: String,
    /// Service-level objective, evaluated globally and per shard
    /// (gauges under `<prefix>.slo.*` and `<prefix>.slo.shard.<i>.*`).
    pub slo: SloSpec,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            replicate_hot: 64,
            standby: false,
            max_batch: 16,
            max_wait: Duration::from_millis(2),
            queue_capacity: 256,
            cache_capacity: 65_536,
            device: DeviceConfig::test_small(),
            per_shard_fault: None,
            halo_fault: FaultPlan::none(),
            retry: RetryPolicy::default(),
            supervisor: SupervisorConfig::default(),
            device_budget_bytes: None,
            metrics_prefix: "shard".to_string(),
            slo: SloSpec::default(),
        }
    }
}

/// The graph partitioned across devices: a plan, one resident store per
/// shard, and the halo-fetch fault stream.
pub(crate) struct ShardSource {
    plan: ShardPlan,
    stores: Vec<ShardStore>,
    halo_fault: FaultPlan,
}

impl GraphSource for ShardSource {
    /// The partitioned graph is frozen at epoch 0, so there is nothing
    /// per-request to pin.
    type View = ();
    /// Draws taken from the shard's halo-fault stream: the index runs
    /// across a worker generation's lifetime, so consecutive fetches see
    /// fresh draws.
    type Worker = u64;
    /// Shards offer no worker-side rung today: a covered failover must
    /// stay unflagged. Turning the rungs on belongs with mutation
    /// routing.
    const MAX_RUNG: DegradationLevel = DegradationLevel::Normal;

    fn epoch(_view: &()) -> u64 {
        0
    }

    fn pin(&self, targets: &[u32]) -> Result<(), ServeError> {
        let n = self.plan.num_vertices() as u32;
        match targets.iter().find(|&&t| t >= n) {
            Some(&bad) => Err(ServeError::InvalidTarget(bad)),
            None => Ok(()),
        }
    }

    /// The shard owning the seed (first) target while it is in rotation,
    /// else its live standby buddy, else any live shard (partial
    /// service). The decision lands directly after `submit` on every
    /// path, the invariant `TraceChain::validate` holds sharded chains
    /// to; the healthy path's detail stays exactly `shard=<i> seed=<v>`.
    fn route(
        &self,
        core: &Core<Self>,
        _view: &(),
        targets: &[u32],
        trace: &TraceContext,
    ) -> Result<usize, usize> {
        let owner = self.plan.route(targets);
        let seed = targets[0];
        if !core.is_retired(owner) {
            trace.push("shard_route", || format!("shard={owner} seed={seed}"));
            return Ok(owner);
        }
        // No mirror covering the owner's range still leaves any live
        // shard able to serve the reachable part of the receptive
        // field, flagged partial by the worker.
        let (shard, how) = match self.salvage_lane(core, owner) {
            Some(buddy) => (Some(buddy), "failover"),
            None => (
                (0..self.plan.shards()).find(|&s| !core.is_retired(s)),
                "partial",
            ),
        };
        match shard {
            Some(s) => {
                count(&core.counters.failovers, &core.names.failover, 1);
                trace.push("shard_route", || {
                    format!("shard={s} seed={seed} owner={owner} {how}")
                });
                Ok(s)
            }
            None => {
                trace.push("shard_route", || format!("shard=none seed={seed}"));
                Err(owner)
            }
        }
    }

    fn extract(
        &self,
        core: &Core<Self>,
        draws: &mut u64,
        job: &ExtractJob<'_, ()>,
    ) -> Option<Extracted> {
        // Halo-fetch fault loop: a transient draw aborts the fetch
        // before any row moves, so the extraction below runs — and its
        // HaloStats are accumulated — exactly once, on the attempt that
        // did not fault. Each shard draws from its own salted stream;
        // the retry budget is per fetch.
        let plan = self.halo_fault.with_salt(job.lane as u64);
        let mut attempt = 0u32;
        while !plan.is_none() {
            let idx = *draws;
            *draws += 1;
            if !matches!(plan.decide(idx), Some(FaultKind::Transient)) {
                break;
            }
            attempt += 1;
            trace_all(job.batch, "fault", || format!("halo_transient idx={idx}"));
            let (retries, name) = (&core.counters.halo_retries, &core.names.halo_retries);
            if !core.back_off(job.batch, attempt, retries, name, |b| {
                format!("halo idx={idx} backoff_us={}", b.as_micros())
            }) {
                return None;
            }
        }
        // Liveness comes from the monotonic retirement flags, not the
        // transient dead-between-respawns window: a shard being
        // re-warmed still "serves" its rows (the stores are
        // host-resident), which keeps same-seed runs deterministic no
        // matter when the monitor thread observes the death.
        let alive: Vec<bool> = (0..self.plan.shards())
            .map(|s| s == job.lane || !core.is_retired(s))
            .collect();
        let (ego, feats, halo) = distributed_ego_with_health(
            &self.plan,
            &self.stores,
            job.lane,
            job.misses,
            job.hops,
            &alive,
        );
        // Price the batched halo transfers on the modelled interconnect.
        let halo_ms = halo_transfer_ms(halo.fetch_batches, halo.fetched_bytes);
        let m = &core.names;
        telemetry::observe(&m.halo_ms, halo_ms);
        telemetry::counter_add(&m.halo_fetch_batches, halo.fetch_batches);
        telemetry::counter_add(&m.halo_fetched_rows, halo.fetched_rows);
        telemetry::counter_add(&m.halo_fetched_features, halo.fetched_features);
        telemetry::counter_add(&m.halo_fetched_bytes, halo.fetched_bytes);
        telemetry::counter_add(&m.halo_replica_hits, halo.replica_hits);
        telemetry::counter_add(&m.halo_local_hits, halo.local_hits);
        telemetry::counter_add(&m.halo_mirror_hits, halo.mirror_hits);
        lock(&core.counters.halo).accumulate(&halo);
        trace_all(job.batch, "halo_fetch", || {
            format!(
                "batches={} rows={} features={} bytes={}",
                halo.fetch_batches, halo.fetched_rows, halo.fetched_features, halo.fetched_bytes
            )
        });
        Some(Extracted {
            ego,
            feats,
            halo_ms,
            partial: halo.missing() > 0,
        })
    }

    /// A dead shard's work can only run where its rows are reachable:
    /// the standby buddy, which mirrors the owned range bitwise.
    fn salvage_lane(&self, core: &Core<Self>, lane: usize) -> Option<usize> {
        self.plan.buddy_of(lane).filter(|&b| !core.is_retired(b))
    }
}

/// A multi-device GNN inference server over a partitioned graph. See
/// the module docs for routing, coalescing, the halo exchange, and the
/// failover layer.
pub struct ShardedServer {
    pub(crate) pipeline: Pipeline<ShardSource>,
}

impl ShardedServer {
    /// Partition `graph` + `features` across `cfg.shards` devices and
    /// start one supervised worker per shard. The unpartitioned graph
    /// and feature matrix are dropped after slicing — only the
    /// per-shard stores stay resident.
    ///
    /// # Panics
    /// Panics if `cfg.shards` is zero, the feature matrix does not have
    /// one row per vertex, `cfg.per_shard_fault` does not have one plan
    /// per shard, or a shard's store exceeds `cfg.device_budget_bytes`
    /// (standby mirrors included).
    pub fn start(cfg: ShardedConfig, graph: Csr, features: Matrix, net: GnnNetwork) -> Self {
        assert!(cfg.shards >= 1, "need at least one shard");
        assert_eq!(
            features.rows(),
            graph.num_vertices(),
            "feature matrix must have one row per vertex"
        );
        if let Some(plans) = &cfg.per_shard_fault {
            assert_eq!(
                plans.len(),
                cfg.shards,
                "per_shard_fault must have one plan per shard"
            );
        }
        let plan =
            ShardPlan::build_with_standby(&graph, cfg.shards, cfg.replicate_hot, cfg.standby);
        let stores = ShardStore::build_all(&graph, &features, &plan);
        if let Some(budget) = cfg.device_budget_bytes {
            let whole = graph_bytes(&graph, features.cols());
            for s in &stores {
                assert!(
                    s.bytes() <= budget,
                    "shard {} needs {} bytes, device budget is {budget} \
                     (whole graph: {whole}; raise shards or the budget)",
                    s.shard(),
                    s.bytes()
                );
            }
        }
        // The whole-graph copies die here; from now on the largest
        // resident slice is one shard's store.
        drop(graph);
        drop(features);

        let prefix = &cfg.metrics_prefix;
        let lanes = (0..cfg.shards)
            .map(|i| LaneNames {
                depth: format!("{prefix}.shard.{i}.load"),
                own: Some(OwnNames {
                    completed: format!("{prefix}.shard.{i}.completed"),
                    e2e_latency_ms: format!("{prefix}.shard.{i}.e2e_latency_ms"),
                    slo_prefix: format!("{prefix}.slo.shard.{i}"),
                }),
            })
            .collect();
        let source = ShardSource {
            plan,
            stores,
            halo_fault: cfg.halo_fault,
        };
        // One worker per shard; the knobs a frozen graph has no use for
        // (the chaos hook) keeps its inert default.
        let pipeline_cfg = ServeConfig {
            workers: 1,
            max_batch: cfg.max_batch,
            max_wait: cfg.max_wait,
            queue_capacity: cfg.queue_capacity,
            cache_capacity: cfg.cache_capacity,
            device: cfg.device,
            retry: cfg.retry,
            supervisor: cfg.supervisor,
            metrics_prefix: cfg.metrics_prefix,
            slo: cfg.slo,
            ..ServeConfig::default()
        };
        Self {
            pipeline: Pipeline::start(pipeline_cfg, lanes, cfg.per_shard_fault, source, net),
        }
    }

    /// Submit one request. Routes to the shard owning the seed (first)
    /// target — or, when the owner is retired, to its live standby
    /// buddy, or failing that to any live shard (partial service) —
    /// then behaves like [`GnnServer::submit`]: immediate handle on
    /// admission, fail-fast on malformed input, a full shard queue,
    /// shedding, or shutdown. With every shard retired the request
    /// fails with [`ServeError::WorkerLost`].
    ///
    /// [`GnnServer::submit`]: crate::server::GnnServer::submit
    pub fn submit(&self, request: Request) -> Result<ResponseHandle, ServeError> {
        self.pipeline.core.submit(request)
    }

    /// The shard plan (vertex→shard directory, replication set, and
    /// standby assignment).
    pub fn plan(&self) -> &ShardPlan {
        &self.pipeline.core.source.plan
    }

    /// The exact extraction depth used when a request doesn't override
    /// `hops`.
    pub fn exact_hops(&self) -> usize {
        self.pipeline.core.exact_hops
    }

    /// Whether shard `i` has been permanently retired (circuit open or
    /// respawn budget spent). Retired shards are steered around at
    /// submission and treated as dead by the extraction liveness mask.
    pub fn shard_retired(&self, i: usize) -> bool {
        self.pipeline.core.is_retired(i)
    }

    /// Evaluate the global SLO against the current completion window.
    pub fn slo_report(&self) -> SloReport {
        self.pipeline.core.slo.report()
    }

    /// A snapshot of the server's counters.
    pub fn stats(&self) -> ShardedStats {
        self.pipeline.core.stats()
    }

    /// Stop accepting requests, serve everything queued, join the
    /// workers, and return the final counters.
    pub fn shutdown(mut self) -> ShardedStats {
        self.pipeline.stop_and_join();
        self.stats()
    }
}

#[cfg(test)]
impl ShardedServer {
    /// Resident bytes of the largest shard store — the figure a device
    /// memory budget must cover (standby mirrors included).
    fn max_store_bytes(&self) -> u64 {
        let stores = &self.pipeline.core.source.stores;
        stores.iter().map(ShardStore::bytes).max().unwrap_or(0)
    }

    /// Evaluate shard `i`'s SLO.
    fn shard_slo_report(&self, i: usize) -> SloReport {
        let own = self.pipeline.core.lanes[i].own.as_ref();
        own.expect("every shard has an SLO").1.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tests::{fixture, wait_until};
    use crate::server::GnnServer;

    #[test]
    fn halo_price_is_latency_per_batch_plus_bandwidth() {
        // No batch moves nothing, whatever the byte count says.
        assert_eq!(halo_transfer_ms(0, 0), 0.0);
        assert_eq!(halo_transfer_ms(0, 50_000_000), 0.0);
        // One empty batch pays the 10 µs latency alone.
        assert_eq!(halo_transfer_ms(1, 0), 0.01);
        // 50 MB at 50 GB/s is 1 ms, plus 10 µs for each of two batches.
        assert_eq!(halo_transfer_ms(2, 50_000_000), 1.02);
    }

    fn sharded_config(shards: usize) -> ShardedConfig {
        ShardedConfig {
            shards,
            replicate_hot: 8,
            max_batch: 4,
            max_wait: Duration::from_millis(1),
            metrics_prefix: "shard.test".to_string(),
            ..ShardedConfig::default()
        }
    }

    /// A fast-tick supervisor for fault tests: `budget` respawns, a slot
    /// retired at its `breaker`-th death.
    fn fast_supervisor(budget: u32, breaker: u32) -> SupervisorConfig {
        SupervisorConfig {
            max_respawns: budget,
            monitor_interval: Duration::from_millis(2),
            slot_breaker_threshold: breaker,
        }
    }

    /// Kill shard 0 at its first launch; every other shard is clean.
    fn kill_shard0(shards: usize) -> Option<Vec<FaultPlan>> {
        let mut plans = vec![FaultPlan::none(); shards];
        plans[0] = FaultPlan::device_lost_at(0);
        Some(plans)
    }

    fn oracle() -> GnnServer {
        let (g, x, net) = fixture();
        GnnServer::start(
            ServeConfig {
                workers: 1,
                max_batch: 4,
                max_wait: Duration::from_millis(1),
                metrics_prefix: "shard.test.oracle".to_string(),
                ..ServeConfig::default()
            },
            g,
            x,
            net,
        )
    }

    /// Sequential single-target submissions keep batch composition
    /// identical on both sides, so responses must be bitwise equal.
    #[test]
    fn bitwise_equal_to_single_device_oracle() {
        let (g, x, net) = fixture();
        let sharded = ShardedServer::start(sharded_config(4), g, x, net);
        let single = oracle();
        for t in [0u32, 17, 123, 255, 299, 42] {
            let a = sharded
                .submit(Request::new(vec![t]))
                .unwrap()
                .wait()
                .unwrap();
            let b = single
                .submit(Request::new(vec![t]))
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(
                a.outputs.data(),
                b.outputs.data(),
                "sharded response for {t} diverged from the oracle"
            );
        }
        let stats = sharded.shutdown();
        assert_eq!(stats.completed, 6);
        assert!(
            stats.halo.remote_lookups() > 0,
            "a 4-way split of rmat must cross shards"
        );
    }

    #[test]
    fn multi_target_cross_shard_request_matches_oracle() {
        let (g, x, net) = fixture();
        let sharded = ShardedServer::start(sharded_config(4), g, x, net);
        let single = oracle();
        // Targets owned by different shards, served by the seed's.
        let targets = vec![0u32, 299, 150];
        let a = sharded
            .submit(Request::new(targets.clone()))
            .unwrap()
            .wait()
            .unwrap();
        let b = single
            .submit(Request::new(targets))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(a.outputs.shape(), (3, 4));
        assert_eq!(a.outputs.data(), b.outputs.data());
    }

    #[test]
    fn single_shard_is_invisible() {
        let (g, x, net) = fixture();
        let sharded = ShardedServer::start(sharded_config(1), g, x, net);
        let single = oracle();
        for t in [3u32, 200] {
            let a = sharded
                .submit(Request::new(vec![t]))
                .unwrap()
                .wait()
                .unwrap();
            let b = single
                .submit(Request::new(vec![t]))
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(a.outputs.data(), b.outputs.data());
        }
        let stats = sharded.shutdown();
        assert_eq!(stats.halo.fetch_batches, 0, "one shard fetches nothing");
        assert_eq!(stats.halo.fetched_bytes, 0);
    }

    #[test]
    fn requests_route_to_the_seed_owner() {
        let (g, x, net) = fixture();
        let sharded = ShardedServer::start(sharded_config(3), g, x, net);
        let mut want = vec![0u64; 3];
        for t in [0u32, 10, 140, 160, 298, 299] {
            want[sharded.plan().owner_of(t)] += 1;
            sharded
                .submit(Request::new(vec![t]))
                .unwrap()
                .wait()
                .unwrap();
        }
        let stats = sharded.shutdown();
        assert_eq!(stats.per_shard_completed, want);
    }

    #[test]
    fn slo_tracks_per_shard_completions() {
        let (g, x, net) = fixture();
        let sharded = ShardedServer::start(sharded_config(2), g, x, net);
        for t in [0u32, 299, 1, 298] {
            sharded
                .submit(Request::new(vec![t]))
                .unwrap()
                .wait()
                .unwrap();
        }
        let global = sharded.slo_report();
        assert_eq!(global.window_len, 4);
        let per_shard: usize = (0..2).map(|i| sharded.shard_slo_report(i).window_len).sum();
        assert_eq!(per_shard, 4, "every completion lands in one shard's SLO");
    }

    #[test]
    fn budget_guard_accepts_fitting_stores() {
        let (g, x, net) = fixture();
        let mut cfg = sharded_config(4);
        cfg.device_budget_bytes = Some(u64::MAX);
        let sharded = ShardedServer::start(cfg, g, x, net);
        assert!(sharded.max_store_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "device budget")]
    fn budget_guard_rejects_oversized_stores() {
        let (g, x, net) = fixture();
        let mut cfg = sharded_config(2);
        cfg.device_budget_bytes = Some(16);
        let _ = ShardedServer::start(cfg, g, x, net);
    }

    /// The capacity premise end to end: a budget no single device could
    /// hold the graph under, which every store of a 4-shard plan fits,
    /// admits the sharded server, and it answers like the single device.
    #[test]
    fn budget_below_the_whole_graph_serves_like_one_device() {
        let (g, x, net) = fixture();
        let cfg = sharded_config(4);
        let plan = ShardPlan::build(&g, cfg.shards, cfg.replicate_hot);
        let budget = ShardStore::build_all(&g, &x, &plan)
            .iter()
            .map(ShardStore::bytes)
            .max()
            .unwrap();
        let whole = graph_bytes(&g, x.cols());
        assert!(
            budget < whole,
            "largest shard store {budget} B must be under the whole graph's {whole} B"
        );
        let sharded = ShardedServer::start(
            ShardedConfig {
                device_budget_bytes: Some(budget),
                ..cfg
            },
            g,
            x,
            net,
        );
        assert_eq!(sharded.max_store_bytes(), budget);
        let single = oracle();
        for t in (0u32..300).step_by(37) {
            let a = sharded.submit(Request::new(vec![t])).unwrap().wait();
            let b = single.submit(Request::new(vec![t])).unwrap().wait();
            assert_eq!(
                a.unwrap().outputs.data(),
                b.unwrap().outputs.data(),
                "sharded response for {t} diverged from the oracle"
            );
        }
    }

    #[test]
    fn hops_override_is_honored() {
        let (g, x, net) = fixture();
        let sharded = ShardedServer::start(sharded_config(3), g, x, net);
        let r = sharded
            .submit(Request::with_hops(vec![5], 1))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(r.outputs.shape(), (1, 4));
        let stats = sharded.shutdown();
        assert_eq!(stats.completed, 1);
    }

    /// Shard 0 dies mid-batch; the parked request is salvaged to its
    /// standby buddy exactly once, the answer is bitwise equal to the
    /// fault-free oracle, and the shard is re-warmed within budget so
    /// later requests route back to it.
    #[test]
    fn death_salvages_to_buddy_bitwise_and_shard_rewarms() {
        let (g, x, net) = fixture();
        let mut cfg = sharded_config(4);
        cfg.standby = true;
        cfg.cache_capacity = 0;
        cfg.per_shard_fault = kill_shard0(4);
        cfg.supervisor = fast_supervisor(4, 10);
        let sharded = ShardedServer::start(cfg, g, x, net);
        let single = oracle();
        let t = sharded.plan().owned_range(0).start as u32;
        assert_eq!(sharded.plan().owner_of(t), 0);

        let a = sharded
            .submit(Request::new(vec![t]))
            .unwrap()
            .wait()
            .expect("salvaged request must still be answered");
        let b = single
            .submit(Request::new(vec![t]))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(
            a.outputs.data(),
            b.outputs.data(),
            "failover response diverged from the fault-free oracle"
        );
        assert!(!a.degraded.any(), "buddy-covered failover is full fidelity");

        let stats = sharded.stats();
        assert_eq!(stats.worker_deaths, 1);
        assert_eq!(stats.requeued, 1, "salvaged exactly once");
        assert_eq!(stats.failovers, 1);
        assert_eq!(stats.worker_lost, 0);
        assert!(!sharded.shard_retired(0), "budget covers the re-warm");

        // The re-warmed shard 0 (fresh fault-free device) serves its
        // range again, still bitwise.
        wait_until("respawn", || sharded.stats().respawns >= 1);
        let a2 = sharded
            .submit(Request::new(vec![t]))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(a2.outputs.data(), b.outputs.data());
        assert_eq!(sharded.stats().worker_deaths, 1, "replacement is clean");
    }

    /// With the respawn budget spent, the dead shard is retired and
    /// its owned range keeps serving — bitwise, unflagged — from the
    /// buddy's standby mirror.
    #[test]
    fn retired_shard_serves_from_buddy_mirror() {
        let (g, x, net) = fixture();
        let mut cfg = sharded_config(4);
        cfg.standby = true;
        cfg.cache_capacity = 0;
        cfg.per_shard_fault = kill_shard0(4);
        cfg.supervisor = fast_supervisor(0, 1);
        let sharded = ShardedServer::start(cfg, g, x, net);
        let single = oracle();
        let t = sharded.plan().owned_range(0).start as u32;

        // The first request is salvaged to the buddy (death), then the
        // breaker retires shard 0 for good.
        let a = sharded
            .submit(Request::new(vec![t]))
            .unwrap()
            .wait()
            .unwrap();
        wait_until("retirement", || sharded.shard_retired(0));

        // Every later shard-0-owned request routes straight to the
        // buddy and reads the mirror: bitwise, never flagged.
        let b = single
            .submit(Request::new(vec![t]))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(a.outputs.data(), b.outputs.data());
        for probe in sharded.plan().owned_range(0).take(3) {
            let probe = probe as u32;
            let got = sharded
                .submit(Request::new(vec![probe]))
                .unwrap()
                .wait()
                .unwrap();
            let want = single
                .submit(Request::new(vec![probe]))
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(
                got.outputs.data(),
                want.outputs.data(),
                "mirror-served vertex {probe} diverged"
            );
            assert!(!got.degraded.any(), "covered failover is unflagged");
        }
        let stats = sharded.shutdown();
        assert_eq!(stats.partial, 0, "standby covers the whole dead range");
        assert!(stats.halo.mirror_hits + stats.halo.fetched_rows > 0);
    }

    /// Without standby mirrors a dead shard's rows are unreachable:
    /// requests needing them are served partially and flagged — and
    /// partial rows are never cached.
    #[test]
    fn dead_unmirrored_shard_flags_partial_and_never_caches() {
        let (g, x, net) = fixture();
        let mut cfg = sharded_config(4);
        cfg.standby = false;
        cfg.per_shard_fault = kill_shard0(4);
        cfg.supervisor = fast_supervisor(0, 1);
        let sharded = ShardedServer::start(cfg, g, x, net);
        let v = sharded
            .plan()
            .owned_range(0)
            .map(|u| u as u32)
            .find(|&u| !sharded.plan().is_replicated(u))
            .expect("shard 0 owns an unreplicated vertex");

        // First request rides the dying worker; with no buddy to
        // salvage to it fails loudly, never silently.
        let h = sharded.submit(Request::new(vec![v])).unwrap();
        assert_eq!(h.wait().unwrap_err(), ServeError::WorkerLost);
        wait_until("retirement", || sharded.shard_retired(0));

        // The retired owner's range now serves partially from a live
        // shard: flagged, zero-filled for the unreachable rows.
        let a = sharded
            .submit(Request::new(vec![v]))
            .unwrap()
            .wait()
            .unwrap();
        assert!(a.degraded.partial, "uncovered response must be flagged");
        assert!(a.degraded.any());
        // Partial rows never enter the cache: the same request computes
        // again instead of hitting a poisoned entry.
        let b = sharded
            .submit(Request::new(vec![v]))
            .unwrap()
            .wait()
            .unwrap();
        assert!(b.degraded.partial);
        assert_eq!(b.timing.cache_hits, 0, "partial rows must not be cached");
        let stats = sharded.shutdown();
        assert_eq!(stats.worker_lost, 1);
        assert!(stats.partial >= 2);
        assert_eq!(stats.computed_targets, 2, "computed fresh both times");
        assert!(stats.halo.missing() > 0);
    }

    /// A retried halo fetch contributes to `HaloStats` exactly once:
    /// the faulted attempts abort before any row moves, so the stats
    /// match a fault-free run bitwise and the responses stay equal.
    #[test]
    fn retried_halo_fetch_counts_stats_exactly_once() {
        let (g, x, net) = fixture();
        let clean = ShardedServer::start(
            ShardedConfig {
                cache_capacity: 0,
                ..sharded_config(4)
            },
            g,
            x,
            net,
        );
        let (g, x, net) = fixture();
        let faulted = ShardedServer::start(
            ShardedConfig {
                cache_capacity: 0,
                halo_fault: FaultPlan::transient(11, 0.4),
                retry: RetryPolicy {
                    max_retries: 16,
                    base_backoff: Duration::from_micros(10),
                    max_backoff: Duration::from_micros(200),
                    ..RetryPolicy::default()
                },
                ..sharded_config(4)
            },
            g,
            x,
            net,
        );
        for t in [0u32, 17, 123, 255, 299, 42, 80, 211] {
            let a = clean.submit(Request::new(vec![t])).unwrap().wait().unwrap();
            let b = faulted
                .submit(Request::new(vec![t]))
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(a.outputs.data(), b.outputs.data());
        }
        let clean_stats = clean.shutdown();
        let faulted_stats = faulted.shutdown();
        assert_eq!(
            clean_stats.halo, faulted_stats.halo,
            "retried fetches must not double-count halo accounting"
        );
        assert!(
            faulted_stats.halo_retries > 0,
            "the transient stream must actually fire"
        );
        assert_eq!(faulted_stats.device_faults, 0);
        assert_eq!(faulted_stats.completed, clean_stats.completed);
    }
}
