//! The one serving pipeline behind both servers.
//!
//! [`GnnServer`] and [`ShardedServer`] are façades over a `Pipeline`:
//! a set of lanes — one bounded [`BatchQueue`] and one [`FeatureCache`]
//! each — drained by `cfg.workers` supervised workers per lane
//! (supervisor slot = `lane · workers + i`). `GnnServer` is one lane × N
//! workers, `ShardedServer` N lanes × one. The whole request path, from
//! admission to the response and its bookkeeping, is written here once.
//!
//! The servers differ only in where the graph lives, and that is the one
//! seam: a `GraphSource` validates, pins and routes a request, extracts
//! a batch's misses, names the lane a dead worker's batch may go to, and
//! says which worker-side ladder rungs it can extract for.
//!
//! ## Fault handling
//!
//! The simulated devices can fault (`gpu_sim::FaultPlan`) and workers can
//! panic; the pipeline keeps its service-level invariants anyway — every
//! admitted request terminally resolves, and no response is silently
//! wrong:
//!
//! * **Deadlines**: a request past its deadline is shed with
//!   [`ServeError::DeadlineExceeded`] before any compute is spent on it,
//!   and before its batch is parked, so a shed request is never salvaged.
//! * **Transient faults** retry the whole batch forward pass under the
//!   bounded [`RetryPolicy`](crate::policy::RetryPolicy) (TLPGNN's
//!   one-fused-kernel-per-layer design leaves no partial device state to
//!   clean up); an exhausted budget fails exactly the affected requests
//!   with [`ServeError::DeviceFault`]. A source may retry its extraction
//!   under the same policy.
//! * **Worker death** (lost device or panic) is detected by the
//!   [`Supervisor`]: the dead worker's parked batch is salvaged *exactly
//!   once* to the lane its source names (a second death, or no lane to
//!   go to, fails those requests with [`ServeError::WorkerLost`]) and the
//!   worker is respawned within a bounded budget — on a fresh fault-free
//!   device by default. A lane whose workers are all retired is flagged,
//!   and its source routes around it.
//! * **Degradation ladder** ([`DegradationController`]): under pressure
//!   (deep queues and/or dead workers) workers first serve stale cache
//!   entries, then sample, then truncate extraction depth — as far as the
//!   source supports — and finally `submit` sheds new load. Degraded
//!   responses are flagged ([`Degradation`]); truncated outputs cache
//!   under their own depth key, approximate (sampled or partial) rows are
//!   never cached.
//! * A worker panic while holding a lane's cache lock poisons it;
//!   `Core::lock_cache` recovers the lock and invalidates that cache
//!   once, so a torn write can never be served.
//!
//! [`GnnServer`]: crate::server::GnnServer
//! [`ShardedServer`]: crate::sharded::ShardedServer

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use gpu_sim::{DeviceConfig, FaultPlan, LaunchError};
use telemetry::{SloMonitor, TraceContext};
use tlpgnn::{EngineOptions, GnnNetwork, TlpgnnEngine};
use tlpgnn_graph::subgraph::EgoGraph;
use tlpgnn_shard::HaloStats;
use tlpgnn_tensor::Matrix;

use crate::batcher::{BatchQueue, PushError};
use crate::cache::{CacheKey, FeatureCache, Lookup};
use crate::policy::{DegradationController, DegradationLevel};
use crate::request::{Degradation, Request, RequestTiming, Response, ServeError};
use crate::server::ServeConfig;
use crate::supervisor::{DeathCause, HealthSnapshot, Supervisor, WorkerExit};

/// Model version stamped into every cache key: a server holds one
/// network for its whole life.
const MODEL_VERSION: u32 = 1;

/// Where the graph lives: the only thing the two servers disagree on.
pub(crate) trait GraphSource: Sized + Send + Sync + 'static {
    /// What a request pins at admission and is served against.
    type View: Clone + Send + 'static;
    /// Extraction state a worker keeps for its generation's lifetime.
    type Worker: Default;
    /// The deepest worker-side ladder rung this source can extract for.
    const MAX_RUNG: DegradationLevel;

    /// The graph epoch a view was pinned at.
    fn epoch(view: &Self::View) -> u64;

    /// Validate `targets` against the graph and pin the view they will
    /// be served against.
    fn pin(&self, targets: &[u32]) -> Result<Self::View, ServeError>;

    /// Choose the lane that serves an admitted request, recording the
    /// decision on `trace` directly after `submit`. `Err(lane)` when no
    /// lane can serve it (`lane` is billed the SLO error).
    fn route(
        &self,
        core: &Core<Self>,
        view: &Self::View,
        targets: &[u32],
        trace: &TraceContext,
    ) -> Result<usize, usize>;

    /// Extract the ego graph and feature rows of a batch's cache misses.
    /// `None` when the source's own retry budget ran out.
    fn extract(
        &self,
        core: &Core<Self>,
        worker: &mut Self::Worker,
        job: &ExtractJob<'_, Self::View>,
    ) -> Option<Extracted>;

    /// The lane that may take over the parked batch of a worker that
    /// died on `lane`, if any.
    fn salvage_lane(&self, core: &Core<Self>, lane: usize) -> Option<usize>;
}

/// One extraction request from the pipeline to its [`GraphSource`].
pub(crate) struct ExtractJob<'a, V> {
    pub lane: usize,
    /// The single-epoch batch; every request shares `batch[0]`'s view.
    pub batch: &'a Batch<V>,
    /// Unique cache-miss targets, first-occurrence order.
    pub misses: &'a [u32],
    pub hops: usize,
    /// Cap expanded rows at `ServeConfig::sample_fanout` seeded-sampled
    /// in-neighbors (the `Sampled` rung).
    pub sampled: bool,
}

/// What a [`GraphSource`] hands back for one [`ExtractJob`].
pub(crate) struct Extracted {
    pub ego: EgoGraph,
    pub feats: Matrix,
    /// Modelled interconnect time charged to the batch's latency.
    pub halo_ms: f64,
    /// Rows were unreachable: the answer is approximate, flagged, and
    /// never cached.
    pub partial: bool,
}

/// An admitted request: what to serve, its absolute deadline, how often
/// it has been salvaged after a worker death, where to answer, and the
/// view pinned at submission. Cloneable so a worker can park a salvage
/// copy while it processes — the clone shares the same causal chain, so
/// events appended by either copy land in one history.
#[derive(Clone)]
pub(crate) struct Pending<V> {
    pub request: Request,
    pub deadline: Option<Instant>,
    pub requeues: u32,
    pub trace: TraceContext,
    pub tx: mpsc::Sender<Result<Response, ServeError>>,
    pub view: V,
}

pub(crate) type Batch<V> = Vec<(Pending<V>, Instant)>;

/// Bump a counter and the metric that mirrors it.
pub(crate) fn count(counter: &AtomicU64, name: &str, by: u64) {
    counter.fetch_add(by, Ordering::Relaxed);
    telemetry::counter_add(name, by);
}

/// Append one event to the chain of every request in `batch`.
pub(crate) fn trace_all<V>(batch: &Batch<V>, kind: &'static str, detail: impl Fn() -> String) {
    for (p, _) in batch {
        p.trace.push(kind, &detail);
    }
}

/// The single metric-name table: one row per name, pre-rendered under the
/// server's `metrics_prefix` so the hot path never formats strings.
macro_rules! metric_names {
    ($($field:ident => $suffix:literal,)*) => {
        pub(crate) struct Names { $(pub $field: String,)* }
        impl Names {
            fn new(prefix: &str) -> Self {
                Self { $($field: format!(concat!("{}.", $suffix), prefix),)* }
            }
        }
    };
}

metric_names! {
    batch_size => "batch_size",
    queue_ms => "queue_ms",
    extraction_ms => "extraction_ms",
    compute_ms => "compute_ms",
    halo_ms => "halo_ms",
    e2e_latency_ms => "e2e_latency_ms",
    completed => "completed",
    rejected => "rejected",
    cache_hits => "cache.hits",
    cache_misses => "cache.misses",
    cache_hit_rate => "cache.hit_rate",
    cache_poison_recovered => "cache.poison_recovered",
    mutation_evictions => "cache.mutation_evictions",
    degradation_level => "degradation_level",
    deadline_exceeded => "deadline_exceeded",
    retries => "retries",
    requeued => "requeued",
    failover => "failover",
    worker_lost => "worker_lost",
    shard_retired => "shard_retired",
    degraded => "degraded",
    partial => "partial",
    sampled => "sampled",
    sampled_extraction_ms => "sampled.extraction_ms",
    sampled_compute_ms => "sampled.compute_ms",
    epoch => "epoch",
    mutations => "mutations",
    halo_retries => "halo.retries",
    halo_fetch_batches => "halo.fetch_batches",
    halo_fetched_rows => "halo.fetched_rows",
    halo_fetched_features => "halo.fetched_features",
    halo_fetched_bytes => "halo.fetched_bytes",
    halo_replica_hits => "halo.replica_hits",
    halo_local_hits => "halo.local_hits",
    halo_mirror_hits => "halo.mirror_hits",
    batch_alloc_bytes => "batch.alloc_bytes",
    batch_allocs => "batch.allocs",
    request_alloc_bytes => "request.alloc_bytes",
    slo_prefix => "slo",
}

/// Metric names one lane publishes under, supplied by the façade.
pub(crate) struct LaneNames {
    /// Queue-depth gauge.
    pub depth: String,
    /// Per-lane names; a lane without them publishes only the global
    /// names and keeps no SLO monitor of its own.
    pub own: Option<OwnNames>,
}

/// A lane's own completion counter, latency histogram and SLO gauges.
pub(crate) struct OwnNames {
    pub completed: String,
    pub e2e_latency_ms: String,
    pub slo_prefix: String,
}

/// One queue, one cache, and the workers draining them.
pub(crate) struct Lane<V> {
    pub queue: BatchQueue<Pending<V>>,
    cache: Mutex<FeatureCache>,
    depth_gauge: String,
    pub own: Option<(OwnNames, SloMonitor)>,
    completed: AtomicU64,
    /// Workers of this lane still in rotation. Falls monotonically, only
    /// from the supervisor's retire hook (circuit open or respawn budget
    /// spent); the lane is retired at zero. Routing and extraction read
    /// liveness from here — *not* from the transient
    /// dead-between-respawns window, so same-seed event logs stay
    /// deterministic: during a respawn window requests keep queueing at
    /// the dying lane and are served after the re-warm.
    live_workers: AtomicUsize,
}

/// Every counter either server reports, in one block: one row declares
/// the atomic and carries it into the [`ServeStats`] snapshot.
macro_rules! counters {
    ($($name:ident,)*) => {
        #[derive(Default)]
        pub(crate) struct Counters {
            $(pub $name: AtomicU64,)*
            pub halo: Mutex<HaloStats>,
        }
        impl Counters {
            fn snapshot(&self) -> ServeStats {
                ServeStats {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                    halo: *lock(&self.halo),
                    ..ServeStats::default()
                }
            }
        }
    };
}

counters! {
    completed,
    rejected,
    batches,
    computed_targets,
    deadline_exceeded,
    retries,
    halo_retries,
    device_faults,
    requeued,
    failovers,
    worker_lost,
    worker_deaths,
    respawns,
    degraded,
    partial,
    sampled,
    poison_recoveries,
    mutations,
    mutation_evictions,
    compactions,
}

/// Counter snapshot of a running (or stopped) server. Both servers
/// report this one struct; a counter whose machinery a server lacks (halo
/// exchange on one device, mutations on the sharded tier) reads zero.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeStats {
    /// Requests answered with a [`Response`].
    pub completed: u64,
    /// Requests rejected with [`ServeError::Overloaded`].
    pub rejected: u64,
    /// Batches executed by the workers.
    pub batches: u64,
    /// Target rows computed on an engine (cache misses actually served).
    pub computed_targets: u64,
    /// Feature-cache lookup hits, summed over the lanes' caches.
    pub cache_hits: u64,
    /// Feature-cache lookup misses.
    pub cache_misses: u64,
    /// Feature-cache evictions.
    pub cache_evictions: u64,
    /// Cache hits that served a past-TTL entry under degraded service.
    pub cache_stale_hits: u64,
    /// Requests shed with [`ServeError::DeadlineExceeded`].
    pub deadline_exceeded: u64,
    /// Batch forward-pass retries after transient device faults.
    pub retries: u64,
    /// Halo-fetch retries after transient interconnect faults.
    pub halo_retries: u64,
    /// Requests failed with [`ServeError::DeviceFault`] (compute or halo
    /// retry budget exhausted).
    pub device_faults: u64,
    /// In-flight requests salvaged after their worker died.
    pub requeued: u64,
    /// Requests re-routed away from their owner shard: supervisor
    /// salvages to a buddy plus submissions steered off a retired shard.
    pub failovers: u64,
    /// Requests failed with [`ServeError::WorkerLost`] (second death, or
    /// a death or submission with no live lane to go to).
    pub worker_lost: u64,
    /// Worker deaths observed (lost devices + panics).
    pub worker_deaths: u64,
    /// Workers respawned by the supervisor.
    pub respawns: u64,
    /// Responses served with any [`Degradation`] flag set.
    pub degraded: u64,
    /// Responses flagged [`Degradation::partial`] (receptive field
    /// touched a dead, un-mirrored shard).
    pub partial: u64,
    /// Responses served from a sampled (fanout-capped) extraction,
    /// flagged `degraded.sampled`.
    pub sampled: u64,
    /// Cache-lock poison events recovered (that cache invalidated each
    /// time).
    pub poison_recoveries: u64,
    /// Graph mutations applied (individual accepted operations).
    pub mutations: u64,
    /// The current graph epoch (0 for a never-mutated graph).
    pub epoch: u64,
    /// Cache entries evicted by mutation invalidation (receptive field
    /// touched a dirty vertex); disjoint from `cache_evictions`.
    pub mutation_evictions: u64,
    /// Delta-into-base compactions performed.
    pub compactions: u64,
    /// Requests completed per lane: indexed by shard on the sharded
    /// server, a single entry on the single-device one.
    pub per_shard_completed: Vec<u64>,
    /// Aggregate halo-exchange accounting across all extractions.
    pub halo: HaloStats,
}

/// A handle on one submitted request; [`wait`](ResponseHandle::wait)
/// blocks until the serving worker answers.
#[derive(Debug)]
pub struct ResponseHandle {
    rx: mpsc::Receiver<Result<Response, ServeError>>,
    shutting_down: Arc<AtomicBool>,
}

impl ResponseHandle {
    /// Block until the request is served (or failed). A dropped channel
    /// during shutdown resolves to [`ServeError::ShuttingDown`]; outside
    /// shutdown it means the serving worker died
    /// ([`ServeError::WorkerLost`]).
    pub fn wait(self) -> Result<Response, ServeError> {
        self.rx.recv().unwrap_or_else(|_| {
            Err(if self.shutting_down.load(Ordering::Acquire) {
                ServeError::ShuttingDown
            } else {
                ServeError::WorkerLost
            })
        })
    }

    /// Non-blocking poll; `None` while the request is still in flight.
    pub fn try_wait(&self) -> Option<Result<Response, ServeError>> {
        self.rx.try_recv().ok()
    }
}

/// The state shared by `submit`, the workers and the supervisor hooks.
pub(crate) struct Core<S: GraphSource> {
    pub source: S,
    pub net: GnnNetwork,
    pub exact_hops: usize,
    /// The pipeline's knobs; `workers` is the worker count *per lane*.
    pub cfg: ServeConfig,
    /// Entry `slot` replaces `cfg.device.fault` on that supervisor slot
    /// as-is (no salting).
    per_slot_fault: Option<Vec<FaultPlan>>,
    pub lanes: Vec<Lane<S::View>>,
    /// Per-slot parking spot for the batch a worker is processing; the
    /// supervisor salvages it if the worker dies mid-batch.
    in_flight: Vec<Mutex<Option<Batch<S::View>>>>,
    pub degradation: DegradationController,
    shutting_down: Arc<AtomicBool>,
    pub names: Names,
    /// Trace ids derive from this submission-order counter — never from
    /// the wall clock — so same-seed runs allocate identical ids.
    next_trace: AtomicU64,
    pub slo: SloMonitor,
    pub counters: Counters,
}

pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl<S: GraphSource> Core<S> {
    /// Whether every worker of `lane` has been permanently retired.
    pub(crate) fn is_retired(&self, lane: usize) -> bool {
        self.lanes[lane].live_workers.load(Ordering::Acquire) == 0
    }

    /// Lock a lane's feature cache, recovering from poison. A worker
    /// that dies while holding the lock may have left a torn write
    /// behind, so the first recovery invalidates that whole cache —
    /// recomputing is cheap, serving a corrupt row is not.
    pub(crate) fn lock_cache(&self, lane: usize) -> MutexGuard<'_, FeatureCache> {
        let cache = &self.lanes[lane].cache;
        cache.lock().unwrap_or_else(|poisoned| {
            cache.clear_poison();
            let mut guard = poisoned.into_inner();
            guard.clear();
            let recovered = &self.counters.poison_recoveries;
            count(recovered, &self.names.cache_poison_recovered, 1);
            guard
        })
    }

    /// Feed one outcome to the global SLO monitor and the lane's own —
    /// a completion's latency, or `None` for an unflagged failure (burns
    /// error budget) — and refresh their gauges.
    fn slo_record(&self, lane: usize, latency_ms: Option<f64>) {
        let own = self.lanes[lane].own.as_ref();
        let own = own.map(|(names, slo)| (slo, &names.slo_prefix));
        for (slo, prefix) in std::iter::once((&self.slo, &self.names.slo_prefix)).chain(own) {
            match latency_ms {
                Some(ms) => slo.record_ok(ms),
                None => slo.record_error(),
            }
            slo.publish(prefix);
        }
    }

    /// Terminate an overload rejection: count it, close its chain, and
    /// burn error budget (a rejection is an unflagged failure).
    fn reject(&self, lane: usize, trace: &TraceContext, why: &'static str) -> ServeError {
        count(&self.counters.rejected, &self.names.rejected, 1);
        trace.finish("reject", || format!("overloaded ({why})"));
        self.slo_record(lane, None);
        ServeError::Overloaded
    }

    /// Submit one request. Returns immediately with a handle, or fails
    /// fast; see the façades for the error contract.
    pub fn submit(&self, request: Request) -> Result<ResponseHandle, ServeError> {
        if request.targets.is_empty() {
            return Err(ServeError::EmptyRequest);
        }
        let view = self.source.pin(&request.targets)?;
        // Malformed input above is a caller bug and gets no chain; every
        // well-formed submission is traced from here on.
        let trace = TraceContext::new(self.next_trace.fetch_add(1, Ordering::Relaxed) + 1);
        trace.push("submit", || {
            format!(
                "targets={} hops={}",
                request.targets.len(),
                request
                    .hops
                    .map_or_else(|| "exact".to_string(), |h| h.to_string()),
            )
        });
        let lane = match self.source.route(self, &view, &request.targets, &trace) {
            Ok(lane) => lane,
            Err(billed) => {
                count(&self.counters.worker_lost, &self.names.worker_lost, 1);
                trace.finish("reject", || "worker_lost (no live lane)".to_string());
                self.slo_record(billed, None);
                return Err(ServeError::WorkerLost);
            }
        };
        if self.degradation.level() == DegradationLevel::Shed {
            return Err(self.reject(lane, &trace, "shed"));
        }
        let (tx, rx) = mpsc::channel();
        let pending = Pending {
            deadline: request.deadline.map(|d| Instant::now() + d),
            request,
            requeues: 0,
            trace: trace.clone(),
            tx,
            view,
        };
        // The `enqueue` event is recorded under the queue lock: once
        // `push` returns, a worker may already have finished the whole
        // request, and a late event would land out of chain order.
        let admitted = self.lanes[lane].queue.push_with(pending, |depth| {
            telemetry::gauge_set(&self.lanes[lane].depth_gauge, depth as f64);
            trace.push("enqueue", || format!("depth={depth}"));
        });
        match admitted {
            Ok(_) => Ok(ResponseHandle {
                rx,
                shutting_down: Arc::clone(&self.shutting_down),
            }),
            Err(PushError::Full(_)) => Err(self.reject(lane, &trace, "queue_full")),
            Err(PushError::ShutDown(_)) => {
                // Administrative refusal: close the chain but burn no
                // error budget — shutdown is not a service failure.
                trace.finish("reject", || "shutting_down".to_string());
                Err(ServeError::ShuttingDown)
            }
        }
    }

    /// A snapshot of the counters (`epoch` is the façade's to fill in).
    pub fn stats(&self) -> ServeStats {
        let mut stats = self.counters.snapshot();
        for (i, lane) in self.lanes.iter().enumerate() {
            let done = lane.completed.load(Ordering::Relaxed);
            stats.per_shard_completed.push(done);
            let cache = self.lock_cache(i);
            stats.cache_hits += cache.hits();
            stats.cache_misses += cache.misses();
            stats.cache_evictions += cache.evictions();
            stats.cache_stale_hits += cache.stale_hits();
        }
        stats
    }

    /// After a transient fault on `attempt`: sleep the retry policy's
    /// next backoff (counted under `counter`/`name`, traced as `retry`)
    /// and return true — or false once the budget is spent.
    pub(crate) fn back_off(
        &self,
        batch: &Batch<S::View>,
        attempt: u32,
        counter: &AtomicU64,
        name: &str,
        detail: impl Fn(Duration) -> String,
    ) -> bool {
        // Retry only helps requests still inside their deadlines; the
        // batch's latest deadline caps the backoff schedule.
        let cap = if batch.iter().all(|(p, _)| p.deadline.is_some()) {
            batch.iter().filter_map(|(p, _)| p.deadline).max()
        } else {
            None
        };
        let Some(backoff) = self.cfg.retry.schedule(attempt, Instant::now(), cap) else {
            return false;
        };
        count(counter, name, 1);
        trace_all(batch, "retry", || detail(backoff));
        std::thread::sleep(backoff);
        true
    }

    /// Supervisor death hook: salvage the dead worker's parked batch.
    fn salvage(&self, slot: usize, cause: DeathCause) {
        self.counters.worker_deaths.fetch_add(1, Ordering::Relaxed);
        let Some(batch) = lock(&self.in_flight[slot]).take() else {
            return;
        };
        let from = slot / self.cfg.workers;
        let to = self.source.salvage_lane(self, from);
        // Reverse so requeue_front restores the original order.
        for (mut p, enqueued) in batch.into_iter().rev() {
            match (p.requeues, to) {
                (0, Some(to)) => {
                    p.requeues = 1;
                    count(&self.counters.requeued, &self.names.requeued, 1);
                    p.trace
                        .push("salvage", || format!("cause={}", cause.label()));
                    if to != from {
                        count(&self.counters.failovers, &self.names.failover, 1);
                        p.trace
                            .push("shard_failover", || format!("from={from} to={to}"));
                    }
                    self.lanes[to].queue.requeue_front(p, enqueued);
                }
                (requeues, _) => {
                    count(&self.counters.worker_lost, &self.names.worker_lost, 1);
                    let mut why = format!("cause={}", cause.label());
                    if requeues == 0 {
                        // First death, but no live lane can reach this
                        // one's rows: the work has nowhere to go.
                        why.push_str(" buddy=none");
                        p.trace.push("salvage", || why.clone());
                    }
                    // Otherwise a second death with this request in
                    // flight: fail it rather than requeue forever.
                    p.trace.finish("error", || format!("worker_lost {why}"));
                    self.slo_record(from, None);
                    let _ = p.tx.send(Err(ServeError::WorkerLost));
                }
            }
        }
    }

    /// Supervisor retire hook: one of `slot`'s lane's workers left
    /// rotation for good.
    fn retire(&self, slot: usize) {
        let lane = &self.lanes[slot / self.cfg.workers];
        if lane.live_workers.fetch_sub(1, Ordering::AcqRel) == 1 {
            telemetry::counter_add(&self.names.shard_retired, 1);
        }
    }

    /// Supervisor tick: feed pool health into the degradation ladder
    /// (pressure = deepest queue load + dead-worker fraction).
    fn tick(&self, h: HealthSnapshot) {
        let load = self
            .lanes
            .iter()
            .map(|l| l.queue.len() as f64 / l.queue.capacity() as f64)
            .fold(0.0, f64::max);
        let level = self.degradation.update(load, h.unhealthy_frac());
        telemetry::gauge_set(&self.names.degradation_level, level as u8 as f64);
        self.counters.respawns.store(h.respawns, Ordering::Relaxed);
    }

    /// Respond `DeadlineExceeded` to every request already past its
    /// deadline and return the rest. Runs before compute — and before
    /// the batch is parked, so a shed request is never salvaged.
    fn shed_expired(&self, lane: usize, batch: Batch<S::View>) -> Batch<S::View> {
        let now = Instant::now();
        let (live, expired): (Batch<S::View>, Batch<S::View>) = batch
            .into_iter()
            .partition(|(p, _)| p.deadline.is_none_or(|d| now < d));
        for (p, _) in expired {
            let shed = &self.counters.deadline_exceeded;
            count(shed, &self.names.deadline_exceeded, 1);
            p.trace.push("shed", || "deadline passed".to_string());
            p.trace.finish("error", || "deadline_exceeded".to_string());
            self.slo_record(lane, None);
            let _ = p.tx.send(Err(ServeError::DeadlineExceeded));
        }
        live
    }

    fn worker_loop(&self, slot: usize, device: DeviceConfig) -> WorkerExit {
        let lane_idx = slot / self.cfg.workers;
        let lane = &self.lanes[lane_idx];
        let mut engine = TlpgnnEngine::new(device, EngineOptions::default());
        let mut worker = S::Worker::default();
        while let Some(batch) = lane.queue.pop_batch() {
            telemetry::gauge_set(&lane.depth_gauge, lane.queue.len() as f64);
            let mut batch = self.shed_expired(lane_idx, batch);
            if batch.is_empty() {
                continue;
            }
            // Group by pinned epoch: each group is served against one
            // consistent view (one extraction, one forward pass). The
            // stable sort keeps submission order within an epoch and
            // ascending epochs keep same-seed replays deterministic. A
            // never-mutated graph always yields exactly one group.
            batch.sort_by_key(|(p, _)| S::epoch(&p.view));
            // Park one salvage copy of the whole batch before touching
            // the engine and trim it as groups are answered: if this
            // worker dies mid-group, the supervisor requeues exactly the
            // requests that have not been responded to.
            *lock(&self.in_flight[slot]) = Some(batch.clone());
            while !batch.is_empty() {
                let epoch = S::epoch(&batch[0].0.view);
                let n = batch.partition_point(|(p, _)| S::epoch(&p.view) == epoch);
                let group: Batch<S::View> = batch.drain(..n).collect();
                // On a lost device the unanswered groups stay parked:
                // the supervisor salvages them.
                if let Err(exit) = self.process_batch(&mut engine, &mut worker, lane_idx, group) {
                    return exit;
                }
                if let Some(parked) = lock(&self.in_flight[slot]).as_mut() {
                    parked.drain(..n);
                }
            }
            lock(&self.in_flight[slot]).take();
        }
        WorkerExit::Drained
    }

    /// Serve one single-epoch batch: all requests share one view, so one
    /// extraction and one forward pass serve the union of their misses,
    /// and cache keys carry the group's epoch. `Err` is how the worker
    /// must exit: its device is gone and nothing was answered.
    fn process_batch(
        &self,
        engine: &mut TlpgnnEngine,
        worker: &mut S::Worker,
        lane_idx: usize,
        batch: Batch<S::View>,
    ) -> Result<(), WorkerExit> {
        let _span = telemetry::span!("serve.process_batch", requests = batch.len());
        // Per-batch allocation accounting: free when no counting
        // allocator is installed (the deltas read zero), real
        // bytes/allocs when the `perf_report` binary installs one.
        let alloc0 = telemetry::alloc::thread_alloc_stats();
        let picked_up = Instant::now();
        let (m, cfg, lane) = (&self.names, &self.cfg, &self.lanes[lane_idx]);
        let classes = self.net.out_dim();
        let level = self.degradation.level().min(S::MAX_RUNG);
        let epoch = S::epoch(&batch[0].0.view);
        debug_assert!(
            batch.iter().all(|(p, _)| S::epoch(&p.view) == epoch),
            "process_batch requires a single-epoch group"
        );
        trace_all(&batch, "pickup", || format!("batch={}", batch.len()));

        // Unique targets across the batch, first-occurrence order: the
        // coalescing step — overlapping ego-graphs extract once.
        let mut uniq: Vec<u32> = Vec::new();
        let mut seen: HashSet<u32> = HashSet::new();
        for (p, _) in &batch {
            uniq.extend(p.request.targets.iter().filter(|&&t| seen.insert(t)));
        }

        // Effective extraction depth for the whole batch: the deepest
        // request, minus one level under ladder reduction. The cache is
        // keyed by this depth, so a truncated row can only ever be
        // served to a lookup at the depth it was computed at.
        let requested_hops = batch
            .iter()
            .map(|(p, _)| p.request.hops.unwrap_or(self.exact_hops))
            .max()
            .unwrap_or(self.exact_hops);
        let mut hops = requested_hops;
        let reduced = level >= DegradationLevel::ReducedHops && hops > 1;
        if reduced {
            hops -= 1;
            // Trace the ladder only when its decision changed this
            // batch's behaviour — a level that alters nothing leaves no
            // causal mark, which keeps same-seed chains identical even
            // when the monitor's sampling of a transient level races the
            // batch.
            trace_all(&batch, "ladder", || {
                format!("level={} hops={requested_hops}->{hops}", level.label())
            });
        }
        // The Sampled rung: full depth, but each expanded row is capped
        // to `sample_fanout` seeded-sampled in-neighbors. ReducedHops and
        // above supersede it (hop truncation is the stronger measure).
        let sampling = level == DegradationLevel::Sampled && cfg.sample_fanout > 0 && hops > 0;
        if sampling {
            trace_all(&batch, "ladder", || {
                format!("level=sampled fanout={}", cfg.sample_fanout)
            });
        }
        let key = |vertex: u32| CacheKey {
            vertex,
            layer: self.net.depth() as u16,
            hops: hops as u16,
            version: MODEL_VERSION,
            shard: lane_idx as u16,
            epoch,
        };

        // Cache pass: pull every hit, collect the misses. Past-TTL
        // entries count as hits only when the ladder permits stale
        // service.
        let mut rows: HashMap<u32, Vec<f32>> = HashMap::with_capacity(uniq.len());
        let mut miss_targets: Vec<u32> = Vec::new();
        let mut stale_targets: HashSet<u32> = HashSet::new();
        {
            let _span = telemetry::span!("serve.cache_lookup", targets = uniq.len());
            let grace = if level >= DegradationLevel::StaleOk {
                cfg.stale_grace
            } else {
                Duration::ZERO
            };
            let mut cache = self.lock_cache(lane_idx);
            let hits_before = cache.hits();
            for &t in &uniq {
                match cache.get_aged(key(t), cfg.cache_ttl, grace) {
                    Lookup::Fresh(row) => {
                        rows.insert(t, row.to_vec());
                    }
                    Lookup::Stale(row) => {
                        rows.insert(t, row.to_vec());
                        stale_targets.insert(t);
                    }
                    Lookup::Miss => miss_targets.push(t),
                }
            }
            telemetry::counter_add(&m.cache_hits, cache.hits() - hits_before);
            telemetry::counter_add(&m.cache_misses, miss_targets.len() as u64);
            telemetry::gauge_set(&m.cache_hit_rate, cache.hit_rate());
        }
        // Per-request cache outcome (rows currently holds only hits).
        for (p, _) in &batch {
            p.trace.push("cache", || {
                let targets = &p.request.targets;
                let stale = targets.iter().filter(|t| stale_targets.contains(t)).count();
                let hits = targets.iter().filter(|t| rows.contains_key(t)).count();
                format!(
                    "hits={} stale={stale} miss={}",
                    hits - stale,
                    targets.len() - hits
                )
            });
        }

        // One extraction + one forward pass for every miss in the batch.
        let (mut extract_ms, mut halo_ms, mut compute_ms) = (0.0, 0.0, 0.0);
        let mut partial = false;
        if !miss_targets.is_empty() {
            let t0 = Instant::now();
            let extracted = {
                let _span =
                    telemetry::span!("serve.extract", misses = miss_targets.len(), hops = hops);
                let job = ExtractJob {
                    lane: lane_idx,
                    batch: &batch,
                    misses: &miss_targets,
                    hops,
                    sampled: sampling,
                };
                self.source.extract(self, worker, &job)
            };
            extract_ms = ms(t0.elapsed());
            telemetry::observe(&m.extraction_ms, extract_ms);
            if sampling {
                telemetry::observe(&m.sampled_extraction_ms, extract_ms);
            }

            // `None` is the source's retry budget running out: `rows`
            // stays without the miss targets, exactly as when the compute
            // budget runs out below.
            if let Some(x) = extracted {
                halo_ms = x.halo_ms;
                partial = x.partial;
                let t1 = Instant::now();
                let mut attempt = 0u32;
                // gpu-sim tags injected faults with the trace whose
                // launch hit them: mark the batch leader as current for
                // the compute span.
                telemetry::trace::set_current(batch[0].0.trace.id());
                let out = loop {
                    trace_all(&batch, "attempt", || format!("idx={attempt}"));
                    let _span = telemetry::span!("serve.compute", vertices = x.ego.vertices.len());
                    match engine.try_classify_forward(&self.net, &x.ego.csr, &x.feats) {
                        Ok((out, _profile)) => break Some(out),
                        Err(LaunchError::DeviceLost) => {
                            telemetry::trace::set_current(0);
                            // Not terminal for the chain: the supervisor
                            // salvages the parked copy and appends
                            // `salvage` next.
                            trace_all(&batch, "fault", || "device_lost".to_string());
                            return Err(WorkerExit::DeviceLost);
                        }
                        Err(LaunchError::TransientFault { .. }) => {
                            attempt += 1;
                            trace_all(&batch, "fault", || format!("transient attempt={attempt}"));
                            let retries = &self.counters.retries;
                            if !self.back_off(&batch, attempt, retries, &m.retries, |b| {
                                format!("attempt={attempt} backoff_us={}", b.as_micros())
                            }) {
                                break None;
                            }
                        }
                    }
                };
                telemetry::trace::set_current(0);
                compute_ms = ms(t1.elapsed());
                telemetry::observe(&m.compute_ms, compute_ms);
                if sampling {
                    telemetry::observe(&m.sampled_compute_ms, compute_ms);
                }

                if let Some(out) = out {
                    // Rows cache under the depth they were computed at —
                    // exact for that depth, invisible to lookups at any
                    // other depth. Sampled and partial rows are
                    // approximations and are never cached: a later
                    // healthy lookup must not inherit a degraded answer.
                    let mut cache = self.lock_cache(lane_idx);
                    for (local, &orig) in x.ego.targets().iter().enumerate() {
                        if cfg.chaos_panic_on_vertex == Some(orig) {
                            panic!("chaos: worker killed inserting vertex {orig}");
                        }
                        let row = out.row(local).to_vec();
                        if !sampling && !partial {
                            cache.insert(key(orig), row.clone());
                        }
                        rows.insert(orig, row);
                    }
                    self.counters
                        .computed_targets
                        .fetch_add(miss_targets.len() as u64, Ordering::Relaxed);
                }
            }
        }

        telemetry::observe(&m.batch_size, batch.len() as f64);
        self.counters.batches.fetch_add(1, Ordering::Relaxed);

        // Assemble and deliver per-request responses. A request whose
        // targets are all resolved gets a response; one still missing
        // rows (a retry budget exhausted) fails with `DeviceFault` —
        // terminally resolved either way.
        let _respond = telemetry::span!("serve.respond", requests = batch.len());
        let miss_set: HashSet<u32> = miss_targets.iter().copied().collect();
        for (p, enqueued) in batch.iter() {
            let targets = &p.request.targets;
            if targets.iter().any(|t| !rows.contains_key(t)) {
                self.counters.device_faults.fetch_add(1, Ordering::Relaxed);
                p.trace.finish("error", || {
                    "device_fault (retry budget exhausted)".to_string()
                });
                self.slo_record(lane_idx, None);
                let _ = p.tx.send(Err(ServeError::DeviceFault));
                continue;
            }
            let mut data = Vec::with_capacity(targets.len() * classes);
            for t in targets {
                data.extend_from_slice(&rows[t]);
            }
            let computed = targets.iter().filter(|t| miss_set.contains(t)).count();
            let queue_ms = ms(picked_up.duration_since(*enqueued));
            telemetry::observe(&m.queue_ms, queue_ms);
            let timing = RequestTiming {
                queue_ms,
                // Halo transfer time is part of getting the subgraph
                // onto the device, so it reports under extraction.
                extract_ms: extract_ms + halo_ms,
                compute_ms,
                batch_size: batch.len(),
                cache_hits: targets.len() - computed,
            };
            let degraded = Degradation {
                stale_cache: targets.iter().any(|t| stale_targets.contains(t)),
                // Under reduction every row this batch serves — computed
                // or cache-hit — is at the truncated depth; flag any
                // request that asked for more.
                reduced_hops: reduced && p.request.hops.unwrap_or(self.exact_hops) > hops,
                // Sampling and partial extraction only taint rows
                // computed this batch; cache hits were full-fidelity
                // when computed (approximate rows never enter the cache).
                sampled: sampling && computed > 0,
                partial: partial && computed > 0,
            };
            if degraded.any() {
                count(&self.counters.degraded, &m.degraded, 1);
                if degraded.sampled {
                    count(&self.counters.sampled, &m.sampled, 1);
                }
                if degraded.partial {
                    count(&self.counters.partial, &m.partial, 1);
                }
                p.trace.push("degrade", || {
                    format!(
                        "stale_cache={} reduced_hops={} sampled={} partial={}",
                        degraded.stale_cache,
                        degraded.reduced_hops,
                        degraded.sampled,
                        degraded.partial
                    )
                });
            }
            let outputs = Matrix::from_vec(targets.len(), classes, data);
            // The simulator prices halo transfers, it does not sleep:
            // charge the modelled time on top of the wall clock.
            let e2e = ms(enqueued.elapsed()) + halo_ms;
            telemetry::observe(&m.e2e_latency_ms, e2e);
            count(&self.counters.completed, &m.completed, 1);
            lane.completed.fetch_add(1, Ordering::Relaxed);
            if let Some((own, _)) = &lane.own {
                telemetry::observe(&own.e2e_latency_ms, e2e);
                telemetry::counter_add(&own.completed, 1);
            }
            let trace = p.trace.finish("response", || {
                if degraded.any() { "degraded" } else { "ok" }.to_string()
            });
            self.slo_record(lane_idx, Some(e2e));
            // A dropped handle just means the client stopped waiting.
            let _ = p.tx.send(Ok(Response {
                outputs,
                timing,
                degraded,
                epoch,
                trace,
            }));
        }
        if telemetry::enabled() && telemetry::alloc::alloc_counting_installed() {
            let d = telemetry::alloc::thread_alloc_stats().since(&alloc0);
            if d.allocs > 0 {
                telemetry::observe(&m.batch_alloc_bytes, d.bytes as f64);
                telemetry::observe(&m.batch_allocs, d.allocs as f64);
                telemetry::observe(&m.request_alloc_bytes, d.bytes as f64 / batch.len() as f64);
            }
        }
        Ok(())
    }
}

/// A running pipeline: the shared core plus the supervisor that owns its
/// worker threads. Dropping it drains and joins.
pub(crate) struct Pipeline<S: GraphSource> {
    pub core: Arc<Core<S>>,
    supervisor: Option<Supervisor>,
}

impl<S: GraphSource> Pipeline<S> {
    /// Start one lane per entry of `lanes`, each with `cfg.workers`
    /// supervised workers over its own queue and cache.
    pub fn start(
        cfg: ServeConfig,
        lanes: Vec<LaneNames>,
        per_slot_fault: Option<Vec<FaultPlan>>,
        source: S,
        net: GnnNetwork,
    ) -> Self {
        assert!(cfg.workers >= 1, "need at least one worker");
        let slots = lanes.len() * cfg.workers;
        let lanes = lanes
            .into_iter()
            .map(|names| Lane {
                queue: BatchQueue::new(cfg.queue_capacity, cfg.max_batch, cfg.max_wait),
                cache: Mutex::new(FeatureCache::new(cfg.cache_capacity)),
                depth_gauge: names.depth,
                own: names.own.map(|own| (own, SloMonitor::new(cfg.slo.clone()))),
                completed: AtomicU64::new(0),
                live_workers: AtomicUsize::new(cfg.workers),
            })
            .collect();
        let core = Arc::new(Core {
            source,
            exact_hops: net.receptive_hops(),
            net,
            per_slot_fault,
            lanes,
            in_flight: (0..slots).map(|_| Mutex::new(None)).collect(),
            degradation: DegradationController::new(cfg.degradation.clone()),
            shutting_down: Arc::new(AtomicBool::new(false)),
            names: Names::new(&cfg.metrics_prefix),
            next_trace: AtomicU64::new(0),
            slo: SloMonitor::new(cfg.slo.clone()),
            counters: Counters::default(),
            cfg,
        });
        let [c0, c1, c2, c3] = [(); 4].map(|()| Arc::clone(&core));
        let spawn = Box::new(move |slot: usize, generation: u32| {
            let core = Arc::clone(&c0);
            let mut device = core.cfg.device.clone();
            device.fault = if generation > 0 {
                // Replacement workers get a fresh fault-free device; the
                // broken one stays out of rotation.
                FaultPlan::none()
            } else {
                match &core.per_slot_fault {
                    Some(plans) => plans[slot].clone(),
                    // Salted so workers fault independently.
                    None => device.fault.with_salt(slot as u64),
                }
            };
            std::thread::Builder::new()
                .name(format!("serve-worker-{slot}.{generation}"))
                .spawn(move || core.worker_loop(slot, device))
                .expect("spawn serving worker")
        });
        let on_death = Box::new(move |slot: usize, cause: DeathCause| c1.salvage(slot, cause));
        let on_retire = Box::new(move |slot: usize| c2.retire(slot));
        let tick = Box::new(move |h: HealthSnapshot| c3.tick(h));
        let cfg = core.cfg.supervisor.clone();
        let supervisor = Supervisor::start(cfg, slots, spawn, on_death, on_retire, tick);
        Self {
            core,
            supervisor: Some(supervisor),
        }
    }

    /// Stop accepting requests, serve everything already queued, join
    /// the workers. Idempotent.
    pub(crate) fn stop_and_join(&mut self) {
        let core = &self.core;
        core.shutting_down.store(true, Ordering::Release);
        for lane in &core.lanes {
            lane.queue.shutdown();
        }
        if let Some(sup) = self.supervisor.take() {
            // Workers drain the queues; deaths during the drain are
            // still salvaged and respawned within budget.
            sup.drain();
            core.counters
                .respawns
                .store(sup.respawns(), Ordering::Relaxed);
            sup.stop();
        }
        // Anything still queued (the respawn budget ran out mid-drain, or
        // a retired lane never got a replacement worker) fails
        // administratively: the drain burns no SLO error budget —
        // shutdown is not a service failure.
        for lane in &core.lanes {
            for (p, _) in lane.queue.drain_remaining() {
                p.trace.finish("error", || "shutting_down".to_string());
                let _ = p.tx.send(Err(ServeError::ShuttingDown));
            }
        }
    }
}

impl<S: GraphSource> Drop for Pipeline<S> {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::server::{GnnServer, LocalSource};
    use crate::sharded::{ShardSource, ShardedConfig, ShardedServer};
    use crate::supervisor::SupervisorConfig;
    use tlpgnn::GnnModel;
    use tlpgnn_graph::{generators, Csr};

    pub(crate) fn fixture() -> (Csr, Matrix, GnnNetwork) {
        let g = generators::rmat_default(300, 2000, 7);
        let x = Matrix::random(300, 8, 1.0, 9);
        let net = GnnNetwork::two_layer(|_| GnnModel::Gin { eps: 0.1 }, 8, 8, 4, 3);
        (g, x, net)
    }

    pub(crate) fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    type Topologies = (
        Pipeline<LocalSource>,
        Pipeline<ShardSource>,
        Pipeline<ShardSource>,
    );

    /// The topologies every shared test runs over: `GnnServer`, and a 1-
    /// and a 2-shard `ShardedServer`. With `dead_lane0`, lane 0's first
    /// launch loses its device and nothing is ever respawned.
    fn topologies(max_batch: usize, dead_lane0: bool) -> Topologies {
        let supervisor = SupervisorConfig {
            max_respawns: 0,
            monitor_interval: Duration::from_millis(2),
            slot_breaker_threshold: 1,
        };
        let lost = FaultPlan::device_lost_at(0);
        let (g, x, net) = fixture();
        let mut cfg = ServeConfig {
            workers: 1,
            max_batch,
            max_wait: Duration::from_millis(1),
            supervisor: supervisor.clone(),
            metrics_prefix: "pipeline.test.single".to_string(),
            ..ServeConfig::default()
        };
        if dead_lane0 {
            cfg.device.fault = lost.clone();
        }
        let single = GnnServer::start(cfg, g, x, net).pipeline;
        let sharded = |shards: usize| {
            let (g, x, net) = fixture();
            let mut plans = vec![FaultPlan::none(); shards];
            plans[0] = lost.clone();
            let cfg = ShardedConfig {
                shards,
                replicate_hot: 8,
                max_batch,
                max_wait: Duration::from_millis(1),
                per_shard_fault: dead_lane0.then_some(plans),
                supervisor: supervisor.clone(),
                metrics_prefix: format!("pipeline.test.sharded{shards}"),
                ..ShardedConfig::default()
            };
            ShardedServer::start(cfg, g, x, net).pipeline
        };
        (single, sharded(1), sharded(2))
    }

    /// Run one generic test body over every topology.
    macro_rules! on_every_topology {
        ($check:ident, $max_batch:expr, $dead_lane0:expr) => {{
            let (single, one, two) = topologies($max_batch, $dead_lane0);
            $check("single", single);
            $check("1-shard", one);
            $check("2-shard", two);
        }};
    }

    fn serve<S: GraphSource>(p: &Pipeline<S>, r: Request) -> Result<Response, ServeError> {
        p.core.submit(r)?.wait()
    }

    #[test]
    fn validates_before_queueing_or_routing() {
        fn check<S: GraphSource>(name: &str, p: Pipeline<S>) {
            let empty = serve(&p, Request::new(vec![]));
            assert_eq!(empty.unwrap_err(), ServeError::EmptyRequest, "{name}");
            let bad = serve(&p, Request::new(vec![10_000]));
            assert_eq!(
                bad.unwrap_err(),
                ServeError::InvalidTarget(10_000),
                "{name}"
            );
            assert_eq!(p.core.stats().completed, 0, "{name}");
        }
        on_every_topology!(check, 4, false);
    }

    #[test]
    fn repeat_requests_hit_the_cache() {
        fn check<S: GraphSource>(name: &str, mut p: Pipeline<S>) {
            let a = serve(&p, Request::new(vec![7])).unwrap();
            let b = serve(&p, Request::new(vec![7])).unwrap();
            assert_eq!(a.outputs.row(0), b.outputs.row(0), "{name}");
            assert_eq!(b.timing.cache_hits, 1, "{name}");
            p.stop_and_join();
            let stats = p.core.stats();
            assert!(stats.cache_hits >= 1, "{name}: second lookup must hit");
            assert_eq!(stats.computed_targets, 1, "{name}: computed only once");
        }
        on_every_topology!(check, 4, false);
    }

    #[test]
    fn submit_after_shutdown_reports_shutting_down() {
        fn check<S: GraphSource>(name: &str, p: Pipeline<S>) {
            for lane in &p.core.lanes {
                lane.queue.shutdown();
            }
            let refused = serve(&p, Request::new(vec![1]));
            assert_eq!(refused.unwrap_err(), ServeError::ShuttingDown, "{name}");
        }
        on_every_topology!(check, 4, false);
    }

    #[test]
    fn expired_deadline_is_shed_not_served() {
        fn check<S: GraphSource>(name: &str, mut p: Pipeline<S>) {
            // A zero deadline is already expired when the worker picks
            // it up.
            let late = serve(&p, Request::new(vec![1]).with_deadline(Duration::ZERO));
            assert_eq!(late.unwrap_err(), ServeError::DeadlineExceeded, "{name}");
            // A generous deadline is served normally.
            let in_time = Request::new(vec![1]).with_deadline(Duration::from_secs(60));
            assert!(serve(&p, in_time).is_ok(), "{name}");
            p.stop_and_join();
            let stats = p.core.stats();
            assert_eq!(stats.deadline_exceeded, 1, "{name}");
            assert_eq!(stats.completed, 1, "{name}");
        }
        on_every_topology!(check, 4, false);
    }

    /// Requests drained at shutdown resolve `ShuttingDown` (not
    /// `WorkerLost`) and burn no SLO error budget; only a genuine loss
    /// does. What a death costs is the one thing the source decides: a
    /// single device requeues the batch on its own lane (so it, too, is
    /// drained), a shard without a live buddy loses it.
    #[test]
    fn shutdown_drain_is_distinguished_from_worker_loss() {
        fn check<S: GraphSource>(name: &str, mut p: Pipeline<S>) {
            let core = Arc::clone(&p.core);
            let lost = u64::from(name != "single");
            let slo_errors = || core.slo.report().total_errors;
            // r1 rides the dying worker; r2 waits behind it on a lane that
            // will never get a replacement. r2 is enqueued directly:
            // whether the supervisor retires the lane before a second
            // `submit` could route is a scheduler race, and the drain
            // contract is about work already queued when the lane went
            // dark.
            let h1 = core.submit(Request::new(vec![0])).unwrap();
            let (tx, rx) = mpsc::channel();
            let parked = Pending {
                request: Request::new(vec![1]),
                deadline: None,
                requeues: 0,
                trace: TraceContext::new(u64::MAX),
                tx,
                view: core.source.pin(&[1]).unwrap(),
            };
            assert!(core.lanes[0].queue.push(parked).is_ok());
            let h2 = ResponseHandle {
                rx,
                shutting_down: Arc::clone(&core.shutting_down),
            };
            wait_until("retirement", || core.is_retired(0));
            let salvaged = || core.stats().requeued + core.stats().worker_lost;
            wait_until("salvage", || salvaged() == 1);
            assert_eq!(slo_errors(), lost, "{name}");

            p.stop_and_join();
            let first = if lost == 1 {
                ServeError::WorkerLost
            } else {
                ServeError::ShuttingDown
            };
            assert_eq!(h1.wait().unwrap_err(), first, "{name}");
            assert_eq!(
                h2.wait().unwrap_err(),
                ServeError::ShuttingDown,
                "{name}: shutdown drains are administrative, not worker loss"
            );
            assert_eq!(slo_errors(), lost, "{name}: the drain burned no budget");
            assert_eq!(core.stats().worker_lost, lost, "{name}");
        }
        on_every_topology!(check, 1, true);
    }

    /// A worker that panics while holding one lane's cache lock may have
    /// torn a write: that lane's cache is invalidated on the next lock,
    /// exactly once, and no other lane's cache is touched.
    #[test]
    fn poisoned_lane_cache_is_cleared_once_and_others_untouched() {
        let (g, x, net) = fixture();
        let cfg = ShardedConfig {
            shards: 2,
            replicate_hot: 8,
            max_batch: 4,
            max_wait: Duration::from_millis(1),
            metrics_prefix: "pipeline.test.poison".to_string(),
            ..ShardedConfig::default()
        };
        let server = ShardedServer::start(cfg, g, x, net);
        let ask = |t: u32| serve(&server.pipeline, Request::new(vec![t])).unwrap();
        // Vertex 0 is owned by shard 0, vertex 299 by shard 1.
        ask(0);
        ask(299);
        let core = Arc::clone(&server.pipeline.core);
        assert_eq!((core.lock_cache(0).len(), core.lock_cache(1).len()), (1, 1));

        let poisoner = std::thread::spawn({
            let core = Arc::clone(&core);
            move || {
                let _guard = core.lanes[0].cache.lock().unwrap();
                panic!("poison lane 0's cache lock");
            }
        });
        assert!(poisoner.join().is_err());
        assert!(core.lanes[0].cache.is_poisoned());

        assert_eq!(ask(0).timing.cache_hits, 0, "torn cache must be empty");
        assert_eq!(ask(299).timing.cache_hits, 1, "lane 1's cache untouched");
        assert!(!core.lanes[0].cache.is_poisoned());
        let stats = server.shutdown();
        assert_eq!(stats.poison_recoveries, 1);
        assert_eq!(stats.computed_targets, 3);
    }
}
