//! The four serving workloads: one graph, one network, four traffic
//! mixes that put the work in different layers.
//!
//! * `serve_cold` — cache off, uniform targets: every request pays
//!   queue → extract → gather → compute → respond.
//! * `serve_hot` — cache on, Zipf targets, cache pre-filled: hits skip
//!   extract and compute, so cache, batcher and respond dominate.
//! * `serve_churn` — `serve_hot` plus writes beside reads: one
//!   `mutate` before every 20th submit, one `compact_graph` per
//!   repetition.
//! * `serve_sharded` — `serve_cold` through `ShardedServer` with two
//!   shards: halo exchange and per-shard queues.
//!
//! Load is a closed loop with a sliding window of 16 outstanding
//! single-target requests from one generator thread (see
//! [`crate::window`]); servers run one worker (one per shard).

use std::collections::HashSet;
use std::time::{Duration, Instant};

use gpu_sim::DeviceConfig;
use tlpgnn::{EngineOptions, GnnNetwork, TlpgnnEngine};
use tlpgnn_graph::{generators, subgraph, Csr, DeltaGraph, GraphEpoch};
use tlpgnn_serve::{
    BatchQueue, CacheKey, FeatureCache, GnnServer, GraphMutation, Request, Response,
    ResponseHandle, ServeConfig, ServeError, ShardedConfig, ShardedServer, ZipfSampler,
};
use tlpgnn_shard::{distributed_ego, HaloStats, ShardPlan, ShardStore};
use tlpgnn_tensor::Matrix;

use super::{ms, note_layer_shares, peak_rss_mb, repeat_setup, EndToEnd, Outcome, RunCfg};
use crate::gen::{self, sub_seed, MutationStream};
use crate::spans::{Tracer, ROOT};
use crate::stats;
use crate::window::{closed_loop, Completion, Driver, WINDOW};

/// Vertices of the serving graph (R-MAT).
pub const VERTICES: usize = 20_000;
/// Edges requested of the generator.
pub const EDGES: usize = 100_000;
/// Input and hidden feature width of the two-layer SAGE network.
pub const FEAT: usize = 16;
/// Output classes.
pub const CLASSES: usize = 8;
/// Requests a batch may coalesce.
pub const MAX_BATCH: usize = 16;
/// Longest a partial batch waits.
pub const MAX_WAIT: Duration = Duration::from_millis(2);
/// Feature-cache rows when the cache is on.
pub const CACHE_ROWS: usize = 4096;
/// Zipf exponent of the popular-target stream.
pub const ZIPF: f64 = 1.3;
/// `serve_churn` writes once before every this-many submits.
pub const MUTATE_EVERY: usize = 20;
/// Shards of `serve_sharded`.
pub const SHARDS: usize = 2;
/// Hot vertices replicated on every shard.
pub const REPLICATE_HOT: usize = 64;
/// Responses per workload checked bitwise against the reference.
pub const VERIFIED: usize = 32;

/// Which traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Cache off, uniform targets.
    Cold,
    /// Cache on, Zipf targets.
    Hot,
    /// `Hot` plus writes beside reads.
    Churn,
    /// `Cold` through the sharded server.
    Sharded,
}

impl Kind {
    fn cache_rows(self) -> usize {
        match self {
            Kind::Cold | Kind::Sharded => 0,
            Kind::Hot | Kind::Churn => CACHE_ROWS,
        }
    }

    fn zipf(self) -> f64 {
        match self {
            Kind::Cold | Kind::Sharded => 0.0,
            Kind::Hot | Kind::Churn => ZIPF,
        }
    }

    /// Requests per repetition, sized so a repetition takes about a
    /// second at today's rates and ten seconds hold several of them.
    fn rep_requests(self) -> usize {
        match self {
            Kind::Cold | Kind::Sharded => 500,
            Kind::Hot => 1000,
            Kind::Churn => 160,
        }
    }
}

/// Either server behind one submit/stats surface.
enum Server {
    Single(GnnServer),
    Sharded(ShardedServer),
}

/// The counters both servers expose, as one cumulative snapshot.
#[derive(Debug, Clone, Default)]
struct Counters {
    rejected: u64,
    batches: u64,
    computed_targets: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    mutation_evictions: u64,
    retries: u64,
    degraded: u64,
    epoch: u64,
    per_shard_completed: Vec<u64>,
    halo: HaloStats,
}

impl Counters {
    /// Growth of every counter since `before` (the epoch is a level, not
    /// a count, and stays as it is).
    fn since(&self, before: &Counters) -> Counters {
        let halo = HaloStats {
            fetch_batches: self.halo.fetch_batches - before.halo.fetch_batches,
            fetched_rows: self.halo.fetched_rows - before.halo.fetched_rows,
            fetched_bytes: self.halo.fetched_bytes - before.halo.fetched_bytes,
            replica_hits: self.halo.replica_hits - before.halo.replica_hits,
            local_hits: self.halo.local_hits - before.halo.local_hits,
            ..HaloStats::default()
        };
        Counters {
            rejected: self.rejected - before.rejected,
            batches: self.batches - before.batches,
            computed_targets: self.computed_targets - before.computed_targets,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            cache_evictions: self.cache_evictions - before.cache_evictions,
            mutation_evictions: self.mutation_evictions - before.mutation_evictions,
            retries: self.retries - before.retries,
            degraded: self.degraded - before.degraded,
            epoch: self.epoch,
            per_shard_completed: self
                .per_shard_completed
                .iter()
                .zip(&before.per_shard_completed)
                .map(|(a, b)| a - b)
                .collect(),
            halo,
        }
    }
}

impl Server {
    fn start(kind: Kind, graph: Csr, x: Matrix, net: GnnNetwork) -> Self {
        match kind {
            Kind::Sharded => Server::Sharded(ShardedServer::start(
                ShardedConfig {
                    shards: SHARDS,
                    replicate_hot: REPLICATE_HOT,
                    max_batch: MAX_BATCH,
                    max_wait: MAX_WAIT,
                    cache_capacity: 0,
                    ..ShardedConfig::default()
                },
                graph,
                x,
                net,
            )),
            _ => Server::Single(GnnServer::start(
                ServeConfig {
                    workers: 1,
                    max_batch: MAX_BATCH,
                    max_wait: MAX_WAIT,
                    cache_capacity: kind.cache_rows(),
                    ..ServeConfig::default()
                },
                graph,
                x,
                net,
            )),
        }
    }

    fn submit(&self, request: Request) -> Result<ResponseHandle, ServeError> {
        match self {
            Server::Single(s) => s.submit(request),
            Server::Sharded(s) => s.submit(request),
        }
    }

    fn single(&self) -> &GnnServer {
        match self {
            Server::Single(s) => s,
            Server::Sharded(_) => panic!("only the single-device server takes writes"),
        }
    }

    fn counters(&self) -> Counters {
        match self {
            Server::Single(s) => {
                let st = s.stats();
                Counters {
                    rejected: st.rejected,
                    batches: st.batches,
                    computed_targets: st.computed_targets,
                    cache_hits: st.cache_hits,
                    cache_misses: st.cache_misses,
                    cache_evictions: st.cache_evictions,
                    mutation_evictions: st.mutation_evictions,
                    retries: st.retries,
                    degraded: st.degraded,
                    epoch: st.epoch,
                    per_shard_completed: Vec::new(),
                    halo: HaloStats::default(),
                }
            }
            Server::Sharded(s) => {
                let st = s.stats();
                Counters {
                    rejected: st.rejected,
                    batches: st.batches,
                    computed_targets: st.computed_targets,
                    cache_hits: st.cache_hits,
                    cache_misses: st.cache_misses,
                    retries: st.retries,
                    degraded: st.degraded,
                    per_shard_completed: st.per_shard_completed,
                    halo: st.halo,
                    ..Counters::default()
                }
            }
        }
    }

    fn shutdown(self) {
        match self {
            Server::Single(s) => drop(s.shutdown()),
            Server::Sharded(s) => drop(s.shutdown()),
        }
    }
}

/// Generated inputs plus the running server.
struct State {
    graph: Csr,
    x: Matrix,
    net: GnnNetwork,
    server: Server,
    start_ms: f64,
    rmat_ms: f64,
    /// Writes the warm-up issued, which the mirror must replay first.
    warm_writes: Vec<(GraphMutation, u64)>,
}

/// One completed request, as far as the metrics need it.
struct Served {
    latency_ms: f64,
    submit_us: f64,
    queue_ms: f64,
    extract_ms: f64,
    compute_ms: f64,
    batch_size: f64,
}

/// A response kept for verification after the timed section.
struct Sample {
    target: u32,
    epoch: u64,
    row: Vec<f32>,
}

/// The request source and outcome sink of one workload: target stream,
/// write stream, and everything recorded about the traffic.
struct Traffic<'a> {
    kind: Kind,
    server: &'a Server,
    tracer: &'a mut Tracer,
    targets: ZipfSampler,
    mutations: MutationStream,
    /// Requests issued so far, across repetitions.
    issued: usize,
    /// Keep per-request records (off during warm-up).
    record: bool,
    /// Target of every recorded request, in submission order.
    issued_targets: Vec<u32>,
    /// Where the repetition in progress starts in `issued_targets`.
    rep_base: usize,
    served: Vec<Served>,
    samples: Vec<Sample>,
    /// Every write issued and the epoch the server reported after it.
    writes: Vec<(GraphMutation, u64)>,
    mutate_us: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl<'a> Traffic<'a> {
    fn new(
        kind: Kind,
        server: &'a Server,
        tracer: &'a mut Tracer,
        seed: u64,
        stream: &str,
    ) -> Self {
        Self {
            kind,
            server,
            tracer,
            targets: gen::targets(VERTICES, kind.zipf(), sub_seed(seed, stream)),
            mutations: MutationStream::new(VERTICES, FEAT, sub_seed(seed, stream)),
            issued: 0,
            record: true,
            issued_targets: Vec::new(),
            rep_base: 0,
            served: Vec::new(),
            samples: Vec::new(),
            writes: Vec::new(),
            mutate_us: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// One repetition: `n` requests through the closed loop. Returns
    /// requests per second.
    fn rep(&mut self, n: usize) -> f64 {
        self.rep_base = self.issued_targets.len();
        let t0 = Instant::now();
        let count = closed_loop(n, WINDOW, self);
        let wall_s = t0.elapsed().as_secs_f64();
        // The generator conserves requests and never exceeds its window.
        let conserved = count.submitted == count.completed + count.refused
            && count.submitted == n
            && count.max_outstanding <= WINDOW;
        self.attempted += 1;
        self.failed += u64::from(!conserved);
        n as f64 / wall_s
    }

    fn write(&mut self) {
        let m = self.mutations.next_mutation();
        let t0 = self.tracer.now_ns();
        let result = self.server.single().mutate(std::slice::from_ref(&m));
        let t1 = self.tracer.now_ns();
        self.tracer.record("serve.server.mutate", t0, t1, ROOT, 0);
        self.attempted += 1;
        match result {
            Ok(epoch) => {
                self.mutate_us.push((t1 - t0) as f64 / 1e3);
                self.writes.push((m, epoch));
            }
            Err(_) => self.failed += 1,
        }
    }
}

impl Driver for Traffic<'_> {
    type Handle = ResponseHandle;
    type Refusal = ServeError;

    fn submit(&mut self, _index: usize) -> Result<ResponseHandle, ServeError> {
        if self.kind == Kind::Churn && self.issued.is_multiple_of(MUTATE_EVERY) {
            self.write();
        }
        let target = self.targets.sample();
        self.issued += 1;
        if self.record {
            self.issued_targets.push(target);
        }
        self.server.submit(Request::new(vec![target]))
    }

    fn done(&mut self, c: Completion<Result<Response, ServeError>>) {
        self.attempted += 1;
        let resp = match c.out {
            Ok(resp) if !resp.degraded.any() && resp.outputs.shape() == (1, CLASSES) => resp,
            _ => {
                self.failed += 1;
                return;
            }
        };
        if !self.record {
            return;
        }
        let latency_ms = ms(c.observed.duration_since(c.submitted));
        let t = resp.timing;
        // The loop's `index` restarts every repetition.
        let position = self.rep_base + c.index;
        self.served.push(Served {
            latency_ms,
            submit_us: ms(c.accepted.duration_since(c.submitted)) * 1e3,
            queue_ms: t.queue_ms,
            extract_ms: t.extract_ms,
            compute_ms: t.compute_ms,
            batch_size: t.batch_size as f64,
        });
        let stride = (self.kind.rep_requests() / 8).max(1);
        if self.samples.len() < VERIFIED && position.is_multiple_of(stride) {
            self.samples.push(Sample {
                target: self.issued_targets[position],
                epoch: resp.epoch,
                row: resp.outputs.row(0).to_vec(),
            });
        }
        if self.tracer.on() {
            // One root span per request; its children are the submit call
            // and the stages the server reports, laid back to back ending
            // at the observed completion. The root's self time is what no
            // stage accounts for.
            let (start, end) = (self.tracer.at(c.submitted), self.tracer.at(c.observed));
            let id = position as u64 + 1;
            let root = self.tracer.record("bench.request", start, end, ROOT, id);
            let accepted = self.tracer.at(c.accepted);
            self.tracer
                .record("serve.server.submit", start, accepted, root, id);
            let mut cursor = end;
            for (name, stage_ms) in [
                ("core.engine.compute", t.compute_ms),
                ("graph.subgraph.extract", t.extract_ms),
                ("serve.batcher.queue", t.queue_ms),
            ] {
                let from = cursor.saturating_sub((stage_ms * 1e6) as u64).max(start);
                self.tracer.record(name, from, cursor, root, id);
                cursor = from;
            }
        }
    }

    fn refused(&mut self, _index: usize, _why: ServeError) {
        self.attempted += 1;
        self.failed += 1;
    }
}

fn setup(kind: Kind, seed: u64, tracer: &mut Tracer) -> State {
    let t0 = Instant::now();
    let graph = generators::rmat_default(VERTICES, EDGES, sub_seed(seed, "rmat"));
    let rmat_ms = ms(t0.elapsed());
    let x = Matrix::random(VERTICES, FEAT, 1.0, sub_seed(seed, "features"));
    let net = gen::two_layer("sage", FEAT, FEAT, CLASSES, seed);
    let t0 = Instant::now();
    let server = Server::start(kind, graph.clone(), x.clone(), net.clone());
    let start_ms = ms(t0.elapsed());
    let warm_writes = warm_up(kind, &server, seed, tracer);
    State {
        graph,
        x,
        net,
        server,
        start_ms,
        rmat_ms,
        warm_writes,
    }
}

/// The untimed warm-up repetition: lazy set-up done, caches in the state
/// the timed section keeps them in. Returns the writes it issued.
fn warm_up(
    kind: Kind,
    server: &Server,
    seed: u64,
    tracer: &mut Tracer,
) -> Vec<(GraphMutation, u64)> {
    if kind == Kind::Hot {
        // Fill the cache with the rows a Zipf stream keeps resident — the
        // most popular ranks — sixteen targets a request, so the hit
        // rate starts on its plateau instead of climbing through the
        // timed section. (Under churn the writes keep emptying the
        // cache; a repetition of its own traffic is its steady state.)
        let ranks: Vec<u32> = (0..CACHE_ROWS as u32).collect();
        for wave in ranks.chunks(WINDOW * MAX_BATCH) {
            let handles: Vec<_> = wave
                .chunks(MAX_BATCH)
                .filter_map(|r| server.submit(Request::new(r.to_vec())).ok())
                .collect();
            for h in handles {
                let _ = h.wait();
            }
        }
    }
    let n = match kind {
        Kind::Churn => kind.rep_requests(),
        _ => 256,
    };
    tracer.paused(|tracer| {
        let mut traffic = Traffic::new(kind, server, tracer, seed, "warm-up");
        traffic.record = false;
        closed_loop(n, WINDOW, &mut traffic);
        traffic.writes
    })
}

/// Largest `|got - want|` allowed where a bitwise match cannot be
/// asked for; see [`verify`].
const CLOSE: f32 = 1e-4;

fn bitwise_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn close(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= CLOSE)
}

/// A `DeltaGraph` fed the write stream the server was fed: one snapshot
/// per epoch, so a response pinned to epoch `e` is checked against the
/// graph as of `e`.
struct Mirror {
    delta: DeltaGraph,
    snapshots: Vec<GraphEpoch>,
    /// Host time of each replayed call, µs.
    insert_edge_us: Vec<f64>,
    set_features_us: Vec<f64>,
    snapshot_us: Vec<f64>,
    affected_within_us: Vec<f64>,
    /// Dirty vertex sets, one per accepted write.
    dirty: Vec<Vec<u32>>,
}

impl Mirror {
    fn replay(graph: &Csr, writes: &[(GraphMutation, u64)], hops: usize) -> (Self, bool) {
        let delta = DeltaGraph::new(graph.clone());
        let mut m = Mirror {
            snapshots: vec![delta.snapshot()],
            delta,
            insert_edge_us: Vec::new(),
            set_features_us: Vec::new(),
            snapshot_us: Vec::new(),
            affected_within_us: Vec::new(),
            dirty: Vec::new(),
        };
        let mut epochs_agree = true;
        let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
        for (write, epoch_after) in writes {
            let before = m.delta.epoch();
            let dirty = match write {
                GraphMutation::InsertEdge { src, dst } => {
                    let t = Instant::now();
                    m.delta.insert_edge(*src, *dst);
                    m.insert_edge_us.push(us(t));
                    vec![*src, *dst]
                }
                GraphMutation::SetFeatures { vertex, features } => {
                    let t = Instant::now();
                    m.delta.set_features(*vertex, features.clone());
                    m.set_features_us.push(us(t));
                    vec![*vertex]
                }
                GraphMutation::InsertVertex { .. } => unreachable!("stream never appends"),
            };
            epochs_agree &= m.delta.epoch() == *epoch_after;
            if m.delta.epoch() > before {
                let t = Instant::now();
                let snap = m.delta.snapshot();
                m.snapshot_us.push(us(t));
                m.snapshots.push(snap);
                let t = Instant::now();
                std::hint::black_box(m.delta.affected_within(&dirty, hops));
                m.affected_within_us.push(us(t));
                m.dirty.push(dirty);
            }
        }
        (m, epochs_agree)
    }
}

/// Check responses against a direct `ego_graph` + `classify_forward`
/// reference on the servers' device configuration (for `serve_churn`,
/// on the mirror's snapshot of the epoch the response is pinned to).
///
/// A batch's ego graph sums each row in local-id order, and local ids
/// depend on what else the batch holds, so a row served under load — or
/// from the cache — equals the single-target reference only to rounding:
/// the sampled in-flight responses are held to [`CLOSE`]. After the
/// timed section the server is quiet: [`VERIFIED`] more requests go one
/// at a time, each a batch of its own, and every one the cache did not
/// answer must match bit for bit. `serve_sharded`'s must also be the
/// unsharded server's. Returns how many were compared bitwise.
fn verify(
    kind: Kind,
    seed: u64,
    state: &State,
    samples: &[Sample],
    mirror: &Mirror,
    out: &mut Outcome,
) -> usize {
    let hops = state.net.receptive_hops();
    let mut engine = TlpgnnEngine::new(DeviceConfig::test_small(), EngineOptions::default());
    let mut reference = |epoch: u64, target: u32| -> Vec<f32> {
        let overlay = (kind == Kind::Churn)
            .then(|| mirror.snapshots.get(epoch as usize))
            .flatten();
        let ego = match overlay {
            Some(snap) => snap.ego_graph(&[target], hops),
            None => subgraph::ego_graph(&state.graph, &[target], hops),
        };
        let mut feats = Matrix::zeros(ego.vertices.len(), FEAT);
        for (local, &orig) in ego.vertices.iter().enumerate() {
            let row = overlay
                .and_then(|snap| snap.feature_row(orig))
                .unwrap_or_else(|| state.x.row(orig as usize));
            feats.row_mut(local).copy_from_slice(row);
        }
        let (logits, _) = engine.classify_forward(&state.net, &ego.csr, &feats);
        logits.row(0).to_vec()
    };

    for s in samples {
        let ok = close(&s.row, &reference(s.epoch, s.target));
        if !ok {
            out.note(format!(
                "MISMATCH response for vertex {} at epoch {} is not the reference's",
                s.target, s.epoch
            ));
        }
        out.check(ok);
    }

    let unsharded = (kind == Kind::Sharded).then(|| {
        Server::start(
            Kind::Cold,
            state.graph.clone(),
            state.x.clone(),
            state.net.clone(),
        )
    });
    let one = |server: &Server, target: u32| {
        server
            .submit(Request::new(vec![target]))
            .and_then(ResponseHandle::wait)
            .ok()
            .filter(|r| !r.degraded.any())
    };
    let mut targets = gen::targets(VERTICES, 0.0, sub_seed(seed, "verify"));
    let mut bitwise = 0;
    for _ in 0..VERIFIED {
        let target = targets.sample();
        let got = one(&state.server, target);
        let want = reference(mirror.delta.epoch(), target);
        let ok = got.as_ref().is_some_and(|r| {
            if r.timing.cache_hits == 0 {
                bitwise += 1;
                bitwise_eq(r.outputs.row(0), &want)
            } else {
                close(r.outputs.row(0), &want)
            }
        });
        if !ok {
            out.note(format!(
                "MISMATCH quiesced response for vertex {target} is not the reference's"
            ));
        }
        out.check(ok);
        if let (Some(unsharded), Some(got)) = (&unsharded, &got) {
            let same = one(unsharded, target)
                .is_some_and(|r| bitwise_eq(r.outputs.row(0), got.outputs.row(0)));
            if !same {
                out.note(format!(
                    "MISMATCH sharded and unsharded answers differ for vertex {target}"
                ));
            }
            out.check(same);
        }
    }
    if let Some(unsharded) = unsharded {
        unsharded.shutdown();
    }
    bitwise
}

/// What a repetition of traced `serve_hot` is observed with, in
/// rotation, so that the cost of observing is priced under the same
/// conditions as the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Observing {
    /// The benchmark's spans (the traced pass proper).
    Spans,
    /// Nothing: the base of both ratios.
    Nothing,
    /// The program's own telemetry, which every other repetition of
    /// every pass leaves at its library default, off.
    Telemetry,
}

/// Run the workload.
pub fn run(kind: Kind, cfg: &RunCfg, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (state, setup_s) = repeat_setup(cfg, || setup(kind, cfg.seed, tracer));
    let hops = state.net.receptive_hops();

    // In the traced pass two workloads also price something by running
    // a second configuration in alternation with the first, under the
    // same conditions: `serve_sharded` the unsharded server (the
    // sharding tax), `serve_hot` its own spans and the program's
    // telemetry (the cost of observing).
    let twin = (cfg.trace && kind == Kind::Sharded).then(|| {
        let twin = Server::start(
            Kind::Cold,
            state.graph.clone(),
            state.x.clone(),
            state.net.clone(),
        );
        warm_up(Kind::Cold, &twin, cfg.seed, tracer);
        twin
    });

    let n = kind.rep_requests();
    let mut untraced = Tracer::new(false, 0);
    let mut twin_traffic = twin
        .as_ref()
        .map(|twin| Traffic::new(Kind::Cold, twin, &mut untraced, cfg.seed, "traffic"));
    let mut traffic = Traffic::new(kind, &state.server, tracer, cfg.seed, "traffic");
    let before = state.server.counters();
    let (mut rep_rps, mut unobserved_rps, mut telemetry_rps) = (Vec::new(), Vec::new(), Vec::new());
    let (mut compact_ms, mut twin_p50) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    for round in 0.. {
        if t0.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
        let observing = if cfg.trace && kind == Kind::Hot {
            [Observing::Spans, Observing::Nothing, Observing::Telemetry][round % 3]
        } else {
            Observing::Spans
        };
        traffic
            .tracer
            .set_on(cfg.trace && observing == Observing::Spans);
        if observing == Observing::Telemetry {
            telemetry::set_enabled(true);
        }
        let recorded = traffic.served.len();
        let rps = traffic.rep(n);
        match observing {
            Observing::Spans => rep_rps.push(rps),
            Observing::Nothing => unobserved_rps.push(rps),
            Observing::Telemetry => {
                telemetry::set_enabled(false);
                telemetry_rps.push(rps);
                // Requests served under telemetry are not this
                // workload's: drop their records.
                traffic.served.truncate(recorded);
            }
        }
        if kind == Kind::Churn {
            // Timed on its own, outside the repetition's wall time.
            let t = Instant::now();
            traffic
                .tracer
                .scope("serve.server.compact_graph", ROOT, || {
                    state.server.single().compact_graph()
                });
            compact_ms.push(ms(t.elapsed()));
        }
        if let Some(cold) = &mut twin_traffic {
            let from = cold.served.len();
            cold.rep(n);
            let lat: Vec<f64> = cold.served[from..].iter().map(|s| s.latency_ms).collect();
            twin_p50.push(stats::median(&lat));
        }
    }
    traffic.tracer.set_on(cfg.trace);
    let grown = state.server.counters().since(&before);
    let peak_rss_mb = peak_rss_mb();
    out.attempted += traffic.attempted;
    out.failed += traffic.failed;
    if let Some(cold) = twin_traffic {
        out.attempted += cold.attempted;
        out.failed += cold.failed;
    }

    // ---- correctness, outside the timed section ----
    let mut all_writes = state.warm_writes.clone();
    all_writes.extend(traffic.writes.iter().cloned());
    let (mirror, epochs_agree) = Mirror::replay(&state.graph, &all_writes, hops);
    if kind == Kind::Churn {
        if !epochs_agree {
            out.note("MISMATCH server epochs differ from the mirror's");
        }
        out.check(epochs_agree);
    }
    let bitwise = verify(kind, cfg.seed, &state, &traffic.samples, &mirror, &mut out);
    let verified = traffic.samples.len();
    out.note(format!(
        "sizes: R-MAT |V| {VERTICES} |E| {}, SAGE {FEAT}->{FEAT}->{CLASSES}, window {WINDOW}, max_batch {MAX_BATCH}, max_wait {} ms, cache {} rows, zipf {}, {n} requests a repetition",
        state.graph.num_edges(),
        MAX_WAIT.as_millis(),
        kind.cache_rows(),
        kind.zipf(),
    ));
    out.note(format!(
        "checked: {} responses ok and unflagged; {verified} of them within {CLOSE} of ego_graph + classify_forward; {VERIFIED} more after quiescing, {bitwise} of those bitwise",
        traffic.served.len()
    ));

    let Traffic {
        served,
        mutate_us,
        issued_targets,
        ..
    } = traffic;
    if let Some(twin) = twin {
        twin.shutdown();
    }

    if !cfg.trace {
        state.server.shutdown();
        EndToEnd {
            setup_s,
            rep_ops_per_s: rep_rps,
            latencies_ms: vec![served.iter().map(|s| s.latency_ms).collect()],
            peak_rss_mb,
        }
        .report(&mut out);
        return out;
    }

    // ---- per-layer metrics ----
    let col = |f: fn(&Served) -> f64| stats::sorted(served.iter().map(f).collect());
    let queue = col(|s| s.queue_ms);
    out.set("graph.generators.rmat_ms", state.rmat_ms);
    out.set("serve.queue_ms_p50", stats::percentile(&queue, 0.5));
    out.set("serve.queue_ms_p99", stats::tail(&queue).1);
    out.set(
        "serve.extract_ms_p50",
        stats::median(&col(|s| s.extract_ms)),
    );
    out.set(
        "serve.compute_ms_p50",
        stats::median(&col(|s| s.compute_ms)),
    );
    let residual = stats::median(&col(|s| {
        s.latency_ms - s.queue_ms - s.extract_ms - s.compute_ms
    }));
    out.set("serve.residual_ms_p50", residual);
    out.set("serve.batch_size_mean", stats::mean(&col(|s| s.batch_size)));
    out.set(
        "serve.server.submit_us_p50",
        stats::median(&col(|s| s.submit_us)),
    );
    out.set("serve.batches", grown.batches as f64);
    out.set("serve.computed_targets", grown.computed_targets as f64);
    out.set(
        "serve.cache.hit_rate",
        grown.cache_hits as f64 / (grown.cache_hits + grown.cache_misses).max(1) as f64,
    );
    out.set("serve.cache.evictions", grown.cache_evictions as f64);
    out.set(
        "serve.cache.mutation_evictions",
        grown.mutation_evictions as f64,
    );
    out.set("serve.rejected", grown.rejected as f64);
    out.set("serve.retries", grown.retries as f64);
    out.set("serve.degraded", grown.degraded as f64);
    out.set("serve.epoch", grown.epoch as f64);
    out.set("serve.server.start_ms", state.start_ms);
    out.set("serve.server.mutate_us_p50", stats::median(&mutate_us));
    out.set("serve.server.compact_graph_ms", stats::median(&compact_ms));

    match kind {
        Kind::Cold => probe_extract_and_compute(&state, &issued_targets, hops, &mut out),
        Kind::Hot => {
            probe_cache_and_queue(&issued_targets, cfg.seed, &mut out);
            let unobserved = stats::median(&unobserved_rps);
            out.set(
                "bench.trace_overhead_share",
                1.0 - stats::median(&rep_rps) / unobserved,
            );
            out.set(
                "telemetry.enabled_rps_ratio",
                stats::median(&telemetry_rps) / unobserved,
            );
        }
        Kind::Churn => probe_delta(
            &state,
            &mirror,
            &all_writes,
            &issued_targets,
            hops,
            &mut out,
        ),
        Kind::Sharded => {
            probe_shard(&state, &issued_targets, hops, &mut out);
            let halo = &grown.halo;
            out.set("shard.halo.fetch_batches", halo.fetch_batches as f64);
            out.set("shard.halo.fetched_rows", halo.fetched_rows as f64);
            out.set("shard.halo.fetched_bytes", halo.fetched_bytes as f64);
            out.set("shard.halo.replica_hits", halo.replica_hits as f64);
            out.set("shard.halo.local_hits", halo.local_hits as f64);
            let per_shard: Vec<f64> = grown
                .per_shard_completed
                .iter()
                .map(|&c| c as f64)
                .collect();
            let most = per_shard.iter().copied().fold(0.0, f64::max);
            out.set("shard.load_imbalance", most / stats::mean(&per_shard));
            let p50 = stats::median(&col(|s| s.latency_ms));
            out.set("shard.tax_ratio", p50 / stats::median(&twin_p50));
        }
    }

    let t = Instant::now();
    state.server.shutdown();
    out.set("serve.server.shutdown_ms", ms(t.elapsed()));

    note_layer_shares(
        &mut out,
        tracer,
        &format!(
            "unattributed: serve.residual_ms_p50 {residual:.3} ms of a request's latency is in no reported stage (feature gather, respond, channel wake-up, generator)"
        ),
    );
    out
}

/// `serve_cold`'s layers called directly: the stream's targets in the
/// sixteen-request batches a full window forms, through
/// `subgraph::ego_graph` and `TlpgnnEngine::classify_forward` — exactly
/// what `Response.timing.{extract_ms,compute_ms}` cover.
fn probe_extract_and_compute(state: &State, targets: &[u32], hops: usize, out: &mut Outcome) {
    let mut engine = TlpgnnEngine::new(DeviceConfig::test_small(), EngineOptions::default());
    let (mut ego_ms, mut fwd_ms) = (Vec::new(), Vec::new());
    let (mut vertices, mut edges, mut sim_ms, mut launches) = (0.0, 0.0, 0.0, 0usize);
    let batches: Vec<&[u32]> = targets.chunks_exact(MAX_BATCH).take(32).collect();
    for batch in &batches {
        let t = Instant::now();
        let ego = subgraph::ego_graph(&state.graph, batch, hops);
        ego_ms.push(ms(t.elapsed()));
        vertices += ego.vertices.len() as f64;
        edges += ego.csr.num_edges() as f64;
        let mut feats = Matrix::zeros(ego.vertices.len(), FEAT);
        for (local, &orig) in ego.vertices.iter().enumerate() {
            feats
                .row_mut(local)
                .copy_from_slice(state.x.row(orig as usize));
        }
        let t = Instant::now();
        let (logits, op) = engine.classify_forward(&state.net, &ego.csr, &feats);
        fwd_ms.push(ms(t.elapsed()));
        std::hint::black_box(logits);
        sim_ms += op.gpu_time_ms;
        launches = op.kernel_launches;
    }
    let n = batches.len().max(1) as f64;
    out.set("graph.subgraph.ego_graph_ms_p50", stats::median(&ego_ms));
    out.set("graph.subgraph.ego_vertices_mean", vertices / n);
    out.set("graph.subgraph.ego_edges_mean", edges / n);
    out.set(
        "core.engine.classify_forward_host_ms_p50",
        stats::median(&fwd_ms),
    );
    out.set("core.engine.classify_forward_sim_ms", sim_ms / n);
    out.set("core.engine.kernel_launches", launches as f64);
}

/// Median ns per call of `f`, timed in blocks of 64 calls so the clock
/// reads do not dominate.
fn ns_per_call(blocks: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..blocks)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..64 {
                f();
            }
            t.elapsed().as_nanos() as f64 / 64.0
        })
        .collect();
    stats::median(&samples)
}

fn key(vertex: u32, epoch: u64) -> CacheKey {
    CacheKey {
        vertex,
        layer: 2,
        hops: 2,
        version: 1,
        epoch,
        shard: 0,
    }
}

/// `serve_hot`'s layers called directly: a standalone cache and queue
/// driven with the workload's own key stream, and the generator's
/// sampler (whose cost must stay under 1 % of a request).
fn probe_cache_and_queue(targets: &[u32], seed: u64, out: &mut Outcome) {
    let mut cache = FeatureCache::new(CACHE_ROWS);
    let mut next = 0u32;
    // Twice the capacity in distinct keys: the second half evicts.
    let insert_ns = ns_per_call(2 * CACHE_ROWS / 64, || {
        cache.insert(key(next, 0), vec![0.0; CLASSES]);
        next += 1;
    });
    for v in 0..CACHE_ROWS as u32 {
        cache.insert(key(v, 0), vec![0.0; CLASSES]);
    }
    let mut stream = targets.iter().cycle();
    let get_ns = ns_per_call(256, || {
        let v = *stream.next().expect("stream cycles");
        std::hint::black_box(cache.get(key(v, 0)));
    });
    out.set("serve.cache.insert_ns_p50", insert_ns);
    out.set("serve.cache.get_ns_p50", get_ns);

    let queue: BatchQueue<u64> = BatchQueue::new(256, MAX_BATCH, MAX_WAIT);
    let push_pop: Vec<f64> = (0..256)
        .map(|_| {
            let t = Instant::now();
            for i in 0..MAX_BATCH as u64 {
                let _ = queue.push(i);
            }
            std::hint::black_box(queue.pop_batch());
            t.elapsed().as_nanos() as f64 / MAX_BATCH as f64
        })
        .collect();
    out.set("serve.batcher.push_pop_ns_p50", stats::median(&push_pop));

    let mut zipf = gen::targets(VERTICES, ZIPF, sub_seed(seed, "probe"));
    out.set(
        "serve.workload.zipf_sample_ns_p50",
        ns_per_call(256, || {
            std::hint::black_box(zipf.sample());
        }),
    );
}

/// `serve_churn`'s layers called directly: the mirror `DeltaGraph` fed
/// the workload's write stream, extraction over its overlay, and a
/// standalone cache invalidated with the stream's dirty sets.
fn probe_delta(
    state: &State,
    mirror: &Mirror,
    writes: &[(GraphMutation, u64)],
    targets: &[u32],
    hops: usize,
    out: &mut Outcome,
) {
    out.set(
        "graph.delta.insert_edge_us_p50",
        stats::median(&mirror.insert_edge_us),
    );
    out.set(
        "graph.delta.set_features_us_p50",
        stats::median(&mirror.set_features_us),
    );
    out.set(
        "graph.delta.snapshot_us_p50",
        stats::median(&mirror.snapshot_us),
    );
    out.set(
        "graph.delta.affected_within_us_p50",
        stats::median(&mirror.affected_within_us),
    );

    // The overlay as it stands when the first timed repetition ends and
    // the server first compacts: the warm-up repetition's writes and its
    // own.
    let until_compaction = 2 * Kind::Churn.rep_requests() / MUTATE_EVERY;
    let (overlay, _) = Mirror::replay(
        &state.graph,
        &writes[..until_compaction.min(writes.len())],
        hops,
    );
    out.set(
        "graph.delta.overlay_edges",
        overlay.delta.delta_edges() as f64,
    );
    let snap = overlay.delta.snapshot();
    let ego_ms: Vec<f64> = targets
        .chunks_exact(MAX_BATCH)
        .take(32)
        .map(|batch| {
            let t = Instant::now();
            std::hint::black_box(snap.ego_graph(batch, hops));
            ms(t.elapsed())
        })
        .collect();
    out.set("graph.delta.ego_graph_ms_p50", stats::median(&ego_ms));
    let mut folded = overlay.delta.clone();
    let t = Instant::now();
    folded.compact();
    out.set("graph.delta.compact_ms", ms(t.elapsed()));

    let mut cache = FeatureCache::new(CACHE_ROWS);
    let mut invalidate_us = Vec::new();
    for (epoch, dirty) in mirror.dirty.iter().enumerate() {
        // Keep the cache full of rows at the current epoch, as the
        // server's is between writes.
        for v in 0..CACHE_ROWS as u32 {
            cache.insert(key(v, epoch as u64), vec![0.0; CLASSES]);
        }
        let affected: HashSet<u32> = mirror
            .delta
            .affected_within(dirty, hops)
            .into_iter()
            .collect();
        let t = Instant::now();
        cache.invalidate_mutated(epoch as u64, epoch as u64 + 1, &affected);
        invalidate_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    out.set(
        "serve.cache.invalidate_mutated_us_p50",
        stats::median(&invalidate_us),
    );
}

/// `serve_sharded`'s layers called directly: plan and store builds, and
/// distributed extraction of the stream's batches from each batch's
/// home shard.
fn probe_shard(state: &State, targets: &[u32], hops: usize, out: &mut Outcome) {
    let t = Instant::now();
    let plan = ShardPlan::build(&state.graph, SHARDS, REPLICATE_HOT);
    out.set("shard.plan.build_ms", ms(t.elapsed()));
    let t = Instant::now();
    let stores = ShardStore::build_all(&state.graph, &state.x, &plan);
    out.set("shard.store.build_all_ms", ms(t.elapsed()));
    out.set(
        "shard.store.max_bytes",
        stores.iter().map(ShardStore::bytes).max().unwrap_or(0) as f64,
    );
    // The router sends each request to the shard owning its target, so a
    // shard's batch holds only targets it owns.
    let ego_ms: Vec<f64> = (0..SHARDS)
        .flat_map(|home| {
            let owned: Vec<u32> = targets
                .iter()
                .copied()
                .filter(|&t| plan.owner_of(t) == home)
                .take(16 * MAX_BATCH)
                .collect();
            owned
                .chunks_exact(MAX_BATCH)
                .map(|batch| {
                    let t = Instant::now();
                    std::hint::black_box(distributed_ego(&plan, &stores, home, batch, hops));
                    ms(t.elapsed())
                })
                .collect::<Vec<_>>()
        })
        .collect();
    out.set(
        "shard.extract.distributed_ego_ms_p50",
        stats::median(&ego_ms),
    );
}
