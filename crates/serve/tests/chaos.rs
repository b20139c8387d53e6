//! The chaos scenarios: seeded fault injection against the serving
//! stack, one test per scenario. Each is driven by a deterministic
//! `gpu_sim::FaultPlan` (or the server's chaos hook) and asserts the
//! service-level invariants the resilience layer exists to uphold:
//!
//! * **Termination** — every submitted request terminally resolves with a
//!   response or a typed error; no hangs, no leaked handles.
//! * **No wrong answers** — a response not flagged degraded is bitwise
//!   identical to the fault-free reference for its targets; degraded
//!   responses are explicitly flagged.
//! * **Bounded recovery** — a lost worker is respawned and its in-flight
//!   batch requeued exactly once, so service resumes within one batch.
//! * **Determinism** — every scenario runs *twice* on fresh servers with
//!   the same seed and must produce identical event logs (fault injection
//!   is a pure function of `(seed, launch index)`, and racy scenarios log
//!   only order-independent aggregates).
//!
//! Every chain a scenario's servers publish must pass
//! [`TraceChain::validate`], which also demands that the chain explains
//! its outcome. The trace collector, the flight recorder and the metrics
//! registry are process-wide, so the scenarios run one at a time.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use gpu_sim::{DeviceConfig, FaultPlan};
use telemetry::json::Value;
use telemetry::TraceChain;
use tlpgnn::{EngineOptions, GnnModel, GnnNetwork, TlpgnnEngine};
use tlpgnn_graph::{generators, subgraph, Csr};
use tlpgnn_serve::{
    GnnServer, GraphMutation, Request, ResponseHandle, RetryPolicy, ServeConfig, ServeError,
    ShardedConfig, ShardedServer, SupervisorConfig,
};
use tlpgnn_tensor::Matrix;

const VERTICES: usize = 600;
const EDGES: usize = 3_000;
/// Requests per scenario phase.
const REQUESTS: usize = 12;
const SEED: u64 = 42;
/// Vertices the scenarios draw their targets from: small enough that the
/// reference pass is cheap, large enough to exercise cache misses.
const POOL: usize = 16;

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over the bit patterns of a float row — the "is this answer
/// bitwise right" fingerprint.
fn hash_row(row: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in row {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// What the scenarios share: the graph, the model, the target pool, and
/// the fault-free reference output row of every pool vertex.
struct Fixture {
    g: Csr,
    x: Matrix,
    net: GnnNetwork,
    pool: Vec<u32>,
    /// Reference rows, one per pool vertex, computed without the serving
    /// path: a fresh ego graph and a fused-engine forward on the device
    /// the servers default to.
    rows: Vec<Vec<f32>>,
}

impl Fixture {
    fn build() -> Self {
        let g = generators::rmat_default(VERTICES, EDGES, SEED);
        let x = Matrix::random(VERTICES, 8, 1.0, SEED ^ 0xfea7);
        let net = GnnNetwork::two_layer(|_| GnnModel::Gcn, 8, 8, 4, SEED ^ 0x9e7);
        let pool: Vec<u32> = (0..POOL).map(|i| (i * VERTICES / POOL) as u32).collect();
        let mut engine = TlpgnnEngine::new(DeviceConfig::test_small(), EngineOptions::default());
        let rows = pool
            .iter()
            .map(|&v| {
                let ego = subgraph::ego_graph(&g, &[v], net.receptive_hops());
                let mut sub = Matrix::zeros(ego.vertices.len(), x.cols());
                for (local, &orig) in ego.vertices.iter().enumerate() {
                    sub.row_mut(local).copy_from_slice(x.row(orig as usize));
                }
                engine
                    .classify_forward(&net, &ego.csr, &sub)
                    .0
                    .row(0)
                    .to_vec()
            })
            .collect();
        Self {
            g,
            x,
            net,
            pool,
            rows,
        }
    }

    fn server(&self, cfg: ServeConfig) -> GnnServer {
        GnnServer::start(cfg, self.g.clone(), self.x.clone(), self.net.clone())
    }

    fn sharded(&self, cfg: ShardedConfig) -> ShardedServer {
        ShardedServer::start(cfg, self.g.clone(), self.x.clone(), self.net.clone())
    }

    /// The `i`-th target of a request stream seeded by `seed`.
    fn target(&self, seed: u64, i: usize) -> u32 {
        self.pool[(splitmix64(seed ^ (i as u64).wrapping_mul(0x51ed)) as usize) % POOL]
    }

    /// Fingerprint of `target`'s reference row. Comparable only when the
    /// batch matches the reference's (sequential single-target
    /// requests): batching relabels the extracted subgraph, which
    /// permutes float-summation order and legitimately moves the last
    /// bits.
    fn expected(&self, target: u32) -> u64 {
        hash_row(&self.rows[self.pool.iter().position(|&v| v == target).unwrap()])
    }
}

/// Generous, fast retries: the scenarios test invariants, not
/// wall-clock realism.
fn retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 64,
        base_backoff: Duration::from_micros(10),
        max_backoff: Duration::from_micros(200),
        seed: SEED,
    }
}

fn config(prefix: &str, cache: usize) -> ServeConfig {
    ServeConfig {
        workers: 1,
        max_batch: 4,
        max_wait: Duration::from_millis(1),
        queue_capacity: 64,
        cache_capacity: cache,
        retry: retry(),
        metrics_prefix: prefix.to_string(),
        ..ServeConfig::default()
    }
}

/// Four shards with 16 hot replicas, and otherwise [`config`]'s shape.
fn sharded_config(prefix: &str, cache: usize) -> ShardedConfig {
    ShardedConfig {
        shards: 4,
        replicate_hot: 16,
        max_batch: 4,
        max_wait: Duration::from_millis(1),
        queue_capacity: 64,
        cache_capacity: cache,
        retry: retry(),
        metrics_prefix: prefix.to_string(),
        ..ShardedConfig::default()
    }
}

/// Run a scenario twice on fresh servers and assert that the two event
/// logs are equal, naming the first line where they diverge. Each run
/// starts at a scenario boundary: the flight recorder is relabelled (it
/// dumps to `flightrec_<name>.json` under the test target directory) and
/// cleared, and chains left over from earlier runs are drained.
fn run_twice(name: &str, scenario: impl Fn(&Fixture, &mut Vec<String>)) {
    static SERIAL: Mutex<()> = Mutex::new(());
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::set_enabled(true);
    let recorder = telemetry::flight::recorder();
    recorder.set_dump_dir(env!("CARGO_TARGET_TMPDIR"));
    let fx = FIXTURE.get_or_init(Fixture::build);
    let run = || {
        recorder.set_label(name);
        recorder.reset();
        let _ = telemetry::collector().take_traces();
        let mut log = Vec::new();
        scenario(fx, &mut log);
        log
    };
    let (a, b) = (run(), run());
    if let Some(i) = (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i)) {
        panic!(
            "{name}: event logs differ across same-seed runs, first at line {i}\n  A: {:?}\n  B: {:?}",
            a.get(i),
            b.get(i)
        );
    }
}

/// Drain the chains the scenario's servers published. Each must pass
/// [`TraceChain::validate`]: well-formed, and its outcome explained (a
/// degraded response has a `degrade` event, a device fault `fault`
/// events, a lost worker a salvage, a blown deadline a `shed`).
fn take_chains() -> Vec<TraceChain> {
    let chains = telemetry::collector().take_traces();
    for c in &chains {
        c.validate().unwrap_or_else(|e| panic!("{e}"));
    }
    chains
}

/// How many chains record an event of `kind`.
fn with_event(chains: &[TraceChain], kind: &str) -> usize {
    chains
        .iter()
        .filter(|c| c.events.iter().any(|e| e.kind == kind))
        .count()
}

/// Append the canonical (timestamp-free) chains to the log, by trace id.
/// Only sequential scenarios log chains; racy ones validate them but
/// keep them out of the compared log.
fn log_chains(log: &mut Vec<String>, mut chains: Vec<TraceChain>) {
    chains.sort_by_key(|c| c.id);
    log.extend(chains.iter().map(TraceChain::canonical));
}

/// Drive `REQUESTS` sequential single-target requests drawn by `seed`,
/// log each outcome under `label`, and assert that every response not
/// flagged degraded is bitwise the reference. Returns how many resolved
/// `Ok`.
fn sequential(
    fx: &Fixture,
    log: &mut Vec<String>,
    label: &str,
    seed: u64,
    submit: impl Fn(Request) -> Result<ResponseHandle, ServeError>,
) -> usize {
    let mut oks = 0;
    for i in 0..REQUESTS {
        let t = fx.target(seed, i);
        match submit(Request::new(vec![t])).and_then(ResponseHandle::wait) {
            Ok(resp) => {
                oks += 1;
                let h = hash_row(resp.outputs.data());
                let degraded = resp.degraded.any();
                assert!(
                    degraded || h == fx.expected(t),
                    "{label} req {i} target {t}: unflagged answer differs from the reference"
                );
                log.push(format!(
                    "{label} req={i} target={t} outcome=ok hash={h:016x} degraded={degraded}"
                ));
            }
            Err(e) => log.push(format!("{label} req={i} target={t} outcome=err:{e}")),
        }
    }
    oks
}

/// No faults — the control: everything resolves `Ok`, exact and
/// undegraded, with no resilience machinery engaged and no error budget
/// burnt.
#[test]
fn baseline() {
    run_twice("baseline", |fx, log| {
        let server = fx.server(config("chaos.baseline", 256));
        let oks = sequential(fx, log, "baseline", SEED ^ 0xba5e, |r| server.submit(r));
        let slo = server.slo_report();
        let s = server.shutdown();
        assert_eq!(oks, REQUESTS, "every request resolves Ok");
        assert!(!slo.burn_alert && slo.total_errors == 0, "{slo:?}");
        assert_eq!(s.completed, REQUESTS as u64);
        assert!(
            s.retries == 0 && s.worker_deaths == 0 && s.device_faults == 0 && s.degraded == 0,
            "a clean run engaged resilience machinery: {s:?}"
        );
        log.push(format!(
            "completed={} retries={} deaths={} degraded={}",
            s.completed, s.retries, s.worker_deaths, s.degraded
        ));
        log_chains(log, take_chains());
    });
}

/// A storm of transient launch faults (35% per attempt): retry with
/// backoff absorbs every one, and answers stay bitwise exact.
#[test]
fn transient_storm() {
    run_twice("transient_storm", |fx, log| {
        let mut cfg = config("chaos.transient", 0);
        cfg.device.fault = FaultPlan::transient(SEED ^ 0x7a, 0.35);
        let server = fx.server(cfg);
        let oks = sequential(fx, log, "storm", SEED ^ 0x5702, |r| server.submit(r));
        let s = server.shutdown();
        assert_eq!(oks, REQUESTS, "every request resolves Ok");
        assert!(s.retries > 0, "a 35% fault rate triggers retries");
        assert_eq!(s.device_faults, 0, "the retry budget absorbs transients");
        assert_eq!(s.worker_deaths, 0, "transient faults kill no worker");
        log.push(format!(
            "completed={} retries={} device_faults={}",
            s.completed, s.retries, s.device_faults
        ));
        let chains = take_chains();
        assert!(
            with_event(&chains, "retry") > 0,
            "chains record the retries"
        );
        log_chains(log, chains);
    });
}

/// The device dies permanently mid-batch. The supervisor salvages the
/// in-flight batch, requeues it exactly once and respawns the worker on a
/// healthy device; every request still resolves `Ok`. The death dumps a
/// flight recording bounded by the recorder's ring.
#[test]
fn device_loss() {
    let dump = Path::new(env!("CARGO_TARGET_TMPDIR")).join("flightrec_device_loss.json");
    run_twice("device_loss", |fx, log| {
        let _ = std::fs::remove_file(&dump);
        let mut cfg = config("chaos.lost", 0);
        // A 2-layer forward is 2·L + 1 = 5 launches; dying at attempt 7
        // kills the device in the middle of the second request's batch.
        cfg.device.fault = FaultPlan::device_lost_at(7);
        let server = fx.server(cfg);
        let oks = sequential(fx, log, "lost", SEED ^ 0xdead, |r| server.submit(r));
        let s = server.shutdown();
        assert_eq!(oks, REQUESTS, "recovery serves every request");
        assert_eq!(s.worker_deaths, 1);
        assert_eq!(s.requeued, 1, "the in-flight batch is requeued once");
        assert!(s.respawns >= 1, "the dead worker is respawned");
        assert_eq!(s.worker_lost, 0, "no request fails terminally");
        log.push(format!(
            "completed={} deaths={} requeued={} worker_lost={}",
            s.completed, s.worker_deaths, s.requeued, s.worker_lost
        ));
        let chains = take_chains();
        assert!(
            with_event(&chains, "salvage") > 0,
            "chains record the salvage"
        );
        log_chains(log, chains);

        let text = std::fs::read_to_string(&dump).expect("the death dumps a flight recording");
        assert!(text.len() <= 262_144, "flight dump of {} bytes", text.len());
        let doc = telemetry::json::parse(&text).expect("flight dump parses");
        let events = doc
            .get("events")
            .and_then(Value::as_arr)
            .map_or(0, <[Value]>::len);
        let cap = telemetry::flight::recorder().capacity();
        assert!(
            events > 0 && events <= cap,
            "{events} events, ring of {cap}"
        );
        let reason = doc.get("reason").and_then(Value::as_str).unwrap_or("");
        assert!(reason.starts_with("worker_death"), "dump reason {reason:?}");
    });
}

/// Every launch runs 6× slower. Stragglers change simulated time only:
/// results stay bitwise exact, nothing retries, nobody dies.
#[test]
fn straggler() {
    let injected = || {
        let counters = telemetry::collector().metrics().snapshot().counters;
        counters.get("sim.fault.straggler").copied().unwrap_or(0)
    };
    run_twice("straggler", |fx, log| {
        let before = injected();
        let mut cfg = config("chaos.straggler", 0);
        cfg.device.fault = FaultPlan::straggler(SEED ^ 0x51, 1.0, 6.0);
        let server = fx.server(cfg);
        let oks = sequential(fx, log, "straggler", SEED ^ 0x5712, |r| server.submit(r));
        let s = server.shutdown();
        let events = injected() - before;
        assert_eq!(oks, REQUESTS, "every request resolves Ok");
        assert!(s.retries == 0 && s.worker_deaths == 0, "slow, not broken");
        assert!(events > 0, "a rate-1.0 plan records straggler events");
        log.push(format!(
            "completed={} straggler_events={events}",
            s.completed
        ));
        log_chains(log, take_chains());
    });
}

/// A concurrent burst past a small queue, with transient faults and
/// deadlines on half the stream. Scheduling is racy, so the log carries
/// only order-independent aggregates: every submission terminally
/// resolves, no unflagged answer is wrong, and an expired-deadline tail
/// trips the burn-rate alert.
#[test]
fn overload_faults() {
    run_twice("overload_faults", |fx, log| {
        let mut cfg = config("chaos.overload", 64);
        cfg.workers = 2;
        cfg.queue_capacity = 8;
        cfg.device.fault = FaultPlan::transient(SEED ^ 0x01d, 0.15);
        let server = fx.server(cfg);
        let (clients, per_client) = (4usize, REQUESTS);
        let client = |c: usize| {
            let seed = SEED ^ 0x01d ^ ((c as u64) << 40);
            let (mut resolved, mut wrong) = (0u64, 0u64);
            for i in 0..per_client {
                let idx = (splitmix64(seed ^ i as u64) as usize) % POOL;
                let mut req = Request::new(vec![fx.pool[idx]]);
                if i % 2 == 1 {
                    req = req.with_deadline(Duration::from_millis(25));
                }
                match server.submit(req).and_then(ResponseHandle::wait) {
                    Ok(resp) => {
                        resolved += 1;
                        // Batch composition is racy, so rounding may differ
                        // from the single-target reference: "wrong" means
                        // beyond a tight tolerance, not beyond the last bit.
                        let (out, want) = (resp.outputs.data(), &fx.rows[idx]);
                        let far = out.len() != want.len()
                            || out.iter().zip(want).any(|(a, b)| (a - b).abs() > 1e-4);
                        wrong += u64::from(!resp.degraded.any() && far);
                    }
                    // Typed errors are terminal resolutions too.
                    Err(
                        ServeError::Overloaded
                        | ServeError::DeadlineExceeded
                        | ServeError::DeviceFault
                        | ServeError::WorkerLost
                        | ServeError::ShuttingDown,
                    ) => resolved += 1,
                    Err(_) => {}
                }
            }
            (resolved, wrong)
        };
        let (mut resolved, wrong) = std::thread::scope(|s| {
            let threads: Vec<_> = (0..clients).map(|c| s.spawn(move || client(c))).collect();
            threads.into_iter().fold((0, 0), |(r, w), t| {
                let (tr, tw) = t.join().expect("client thread");
                (r + tr, w + tw)
            })
        });
        // A deterministic overload tail: requests whose deadline passed
        // at submission are shed at pickup and burn error budget, so the
        // burn alert cannot depend on how the racy burst scheduled.
        let expired_tail = 8usize;
        for i in 0..expired_tail {
            let req = Request::new(vec![fx.pool[i]]).with_deadline(Duration::ZERO);
            if matches!(
                server.submit(req).and_then(ResponseHandle::wait),
                Ok(_)
                    | Err(ServeError::DeadlineExceeded
                        | ServeError::Overloaded
                        | ServeError::ShuttingDown)
            ) {
                resolved += 1;
            }
        }
        let submitted = (clients * per_client + expired_tail) as u64;
        let slo = server.slo_report();
        let s = server.shutdown();
        assert_eq!(resolved, submitted, "every submission terminally resolves");
        assert_eq!(wrong, 0, "unflagged wrong answers");
        assert!(s.completed <= submitted, "served more than was submitted");
        assert!(
            slo.burn_alert,
            "overload trips the burn-rate alert: {slo:?}"
        );
        let _ = take_chains();
        log.push(format!(
            "submitted={submitted} resolved={resolved} wrong={wrong}"
        ));
    });
}

/// A worker panics while holding the cache lock (the chaos hook). The
/// lock is poison-recovered, the cache invalidated and the batch
/// requeued exactly once — and when the replacement hits the same panic,
/// the request fails *terminally* instead of looping forever.
#[test]
fn cache_poison() {
    run_twice("cache_poison", |fx, log| {
        let (poisoned, survivor) = (fx.pool[POOL / 2], fx.pool[1]);
        let mut cfg = config("chaos.poison", 256);
        cfg.chaos_panic_on_vertex = Some(poisoned);
        let server = fx.server(cfg);
        let bad = server
            .submit(Request::new(vec![poisoned]))
            .and_then(ResponseHandle::wait);
        assert!(
            matches!(bad, Err(ServeError::WorkerLost)),
            "poisoned request: {bad:?}"
        );
        log.push(format!(
            "target={poisoned} outcome=err:{}",
            ServeError::WorkerLost
        ));
        let good = server
            .submit(Request::new(vec![survivor]))
            .and_then(ResponseHandle::wait);
        let h = hash_row(
            good.expect("the server keeps serving after the panic")
                .outputs
                .data(),
        );
        assert_eq!(
            h,
            fx.expected(survivor),
            "post-recovery answer differs from the reference"
        );
        log.push(format!("target={survivor} outcome=ok hash={h:016x}"));
        let s = server.shutdown();
        assert_eq!(s.requeued, 1, "requeued exactly once");
        assert_eq!(s.worker_lost, 1, "the second death fails the request");
        assert_eq!(s.worker_deaths, 2, "both generations hit the panic");
        assert!(s.poison_recoveries >= 1, "the cache lock poison recovers");
        log.push(format!(
            "deaths={} requeued={} worker_lost={} poison_recoveries={}",
            s.worker_deaths, s.requeued, s.worker_lost, s.poison_recoveries
        ));
        log_chains(log, take_chains());
    });
}

/// The graph partitioned across four simulated devices. Every answer is
/// bitwise the single-device reference, a clean run leaves every failover
/// counter at zero, and every chain explains its routing: its
/// `shard_route` names the shard that owns the seed vertex, and a cache
/// miss forced an extraction that recorded its `halo_fetch`.
#[test]
fn sharded() {
    run_twice("sharded", |fx, log| {
        let server = fx.sharded(sharded_config("chaos.shard", 256));
        let owner_of: HashMap<u32, usize> = fx
            .pool
            .iter()
            .map(|&v| (v, server.plan().owner_of(v)))
            .collect();
        let oks = sequential(fx, log, "sharded", SEED ^ 0x5a4d, |r| server.submit(r));
        let s = server.shutdown();
        assert_eq!(oks, REQUESTS, "every request resolves Ok");
        // No faults are injected, so the failover layer is invisible.
        assert!(
            s.rejected == 0
                && s.device_faults == 0
                && s.worker_deaths == 0
                && s.failovers == 0
                && s.requeued == 0
                && s.worker_lost == 0
                && s.retries == 0
                && s.halo_retries == 0
                && s.partial == 0
                && s.degraded == 0,
            "a clean sharded run rejected, faulted or failed over: {s:?}"
        );
        let busy = s.per_shard_completed.iter().filter(|&&c| c > 0).count();
        assert!(busy >= 2, "pool traffic reaches more than one shard");
        assert!(
            s.halo.fetch_batches > 0,
            "4-shard extraction exchanges halos"
        );
        log.push(format!(
            "completed={} per_shard={:?} halo={:?}",
            s.completed, s.per_shard_completed, s.halo
        ));
        let chains = take_chains();
        for c in &chains {
            let route = c.events.iter().find(|e| e.kind == "shard_route");
            let route = route.unwrap_or_else(|| panic!("unrouted chain {}", c.canonical()));
            let field = |name: &str| {
                route
                    .detail
                    .split_whitespace()
                    .find_map(|tok| tok.strip_prefix(name)?.parse().ok())
            };
            let seed = field("seed=").unwrap_or_else(|| panic!("unparsable {}", route.detail));
            let owner = owner_of.get(&(seed as u32)).copied();
            assert_eq!(field("shard="), owner, "misrouted: {}", c.canonical());
            // Fully-cached batches never extract, so only a chain whose
            // lookup missed must carry its halo accounting.
            let missed = c.events.iter().any(|e| {
                e.kind == "cache"
                    && e.detail
                        .split_whitespace()
                        .any(|t| t.strip_prefix("miss=").is_some_and(|v| v != "0"))
            });
            assert!(
                !missed || c.events.iter().any(|e| e.kind == "halo_fetch"),
                "a miss without halo_fetch: {}",
                c.canonical()
            );
        }
        log_chains(log, chains);
    });
}

/// Streaming mutations under load: a seeded schedule interleaves
/// single-target queries with atomic mutation batches (edge and vertex
/// insertions, feature rewrites) and periodic compactions. Every response
/// pins the epoch current at its submission, the mutation and compaction
/// counters match the schedule, and every chain records its epoch.
/// (Unflagged answers equal to a fresh oracle on the materialised graph
/// at their epoch is `mutation_oracle.rs`'s.)
#[test]
fn dynamic() {
    run_twice("dynamic", |fx, log| {
        let mut cfg = config("chaos.dynamic", 256);
        // The ladder is not under test here, and its wall-clock-driven
        // transitions would perturb the event log.
        cfg.supervisor.monitor_interval = Duration::from_secs(3600);
        let server = fx.server(cfg);
        let seed = SEED ^ 0xd1a;
        // Edges present, to tell which insertions are new (a duplicate
        // burns no epoch), and the vertex count.
        let mut present: HashSet<(u32, u32)> = fx.g.edge_iter().collect();
        let mut n = fx.g.num_vertices() as u64;
        let (mut epoch, mut queries) = (0u64, 0u64);
        let row = |salt: u64| -> Vec<f32> {
            (0..8)
                .map(|j| (splitmix64(salt ^ j) % 1000) as f32 * 1e-3 - 0.5)
                .collect()
        };
        for i in 0..2 * REQUESTS {
            let roll = splitmix64(seed ^ (i as u64).wrapping_mul(0x9e37));
            if i % 10 == 5 {
                server.compact_graph();
                log.push(format!("step={i} compact epoch={epoch}"));
            } else if i % 3 == 2 {
                let mut batch = Vec::new();
                for k in 0..1 + roll % 2 {
                    let d = splitmix64(roll ^ (k + 1));
                    batch.push(match d % 4 {
                        0 | 1 => {
                            let (src, dst) = (((d >> 8) % n) as u32, ((d >> 40) % n) as u32);
                            epoch += u64::from(present.insert((src, dst)));
                            GraphMutation::InsertEdge { src, dst }
                        }
                        2 => {
                            n += 1;
                            epoch += 1;
                            GraphMutation::InsertVertex { features: row(d) }
                        }
                        _ => {
                            epoch += 1;
                            let vertex = ((d >> 16) % n) as u32;
                            GraphMutation::SetFeatures {
                                vertex,
                                features: row(d),
                            }
                        }
                    });
                }
                let got = server.mutate(&batch).expect("well-formed mutations");
                assert_eq!(got, epoch, "step {i}: server epoch vs accepted mutations");
                log.push(format!(
                    "step={i} mutate entries={} epoch={epoch}",
                    batch.len()
                ));
            } else {
                // A seeded target over the current vertex set, appended
                // vertices included.
                let t = (roll % n) as u32;
                queries += 1;
                match server
                    .submit(Request::new(vec![t]))
                    .and_then(ResponseHandle::wait)
                {
                    Ok(resp) => {
                        assert_eq!(
                            resp.epoch, epoch,
                            "step {i}: response pins its submission epoch"
                        );
                        log.push(format!(
                            "step={i} target={t} outcome=ok hash={:016x} epoch={} degraded={}",
                            hash_row(resp.outputs.data()),
                            resp.epoch,
                            resp.degraded.any()
                        ));
                    }
                    Err(e) => log.push(format!("step={i} target={t} outcome=err:{e}")),
                }
            }
        }
        let s = server.shutdown();
        assert_eq!(s.mutations, epoch, "accepted mutations equal the epoch");
        assert_eq!(s.epoch, epoch, "final server epoch");
        assert!(s.compactions > 0, "the schedule compacts");
        log.push(format!(
            "queries={queries} mutations={} epoch={} compactions={} evictions={} vertices={n}",
            s.mutations, s.epoch, s.compactions, s.mutation_evictions
        ));
        let chains = take_chains();
        assert_eq!(
            with_event(&chains, "epoch"),
            chains.len(),
            "every chain pins its epoch"
        );
        log_chains(log, chains);
    });
}

/// The failover scenario's config: shard 0 dies at its first launch, the
/// cache is off so every answer runs through the extraction path under
/// test, and the supervisor polls fast.
fn shard_loss_config(standby: bool, respawns: u32, breaker: u32, prefix: &str) -> ShardedConfig {
    let mut kill0 = vec![FaultPlan::none(); 4];
    kill0[0] = FaultPlan::device_lost_at(0);
    ShardedConfig {
        standby,
        per_shard_fault: Some(kill0),
        supervisor: SupervisorConfig {
            max_respawns: respawns,
            monitor_interval: Duration::from_millis(2),
            slot_breaker_threshold: breaker,
        },
        ..sharded_config(prefix, 0)
    }
}

/// A shard worker dies mid-batch, twice over.
///
/// **Covered:** standby mirrors on, respawn budget available. The parked
/// batch is salvaged to the buddy exactly once (one `shard_failover`
/// chain), every answer is bitwise the reference and unflagged, the dead
/// shard re-warms within budget, and no error budget burns.
///
/// **Uncovered:** no mirrors, no respawns, breaker threshold one. The
/// in-flight request fails loudly (`WorkerLost`, `buddy=none`), the
/// shard is retired, and from then on a request needing its rows is
/// served *partially* — flagged, never silently wrong — while every
/// unflagged answer stays bitwise exact.
#[test]
fn shard_loss() {
    run_twice("shard_loss", |fx, log| {
        // pool[0] = vertex 0 sits in shard 0's owned range, so this
        // request always rides the dying worker.
        let tripwire = fx.pool[0];

        let server = fx.sharded(shard_loss_config(true, 2, 10, "chaos.shardloss.covered"));
        assert_eq!(
            server.plan().owner_of(tripwire),
            0,
            "the tripwire rides shard 0"
        );
        let resp = server
            .submit(Request::new(vec![tripwire]))
            .and_then(ResponseHandle::wait);
        let resp = resp.expect("the salvaged request resolves Ok");
        let h = hash_row(resp.outputs.data());
        assert_eq!(
            h,
            fx.expected(tripwire),
            "the salvaged answer differs from the reference"
        );
        log.push(format!("covered tripwire target={tripwire} hash={h:016x}"));
        let oks = sequential(fx, log, "covered", SEED ^ 0x10f5, |r| server.submit(r));
        let slo = server.slo_report();
        let s = server.shutdown();
        assert_eq!(oks, REQUESTS, "the covered phase serves every request");
        assert_eq!(s.worker_deaths, 1);
        assert_eq!(s.requeued, 1, "the parked batch is salvaged exactly once");
        assert_eq!(s.failovers, 1, "exactly one failover re-route");
        assert_eq!(s.worker_lost, 0, "a covered loss fails no request");
        assert_eq!(s.respawns, 1, "the dead shard re-warms within budget");
        assert!(
            s.partial == 0 && s.degraded == 0,
            "a covered loss degrades nothing"
        );
        assert_eq!(
            slo.total_errors, 0,
            "a covered failover burns no error budget"
        );
        log.push(format!(
            "covered completed={} deaths={} requeued={} failovers={} respawns={}",
            s.completed, s.worker_deaths, s.requeued, s.failovers, s.respawns
        ));
        let chains = take_chains();
        assert_eq!(with_event(&chains, "shard_failover"), 1);
        log_chains(log, chains);

        let server = fx.sharded(shard_loss_config(false, 0, 1, "chaos.shardloss.uncovered"));
        let lost = server
            .submit(Request::new(vec![tripwire]))
            .and_then(ResponseHandle::wait);
        assert!(
            matches!(lost, Err(ServeError::WorkerLost)),
            "uncovered in-flight request: {lost:?}"
        );
        log.push(format!(
            "uncovered tripwire target={tripwire} outcome=err:{}",
            ServeError::WorkerLost
        ));
        // Retirement is the monitor thread's call; wait for it off-log.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !server.shard_retired(0) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(
            server.shard_retired(0),
            "the breaker retires the dead shard"
        );
        // A vertex only shard 0 hosted: its answer comes back flagged
        // partial (unreachable rows zero-filled), not as a hard error.
        let plan = server.plan();
        let dark = plan
            .owned_range(0)
            .map(|v| v as u32)
            .find(|&v| !plan.is_replicated(v));
        let dark = dark.expect("shard 0 owns an unreplicated vertex");
        let resp = server
            .submit(Request::new(vec![dark]))
            .and_then(ResponseHandle::wait);
        let resp = resp.expect("the partial-service rung degrades, it does not error");
        assert!(
            resp.degraded.partial,
            "an answer needing the dead rows is flagged partial"
        );
        log.push(format!(
            "uncovered dark target={dark} hash={:016x}",
            hash_row(resp.outputs.data())
        ));
        let served = sequential(fx, log, "uncovered", SEED ^ 0xdacc, |r| server.submit(r));
        let slo = server.slo_report();
        let s = server.shutdown();
        assert_eq!(served, REQUESTS, "the degraded tier keeps serving");
        assert_eq!(s.worker_lost, 1, "only the in-flight request fails hard");
        assert!(s.partial >= 1, "the dead range serves flagged-partial");
        assert_eq!(s.device_faults, 0, "partial service is not a device fault");
        assert_eq!(s.requeued, 0, "no buddy, nothing to salvage to");
        assert_eq!(s.respawns, 0, "no respawn budget to spend");
        assert_eq!(slo.total_errors, 1, "exactly the death burns budget");
        log.push(format!(
            "uncovered completed={} worker_lost={} partial={}",
            s.completed, s.worker_lost, s.partial
        ));
        let chains = take_chains();
        assert_eq!(
            with_event(&chains, "shard_failover"),
            0,
            "no buddy, no failover"
        );
        log_chains(log, chains);
    });
}

/// A storm of transient halo-fetch timeouts on the simulated interconnect
/// (45% per draw). A faulted fetch aborts before any row moves and is
/// retried under backoff, so the storm run is indistinguishable in output
/// from the calm run: every answer bitwise the reference, and the
/// aggregate `HaloStats` equal — a retried fetch counts exactly once.
#[test]
fn halo_storm() {
    run_twice("halo_storm", |fx, log| {
        let mut run = |label: &str, halo_fault: FaultPlan| {
            let prefix = format!("chaos.halostorm.{label}");
            let server = fx.sharded(ShardedConfig {
                halo_fault,
                ..sharded_config(&prefix, 0)
            });
            let oks = sequential(fx, log, label, SEED ^ 0x4a10, |r| server.submit(r));
            let slo = server.slo_report();
            let s = server.shutdown();
            assert_eq!(oks, REQUESTS, "{label}: every request resolves Ok");
            assert_eq!(s.degraded, 0, "{label}: nothing degrades");
            assert_eq!(slo.total_errors, 0, "{label}: no error budget burns");
            log_chains(log, take_chains());
            s
        };
        let calm = run("calm", FaultPlan::none());
        let storm = run("storm", FaultPlan::transient(SEED ^ 0x4a10, 0.45));
        assert_eq!(
            storm.halo, calm.halo,
            "retried halo fetches count exactly once"
        );
        assert!(
            storm.halo_retries > 0,
            "a 45% fault rate triggers halo retries"
        );
        assert_eq!(calm.halo_retries, 0, "the calm run does not retry");
        assert_eq!(
            storm.device_faults, 0,
            "the retry budget absorbs every timeout"
        );
        assert_eq!(storm.worker_deaths, 0, "halo timeouts kill no worker");
        assert_eq!(storm.completed, calm.completed);
        log.push(format!(
            "halo={:?} calm_retries={} storm_retries={}",
            storm.halo, calm.halo_retries, storm.halo_retries
        ));
    });
}
