//! **chaos_bench** — seeded fault-injection chaos harness for the
//! serving stack.
//!
//! Runs ten scenarios against `tlpgnn-serve`, each driven by a
//! deterministic `gpu_sim::FaultPlan` (or the server's chaos hook), and
//! asserts the service-level invariants the resilience layer exists to
//! uphold:
//!
//! * **Termination** — every submitted request terminally resolves with a
//!   response or a typed error; no hangs, no leaked handles.
//! * **No wrong answers** — a response not flagged degraded is bitwise
//!   identical to the fault-free reference for its targets; degraded
//!   responses are explicitly flagged.
//! * **Bounded recovery** — a lost worker is respawned and its in-flight
//!   batch requeued exactly once, so service resumes within one batch.
//! * **Determinism** — all ten scenarios run *twice* with the same seed
//!   and must produce identical event logs (fault injection is a pure
//!   function of `(seed, launch index)`, and racy scenarios log only
//!   order-independent aggregates).
//!
//! Scenarios: `baseline` (no faults — the control), `transient_storm`
//! (35% launch-failure rate, retried to success), `device_loss`
//! (permanent mid-batch device death → respawn + requeue), `straggler`
//! (every launch 6× slower, results still exact), `overload_faults`
//! (concurrent burst + faults + deadlines against a small queue),
//! `cache_poison` (worker panics holding the cache lock → poison
//! recovery + exactly-once requeue), `sharded` (graph partitioned
//! across four simulated devices — answers stay bitwise equal to the
//! single-device reference and every chain's `shard_route` decision
//! names the shard that owns its seed vertex), `dynamic` (streaming
//! edge/vertex/feature mutations interleaved with queries — every
//! unflagged answer must be bitwise the fresh ego+engine oracle on the
//! independently materialized graph at the response's pinned epoch: no
//! unflagged stale answer, ever), `shard_loss` (a shard worker dies
//! mid-batch — with standby mirrors its parked batch is salvaged to the
//! buddy exactly once, answers stay bitwise, and the shard re-warms
//! within budget; without mirrors the dead range serves *partially*,
//! every uncovered answer flagged, never silently wrong), and
//! `halo_storm` (transient halo-fetch timeouts retried under backoff —
//! responses and `HaloStats` bitwise-match the storm-free run, proving
//! retried fetches count exactly once).
//!
//! Writes `results/chaos_bench.json` (per-scenario verdicts) plus the
//! standard telemetry exports, and exits non-zero on any SLO violation
//! or determinism mismatch. Flags: `--vertices`, `--edges`, `--feat`,
//! `--hidden`, `--classes`, `--requests`, `--seed`, `--smoke` (small
//! graph + short run, for CI).

use std::sync::Arc;
use std::time::{Duration, Instant};

use gpu_sim::FaultPlan;
use telemetry::TraceChain;
use tlpgnn::{EngineOptions, GnnModel, GnnNetwork, TlpgnnEngine};
use tlpgnn_bench::{self as bench, cli::flag};
use tlpgnn_graph::{generators, subgraph, Csr};
use tlpgnn_serve::{
    GnnServer, GraphMutation, Request, RetryPolicy, ServeConfig, ServeError, ShardedConfig,
    ShardedServer, SupervisorConfig,
};
use tlpgnn_tensor::Matrix;

/// Vertices the scenarios draw their targets from. Small enough that the
/// reference pass is cheap, large enough to exercise cache misses.
const POOL: usize = 16;

#[derive(Debug, Clone)]
struct Args {
    vertices: usize,
    edges: usize,
    feat: usize,
    hidden: usize,
    classes: usize,
    requests: usize,
    seed: u64,
    smoke: bool,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            vertices: 2_000,
            edges: 10_000,
            feat: 8,
            hidden: 8,
            classes: 4,
            requests: 48,
            seed: 42,
            smoke: false,
        }
    }
}

fn parse_args() -> Args {
    let mut a = Args::default();
    a.smoke = bench::cli::parse_or_exit(
        "chaos_bench",
        &mut [
            flag("--vertices", &mut a.vertices),
            flag("--edges", &mut a.edges),
            flag("--feat", &mut a.feat),
            flag("--hidden", &mut a.hidden),
            flag("--classes", &mut a.classes),
            flag("--requests", &mut a.requests),
            flag("--seed", &mut a.seed),
        ],
    );
    if a.smoke {
        a.vertices = a.vertices.min(600);
        a.edges = a.edges.min(3_000);
        a.requests = a.requests.min(12);
    }
    a
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

/// Everything the scenarios share: the graph, the model, the target
/// pool, and the fault-free reference hash of every pool vertex's output
/// row.
struct Fixture {
    g: Csr,
    x: Matrix,
    net: GnnNetwork,
    pool: Vec<u32>,
    /// Reference output row per pool vertex, computed fault-free with
    /// single-target extraction.
    expected_rows: Vec<Vec<f32>>,
    /// Bitwise fingerprint of each reference row. Valid for comparison
    /// only when the batch composition matches the reference (sequential
    /// single-target scenarios): batching relabels the extracted
    /// subgraph, which permutes float-summation order and legitimately
    /// perturbs the last bits.
    expected: Vec<u64>,
}

impl Fixture {
    fn build(args: &Args) -> Self {
        let g = generators::rmat_default(args.vertices, args.edges, args.seed);
        let x = Matrix::random(args.vertices, args.feat, 1.0, args.seed ^ 0xfea7);
        let net = GnnNetwork::two_layer(
            |_| GnnModel::Gcn,
            args.feat,
            args.hidden,
            args.classes,
            args.seed ^ 0x9e7,
        );
        let pool: Vec<u32> = (0..POOL)
            .map(|i| (i * args.vertices / POOL) as u32)
            .collect();
        // Fault-free reference: one clean single-worker server, one
        // request per pool vertex.
        let server = GnnServer::start(
            base_config("chaos.reference", args, 0),
            g.clone(),
            x.clone(),
            net.clone(),
        );
        let expected_rows: Vec<Vec<f32>> = pool
            .iter()
            .map(|&v| {
                let resp = server
                    .submit(Request::new(vec![v]))
                    .expect("reference submit")
                    .wait()
                    .expect("reference request must be served");
                resp.outputs.data().to_vec()
            })
            .collect();
        server.shutdown();
        let expected = expected_rows.iter().map(|r| hash_row(r)).collect();
        Self {
            g,
            x,
            net,
            pool,
            expected_rows,
            expected,
        }
    }

    fn server(&self, cfg: ServeConfig) -> GnnServer {
        GnnServer::start(cfg, self.g.clone(), self.x.clone(), self.net.clone())
    }

    /// The `i`-th target of a scenario's request stream (seeded draw
    /// from the pool).
    fn target(&self, seed: u64, i: usize) -> u32 {
        self.pool[(bench::splitmix64(seed ^ (i as u64).wrapping_mul(0x51ed)) as usize) % POOL]
    }

    fn expected_for(&self, target: u32) -> u64 {
        self.expected[self.pool.iter().position(|&v| v == target).unwrap()]
    }
}

fn base_config(prefix: &str, args: &Args, cache: usize) -> ServeConfig {
    ServeConfig {
        workers: 1,
        max_batch: 4,
        max_wait: Duration::from_millis(1),
        queue_capacity: 64,
        cache_capacity: cache,
        // Generous, fast retry budget: chaos runs care about invariants,
        // not wall-clock realism.
        retry: RetryPolicy {
            max_retries: 64,
            base_backoff: Duration::from_micros(10),
            max_backoff: Duration::from_micros(200),
            seed: args.seed,
            ..RetryPolicy::default()
        },
        metrics_prefix: prefix.to_string(),
        ..ServeConfig::default()
    }
}

struct ScenarioResult {
    name: &'static str,
    requests: u64,
    /// Causal trace chains the scenario's server published.
    traces: u64,
    /// Deterministic event log; must be identical across same-seed runs.
    log: Vec<String>,
    /// SLO violations (empty = pass).
    fails: Vec<String>,
}

impl ScenarioResult {
    /// Also marks a scenario boundary for the observability substrate:
    /// the flight recorder is relabelled (`flightrec_<name>.json`) and
    /// cleared, and chains left over from a previous scenario (or the
    /// reference pass) are drained from the collector.
    fn new(name: &'static str) -> Self {
        telemetry::flight::recorder().set_label(name);
        telemetry::flight::recorder().reset();
        let _ = telemetry::collector().take_traces();
        Self {
            name,
            requests: 0,
            traces: 0,
            log: Vec::new(),
            fails: Vec::new(),
        }
    }

    fn check(&mut self, ok: bool, msg: impl Into<String>) {
        if !ok {
            self.fails.push(msg.into());
        }
    }

    /// Drain the chains this scenario's server published and verify each
    /// explains its request's outcome end-to-end: well-formed per
    /// [`TraceChain::validate`], and the terminal event's precursors are
    /// present (a degraded response has a `degrade` event, a device-fault
    /// failure has `fault` events, a worker-lost failure was salvaged
    /// first, a blown deadline was `shed`).
    fn validate_traces(&mut self) -> Vec<TraceChain> {
        let chains = telemetry::collector().take_traces();
        if !telemetry::enabled() {
            return chains;
        }
        self.traces = chains.len() as u64;
        for c in &chains {
            if let Err(e) = c.validate() {
                self.fails.push(format!("trace invariant: {e}"));
                continue;
            }
            let term = c.events.last().expect("validated chains are non-empty");
            let has = |k: &str| c.events.iter().any(|e| e.kind == k);
            let explained = match term.kind {
                "response" if term.detail == "degraded" => has("degrade"),
                "error" if term.detail.starts_with("device_fault") => has("fault"),
                // A worker-lost failure was either salvaged first or
                // explicitly had no live buddy to salvage to.
                "error" if term.detail.starts_with("worker_lost") => {
                    has("salvage") || term.detail.contains("buddy=none")
                }
                "error" if term.detail.starts_with("deadline_exceeded") => has("shed"),
                _ => true,
            };
            if !explained {
                self.fails.push(format!(
                    "trace {} outcome `{}({})` unexplained by its chain: {}",
                    c.id,
                    term.kind,
                    term.detail,
                    c.canonical()
                ));
            }
        }
        chains
    }

    /// Append the canonical (timestamp-free) chains to the determinism
    /// log, sorted by trace id. Only sequential scenarios call this —
    /// racy ones validate chains but keep them out of the compared log.
    fn log_chains(&mut self, mut chains: Vec<TraceChain>) {
        if !telemetry::enabled() {
            return;
        }
        chains.sort_by_key(|c| c.id);
        for c in &chains {
            self.log.push(c.canonical());
        }
    }
}

/// Drive `n` sequential submit-then-wait requests, logging each
/// per-request outcome and checking the answer against the reference.
/// Returns how many resolved `Ok`.
fn sequential_requests(
    r: &mut ScenarioResult,
    fx: &Fixture,
    server: &GnnServer,
    seed: u64,
    n: usize,
) -> u64 {
    let mut oks = 0u64;
    for i in 0..n {
        let t = fx.target(seed, i);
        let outcome = match server.submit(Request::new(vec![t])) {
            Ok(h) => h.wait(),
            Err(e) => Err(e),
        };
        match outcome {
            Ok(resp) => {
                oks += 1;
                let h = hash_row(resp.outputs.data());
                if !resp.degraded.any() {
                    r.check(
                        h == fx.expected_for(t),
                        format!("req {i} target {t}: undegraded answer differs from reference"),
                    );
                }
                r.log.push(format!(
                    "req={i} target={t} outcome=ok hash={h:016x} degraded={}",
                    resp.degraded.any()
                ));
            }
            Err(e) => r.log.push(format!("req={i} target={t} outcome=err:{e}")),
        }
    }
    r.requests += n as u64;
    oks
}

/// Scenario 1 — no faults. The control: everything resolves `Ok`,
/// exact, undegraded, with zero resilience machinery engaged.
fn baseline(fx: &Fixture, args: &Args) -> ScenarioResult {
    let mut r = ScenarioResult::new("baseline");
    let server = fx.server(base_config("chaos.baseline", args, 256));
    let oks = sequential_requests(&mut r, fx, &server, args.seed ^ 0xba5e, args.requests);
    let slo = server.slo_report();
    let s = server.shutdown();
    r.check(oks == args.requests as u64, "not every request resolved Ok");
    r.check(
        !slo.burn_alert && slo.total_errors == 0,
        "clean run must not burn error budget",
    );
    r.check(s.completed == args.requests as u64, "completed != offered");
    r.check(
        s.retries == 0 && s.worker_deaths == 0 && s.device_faults == 0 && s.degraded == 0,
        "clean run engaged resilience machinery",
    );
    r.log.push(format!(
        "completed={} retries={} deaths={} degraded={}",
        s.completed, s.retries, s.worker_deaths, s.degraded
    ));
    let chains = r.validate_traces();
    r.log_chains(chains);
    r
}

/// Scenario 2 — a storm of transient launch faults (35% per attempt).
/// Retry-with-backoff must absorb every one; answers stay bitwise exact.
fn transient_storm(fx: &Fixture, args: &Args) -> ScenarioResult {
    let mut r = ScenarioResult::new("transient_storm");
    let mut cfg = base_config("chaos.transient", args, 0);
    cfg.device.fault = FaultPlan::transient(args.seed ^ 0x7a, 0.35);
    let server = fx.server(cfg);
    let oks = sequential_requests(&mut r, fx, &server, args.seed ^ 0x5702, args.requests);
    let s = server.shutdown();
    r.check(oks == args.requests as u64, "not every request resolved Ok");
    r.check(s.retries > 0, "a 35% fault rate must trigger retries");
    r.check(s.device_faults == 0, "retry budget must absorb transients");
    r.check(
        s.worker_deaths == 0,
        "transient faults must not kill workers",
    );
    r.log.push(format!(
        "completed={} retries={} device_faults={}",
        s.completed, s.retries, s.device_faults
    ));
    let chains = r.validate_traces();
    if telemetry::enabled() {
        r.check(
            chains
                .iter()
                .any(|c| c.events.iter().any(|e| e.kind == "retry")),
            "transient-storm chains must record retry events",
        );
    }
    r.log_chains(chains);
    r
}

/// Scenario 3 — the device dies permanently mid-batch. The supervisor
/// salvages the in-flight batch, requeues it exactly once, and respawns
/// the worker on a healthy device; every request still resolves `Ok`.
fn device_loss(fx: &Fixture, args: &Args) -> ScenarioResult {
    let mut r = ScenarioResult::new("device_loss");
    let mut cfg = base_config("chaos.lost", args, 0);
    // A 2-layer forward is 2·L + 1 = 5 launches; dying at attempt 7
    // kills the device in the middle of the second request's batch.
    cfg.device.fault = FaultPlan::device_lost_at(7);
    let server = fx.server(cfg);
    let oks = sequential_requests(&mut r, fx, &server, args.seed ^ 0xdead, args.requests);
    let s = server.shutdown();
    r.check(
        oks == args.requests as u64,
        "recovery must serve every request, including the salvaged batch",
    );
    r.check(s.worker_deaths == 1, "exactly one death expected");
    r.check(s.requeued == 1, "in-flight batch requeued exactly once");
    r.check(s.respawns >= 1, "dead worker must be respawned");
    r.check(s.worker_lost == 0, "no request may be failed terminally");
    r.log.push(format!(
        "completed={} deaths={} requeued={} worker_lost={}",
        s.completed, s.worker_deaths, s.requeued, s.worker_lost
    ));
    let chains = r.validate_traces();
    if telemetry::enabled() {
        r.check(
            chains
                .iter()
                .any(|c| c.events.iter().any(|e| e.kind == "salvage")),
            "the salvaged batch's chains must record the salvage",
        );
        check_flight_dump(&mut r);
    }
    r.log_chains(chains);
    r
}

/// The worker death above is a permanent fault, so the flight recorder
/// must have dumped `flightrec_device_loss.json` — present, parseable,
/// and bounded by the ring capacity.
fn check_flight_dump(r: &mut ScenarioResult) {
    let path = bench::results_dir().join(format!("flightrec_{}.json", r.name));
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            r.fails
                .push(format!("flight dump missing at {}: {e}", path.display()));
            return;
        }
    };
    match telemetry::json::parse(&text) {
        Ok(doc) => {
            let events = doc
                .get("events")
                .and_then(telemetry::json::Value::as_arr)
                .map_or(0, <[telemetry::json::Value]>::len);
            let cap = telemetry::flight::recorder().capacity();
            r.check(events > 0, "flight dump holds no events");
            r.check(
                events <= cap,
                format!("flight dump holds {events} events, over the {cap} ring bound"),
            );
            r.check(
                doc.get("reason")
                    .and_then(telemetry::json::Value::as_str)
                    .is_some_and(|s| s.starts_with("worker_death")),
                "flight dump reason must name the worker death",
            );
        }
        Err(e) => r.fails.push(format!("flight dump unparseable: {e}")),
    }
}

/// Scenario 4 — every launch runs 6× slower (thermal throttling /
/// noisy neighbor). Stragglers change simulated time only: results stay
/// bitwise exact, nothing retries, nobody dies.
fn straggler(fx: &Fixture, args: &Args) -> ScenarioResult {
    let mut r = ScenarioResult::new("straggler");
    let injected_before = fault_counter("sim.fault.straggler");
    let mut cfg = base_config("chaos.straggler", args, 0);
    cfg.device.fault = FaultPlan::straggler(args.seed ^ 0x51, 1.0, 6.0);
    let server = fx.server(cfg);
    let oks = sequential_requests(&mut r, fx, &server, args.seed ^ 0x5712, args.requests);
    let s = server.shutdown();
    let injected = fault_counter("sim.fault.straggler") - injected_before;
    r.check(oks == args.requests as u64, "not every request resolved Ok");
    r.check(
        s.retries == 0 && s.worker_deaths == 0,
        "stragglers are slow, not broken",
    );
    if telemetry::enabled() {
        r.check(injected > 0, "rate-1.0 plan must record straggler events");
    }
    r.log.push(format!(
        "completed={} straggler_events={injected}",
        s.completed
    ));
    let chains = r.validate_traces();
    r.log_chains(chains);
    r
}

fn fault_counter(name: &str) -> u64 {
    telemetry::collector()
        .metrics()
        .snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

/// Scenario 5 — concurrent burst past a small queue, with transient
/// faults and per-request deadlines on half the stream. Scheduling is
/// racy, so the log carries only order-independent aggregates; the
/// invariants are *every* submission terminally resolves and no
/// unflagged answer is wrong.
fn overload_faults(fx: &Fixture, args: &Args) -> ScenarioResult {
    let mut r = ScenarioResult::new("overload_faults");
    let mut cfg = base_config("chaos.overload", args, 64);
    cfg.workers = 2;
    cfg.queue_capacity = 8;
    cfg.device.fault = FaultPlan::transient(args.seed ^ 0x01d, 0.15);
    let server = Arc::new(fx.server(cfg));
    let clients = 4usize;
    let per_client = args.requests.max(4);
    let mut threads = Vec::new();
    for c in 0..clients {
        let server = Arc::clone(&server);
        let seed = args.seed ^ 0x01d ^ ((c as u64) << 40);
        let (pool, expected_rows) = (fx.pool.clone(), fx.expected_rows.clone());
        threads.push(std::thread::spawn(move || {
            let (mut resolved, mut wrong) = (0u64, 0u64);
            for i in 0..per_client {
                let idx = (bench::splitmix64(seed ^ (i as u64)) as usize) % POOL;
                let t = pool[idx];
                let mut req = Request::new(vec![t]);
                if i % 2 == 1 {
                    req = req.with_deadline(Duration::from_millis(25));
                }
                let outcome = match server.submit(req) {
                    Ok(h) => h.wait(),
                    Err(e) => Err(e),
                };
                match outcome {
                    Ok(resp) => {
                        resolved += 1;
                        // Batch composition is racy here, so rounding may
                        // differ from the single-target reference by
                        // summation order; "wrong" means beyond a tight
                        // numeric tolerance, not beyond the last bit.
                        let out = resp.outputs.data();
                        let far = out.len() != expected_rows[idx].len()
                            || out
                                .iter()
                                .zip(&expected_rows[idx])
                                .any(|(a, b)| (a - b).abs() > 1e-4);
                        if !resp.degraded.any() && far {
                            wrong += 1;
                        }
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
        }));
    }
    let (mut resolved, mut wrong) = (0u64, 0u64);
    for t in threads {
        let (res, wr) = t.join().expect("client thread");
        resolved += res;
        wrong += wr;
    }
    let server = Arc::try_unwrap(server).ok().expect("clients dropped");
    // Deterministic overload tail: latency-critical requests whose
    // deadline has already passed at submission. Each is shed at pickup
    // and burns error budget, so the burn-rate alert below cannot depend
    // on how the racy burst happened to schedule.
    let expired_tail = 8usize;
    for i in 0..expired_tail {
        let t = fx.pool[i % POOL];
        let outcome = match server.submit(Request::new(vec![t]).with_deadline(Duration::ZERO)) {
            Ok(h) => h.wait(),
            Err(e) => Err(e),
        };
        if matches!(
            outcome,
            Err(ServeError::DeadlineExceeded | ServeError::Overloaded | ServeError::ShuttingDown)
                | Ok(_)
        ) {
            resolved += 1;
        }
    }
    let submitted = (clients * per_client + expired_tail) as u64;
    r.requests = submitted;
    let slo = server.slo_report();
    let s = server.shutdown();
    r.check(
        resolved == submitted,
        format!("only {resolved}/{submitted} submissions terminally resolved"),
    );
    r.check(wrong == 0, format!("{wrong} unflagged wrong answers"));
    r.check(
        s.completed <= submitted,
        "served more requests than were submitted",
    );
    r.check(
        slo.burn_alert,
        format!(
            "overload must trip the burn-rate alert ({} errors, burn {:.2})",
            slo.total_errors, slo.burn_rate
        ),
    );
    // Scheduling is racy here, so chains stay out of the determinism
    // log — but every one must still be well-formed and explained.
    let _ = r.validate_traces();
    r.log.push(format!(
        "submitted={submitted} resolved={resolved} wrong={wrong}"
    ));
    r
}

/// Scenario 6 — a worker panics while holding the cache lock (the chaos
/// hook). The lock is poison-recovered, the cache invalidated, the batch
/// requeued exactly once — and when the replacement hits the same panic,
/// the request fails *terminally* instead of looping forever.
fn cache_poison(fx: &Fixture, args: &Args) -> ScenarioResult {
    let mut r = ScenarioResult::new("cache_poison");
    let poisoned = fx.pool[POOL / 2];
    let survivor = fx.pool[1];
    let mut cfg = base_config("chaos.poison", args, 256);
    cfg.chaos_panic_on_vertex = Some(poisoned);
    let server = fx.server(cfg);
    let bad = match server.submit(Request::new(vec![poisoned])) {
        Ok(h) => h.wait(),
        Err(e) => Err(e),
    };
    r.check(
        matches!(bad, Err(ServeError::WorkerLost)),
        format!("poisoned request must fail WorkerLost, got {bad:?}"),
    );
    r.log.push(format!(
        "req=0 target={poisoned} outcome=err:{}",
        ServeError::WorkerLost
    ));
    let good = match server.submit(Request::new(vec![survivor])) {
        Ok(h) => h.wait(),
        Err(e) => Err(e),
    };
    match good {
        Ok(resp) => {
            let h = hash_row(resp.outputs.data());
            r.check(
                h == fx.expected_for(survivor),
                "post-recovery answer differs from reference",
            );
            r.log
                .push(format!("req=1 target={survivor} outcome=ok hash={h:016x}"));
        }
        Err(e) => {
            r.fails
                .push(format!("server must keep serving after the panic, got {e}"));
            r.log
                .push(format!("req=1 target={survivor} outcome=err:{e}"));
        }
    }
    r.requests = 2;
    let s = server.shutdown();
    r.check(s.requeued == 1, "requeued exactly once");
    r.check(s.worker_lost == 1, "second death fails the request");
    r.check(s.worker_deaths == 2, "both generations hit the panic");
    r.check(s.poison_recoveries >= 1, "cache lock poison must recover");
    r.log.push(format!(
        "deaths={} requeued={} worker_lost={} poison_recoveries={}",
        s.worker_deaths, s.requeued, s.worker_lost, s.poison_recoveries
    ));
    let chains = r.validate_traces();
    r.log_chains(chains);
    r
}

/// Scenario 7 — the sharded tier under the same microscope. The graph is
/// partitioned across four simulated devices; every sequential request
/// must come back bitwise equal to the single-device reference, and every
/// chain must *explain its routing*: the `shard_route` decision recorded
/// right after `submit` names the shard that actually owns the seed
/// vertex, and any `halo_fetch` rides a routed chain (the latter enforced
/// by `TraceChain::validate` itself).
fn sharded(fx: &Fixture, args: &Args) -> ScenarioResult {
    let mut r = ScenarioResult::new("sharded");
    let server = ShardedServer::start(
        ShardedConfig {
            shards: 4,
            replicate_hot: 16,
            max_batch: 4,
            max_wait: Duration::from_millis(1),
            queue_capacity: 64,
            cache_capacity: 256,
            metrics_prefix: "chaos.shard".to_string(),
            ..ShardedConfig::default()
        },
        fx.g.clone(),
        fx.x.clone(),
        fx.net.clone(),
    );
    // The vertex→shard directory, captured while the server is alive so
    // the chain check below can audit routing decisions after shutdown.
    let owner_of: std::collections::HashMap<u32, usize> = fx
        .pool
        .iter()
        .map(|&v| (v, server.plan().owner_of(v)))
        .collect();
    let mut oks = 0u64;
    for i in 0..args.requests {
        let t = fx.target(args.seed ^ 0x5a4d, i);
        let outcome = match server.submit(Request::new(vec![t])) {
            Ok(h) => h.wait(),
            Err(e) => Err(e),
        };
        match outcome {
            Ok(resp) => {
                oks += 1;
                let h = hash_row(resp.outputs.data());
                r.check(
                    h == fx.expected_for(t),
                    format!("req {i} target {t}: sharded answer differs from reference"),
                );
                r.log.push(format!(
                    "req={i} target={t} shard={} outcome=ok hash={h:016x}",
                    owner_of[&t]
                ));
            }
            Err(e) => r.log.push(format!("req={i} target={t} outcome=err:{e}")),
        }
    }
    r.requests = args.requests as u64;
    let s = server.shutdown();
    r.check(oks == args.requests as u64, "not every request resolved Ok");
    // No faults are injected here, so the failover layer must be
    // invisible: every one of its counters stays at zero.
    r.check(
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
        "clean sharded run rejected, faulted or engaged the failover layer",
    );
    r.check(
        s.per_shard_completed.iter().filter(|&&c| c > 0).count() >= 2,
        "pool traffic must reach more than one shard",
    );
    r.check(
        s.halo.fetch_batches > 0,
        "multi-hop extraction across 4 shards must exchange halos",
    );
    r.log.push(format!(
        "completed={} per_shard={:?} halo_batches={} halo_rows={} halo_bytes={}",
        s.completed,
        s.per_shard_completed,
        s.halo.fetch_batches,
        s.halo.fetched_rows,
        s.halo.fetched_bytes
    ));
    let chains = r.validate_traces();
    // Routing audit: each chain's `shard_route` decision must name the
    // shard that owns the seed vertex it recorded.
    for c in &chains {
        let Some(route) = c.events.iter().find(|e| e.kind == "shard_route") else {
            r.fails
                .push(format!("trace {}: sharded chain has no shard_route", c.id));
            continue;
        };
        let mut shard = None;
        let mut seed = None;
        for tok in route.detail.split_whitespace() {
            if let Some(v) = tok.strip_prefix("shard=") {
                shard = v.parse::<usize>().ok();
            }
            if let Some(v) = tok.strip_prefix("seed=") {
                seed = v.parse::<u32>().ok();
            }
        }
        match (shard, seed) {
            (Some(shard), Some(seed)) => r.check(
                owner_of.get(&seed) == Some(&shard),
                format!(
                    "trace {}: routed to shard {shard} but vertex {seed} is owned by shard {:?}",
                    c.id,
                    owner_of.get(&seed)
                ),
            ),
            _ => r.fails.push(format!(
                "trace {}: unparsable shard_route detail `{}`",
                c.id, route.detail
            )),
        }
        // A request whose cache lookup missed forced a distributed
        // extraction, and that extraction must have published its halo
        // accounting onto the chain. (Fully-cached batches never
        // extract, so hit-only chains legitimately carry no halo_fetch.)
        let missed = c.events.iter().any(|e| {
            e.kind == "cache"
                && e.detail
                    .split_whitespace()
                    .any(|tok| tok.strip_prefix("miss=").is_some_and(|v| v != "0"))
        });
        if missed && !c.events.iter().any(|e| e.kind == "halo_fetch") {
            r.fails.push(format!(
                "trace {}: cache miss forced an extraction but the chain has no halo_fetch",
                c.id
            ));
        }
    }
    r.log_chains(chains);
    r
}

/// Scenario 8 — streaming mutations under load. A seeded schedule
/// interleaves single-target queries with atomic mutation batches
/// (edge/vertex insertions, feature rewrites) and periodic compactions.
/// A mirror edge list + feature table — sharing no code with the
/// server's delta overlay — materializes the graph at every epoch, and
/// every *unflagged* response must be bitwise the fresh `ego_graph` +
/// fused-engine oracle for the epoch the response pinned at submission.
/// One unflagged stale answer fails the SLO gate.
fn dynamic(fx: &Fixture, args: &Args) -> ScenarioResult {
    let mut r = ScenarioResult::new("dynamic");
    let mut cfg = base_config("chaos.dynamic", args, 256);
    // The ladder is not under test here, and its wall-clock-driven
    // transitions would perturb the identical-event-log gate.
    cfg.supervisor.monitor_interval = Duration::from_secs(3600);
    let oracle_device = cfg.device.clone();
    let server = fx.server(cfg);
    let hops = server.exact_hops();
    let seed = args.seed ^ 0xd1a;

    // Mirror of the server's graph: (dst, src) edge list + membership
    // set + feature rows + accepted-mutation count.
    let mut edges: Vec<(u32, u32)> = fx.g.edge_iter().map(|(s, d)| (d, s)).collect();
    let mut present: std::collections::HashSet<(u32, u32)> = fx.g.edge_iter().collect();
    let mut feats: Vec<Vec<f32>> = (0..fx.g.num_vertices())
        .map(|v| fx.x.row(v).to_vec())
        .collect();
    let mut n = fx.g.num_vertices();
    let mut epoch = 0u64;
    let feat_dim = fx.x.cols();
    let new_row = |v: usize| -> Vec<f32> {
        (0..feat_dim)
            .map(|j| {
                ((bench::splitmix64(seed ^ ((v * feat_dim + j) as u64)) % 1000) as f32) * 1e-3 - 0.5
            })
            .collect()
    };

    let steps = args.requests * 2;
    let (mut queries, mut stale) = (0u64, 0u64);
    for i in 0..steps {
        let roll = bench::splitmix64(seed ^ (i as u64).wrapping_mul(0x9e37));
        if i % 10 == 5 {
            server.compact_graph();
            r.log.push(format!("step={i} compact epoch={epoch}"));
            continue;
        }
        if i % 3 == 2 {
            // One mutation batch of 1–2 seeded entries.
            let mut batch = Vec::new();
            for k in 0..(1 + (roll % 2) as usize) {
                let d = bench::splitmix64(roll ^ (k as u64 + 1));
                match d % 4 {
                    0 | 1 => {
                        let (src, dst) =
                            (((d >> 8) % n as u64) as u32, ((d >> 40) % n as u64) as u32);
                        batch.push(GraphMutation::InsertEdge { src, dst });
                        if present.insert((src, dst)) {
                            edges.push((dst, src));
                            epoch += 1;
                        }
                    }
                    2 => {
                        let row = new_row(n);
                        batch.push(GraphMutation::InsertVertex {
                            features: row.clone(),
                        });
                        feats.push(row);
                        n += 1;
                        epoch += 1;
                    }
                    _ => {
                        let v = ((d >> 16) % n as u64) as u32;
                        let row = new_row(v as usize + i);
                        batch.push(GraphMutation::SetFeatures {
                            vertex: v,
                            features: row.clone(),
                        });
                        feats[v as usize] = row;
                        epoch += 1;
                    }
                }
            }
            let got = server
                .mutate(&batch)
                .expect("chaos mutations are well-formed");
            r.check(
                got == epoch,
                format!("step {i}: server epoch {got}, mirror says {epoch}"),
            );
            r.log.push(format!(
                "step={i} mutate entries={} epoch={epoch}",
                batch.len()
            ));
            continue;
        }
        // Query a seeded target over the *current* vertex set (appended
        // vertices included).
        let t = (roll % n as u64) as u32;
        queries += 1;
        let outcome = match server.submit(Request::new(vec![t])) {
            Ok(h) => h.wait(),
            Err(e) => Err(e),
        };
        match outcome {
            Ok(resp) => {
                r.check(
                    resp.epoch == epoch,
                    format!(
                        "step {i}: response pinned epoch {}, submitted at {epoch}",
                        resp.epoch
                    ),
                );
                let h = hash_row(resp.outputs.data());
                if !resp.degraded.any() {
                    // Fresh ego+engine oracle on the independently
                    // materialized graph at this epoch.
                    let g = bench::pack_csr(n, &edges);
                    let mut flat = Vec::with_capacity(n * feat_dim);
                    for row in &feats {
                        flat.extend_from_slice(row);
                    }
                    let x = Matrix::from_vec(n, feat_dim, flat);
                    let ego = subgraph::ego_graph(&g, &[t], hops);
                    let mut sub = Matrix::zeros(ego.vertices.len(), feat_dim);
                    for (local, &orig) in ego.vertices.iter().enumerate() {
                        sub.row_mut(local).copy_from_slice(x.row(orig as usize));
                    }
                    let mut engine =
                        TlpgnnEngine::new(oracle_device.clone(), EngineOptions::default());
                    let (out, _) = engine.classify_forward(&fx.net, &ego.csr, &sub);
                    if h != hash_row(out.row(0)) {
                        stale += 1;
                        r.fails.push(format!(
                            "step {i} target {t} epoch {epoch}: UNFLAGGED STALE ANSWER \
                             (differs from the materialized-graph oracle)"
                        ));
                    }
                }
                r.log.push(format!(
                    "step={i} target={t} outcome=ok hash={h:016x} epoch={} degraded={}",
                    resp.epoch,
                    resp.degraded.any()
                ));
            }
            Err(e) => r.log.push(format!("step={i} target={t} outcome=err:{e}")),
        }
    }
    r.requests = queries;
    let s = server.shutdown();
    r.check(
        stale == 0,
        format!("{stale} unflagged stale answers served"),
    );
    r.check(
        s.mutations == epoch,
        "accepted mutations must equal the epoch",
    );
    r.check(
        s.epoch == epoch,
        "final server epoch disagrees with the mirror",
    );
    r.check(s.compactions > 0, "the schedule compacts periodically");
    r.log.push(format!(
        "queries={queries} mutations={} epoch={} compactions={} evictions={} vertices={n}",
        s.mutations, s.epoch, s.compactions, s.mutation_evictions
    ));
    let chains = r.validate_traces();
    if telemetry::enabled() {
        r.check(
            chains
                .iter()
                .all(|c| c.events.iter().any(|e| e.kind == "epoch")),
            "every dynamic-scenario chain must record its pinned epoch",
        );
    }
    r.log_chains(chains);
    r
}

/// The sharded-tier config the failover scenarios share: shard 0 dies
/// at its first launch, every other device is clean, the cache is off
/// so every answer runs through the extraction path under test, and the
/// supervisor polls fast.
fn shard_loss_config(
    standby: bool,
    respawns: u32,
    breaker: u32,
    args: &Args,
    prefix: &str,
) -> ShardedConfig {
    let mut kill0 = vec![FaultPlan::none(); 4];
    kill0[0] = FaultPlan::device_lost_at(0);
    ShardedConfig {
        shards: 4,
        replicate_hot: 16,
        standby,
        max_batch: 4,
        max_wait: Duration::from_millis(1),
        queue_capacity: 64,
        cache_capacity: 0,
        per_shard_fault: Some(kill0),
        retry: RetryPolicy {
            max_retries: 64,
            base_backoff: Duration::from_micros(10),
            max_backoff: Duration::from_micros(200),
            seed: args.seed,
            ..RetryPolicy::default()
        },
        supervisor: SupervisorConfig {
            max_respawns: respawns,
            monitor_interval: Duration::from_millis(2),
            slot_breaker_threshold: breaker,
            ..SupervisorConfig::default()
        },
        metrics_prefix: prefix.to_string(),
        ..ShardedConfig::default()
    }
}

/// Scenario 9 — a shard worker dies mid-batch, twice over.
///
/// **Phase A (covered):** standby mirrors on, respawn budget available.
/// The parked batch is salvaged to the buddy *exactly once* (one
/// `shard_failover` event, validated against its chain), the answer —
/// and every later one — is bitwise the single-device reference, the
/// dead shard re-warms within budget, and no request fails or burns
/// error budget.
///
/// **Phase B (uncovered):** no mirrors, no respawns, breaker threshold
/// of one. The in-flight request fails loudly (`WorkerLost`, buddy=none),
/// the shard is retired, and from then on requests needing its rows are
/// served *partially* — flagged, never cached, never silently wrong —
/// while untouched requests stay bitwise exact.
fn shard_loss(fx: &Fixture, args: &Args) -> ScenarioResult {
    let mut r = ScenarioResult::new("shard_loss");
    // Vertex 0 (pool[0]) sits in shard 0's contiguous owned range, so
    // this request always rides the dying worker.
    let tripwire = fx.pool[0];

    // ---- Phase A: standby buddy covers the loss. ----
    let server = ShardedServer::start(
        shard_loss_config(true, 2, 10, args, "chaos.shardloss.covered"),
        fx.g.clone(),
        fx.x.clone(),
        fx.net.clone(),
    );
    r.check(
        server.plan().owner_of(tripwire) == 0,
        "tripwire vertex must be owned by the dying shard",
    );
    let outcome = match server.submit(Request::new(vec![tripwire])) {
        Ok(h) => h.wait(),
        Err(e) => Err(e),
    };
    match outcome {
        Ok(resp) => {
            let h = hash_row(resp.outputs.data());
            r.check(
                h == fx.expected_for(tripwire),
                "salvaged answer differs from the fault-free reference",
            );
            r.check(
                !resp.degraded.any(),
                "buddy-covered failover must not be flagged",
            );
            r.log.push(format!(
                "covered tripwire target={tripwire} outcome=ok hash={h:016x}"
            ));
        }
        Err(e) => {
            r.fails
                .push(format!("salvaged request must resolve Ok, got {e}"));
            r.log.push(format!(
                "covered tripwire target={tripwire} outcome=err:{e}"
            ));
        }
    }
    let mut oks = 0u64;
    for i in 0..args.requests {
        let t = fx.target(args.seed ^ 0x10f5, i);
        let outcome = match server.submit(Request::new(vec![t])) {
            Ok(h) => h.wait(),
            Err(e) => Err(e),
        };
        match outcome {
            Ok(resp) => {
                oks += 1;
                let h = hash_row(resp.outputs.data());
                r.check(
                    h == fx.expected_for(t) && !resp.degraded.any(),
                    format!("covered req {i} target {t}: answer not bitwise-clean"),
                );
                r.log.push(format!(
                    "covered req={i} target={t} outcome=ok hash={h:016x}"
                ));
            }
            Err(e) => r
                .log
                .push(format!("covered req={i} target={t} outcome=err:{e}")),
        }
    }
    let slo = server.slo_report();
    let s = server.shutdown();
    r.check(oks == args.requests as u64, "covered phase must serve all");
    r.check(s.worker_deaths == 1, "exactly one death expected");
    r.check(s.requeued == 1, "parked batch salvaged exactly once");
    r.check(s.failovers == 1, "exactly one failover re-route");
    r.check(s.worker_lost == 0, "covered loss must fail no request");
    r.check(s.respawns == 1, "dead shard must re-warm within budget");
    r.check(
        s.partial == 0 && s.degraded == 0,
        "covered loss degrades nothing",
    );
    r.check(
        slo.total_errors == 0,
        "covered failover must burn no error budget",
    );
    r.log.push(format!(
        "covered completed={} deaths={} requeued={} failovers={} respawns={} worker_lost={}",
        s.completed, s.worker_deaths, s.requeued, s.failovers, s.respawns, s.worker_lost
    ));
    let chains = r.validate_traces();
    if telemetry::enabled() {
        let failover_chains = chains
            .iter()
            .filter(|c| c.events.iter().any(|e| e.kind == "shard_failover"))
            .count();
        r.check(
            failover_chains == 1,
            format!("expected exactly 1 shard_failover chain, saw {failover_chains}"),
        );
    }
    r.log_chains(chains);

    // ---- Phase B: no mirror, no respawn — partial service. ----
    let server = ShardedServer::start(
        shard_loss_config(false, 0, 1, args, "chaos.shardloss.uncovered"),
        fx.g.clone(),
        fx.x.clone(),
        fx.net.clone(),
    );
    let outcome = match server.submit(Request::new(vec![tripwire])) {
        Ok(h) => h.wait(),
        Err(e) => Err(e),
    };
    r.check(
        matches!(outcome, Err(ServeError::WorkerLost)),
        format!("uncovered in-flight request must fail WorkerLost, got {outcome:?}"),
    );
    r.log.push(format!(
        "uncovered tripwire target={tripwire} outcome=err:{}",
        ServeError::WorkerLost
    ));
    // Retirement is the monitor thread's call; wait for it off-log.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !server.shard_retired(0) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    r.check(
        server.shard_retired(0),
        "breaker must retire the dead shard",
    );
    // A vertex only shard 0 hosted: its answer must come back flagged
    // partial (zero-filled unreachable rows), not as a hard error.
    let dark = server
        .plan()
        .owned_range(0)
        .map(|v| v as u32)
        .find(|&v| !server.plan().is_replicated(v))
        .expect("shard 0 owns an unreplicated vertex");
    let outcome = match server.submit(Request::new(vec![dark])) {
        Ok(h) => h.wait(),
        Err(e) => Err(e),
    };
    match outcome {
        Ok(resp) => {
            r.check(
                resp.degraded.partial,
                "answer needing the dead shard's rows must be flagged partial",
            );
            r.log.push(format!(
                "uncovered dark target={dark} outcome=ok hash={:016x} degraded={}",
                hash_row(resp.outputs.data()),
                resp.degraded.any()
            ));
        }
        Err(e) => {
            r.fails.push(format!(
                "partial-service rung must degrade, not hard-error: got {e}"
            ));
            r.log
                .push(format!("uncovered dark target={dark} outcome=err:{e}"));
        }
    }
    let mut served = 0u64;
    for i in 0..args.requests {
        let t = fx.target(args.seed ^ 0xdacc, i);
        let outcome = match server.submit(Request::new(vec![t])) {
            Ok(h) => h.wait(),
            Err(e) => Err(e),
        };
        match outcome {
            Ok(resp) => {
                served += 1;
                let h = hash_row(resp.outputs.data());
                if !resp.degraded.any() {
                    r.check(
                        h == fx.expected_for(t),
                        format!("uncovered req {i} target {t}: unflagged answer is wrong"),
                    );
                }
                r.log.push(format!(
                    "uncovered req={i} target={t} outcome=ok hash={h:016x} degraded={}",
                    resp.degraded.any()
                ));
            }
            Err(e) => r
                .log
                .push(format!("uncovered req={i} target={t} outcome=err:{e}")),
        }
    }
    r.requests = 2 * args.requests as u64 + 3;
    let slo = server.slo_report();
    let s = server.shutdown();
    r.check(
        served == args.requests as u64,
        "degraded tier must keep serving every request",
    );
    r.check(s.worker_lost == 1, "only the in-flight request fails hard");
    r.check(s.partial >= 1, "the dead range must serve flagged-partial");
    r.check(
        s.device_faults == 0,
        "partial service is not a device fault",
    );
    r.check(s.requeued == 0, "no buddy, nothing to salvage to");
    r.check(s.respawns == 0, "no respawn budget to spend");
    r.check(
        slo.total_errors == 1,
        format!("exactly the death burns budget, got {}", slo.total_errors),
    );
    r.log.push(format!(
        "uncovered completed={} worker_lost={} partial={} device_faults={}",
        s.completed, s.worker_lost, s.partial, s.device_faults
    ));
    let chains = r.validate_traces();
    if telemetry::enabled() {
        r.check(
            !chains
                .iter()
                .any(|c| c.events.iter().any(|e| e.kind == "shard_failover")),
            "no buddy: uncovered phase must never record a failover",
        );
    }
    r.log_chains(chains);
    r
}

/// Scenario 10 — a storm of transient halo-fetch timeouts on the
/// simulated interconnect (45% per draw). Each faulted fetch aborts
/// before any row moves and is retried under backoff, so the storm run
/// must be *indistinguishable in output* from the calm run: every
/// answer bitwise identical, and the aggregate `HaloStats` bitwise
/// equal — the proof that a retried fetch contributes its sectors and
/// bytes exactly once.
fn halo_storm(fx: &Fixture, args: &Args) -> ScenarioResult {
    let mut r = ScenarioResult::new("halo_storm");
    let mk = |halo_fault: FaultPlan, prefix: &str| ShardedConfig {
        shards: 4,
        replicate_hot: 16,
        max_batch: 4,
        max_wait: Duration::from_millis(1),
        queue_capacity: 64,
        cache_capacity: 0,
        halo_fault,
        retry: RetryPolicy {
            max_retries: 64,
            base_backoff: Duration::from_micros(10),
            max_backoff: Duration::from_micros(200),
            seed: args.seed,
            ..RetryPolicy::default()
        },
        metrics_prefix: prefix.to_string(),
        ..ShardedConfig::default()
    };
    let run = |label: &str, cfg: ShardedConfig, r: &mut ScenarioResult| {
        let server = ShardedServer::start(cfg, fx.g.clone(), fx.x.clone(), fx.net.clone());
        let mut oks = 0u64;
        for i in 0..args.requests {
            let t = fx.target(args.seed ^ 0x4a10, i);
            let outcome = match server.submit(Request::new(vec![t])) {
                Ok(h) => h.wait(),
                Err(e) => Err(e),
            };
            match outcome {
                Ok(resp) => {
                    oks += 1;
                    let h = hash_row(resp.outputs.data());
                    r.check(
                        h == fx.expected_for(t) && !resp.degraded.any(),
                        format!("{label} req {i} target {t}: answer not bitwise-clean"),
                    );
                    r.log.push(format!(
                        "{label} req={i} target={t} outcome=ok hash={h:016x}"
                    ));
                }
                Err(e) => r
                    .log
                    .push(format!("{label} req={i} target={t} outcome=err:{e}")),
            }
        }
        r.check(
            oks == args.requests as u64,
            format!("{label} run must serve every request"),
        );
        let slo = server.slo_report();
        let stats = server.shutdown();
        r.check(
            slo.total_errors == 0,
            format!("{label} run must burn no error budget"),
        );
        let chains = r.validate_traces();
        r.log_chains(chains);
        stats
    };
    let calm = run(
        "calm",
        mk(FaultPlan::none(), "chaos.halostorm.calm"),
        &mut r,
    );
    let storm = run(
        "storm",
        mk(
            FaultPlan::transient(args.seed ^ 0x4a10, 0.45),
            "chaos.halostorm.storm",
        ),
        &mut r,
    );
    r.requests = 2 * args.requests as u64;
    r.check(
        storm.halo == calm.halo,
        format!(
            "retried halo fetches must count exactly once: calm {:?} vs storm {:?}",
            calm.halo, storm.halo
        ),
    );
    r.check(
        storm.halo_retries > 0,
        "a 45% fault rate must actually trigger halo retries",
    );
    r.check(calm.halo_retries == 0, "calm run must not retry");
    r.check(
        storm.device_faults == 0,
        "the retry budget must absorb every halo timeout",
    );
    r.check(
        storm.worker_deaths == 0,
        "halo timeouts must not kill workers",
    );
    r.check(
        storm.completed == calm.completed,
        "storm served fewer requests",
    );
    r.log.push(format!(
        "halo fetch_batches={} rows={} bytes={} calm_retries={} storm_retries={}",
        storm.halo.fetch_batches,
        storm.halo.fetched_rows,
        storm.halo.fetched_bytes,
        calm.halo_retries,
        storm.halo_retries
    ));
    r
}

fn run_all(fx: &Fixture, args: &Args) -> Vec<ScenarioResult> {
    vec![
        baseline(fx, args),
        transient_storm(fx, args),
        device_loss(fx, args),
        straggler(fx, args),
        overload_faults(fx, args),
        cache_poison(fx, args),
        sharded(fx, args),
        dynamic(fx, args),
        shard_loss(fx, args),
        halo_storm(fx, args),
    ]
}

fn write_report(results: &[ScenarioResult], determinism_ok: bool) -> std::io::Result<()> {
    use telemetry::json::{self, Value};
    let dir = bench::results_dir();
    std::fs::create_dir_all(&dir)?;
    let mut scenarios = Value::array();
    for r in results {
        let failures: Vec<Value> = r.fails.iter().map(|f| Value::from(f.as_str())).collect();
        let mut o = Value::object();
        o.set("name", r.name)
            .set("requests", r.requests)
            .set("pass", r.fails.is_empty())
            .set("failures", failures);
        scenarios.push(o);
    }
    let mut report = Value::object();
    report
        .set("scenarios", scenarios)
        .set("deterministic", determinism_ok);
    std::fs::write(dir.join("chaos_bench.json"), json::pretty(&report))
}

fn main() {
    let args = parse_args();
    let scope = bench::telemetry_scope("chaos_bench");
    telemetry::flight::recorder().set_dump_dir(bench::results_dir());
    bench::Env::from_env()
        .print_header("chaos_bench: fault-injection SLO gate for the serving stack");
    println!(
        "graph: rmat {}v/{}e | net: {}->{}->{} GCN | {} reqs/scenario | seed {} | {}",
        args.vertices,
        args.edges,
        args.feat,
        args.hidden,
        args.classes,
        args.requests,
        args.seed,
        if args.smoke { "smoke" } else { "full" },
    );

    let fx = Fixture::build(&args);
    let t0 = Instant::now();
    let first = run_all(&fx, &args);
    let second = run_all(&fx, &args);
    let elapsed = t0.elapsed().as_secs_f64();

    // Determinism gate: same seed, same process, same event log.
    let mut determinism_fails = Vec::new();
    for (a, b) in first.iter().zip(&second) {
        if a.log != b.log {
            let diverged = a
                .log
                .iter()
                .zip(&b.log)
                .position(|(x, y)| x != y)
                .map(|i| {
                    format!(
                        "first divergence at line {i}\n  A: {}\n  B: {}",
                        a.log[i], b.log[i]
                    )
                })
                .unwrap_or_else(|| {
                    format!("log lengths differ ({} vs {})", a.log.len(), b.log.len())
                });
            determinism_fails.push(format!(
                "{}: event logs differ across same-seed runs ({diverged})",
                a.name
            ));
        }
    }

    let mut t = bench::Table::new(
        "chaos_bench: scenario verdicts",
        &["Scenario", "Requests", "Log lines", "SLO", "Deterministic"],
    );
    for (a, b) in first.iter().zip(&second) {
        t.row(vec![
            a.name.to_string(),
            a.requests.to_string(),
            a.log.len().to_string(),
            if a.fails.is_empty() && b.fails.is_empty() {
                "pass".into()
            } else {
                "FAIL".into()
            },
            if a.log == b.log {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }
    t.print();
    println!(
        "\nchaos_bench: 2x{} scenarios in {elapsed:.1}s",
        first.len()
    );

    if let Err(e) = write_report(&first, determinism_fails.is_empty()) {
        eprintln!("chaos_bench: cannot write report: {e}");
    }
    drop(scope);

    let mut failures: Vec<String> = determinism_fails;
    for r in first.iter().chain(&second) {
        for f in &r.fails {
            failures.push(format!("{}: {f}", r.name));
        }
    }
    if failures.is_empty() {
        println!("chaos_bench: all SLO invariants hold, event logs reproducible");
    } else {
        failures.dedup();
        for f in &failures {
            eprintln!("chaos_bench: FAIL: {f}");
        }
        std::process::exit(1);
    }
}
