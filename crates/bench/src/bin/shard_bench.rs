//! **shard_bench** — sharded serving of a graph no single device holds.
//!
//! The scale demonstration for the `tlpgnn-shard` + `tlpgnn-serve`
//! sharded tier: the benchmark graph is deliberately larger than the
//! per-device memory budget, so it is only servable partitioned across
//! `--shards` (≥ 4 by default) simulated devices. Four phases:
//!
//! 1. **capacity** — prove the premise: whole-graph bytes exceed the
//!    device budget, every shard's store fits under it.
//! 2. **oracle** — sequential single-target requests through the
//!    sharded server and a single-device `GnnServer` side by side;
//!    responses must be **bitwise equal** (the distributed extraction
//!    is order-identical and the fused engine atomic-free).
//! 3. **load** — closed-loop Zipfian traffic at 10x serve_bench's
//!    per-phase request volume, routed by seed-vertex shard. Zipf ranks
//!    are permuted onto vertex ids by a coprime multiplier so hot
//!    traffic spreads across shards instead of piling onto shard 0's
//!    contiguous range. Halo exchange lands under `shard.halo.*`,
//!    per-shard load/latency under `shard.shard.<i>.*` and
//!    `shard.slo.shard.<i>.*`.
//! 4. **determinism** — the same seeded request stream twice against
//!    fresh servers; the canonical (timestamp-free) trace chains must
//!    be identical.
//!
//! Telemetry lands in `results/shard_bench.{metrics.json,...}`; the
//! binary re-reads `metrics.json` afterwards and exits 1 if the
//! sharding invariants don't hold.
//!
//! Flags (defaults in brackets): `--vertices` [60000], `--edges`
//! [360000], `--feat` [32], `--hidden` [16], `--classes` [8],
//! `--shards` [4], `--replicate-hot` [64], `--budget-bytes` [4194304],
//! `--max-batch` [16], `--max-wait-ms` [2], `--cache` [4096], `--zipf`
//! [1.3], `--clients` [48], `--requests` [500], `--hops` [1], `--seed`
//! [42], `--smoke` (small graph + short run, for CI).

use std::time::Duration;

use tlpgnn::{GnnModel, GnnNetwork};
use tlpgnn_bench::load::{closed_loop, Load};
use tlpgnn_bench::{self as bench, cli::flag};
use tlpgnn_graph::{generators, Csr};
use tlpgnn_serve::{GnnServer, Request, ServeConfig, ShardedConfig, ShardedServer, ZipfSampler};
use tlpgnn_shard::{graph_bytes, ShardPlan, ShardStore};
use tlpgnn_tensor::Matrix;

#[derive(Debug, Clone)]
struct Args {
    vertices: usize,
    edges: usize,
    feat: usize,
    hidden: usize,
    classes: usize,
    shards: usize,
    replicate_hot: usize,
    budget_bytes: u64,
    max_batch: usize,
    max_wait_ms: u64,
    cache: usize,
    zipf: f64,
    clients: usize,
    requests: usize,
    hops: usize,
    seed: u64,
    smoke: bool,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            // ~9.4 MB of CSR + features against a 6 MiB device budget:
            // unservable on one device, servable across four. (The
            // budget leaves headroom because the edge-balanced split
            // hands the low-degree tail shard the most vertices, and
            // features are priced per owned vertex.)
            vertices: 60_000,
            edges: 360_000,
            feat: 32,
            hidden: 16,
            classes: 8,
            shards: 4,
            replicate_hot: 64,
            budget_bytes: 6 * 1024 * 1024,
            max_batch: 16,
            max_wait_ms: 2,
            cache: 4096,
            zipf: 1.3,
            // 48 x 500 = 24_000 offered requests: 10x serve_bench's
            // 2_400-per-phase closed loops.
            clients: 48,
            requests: 500,
            hops: 1,
            seed: 42,
            smoke: false,
        }
    }
}

fn parse_args() -> Args {
    let mut a = Args::default();
    a.smoke = bench::cli::parse_or_exit(
        "shard_bench",
        &mut [
            flag("--vertices", &mut a.vertices),
            flag("--edges", &mut a.edges),
            flag("--feat", &mut a.feat),
            flag("--hidden", &mut a.hidden),
            flag("--classes", &mut a.classes),
            flag("--shards", &mut a.shards),
            flag("--replicate-hot", &mut a.replicate_hot),
            flag("--budget-bytes", &mut a.budget_bytes),
            flag("--max-batch", &mut a.max_batch),
            flag("--max-wait-ms", &mut a.max_wait_ms),
            flag("--cache", &mut a.cache),
            flag("--zipf", &mut a.zipf),
            flag("--clients", &mut a.clients),
            flag("--requests", &mut a.requests),
            flag("--hops", &mut a.hops),
            flag("--seed", &mut a.seed),
        ],
    );
    if a.smoke {
        // Still over-budget — the capacity proof must hold in CI too.
        a.vertices = a.vertices.min(6_000);
        a.edges = a.edges.min(36_000);
        a.feat = a.feat.min(16);
        a.budget_bytes = a.budget_bytes.min(384 * 1024);
        a.clients = a.clients.min(4);
        a.requests = a.requests.min(75);
    }
    a
}

/// Spread Zipf ranks over the vertex space with a multiplier coprime to
/// `n`, chosen near the golden-ratio point so consecutive hot ranks land
/// far apart: rank 0 (the hottest) is no longer vertex 0 and the head of
/// the distribution hits every shard of the contiguous partition instead
/// of only shard 0's low-id range.
fn permute_rank(rank: u32, n: usize) -> u32 {
    let n = n as u64;
    let mut m = (n * 618 / 1000) | 1; // odd, ≈ 0.618·n
    while gcd(m, n) != 1 {
        m += 2;
    }
    ((rank as u64 * m) % n) as u32
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

fn sharded_config(args: &Args, prefix: &str) -> ShardedConfig {
    ShardedConfig {
        shards: args.shards,
        replicate_hot: args.replicate_hot,
        max_batch: args.max_batch,
        max_wait: Duration::from_millis(args.max_wait_ms),
        queue_capacity: (args.clients * 2).max(64),
        cache_capacity: args.cache,
        device_budget_bytes: Some(args.budget_bytes),
        metrics_prefix: prefix.to_string(),
        ..ShardedConfig::default()
    }
}

/// Phase 1: the whole graph exceeds the device budget; each shard fits.
fn capacity_phase(args: &Args, g: &Csr, x: &Matrix, server: &ShardedServer) -> Vec<String> {
    let whole = graph_bytes(g, args.feat);
    let mut t = bench::Table::new(
        "shard_bench: capacity (device budget vs resident bytes)",
        &["Device", "Vertices", "Bytes", "Budget", "Fits"],
    );
    t.row(vec![
        "single (whole graph)".into(),
        args.vertices.to_string(),
        whole.to_string(),
        args.budget_bytes.to_string(),
        if whole > args.budget_bytes {
            "NO"
        } else {
            "yes"
        }
        .into(),
    ]);
    let plan = server.plan();
    for i in 0..plan.shards() {
        let range = plan.owned_range(i);
        t.row(vec![
            format!("shard {i}"),
            range.len().to_string(),
            "<= max below".into(),
            args.budget_bytes.to_string(),
            "yes".into(),
        ]);
    }
    t.print();
    println!(
        "max shard store: {} bytes (budget {}), whole graph: {whole} bytes",
        server.max_store_bytes(),
        args.budget_bytes
    );
    let mut fails = Vec::new();
    if whole <= args.budget_bytes {
        fails.push(format!(
            "capacity: whole graph ({whole} B) fits the device budget ({} B) — \
             the benchmark premise is void, raise --vertices or lower --budget-bytes",
            args.budget_bytes
        ));
    }
    if server.max_store_bytes() > args.budget_bytes {
        fails.push("capacity: a shard store exceeds the device budget".into());
    }
    if args.shards < 4 {
        fails.push(format!(
            "capacity: {} shards < the 4-device minimum this benchmark demonstrates",
            args.shards
        ));
    }
    // Failover coverage is not free: price the standby buddy mirrors
    // (each shard's owned range duplicated on one buddy) against the
    // same budget, so the capacity/resilience trade-off is explicit.
    let standby_plan = ShardPlan::build_with_standby(g, args.shards, args.replicate_hot, true);
    let standby_max = ShardStore::build_all(g, x, &standby_plan)
        .iter()
        .map(ShardStore::bytes)
        .max()
        .unwrap_or(0);
    println!(
        "standby pricing: max shard store {} B -> {standby_max} B with buddy mirrors \
         (fits budget: {})",
        server.max_store_bytes(),
        if standby_max <= args.budget_bytes {
            "yes"
        } else {
            "NO — failover coverage needs more shards or budget"
        }
    );
    if standby_max <= server.max_store_bytes() {
        fails.push("capacity: standby mirrors must be priced into the store bytes".into());
    }
    fails
}

/// Phase 2: sharded responses are bitwise equal to a single-device
/// server's, request by request (sequential single-target streams keep
/// batch composition identical on both sides).
fn oracle_phase(
    args: &Args,
    sharded: &ShardedServer,
    g: &Csr,
    x: &Matrix,
    net: &GnnNetwork,
) -> Vec<String> {
    let single = GnnServer::start(
        ServeConfig {
            workers: 1,
            max_batch: 1,
            max_wait: Duration::from_millis(0),
            cache_capacity: 0,
            metrics_prefix: "shard.oracle".to_string(),
            ..ServeConfig::default()
        },
        g.clone(),
        x.clone(),
        net.clone(),
    );
    let mut fails = Vec::new();
    let probes = 48usize;
    for i in 0..probes {
        // Deterministic spread across the id space (and thus shards).
        let t = ((i as u64 * 104_729) % args.vertices as u64) as u32;
        let req = || Request::with_hops(vec![t], args.hops);
        let a = sharded.submit(req()).unwrap().wait().unwrap();
        let b = single.submit(req()).unwrap().wait().unwrap();
        if a.outputs.data() != b.outputs.data() {
            fails.push(format!(
                "oracle: sharded response for vertex {t} is not bitwise equal \
                 to the single-device result"
            ));
        }
    }
    println!(
        "oracle: {probes} sharded responses bitwise-equal to single-device: {}",
        if fails.is_empty() { "yes" } else { "NO" }
    );
    fails
}

struct LoadOutcome {
    offered: u64,
    completed: u64,
    rejected: u64,
    throughput_rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    stats: tlpgnn_serve::ShardedStats,
}

/// Phase 3: closed-loop Zipfian load routed across the shards.
fn load_phase(args: &Args, server: ShardedServer) -> LoadOutcome {
    let load = Load {
        clients: args.clients,
        requests: args.requests,
        vertices: args.vertices,
        zipf: args.zipf,
        hops: args.hops,
        seed: args.seed ^ 0x5a4d,
    };
    let out = closed_loop(
        &load,
        |rank| permute_rank(rank, args.vertices),
        |req| server.submit(req),
    );
    let per_shard_slo: Vec<telemetry::SloReport> = (0..args.shards)
        .map(|i| server.shard_slo_report(i))
        .collect();
    let stats = server.shutdown();
    let offered = out.offered;
    assert_eq!(stats.completed + out.rejected, offered);
    let throughput = stats.completed as f64 / out.elapsed_s.max(1e-9);
    telemetry::gauge_set("shard_bench.load.throughput_rps", throughput);
    telemetry::gauge_set("shard_bench.load.offered", offered as f64);

    let mut t = bench::Table::new(
        "shard_bench: per-shard load",
        &["Shard", "Done", "p99 ms", "burn", "alert"],
    );
    for (i, slo) in per_shard_slo.iter().enumerate() {
        t.row(vec![
            i.to_string(),
            stats.per_shard_completed[i].to_string(),
            bench::fmt_ms(slo.p99_ms),
            format!("{:.2}", slo.burn_rate),
            if slo.burn_alert { "FIRING" } else { "ok" }.into(),
        ]);
    }
    t.print();
    let h = &stats.halo;
    println!(
        "halo exchange: {} batches, {} adj rows + {} feature rows, {} bytes \
         ({} replica hits, {} local hits)",
        h.fetch_batches,
        h.fetched_rows,
        h.fetched_features,
        h.fetched_bytes,
        h.replica_hits,
        h.local_hits
    );
    LoadOutcome {
        offered,
        completed: stats.completed,
        rejected: stats.rejected,
        throughput_rps: throughput,
        p50_ms: out.latencies.percentile(50.0),
        p99_ms: out.latencies.percentile(99.0),
        stats,
    }
}

/// Phase 4: the same seeded sequential stream against two fresh
/// servers; canonical trace chains must match exactly.
fn determinism_phase(
    args: &Args,
    g: &Csr,
    x: &Matrix,
    net: &GnnNetwork,
    telemetry_active: bool,
) -> Vec<String> {
    if !telemetry_active {
        println!("determinism: skipped (telemetry disabled)");
        return Vec::new();
    }
    let run = || {
        let _ = telemetry::collector().take_traces(); // flush earlier phases
        let server = ShardedServer::start(
            sharded_config(args, "shard.determinism"),
            g.clone(),
            x.clone(),
            net.clone(),
        );
        let mut sampler = ZipfSampler::new(args.vertices, args.zipf, args.seed ^ 0xde7);
        for _ in 0..40 {
            let t = permute_rank(sampler.sample(), args.vertices);
            server
                .submit(Request::with_hops(vec![t], args.hops))
                .unwrap()
                .wait()
                .unwrap();
        }
        drop(server);
        let mut chains: Vec<String> = telemetry::collector()
            .take_traces()
            .iter()
            .map(|c| c.canonical())
            .collect();
        chains.sort();
        chains
    };
    let a = run();
    let b = run();
    let mut fails = Vec::new();
    if a != b {
        let first = a
            .iter()
            .zip(&b)
            .find(|(x, y)| x != y)
            .map(|(x, y)| format!("  run1: {x}\n  run2: {y}"))
            .unwrap_or_else(|| format!("  chain counts differ: {} vs {}", a.len(), b.len()));
        fails.push(format!(
            "determinism: same-seed runs produced different trace chains\n{first}"
        ));
    }
    println!(
        "determinism: {} chains identical across same-seed runs: {}",
        a.len(),
        if fails.is_empty() { "yes" } else { "NO" }
    );
    fails
}

fn main() {
    let args = parse_args();
    let scope = bench::telemetry_scope("shard_bench");
    bench::Env::from_env().print_header("shard_bench: sharded serving beyond single-device memory");
    println!(
        "graph: rmat {}v/{}e feat {} | {} shards, budget {} B/device, replicate {} | \
         {} clients x {} reqs | zipf {} | hops {} | {}",
        args.vertices,
        args.edges,
        args.feat,
        args.shards,
        args.budget_bytes,
        args.replicate_hot,
        args.clients,
        args.requests,
        args.zipf,
        args.hops,
        if args.smoke { "smoke" } else { "full" },
    );

    let g = generators::rmat_default(args.vertices, args.edges, args.seed);
    let x = Matrix::random(args.vertices, args.feat, 1.0, args.seed ^ 0xfea7);
    let net = GnnNetwork::two_layer(
        |_| GnnModel::Gcn,
        args.feat,
        args.hidden,
        args.classes,
        args.seed ^ 0x9e7,
    );

    let mut failures = Vec::new();

    // Phases 1+2 share one server; the load phase gets a fresh one so
    // its caches/SLO windows start cold.
    let warm = ShardedServer::start(
        sharded_config(&args, "shard.warm"),
        g.clone(),
        x.clone(),
        net.clone(),
    );
    failures.extend(capacity_phase(&args, &g, &x, &warm));
    failures.extend(oracle_phase(&args, &warm, &g, &x, &net));
    drop(warm);

    let server = ShardedServer::start(
        sharded_config(&args, "shard"),
        g.clone(),
        x.clone(),
        net.clone(),
    );
    let load = load_phase(&args, server);

    let mut t = bench::Table::new(
        "shard_bench: load summary",
        &[
            "Offered", "Done", "Rejected", "rps", "p50 ms", "p99 ms", "hit%",
        ],
    );
    let s = &load.stats;
    let hit_rate = if s.cache_hits + s.cache_misses == 0 {
        0.0
    } else {
        s.cache_hits as f64 / (s.cache_hits + s.cache_misses) as f64
    };
    t.row(vec![
        load.offered.to_string(),
        load.completed.to_string(),
        load.rejected.to_string(),
        format!("{:.0}", load.throughput_rps),
        bench::fmt_ms(load.p50_ms),
        bench::fmt_ms(load.p99_ms),
        format!("{:.0}", hit_rate * 100.0),
    ]);
    t.print();

    failures.extend(check_load(&args, &load));
    let telemetry_active = bench::telemetry_active();
    failures.extend(determinism_phase(&args, &g, &x, &net, telemetry_active));

    drop(scope); // export results/shard_bench.* so the self-check can read it back
    failures.extend(check_metrics_file(&args, telemetry_active));

    if failures.is_empty() {
        println!("shard_bench: all sharding invariants hold");
    } else {
        for f in &failures {
            eprintln!("shard_bench: FAIL: {f}");
        }
        std::process::exit(1);
    }
}

fn check_load(args: &Args, load: &LoadOutcome) -> Vec<String> {
    let mut fails = Vec::new();
    if load.completed == 0 {
        fails.push("load: no requests completed".into());
    }
    if load.completed + load.rejected < load.offered {
        fails.push(format!(
            "load: {} completed + {} rejected < {} offered",
            load.completed, load.rejected, load.offered
        ));
    }
    for (i, &c) in load.stats.per_shard_completed.iter().enumerate() {
        if c == 0 {
            fails.push(format!(
                "load: shard {i} served nothing — routing did not spread \
                 ({:?})",
                load.stats.per_shard_completed
            ));
        }
    }
    let h = &load.stats.halo;
    if h.fetch_batches == 0 || h.fetched_bytes == 0 {
        fails.push(format!(
            "load: no halo traffic across {} shards (batches {}, bytes {})",
            args.shards, h.fetch_batches, h.fetched_bytes
        ));
    }
    // No faults are injected here, so the failover layer must be
    // bitwise-invisible: every one of its counters stays at zero.
    let s = &load.stats;
    if s.worker_deaths != 0
        || s.failovers != 0
        || s.requeued != 0
        || s.worker_lost != 0
        || s.retries != 0
        || s.halo_retries != 0
        || s.partial != 0
        || s.degraded != 0
    {
        fails.push(format!(
            "load: clean run engaged the failover layer (deaths {}, failovers {}, \
             requeued {}, worker_lost {}, retries {}, halo_retries {}, partial {}, degraded {})",
            s.worker_deaths,
            s.failovers,
            s.requeued,
            s.worker_lost,
            s.retries,
            s.halo_retries,
            s.partial,
            s.degraded
        ));
    }
    fails
}

/// Re-read the exported metrics.json the way a dashboard would and
/// cross-check the sharding telemetry.
fn check_metrics_file(args: &Args, telemetry_active: bool) -> Vec<String> {
    if !telemetry_active {
        return Vec::new();
    }
    let snap = match bench::load_metrics_snapshot("shard_bench") {
        Ok(s) => s,
        Err(e) => return vec![e],
    };
    let mut fails = Vec::new();
    if snap.counters.get("shard.completed").copied().unwrap_or(0) == 0 {
        fails.push("metrics.json: counter shard.completed missing or zero".into());
    }
    for key in ["shard.halo.fetch_batches", "shard.halo.fetched_bytes"] {
        if snap.counters.get(key).copied().unwrap_or(0) == 0 {
            fails.push(format!("metrics.json: counter {key} missing or zero"));
        }
    }
    for i in 0..args.shards {
        let key = format!("shard.shard.{i}.completed");
        if snap.counters.get(&key).copied().unwrap_or(0) == 0 {
            fails.push(format!("metrics.json: counter {key} missing or zero"));
        }
        let key = format!("shard.shard.{i}.load");
        if !snap.gauges.contains_key(&key) {
            fails.push(format!("metrics.json: gauge {key} missing"));
        }
        let key = format!("shard.slo.shard.{i}.p99_ms");
        if !snap.gauges.contains_key(&key) {
            fails.push(format!("metrics.json: per-shard SLO gauge {key} missing"));
        }
        let key = format!("shard.shard.{i}.e2e_latency_ms");
        if snap.histograms.get(&key).is_none_or(|h| h.count == 0) {
            fails.push(format!("metrics.json: histogram {key} empty"));
        }
    }
    for key in ["shard.e2e_latency_ms", "shard.halo_ms"] {
        if snap.histograms.get(key).is_none_or(|h| h.count == 0) {
            fails.push(format!("metrics.json: histogram {key} empty"));
        }
    }
    fails
}
