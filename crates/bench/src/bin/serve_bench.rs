//! **serve_bench** — closed-loop load generator for the `tlpgnn-serve`
//! online inference server.
//!
//! Runs four phases against one power-law (R-MAT) graph, each phase a
//! fresh server with its own metrics prefix:
//!
//! 1. `batch1`  — micro-batching off (`max_batch = 1`), cache off: the
//!    one-request-per-forward baseline.
//! 2. `dynamic` — micro-batching on, cache off: isolates the batching
//!    win. Throughput here vs `batch1` is the batching speedup.
//! 3. `cached`  — batching + LRU feature cache under Zipfian popularity:
//!    measures steady-state hit rate.
//! 4. `overload` — burst far past the bounded queue's capacity: shows
//!    explicit `Overloaded` rejections, with every *accepted* request
//!    still served.
//!
//! Phases 1–3 are closed loops: `--clients` threads each issue
//! `--requests` requests back to back (submit, wait, repeat), targets
//! drawn from a Zipf(`--zipf`) popularity distribution. Telemetry lands
//! in `results/serve_bench.{metrics.json,trace.json,events.jsonl}`; the
//! binary re-reads `metrics.json` afterwards and fails (exit 1) if the
//! serving invariants don't hold — see `check()` at the bottom.
//!
//! Flags (defaults in brackets): `--vertices` [20000], `--edges`
//! [100000], `--feat` [16], `--hidden` [16], `--classes` [8],
//! `--workers` [2], `--max-batch` [16], `--max-wait-ms` [2], `--cache`
//! [4096], `--zipf` [1.3], `--clients` [32], `--requests` [75],
//! `--hops` [1], `--seed` [42], `--smoke` (small graph + short run +
//! relaxed thresholds, for CI).

use std::time::{Duration, Instant};

use tlpgnn::{GnnModel, GnnNetwork};
use tlpgnn_bench::load::{closed_loop, Load};
use tlpgnn_bench::{self as bench, cli::flag};
use tlpgnn_graph::{generators, Csr};
use tlpgnn_serve::{GnnServer, Request, ServeConfig, ServeError, ZipfSampler};
use tlpgnn_tensor::Matrix;

#[derive(Debug, Clone)]
struct Args {
    vertices: usize,
    edges: usize,
    feat: usize,
    hidden: usize,
    classes: usize,
    workers: usize,
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
            vertices: 20_000,
            edges: 100_000,
            feat: 16,
            hidden: 16,
            classes: 8,
            workers: 2,
            // max_batch deliberately below the client count: with more
            // in-flight requests than one batch admits, consecutive
            // batches land on different workers and the dynamic phase
            // keeps every engine busy (a closed loop with
            // clients <= max_batch degenerates to one worker).
            max_batch: 16,
            max_wait_ms: 2,
            cache: 4096,
            zipf: 1.3,
            clients: 32,
            requests: 75,
            hops: 1,
            seed: 42,
            smoke: false,
        }
    }
}

fn parse_args() -> Args {
    let mut a = Args::default();
    a.smoke = bench::cli::parse_or_exit(
        "serve_bench",
        &mut [
            flag("--vertices", &mut a.vertices),
            flag("--edges", &mut a.edges),
            flag("--feat", &mut a.feat),
            flag("--hidden", &mut a.hidden),
            flag("--classes", &mut a.classes),
            flag("--workers", &mut a.workers),
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
        // Small enough for a CI smoke step, big enough to batch and to
        // repeat hot vertices.
        a.vertices = a.vertices.min(2_000);
        a.edges = a.edges.min(10_000);
        a.clients = a.clients.min(4);
        a.requests = a.requests.min(40);
    }
    a
}

struct PhaseOutcome {
    name: &'static str,
    offered: u64,
    completed: u64,
    rejected: u64,
    throughput_rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    mean_batch: f64,
    cache_hit_rate: f64,
    /// Online SLO evaluation at phase end (windowed p99 + burn rate).
    slo: telemetry::SloReport,
}

/// Run one closed-loop phase: `clients` threads, each `requests`
/// submit-then-wait round trips with Zipf-drawn single-vertex targets.
fn closed_loop_phase(
    name: &'static str,
    args: &Args,
    cfg: ServeConfig,
    g: &Csr,
    x: &Matrix,
    net: &GnnNetwork,
) -> PhaseOutcome {
    let server = GnnServer::start(cfg, g.clone(), x.clone(), net.clone());
    let load = Load {
        clients: args.clients,
        requests: args.requests,
        vertices: args.vertices,
        zipf: args.zipf,
        hops: args.hops,
        seed: args.seed ^ 0xc11e,
    };
    let out = closed_loop(&load, |rank| rank, |req| server.submit(req));
    let slo = server.slo_report();
    let stats = server.shutdown();
    let offered = out.offered;
    assert_eq!(stats.completed + out.rejected, offered);
    let throughput = stats.completed as f64 / out.elapsed_s.max(1e-9);
    telemetry::gauge_set(&format!("serve_bench.{name}.throughput_rps"), throughput);
    telemetry::gauge_set(&format!("serve_bench.{name}.offered"), offered as f64);
    PhaseOutcome {
        name,
        offered,
        completed: stats.completed,
        rejected: stats.rejected,
        throughput_rps: throughput,
        p50_ms: out.latencies.percentile(50.0),
        p99_ms: out.latencies.percentile(99.0),
        mean_batch: stats.completed as f64 / (stats.batches.max(1)) as f64,
        cache_hit_rate: stats.cache_hit_rate(),
        slo,
    }
}

/// Burst far past queue capacity from one thread, then drain. Requests
/// use the exact receptive field (expensive extraction) so the single
/// worker saturates immediately.
fn overload_phase(args: &Args, g: &Csr, x: &Matrix, net: &GnnNetwork) -> PhaseOutcome {
    let cfg = ServeConfig {
        workers: 1,
        max_batch: 1,
        max_wait: Duration::from_millis(0),
        queue_capacity: 4,
        cache_capacity: 0,
        metrics_prefix: "serve.overload".to_string(),
        ..ServeConfig::default()
    };
    let server = GnnServer::start(cfg, g.clone(), x.clone(), net.clone());
    let mut sampler = ZipfSampler::new(args.vertices, args.zipf, args.seed ^ 0x0e1);
    let offered = ((args.clients * args.requests) as u64).min(200);
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for _ in 0..offered {
        // No `hops` override: full receptive field, the slow path.
        match server.submit(Request::new(vec![sampler.sample()])) {
            Ok(h) => handles.push(h),
            Err(ServeError::Overloaded) => {}
            Err(e) => panic!("unexpected serve error: {e}"),
        }
    }
    for h in handles {
        let resp = h.wait().expect("accepted request must be served");
        assert_eq!(resp.outputs.rows(), 1);
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let slo = server.slo_report();
    let stats = server.shutdown();
    assert_eq!(stats.completed + stats.rejected, offered);
    let throughput = stats.completed as f64 / elapsed.max(1e-9);
    telemetry::gauge_set("serve_bench.overload.throughput_rps", throughput);
    telemetry::gauge_set("serve_bench.overload.offered", offered as f64);
    PhaseOutcome {
        name: "overload",
        offered,
        completed: stats.completed,
        rejected: stats.rejected,
        throughput_rps: throughput,
        p50_ms: f64::NAN,
        p99_ms: f64::NAN,
        mean_batch: stats.completed as f64 / (stats.batches.max(1)) as f64,
        cache_hit_rate: 0.0,
        slo,
    }
}

fn main() {
    let args = parse_args();
    let scope = bench::telemetry_scope("serve_bench");
    bench::Env::from_env().print_header("serve_bench: online GNN inference serving under load");
    println!(
        "graph: rmat {}v/{}e | net: {}->{}->{} GCN | {} clients x {} reqs | zipf {} | hops {} | {}",
        args.vertices,
        args.edges,
        args.feat,
        args.hidden,
        args.classes,
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

    let base = ServeConfig {
        workers: args.workers,
        max_wait: Duration::from_millis(args.max_wait_ms),
        queue_capacity: (args.clients * 2).max(64),
        ..ServeConfig::default()
    };
    let phases = vec![
        closed_loop_phase(
            "batch1",
            &args,
            ServeConfig {
                max_batch: 1,
                cache_capacity: 0,
                metrics_prefix: "serve.batch1".to_string(),
                ..base.clone()
            },
            &g,
            &x,
            &net,
        ),
        closed_loop_phase(
            "dynamic",
            &args,
            ServeConfig {
                max_batch: args.max_batch,
                cache_capacity: 0,
                metrics_prefix: "serve.dynamic".to_string(),
                ..base.clone()
            },
            &g,
            &x,
            &net,
        ),
        closed_loop_phase(
            "cached",
            &args,
            ServeConfig {
                max_batch: args.max_batch,
                cache_capacity: args.cache,
                metrics_prefix: "serve.cached".to_string(),
                ..base.clone()
            },
            &g,
            &x,
            &net,
        ),
        overload_phase(&args, &g, &x, &net),
    ];

    let speedup = phases[1].throughput_rps / phases[0].throughput_rps.max(1e-9);
    telemetry::gauge_set("serve_bench.batching_speedup", speedup);

    let mut t = bench::Table::new(
        "serve_bench: phase summary",
        &[
            "Phase", "Offered", "Done", "Rejected", "rps", "p50 ms", "p99 ms", "batch", "hit%",
        ],
    );
    for p in &phases {
        t.row(vec![
            p.name.to_string(),
            p.offered.to_string(),
            p.completed.to_string(),
            p.rejected.to_string(),
            format!("{:.0}", p.throughput_rps),
            if p.p50_ms.is_nan() {
                "-".into()
            } else {
                bench::fmt_ms(p.p50_ms)
            },
            if p.p99_ms.is_nan() {
                "-".into()
            } else {
                bench::fmt_ms(p.p99_ms)
            },
            format!("{:.1}", p.mean_batch),
            format!("{:.0}", p.cache_hit_rate * 100.0),
        ]);
    }
    t.print();
    println!("\nbatching speedup (dynamic vs batch1): {speedup:.2}x");
    print_slo_report(&phases);
    if let Err(e) = write_slo_report(&phases) {
        eprintln!("serve_bench: cannot write slo_report.json: {e}");
    }

    let telemetry_active = bench::telemetry_active();
    if telemetry_active {
        print_latency_percentiles();
    }
    drop(scope); // export results/serve_bench.* now so check() can read them back

    let mut failures = check(&phases, speedup, args.smoke, telemetry_active);
    failures.extend(check_metrics_file(args.smoke, telemetry_active));
    if failures.is_empty() {
        println!("serve_bench: all serving invariants hold");
    } else {
        for f in &failures {
            eprintln!("serve_bench: FAIL: {f}");
        }
        std::process::exit(1);
    }
}

/// The `slo_report` summary: one row per phase from each server's online
/// SLO monitor — windowed p99 against its target, error-budget burn rate,
/// and whether the burn alert fired. The same numbers live as
/// `serve.<phase>.slo.*` gauges in `metrics.json`.
fn print_slo_report(phases: &[PhaseOutcome]) {
    let mut t = bench::Table::new(
        "serve_bench: slo_report (per-phase objective evaluation)",
        &[
            "Phase", "window", "p99 ms", "target", "err rate", "burn", "alert",
        ],
    );
    for p in phases {
        let s = &p.slo;
        t.row(vec![
            p.name.to_string(),
            s.window_len.to_string(),
            bench::fmt_ms(s.p99_ms),
            bench::fmt_ms(s.p99_target_ms),
            format!("{:.3}", s.error_rate),
            format!("{:.2}", s.burn_rate),
            if s.burn_alert {
                "FIRING".into()
            } else {
                "ok".into()
            },
        ]);
    }
    t.print();
}

/// Write `results/slo_report.json`: the declared objectives and their
/// end-of-run evaluation, one entry per phase.
fn write_slo_report(phases: &[PhaseOutcome]) -> std::io::Result<()> {
    let dir = bench::results_dir();
    std::fs::create_dir_all(&dir)?;
    let mut arr = telemetry::json::Value::array();
    for p in phases {
        let mut o = p.slo.to_json();
        o.set("phase", p.name);
        arr.push(o);
    }
    let mut doc = telemetry::json::Value::object();
    doc.set("objectives", arr);
    std::fs::write(
        std::path::Path::new(&dir).join("slo_report.json"),
        doc.to_string(),
    )
}

/// Per-phase latency percentile table (end-to-end plus the queue /
/// ego-graph-extraction / kernel stages), computed from the raw telemetry
/// histograms the server records per request. Each cell is also published
/// as a `serve_bench.<phase>.<stage>_p<q>_ms` gauge so it lands in
/// `results/serve_bench.metrics.json` and is diffable with
/// `telemetry-diff`. Must run before the telemetry scope drops.
fn print_latency_percentiles() {
    const STAGES: [(&str, &str); 4] = [
        ("e2e", "e2e_latency_ms"),
        ("queue", "queue_ms"),
        ("extract", "extraction_ms"),
        ("compute", "compute_ms"),
    ];
    let metrics = telemetry::collector().metrics();
    let mut t = bench::Table::new(
        "serve_bench: latency percentiles (ms)",
        &["Phase", "stage", "p50", "p95", "p99", "samples"],
    );
    for phase in ["batch1", "dynamic", "cached", "overload"] {
        for (stage, metric) in STAGES {
            let Some(h) = metrics.histogram(&format!("serve.{phase}.{metric}")) else {
                continue;
            };
            let mut row = vec![phase.to_string(), stage.to_string()];
            for q in [50.0, 95.0, 99.0] {
                let v = h.percentile(q);
                telemetry::gauge_set(&format!("serve_bench.{phase}.{stage}_p{q:.0}_ms"), v);
                row.push(bench::fmt_ms(v));
            }
            row.push(h.count().to_string());
            t.row(row);
        }
    }
    t.print();
}

/// The serving invariants this benchmark exists to demonstrate.
fn check(
    phases: &[PhaseOutcome],
    speedup: f64,
    smoke: bool,
    telemetry_active: bool,
) -> Vec<String> {
    let mut fails = Vec::new();
    let by_name = |n: &str| phases.iter().find(|p| p.name == n).unwrap();
    for name in ["batch1", "dynamic", "cached"] {
        let p = by_name(name);
        if p.completed == 0 {
            fails.push(format!("{name}: no requests completed"));
        }
        if p.rejected != 0 {
            fails.push(format!(
                "{name}: {} requests dropped while the server was not saturated",
                p.rejected
            ));
        }
        if p.completed != p.offered {
            fails.push(format!(
                "{name}: completed {} != offered {}",
                p.completed, p.offered
            ));
        }
    }
    let cached = by_name("cached");
    let min_hit = if smoke { 0.0 } else { 0.5 };
    if cached.cache_hit_rate <= min_hit {
        fails.push(format!(
            "cached: hit rate {:.1}% not above {:.0}%",
            cached.cache_hit_rate * 100.0,
            min_hit * 100.0
        ));
    }
    let overload = by_name("overload");
    if overload.rejected == 0 {
        fails.push("overload: burst past queue capacity saw no Overloaded rejection".into());
    }
    if overload.completed == 0 {
        fails.push("overload: accepted requests were not served".into());
    }
    // SLO monitor: rejections burn error budget, so the overload burst
    // must fire the burn-rate alert; the healthy closed loops must not.
    for name in ["batch1", "dynamic", "cached"] {
        let p = by_name(name);
        if p.slo.burn_alert {
            fails.push(format!(
                "{name}: burn-rate alert fired on a clean phase (burn {:.2})",
                p.slo.burn_rate
            ));
        }
    }
    if !overload.slo.burn_alert {
        fails.push(format!(
            "overload: burn-rate alert did not fire ({} errors, burn {:.2})",
            overload.slo.total_errors, overload.slo.burn_rate
        ));
    }
    if !smoke && speedup < 2.0 {
        fails.push(format!(
            "dynamic batching speedup {speedup:.2}x below the 2x bar"
        ));
    }
    let _ = telemetry_active;
    fails
}

/// Re-read the exported metrics.json and cross-check the headline
/// numbers from the file a CI step would consume.
fn check_metrics_file(smoke: bool, telemetry_active: bool) -> Vec<String> {
    if !telemetry_active {
        return Vec::new(); // nothing was exported
    }
    let snap = match bench::load_metrics_snapshot("serve_bench") {
        Ok(s) => s,
        Err(e) => return vec![e],
    };
    let mut fails = Vec::new();
    for phase in ["batch1", "dynamic", "cached"] {
        let key = format!("serve.{phase}.completed");
        if snap.counters.get(&key).copied().unwrap_or(0) == 0 {
            fails.push(format!("metrics.json: counter {key} missing or zero"));
        }
        let key = format!("serve.{phase}.rejected");
        if snap.counters.get(&key).copied().unwrap_or(0) != 0 {
            fails.push(format!("metrics.json: counter {key} nonzero on idle phase"));
        }
    }
    let hit_rate = snap
        .gauges
        .get("serve.cached.cache.hit_rate")
        .copied()
        .unwrap_or(0.0);
    let min_hit = if smoke { 0.0 } else { 0.5 };
    if hit_rate <= min_hit {
        fails.push(format!(
            "metrics.json: serve.cached.cache.hit_rate {hit_rate:.3} not above {min_hit}"
        ));
    }
    if snap
        .counters
        .get("serve.overload.rejected")
        .copied()
        .unwrap_or(0)
        == 0
    {
        fails.push("metrics.json: serve.overload.rejected is zero".into());
    }
    if snap
        .histograms
        .get("serve.dynamic.e2e_latency_ms")
        .is_none_or(|h| h.count == 0)
    {
        fails.push("metrics.json: serve.dynamic.e2e_latency_ms histogram empty".into());
    }
    fails
}
