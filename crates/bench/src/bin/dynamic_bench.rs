//! **dynamic_bench** — streaming-graph mutation benchmark for the
//! delta-overlay / epoch-snapshot layer and its serving integration.
//!
//! Runs four phases, each with its own invariants (exit 1 if any fails):
//!
//! 1. `overlay` — applies a seeded stream of edge/vertex insertions and
//!    feature rewrites to a [`DeltaGraph`]; at periodic checkpoints the
//!    overlay is materialized and compared **bitwise** against a CSR
//!    rebuilt from scratch by an independent packer. Reports mutation
//!    apply throughput and snapshot cost.
//! 2. `serving` — a cache-enabled `GnnServer` under an interleaved
//!    query/mutation schedule: measures request throughput while the
//!    graph churns, and checks the epoch bookkeeping end to end (every
//!    response pinned to the epoch current at its submission, final
//!    server epoch == accepted mutations, compactions invisible).
//! 3. `sampled` — the extraction-vs-compute split of exact `ego_graph`
//!    against seeded fanout-capped `sampled_ego_graph` over a target
//!    pool: subgraph-size reduction, per-stage timings, and the
//!    same-seed-determinism + fanout-cap + subset invariants.
//! 4. `compaction` — folds a heavy overlay back into CSR form, timing
//!    the rebuild and checking it is bitwise the from-scratch oracle and
//!    bitwise-invisible to inference (identical engine outputs before
//!    and after).
//!
//! Telemetry lands in `results/dynamic_bench.{metrics.json,...}`. Flags
//! (defaults in brackets): `--vertices` [10000], `--edges` [50000],
//! `--feat` [16], `--hidden` [16], `--classes` [8], `--mutations`
//! [2000], `--requests` [200], `--fanout` [8], `--seed` [42], `--smoke`
//! (small graph + short run, for CI).

use std::collections::HashSet;
use std::time::{Duration, Instant};

use gpu_sim::DeviceConfig;
use tlpgnn::{EngineOptions, GnnModel, GnnNetwork, TlpgnnEngine};
use tlpgnn_bench::{self as bench, cli::flag};
use tlpgnn_graph::{generators, subgraph, Csr, DeltaGraph};
use tlpgnn_serve::{GnnServer, GraphMutation, Request, ServeConfig};
use tlpgnn_tensor::Matrix;

#[derive(Debug, Clone)]
struct Args {
    vertices: usize,
    edges: usize,
    feat: usize,
    hidden: usize,
    classes: usize,
    mutations: usize,
    requests: usize,
    fanout: usize,
    seed: u64,
    smoke: bool,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            vertices: 10_000,
            edges: 50_000,
            feat: 16,
            hidden: 16,
            classes: 8,
            mutations: 2_000,
            requests: 200,
            fanout: 8,
            seed: 42,
            smoke: false,
        }
    }
}

fn parse_args() -> Args {
    let mut a = Args::default();
    a.smoke = bench::cli::parse_or_exit(
        "dynamic_bench",
        &mut [
            flag("--vertices", &mut a.vertices),
            flag("--edges", &mut a.edges),
            flag("--feat", &mut a.feat),
            flag("--hidden", &mut a.hidden),
            flag("--classes", &mut a.classes),
            flag("--mutations", &mut a.mutations),
            flag("--requests", &mut a.requests),
            flag("--fanout", &mut a.fanout),
            flag("--seed", &mut a.seed),
        ],
    );
    if a.smoke {
        a.vertices = a.vertices.min(1_000);
        a.edges = a.edges.min(5_000);
        a.mutations = a.mutations.min(300);
        a.requests = a.requests.min(40);
    }
    a
}

/// A deterministic mutation stream shared by the phases: applies the
/// `i`-th mutation to both the delta graph and a mirror edge list,
/// returning whether the overlay accepted it (duplicate edges don't).
struct Stream {
    seed: u64,
    feat: usize,
    edges: Vec<(u32, u32)>,
    present: HashSet<(u32, u32)>,
}

impl Stream {
    fn new(base: &Csr, seed: u64, feat: usize) -> Self {
        Self {
            seed,
            feat,
            edges: base.edge_iter().map(|(s, d)| (d, s)).collect(),
            present: base.edge_iter().collect(),
        }
    }

    fn feat_row(&self, tag: u64) -> Vec<f32> {
        (0..self.feat)
            .map(|j| {
                ((bench::splitmix64(self.seed ^ tag ^ (j as u64) << 17) % 1000) as f32) * 1e-3 - 0.5
            })
            .collect()
    }

    fn apply(&mut self, i: usize, dg: &mut DeltaGraph) -> bool {
        let n = dg.num_vertices() as u64;
        let d = bench::splitmix64(self.seed ^ (i as u64).wrapping_mul(0x9e37));
        match d % 4 {
            0..=2 => {
                let (src, dst) = (((d >> 8) % n) as u32, ((d >> 40) % n) as u32);
                let accepted = dg.insert_edge(src, dst);
                assert_eq!(
                    accepted,
                    self.present.insert((src, dst)),
                    "overlay and mirror disagree on duplicate edge ({src},{dst})"
                );
                if accepted {
                    self.edges.push((dst, src));
                }
                accepted
            }
            _ => {
                let id = dg.insert_vertex(self.feat_row(n));
                assert_eq!(id as u64, n, "appended vertex id");
                true
            }
        }
    }
}

struct PhaseOutcome {
    name: &'static str,
    work: String,
    wall_ms: f64,
    detail: String,
    fails: Vec<String>,
}

/// Phase 1: overlay-vs-rebuild oracle with throughput measurement.
fn overlay_phase(args: &Args) -> PhaseOutcome {
    let base = generators::rmat_default(args.vertices, args.edges, args.seed);
    let mut dg = DeltaGraph::new(base.clone());
    let mut stream = Stream::new(&base, args.seed ^ 0x01a7, args.feat);
    let mut fails = Vec::new();

    let checkpoint_every = (args.mutations / 8).max(1);
    let mut checkpoints = 0usize;
    let started = Instant::now();
    let mut apply_ns = 0u128;
    for i in 0..args.mutations {
        let t0 = Instant::now();
        stream.apply(i, &mut dg);
        apply_ns += t0.elapsed().as_nanos();
        if (i + 1) % checkpoint_every == 0 {
            let got = dg.materialize();
            let want = bench::pack_csr(dg.num_vertices(), &stream.edges);
            if got != want {
                fails.push(format!(
                    "checkpoint after {} mutations: materialized overlay is not \
                     bitwise the from-scratch rebuild",
                    i + 1
                ));
            }
            checkpoints += 1;
        }
    }
    let snap_t0 = Instant::now();
    let snap = dg.snapshot();
    let snap_us = snap_t0.elapsed().as_secs_f64() * 1e6;
    if snap.num_vertices() != dg.num_vertices() {
        fails.push("snapshot vertex count disagrees with the overlay".into());
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let per_apply_us = apply_ns as f64 / 1e3 / args.mutations as f64;
    telemetry::gauge_set("dynamic_bench.overlay.apply_us", per_apply_us);
    telemetry::gauge_set("dynamic_bench.overlay.snapshot_us", snap_us);
    PhaseOutcome {
        name: "overlay",
        work: format!("{} muts", args.mutations),
        wall_ms,
        detail: format!(
            "{per_apply_us:.2}us/apply, snapshot {snap_us:.1}us, {checkpoints} bitwise checkpoints, \
             +{} edges +{} vertices",
            dg.delta_edges(),
            dg.delta_vertices()
        ),
        fails,
    }
}

/// Phase 2: serving throughput and epoch bookkeeping under churn.
fn serving_phase(args: &Args) -> PhaseOutcome {
    let g = generators::rmat_default(args.vertices, args.edges, args.seed);
    let x = Matrix::random(args.vertices, args.feat, 1.0, args.seed ^ 0xfea7);
    let net = GnnNetwork::two_layer(
        |_| GnnModel::Gcn,
        args.feat,
        args.hidden,
        args.classes,
        args.seed ^ 0x9e7,
    );
    let mut cfg = ServeConfig {
        workers: 2,
        max_batch: 8,
        max_wait: Duration::from_millis(1),
        cache_capacity: 1024,
        metrics_prefix: "dynamic.serving".to_string(),
        ..ServeConfig::default()
    };
    cfg.supervisor.monitor_interval = Duration::from_secs(3600);
    let server = GnnServer::start(cfg, g.clone(), x, net);
    let mut stream = Stream::new(&g, args.seed ^ 0x5e1f, args.feat);
    let mut fails = Vec::new();

    let mut expected_epoch = 0u64;
    let mut mutation_batches = 0u64;
    let started = Instant::now();
    let mut served = 0u64;
    let mut mut_i = 0usize;
    for i in 0..args.requests {
        // Every third step mutates (batch of 2), every tenth compacts.
        if i % 10 == 5 {
            server.compact_graph();
        }
        if i % 3 == 2 {
            let mut batch = Vec::new();
            let mut accepted = 0u64;
            let mut n = server.num_vertices() as u64;
            for _ in 0..2 {
                let d =
                    bench::splitmix64((args.seed ^ 0x5e1f) ^ (mut_i as u64).wrapping_mul(0x9e37));
                mut_i += 1;
                match d % 4 {
                    0..=2 => {
                        let (src, dst) = (((d >> 8) % n) as u32, ((d >> 40) % n) as u32);
                        batch.push(GraphMutation::InsertEdge { src, dst });
                        if stream.present.insert((src, dst)) {
                            stream.edges.push((dst, src));
                            accepted += 1;
                        }
                    }
                    _ => {
                        batch.push(GraphMutation::InsertVertex {
                            features: stream.feat_row(n),
                        });
                        n += 1;
                        accepted += 1;
                    }
                }
            }
            expected_epoch += accepted;
            mutation_batches += 1;
            match server.mutate(&batch) {
                Ok(e) if e == expected_epoch => {}
                Ok(e) => fails.push(format!(
                    "mutation batch {mutation_batches}: epoch {e}, expected {expected_epoch}"
                )),
                Err(e) => fails.push(format!("mutation batch {mutation_batches} rejected: {e}")),
            }
            continue;
        }
        let n = server.num_vertices() as u64;
        let t = (bench::splitmix64(args.seed ^ (i as u64).wrapping_mul(0x51ed)) % n) as u32;
        match server.submit(Request::new(vec![t])).and_then(|h| h.wait()) {
            Ok(resp) => {
                served += 1;
                if resp.epoch != expected_epoch {
                    fails.push(format!(
                        "request {i}: pinned epoch {} but submitted at {expected_epoch}",
                        resp.epoch
                    ));
                }
                if resp.degraded.any() {
                    fails.push(format!("request {i}: degraded under a frozen ladder"));
                }
            }
            Err(e) => fails.push(format!("request {i} failed: {e}")),
        }
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let stats = server.shutdown();
    if stats.epoch != expected_epoch {
        fails.push(format!(
            "final server epoch {} != accepted mutations {expected_epoch}",
            stats.epoch
        ));
    }
    if stats.compactions == 0 {
        fails.push("schedule compacted periodically but the server counted none".into());
    }
    let rps = served as f64 / (wall_ms / 1e3).max(1e-9);
    telemetry::gauge_set("dynamic_bench.serving.rps_under_churn", rps);
    PhaseOutcome {
        name: "serving",
        work: format!("{served} reqs"),
        wall_ms,
        detail: format!(
            "{rps:.0} rps under churn, epoch {}, {} evictions, {} compactions",
            stats.epoch, stats.mutation_evictions, stats.compactions
        ),
        fails,
    }
}

/// Phase 3: extraction-vs-compute split, exact vs sampled.
fn sampled_phase(args: &Args) -> PhaseOutcome {
    let g = generators::rmat_default(args.vertices, args.edges, args.seed);
    let x = Matrix::random(args.vertices, args.feat, 1.0, args.seed ^ 0xfea7);
    let net = GnnNetwork::two_layer(
        |_| GnnModel::Gcn,
        args.feat,
        args.hidden,
        args.classes,
        args.seed ^ 0x9e7,
    );
    let hops = net.receptive_hops();
    let pool: Vec<u32> = (0..32.min(args.vertices))
        .map(|i| (i * args.vertices / 32.min(args.vertices)) as u32)
        .collect();
    let mut fails = Vec::new();
    let mut engine = TlpgnnEngine::new(DeviceConfig::test_small(), EngineOptions::default());

    let mut totals = [0f64; 4]; // exact extract/compute, sampled extract/compute
    let mut exact_verts = 0usize;
    let mut sampled_verts = 0usize;
    let started = Instant::now();
    for &t in &pool {
        let run = |s: &subgraph::EgoGraph, engine: &mut TlpgnnEngine| -> (Vec<f32>, f64) {
            let mut sub = Matrix::zeros(s.vertices.len(), args.feat);
            for (local, &orig) in s.vertices.iter().enumerate() {
                sub.row_mut(local).copy_from_slice(x.row(orig as usize));
            }
            let t0 = Instant::now();
            let (out, _) = engine.classify_forward(&net, &s.csr, &sub);
            (out.row(0).to_vec(), t0.elapsed().as_secs_f64() * 1e3)
        };
        let t0 = Instant::now();
        let exact = subgraph::ego_graph(&g, &[t], hops);
        totals[0] += t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let sampled = subgraph::sampled_ego_graph(&g, &[t], hops, args.fanout, args.seed ^ 0x5a);
        totals[2] += t0.elapsed().as_secs_f64() * 1e3;
        let (_, c) = run(&exact, &mut engine);
        totals[1] += c;
        let (_, c) = run(&sampled, &mut engine);
        totals[3] += c;
        exact_verts += exact.vertices.len();
        sampled_verts += sampled.vertices.len();

        let exact_set: HashSet<u32> = exact.vertices.iter().copied().collect();
        if !sampled.vertices.iter().all(|v| exact_set.contains(v)) {
            fails.push(format!(
                "target {t}: sampled extraction left the exact receptive field"
            ));
        }
        if (0..sampled.vertices.len()).any(|v| sampled.csr.neighbors(v).len() > args.fanout) {
            fails.push(format!(
                "target {t}: sampled row exceeds fanout {}",
                args.fanout
            ));
        }
        let again = subgraph::sampled_ego_graph(&g, &[t], hops, args.fanout, args.seed ^ 0x5a);
        if again.vertices != sampled.vertices || again.csr != sampled.csr {
            fails.push(format!(
                "target {t}: same-seed sampling is not deterministic"
            ));
        }
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let reduction = 1.0 - sampled_verts as f64 / exact_verts.max(1) as f64;
    telemetry::gauge_set("dynamic_bench.sampled.vertex_reduction", reduction);
    telemetry::gauge_set("dynamic_bench.sampled.extract_ms", totals[2]);
    telemetry::gauge_set("dynamic_bench.sampled.compute_ms", totals[3]);
    telemetry::gauge_set("dynamic_bench.exact.extract_ms", totals[0]);
    telemetry::gauge_set("dynamic_bench.exact.compute_ms", totals[1]);
    PhaseOutcome {
        name: "sampled",
        work: format!("{} targets", pool.len()),
        wall_ms,
        detail: format!(
            "exact {:.1}+{:.1}ms (extract+compute) vs sampled {:.1}+{:.1}ms, \
             {:.0}% fewer subgraph vertices",
            totals[0],
            totals[1],
            totals[2],
            totals[3],
            reduction * 100.0
        ),
        fails,
    }
}

/// Phase 4: compaction cost, bitwise oracle, inference invisibility.
fn compaction_phase(args: &Args) -> PhaseOutcome {
    let base = generators::rmat_default(args.vertices, args.edges, args.seed);
    let mut dg = DeltaGraph::new(base.clone());
    let mut stream = Stream::new(&base, args.seed ^ 0xc0de, args.feat);
    for i in 0..args.mutations {
        stream.apply(i, &mut dg);
    }
    let net = GnnNetwork::two_layer(
        |_| GnnModel::Gcn,
        args.feat,
        args.hidden,
        args.classes,
        args.seed ^ 0x9e7,
    );
    let hops = net.receptive_hops();
    let n = dg.num_vertices();
    let x = Matrix::random(n, args.feat, 1.0, args.seed ^ 0xfea7);
    let mut fails = Vec::new();
    let mut engine = TlpgnnEngine::new(DeviceConfig::test_small(), EngineOptions::default());
    let targets: Vec<u32> = vec![0, (n / 2) as u32, (n - 1) as u32];

    let infer = |g: &Csr, engine: &mut TlpgnnEngine| -> Vec<f32> {
        let s = subgraph::ego_graph(g, &targets, hops);
        let mut sub = Matrix::zeros(s.vertices.len(), args.feat);
        for (local, &orig) in s.vertices.iter().enumerate() {
            sub.row_mut(local).copy_from_slice(x.row(orig as usize));
        }
        let (out, _) = engine.classify_forward(&net, &s.csr, &sub);
        out.data().to_vec()
    };

    let oracle = dg.materialize();
    let before = infer(&oracle, &mut engine);
    let epoch_before = dg.epoch();
    let (folded_edges, folded_vertices) = (dg.delta_edges(), dg.delta_vertices());
    let t0 = Instant::now();
    dg.compact();
    let compact_ms = t0.elapsed().as_secs_f64() * 1e3;
    if dg.base() != &oracle {
        fails.push("compacted CSR is not bitwise the from-scratch rebuild".into());
    }
    if dg.epoch() != epoch_before {
        fails.push("compaction must not bump the epoch".into());
    }
    if dg.delta_edges() != 0 || dg.delta_vertices() != 0 {
        fails.push("compaction left overlay residue".into());
    }
    let after = infer(dg.base(), &mut engine);
    if before
        .iter()
        .map(|f| f.to_bits())
        .ne(after.iter().map(|f| f.to_bits()))
    {
        fails.push("compaction changed inference output bits".into());
    }
    telemetry::gauge_set("dynamic_bench.compaction.rebuild_ms", compact_ms);
    PhaseOutcome {
        name: "compaction",
        work: format!("{} muts", args.mutations),
        wall_ms: compact_ms,
        detail: format!(
            "fold {folded_edges} edges + {folded_vertices} vertices back into CSR \
             in {compact_ms:.1}ms, inference bit-identical"
        ),
        fails,
    }
}

fn main() {
    let args = parse_args();
    bench::Env::from_env().print_header("dynamic_bench: streaming mutations / epoch snapshots");
    let scope = bench::telemetry_scope("dynamic_bench");

    let phases = vec![
        overlay_phase(&args),
        serving_phase(&args),
        sampled_phase(&args),
        compaction_phase(&args),
    ];
    drop(scope);

    let mut t = bench::Table::new(
        "dynamic_bench: phase summary",
        &["Phase", "Work", "Wall ms", "Detail", "Invariants"],
    );
    let mut failures = Vec::new();
    for p in &phases {
        t.row(vec![
            p.name.to_string(),
            p.work.clone(),
            bench::fmt_ms(p.wall_ms),
            p.detail.clone(),
            if p.fails.is_empty() {
                "pass".into()
            } else {
                "FAIL".into()
            },
        ]);
        failures.extend(p.fails.iter().map(|f| format!("{}: {f}", p.name)));
    }
    t.print();

    if failures.is_empty() {
        println!("\ndynamic_bench: all streaming-mutation invariants hold");
    } else {
        for f in &failures {
            eprintln!("dynamic_bench: FAIL: {f}");
        }
        std::process::exit(1);
    }
}
