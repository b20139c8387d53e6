//! `native_conv`: full-graph two-layer inference on the host through
//! `NativeEngine::default()`, for {GCN, GIN, SAGE, GAT} × {R-MAT,
//! Erdős–Rényi}.
//!
//! The only real-hardware compute path: `core::native` and `tensor` do
//! all the work, the simulator and the servers none. The uniform graph
//! is the same layer used differently — what helps hub-heavy R-MAT rows
//! can cost on near-regular rows.

use std::time::Instant;

use tlpgnn::oracle::conv_reference;
use tlpgnn::{GnnModel, GnnNetwork, NativeEngine, NativeSchedule};
use tlpgnn_graph::{generators, Csr};
use tlpgnn_tensor::{ops, Matrix};

use super::{
    check_conv, ms, note_layer_shares, peak_rss_mb, repeat_setup, EndToEnd, Outcome, RunCfg,
};
use crate::gen::{sub_seed, two_layer, MODELS};
use crate::spans::{Tracer, ROOT};
use crate::stats;

/// Vertices of both graphs.
pub const VERTICES: usize = 50_000;
/// Edges requested of both generators (R-MAT realises fewer after
/// deduplication).
pub const EDGES: usize = 1_000_000;
/// Input and hidden feature width; the feature matrix (12.8 MB) is
/// 1.6× the two private 4 MiB L2 caches.
pub const FEAT: usize = 64;
/// Output classes.
pub const CLASSES: usize = 16;

const GRAPHS: [&str; 2] = ["rmat", "er"];

/// `core.native.conv_ms_p50.<model>.<graph>`, indexed `[graph][model]`.
const CONV_P50: [[&str; 4]; 2] = [
    [
        "core.native.conv_ms_p50.gcn.rmat",
        "core.native.conv_ms_p50.gin.rmat",
        "core.native.conv_ms_p50.sage.rmat",
        "core.native.conv_ms_p50.gat.rmat",
    ],
    [
        "core.native.conv_ms_p50.gcn.er",
        "core.native.conv_ms_p50.gin.er",
        "core.native.conv_ms_p50.sage.er",
        "core.native.conv_ms_p50.gat.er",
    ],
];

struct Inputs {
    graphs: [Csr; 2],
    x: Matrix,
    nets: Vec<GnnNetwork>,
}

/// Host time of one sweep over the eight cases.
struct Sweep {
    wall_s: f64,
    /// Per case `[graph][model]`: the forward pass, ms.
    forward_ms: [[f64; 4]; 2],
    /// Per case: the two convolutions inside it, ms.
    conv_ms: [[[f64; 2]; 4]; 2],
}

fn setup(seed: u64, tracer: &mut Tracer) -> Inputs {
    let rmat = tracer.scope("graph.generators.rmat", ROOT, || {
        generators::rmat_default(VERTICES, EDGES, sub_seed(seed, "rmat"))
    });
    let er = tracer.scope("graph.generators.erdos_renyi", ROOT, || {
        generators::erdos_renyi(VERTICES, EDGES, sub_seed(seed, "er"))
    });
    let inputs = Inputs {
        graphs: [rmat, er],
        x: Matrix::random(VERTICES, FEAT, 1.0, sub_seed(seed, "features")),
        nets: MODELS
            .iter()
            .map(|m| two_layer(m, FEAT, FEAT, CLASSES, seed))
            .collect(),
    };
    // Warm-up repetition: first touch of every buffer, worker threads
    // started once.
    tracer.paused(|tracer| sweep(&inputs, &NativeEngine::default(), tracer));
    inputs
}

fn sweep(inputs: &Inputs, engine: &NativeEngine, tracer: &mut Tracer) -> Sweep {
    let mut forward_ms = [[0.0; 4]; 2];
    let mut conv_ms = [[[0.0; 2]; 4]; 2];
    let t_sweep = Instant::now();
    for (gi, g) in inputs.graphs.iter().enumerate() {
        for (mi, net) in inputs.nets.iter().enumerate() {
            let t0 = Instant::now();
            let span = tracer.open("tensor.forward", ROOT, 0);
            let mut layer = 0;
            let out = net.forward_with(&inputs.x, |model, h| {
                let c0 = Instant::now();
                let agg = tracer.scope("core.native.conv", span, || engine.conv(model, g, h));
                conv_ms[gi][mi][layer] = ms(c0.elapsed());
                layer += 1;
                agg
            });
            tracer.close(span);
            forward_ms[gi][mi] = ms(t0.elapsed());
            std::hint::black_box(out);
        }
    }
    Sweep {
        wall_s: t_sweep.elapsed().as_secs_f64(),
        forward_ms,
        conv_ms,
    }
}

/// Check every convolution of every case against the serial oracle.
fn verify(inputs: &Inputs, engine: &NativeEngine, out: &mut Outcome) {
    for (gi, g) in inputs.graphs.iter().enumerate() {
        for (mi, net) in inputs.nets.iter().enumerate() {
            let what = format!("{} on {}", MODELS[mi], GRAPHS[gi]);
            net.forward_with(&inputs.x, |model, h| {
                let got = engine.conv(model, g, h);
                check_conv(out, &what, model, &got, &conv_reference(model, g, h));
                got
            });
        }
    }
}

/// Edges aggregated by one sweep: every case runs two convolutions.
fn sweep_edges(inputs: &Inputs) -> f64 {
    inputs
        .graphs
        .iter()
        .map(|g| (2 * MODELS.len() * g.num_edges()) as f64)
        .sum()
}

/// Run the workload.
pub fn run(cfg: &RunCfg, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let engine = NativeEngine::default();
    let (inputs, setup_s) = repeat_setup(cfg, || setup(cfg.seed, tracer));

    let mut sweeps = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < cfg.seconds {
        sweeps.push(sweep(&inputs, &engine, tracer));
    }
    let peak_rss_mb = peak_rss_mb();

    verify(&inputs, &engine, &mut out);
    out.note(format!(
        "sizes: |V| {VERTICES}, |E| rmat {} er {}, feat {FEAT}->{FEAT}->{CLASSES}, threads {} (available parallelism)",
        inputs.graphs[0].num_edges(),
        inputs.graphs[1].num_edges(),
        std::thread::available_parallelism().map_or(1, usize::from),
    ));

    if !cfg.trace {
        EndToEnd {
            setup_s,
            rep_ops_per_s: sweeps.iter().map(|s| 8.0 / s.wall_s).collect(),
            latencies_ms: (0..8)
                .map(|case| {
                    sweeps
                        .iter()
                        .map(|s| s.forward_ms[case / 4][case % 4])
                        .collect()
                })
                .collect(),
            peak_rss_mb,
        }
        .report(&mut out);
        return out;
    }

    out.set(
        "graph.generators.rmat_ms",
        stats::median(&tracer.durations_ms("graph.generators.rmat")),
    );
    out.set(
        "graph.generators.erdos_renyi_ms",
        stats::median(&tracer.durations_ms("graph.generators.erdos_renyi")),
    );
    let mut conv_total = 0.0;
    let mut forward_total = 0.0;
    for (gi, names) in CONV_P50.iter().enumerate() {
        for (mi, name) in names.iter().enumerate() {
            let convs: Vec<f64> = sweeps.iter().flat_map(|s| s.conv_ms[gi][mi]).collect();
            out.set(name, stats::median(&convs));
            conv_total += convs.iter().sum::<f64>();
            forward_total += sweeps.iter().map(|s| s.forward_ms[gi][mi]).sum::<f64>();
        }
    }
    out.set("tensor.dense_share", 1.0 - conv_total / forward_total);
    let sweep_s: Vec<f64> = sweeps.iter().map(|s| s.wall_s).collect();
    out.set(
        "core.native.edges_per_s",
        sweep_edges(&inputs) / stats::median(&sweep_s),
    );

    // Probes: the plain single-thread baseline and the static schedule on
    // the GCN/R-MAT first-layer convolution, and the dense product the
    // layers run between convolutions.
    let g = &inputs.graphs[0];
    let probe = |engine: NativeEngine| {
        let samples: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(engine.conv(&GnnModel::Gcn, g, &inputs.x));
                ms(t.elapsed())
            })
            .collect();
        stats::median(&samples)
    };
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let t_n = probe(engine);
    let t_1 = probe(NativeEngine {
        threads: 1,
        ..engine
    });
    out.set("core.native.conv_ms_p50.gcn.rmat.t1", t_1);
    out.set(
        "core.native.conv_ms_p50.gcn.rmat.static",
        probe(NativeEngine {
            schedule: NativeSchedule::Static,
            ..engine
        }),
    );
    out.set(
        "core.native.parallel_efficiency",
        t_1 / (t_n * threads as f64),
    );
    let w = Matrix::random(FEAT, FEAT, 1.0, sub_seed(cfg.seed, "matmul"));
    let matmul: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(ops::matmul(&inputs.x, &w));
            ms(t.elapsed())
        })
        .collect();
    out.set("tensor.ops.matmul_ms_p50", stats::median(&matmul));

    // Computed, not measured: per aggregated edge one multiply-add over
    // the feature row; bytes are the neighbour rows gathered, the CSR
    // arrays read and the output rows written, as if nothing were cached.
    let (mut flops, mut bytes) = (0.0, 0.0);
    for g in &inputs.graphs {
        let (n, e, f) = (g.num_vertices() as f64, g.num_edges() as f64, FEAT as f64);
        let convs = (2 * MODELS.len()) as f64;
        flops += convs * 2.0 * e * f;
        bytes += convs * (e * f * 4.0 + e * 4.0 + (n + 1.0) * 4.0 + n * f * 4.0);
    }
    out.set("core.native.flops_computed", flops);
    out.set("core.native.bytes_computed", bytes);
    out.set("core.native.ops_per_byte_computed", flops / bytes);

    note_layer_shares(
        &mut out,
        tracer,
        &format!(
            "unattributed: tensor.dense_share {:.3} of forward time is not inside NativeEngine::conv (linear, ReLU, concat, log-softmax)",
            1.0 - conv_total / forward_total
        ),
    );
    out
}
