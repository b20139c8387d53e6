//! `sim_conv`: one fused graph-convolution op at a time (the paper's
//! Table 5 methodology) through `TlpgnnEngine::v100().conv`.
//!
//! Two clocks meet here. The device clock gives the paper's headline
//! quantity, simulated ms, which must repeat exactly; the host clock
//! gives simulated work per host second, the hidden denominator of every
//! other number that runs the simulator. `gpu-sim` and
//! `core::{kernels,engine}` do all the work; the native engine and the
//! servers none.

use std::time::Instant;

use gpu_sim::{KernelProfile, OpProfile};
use tlpgnn::kernels::fused::FusedConvKernel;
use tlpgnn::kernels::gat::FusedGatKernel;
use tlpgnn::oracle::conv_reference;
use tlpgnn::{
    Aggregator, Assignment, GatParams, GatScoresOnDevice, GnnModel, GraphOnDevice, TlpgnnEngine,
    WorkSource,
};
use tlpgnn_baselines::{AdvisorSystem, DglSystem, FeatGraphSystem};
use tlpgnn_graph::{generators, Csr};
use tlpgnn_tensor::Matrix;

use super::{
    check_conv, ms, note_layer_shares, peak_rss_mb, repeat_setup, EndToEnd, Outcome, RunCfg,
};
use crate::gen::sub_seed;
use crate::spans::{Tracer, ROOT};
use crate::stats;

/// Vertices of both graphs.
pub const VERTICES: usize = 50_000;
/// Edges requested of both generators.
pub const EDGES: usize = 1_000_000;
/// Feature width.
pub const FEAT: usize = 32;

const CASES: [&str; 3] = ["gcn_rmat", "gat_rmat", "gcn_er"];
const HOST_P50: [&str; 3] = [
    "core.engine.conv_host_ms_p50.gcn_rmat",
    "core.engine.conv_host_ms_p50.gat_rmat",
    "core.engine.conv_host_ms_p50.gcn_er",
];

struct Inputs {
    rmat: Csr,
    er: Csr,
    x: Matrix,
    gat: GnnModel,
}

/// The generated inputs and the engine under test, as separate fields
/// so a case can be borrowed while the engine runs it.
struct State {
    inputs: Inputs,
    engine: TlpgnnEngine,
}

impl Inputs {
    fn case(&self, i: usize) -> (&GnnModel, &Csr) {
        match i {
            0 => (&GnnModel::Gcn, &self.rmat),
            1 => (&self.gat, &self.rmat),
            _ => (&GnnModel::Gcn, &self.er),
        }
    }
}

/// One pass over the three cases.
struct Sweep {
    wall_s: f64,
    host_ms: [f64; 3],
    ops: Vec<OpProfile>,
}

fn setup(seed: u64, tracer: &mut Tracer) -> State {
    let rmat = tracer.scope("graph.generators.rmat", ROOT, || {
        generators::rmat_default(VERTICES, EDGES, sub_seed(seed, "rmat"))
    });
    let er = tracer.scope("graph.generators.erdos_renyi", ROOT, || {
        generators::erdos_renyi(VERTICES, EDGES, sub_seed(seed, "er"))
    });
    let mut state = State {
        inputs: Inputs {
            rmat,
            er,
            x: Matrix::random(VERTICES, FEAT, 1.0, sub_seed(seed, "features")),
            gat: GnnModel::Gat {
                params: GatParams::random(FEAT, sub_seed(seed, "gat")),
            },
        },
        engine: TlpgnnEngine::v100(),
    };
    // Warm-up repetition.
    tracer.paused(|tracer| sweep(&mut state, tracer));
    state
}

fn sweep(state: &mut State, tracer: &mut Tracer) -> Sweep {
    let mut host_ms = [0.0; 3];
    let mut ops = Vec::with_capacity(3);
    let t_sweep = Instant::now();
    for (i, host) in host_ms.iter_mut().enumerate() {
        // Modelled caches start empty before every op, so simulated
        // numbers are identical from one repetition to the next.
        state.engine.device().flush_l2();
        let (model, g) = state.inputs.case(i);
        let t0 = Instant::now();
        let (out, op) = tracer.scope("core.engine.conv", ROOT, || {
            state.engine.conv(model, g, &state.inputs.x)
        });
        *host = ms(t0.elapsed());
        std::hint::black_box(out);
        ops.push(op);
    }
    Sweep {
        wall_s: t_sweep.elapsed().as_secs_f64(),
        host_ms,
        ops,
    }
}

/// The launch `TlpgnnEngine::conv` makes, made here from the same public
/// parts so that the kernel's full `KernelProfile` (which `conv` folds
/// into an `OpProfile`) and the host time of the launch alone are
/// visible. Returns the profile and the launch's host seconds.
fn profiled_launch(
    engine: &mut TlpgnnEngine,
    model: &GnnModel,
    g: &Csr,
    x: &Matrix,
) -> (KernelProfile, f64) {
    let assignment = engine.assignment_for(g);
    let reg_cache = engine.options.reg_cache;
    let gd = GraphOnDevice::upload(engine.device_mut(), g, x);
    let regs = match (model, reg_cache) {
        (GnnModel::Gat { .. }, true) => 56,
        (GnnModel::Gat { .. }, false) => 32,
        (_, true) => 48,
        (_, false) => 26,
    };
    let lc = assignment.launch_config(gd.n, engine.device().cfg(), regs);
    let mut cursor = None;
    let work = match assignment {
        Assignment::Hardware { .. } => WorkSource::Hardware,
        Assignment::Software { step, .. } => {
            let c = engine.device_mut().mem_mut().alloc::<u32>(1);
            cursor = Some(c);
            WorkSource::Software {
                cursor: c,
                step,
                total_warps: lc.total_warps(),
            }
        }
    };
    let (profile, host_s) = match model {
        GnnModel::Gat { params } => {
            let scores = GatScoresOnDevice::upload(engine.device_mut(), x, params);
            let k = FusedGatKernel::new(gd, scores, work, reg_cache);
            let t0 = Instant::now();
            let p = engine.device_mut().launch(&k, lc);
            let host_s = t0.elapsed().as_secs_f64();
            scores.free(engine.device_mut());
            (p, host_s)
        }
        _ => {
            let agg = match model {
                GnnModel::Gcn => Aggregator::GcnSum,
                GnnModel::Gin { eps } => Aggregator::GinSum { eps: *eps },
                _ => Aggregator::SageMean,
            };
            let k = FusedConvKernel::new(gd, agg, work, reg_cache);
            let t0 = Instant::now();
            let p = engine.device_mut().launch(&k, lc);
            (p, t0.elapsed().as_secs_f64())
        }
    };
    if let Some(c) = cursor {
        engine.device_mut().mem_mut().free(c);
    }
    gd.free(engine.device_mut());
    (profile, host_s)
}

fn verify(state: &mut State, sweeps: &[Sweep], out: &mut Outcome) {
    for (i, case) in CASES.iter().enumerate() {
        state.engine.device().flush_l2();
        let (model, g) = state.inputs.case(i);
        let (got, _) = state.engine.conv(model, g, &state.inputs.x);
        let want = conv_reference(model, g, &state.inputs.x);
        check_conv(out, case, model, &got, &want);
    }
    // The device clock is deterministic: every repetition must report
    // the simulated time and instruction count of the first, bit for bit.
    for s in sweeps {
        let same = s
            .ops
            .iter()
            .zip(&sweeps[0].ops)
            .all(|(a, b)| a.gpu_time_ms == b.gpu_time_ms && a.insts == b.insts);
        if !same {
            out.note("MISMATCH simulated device time differs between repetitions");
        }
        out.check(same);
    }
}

/// Run the workload.
pub fn run(cfg: &RunCfg, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (mut state, setup_s) = repeat_setup(cfg, || setup(cfg.seed, tracer));

    let mut sweeps = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < cfg.seconds {
        sweeps.push(sweep(&mut state, tracer));
    }
    let peak_rss_mb = peak_rss_mb();

    verify(&mut state, &sweeps, &mut out);
    let inputs = &state.inputs;
    let edges = (2 * inputs.rmat.num_edges() + inputs.er.num_edges()) as f64;
    out.note(format!(
        "sizes: |V| {VERTICES}, |E| rmat {} er {}, feat {FEAT}, device v100, L2 flushed before every op",
        inputs.rmat.num_edges(),
        inputs.er.num_edges()
    ));

    if !cfg.trace {
        EndToEnd {
            setup_s,
            rep_ops_per_s: sweeps.iter().map(|s| 3.0 / s.wall_s).collect(),
            latencies_ms: (0..CASES.len())
                .map(|case| sweeps.iter().map(|s| s.host_ms[case]).collect())
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
    for (i, name) in HOST_P50.iter().enumerate() {
        let host: Vec<f64> = sweeps.iter().map(|s| s.host_ms[i]).collect();
        out.set(name, stats::median(&host));
    }
    let first = &sweeps[0].ops;
    let sim_device_ms: f64 = first.iter().map(|op| op.gpu_time_ms).sum();
    out.set("core.engine.sim_device_ms", sim_device_ms);
    out.set(
        "core.engine.kernel_launches",
        first.iter().map(|op| op.kernel_launches).sum::<usize>() as f64,
    );
    let sweep_s: Vec<f64> = sweeps.iter().map(|s| s.wall_s).collect();
    out.set(
        "core.engine.edges_per_host_s",
        edges / stats::median(&sweep_s),
    );

    // The simulator's own counters, from one repetition's launches made
    // through the same public parts `conv` uses.
    let mut profiles = Vec::with_capacity(3);
    let mut launch_s = 0.0;
    for (i, op) in first.iter().enumerate() {
        state.engine.device().flush_l2();
        let (model, g) = inputs.case(i);
        let (p, host_s) = tracer.scope("gpu_sim.launch", ROOT, || {
            profiled_launch(&mut state.engine, model, g, &inputs.x)
        });
        // The launch made here must be the one `conv` makes.
        let same = p.gpu_time_ms == op.gpu_time_ms && p.insts == op.insts;
        if !same {
            out.note(format!(
                "MISMATCH {}: profiled launch differs from TlpgnnEngine::conv",
                CASES[i]
            ));
        }
        out.check(same);
        launch_s += host_s;
        profiles.push(p);
    }
    let sum = |f: fn(&KernelProfile) -> u64| profiles.iter().map(f).sum::<u64>() as f64;
    let cycles: f64 = profiles.iter().map(|p| p.gpu_cycles).sum();
    // Ratios are weighted by each launch's modelled cycles.
    let weighted = |f: fn(&KernelProfile) -> f64| {
        profiles.iter().map(|p| f(p) * p.gpu_cycles).sum::<f64>() / cycles
    };
    out.set("gpu_sim.host_warps_per_s", sum(|p| p.warps_run) / launch_s);
    out.set("gpu_sim.host_insts_per_s", sum(|p| p.insts) / launch_s);
    out.set(
        "gpu_sim.host_ns_per_mem_request",
        launch_s * 1e9 / sum(|p| p.mem_requests),
    );
    out.set("gpu_sim.gpu_cycles", cycles);
    out.set("gpu_sim.insts", sum(|p| p.insts));
    out.set("gpu_sim.warps_run", sum(|p| p.warps_run));
    out.set("gpu_sim.blocks_run", sum(|p| p.blocks_run));
    out.set("gpu_sim.mem_requests", sum(|p| p.mem_requests));
    out.set("gpu_sim.atomic_requests", sum(|p| p.atomic_requests));
    out.set("gpu_sim.load_bytes", sum(|p| p.load_bytes));
    out.set("gpu_sim.dram_load_bytes", sum(|p| p.dram_load_bytes));
    out.set("gpu_sim.store_bytes", sum(|p| p.store_bytes));
    out.set("gpu_sim.atomic_bytes", sum(|p| p.atomic_bytes));
    out.set(
        "gpu_sim.peak_mem_bytes",
        profiles.iter().map(|p| p.peak_mem_bytes).max().unwrap_or(0) as f64,
    );
    out.set("gpu_sim.l1_hit_rate", weighted(|p| p.l1_hit_rate));
    out.set("gpu_sim.l2_hit_rate", weighted(|p| p.l2_hit_rate));
    out.set(
        "gpu_sim.achieved_occupancy",
        weighted(|p| p.achieved_occupancy),
    );
    out.set("gpu_sim.sm_utilization", weighted(|p| p.sm_utilization));
    out.set("gpu_sim.simd_efficiency", weighted(|p| p.simd_efficiency));
    out.set(
        "gpu_sim.sectors_per_request",
        weighted(|p| p.sectors_per_request),
    );
    out.set(
        "gpu_sim.stall_long_scoreboard",
        weighted(|p| p.stall_long_scoreboard),
    );

    // The paper's claim is a ratio against other systems on the same
    // modelled device: GCN on the R-MAT graph, device clock.
    let ours = first[0].gpu_time_ms;
    let device = state.engine.device().cfg().clone();
    let (g, x) = (&inputs.rmat, &inputs.x);
    let dgl = DglSystem::new(device.clone())
        .run(&GnnModel::Gcn, g, x)
        .1
        .gpu_time_ms;
    let advisor = AdvisorSystem::new(device.clone())
        .run(Aggregator::GcnSum, g, x)
        .1
        .gpu_time_ms;
    let featgraph = FeatGraphSystem::new(device)
        .run(&GnnModel::Gcn, g, x)
        .1
        .gpu_time_ms;
    out.set("baselines.dgl.sim_device_ms", dgl);
    out.set("baselines.advisor.sim_device_ms", advisor);
    out.set("baselines.featgraph.sim_device_ms", featgraph);
    out.set("baselines.speedup_vs_dgl", dgl / ours);
    out.set("baselines.speedup_vs_advisor", advisor / ours);
    out.set("baselines.speedup_vs_featgraph", featgraph / ours);

    note_layer_shares(
        &mut out,
        tracer,
        &format!(
            "unattributed: {:.1}% of a conv's host time is outside the kernel launch (upload, read-back, free)",
            100.0 * (1.0 - launch_s * 1e3 / sweeps[0].host_ms.iter().sum::<f64>())
        ),
    );
    out
}
