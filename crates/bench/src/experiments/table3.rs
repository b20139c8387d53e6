//! **Table 3** — kernel-count study on GAT's graph convolution: DGL's
//! 18-kernel pipeline vs a hand-written 3-kernel version vs TLPGNN's
//! fused single kernel, on the Reddit (RD) dataset with feature size 32.
//!
//! Paper's shape: one-kernel beats three-kernel by 4.6× and DGL by 7.5×;
//! host overhead (runtime − GPU time) drops 20 → 3.69 → 0.5 ms; global
//! memory use 10 → 2.8 → 1.5 GB; traffic 35.9 → 19.5 → 4.8 GB.

use crate::{self as bench, Env};
use tlpgnn::{GatParams, GnnModel};
use tlpgnn_baselines::{DglSystem, ThreeKernelGatSystem};

pub(crate) fn run(env: &Env, _args: &[String]) {
    env.print_header("Table 3: kernel launches study (GAT, RD, feature 32)");
    let spec = tlpgnn_graph::datasets::by_abbr("RD").unwrap();
    let g = env.load(spec);
    let x = bench::features(&g, 32, 0x7ab3e);
    println!(
        "graph: {} ({})",
        spec.name,
        tlpgnn_graph::GraphStats::of(&g)
    );
    let params = GatParams::random(32, 0x6a7);
    let model = GnnModel::Gat {
        params: params.clone(),
    };
    let cfg = env.device_for(spec);

    let (_, p_dgl) = DglSystem::new(cfg.clone()).run(&model, &g, &x);
    let (_, p_three) = ThreeKernelGatSystem::new(cfg).run(&params, &g, &x);
    let (_, p_one) = env.engine_for(spec).conv(&model, &g, &x);

    let rows = [
        ("DGL", &p_dgl),
        ("Three-Kernel", &p_three),
        ("One-Kernel", &p_one),
    ];
    let mut t = bench::Table::new(
        "Table 3 (reproduced): GAT graph convolution on RD, feature 32",
        &["Metric", "DGL", "Three-Kernel", "One-Kernel"],
    );
    let metric = |name: &str, f: &dyn Fn(&gpu_sim::OpProfile) -> String| {
        let mut cells = vec![name.to_string()];
        cells.extend(rows.iter().map(|(_, p)| f(p)));
        cells
    };
    t.row(metric("GPU Kernel launch", &|p| {
        p.kernel_launches.to_string()
    }));
    t.row(metric("Runtime (ms)", &|p| bench::fmt_ms(p.runtime_ms)));
    t.row(metric("GPU time (ms)", &|p| bench::fmt_ms(p.gpu_time_ms)));
    t.row(metric("Runtime - GPU time (ms)", &|p| {
        bench::fmt_ms(p.host_overhead_ms())
    }));
    t.row(metric("Global mem usage (MB)", &|p| {
        format!("{:.1}", p.peak_mem_bytes as f64 / 1e6)
    }));
    t.row(metric("Global mem traffics (MB)", &|p| {
        format!("{:.1}", p.total_traffic_bytes() as f64 / 1e6)
    }));
    t.row(metric("Stall long scoreboard (cycle)", &|p| {
        format!("{:.1}", p.stall_long_scoreboard)
    }));
    t.row(metric("Average SM utilization", &|p| {
        format!("{:.1}%", p.sm_utilization * 100.0)
    }));
    t.print();

    println!(
        "\none-kernel speedup: {:.1}x over DGL (paper 7.5x), {:.1}x over three-kernel (paper 4.6x)",
        p_dgl.runtime_ms / p_one.runtime_ms,
        p_three.runtime_ms / p_one.runtime_ms
    );
}
