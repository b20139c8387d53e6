//! **Table 1** — profiling Push, Edge-centric, GNNAdvisor, and Pull
//! implementations of GCN's graph convolution on the ovcar-8h (OH)
//! dataset with feature size 128.
//!
//! Paper's shape: Pull is fastest (1.8 ms vs 3.3 / 2.8 / 10.4), the three
//! atomic systems carry large atomic-store traffic while Pull carries
//! none, and Pull has the lowest memory stalls and the highest SM
//! utilization.

use crate::{self as bench, Env};
use tlpgnn::{Aggregator, GnnModel};
use tlpgnn_baselines::{AdvisorSystem, EdgeCentricSystem, PushSystem};

pub(crate) fn run(env: &Env, _args: &[String]) {
    env.print_header("Table 1: atomic-operation profiling (GCN, OH, feature 128)");
    let spec = tlpgnn_graph::datasets::by_abbr("OH").unwrap();
    let g = env.load(spec);
    let x = bench::features(&g, 128, 0x7a81e);
    println!(
        "graph: {} ({})",
        spec.name,
        tlpgnn_graph::GraphStats::of(&g)
    );
    let cfg = env.device_for(spec);

    let mut rows: Vec<(String, gpu_sim::OpProfile)> = Vec::new();

    let (_, p_push) = PushSystem::new(cfg.clone()).run(Aggregator::GcnSum, &g, &x);
    rows.push(("Push".into(), p_push));
    let (_, p_edge) = EdgeCentricSystem::new(cfg.clone()).run(Aggregator::GcnSum, &g, &x);
    rows.push(("Edge".into(), p_edge));
    let (_, p_gnna) = AdvisorSystem::new(cfg).run(Aggregator::GcnSum, &g, &x);
    rows.push(("GnnA.".into(), p_gnna));
    let (_, p_pull) = env.engine_for(spec).conv(&GnnModel::Gcn, &g, &x);
    rows.push(("Pull".into(), p_pull));

    let mut t = bench::Table::new(
        "Table 1 (reproduced): GCN graph convolution on OH, feature 128",
        &["Metric", "Push", "Edge", "GnnA.", "Pull"],
    );
    let metric = |name: &str,
                  f: &dyn Fn(&gpu_sim::OpProfile) -> String,
                  rows: &[(String, gpu_sim::OpProfile)]| {
        let mut cells = vec![name.to_string()];
        cells.extend(rows.iter().map(|(_, p)| f(p)));
        cells
    };
    t.row(metric(
        "Runtime (ms)",
        &|p| bench::fmt_ms(p.gpu_time_ms),
        &rows,
    ));
    t.row(metric(
        "Mem load traffics (MB)",
        &|p| format!("{:.1}", p.load_bytes as f64 / 1e6),
        &rows,
    ));
    t.row(metric(
        "Mem atomic store traffics (MB)",
        &|p| format!("{:.1}", p.atomic_bytes as f64 / 1e6),
        &rows,
    ));
    t.row(metric(
        "Stall long scoreboard (cycle)",
        &|p| format!("{:.1}", p.stall_long_scoreboard),
        &rows,
    ));
    t.row(metric(
        "SM utilization",
        &|p| format!("{:.1}%", p.sm_utilization * 100.0),
        &rows,
    ));
    t.print();

    let pull = &rows[3].1;
    for (name, p) in &rows[..3] {
        println!(
            "speedup of Pull over {name}: {:.1}x",
            p.gpu_time_ms / pull.gpu_time_ms
        );
    }
    println!(
        "\npaper: Pull 1.8x / 1.6x / 5.8x faster than Push / Edge / GNNAdvisor; \
         atomic store traffic ~0 for Pull, >1 GB for the rest (full-scale graphs)."
    );
}
