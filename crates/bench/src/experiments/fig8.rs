//! **Figure 8** — memory traffic of GNNAdvisor's atomic writes for GCN
//! and GIN over the seven datasets it supports.
//!
//! Paper's shape: atomic-write traffic grows with graph size, reaching
//! hundreds of MB on the larger graphs; TLPGNN's is zero by construction.

use crate::{self as bench, Env};
use tlpgnn::Aggregator;
use tlpgnn_baselines::AdvisorSystem;
use tlpgnn_graph::datasets;

pub fn run(env: &Env, _args: &[String]) {
    env.print_header("Figure 8: GNNAdvisor atomic-write traffic (GCN & GIN)");
    let mut t = bench::Table::new(
        "Figure 8 (reproduced): atomic write traffic (MB)",
        &["Dataset", "GCN", "GIN"],
    );
    for spec in datasets::advisor_seven() {
        let g = env.load(spec);
        let x = bench::features(&g, 32, 0x7ab8e);
        let (_, p_gcn) = AdvisorSystem::new(env.device_for(spec)).run(Aggregator::GcnSum, &g, &x);
        let (_, p_gin) =
            AdvisorSystem::new(env.device_for(spec)).run(Aggregator::GinSum { eps: 0.1 }, &g, &x);
        t.row(vec![
            spec.abbr.to_string(),
            format!("{:.2}", p_gcn.atomic_bytes as f64 / 1e6),
            format!("{:.2}", p_gin.atomic_bytes as f64 / 1e6),
        ]);
    }
    t.print();
    println!("\nTLPGNN atomic-write traffic on every dataset: 0 MB (vertex parallelism).");
}
