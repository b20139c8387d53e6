//! **Extension: heterogeneous graphs** (paper Section 1, future work).
//!
//! An academic-graph-style heterograph (papers with `cites`, `authors`,
//! `venue` relations) convolved two ways: the fused multi-relation kernel
//! (one launch) vs one kernel per relation plus a self-copy — showing
//! Observation III carries over to heterogeneous GNNs.

use crate::{self as bench, Env};
use tlpgnn::hetero::{HeteroEngine, HeteroGraph};
use tlpgnn_graph::generators;
use tlpgnn_tensor::Matrix;

const FEAT: usize = 32;

fn build(n: usize, seed: u64) -> HeteroGraph {
    let mut hg = HeteroGraph::new(n);
    hg.add_relation("cites", generators::rmat_default(n, n * 8, seed));
    hg.add_relation("authored_by", generators::erdos_renyi(n, n * 3, seed + 1));
    hg.add_relation(
        "same_venue",
        generators::watts_strogatz(n, 4, 0.1, seed + 2),
    );
    hg
}

pub(crate) fn run(env: &Env, _args: &[String]) {
    env.print_header("Extension: heterogeneous R-GCN-style convolution");
    let mut t = bench::Table::new(
        "Fused multi-relation kernel vs per-relation launches",
        &[
            "|V|",
            "relations",
            "|E| total",
            "fused ms",
            "fused launches",
            "per-rel ms",
            "per-rel launches",
            "speedup",
        ],
    );
    for &n in &[10_000usize, 50_000, 200_000] {
        let hg = build(n, 0x7c02);
        let x = Matrix::random(n, FEAT, 1.0, 0x7c03);
        let want = hg.conv_reference(&x);
        let mut e = HeteroEngine::new(gpu_sim::DeviceConfig::v100());
        let (out_f, p_f) = e.conv_fused(&hg, &x);
        let mut e2 = HeteroEngine::new(gpu_sim::DeviceConfig::v100());
        let (out_r, p_r) = e2.conv_per_relation(&hg, &x);
        assert!(out_f.max_abs_diff(&want) < 1e-3);
        assert!(out_r.max_abs_diff(&want) < 1e-3);
        t.row(vec![
            n.to_string(),
            hg.relations().len().to_string(),
            hg.num_edges().to_string(),
            bench::fmt_ms(p_f.runtime_ms),
            p_f.kernel_launches.to_string(),
            bench::fmt_ms(p_r.runtime_ms),
            p_r.kernel_launches.to_string(),
            format!("{:.1}x", p_r.runtime_ms / p_f.runtime_ms),
        ]);
    }
    t.print();
    println!("\nboth variants verified against the serial heterograph reference.");
}
