//! **Extension: multi-GPU scaling** (paper Section 1, future work).
//!
//! Strong scaling of the TLPGNN convolution over 1–8 simulated devices on
//! the four largest graphs: per-device compute shrinks with the
//! edge-balanced partition, while halo communication (∝ the partition's
//! edge cut) grows — the classic trade the paper defers to METIS-style
//! partitioning.

use crate::{self as bench, Env};
use tlpgnn::multi_gpu::MultiGpuEngine;
use tlpgnn::GnnModel;
use tlpgnn_graph::datasets;

const FEAT: usize = 32;
const DEVICES: &[usize] = &[1, 2, 4, 8];

pub fn run(env: &Env, _args: &[String]) {
    env.print_header("Extension: multi-GPU strong scaling (GCN, feature 32)");
    let mut headers: Vec<String> = vec!["Dataset".into()];
    for &d in DEVICES {
        headers.push(format!("{d}dev ms"));
        headers.push(format!("{d}dev comm MB"));
    }
    headers.push("speedup@8".into());
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = bench::Table::new("Multi-GPU scaling", &header_refs);

    for spec in datasets::largest_four() {
        let g = env.load(spec);
        let x = bench::features(&g, FEAT, 0x7c01);
        let mut engine = MultiGpuEngine::new(env.device_for(spec));
        engine.heuristic = env.heuristic_for(spec);
        let mut cells = vec![spec.abbr.to_string()];
        let mut times = Vec::new();
        for &d in DEVICES {
            let (_, prof) = engine.conv(&GnnModel::Gcn, &g, &x, d);
            times.push(prof.step_ms);
            cells.push(bench::fmt_ms(prof.step_ms));
            cells.push(format!("{:.1}", prof.total_comm_bytes as f64 / 1e6));
        }
        cells.push(format!("{:.1}x", times[0] / times[times.len() - 1]));
        t.row(cells);
    }
    t.print();
    println!(
        "\ncontiguous edge-balanced partition (the lightweight METIS stand-in);\n\
         communication is the halo feature rows, bounded by cut_edges × 4·F bytes."
    );
}
