//! **Table 2** — one thread per vertex vs half-warp (16 threads) per
//! vertex, for GCN's graph convolution with feature size 128.
//!
//! Paper's shape: half-warp is 27.3× faster; one-thread's sectors per
//! request is ~4.4× higher (9.2 vs 2.1) and its memory stalls ~3.3×
//! higher.

use crate::{self as bench, Env};
use gpu_sim::{Device, LaunchConfig};
use tlpgnn::kernels::variants::{SubWarpKernel, ThreadPerVertexKernel};
use tlpgnn::Aggregator;

pub fn run(env: &Env, _args: &[String]) {
    env.print_header("Table 2: coalescing study (one thread vs half warp, feature 128)");
    let spec = tlpgnn_graph::datasets::by_abbr("OH").unwrap();
    let g = env.load(spec);
    let x = bench::features(&g, 128, 0x7ab2e);
    println!(
        "graph: {} ({})",
        spec.name,
        tlpgnn_graph::GraphStats::of(&g)
    );
    let n = g.num_vertices();

    // One thread per vertex.
    let mut dev = Device::new(env.device_for(spec));
    let gd = tlpgnn::GraphOnDevice::upload(&mut dev, &g, &x);
    let one = ThreadPerVertexKernel {
        gd,
        agg: Aggregator::GcnSum,
    };
    let p_one = dev.launch(&one, LaunchConfig::warp_per_item(n.div_ceil(32), 256));

    // Half warp (16 threads) per vertex.
    let mut dev2 = Device::new(env.device_for(spec));
    let gd2 = tlpgnn::GraphOnDevice::upload(&mut dev2, &g, &x);
    let half = SubWarpKernel {
        gd: gd2,
        agg: Aggregator::GcnSum,
        lanes_per_vertex: 16,
    };
    let p_half = dev2.launch(&half, LaunchConfig::warp_per_item(n.div_ceil(2), 256));

    let mut t = bench::Table::new(
        "Table 2 (reproduced): one thread vs half warp per vertex",
        &["Metric", "One Thread", "Half Warp"],
    );
    t.row(vec![
        "Runtime (ms)".into(),
        bench::fmt_ms(p_one.gpu_time_ms),
        bench::fmt_ms(p_half.gpu_time_ms),
    ]);
    t.row(vec![
        "Sector per request".into(),
        format!("{:.1}", p_one.sectors_per_request),
        format!("{:.1}", p_half.sectors_per_request),
    ]);
    t.row(vec![
        "L1 cache hit".into(),
        format!("{:.1}%", p_one.l1_hit_rate * 100.0),
        format!("{:.1}%", p_half.l1_hit_rate * 100.0),
    ]);
    t.row(vec![
        "Long scoreboard (cycle)".into(),
        format!("{:.1}", p_one.stall_long_scoreboard),
        format!("{:.1}", p_half.stall_long_scoreboard),
    ]);
    t.print();

    println!(
        "\nhalf-warp speedup over one-thread: {:.1}x (paper: 27.3x)",
        p_one.gpu_time_ms / p_half.gpu_time_ms
    );
    println!("paper: sectors/request 9.2 vs 2.1; scoreboard 251.8 vs 75.2 cycles.");
}
