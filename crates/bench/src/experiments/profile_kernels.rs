//! **Limiter analysis** — the Section 3 methodology as a tool: for each
//! system's GCN kernel(s) on a chosen dataset, print the cost-model
//! breakdown at the critical SM (issue / bandwidth / latency /
//! critical-warp / scheduling) plus the Nsight-style metrics, naming what
//! actually bounds each kernel.
//!
//! Usage: `repro profile_kernels [dataset-abbr] [feature-dim]` (defaults:
//! OH 32).

use crate::{self as bench, Env};
use gpu_sim::{Device, Kernel, KernelProfile, LaunchConfig};
use tlpgnn::kernels::fused::FusedConvKernel;
use tlpgnn::kernels::variants::{EdgeParallelSecondKernel, SubWarpKernel, ThreadPerVertexKernel};
use tlpgnn::{Aggregator, Assignment, GraphOnDevice, WorkSource};

fn show(name: &str, p: &KernelProfile) {
    let l = &p.limiter;
    println!(
        "{name:>24}: {:>8.3} ms | limiter {:<13} | issue {:>9.0} bw {:>9.0} lat {:>9.0} crit {:>9.0} sched {:>8.0} | occ {:>4.1}% | sect/req {:>4.1}",
        p.gpu_time_ms,
        l.name(),
        l.issue,
        l.bandwidth,
        l.latency,
        l.critical_warp,
        l.scheduling,
        p.achieved_occupancy * 100.0,
        p.sectors_per_request,
    );
}

pub fn run(env: &Env, args: &[String]) {
    let abbr = args.first().map(|s| s.as_str()).unwrap_or("OH");
    let feat: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(32);
    let spec = tlpgnn_graph::datasets::by_abbr(abbr).unwrap_or_else(|| {
        eprintln!("unknown dataset {abbr}; use a Table 4 abbreviation");
        std::process::exit(2);
    });
    env.print_header("Kernel limiter analysis (GCN aggregation)");
    let g = env.load(spec);
    let x = bench::features(&g, feat, 0x7c05);
    println!(
        "graph: {} ({}), feature {}",
        spec.name,
        tlpgnn_graph::GraphStats::of(&g),
        feat
    );
    let cfg = env.device_for(spec);
    let n = g.num_vertices();

    // TLPGNN fused, hardware assignment.
    {
        let mut dev = Device::new(cfg.clone());
        let gd = GraphOnDevice::upload(&mut dev, &g, &x);
        let k = FusedConvKernel::new(gd, Aggregator::GcnSum, WorkSource::Hardware, true);
        let lc = Assignment::hardware().launch_config(n, dev.cfg(), k.regs_per_thread());
        show("tlpgnn fused (hw)", &dev.launch(&k, lc));
    }
    // TLPGNN fused, software task pool.
    {
        let mut dev = Device::new(cfg.clone());
        let gd = GraphOnDevice::upload(&mut dev, &g, &x);
        let bound = Assignment::software().bind(&mut dev, n, FusedConvKernel::regs(true));
        let k = FusedConvKernel::new(gd, Aggregator::GcnSum, bound.work, true);
        show("tlpgnn fused (sw)", &dev.launch(&k, bound.lc));
    }
    // No register caching.
    {
        let mut dev = Device::new(cfg.clone());
        let gd = GraphOnDevice::upload(&mut dev, &g, &x);
        let k = FusedConvKernel::new(gd, Aggregator::GcnSum, WorkSource::Hardware, false);
        let lc = Assignment::hardware().launch_config(n, dev.cfg(), k.regs_per_thread());
        show("fused, no reg cache", &dev.launch(&k, lc));
    }
    // Thread-per-vertex (Table 2's pathological mapping).
    {
        let mut dev = Device::new(cfg.clone());
        let gd = GraphOnDevice::upload(&mut dev, &g, &x);
        let k = ThreadPerVertexKernel {
            gd,
            agg: Aggregator::GcnSum,
        };
        let lc = LaunchConfig::warp_per_item(n.div_ceil(32), 256);
        show("thread-per-vertex", &dev.launch(&k, lc));
    }
    // Half-warp.
    {
        let mut dev = Device::new(cfg.clone());
        let gd = GraphOnDevice::upload(&mut dev, &g, &x);
        let k = SubWarpKernel {
            gd,
            agg: Aggregator::GcnSum,
            lanes_per_vertex: 16,
        };
        let lc = LaunchConfig::warp_per_item(n.div_ceil(2), 256);
        show("half-warp", &dev.launch(&k, lc));
    }
    // Edge-parallel second level (Figure 5a).
    {
        let mut dev = Device::new(cfg);
        let gd = GraphOnDevice::upload(&mut dev, &g, &x);
        let k = EdgeParallelSecondKernel {
            gd,
            agg: Aggregator::GcnSum,
        };
        let lc = LaunchConfig::warp_per_item(n, 256);
        show("edge-parallel 2nd lvl", &dev.launch(&k, lc));
    }
    println!("\ncolumns are cycles of each cost-model term at the critical SM.");
}
