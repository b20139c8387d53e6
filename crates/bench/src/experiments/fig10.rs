//! **Figure 10** — technique-benefit ablation: speedups of the stacked
//! TLPGNN techniques over an edge-centric baseline, per model and dataset.
//!
//! The ladder, cumulative left to right (paper Section 7.3):
//! * **TLP** — two-level parallelism (warp-vertex + feature lanes,
//!   atomic-free) with a naive static strided assignment, no register
//!   caching;
//! * **Hybrid** — adds the hybrid dynamic workload assignment;
//! * **Cache** — adds register caching of index bounds + partial sums;
//! * **Fusion** (GAT only) — fuses the three kernels into one.
//!
//! Paper's average stacked speedups: GCN 12.9×, GIN 12.1×, Sage 11.3×,
//! GAT 8.6× (with per-rung factors ≈ 2.8 / 2.0 / 2.2, and 2.0× for GAT
//! fusion).

use crate::{self as bench, Env};
use tlpgnn::{Aggregator, GnnModel};
use tlpgnn_baselines::multikernel::{AggMode, ThreeKernelGatSystem};
use tlpgnn_baselines::EdgeCentricSystem;
use tlpgnn_graph::datasets::DATASETS;

const FEAT: usize = 32;

pub(crate) fn run(env: &Env, _args: &[String]) {
    env.print_header("Figure 10: technique benefits (speedup over edge-centric baseline)");
    for model in GnnModel::all_four(FEAT) {
        let is_gat = matches!(model, GnnModel::Gat { .. });
        let headers: &[&str] = if is_gat {
            &["Dataset", "TLP", "+Hybrid", "+Cache", "+Fusion"]
        } else {
            &["Dataset", "TLP", "+Hybrid", "+Cache"]
        };
        let mut t = bench::Table::new(
            format!(
                "Figure 10 (reproduced), model {} — cumulative speedup",
                model.name()
            ),
            headers,
        );
        let mut final_speedups = Vec::new();
        for spec in DATASETS {
            let g = env.load(spec);
            let x = bench::features(&g, FEAT, 0x7b10e);
            let chosen = env
                .heuristic_for(spec)
                .choose(g.num_vertices(), g.avg_degree());

            let times: Vec<f64> = if let Some(agg) = Aggregator::of_model(&model) {
                let (_, p_base) = EdgeCentricSystem::new(env.device_for(spec)).run(agg, &g, &x);
                let mut e = env.engine_for(spec);
                let (_, p_tlp) = e.conv_tlp_only(&model, &g, &x);
                let (_, p_hybrid) = e.conv_with(&model, &g, &x, chosen, false);
                let (_, p_cache) = e.conv_with(&model, &g, &x, chosen, true);
                vec![
                    p_base.gpu_time_ms,
                    p_tlp.gpu_time_ms,
                    p_hybrid.gpu_time_ms,
                    p_cache.gpu_time_ms,
                ]
            } else {
                let GnnModel::Gat { params } = &model else {
                    unreachable!()
                };
                let mut sys = ThreeKernelGatSystem::new(env.device_for(spec));
                let (_, p_base) = sys.run_mode(params, &g, &x, AggMode::EdgeCentricAtomic);
                let (_, p_tlp) = sys.run_mode(
                    params,
                    &g,
                    &x,
                    AggMode::WarpVertex {
                        assignment: tlpgnn::Assignment::Hardware {
                            warps_per_block: 32,
                        },
                        reg_cache: false,
                    },
                );
                let (_, p_hybrid) = sys.run_mode(
                    params,
                    &g,
                    &x,
                    AggMode::WarpVertex {
                        assignment: chosen,
                        reg_cache: false,
                    },
                );
                let (_, p_cache) = sys.run_mode(
                    params,
                    &g,
                    &x,
                    AggMode::WarpVertex {
                        assignment: chosen,
                        reg_cache: true,
                    },
                );
                let (_, p_fused) = env.engine_for(spec).conv(&model, &g, &x);
                vec![
                    p_base.gpu_time_ms,
                    p_tlp.gpu_time_ms,
                    p_hybrid.gpu_time_ms,
                    p_cache.gpu_time_ms,
                    p_fused.gpu_time_ms,
                ]
            };

            let base = times[0];
            let mut cells = vec![spec.abbr.to_string()];
            for &tm in &times[1..] {
                cells.push(format!("{:.1}x", base / tm));
            }
            final_speedups.push(base / *times.last().unwrap());
            t.row(cells);
        }
        t.print();
        let avg = final_speedups.iter().sum::<f64>() / final_speedups.len() as f64;
        println!(
            "average stacked speedup ({}): {avg:.1}x  (paper: GCN 12.9x, GIN 12.1x, Sage 11.3x, GAT 8.6x)",
            model.name()
        );
    }
}
