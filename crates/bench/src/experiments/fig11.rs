//! **Figure 11** — scalability against thread count: blocks 1 → 128 with
//! 512 threads per block, speedup over a single block, for the four
//! largest graphs (CL, ON, RD, OT) and all four models.
//!
//! Paper's shape: near-linear scaling; 128 blocks reach ~67.5× (GCN),
//! 62.5× (GIN), 67.2× (Sage), 45.3× (GAT) over one block on average.

use crate::{self as bench, Env};
use gpu_sim::DeviceConfig;
use tlpgnn::{EngineOptions, GnnModel, HybridHeuristic, TlpgnnEngine};
use tlpgnn_graph::datasets;

const FEAT: usize = 32;
const BLOCKS: &[usize] = &[1, 2, 4, 8, 16, 32, 64, 128];

/// The sweep reaches 128 blocks × 16 warps = 2048 concurrent warps, so
/// the graphs must keep enough vertices (task-pool chunks) to feed them:
/// use a milder scale than the default registry divisor for this study.
fn scale_for(env: &Env, spec: &tlpgnn_graph::DatasetSpec) -> usize {
    (spec.default_scale / 4).max(4) * env.extra_scale
}

pub(crate) fn run(env: &Env, _args: &[String]) {
    env.print_header("Figure 11: scalability vs thread count (512 threads/block)");
    for model in GnnModel::all_four(FEAT) {
        let mut headers: Vec<String> = vec!["Dataset".into()];
        headers.extend(BLOCKS.iter().map(|b| format!("{b}b")));
        let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let mut t = bench::Table::new(
            format!(
                "Figure 11 (reproduced), {} — speedup over 1 block",
                model.name()
            ),
            &header_refs,
        );
        let mut at_128 = Vec::new();
        for spec in datasets::largest_four() {
            let g = spec.synthesize(scale_for(env, spec));
            let x = bench::features(&g, FEAT, 0x7b11e);
            // Thread-count scaling runs on the full device: the sweep
            // itself controls how much of it is used.
            let mut e = TlpgnnEngine::new(
                DeviceConfig::v100(),
                EngineOptions {
                    heuristic: HybridHeuristic::scaled(scale_for(env, spec)),
                    ..Default::default()
                },
            );
            let times: Vec<f64> = BLOCKS
                .iter()
                .map(|&b| e.conv_with_grid(&model, &g, &x, b, 512).1.gpu_time_ms)
                .collect();
            let mut cells = vec![spec.abbr.to_string()];
            for &tm in &times {
                cells.push(format!("{:.1}x", times[0] / tm));
            }
            at_128.push(times[0] / times[times.len() - 1]);
            t.row(cells);
        }
        t.print();
        let avg = at_128.iter().sum::<f64>() / at_128.len() as f64;
        println!(
            "average speedup at 128 blocks ({}): {avg:.1}x  (paper: GCN 67.5x, GIN 62.5x, Sage 67.2x, GAT 45.3x)",
            model.name()
        );
    }
}
