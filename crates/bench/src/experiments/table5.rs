//! **Table 5** — the headline comparison: execution time of the graph
//! convolution for GCN / GIN / GraphSage / GAT across all 11 datasets,
//! feature size 32, for DGL, GNNAdvisor, FeatGraph, and TLPGNN.
//!
//! Matching the paper: GNNAdvisor runs only GCN and GIN (other models not
//! implemented) and is skipped on the four largest graphs (where the
//! original crashed with illegal memory accesses); times are per-op
//! runtimes (GPU time + amortized host dispatch, the quantity a framework
//! user observes); speedup is TLPGNN vs the best baseline.

use crate::{self as bench, Env};
use tlpgnn::GnnModel;
use tlpgnn_baselines::{AdvisorSystem, DglSystem, FeatGraphSystem, GnnSystem};
use tlpgnn_graph::datasets::DATASETS;

const FEAT: usize = 32;
/// The paper's GNNAdvisor failed on these (illegal CUDA memory access).
const ADVISOR_SKIP: &[&str] = &["CL", "ON", "RD", "OT"];

pub fn run(env: &Env, _args: &[String]) {
    env.print_header("Table 5: main comparison, feature 32");

    let mut summary: Vec<(String, f64)> = Vec::new();

    for model in GnnModel::all_four(FEAT) {
        let mut t = bench::Table::new(
            format!("Table 5 (reproduced), model {}", model.name()),
            &["Data", "DGL", "GNNA.", "FeatG.", "TLPGNN", "Speedup"],
        );
        let mut speedups = Vec::new();
        for spec in DATASETS {
            let g = env.load(spec);
            let x = bench::features(&g, FEAT, 0x7ab5e ^ spec.abbr.len() as u64);

            let dgl = GnnSystem::run(&mut DglSystem::new(env.device_for(spec)), &model, &g, &x)
                .map(|r| r.profile.runtime_ms);
            let advisor = if ADVISOR_SKIP.contains(&spec.abbr) || !AdvisorSystem::supports(&model) {
                None
            } else {
                GnnSystem::run(
                    &mut AdvisorSystem::new(env.device_for(spec)),
                    &model,
                    &g,
                    &x,
                )
                .map(|r| r.profile.runtime_ms)
            };
            let featg = GnnSystem::run(
                &mut FeatGraphSystem::new(env.device_for(spec)),
                &model,
                &g,
                &x,
            )
            .map(|r| r.profile.runtime_ms);
            let tlp = GnnSystem::run(&mut env.system_for(spec), &model, &g, &x)
                .map(|r| r.profile.runtime_ms)
                .unwrap();

            let best_baseline = [dgl, advisor, featg]
                .into_iter()
                .flatten()
                .fold(f64::INFINITY, f64::min);
            let speedup = best_baseline / tlp;
            speedups.push(speedup);
            let cell = |v: Option<f64>| v.map_or("-".to_string(), bench::fmt_ms);
            t.row(vec![
                spec.abbr.to_string(),
                cell(dgl),
                cell(advisor),
                cell(featg),
                bench::fmt_ms(tlp),
                format!("{speedup:.1}x"),
            ]);
        }
        t.print();
        let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
        println!(
            "average speedup over best baseline ({}): {avg:.1}x",
            model.name()
        );
        summary.push((model.name().to_string(), avg));
    }

    println!("\n=== summary ===");
    for (m, s) in &summary {
        println!("{m}: avg speedup over best baseline {s:.1}x");
    }
    println!(
        "paper: TLPGNN averages 5.6x over DGL, 7.7x over GNNAdvisor, 3.3x over FeatGraph \
         (per-model averages vs best baseline: GCN 5.8x-equivalent, GAT strongest on large graphs)."
    );
}
