//! **Ablation: workload-assignment tuning grid** (paper Section 5's open
//! tunables).
//!
//! For each dataset, measure every hardware warps-per-block and software
//! step candidate, print the grid, and compare the paper's static
//! heuristic against the tuned optimum ("heuristic gap" = how much is
//! left on the table by not tuning per graph).

use crate::{self as bench, Env};
use tlpgnn::tune::{autotune, STEP_CANDIDATES, WPB_CANDIDATES};
use tlpgnn::{Assignment, GnnModel};
use tlpgnn_graph::datasets::DATASETS;

const FEAT: usize = 32;

pub fn run(env: &Env, _args: &[String]) {
    env.print_header("Ablation: hardware wpb × software step tuning grid (GCN)");
    let mut headers: Vec<String> = vec!["Dataset".into()];
    for &w in WPB_CANDIDATES {
        headers.push(format!("hw{w}"));
    }
    for &s in STEP_CANDIDATES {
        headers.push(format!("sw{s}"));
    }
    headers.push("best".into());
    headers.push("heuristic".into());
    headers.push("gap".into());
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = bench::Table::new("GPU time (ms) per configuration", &header_refs);

    for spec in DATASETS {
        let g = env.load(spec);
        let x = bench::features(&g, FEAT, 0x7c04);
        let mut e = env.engine_for(spec);
        let report = autotune(&mut e, &GnnModel::Gcn, &g, &x);
        let mut cells = vec![spec.abbr.to_string()];
        for p in &report.points {
            cells.push(bench::fmt_ms(p.gpu_ms));
        }
        let best = match report.best_assignment() {
            Assignment::Hardware { warps_per_block } => format!("hw{warps_per_block}"),
            Assignment::Software { step, .. } => format!("sw{step}"),
        };
        let heur = match report.heuristic_choice {
            Assignment::Hardware { .. } => "hw".to_string(),
            Assignment::Software { .. } => "sw".to_string(),
        };
        cells.push(best);
        cells.push(heur);
        cells.push(format!("{:.2}x", report.heuristic_gap));
        t.row(cells);
    }
    t.print();
    println!(
        "\ngap = best time within the heuristic's chosen strategy / overall best.\n\
         The paper's |V|>1M-or-degree>50 rule is a coarse but cheap approximation\n\
         of this grid; the gap column quantifies what per-graph tuning adds."
    );
}
