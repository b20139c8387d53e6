//! **Figure 9** — achieved occupancy of the GCN implementation of
//! FeatGraph vs TLPGNN over all datasets.
//!
//! Paper's shape: FeatGraph averages 41.2%, TLPGNN 68.2%; TLPGNN is
//! higher on every dataset because FeatGraph's rigid block-per-vertex
//! mapping caps resident warps.

use crate::{self as bench, Env};
use tlpgnn::GnnModel;
use tlpgnn_baselines::{FeatGraphSystem, GnnSystem};
use tlpgnn_graph::datasets::DATASETS;

pub(crate) fn run(env: &Env, _args: &[String]) {
    env.print_header("Figure 9: achieved occupancy, GCN, FeatGraph vs TLPGNN");
    let mut t = bench::Table::new(
        "Figure 9 (reproduced): achieved occupancy (%)",
        &["Dataset", "FeatGraph", "TLPGNN"],
    );
    let (mut sum_fg, mut sum_tlp) = (0.0, 0.0);
    for spec in DATASETS {
        let g = env.load(spec);
        let x = bench::features(&g, 32, 0x7ab9e);
        let fg = GnnSystem::run(
            &mut FeatGraphSystem::new(env.device_for(spec)),
            &GnnModel::Gcn,
            &g,
            &x,
        )
        .unwrap()
        .profile;
        let tlp = GnnSystem::run(&mut env.system_for(spec), &GnnModel::Gcn, &g, &x)
            .unwrap()
            .profile;
        sum_fg += fg.achieved_occupancy;
        sum_tlp += tlp.achieved_occupancy;
        t.row(vec![
            spec.abbr.to_string(),
            format!("{:.1}", fg.achieved_occupancy * 100.0),
            format!("{:.1}", tlp.achieved_occupancy * 100.0),
        ]);
    }
    let n = DATASETS.len() as f64;
    t.row(vec![
        "average".into(),
        format!("{:.1}", sum_fg / n * 100.0),
        format!("{:.1}", sum_tlp / n * 100.0),
    ]);
    t.print();
    println!("\npaper averages: FeatGraph 41.2%, TLPGNN 68.2%.");
}
