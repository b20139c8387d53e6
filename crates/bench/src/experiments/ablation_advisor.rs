//! **Ablation: GNNAdvisor's neighbor-group size.**
//!
//! The paper's Section 3.1 criticizes GNNAdvisor's fixed-size neighbor
//! groups: every group's partial aggregate is combined into the vertex's
//! row with an atomic add, so smaller groups buy balance at the cost of
//! more atomic traffic. This sweep makes that trade-off visible and
//! compares every point against atomic-free TLPGNN.

use crate::{self as bench, Env};
use tlpgnn::{Aggregator, GnnModel};
use tlpgnn_baselines::AdvisorSystem;
use tlpgnn_graph::datasets;

const FEAT: usize = 32;
const GROUP_SIZES: &[usize] = &[1, 2, 4, 8, 16, 32, 64];

pub fn run(env: &Env, _args: &[String]) {
    env.print_header("Ablation: GNNAdvisor neighbor-group size (GCN)");
    for abbr in ["PI", "OA", "OH"] {
        let spec = datasets::by_abbr(abbr).unwrap();
        let g = env.load(spec);
        let x = bench::features(&g, FEAT, 0x7c07);
        let mut t = bench::Table::new(
            format!(
                "{} ({}): group-size sweep",
                spec.name,
                tlpgnn_graph::GraphStats::of(&g)
            ),
            &["group size", "gpu ms", "atomic MB", "groups", "vs TLPGNN"],
        );
        let (_, p_tlp) = env.engine_for(spec).conv(&GnnModel::Gcn, &g, &x);
        for &gs in GROUP_SIZES {
            let mut sys = AdvisorSystem::new(env.device_for(spec));
            sys.group_size = gs;
            let (_, p) = sys.run(Aggregator::GcnSum, &g, &x);
            let groups =
                g.num_edges() / gs + (0..g.num_vertices()).filter(|&v| g.degree(v) == 0).count();
            t.row(vec![
                gs.to_string(),
                bench::fmt_ms(p.gpu_time_ms),
                format!("{:.1}", p.atomic_bytes as f64 / 1e6),
                format!("~{groups}"),
                format!("{:.1}x slower", p.gpu_time_ms / p_tlp.gpu_time_ms),
            ]);
        }
        t.row(vec![
            "TLPGNN".into(),
            bench::fmt_ms(p_tlp.gpu_time_ms),
            "0.0".into(),
            "-".into(),
            "1.0x".into(),
        ]);
        t.print();
    }
    println!(
        "\nsmaller groups = finer balance but one atomic combine per group;\n\
         TLPGNN's whole-row warps need none (Observation I)."
    );
}
