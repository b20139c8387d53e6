//! **Table 4** — the graph benchmark registry: paper statistics vs the
//! synthesized graphs actually used at the current scale.

use crate::{self as bench, Env};
use tlpgnn_graph::{datasets::DATASETS, GraphStats};

pub(crate) fn run(env: &Env, _args: &[String]) {
    env.print_header("Table 4: graph benchmarks (paper vs synthesized)");
    let mut t = bench::Table::new(
        "Table 4 (reproduced): datasets sorted by edge count",
        &[
            "Dataset (Abbr.)",
            "paper |V|",
            "paper |E|",
            "paper deg",
            "scale",
            "synth |V|",
            "synth |E|",
            "synth deg",
            "gini",
            "components",
            "largest",
        ],
    );
    for spec in DATASETS {
        let g = env.load(spec);
        let s = GraphStats::of(&g);
        let comps = tlpgnn_graph::components::weakly_connected(&g);
        t.row(vec![
            format!("{} ({})", spec.name, spec.abbr),
            spec.vertices.to_string(),
            spec.edges.to_string(),
            format!("{:.1}", spec.avg_degree()),
            format!("1/{}", env.effective_scale(spec)),
            s.vertices.to_string(),
            s.edges.to_string(),
            format!("{:.1}", s.avg_degree),
            format!("{:.2}", s.degree_gini),
            comps.count.to_string(),
            comps.largest.to_string(),
        ]);
    }
    t.print();
}
