//! The experiment registry: every table, figure, extension and ablation
//! is one function in this directory plus one [`Experiment`] row in
//! [`REGISTRY`], and the `repro` binary is the only way to run them
//! (`repro <name> [args]`, `repro list`, `repro gate`). The registry is
//! the one list of experiments: `run_experiments.sh` iterates
//! `repro list`, and `tests/registry.rs` holds it against the committed
//! `results/<name>.txt` records.

use crate::Env;

mod ablation_advisor;
mod ablation_costmodel;
mod ablation_device;
mod ablation_tuning;
mod datasets;
mod ext_hetero;
mod fig10;
mod fig11;
mod fig12;
mod fig8;
mod fig9;
pub mod gate;
mod profile_kernels;
mod table1;
mod table2;
mod table3;
mod table5;

/// One runnable experiment.
pub struct Experiment {
    /// Subcommand name; also the telemetry scope and the
    /// `results/<name>.txt` record.
    pub name: &'static str,
    /// One line for the usage listing.
    pub(crate) title: &'static str,
    /// The experiment body: sizing, then the arguments after the name
    /// (a bad argument exits 2).
    pub run: fn(&Env, &[String]),
}

/// Every experiment, in the order `run_experiments.sh` regenerates them.
pub const REGISTRY: &[Experiment] = &[
    Experiment {
        name: "datasets",
        title: "Table 4: graph benchmarks, paper statistics vs synthesized",
        run: datasets::run,
    },
    Experiment {
        name: "table1",
        title: "Table 1: push / edge-centric / GNNAdvisor / pull profiling (GCN, OH)",
        run: table1::run,
    },
    Experiment {
        name: "table2",
        title: "Table 2: one thread vs half warp per vertex (coalescing)",
        run: table2::run,
    },
    Experiment {
        name: "table3",
        title: "Table 3: DGL vs three-kernel vs fused one-kernel GAT (RD)",
        run: table3::run,
    },
    Experiment {
        name: "table5",
        title: "Table 5: 4 models x 11 datasets, TLPGNN vs DGL / GNNAdvisor / FeatGraph",
        run: table5::run,
    },
    Experiment {
        name: "fig8",
        title: "Figure 8: GNNAdvisor atomic-write traffic",
        run: fig8::run,
    },
    Experiment {
        name: "fig9",
        title: "Figure 9: achieved occupancy, FeatGraph vs TLPGNN",
        run: fig9::run,
    },
    Experiment {
        name: "fig10",
        title: "Figure 10: stacked technique speedups over edge-centric",
        run: fig10::run,
    },
    Experiment {
        name: "fig11",
        title: "Figure 11: scaling with thread blocks, 1 to 128",
        run: fig11::run,
    },
    Experiment {
        name: "fig12",
        title: "Figure 12: scaling with feature size, 16 to 512",
        run: fig12::run,
    },
    Experiment {
        name: "ext_hetero",
        title: "Extension: fused heterogeneous-graph convolution",
        run: ext_hetero::run,
    },
    Experiment {
        name: "ablation_tuning",
        title: "Ablation: warps-per-block x task-pool step grid vs the heuristic",
        run: ablation_tuning::run,
    },
    Experiment {
        name: "ablation_advisor",
        title: "Ablation: GNNAdvisor neighbor-group size",
        run: ablation_advisor::run,
    },
    Experiment {
        name: "ablation_costmodel",
        title: "Ablation: headline orderings under cost-knob perturbation",
        run: ablation_costmodel::run,
    },
    Experiment {
        name: "ablation_device",
        title: "Ablation: V100-class vs A100-class device",
        run: ablation_device::run,
    },
    Experiment {
        name: "profile_kernels",
        title: "Kernel limiter analysis [dataset-abbr] [feature-dim] (default OH 32)",
        run: profile_kernels::run,
    },
];

/// The registry row named `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.name == name)
}

/// Usage text for the `repro` binary: the subcommands, one per line.
pub fn usage() -> String {
    let mut out = String::from(
        "usage: repro <experiment> [args] | repro gate | repro list\n\nexperiments:\n",
    );
    for e in REGISTRY {
        out.push_str(&format!("  {:<19} {}\n", e.name, e.title));
    }
    out.push_str(&format!(
        "  {:<19} {}\n",
        "gate", "PASS/FAIL check of every headline claim (writes repro_gate.json)"
    ));
    out
}
