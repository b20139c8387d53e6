//! `gnnconv` — command-line front end: run one graph convolution on any
//! system, over a registry dataset or a user-supplied edge list.
//!
//! ```text
//! gnnconv --dataset RD --model gat --feat 32 --system tlpgnn
//! gnnconv --graph my_edges.txt --model gcn --system dgl --csv
//! gnnconv --help
//! ```

use std::process::exit;

use gpu_sim::DeviceConfig;
use tlpgnn::{GatParams, GnnModel};
use tlpgnn_baselines::{
    AdvisorSystem, DglSystem, EdgeCentricSystem, FeatGraphSystem, GnnSystem, PushSystem,
    TlpgnnSystem,
};
use tlpgnn_bench as bench;
use tlpgnn_graph::Csr;
use tlpgnn_tensor::Matrix;

const HELP: &str = "\
gnnconv — run one GNN graph convolution on a chosen system

USAGE:
    gnnconv [OPTIONS]

OPTIONS:
    --dataset <ABBR>    Table 4 dataset abbreviation (CS, CR, PD, OA, PI,
                        DD, OH, CL, ON, RD, OT); synthesized at its
                        default scale (see --scale)
    --graph <PATH>      edge-list file (`src dst` per line) instead of a
                        registry dataset
    --model <M>         gcn | gin | sage | gat          [default: gcn]
    --feat <N>          feature dimension               [default: 32]
    --system <S>        tlpgnn | dgl | featgraph | advisor | push | edge
                                                        [default: tlpgnn]
    --scale <K>         extra scale divisor for registry datasets
    --seed <K>          feature RNG seed                [default: 7]
    --csv               one CSV line instead of the human report
    --help              this text
";

struct Args {
    dataset: Option<String>,
    graph: Option<String>,
    model: String,
    feat: usize,
    system: String,
    scale: usize,
    seed: u64,
    csv: bool,
}

/// `v` parsed as a number, or exit 2 naming `flag`: a typo must not run
/// the default and report it as what was asked for.
fn num<T: std::str::FromStr>(flag: &str, v: String) -> T {
    v.parse().unwrap_or_else(|_| {
        eprintln!("{flag} needs a number, got {v:?}");
        exit(2);
    })
}

fn parse_args() -> Args {
    let mut a = Args {
        dataset: None,
        graph: None,
        model: "gcn".into(),
        feat: 32,
        system: "tlpgnn".into(),
        scale: 1,
        seed: 7,
        csv: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                exit(2);
            })
        };
        match flag.as_str() {
            "--dataset" => a.dataset = Some(val("--dataset")),
            "--graph" => a.graph = Some(val("--graph")),
            "--model" => a.model = val("--model").to_lowercase(),
            "--feat" => a.feat = num("--feat", val("--feat")),
            "--system" => a.system = val("--system").to_lowercase(),
            "--scale" => a.scale = num("--scale", val("--scale")),
            "--seed" => a.seed = num("--seed", val("--seed")),
            "--csv" => a.csv = true,
            "--help" | "-h" => {
                print!("{HELP}");
                exit(0);
            }
            other => {
                eprintln!("unknown flag {other}\n\n{HELP}");
                exit(2);
            }
        }
    }
    a
}

fn load_graph(a: &Args) -> (String, Csr, DeviceConfig) {
    if let Some(path) = &a.graph {
        let file = std::fs::File::open(path).unwrap_or_else(|e| {
            eprintln!("cannot open {path}: {e}");
            exit(2);
        });
        let g = tlpgnn_graph::io::read_edge_list(file).unwrap_or_else(|e| {
            eprintln!("cannot parse {path}: {e}");
            exit(2);
        });
        (path.clone(), g, DeviceConfig::v100())
    } else {
        let abbr = a.dataset.as_deref().unwrap_or("CR");
        let spec = tlpgnn_graph::datasets::by_abbr(abbr).unwrap_or_else(|| {
            eprintln!("unknown dataset {abbr}");
            exit(2);
        });
        let g = spec.load_scaled(a.scale);
        (
            spec.name.to_string(),
            g,
            bench::Env::from_env().device_for(spec),
        )
    }
}

fn main() {
    let _telemetry = tlpgnn_bench::telemetry_scope("gnnconv");
    let a = parse_args();
    let (name, g, cfg) = load_graph(&a);
    let model = match a.model.as_str() {
        "gcn" => GnnModel::Gcn,
        "gin" => GnnModel::Gin { eps: 0.1 },
        "sage" => GnnModel::Sage,
        "gat" => GnnModel::Gat {
            params: GatParams::random(a.feat, 0x6a7),
        },
        other => {
            eprintln!("unknown model {other}");
            exit(2);
        }
    };
    let x = Matrix::random(g.num_vertices(), a.feat, 1.0, a.seed);

    let mut system: Box<dyn GnnSystem> = match a.system.as_str() {
        "tlpgnn" => Box::new(TlpgnnSystem::new(cfg)),
        "dgl" => Box::new(DglSystem::new(cfg)),
        "featgraph" => Box::new(FeatGraphSystem::new(cfg)),
        "advisor" => Box::new(AdvisorSystem::new(cfg)),
        "push" => Box::new(PushSystem::new(cfg)),
        "edge" => Box::new(EdgeCentricSystem::new(cfg)),
        other => {
            eprintln!("unknown system {other}");
            exit(2);
        }
    };
    if !system.supports(&model) {
        eprintln!("{} does not implement {}", system.name(), model.name());
        exit(1);
    }
    let r = system.run(&model, &g, &x).unwrap();

    // Always verify against the oracle: a CLI that can silently produce
    // wrong numbers is worse than none.
    let want = tlpgnn::oracle::conv_reference(&model, &g, &x);
    let diff = r.output.max_abs_diff(&want);
    if diff > 5e-3 {
        eprintln!("OUTPUT MISMATCH vs oracle: {diff}");
        exit(1);
    }

    let p = &r.profile;
    if a.csv {
        println!(
            "graph,system,model,feat,vertices,edges,gpu_ms,runtime_ms,launches,traffic_mb,occupancy",
        );
        println!(
            "{name},{},{},{},{},{},{:.4},{:.4},{},{:.2},{:.3}",
            system.name(),
            model.name(),
            a.feat,
            g.num_vertices(),
            g.num_edges(),
            p.gpu_time_ms,
            p.runtime_ms,
            p.kernel_launches,
            p.total_traffic_bytes() as f64 / 1e6,
            p.achieved_occupancy,
        );
    } else {
        println!("graph   : {name} ({})", tlpgnn_graph::GraphStats::of(&g));
        println!(
            "system  : {} | model {} | feature {}",
            system.name(),
            model.name(),
            a.feat
        );
        println!("{p}");
        println!("verified against serial oracle (max diff {diff:.2e})");
    }
}
