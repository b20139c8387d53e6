//! **Ablation: cost-model sensitivity.**
//!
//! The reproduction's claims are *orderings* (who wins, where crossovers
//! fall), not absolute times. This binary perturbs the simulator's main
//! cost knobs — warp memory-level parallelism, atomic bandwidth penalty,
//! DRAM latency, block scheduling cost — one at a time across a wide
//! range and checks the headline orderings hold at every setting:
//!
//! 1. TLPGNN (pull)  <  push / edge-centric   (Observation I)
//! 2. half-warp      <  thread-per-vertex     (Observation II)
//! 3. fused GAT      <  DGL's 18-kernel GAT   (Observation III)
//!
//! An ordering that flips under a ±2–4× knob change would mean the
//! conclusion was an artifact of calibration; the table shows it is not.

use crate::{self as bench, Env};
use gpu_sim::DeviceConfig;
use tlpgnn::{Aggregator, EngineOptions, GnnModel, TlpgnnEngine};
use tlpgnn_baselines::{DglSystem, EdgeCentricSystem, PushSystem};
use tlpgnn_graph::datasets;

const FEAT: usize = 32;

struct Check {
    holds: bool,
    detail: String,
}

fn run_checks(env: &Env, cfg: DeviceConfig) -> Vec<Check> {
    let spec = datasets::by_abbr("PI").unwrap();
    let g = spec.load_scaled(env.extra_scale * 2);
    let x = bench::features(&g, FEAT, 0x7c06);

    let mut engine = TlpgnnEngine::new(cfg.clone(), EngineOptions::default());
    let (_, p_pull) = engine.conv(&GnnModel::Gcn, &g, &x);
    let (_, p_push) = PushSystem::new(cfg.clone()).run(Aggregator::GcnSum, &g, &x);
    let (_, p_edge) = EdgeCentricSystem::new(cfg.clone()).run(Aggregator::GcnSum, &g, &x);

    let params = tlpgnn::GatParams::random(FEAT, 0x6a7);
    let gat = GnnModel::Gat {
        params: params.clone(),
    };
    let (_, p_gat_fused) = engine.conv(&gat, &g, &x);
    let (_, p_gat_dgl) = DglSystem::new(cfg.clone()).run(&gat, &g, &x);

    // Table 2's mapping comparison.
    let mut dev1 = gpu_sim::Device::new(cfg.clone());
    let gd1 = tlpgnn::GraphOnDevice::upload(&mut dev1, &g, &x);
    let one = tlpgnn::kernels::variants::ThreadPerVertexKernel {
        gd: gd1,
        agg: Aggregator::GcnSum,
    };
    let p_one = dev1.launch(
        &one,
        gpu_sim::LaunchConfig::warp_per_item(g.num_vertices().div_ceil(32), 256),
    );
    let mut dev2 = gpu_sim::Device::new(cfg);
    let gd2 = tlpgnn::GraphOnDevice::upload(&mut dev2, &g, &x);
    let half = tlpgnn::kernels::variants::SubWarpKernel {
        gd: gd2,
        agg: Aggregator::GcnSum,
        lanes_per_vertex: 16,
    };
    let p_half = dev2.launch(
        &half,
        gpu_sim::LaunchConfig::warp_per_item(g.num_vertices().div_ceil(2), 256),
    );

    vec![
        Check {
            holds: p_pull.gpu_time_ms < p_push.gpu_time_ms
                && p_pull.gpu_time_ms < p_edge.gpu_time_ms,
            detail: format!(
                "pull {:.3} push {:.3} edge {:.3}",
                p_pull.gpu_time_ms, p_push.gpu_time_ms, p_edge.gpu_time_ms
            ),
        },
        Check {
            holds: p_half.gpu_time_ms < p_one.gpu_time_ms,
            detail: format!(
                "half {:.3} one {:.3}",
                p_half.gpu_time_ms, p_one.gpu_time_ms
            ),
        },
        Check {
            holds: p_gat_fused.runtime_ms < p_gat_dgl.runtime_ms,
            detail: format!(
                "fused {:.3} dgl {:.3}",
                p_gat_fused.runtime_ms, p_gat_dgl.runtime_ms
            ),
        },
    ]
}

pub(crate) fn run(env: &Env, _args: &[String]) {
    env.print_header("Ablation: cost-model sensitivity of the headline orderings");
    let base = DeviceConfig::v100();
    let mut variants: Vec<(String, DeviceConfig)> = vec![("baseline".into(), base.clone())];
    for mlp in [5.0, 10.0, 40.0] {
        let mut c = base.clone();
        c.warp_mlp = mlp;
        variants.push((format!("warp_mlp={mlp}"), c));
    }
    for f in [1.0, 2.0, 8.0] {
        let mut c = base.clone();
        c.atomic_bw_factor = f;
        variants.push((format!("atomic_bw_factor={f}"), c));
    }
    for d in [220, 880] {
        let mut c = base.clone();
        c.dram_latency = d;
        variants.push((format!("dram_latency={d}"), c));
    }
    for b in [150, 2400] {
        let mut c = base.clone();
        c.block_sched_cycles = b;
        variants.push((format!("block_sched={b}"), c));
    }

    let mut t = bench::Table::new(
        "headline orderings under cost-knob perturbation",
        &["knob setting", "pull wins", "coalesced wins", "fusion wins"],
    );
    let mut all_hold = true;
    for (name, cfg) in variants {
        let checks = run_checks(env, cfg);
        all_hold &= checks.iter().all(|c| c.holds);
        t.row(vec![
            name,
            format!(
                "{} ({})",
                if checks[0].holds { "yes" } else { "NO" },
                checks[0].detail
            ),
            format!(
                "{} ({})",
                if checks[1].holds { "yes" } else { "NO" },
                checks[1].detail
            ),
            format!(
                "{} ({})",
                if checks[2].holds { "yes" } else { "NO" },
                checks[2].detail
            ),
        ]);
    }
    t.print();
    println!(
        "\nall orderings hold at every setting: {}",
        if all_hold { "YES" } else { "NO — see table" }
    );
}
