//! **Repro gate** (`repro gate`) — a fast PASS/FAIL check of every
//! headline claim the reproduction makes, on aggressively scaled-down
//! inputs (a few seconds). Exit code 0 iff every claim holds; wire it into
//! CI to keep the reproduction honest as the code evolves.

use std::process::ExitCode;

use crate::Env;
use gpu_sim::DeviceConfig;
use tlpgnn::{Aggregator, EngineOptions, GnnModel, TlpgnnEngine};
use tlpgnn_baselines::{
    AdvisorSystem, DglSystem, EdgeCentricSystem, FeatGraphSystem, GnnSystem, PushSystem,
    ThreeKernelGatSystem,
};
use tlpgnn_graph::datasets;
use tlpgnn_tensor::Matrix;

const FEAT: usize = 32;
/// The gate's sizing: a fixed extra shrink on top of each dataset's
/// default divisor (what `TLPGNN_QUICK` selects for the experiments),
/// whatever the environment says.
pub const GATE: Env = Env { extra_scale: 8 };

struct CheckResult {
    name: String,
    ok: bool,
    detail: String,
}

struct Gate {
    results: Vec<CheckResult>,
}

impl Gate {
    fn check(&mut self, name: &str, ok: bool, detail: String) {
        println!("{} {name}: {detail}", if ok { "PASS" } else { "FAIL" });
        self.results.push(CheckResult {
            name: name.to_string(),
            ok,
            detail,
        });
    }

    fn failures(&self) -> impl Iterator<Item = &CheckResult> {
        self.results.iter().filter(|r| !r.ok)
    }

    fn passed(&self) -> bool {
        self.results.iter().all(|r| r.ok)
    }

    /// Machine-readable summary for CI: overall status plus every check.
    fn to_json(&self) -> telemetry::json::Value {
        use telemetry::json::Value;
        let mut results = Value::array();
        for r in &self.results {
            let mut o = Value::object();
            o.set("name", r.name.as_str());
            o.set("ok", r.ok);
            o.set("detail", r.detail.as_str());
            results.push(o);
        }
        let mut root = Value::object();
        root.set("status", if self.passed() { "PASS" } else { "FAIL" });
        root.set("checks", self.results.len() as u64);
        root.set("failures", self.failures().count() as u64);
        root.set("results", results);
        root
    }
}

/// Run every check, print PASS/FAIL per claim, write
/// `<results_dir>/repro_gate.json`; failure iff any claim failed.
pub fn run() -> ExitCode {
    let mut gate = Gate {
        results: Vec::new(),
    };
    println!(
        "repro gate (scale 1/{} of the default registry scales)\n",
        GATE.extra_scale
    );

    // --- Table 1: atomic-free pull beats push/edge/advisor on OH ---
    {
        let spec = datasets::by_abbr("OH").unwrap();
        let g = GATE.load(spec);
        let x = Matrix::random(g.num_vertices(), 128, 1.0, 1);
        let (_, p_pull) = GATE.engine_for(spec).conv(&GnnModel::Gcn, &g, &x);
        let (_, p_push) = PushSystem::new(GATE.device_for(spec)).run(Aggregator::GcnSum, &g, &x);
        let (_, p_edge) =
            EdgeCentricSystem::new(GATE.device_for(spec)).run(Aggregator::GcnSum, &g, &x);
        let (_, p_adv) = AdvisorSystem::new(GATE.device_for(spec)).run(Aggregator::GcnSum, &g, &x);
        gate.check(
            "T1 pull fastest",
            p_pull.gpu_time_ms < p_push.gpu_time_ms
                && p_pull.gpu_time_ms < p_edge.gpu_time_ms
                && p_pull.gpu_time_ms < p_adv.gpu_time_ms,
            format!(
                "pull {:.3} push {:.3} edge {:.3} advisor {:.3} ms",
                p_pull.gpu_time_ms, p_push.gpu_time_ms, p_edge.gpu_time_ms, p_adv.gpu_time_ms
            ),
        );
        gate.check(
            "T1 pull atomic-free",
            p_pull.atomic_bytes < p_push.atomic_bytes / 100,
            format!("{} vs {} bytes", p_pull.atomic_bytes, p_push.atomic_bytes),
        );
    }

    // --- Table 2: half-warp beats thread-per-vertex clearly ---
    {
        let spec = datasets::by_abbr("OH").unwrap();
        let g = GATE.load(spec);
        let x = Matrix::random(g.num_vertices(), 128, 1.0, 2);
        let mut d1 = gpu_sim::Device::new(GATE.device_for(spec));
        let gd1 = tlpgnn::GraphOnDevice::upload(&mut d1, &g, &x);
        let p_one = d1.launch(
            &tlpgnn::kernels::variants::ThreadPerVertexKernel {
                gd: gd1,
                agg: Aggregator::GcnSum,
            },
            gpu_sim::LaunchConfig::warp_per_item(g.num_vertices().div_ceil(32), 256),
        );
        let mut d2 = gpu_sim::Device::new(GATE.device_for(spec));
        let gd2 = tlpgnn::GraphOnDevice::upload(&mut d2, &g, &x);
        let p_half = d2.launch(
            &tlpgnn::kernels::variants::SubWarpKernel {
                gd: gd2,
                agg: Aggregator::GcnSum,
                lanes_per_vertex: 16,
            },
            gpu_sim::LaunchConfig::warp_per_item(g.num_vertices().div_ceil(2), 256),
        );
        gate.check(
            "T2 coalescing >=3x",
            p_one.gpu_time_ms > 3.0 * p_half.gpu_time_ms,
            format!(
                "one {:.3} half {:.3} ms",
                p_one.gpu_time_ms, p_half.gpu_time_ms
            ),
        );
        gate.check(
            "T2 sectors/request ordering",
            p_one.sectors_per_request > 2.0 * p_half.sectors_per_request,
            format!(
                "{:.1} vs {:.1}",
                p_one.sectors_per_request, p_half.sectors_per_request
            ),
        );
    }

    // --- Table 3: fusion wins on time, memory, overhead ---
    {
        let spec = datasets::by_abbr("RD").unwrap();
        let g = GATE.load(spec);
        let x = Matrix::random(g.num_vertices(), FEAT, 1.0, 3);
        let params = tlpgnn::GatParams::random(FEAT, 0x6a7);
        let gat = GnnModel::Gat {
            params: params.clone(),
        };
        let (_, p_dgl) = DglSystem::new(GATE.device_for(spec)).run(&gat, &g, &x);
        let (_, p_three) = ThreeKernelGatSystem::new(GATE.device_for(spec)).run(&params, &g, &x);
        let (_, p_one) = GATE.engine_for(spec).conv(&gat, &g, &x);
        gate.check(
            "T3 runtime ordering",
            p_one.runtime_ms < p_three.runtime_ms && p_three.runtime_ms < p_dgl.runtime_ms,
            format!(
                "1k {:.3} 3k {:.3} dgl {:.3} ms",
                p_one.runtime_ms, p_three.runtime_ms, p_dgl.runtime_ms
            ),
        );
        gate.check(
            "T3 memory ordering",
            p_one.peak_mem_bytes < p_three.peak_mem_bytes
                && p_three.peak_mem_bytes < p_dgl.peak_mem_bytes,
            format!(
                "{:.1} / {:.1} / {:.1} MB",
                p_one.peak_mem_bytes as f64 / 1e6,
                p_three.peak_mem_bytes as f64 / 1e6,
                p_dgl.peak_mem_bytes as f64 / 1e6
            ),
        );
        gate.check(
            "T3 host overhead ordering",
            p_one.host_overhead_ms() < p_three.host_overhead_ms()
                && p_three.host_overhead_ms() < p_dgl.host_overhead_ms(),
            format!(
                "{:.3} / {:.3} / {:.3} ms",
                p_one.host_overhead_ms(),
                p_three.host_overhead_ms(),
                p_dgl.host_overhead_ms()
            ),
        );
    }

    // --- Table 5: TLPGNN wins >= 80% of cells on a dataset sample ---
    {
        let mut wins = 0usize;
        let mut cells = 0usize;
        for abbr in ["CR", "PI", "OH", "RD"] {
            let spec = datasets::by_abbr(abbr).unwrap();
            let g = GATE.load(spec);
            let x = Matrix::random(g.num_vertices(), FEAT, 1.0, 4);
            for model in GnnModel::all_four(FEAT) {
                let tlp = GnnSystem::run(&mut GATE.system_for(spec), &model, &g, &x)
                    .unwrap()
                    .profile
                    .runtime_ms;
                let baselines: Vec<f64> = [
                    GnnSystem::run(&mut DglSystem::new(GATE.device_for(spec)), &model, &g, &x),
                    GnnSystem::run(
                        &mut FeatGraphSystem::new(GATE.device_for(spec)),
                        &model,
                        &g,
                        &x,
                    ),
                ]
                .into_iter()
                .flatten()
                .map(|r| r.profile.runtime_ms)
                .collect();
                let best = baselines.iter().cloned().fold(f64::INFINITY, f64::min);
                cells += 1;
                wins += (tlp < best) as usize;
            }
        }
        gate.check(
            "T5 wins >= 80% of cells",
            wins * 100 >= cells * 80,
            format!("{wins}/{cells}"),
        );
    }

    // --- Figure 9: occupancy ordering on an average of 3 datasets ---
    {
        let (mut occ_tlp, mut occ_fg) = (0.0, 0.0);
        for abbr in ["PD", "PI", "OH"] {
            let spec = datasets::by_abbr(abbr).unwrap();
            let g = GATE.load(spec);
            let x = Matrix::random(g.num_vertices(), FEAT, 1.0, 5);
            occ_tlp += GATE
                .engine_for(spec)
                .conv(&GnnModel::Gcn, &g, &x)
                .1
                .achieved_occupancy;
            occ_fg += GnnSystem::run(
                &mut FeatGraphSystem::new(GATE.device_for(spec)),
                &GnnModel::Gcn,
                &g,
                &x,
            )
            .unwrap()
            .profile
            .achieved_occupancy;
        }
        gate.check(
            "F9 occupancy ordering",
            occ_tlp > occ_fg,
            format!(
                "tlpgnn {:.1}% vs featgraph {:.1}%",
                occ_tlp / 3.0 * 100.0,
                occ_fg / 3.0 * 100.0
            ),
        );
    }

    // --- Figure 10: the full ladder is monotone on PI ---
    {
        let spec = datasets::by_abbr("PI").unwrap();
        let g = GATE.load(spec);
        let x = Matrix::random(g.num_vertices(), FEAT, 1.0, 6);
        let (_, p_edge) =
            EdgeCentricSystem::new(GATE.device_for(spec)).run(Aggregator::GcnSum, &g, &x);
        let mut e = GATE.engine_for(spec);
        let chosen = e.options.heuristic.choose(g.num_vertices(), g.avg_degree());
        let (_, p_tlp) = e.conv_tlp_only(&GnnModel::Gcn, &g, &x);
        let (_, p_hyb) = e.conv_with(&GnnModel::Gcn, &g, &x, chosen, false);
        let (_, p_cache) = e.conv_with(&GnnModel::Gcn, &g, &x, chosen, true);
        gate.check(
            "F10 ladder monotone",
            p_edge.gpu_time_ms > p_tlp.gpu_time_ms
                && p_tlp.gpu_time_ms > p_hyb.gpu_time_ms
                && p_hyb.gpu_time_ms > p_cache.gpu_time_ms,
            format!(
                "edge {:.3} > tlp {:.3} > hybrid {:.3} > cache {:.3}",
                p_edge.gpu_time_ms, p_tlp.gpu_time_ms, p_hyb.gpu_time_ms, p_cache.gpu_time_ms
            ),
        );
    }

    // --- Figure 11: thread scaling reaches >= 8x at 64 blocks ---
    {
        let spec = datasets::by_abbr("RD").unwrap();
        let g = spec.synthesize(spec.default_scale);
        let x = Matrix::random(g.num_vertices(), FEAT, 1.0, 7);
        let mut e = TlpgnnEngine::new(DeviceConfig::v100(), EngineOptions::default());
        let t1 = e
            .conv_with_grid(&GnnModel::Gcn, &g, &x, 1, 512)
            .1
            .gpu_time_ms;
        let t64 = e
            .conv_with_grid(&GnnModel::Gcn, &g, &x, 64, 512)
            .1
            .gpu_time_ms;
        gate.check(
            "F11 thread scaling",
            t1 / t64 >= 8.0,
            format!("1b {:.3} -> 64b {:.3} ms ({:.1}x)", t1, t64, t1 / t64),
        );
    }

    // --- Figure 12: feature scaling is roughly linear ---
    {
        let spec = datasets::by_abbr("CL").unwrap();
        let g = GATE.load(spec);
        let mut e = GATE.engine_for(spec);
        let x16 = Matrix::random(g.num_vertices(), 16, 1.0, 8);
        let x256 = Matrix::random(g.num_vertices(), 256, 1.0, 8);
        let t16 = e.conv(&GnnModel::Gcn, &g, &x16).1.gpu_time_ms;
        let t256 = e.conv(&GnnModel::Gcn, &g, &x256).1.gpu_time_ms;
        let ratio = t256 / t16;
        gate.check(
            "F12 feature scaling ~linear",
            (4.0..=16.0).contains(&ratio),
            format!("256/16 feature ratio costs {ratio:.1}x (16x size)"),
        );
    }

    println!(
        "\n{} checks, {} failures",
        gate.results.len(),
        gate.failures().count()
    );
    let dir = crate::results_dir();
    let path = dir.join("repro_gate.json");
    let write = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, gate.to_json().to_string()));
    match write {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    for f in gate.failures() {
        eprintln!("FAILED: {}: {}", f.name, f.detail);
    }
    if gate.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
