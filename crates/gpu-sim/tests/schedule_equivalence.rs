//! A launch priced inline and the same launch whose requests are logged
//! and replayed must leave the same bits behind: outputs, every field of
//! the `KernelProfile` and its `Accounting`, for every kernel family the
//! workspace launches. The launches are large enough that the replayed
//! log wraps its ring of chunks many times over.
//!
//! `Schedule` is the launcher's test seam, not an option: `Inline` prices
//! every request as it is issued, `Pipelined` logs every request from the
//! first warp on and replays it on a pool helper (or on the caller, when
//! the pool is busy — both paths are covered as the tests of this file
//! run concurrently).

use std::fmt::Debug;

use gpu_sim::{with_schedule, Device, DeviceConfig, LaunchConfig, Schedule, LOG_WORDS};
use tlpgnn::kernels::fused::FusedConvKernel;
use tlpgnn::kernels::gat::FusedGatKernel;
use tlpgnn::{
    Aggregator, Assignment, GatParams, GatScoresOnDevice, GnnModel, GraphOnDevice, KernelVariant,
    WorkSource,
};
use tlpgnn_baselines::push::PushConvKernel;
use tlpgnn_baselines::DglSystem;
use tlpgnn_graph::{generators, Csr};
use tlpgnn_tensor::Matrix;

const N: usize = 3000;
const F: usize = 40;

fn fixture() -> (Csr, Matrix) {
    (
        generators::rmat_default(N, 30_000, 1701),
        Matrix::random(N, F, 1.0, 1702),
    )
}

/// The output's bit patterns and the profile's `Debug` form (shortest
/// round-trip floats: two values print alike only if their bits agree).
fn observed(out: &Matrix, profile: &impl Debug) -> (Vec<u32>, String) {
    (
        out.data().iter().map(|v| v.to_bits()).collect(),
        format!("{profile:?}"),
    )
}

/// Run `launch` under both schedules and demand the same bits.
fn same_bits<T: PartialEq + Debug>(what: &str, launch: impl Fn() -> T) {
    let inline = with_schedule(Schedule::Inline, &launch);
    let replayed = with_schedule(Schedule::Pipelined, &launch);
    assert!(inline == replayed, "{what}: the replayed launch differs");
}

fn fused_sum(work: &str, reg_cache: bool) -> (Vec<u32>, String) {
    let (g, x) = fixture();
    let mut dev = Device::new(DeviceConfig::test_small());
    let gd = GraphOnDevice::upload(&mut dev, &g, &x);
    let regs = FusedConvKernel::regs(reg_cache);
    let (lc, work) = match work {
        "hardware" => (
            Assignment::hardware().launch_config(gd.n, dev.cfg(), regs),
            WorkSource::Hardware,
        ),
        _ => {
            let lc = Assignment::software().launch_config(gd.n, dev.cfg(), regs);
            let cursor = dev.mem_mut().alloc::<u32>(1);
            let work = WorkSource::Software {
                cursor,
                step: 8,
                total_warps: lc.total_warps(),
            };
            (lc, work)
        }
    };
    let k = FusedConvKernel::new(gd, Aggregator::GcnSum, work, reg_cache);
    let p = dev.launch(&k, lc);
    observed(&gd.read_output(&dev), &p)
}

#[test]
fn fused_sum_family() {
    for work in ["hardware", "software"] {
        for reg_cache in [true, false] {
            same_bits(&format!("fused gcn, {work}, reg_cache {reg_cache}"), || {
                fused_sum(work, reg_cache)
            });
        }
    }
}

#[test]
fn fused_gat() {
    for reg_cache in [true, false] {
        same_bits(&format!("fused gat, reg_cache {reg_cache}"), || {
            let (g, x) = fixture();
            let mut dev = Device::new(DeviceConfig::test_small());
            let gd = GraphOnDevice::upload(&mut dev, &g, &x);
            let scores = GatScoresOnDevice::upload(&mut dev, &x, &GatParams::random(F, 1703));
            let k = FusedGatKernel::new(gd, scores, WorkSource::Hardware, reg_cache);
            let lc = Assignment::hardware().launch_config(
                gd.n,
                dev.cfg(),
                FusedGatKernel::regs(reg_cache),
            );
            let p = dev.launch(&k, lc);
            observed(&gd.read_output(&dev), &p)
        });
    }
}

/// The sub-warp packed kernel and the thread-per-vertex, CTA-per-vertex
/// and edge-parallel variants.
#[test]
fn design_space_variants() {
    for variant in KernelVariant::all() {
        same_bits(&variant.label(), || {
            let (g, x) = fixture();
            let mut dev = Device::new(DeviceConfig::test_small());
            let (out, p) = variant.run(&mut dev, &g, &x, Aggregator::GcnSum);
            observed(&out, &p)
        });
    }
}

/// Atomics: every edge is an `atomicAdd` into the destination row.
#[test]
fn push_baseline() {
    same_bits("push", || {
        let (g, x) = fixture();
        let rev = g.reverse();
        let agg = Aggregator::GcnSum;
        let mut dev = Device::new(DeviceConfig::test_small());
        let mem = dev.mem_mut();
        let degs: Vec<u32> = (0..N).map(|v| g.degree(v) as u32).collect();
        let k = PushConvKernel {
            out_indptr: mem.alloc_from(rev.indptr()),
            out_indices: mem.alloc_from(rev.indices()),
            features: mem.alloc_from(x.data()),
            output: mem.alloc::<f32>(N * F),
            norm: mem.alloc_from(&tlpgnn::oracle::gcn_norm(&g)),
            degree: mem.alloc_from(&degs),
            self_w: mem.alloc_from(&tlpgnn_baselines::common::self_weights(&g, agg)),
            agg,
            n: N,
            f: F,
        };
        let p = dev.launch(&k, LaunchConfig::warp_per_item(N, 256));
        let out = Matrix::from_vec(N, F, dev.mem().read_vec(k.output));
        observed(&out, &p)
    });
}

/// DGL's eighteen-launch GAT: the system owns its device, so the launches
/// are compared through the op profile they fold into.
#[test]
fn dgl_multi_kernel_gat() {
    same_bits("dgl gat", || {
        let (g, x) = fixture();
        let gat = GnnModel::Gat {
            params: GatParams::random(F, 1704),
        };
        let (out, op) = DglSystem::new(DeviceConfig::test_small()).run(&gat, &g, &x);
        observed(&out, &op)
    });
}

#[test]
fn launches_outgrow_the_log() {
    // The fixture's fused GCN alone issues several times the log's
    // capacity, so every test above replays through a wrapped ring.
    let p = with_schedule(Schedule::Inline, || {
        let (g, x) = fixture();
        let mut dev = Device::new(DeviceConfig::test_small());
        let gd = GraphOnDevice::upload(&mut dev, &g, &x);
        let k = FusedConvKernel::new(gd, Aggregator::GcnSum, WorkSource::Hardware, true);
        dev.launch(
            &k,
            Assignment::hardware().launch_config(gd.n, dev.cfg(), FusedConvKernel::regs(true)),
        )
    });
    assert!(p.mem_requests as usize > 2 * LOG_WORDS);
}
