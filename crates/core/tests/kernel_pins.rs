//! Pinned modelled counters for the kernels outside `perf_gate`'s
//! {GCN, GIN, SAGE} matrix: GAT (single- and multi-head), the dense
//! layer, log-softmax, the edge-weighted aggregation, the design-space
//! variants and the heterogeneous kernels.
//!
//! One fixed fixture each, on the test device, with a 40-wide feature
//! dimension (a full lane tile plus a partial one). How the simulator
//! *executes* a request may change for host speed; what it *models* may
//! not — these values were recorded before the feature-parallel kernels
//! moved onto `ld_run`/`st_run` and hold unchanged after. A deliberate
//! cost-model change must re-pin them in the same commit.

use gpu_sim::{Device, DeviceConfig, KernelProfile, OpProfile};
use tlpgnn::hetero::{HeteroEngine, HeteroGraph};
use tlpgnn::kernels::dense::{dense_forward_on_device, log_softmax_on_device};
use tlpgnn::kernels::gat::{
    FusedGatKernel, FusedMultiHeadGatKernel, MultiHeadGatParams, MultiHeadScoresOnDevice,
};
use tlpgnn::kernels::weighted::WeightedAggKernel;
use tlpgnn::{
    Aggregator, Assignment, GatParams, GatScoresOnDevice, GraphOnDevice, KernelVariant, WorkSource,
};
use tlpgnn_graph::{generators, Csr};
use tlpgnn_tensor::{Linear, Matrix};

const N: usize = 160;
const F: usize = 40;

fn fixture() -> (Csr, Matrix) {
    (
        generators::rmat_default(N, 1200, 901),
        Matrix::random(N, F, 1.0, 902),
    )
}

/// FNV-1a over the `Debug` form: one word that moves if any of the 13
/// hardware counters (stall cycles, per-level hits/misses/evictions, row
/// locality) does.
fn fingerprint(dbg: &impl std::fmt::Debug) -> u64 {
    format!("{dbg:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
}

/// `gpu_cycles insts mem_requests load_bytes dram_load_bytes store_bytes
/// l1_hit_sectors l2_hit_sectors hw` (every fixture runs on the test
/// device, whose barrier cost prices `stall_sync_cycles`).
fn pin(p: &KernelProfile) -> String {
    format!(
        "{} {} {} {} {} {} {} {} {:016x}",
        p.gpu_cycles,
        p.insts,
        p.mem_requests,
        p.load_bytes,
        p.dram_load_bytes,
        p.store_bytes,
        p.accounting.warps.l1_hit_sectors,
        p.accounting.warps.l2_hit_sectors,
        fingerprint(
            &p.accounting
                .hw(&DeviceConfig::test_small())
                .scalar_counters()
        )
    )
}

/// `launches gpu_time_ms insts load_bytes store_bytes
/// stall_long_scoreboard sectors_per_request` of a multi-launch op.
fn pin_op(op: &OpProfile) -> String {
    format!(
        "{} {} {} {} {} {} {}",
        op.kernel_launches,
        op.gpu_time_ms,
        op.insts,
        op.load_bytes,
        op.store_bytes,
        op.stall_long_scoreboard,
        op.sectors_per_request
    )
}

fn run_gat(reg_cache: bool) -> String {
    let (g, x) = fixture();
    let mut dev = Device::new(DeviceConfig::test_small());
    let gd = GraphOnDevice::upload(&mut dev, &g, &x);
    let scores = GatScoresOnDevice::upload(&mut dev, &x, &GatParams::random(F, 903));
    let k = FusedGatKernel::new(gd, scores, WorkSource::Hardware, reg_cache);
    let lc = Assignment::hardware().launch_config(gd.n, dev.cfg(), FusedGatKernel::regs(reg_cache));
    pin(&dev.launch(&k, lc))
}

#[test]
fn fused_gat_is_pinned() {
    assert_eq!(
        [run_gat(true), run_gat(false)],
        [
            "10685 21835 7467 158176 27520 25600 5158 4083 4da2d1fcc368c852",
            "19404 27981 11857 300320 27520 166080 7740 8525 8409e84d86f6874f"
        ]
    );
}

#[test]
fn multi_head_gat_is_pinned() {
    let (g, x) = fixture();
    // Isolated vertices take the zero-fill store path.
    assert!((0..N).any(|v| g.degree(v) == 0));
    let heads = 2;
    let mut dev = Device::new(DeviceConfig::test_small());
    let gd = GraphOnDevice::upload(&mut dev, &g, &x);
    let output = dev.mem_mut().alloc::<f32>(N * heads * F);
    let scores =
        MultiHeadScoresOnDevice::upload(&mut dev, &x, &MultiHeadGatParams::random(F, heads, 904));
    let k = FusedMultiHeadGatKernel { gd, output, scores };
    let lc = Assignment::hardware().launch_config(gd.n, dev.cfg(), 64);
    assert_eq!(
        pin(&dev.launch(&k, lc)),
        "16869 43350 14614 284096 29280 51200 11004 7963 4183c6a559fa512e"
    );
}

#[test]
fn dense_layer_and_log_softmax_are_pinned() {
    let x = Matrix::random(N, 24, 1.0, 905);
    let mut dev = Device::new(DeviceConfig::test_small());
    let (y, dense) = dense_forward_on_device(&mut dev, &Linear::new(24, F, true, 906), &x, true);
    let (_, log_softmax) = log_softmax_on_device(&mut dev, &y);
    assert_eq!(
        [pin(&dense), pin(&log_softmax)],
        [
            "23640 31360 15360 634880 19200 25600 7040 19240 ff258d85a4e056eb",
            "5160 8960 960 25600 25600 25600 1600 0 eaa40aab801d2405"
        ]
    );
}

fn run_weighted(reg_cache: bool) -> String {
    let (g, x) = fixture();
    let weights = Matrix::random(1, g.num_edges(), 1.0, 907).into_vec();
    let mut dev = Device::new(DeviceConfig::test_small());
    let mem = dev.mem_mut();
    let k = WeightedAggKernel {
        indptr: mem.alloc_from(g.indptr()),
        indices: mem.alloc_from(g.indices()),
        values: mem.alloc_from(&weights),
        x: mem.alloc_from(x.data()),
        out: mem.alloc::<f32>(N * F),
        n: N,
        f: F,
        work: WorkSource::Hardware,
        reg_cache,
    };
    let lc = Assignment::hardware().launch_config(N, dev.cfg(), WeightedAggKernel::regs(reg_cache));
    pin(&dev.launch(&k, lc))
}

#[test]
fn weighted_aggregation_is_pinned() {
    assert_eq!(
        [run_weighted(true), run_weighted(false)],
        [
            "10624 9420 5588 139232 29792 25600 3871 3420 7e91f6e39fd44c5d",
            "18656 14688 9100 280928 29792 166080 5589 7848 df770c936183148f"
        ]
    );
}

#[test]
fn design_space_variants_are_pinned() {
    let (g, x) = fixture();
    let got: Vec<(String, String)> = KernelVariant::all()
        .into_iter()
        .map(|variant| {
            let mut dev = Device::new(DeviceConfig::test_small());
            let (_, p) = variant.run(&mut dev, &g, &x, Aggregator::GcnSum);
            (variant.label(), pin(&p))
        })
        .collect();
    let want = [
        (
            "thread_per_vertex",
            "59847 19769 6809 165696 30432 204800 31432 4227 ef58982efdcf5544",
        ),
        (
            "sub_warp_8",
            "11676 8693 3603 163488 30432 25600 1519 4158 845c4516779f1835",
        ),
        (
            "sub_warp_16",
            "10748 8154 3750 172608 30432 25600 1605 4443 ab83f2fb0cce3ddd",
        ),
        (
            "cta_per_vertex",
            "43586 15820 7508 183488 30432 25600 4888 4783 4335fe5d9d5ab568",
        ),
        (
            "edge_parallel_second",
            "24578 67734 6134 294528 30432 25600 27989 8253 b6465145ed503759",
        ),
    ];
    let got: Vec<(&str, &str)> = got.iter().map(|(l, p)| (l.as_str(), p.as_str())).collect();
    assert_eq!(got, want);
}

#[test]
fn hetero_kernels_are_pinned() {
    let x = Matrix::random(N, F, 1.0, 908);
    let mut hg = HeteroGraph::new(N);
    hg.add_relation("cites", generators::rmat_default(N, 900, 909));
    hg.add_relation("writes", generators::erdos_renyi(N, 500, 910));
    let mut engine = HeteroEngine::new(DeviceConfig::test_small());
    let fused = pin_op(&engine.conv_fused(&hg, &x).1);
    let per_relation = pin_op(&engine.conv_per_relation(&hg, &x).1);
    assert_eq!(
        [fused, per_relation],
        [
            "1 0.008434782608695651 11544 215232 25600 70.62179487179488 1.6377105427323768",
            "3 0.015472463768115941 11960 251040 69440 89.26776534122264 2.3735825461377527"
        ]
    );
}
