//! The pipelined launch path can neither deadlock nor grow: a large
//! launch from inside a pool job stays inline, two devices launching at
//! once from two threads both finish with the serial answer, and the
//! request log of a full-size GAT launch never holds more than its fixed
//! ring of chunks.
//!
//! These launches run under the default schedule (inline up to the size
//! rule, then pipelined if the pool has a free helper); the counter
//! `sim.launch.pipelined` tells which way a launch went, so the tests of
//! this file take turns.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Mutex;

use gpu_sim::{
    log_high_water_words, with_schedule, Device, DeviceBuffer, DeviceConfig, Kernel, KernelProfile,
    LaunchConfig, Schedule, WarpCtx, LOG_WORDS,
};
use tlpgnn::kernels::fused::FusedConvKernel;
use tlpgnn::kernels::gat::FusedGatKernel;
use tlpgnn::{Aggregator, Assignment, GatParams, GatScoresOnDevice, GraphOnDevice, WorkSource};
use tlpgnn_graph::{generators, Csr};
use tlpgnn_tensor::{pool, Matrix};

static TURN: Mutex<()> = Mutex::new(());

fn pipelined_launches() -> u64 {
    telemetry::collector()
        .metrics()
        .snapshot()
        .counters
        .get("sim.launch.pipelined")
        .copied()
        .unwrap_or(0)
}

/// A fused GCN over 20k vertices: about 1.7 M requests, past the size
/// rule.
fn large_gcn() -> (Vec<u32>, String) {
    let g = generators::rmat_default(20_000, 200_000, 1801);
    let x = Matrix::random(20_000, 40, 1.0, 1802);
    let mut dev = Device::new(DeviceConfig::test_small());
    let gd = GraphOnDevice::upload(&mut dev, &g, &x);
    let k = FusedConvKernel::new(gd, Aggregator::GcnSum, WorkSource::Hardware, true);
    let lc = Assignment::hardware().launch_config(gd.n, dev.cfg(), FusedConvKernel::regs(true));
    let p = dev.launch(&k, lc);
    assert!(p.mem_requests > 1 << 20, "{} requests", p.mem_requests);
    let out = gd.read_output(&dev);
    (
        out.data().iter().map(|v| v.to_bits()).collect(),
        format!("{p:?}"),
    )
}

#[test]
fn a_large_launch_inside_a_pool_job_completes_inline() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::set_enabled(true);
    let serial = with_schedule(Schedule::Inline, large_gcn);
    let before = pipelined_launches();
    let nested = Mutex::new(None);
    // Two chunks, so the job is posted to the pool (with one it would
    // run on the caller without taking the pool at all).
    pool::for_each_chunk(2, 1, 0, |r| {
        // The pool is taken by the job this body runs in: no helper.
        assert!(pool::reserve().is_none());
        if r.start == 0 {
            *nested.lock().unwrap() = Some(large_gcn());
        }
    });
    assert_eq!(
        pipelined_launches(),
        before,
        "the nested launch stayed inline"
    );
    assert!(nested.into_inner().unwrap() == Some(serial));
}

#[test]
fn two_devices_launching_at_once_both_finish() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::set_enabled(true);
    let serial = with_schedule(Schedule::Inline, large_gcn);
    let before = pipelined_launches();
    // The sharded façade's shape: one device per thread, launching
    // concurrently. Whoever finds the pool busy stays inline.
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(large_gcn);
        let b = s.spawn(large_gcn);
        (a.join().unwrap(), b.join().unwrap())
    });
    assert!(a == serial && b == serial);
    if pool::participants(0) > 1 {
        assert!(
            pipelined_launches() > before,
            "at least one launch pipelined"
        );
    }
}

/// The benchmark's GAT launch: 50k vertices, 1M R-MAT edges, 32
/// features on the V100 — about 4.7 M requests.
fn full_size_gat() -> KernelProfile {
    let g: Csr = generators::rmat_default(50_000, 1_000_000, 1803);
    let x = Matrix::random(50_000, 32, 1.0, 1804);
    let mut dev = Device::v100();
    let gd = GraphOnDevice::upload(&mut dev, &g, &x);
    let scores = GatScoresOnDevice::upload(&mut dev, &x, &GatParams::random(32, 1805));
    let k = FusedGatKernel::new(gd, scores, WorkSource::Hardware, true);
    let lc = Assignment::hardware().launch_config(gd.n, dev.cfg(), FusedGatKernel::regs(true));
    dev.launch(&k, lc)
}

#[test]
fn the_log_of_a_full_size_gat_launch_stays_within_its_ring() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let p = with_schedule(Schedule::Pipelined, full_size_gat);
    assert!(p.mem_requests > 4_500_000, "{} requests", p.mem_requests);
    assert_eq!(log_high_water_words(), LOG_WORDS);
}

/// Streams its buffer, then fails in a late warp: the log holds chunks
/// in flight when the launch unwinds.
struct FailsLate {
    x: DeviceBuffer<f32>,
}

impl Kernel for FailsLate {
    fn name(&self) -> &str {
        "fails_late"
    }
    fn run_warp(&self, w: &mut WarpCtx<'_>) {
        assert!(w.global_warp() < 3_000, "warp {} fails", w.global_warp());
        for i in 0..64 {
            let _ = w.ld_run(self.x, (w.global_warp() * 64 + i) % 4_000 * 32, 32);
        }
    }
}

#[test]
fn a_panicking_pipelined_launch_unwinds_and_frees_the_pool() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let mut dev = Device::new(DeviceConfig::test_small());
    let x = dev.mem_mut().alloc::<f32>(4_000 * 32);
    let caught = panic::catch_unwind(AssertUnwindSafe(|| {
        with_schedule(Schedule::Pipelined, || {
            dev.launch(&FailsLate { x }, LaunchConfig::warp_per_item(4_000, 32))
        })
    }));
    let payload = caught.expect_err("the kernel's panic reaches the caller");
    assert_eq!(
        payload.downcast_ref::<String>().map(String::as_str),
        Some("warp 3000 fails")
    );
    // The pool came back: a second reservation is granted once nothing
    // else holds it.
    if pool::participants(0) > 1 {
        assert!(pool::reserve().is_some());
    }
}
