//! Property-based tests of the simulator's core mechanics: coalescing
//! accounting, cache behaviour, memory correctness of overlapping atomics,
//! and determinism of launches.

use gpu_sim::{Device, DeviceBuffer, DeviceConfig, Kernel, LaunchConfig, WarpCtx};
use proptest::prelude::*;

/// Kernel that copies `src[perm[i]]` into `dst[i]` using a supplied
/// per-lane index pattern — lets the tests drive arbitrary access shapes.
struct GatherCopy {
    src: DeviceBuffer<f32>,
    dst: DeviceBuffer<f32>,
    pattern: Vec<u32>,
}

impl Kernel for GatherCopy {
    fn name(&self) -> &str {
        "gather_copy"
    }
    fn run_warp(&self, w: &mut WarpCtx<'_>) {
        let base = w.global_warp() * 32;
        let n = self.pattern.len();
        let pat = &self.pattern;
        let vals = w.ld(self.src, |l| (base + l < n).then(|| pat[base + l] as usize));
        w.issue(1);
        w.st(self.dst, |l| (base + l < n).then(|| (base + l, vals[l])));
    }
}

fn run_gather(pattern: Vec<u32>, src_len: usize) -> (Vec<f32>, gpu_sim::KernelProfile) {
    let mut dev = Device::new(DeviceConfig::test_small());
    let data: Vec<f32> = (0..src_len).map(|i| i as f32).collect();
    let src = dev.mem_mut().alloc_from(&data);
    let dst = dev.mem_mut().alloc::<f32>(pattern.len().max(1));
    let n = pattern.len();
    let k = GatherCopy { src, dst, pattern };
    let p = dev.launch(&k, LaunchConfig::warp_per_item(n.div_ceil(32).max(1), 128));
    (dev.mem().read_vec(dst), p)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Functional correctness of arbitrary gathers, and the universal
    /// sector bound 1 <= sectors/request <= 32.
    #[test]
    fn gather_is_correct_and_sector_bounded(
        pattern in proptest::collection::vec(0u32..512, 1..300)
    ) {
        let (out, p) = run_gather(pattern.clone(), 512);
        for (i, &idx) in pattern.iter().enumerate() {
            prop_assert_eq!(out[i], idx as f32);
        }
        prop_assert!(p.sectors_per_request >= 1.0 - 1e-9);
        prop_assert!(p.sectors_per_request <= 32.0 + 1e-9);
        prop_assert!(p.sm_utilization >= 0.0 && p.sm_utilization <= 1.0);
        prop_assert!(p.achieved_occupancy >= 0.0 && p.achieved_occupancy <= 1.0);
    }

    /// A contiguous pattern coalesces to <= 4 sectors higher than the
    /// stride-8 (one-lane-per-sector) version of the same length.
    #[test]
    fn contiguous_never_worse_than_strided(start in 0u32..64, len in 32usize..128) {
        let contiguous: Vec<u32> = (0..len as u32).map(|i| start + i).collect();
        let strided: Vec<u32> = (0..len as u32).map(|i| (start + i * 8) % 4096).collect();
        let (_, pc) = run_gather(contiguous, 8192);
        let (_, ps) = run_gather(strided, 8192);
        prop_assert!(pc.sectors_per_request <= ps.sectors_per_request + 1e-9);
    }

    /// Launch profiles are fully deterministic.
    #[test]
    fn launch_is_deterministic(pattern in proptest::collection::vec(0u32..256, 32..200)) {
        let (o1, p1) = run_gather(pattern.clone(), 256);
        let (o2, p2) = run_gather(pattern, 256);
        prop_assert_eq!(o1, o2);
        prop_assert_eq!(p1.gpu_cycles, p2.gpu_cycles);
        prop_assert_eq!(p1.load_bytes, p2.load_bytes);
        prop_assert_eq!(p1.l1_hit_rate, p2.l1_hit_rate);
    }

    /// Traffic accounting: bytes served below L1 >= bytes served by DRAM,
    /// and total sectors touched >= below-L1 sectors.
    #[test]
    fn traffic_accounting_consistent(pattern in proptest::collection::vec(0u32..2048, 32..300)) {
        let (_, p) = run_gather(pattern, 2048);
        prop_assert!(p.load_bytes >= p.dram_load_bytes);
        prop_assert!(p.mem_requests > 0);
        let touched = (p.sectors_per_request * p.mem_requests as f64) * 32.0;
        prop_assert!(touched + 1e-6 >= p.load_bytes as f64);
    }
}

/// Atomic correctness through a whole launch: many warps (and lanes of
/// one warp) incrementing overlapping counters must lose no updates.
#[test]
fn concurrent_atomics_lose_no_updates() {
    struct AtomicScatter {
        counters: DeviceBuffer<f32>,
        slots: usize,
    }
    impl Kernel for AtomicScatter {
        fn name(&self) -> &str {
            "atomic_scatter"
        }
        fn run_warp(&self, w: &mut WarpCtx<'_>) {
            let wid = w.global_warp();
            let slots = self.slots;
            w.atomic_add_f32(self.counters, |l| Some(((wid + l) % slots, 1.0)));
        }
    }
    let mut dev = Device::new(DeviceConfig::test_small());
    let slots = 17;
    let counters = dev.mem_mut().alloc::<f32>(slots);
    let warps = 1000;
    dev.launch(
        &AtomicScatter { counters, slots },
        LaunchConfig::warp_per_item(warps, 256),
    );
    let total: f32 = dev.mem().read_vec(counters).iter().sum();
    assert_eq!(total, (warps * 32) as f32);
}

/// L2 persists across launches within one device: the second identical
/// launch must see a better hit rate.
#[test]
fn l2_warm_across_launches() {
    let mut dev = Device::new(DeviceConfig::test_small());
    let data: Vec<f32> = (0..4096).map(|i| i as f32).collect();
    let src = dev.mem_mut().alloc_from(&data);
    let dst = dev.mem_mut().alloc::<f32>(4096);
    let pattern: Vec<u32> = (0..4096).collect();
    let k = GatherCopy { src, dst, pattern };
    let lc = LaunchConfig::warp_per_item(128, 128);
    let cold = dev.launch(&k, lc);
    let warm = dev.launch(&k, lc);
    assert!(warm.dram_load_bytes < cold.dram_load_bytes);
    assert!(warm.l2_hit_rate > cold.l2_hit_rate);
    // And flushing restores the cold behaviour.
    dev.flush_l2();
    let reflushed = dev.launch(&k, lc);
    assert!(reflushed.dram_load_bytes > warm.dram_load_bytes);
}
