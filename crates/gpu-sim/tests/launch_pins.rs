//! Launch-level pins of the memory-hierarchy model.
//!
//! The cache model and the warp request path may be rewritten for host
//! speed, but never for different answers: these three fixed launches
//! cover the coalesced load path, the uncoalesced path with real L1/L2
//! eviction pressure, and the atomic path (`invalidate` + L2 probe — the
//! one the baseline systems lean on), and their modelled numbers are
//! pinned to the values the stamp/clock, 64-mutex-shard model produced.
//! A deliberate cost-model change must re-pin them in the same commit.

use gpu_sim::{Device, DeviceBuffer, DeviceConfig, Kernel, KernelProfile, LaunchConfig, WarpCtx};

/// `(gpu_cycles, l1_hit_sectors, l2_hit_sectors, dram_sectors,
/// l1_evictions, atomic_sectors)` of one launch.
type Pin = (f64, u64, u64, u64, u64, u64);

fn pin(p: &KernelProfile) -> Pin {
    (
        p.gpu_cycles,
        p.accounting.warps.l1_hit_sectors,
        p.accounting.warps.l2_hit_sectors,
        p.accounting.warps.dram_sectors,
        p.accounting.l1_evictions,
        p.accounting.warps.atomic_sectors,
    )
}

/// `dst[i] = src[index(i)]`, `passes` times over, one warp per 32 outputs.
struct Gather {
    src: DeviceBuffer<f32>,
    dst: DeviceBuffer<f32>,
    n: usize,
    stride: usize,
    passes: usize,
}

impl Kernel for Gather {
    fn name(&self) -> &str {
        "pin_gather"
    }
    fn run_warp(&self, w: &mut WarpCtx<'_>) {
        let base = w.global_warp() * 32;
        let (n, stride, len) = (self.n, self.stride, self.src.len());
        for pass in 0..self.passes {
            let vals = w.ld(self.src, |l| {
                (base + l < n).then(|| ((base + l) * stride + pass * 8) % len)
            });
            w.issue(1);
            w.st(self.dst, |l| (base + l < n).then(|| (base + l, vals[l])));
        }
    }
}

fn run_gather(stride: usize) -> Pin {
    let mut dev = Device::new(DeviceConfig::test_small());
    // 256 KiB of source: four times the test device's L2.
    let src_len = 64 * 1024;
    let n = 16 * 1024;
    let data: Vec<f32> = (0..src_len).map(|i| i as f32).collect();
    let src = dev.mem_mut().alloc_from(&data);
    let dst = dev.mem_mut().alloc::<f32>(n);
    let k = Gather {
        src,
        dst,
        n,
        stride,
        passes: 3,
    };
    let lc = LaunchConfig::warp_per_item(n / 32, 128);
    dev.launch(&k, lc);
    // The second launch starts from the first one's L2 contents.
    let p = dev.launch(&k, lc);
    let out = dev.mem().read_vec(dst);
    assert!(out
        .iter()
        .enumerate()
        .all(|(i, &v)| v == ((i * stride + 2 * 8) % src_len) as f32));
    pin(&p)
}

/// Every warp reads a window of `acc`, scatters atomic adds over it and
/// reads it back: loads fill the L1, atomics invalidate it.
struct AtomicScatter {
    acc: DeviceBuffer<f32>,
}

impl Kernel for AtomicScatter {
    fn name(&self) -> &str {
        "pin_atomic_scatter"
    }
    fn run_warp(&self, w: &mut WarpCtx<'_>) {
        let wid = w.global_warp();
        let slots = self.acc.len();
        let _ = w.ld(self.acc, |l| Some((wid * 8 + l) % slots));
        w.atomic_add_f32(self.acc, |l| Some(((wid * 8 + l * 5) % slots, 1.0)));
        w.atomic_add_f32(self.acc, |l| Some(((wid + l / 4) % slots, 0.5)));
        let _ = w.ld(self.acc, |l| Some((wid * 8 + l * 5) % slots));
    }
}

fn run_atomic_scatter() -> Pin {
    let mut dev = Device::new(DeviceConfig::test_small());
    let slots = 24 * 1024;
    let acc = dev.mem_mut().alloc::<f32>(slots);
    let warps = 2048;
    let p = dev.launch(
        &AtomicScatter { acc },
        LaunchConfig::warp_per_item(warps, 256),
    );
    let total: f32 = dev.mem().read_vec(acc).iter().sum();
    assert_eq!(total, (warps * 32) as f32 * 1.5);
    pin(&p)
}

#[test]
fn coalesced_gather_is_pinned() {
    assert_eq!(run_gather(1), (27648.0, 3840, 64, 2240, 2048, 0));
}

#[test]
fn strided_gather_is_pinned() {
    assert_eq!(run_gather(9), (43904.0, 30592, 72, 18488, 18304, 0));
}

#[test]
fn atomic_scatter_is_pinned() {
    assert_eq!(
        run_atomic_scatter(),
        (259584.0, 7168, 41728, 256, 6649, 44800)
    );
}
