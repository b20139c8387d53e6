//! Golden-file pin of the hardware-counter telemetry names.
//!
//! With collection on, every launch publishes its 13 hardware counters as
//! `kernel.<name>.hw.<counter>` — the names dashboards and
//! `telemetry-diff` address them by. The names, in the order the launcher
//! emits them, are pinned against `tests/golden/hw_counter_names.txt`
//! (recorded before the counters became a view of the launch ledger). A
//! deliberate rename must update the golden file in the same commit.
//!
//! The collector is process-global, so this test has a binary of its own.

use std::collections::BTreeMap;

use gpu_sim::{Device, DeviceBuffer, DeviceConfig, Kernel, LaunchConfig, WarpCtx};

/// A load, a store, a barrier and an atomic per warp: every counter class.
struct Probe {
    src: DeviceBuffer<f32>,
    dst: DeviceBuffer<f32>,
}

impl Kernel for Probe {
    fn name(&self) -> &str {
        "golden_hw"
    }
    fn run_warp(&self, w: &mut WarpCtx<'_>) {
        let base = w.global_warp() * 32;
        let vals = w.ld_run(self.src, base, 32);
        w.sync_threads();
        w.st_run(self.dst, base, 32, &vals);
        w.atomic_add_f32(self.dst, |l| Some((l, 1.0)));
    }
}

#[test]
fn hw_counter_names_match_golden_file() {
    let want: Vec<&str> = include_str!("golden/hw_counter_names.txt")
        .lines()
        .filter(|l| !l.trim().is_empty())
        .collect();
    let cfg = DeviceConfig::test_small();
    let mut dev = Device::new(cfg.clone());
    let n = 512;
    let src = dev.mem_mut().alloc_from(&vec![1.0f32; n]);
    let dst = dev.mem_mut().alloc::<f32>(n);
    telemetry::reset();
    telemetry::set_enabled(true);
    let p = dev.launch(
        &Probe { src, dst },
        LaunchConfig::warp_per_item(n / 32, 128),
    );
    telemetry::set_enabled(false);

    // The launcher publishes `scalar_counters` in order.
    let hw = p.accounting.hw(&cfg).scalar_counters();
    let emitted: Vec<String> = hw
        .iter()
        .map(|(counter, _)| format!("kernel.{}.hw.{counter}", p.name))
        .collect();
    assert_eq!(
        emitted, want,
        "hw counter telemetry names drifted from tests/golden/hw_counter_names.txt"
    );
    // ...and those are exactly the counters the collector received.
    let snap = telemetry::collector().metrics().snapshot();
    let published: BTreeMap<&str, u64> = snap
        .counters
        .iter()
        .filter(|(k, _)| k.contains(".hw."))
        .map(|(k, &v)| (k.as_str(), v))
        .collect();
    let expected: BTreeMap<&str, u64> = want.iter().copied().zip(hw.map(|(_, v)| v)).collect();
    assert_eq!(published, expected);
}
