//! With collection on, every launch publishes its 13 hardware counters as
//! `kernel.<name>.hw.<counter>` — the names dashboards and
//! `telemetry-diff` address them by. The collector must receive exactly
//! those, one per `scalar_counters()` entry, with the launch's values.
//! The counter names and their order are pinned as keys of the pins
//! record (`crates/bench/tests/golden/pins.txt`).
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
        "probe_hw"
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
fn collector_receives_every_hw_counter() {
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

    let expected: BTreeMap<String, u64> = p
        .accounting
        .hw(&cfg)
        .scalar_counters()
        .iter()
        .map(|&(counter, v)| (format!("kernel.{}.hw.{counter}", p.name), v))
        .collect();
    let snap = telemetry::collector().metrics().snapshot();
    let published: BTreeMap<String, u64> = snap
        .counters
        .iter()
        .filter(|(k, _)| k.contains(".hw."))
        .map(|(k, &v)| (k.clone(), v))
        .collect();
    assert_eq!(published, expected);
}
