//! Roofline attribution: place every workload on the device's roofline
//! (arithmetic intensity vs. achieved throughput), classify it as
//! compute-, bandwidth-, or latency-bound, and cross-check that
//! classification against the limiter stored on the profile.
//!
//! The classification is *recomputed* from the profile's launch ledger
//! under the suite's device config, through the one cost function the
//! launcher itself used (`gpu_sim::Accounting::critical_sm`), rather than
//! read back from the stored limiter. The two readings must agree on
//! every workload; a disagreement means a profile was priced under a
//! different device than the one it is classified on, and the
//! `perf_gate` bin (and CI) treat it as a gated error, not a warning.
//! `perf_gate` writes the full suite's report to `results/roofline.json`;
//! the smoke suite's is pinned, field by field, in the pins record
//! (`crates/bench/tests/golden/pins.txt`).

use gpu_sim::{DeviceConfig, KernelProfile, WARP_SIZE};
use telemetry::json::Value;

/// Roofline report schema identifier; bump on any layout change.
const ROOFLINE_SCHEMA: &str = "tlpgnn.roofline.v1";

/// Which roof a workload sits under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BoundClass {
    /// Issue-throughput bound: the compute roof caps it.
    Compute,
    /// Memory-bandwidth bound: the slanted bandwidth roof caps it.
    Bandwidth,
    /// Bound by neither roof: unhidden latency, a critical warp, or
    /// block-scheduling overhead dominates.
    Latency,
}

impl BoundClass {
    /// Stable label used in `roofline.json`.
    fn label(&self) -> &'static str {
        match self {
            BoundClass::Compute => "compute",
            BoundClass::Bandwidth => "bandwidth",
            BoundClass::Latency => "latency",
        }
    }

    /// The class a cost-model limiter term maps onto.
    fn from_limiter_name(name: &str) -> BoundClass {
        match name {
            "issue" => BoundClass::Compute,
            "bandwidth" => BoundClass::Bandwidth,
            // latency, critical-warp, scheduling: none of these are a
            // roof — the kernel runs below both roofs.
            _ => BoundClass::Latency,
        }
    }
}

/// One workload placed on the roofline.
#[derive(Debug, Clone)]
pub struct RooflinePoint {
    /// `kernel/model/dataset` workload id.
    id: String,
    /// Arithmetic intensity: active lane-steps per byte of total global
    /// traffic (loads below L1 + stores + atomics).
    arithmetic_intensity: f64,
    /// Achieved throughput, active lane-steps per cycle.
    achieved_ops_per_cycle: f64,
    /// Achieved memory throughput, bytes per cycle.
    achieved_bytes_per_cycle: f64,
    /// Device compute roof, lane-steps per cycle.
    peak_ops_per_cycle: f64,
    /// Device bandwidth roof, bytes per cycle.
    peak_bytes_per_cycle: f64,
    /// Classification recomputed from the launch ledger.
    class: BoundClass,
    /// Dominant term of the recomputed breakdown (finer-grained than
    /// `class`: distinguishes latency / critical-warp / scheduling).
    recomputed_limiter: &'static str,
    /// Dominant term the launch-time cost model stored on the profile.
    stored_limiter: String,
    /// Whether the recomputed and stored limiters name the same term.
    agrees: bool,
}

impl RooflinePoint {
    /// Fraction of the binding roof actually achieved (0..1); for
    /// latency-bound kernels, the larger of the two roof fractions.
    fn roof_fraction(&self) -> f64 {
        let compute = self.achieved_ops_per_cycle / self.peak_ops_per_cycle.max(1e-12);
        let memory = self.achieved_bytes_per_cycle / self.peak_bytes_per_cycle.max(1e-12);
        match self.class {
            BoundClass::Compute => compute,
            BoundClass::Bandwidth => memory,
            BoundClass::Latency => compute.max(memory),
        }
    }
}

/// Place one profiled workload on the roofline of `cfg`.
fn classify(id: &str, p: &KernelProfile, cfg: &DeviceConfig) -> RooflinePoint {
    let recomputed_limiter = p.accounting.critical_sm(cfg).1.name();
    let stored_limiter = p.limiter.name().to_string();
    let traffic = p.total_traffic_bytes() as f64;
    let ops = p.accounting.warps.active_lane_steps as f64;
    let cycles = p.gpu_cycles.max(1e-12);
    RooflinePoint {
        id: id.to_string(),
        arithmetic_intensity: ops / traffic.max(1.0),
        achieved_ops_per_cycle: ops / cycles,
        achieved_bytes_per_cycle: traffic / cycles,
        peak_ops_per_cycle: cfg.num_sms as f64 * cfg.issue_ipc * WARP_SIZE as f64,
        peak_bytes_per_cycle: cfg.num_sms as f64 * cfg.sector_bytes as f64
            / cfg.sector_bw_cycles.max(1e-12),
        class: BoundClass::from_limiter_name(recomputed_limiter),
        recomputed_limiter,
        agrees: recomputed_limiter == stored_limiter,
        stored_limiter,
    }
}

/// Classify every profiled workload of a suite run.
pub fn classify_all(runs: &[(String, KernelProfile)], cfg: &DeviceConfig) -> Vec<RooflinePoint> {
    runs.iter().map(|(id, p)| classify(id, p, cfg)).collect()
}

/// The ids of every point whose recomputed limiter disagrees with the
/// stored one. Empty means every profile was read under the device it
/// is classified on.
pub fn check_agreement(points: &[RooflinePoint]) -> Vec<String> {
    points
        .iter()
        .filter(|pt| !pt.agrees)
        .map(|pt| {
            format!(
                "{}: recomputed={} stored={}",
                pt.id, pt.recomputed_limiter, pt.stored_limiter
            )
        })
        .collect()
}

/// Serialize the roofline report (`results/roofline.json` layout).
fn report_json(device: &str, points: &[RooflinePoint]) -> Value {
    let mut arr = Value::array();
    for pt in points {
        let mut o = Value::object();
        o.set("id", pt.id.clone())
            .set("class", pt.class.label())
            .set("limiter", pt.recomputed_limiter)
            .set("agrees", pt.agrees)
            .set("arithmetic_intensity", pt.arithmetic_intensity)
            .set("achieved_ops_per_cycle", pt.achieved_ops_per_cycle)
            .set("achieved_bytes_per_cycle", pt.achieved_bytes_per_cycle)
            .set("roof_fraction", pt.roof_fraction());
        arr.push(o);
    }
    let mut o = Value::object();
    let peaks = points.first();
    o.set("schema", ROOFLINE_SCHEMA)
        .set("device", device)
        .set(
            "peak_ops_per_cycle",
            peaks.map_or(0.0, |p| p.peak_ops_per_cycle),
        )
        .set(
            "peak_bytes_per_cycle",
            peaks.map_or(0.0, |p| p.peak_bytes_per_cycle),
        )
        .set("workloads", arr);
    o
}

/// `report_json` in the committed pretty form (`results/roofline.json`).
pub fn report_pretty_string(device: &str, points: &[RooflinePoint]) -> String {
    telemetry::json::pretty(&report_json(device, points))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limiter_names_map_onto_roofline_classes() {
        assert_eq!(BoundClass::from_limiter_name("issue"), BoundClass::Compute);
        assert_eq!(
            BoundClass::from_limiter_name("bandwidth"),
            BoundClass::Bandwidth
        );
        for latency_like in ["latency", "critical-warp", "scheduling"] {
            assert_eq!(
                BoundClass::from_limiter_name(latency_like),
                BoundClass::Latency
            );
        }
    }
}
