//! Nsight-Compute-like kernel profiles, and the ledger they are read from.
//!
//! A launch records one raw ledger, [`Accounting`]: the merged
//! [`WarpStats`], the L1 eviction count, the residency the cost model
//! assumed, and the per-SM totals of the block schedule
//! ([`SmAccounting`]). [`SmAccounting::cost`] is the per-SM cost formula,
//! written once; the launcher reads `gpu_cycles` and the
//! [`LimiterBreakdown`] off it, and the roofline classifier calls the same
//! function. [`KernelProfile`] reports, for one launch, the metrics the
//! paper's Section 2.3 defines — SM utilization, achieved occupancy,
//! sectors per request, stall-for-long-scoreboard — plus traffic
//! breakdowns, each a function of the ledger it carries. An
//! [`OpProfile`] aggregates several launches into one logical operation
//! (e.g. DGL's 18-kernel GAT graph convolution) the way the paper's
//! Table 3 reports "runtime" vs "GPU time".

use std::fmt;

use crate::config::DeviceConfig;
use crate::fault::FaultEvent;
use crate::warp::WarpStats;

/// The launch's one raw ledger: every number the launcher records, stored
/// once. Every other view is a function of it — the ratio metrics and
/// byte counts on [`KernelProfile`], `gpu_cycles` and the
/// [`LimiterBreakdown`] ([`Self::critical_sm`]), and the hardware
/// counters ([`Self::hw`]).
///
/// Conservation laws an external checker (the conformance harness) can
/// verify, because two independent recordings must agree:
///
/// * a request touches at least one sector —
///   `warps.mem_sectors() >= warps.mem_requests` (and likewise for
///   stores and atomics);
/// * the block schedule loses nothing — `Σ sm.blocks == blocks_run`;
/// * per-SM issue cycles re-add to the warp totals —
///   `Σ sm.issue_cycles == warps.issue_cycles`.
///
/// Two relations hold by construction and need no check: load sectors
/// are the sum of the three service levels ([`WarpStats::mem_sectors`]),
/// and `gpu_cycles` and the limiter are one call over `sm`.
#[derive(Debug, Clone, Default)]
pub struct Accounting {
    /// Every executed warp's counters, merged.
    pub warps: WarpStats,
    /// L1 misses that displaced a valid resident sector (capacity or
    /// conflict pressure; cold fills excluded), summed over SM workers.
    pub l1_evictions: u64,
    /// Warps per block of this launch.
    pub warps_per_block: u64,
    /// Resident warps per SM the cost model assumed for this launch
    /// (registers, warp slots, shared memory, and the block cap all
    /// considered; the latency-hiding divisor).
    pub resident_warps: f64,
    /// Per-SM totals, filled by the deterministic block list schedule.
    pub sm: Vec<SmAccounting>,
}

impl Accounting {
    /// Modelled kernel cycles and the cost breakdown at the critical SM:
    /// the first SM whose [`SmAccounting::cost`] is the maximum.
    pub fn critical_sm(&self, cfg: &DeviceConfig) -> (f64, LimiterBreakdown) {
        self.sm
            .iter()
            .map(|sm| sm.cost(cfg, self.resident_warps))
            .fold((0.0, LimiterBreakdown::default()), |critical, c| {
                if c.0 > critical.0 {
                    c
                } else {
                    critical
                }
            })
    }
}

/// What one SM accumulated over the launch's block schedule.
#[derive(Debug, Clone, Copy, Default)]
pub struct SmAccounting {
    /// Blocks scheduled onto this SM.
    pub blocks: u64,
    /// Warp-slot cycles accumulated (latency-hiding numerator).
    pub slot_cycles: u64,
    /// Issue cycles accumulated.
    pub issue_cycles: u64,
    /// Atomic-weighted bandwidth sectors accumulated (the memory-bandwidth
    /// term's input: `bw_sectors × sector_bw_cycles` cycles).
    pub bw_sectors: f64,
    /// Longest single warp scheduled here, cycles.
    pub max_warp_cycles: u64,
}

impl SmAccounting {
    /// This SM's modelled completion time, cycles, and its per-term
    /// breakdown — the one place the per-SM cost formula is written (see
    /// the [`launch`](crate::launch) module docs):
    /// `max(issue, bandwidth, latency, critical warp) + scheduling`.
    fn cost(&self, cfg: &DeviceConfig, resident_warps: f64) -> (f64, LimiterBreakdown) {
        let terms = LimiterBreakdown {
            issue: self.issue_cycles as f64 / cfg.issue_ipc,
            bandwidth: self.bw_sectors * cfg.sector_bw_cycles,
            latency: self.slot_cycles as f64 / resident_warps,
            critical_warp: self.max_warp_cycles as f64,
            scheduling: (self.blocks * cfg.block_sched_cycles) as f64,
        };
        let cycles = terms
            .issue
            .max(terms.bandwidth)
            .max(terms.latency)
            .max(terms.critical_warp)
            + terms.scheduling;
        (cycles, terms)
    }
}

/// Profile of a single kernel launch.
#[derive(Debug, Clone, Default)]
pub struct KernelProfile {
    /// Kernel name.
    pub name: String,
    /// Blocks launched.
    pub grid_blocks: usize,
    /// Threads per block.
    pub block_threads: usize,
    /// Modelled GPU execution cycles (max over SMs).
    pub gpu_cycles: f64,
    /// GPU execution time, ms.
    pub gpu_time_ms: f64,
    /// End-to-end time including the host launch overhead, ms.
    pub runtime_ms: f64,

    // ---- utilization ----
    /// Fraction of issue slots used across the device (0..1).
    pub sm_utilization: f64,
    /// Achieved occupancy: average resident warps / max warps (0..1).
    pub achieved_occupancy: f64,
    /// SIMD lane efficiency: active lane-steps / total lane-steps (0..1).
    pub simd_efficiency: f64,

    // ---- memory ----
    /// Average sectors per global load request.
    pub sectors_per_request: f64,
    /// Cycles warps waited on loads and atomics per warp instruction
    /// ("stall long scoreboard").
    pub stall_long_scoreboard: f64,
    /// L1 sector hit rate (0..1).
    pub l1_hit_rate: f64,
    /// L2 sector hit rate among L1 misses (0..1).
    pub l2_hit_rate: f64,
    /// Bytes loaded from below the L1 (L2 + DRAM service).
    pub load_bytes: u64,
    /// Bytes of load traffic served by DRAM.
    pub dram_load_bytes: u64,
    /// Bytes written by plain stores.
    pub store_bytes: u64,
    /// Bytes of atomic read-modify-write traffic.
    pub atomic_bytes: u64,

    // ---- counts ----
    /// Global load requests.
    pub mem_requests: u64,
    /// Atomic requests.
    pub atomic_requests: u64,
    /// Warp instructions issued.
    pub insts: u64,
    /// Warps executed.
    pub warps_run: u64,
    /// Blocks executed.
    pub blocks_run: u64,
    /// Peak device memory at launch time, bytes (high-water mark of the
    /// owning device when the launch completed).
    pub peak_mem_bytes: u64,
    /// Cost-model breakdown at the critical SM (the one that set
    /// `gpu_cycles`): issue-throughput, memory-bandwidth, latency-hiding,
    /// critical-warp, and block-scheduling components. Which of these is
    /// largest names the kernel's limiter.
    pub limiter: LimiterBreakdown,
    /// The launch's raw ledger: every scalar above, the limiter and the
    /// hardware counters ([`Accounting::hw`]) derive from it.
    pub accounting: Accounting,
    /// Fault injected into this launch, if any. Only stragglers can carry
    /// an event here (transient/device-lost launches never produce a
    /// profile); `None` always when the device's `FaultPlan` is empty.
    /// For a straggler, `gpu_cycles`/`gpu_time_ms`/`runtime_ms` include
    /// the slowdown while the limiter breakdown keeps the fault-free
    /// decomposition.
    pub injected_fault: Option<FaultEvent>,
}

/// Per-term cycle components of the analytic cost model at the critical SM.
#[derive(Debug, Clone, Copy, Default)]
pub struct LimiterBreakdown {
    /// Instruction-issue throughput bound, cycles.
    pub issue: f64,
    /// Memory bandwidth bound, cycles.
    pub bandwidth: f64,
    /// Latency-hiding (slot) bound, cycles.
    pub latency: f64,
    /// Longest single warp, cycles.
    pub critical_warp: f64,
    /// Block scheduling overhead, cycles.
    pub scheduling: f64,
}

impl LimiterBreakdown {
    /// Name of the dominant term. NaN-safe: a NaN cost term (e.g. from a
    /// degenerate 0/0 in a downstream computation) is treated as zero
    /// rather than poisoning the comparison.
    pub fn name(&self) -> &'static str {
        let finite = |v: f64| if v.is_nan() { 0.0 } else { v };
        let candidates = [
            (self.issue, "issue"),
            (self.bandwidth, "bandwidth"),
            (self.latency, "latency"),
            (self.critical_warp, "critical-warp"),
            (self.scheduling, "scheduling"),
        ];
        candidates
            .into_iter()
            .max_by(|a, b| finite(a.0).total_cmp(&finite(b.0)))
            .map(|(_, n)| n)
            .unwrap_or("none")
    }
}

impl KernelProfile {
    /// Total global memory traffic (loads below L1 + stores + atomics).
    pub fn total_traffic_bytes(&self) -> u64 {
        self.load_bytes + self.store_bytes + self.atomic_bytes
    }

    /// Every scalar metric as `(name, unit, value)`, in report order.
    ///
    /// This is the stable external surface of the profiler: exporters and
    /// the conformance harness consume it, and a golden-file test pins
    /// the names and units so renames are deliberate, not accidental.
    pub fn metrics(&self) -> Vec<(&'static str, &'static str, f64)> {
        vec![
            ("grid_blocks", "blocks", self.grid_blocks as f64),
            ("block_threads", "threads", self.block_threads as f64),
            ("gpu_cycles", "cycles", self.gpu_cycles),
            ("gpu_time_ms", "ms", self.gpu_time_ms),
            ("runtime_ms", "ms", self.runtime_ms),
            ("sm_utilization", "ratio", self.sm_utilization),
            ("achieved_occupancy", "ratio", self.achieved_occupancy),
            ("simd_efficiency", "ratio", self.simd_efficiency),
            (
                "sectors_per_request",
                "sectors/request",
                self.sectors_per_request,
            ),
            (
                "stall_long_scoreboard",
                "cycles/instruction",
                self.stall_long_scoreboard,
            ),
            ("l1_hit_rate", "ratio", self.l1_hit_rate),
            ("l2_hit_rate", "ratio", self.l2_hit_rate),
            ("load_bytes", "bytes", self.load_bytes as f64),
            ("dram_load_bytes", "bytes", self.dram_load_bytes as f64),
            ("store_bytes", "bytes", self.store_bytes as f64),
            ("atomic_bytes", "bytes", self.atomic_bytes as f64),
            ("mem_requests", "requests", self.mem_requests as f64),
            ("atomic_requests", "requests", self.atomic_requests as f64),
            ("insts", "instructions", self.insts as f64),
            ("warps_run", "warps", self.warps_run as f64),
            ("blocks_run", "blocks", self.blocks_run as f64),
            ("peak_mem_bytes", "bytes", self.peak_mem_bytes as f64),
        ]
    }

    /// The stable per-launch metric snapshot the perf gate serializes
    /// into `BENCH_<seq>.json`: [`Self::metrics`] (minus the launch-shape
    /// fields, which the gate pins via the config fingerprint instead)
    /// plus the per-term limiter breakdown under `limiter.<term>` and the
    /// atomic transaction count. Names are part of the snapshot schema —
    /// renaming one invalidates committed baselines, so don't.
    pub fn gate_metrics(&self) -> Vec<(&'static str, f64)> {
        let mut out: Vec<(&'static str, f64)> = vec![
            ("gpu_cycles", self.gpu_cycles),
            ("gpu_time_ms", self.gpu_time_ms),
            ("runtime_ms", self.runtime_ms),
            ("sm_utilization", self.sm_utilization),
            ("achieved_occupancy", self.achieved_occupancy),
            ("simd_efficiency", self.simd_efficiency),
            ("sectors_per_request", self.sectors_per_request),
            ("stall_long_scoreboard", self.stall_long_scoreboard),
            ("l1_hit_rate", self.l1_hit_rate),
            ("l2_hit_rate", self.l2_hit_rate),
            ("load_bytes", self.load_bytes as f64),
            ("dram_load_bytes", self.dram_load_bytes as f64),
            ("store_bytes", self.store_bytes as f64),
            ("atomic_bytes", self.atomic_bytes as f64),
            ("mem_requests", self.mem_requests as f64),
            ("atomic_transactions", self.atomic_requests as f64),
            ("insts", self.insts as f64),
            ("warps_run", self.warps_run as f64),
            ("blocks_run", self.blocks_run as f64),
            ("peak_mem_bytes", self.peak_mem_bytes as f64),
        ];
        out.extend([
            ("limiter.issue", self.limiter.issue),
            ("limiter.bandwidth", self.limiter.bandwidth),
            ("limiter.latency", self.limiter.latency),
            ("limiter.critical_warp", self.limiter.critical_warp),
            ("limiter.scheduling", self.limiter.scheduling),
        ]);
        out
    }
}

impl fmt::Display for KernelProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "kernel `{}` <<<{}, {}>>>",
            self.name, self.grid_blocks, self.block_threads
        )?;
        writeln!(
            f,
            "  gpu {:.4} ms | runtime {:.4} ms | SM util {:.1}% | occupancy {:.1}% | simd {:.1}%",
            self.gpu_time_ms,
            self.runtime_ms,
            self.sm_utilization * 100.0,
            self.achieved_occupancy * 100.0,
            self.simd_efficiency * 100.0
        )?;
        writeln!(
            f,
            "  sectors/req {:.2} | scoreboard {:.1} cyc | L1 {:.1}% | load {:.1} MB | store {:.1} MB | atomic {:.1} MB",
            self.sectors_per_request,
            self.stall_long_scoreboard,
            self.l1_hit_rate * 100.0,
            self.load_bytes as f64 / 1e6,
            self.store_bytes as f64 / 1e6,
            self.atomic_bytes as f64 / 1e6
        )
    }
}

/// Aggregate of several kernel launches forming one logical operation.
///
/// ```
/// use gpu_sim::{KernelProfile, OpProfile};
/// let mut op = OpProfile::new("gat_conv");
/// let k = KernelProfile { gpu_time_ms: 1.0, runtime_ms: 1.1, ..Default::default() };
/// op.add(&k);
/// op.add(&k);
/// assert_eq!(op.kernel_launches, 2);
/// assert!((op.gpu_time_ms - 2.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct OpProfile {
    /// Operation name.
    pub name: String,
    /// Number of kernel launches composing the op.
    pub kernel_launches: usize,
    /// Sum of GPU times, ms.
    pub gpu_time_ms: f64,
    /// Sum of runtimes (GPU + per-launch host overhead), ms.
    pub runtime_ms: f64,
    /// Extra host-side framework overhead added on top (e.g. Python
    /// dispatch of a framework baseline), ms.
    pub framework_overhead_ms: f64,
    /// Sum of load traffic, bytes.
    pub load_bytes: u64,
    /// Sum of store traffic, bytes.
    pub store_bytes: u64,
    /// Sum of atomic traffic, bytes.
    pub atomic_bytes: u64,
    /// Peak device memory observed during the op, bytes.
    pub peak_mem_bytes: u64,
    /// Launch-weighted average SM utilization.
    pub sm_utilization: f64,
    /// Launch-weighted average achieved occupancy.
    pub achieved_occupancy: f64,
    /// Launch-weighted average stall-long-scoreboard.
    pub stall_long_scoreboard: f64,
    /// Launch-weighted average sectors per request.
    pub sectors_per_request: f64,
    /// Host-side preprocessing time charged to the op (e.g. GNNAdvisor's
    /// reordering and neighbor-group building), ms.
    pub preprocess_ms: f64,
    /// Sum of warp instructions issued.
    pub insts: u64,
    /// Sum of warps executed.
    pub warps_run: u64,
    /// Sum of blocks executed.
    pub blocks_run: u64,
}

impl OpProfile {
    /// Start an empty aggregate.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }

    /// Fold one kernel launch into the aggregate. Time-weighted averages
    /// use GPU time as the weight.
    pub fn add(&mut self, p: &KernelProfile) {
        let w_old = self.gpu_time_ms;
        let w_new = p.gpu_time_ms;
        let total = (w_old + w_new).max(1e-12);
        self.sm_utilization = (self.sm_utilization * w_old + p.sm_utilization * w_new) / total;
        self.achieved_occupancy =
            (self.achieved_occupancy * w_old + p.achieved_occupancy * w_new) / total;
        self.stall_long_scoreboard =
            (self.stall_long_scoreboard * w_old + p.stall_long_scoreboard * w_new) / total;
        self.sectors_per_request =
            (self.sectors_per_request * w_old + p.sectors_per_request * w_new) / total;
        self.kernel_launches += 1;
        self.gpu_time_ms += p.gpu_time_ms;
        self.runtime_ms += p.runtime_ms;
        self.load_bytes += p.load_bytes;
        self.store_bytes += p.store_bytes;
        self.atomic_bytes += p.atomic_bytes;
        self.insts += p.insts;
        self.warps_run += p.warps_run;
        self.blocks_run += p.blocks_run;
        // Peak memory is a high-water mark, not a sum.
        self.peak_mem_bytes = self.peak_mem_bytes.max(p.peak_mem_bytes);
    }

    /// Add host-side framework dispatch overhead (per launch already added).
    pub fn add_framework_overhead_ms(&mut self, ms: f64) {
        self.framework_overhead_ms += ms;
        self.runtime_ms += ms;
    }

    /// Total traffic in bytes.
    pub fn total_traffic_bytes(&self) -> u64 {
        self.load_bytes + self.store_bytes + self.atomic_bytes
    }

    /// Host-visible runtime minus the GPU time: the launch/dispatch
    /// overhead the paper's Table 3 isolates.
    pub fn host_overhead_ms(&self) -> f64 {
        self.runtime_ms - self.gpu_time_ms
    }
}

impl fmt::Display for OpProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "op `{}`: {} launches | gpu {:.4} ms | runtime {:.4} ms | overhead {:.4} ms",
            self.name,
            self.kernel_launches,
            self.gpu_time_ms,
            self.runtime_ms,
            self.host_overhead_ms()
        )?;
        writeln!(
            f,
            "  traffic {:.1} MB (load {:.1} / store {:.1} / atomic {:.1}) | peak mem {:.1} MB",
            self.total_traffic_bytes() as f64 / 1e6,
            self.load_bytes as f64 / 1e6,
            self.store_bytes as f64 / 1e6,
            self.atomic_bytes as f64 / 1e6,
            self.peak_mem_bytes as f64 / 1e6
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(gpu_ms: f64, util: f64) -> KernelProfile {
        KernelProfile {
            name: "k".into(),
            gpu_time_ms: gpu_ms,
            runtime_ms: gpu_ms + 0.01,
            sm_utilization: util,
            load_bytes: 100,
            ..Default::default()
        }
    }

    #[test]
    fn op_profile_accumulates() {
        let mut op = OpProfile::new("gat");
        op.add(&sample(1.0, 0.2));
        op.add(&sample(3.0, 0.6));
        assert_eq!(op.kernel_launches, 2);
        assert!((op.gpu_time_ms - 4.0).abs() < 1e-9);
        assert_eq!(op.load_bytes, 200);
        // Time-weighted utilization: (0.2*1 + 0.6*3) / 4 = 0.5.
        assert!((op.sm_utilization - 0.5).abs() < 1e-9);
    }

    #[test]
    fn op_profile_sums_counts_and_folds_peak_mem() {
        let mut op = OpProfile::new("gat");
        let mut a = sample(1.0, 0.2);
        a.insts = 100;
        a.warps_run = 8;
        a.blocks_run = 2;
        a.peak_mem_bytes = 500;
        let mut b = sample(2.0, 0.4);
        b.insts = 300;
        b.warps_run = 24;
        b.blocks_run = 6;
        b.peak_mem_bytes = 200;
        op.add(&a);
        op.add(&b);
        assert_eq!(op.insts, 400);
        assert_eq!(op.warps_run, 32);
        assert_eq!(op.blocks_run, 8);
        // High-water mark, not a sum: max(500, 200).
        assert_eq!(op.peak_mem_bytes, 500);
    }

    #[test]
    fn limiter_name_is_nan_safe() {
        let b = LimiterBreakdown {
            issue: f64::NAN,
            bandwidth: 10.0,
            latency: 3.0,
            critical_warp: f64::NAN,
            scheduling: 1.0,
        };
        assert_eq!(b.name(), "bandwidth");
        // All-NaN degenerates to the last zero candidate, never panics.
        let all_nan = LimiterBreakdown {
            issue: f64::NAN,
            bandwidth: f64::NAN,
            latency: f64::NAN,
            critical_warp: f64::NAN,
            scheduling: f64::NAN,
        };
        let _ = all_nan.name();
    }

    #[test]
    fn gate_metrics_carry_limiter_terms_and_unique_names() {
        let mut p = sample(1.0, 0.5);
        p.limiter = LimiterBreakdown {
            issue: 1.0,
            bandwidth: 9.0,
            latency: 3.0,
            critical_warp: 2.0,
            scheduling: 0.5,
        };
        p.atomic_requests = 7;
        let gm = p.gate_metrics();
        let lookup = |name: &str| {
            gm.iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("missing gate metric {name}"))
                .1
        };
        assert_eq!(lookup("limiter.bandwidth"), 9.0);
        assert_eq!(lookup("limiter.scheduling"), 0.5);
        assert_eq!(lookup("atomic_transactions"), 7.0);
        assert_eq!(lookup("gpu_time_ms"), 1.0);
        // The snapshot schema relies on unique metric names.
        let mut names: Vec<_> = gm.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), gm.len(), "duplicate gate metric name");
    }

    #[test]
    fn host_overhead_isolated() {
        let mut op = OpProfile::new("x");
        op.add(&sample(1.0, 0.1));
        op.add_framework_overhead_ms(2.0);
        assert!((op.host_overhead_ms() - 2.01).abs() < 1e-9);
    }
}
