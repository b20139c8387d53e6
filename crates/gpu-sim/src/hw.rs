//! Hardware-counter-grade observability for one kernel launch.
//!
//! [`HwCounters`] is the Nsight-raw-counter analogue of
//! [`KernelProfile`](crate::KernelProfile): where the profile reports
//! derived *ratios* (hit rates, occupancy, stall per instruction), this
//! surface keeps the un-derived integer counters a hardware PM unit would expose — warp
//! stall cycles by reason, per-level cache sector hits/misses/evictions,
//! and DRAM sector and row-buffer-locality counts. The per-SM busy spans
//! of the block schedule are the telemetry SM tracks.
//!
//! The counters are a view of the launch ledger ([`Accounting::hw`]),
//! read off it on demand and stored nowhere else. None of them feeds the
//! cost model, and all are exact integer sums over the (sequentially
//! executed) warp traces — bitwise-identical across same-seed runs.

use crate::config::DeviceConfig;
use crate::profile::Accounting;

/// Raw per-launch hardware counters (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HwCounters {
    // ---- warp activity / stall reasons (cycles summed over all warps) ----
    /// Cycles warps spent issuing instructions (busy, not stalled).
    pub(crate) issue_active_cycles: u64,
    /// Cycles warps stalled on global-memory loads ("long scoreboard").
    pub(crate) stall_mem_cycles: u64,
    /// Cycles warps stalled in atomic round trips and conflict
    /// serialization.
    pub(crate) stall_atomic_cycles: u64,
    /// Cycles charged to block-wide barriers (`__syncthreads`).
    pub(crate) stall_sync_cycles: u64,
    /// Barriers executed, all warps.
    pub(crate) barriers: u64,

    // ---- cache hierarchy (load sectors) ----
    /// Load sectors served by the L1.
    pub(crate) l1_hit_sectors: u64,
    /// Load sectors that missed the L1 (served by L2 or DRAM).
    pub(crate) l1_miss_sectors: u64,
    /// L1 misses that displaced a valid resident sector (capacity or
    /// conflict pressure; cold fills excluded), summed over SM workers.
    pub(crate) l1_evictions: u64,
    /// Load sectors served by the L2.
    pub(crate) l2_hit_sectors: u64,
    /// Load sectors that missed the L2 (served by DRAM).
    pub(crate) l2_miss_sectors: u64,

    // ---- DRAM / row-buffer locality (below-L1 load stream) ----
    /// Load sectors served by DRAM.
    pub(crate) dram_sectors: u64,
    /// Below-L1 load sectors that stayed in the issuing warp's open
    /// modelled DRAM row (`crate::mem::DRAM_ROW_BYTES`).
    pub(crate) row_hit_sectors: u64,
    /// Below-L1 load sectors that crossed a DRAM row boundary.
    pub(crate) row_miss_sectors: u64,
}

impl Accounting {
    /// The launch's hardware counters, read off the ledger (`cfg` prices
    /// a barrier in cycles).
    pub fn hw(&self, cfg: &DeviceConfig) -> HwCounters {
        let w = &self.warps;
        HwCounters {
            issue_active_cycles: w.issue_cycles,
            stall_mem_cycles: w.mem_lat_cycles,
            stall_atomic_cycles: w.atomic_lat_cycles,
            stall_sync_cycles: w.syncs * cfg.sync_cycles,
            barriers: w.syncs,
            l1_hit_sectors: w.l1_hit_sectors,
            l1_miss_sectors: w.below_l1_sectors(),
            l1_evictions: self.l1_evictions,
            l2_hit_sectors: w.l2_hit_sectors,
            l2_miss_sectors: w.dram_sectors,
            dram_sectors: w.dram_sectors,
            row_hit_sectors: w.row_hit_sectors,
            row_miss_sectors: w.row_miss_sectors(),
        }
    }
}

impl HwCounters {
    /// Every counter as `(name, value)`, in declaration order; the
    /// launcher publishes these as `kernel.<name>.hw.<counter>` telemetry
    /// counters.
    pub fn scalar_counters(&self) -> [(&'static str, u64); 13] {
        [
            ("issue_active_cycles", self.issue_active_cycles),
            ("stall_mem_cycles", self.stall_mem_cycles),
            ("stall_atomic_cycles", self.stall_atomic_cycles),
            ("stall_sync_cycles", self.stall_sync_cycles),
            ("barriers", self.barriers),
            ("l1_hit_sectors", self.l1_hit_sectors),
            ("l1_miss_sectors", self.l1_miss_sectors),
            ("l1_evictions", self.l1_evictions),
            ("l2_hit_sectors", self.l2_hit_sectors),
            ("l2_miss_sectors", self.l2_miss_sectors),
            ("dram_sectors", self.dram_sectors),
            ("row_hit_sectors", self.row_hit_sectors),
            ("row_miss_sectors", self.row_miss_sectors),
        ]
    }
}
