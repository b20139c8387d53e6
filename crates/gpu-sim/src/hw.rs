//! Hardware-counter-grade observability for one kernel launch.
//!
//! [`HwCounters`] is the Nsight-raw-counter analogue of [`KernelProfile`]
//! (`crate::KernelProfile`): where the profile reports derived *ratios*
//! (hit rates, occupancy, stall per instruction), this surface keeps the
//! un-derived integer counters a hardware PM unit would expose — warp
//! stall cycles by reason, per-level cache sector hits/misses/evictions,
//! DRAM sector and row-buffer-locality counts, and a bucketed per-SM
//! occupancy timeline derived from the deterministic block schedule.
//!
//! Everything here is *observability only*: no field feeds back into the
//! cost model, so populating the counters cannot perturb modelled cycles,
//! and all counters are exact integer sums over the (sequentially
//! executed) warp traces — bitwise-identical across same-seed runs.

use crate::config::DeviceConfig;
use crate::warp::WarpStats;

/// Number of fixed-width buckets in the per-SM occupancy timeline.
pub const OCCUPANCY_BUCKETS: usize = 16;

/// Busy-cycle histogram of one SM over the launch, in
/// [`OCCUPANCY_BUCKETS`] equal slices of the block schedule's makespan.
/// The time axis is warp-slot (serial) time — the same axis the list
/// scheduler and the exported SM trace tracks use — not wall GPU cycles,
/// which overlap resident warps.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SmOccupancy {
    /// SM index.
    pub sm: u32,
    /// Cycles this SM had at least one block resident, per time bucket.
    /// A bucket spans [`HwCounters::bucket_cycles`] cycles; entries can
    /// exceed the span when several blocks overlap on the SM.
    pub busy_cycles: Vec<u64>,
}

/// Raw per-launch hardware counters (see the module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HwCounters {
    // ---- warp activity / stall reasons (cycles summed over all warps) ----
    /// Cycles warps spent issuing instructions (busy, not stalled).
    pub issue_active_cycles: u64,
    /// Cycles warps stalled on global-memory loads ("long scoreboard").
    pub stall_mem_cycles: u64,
    /// Cycles warps stalled in atomic round trips and conflict
    /// serialization.
    pub stall_atomic_cycles: u64,
    /// Cycles charged to block-wide barriers (`__syncthreads`).
    pub stall_sync_cycles: u64,
    /// Barriers executed, all warps.
    pub barriers: u64,

    // ---- cache hierarchy (load sectors) ----
    /// Load sectors served by the L1.
    pub l1_hit_sectors: u64,
    /// Load sectors that missed the L1 (served by L2 or DRAM).
    pub l1_miss_sectors: u64,
    /// L1 misses that displaced a valid resident sector (capacity or
    /// conflict pressure; cold fills excluded), summed over SM workers.
    pub l1_evictions: u64,
    /// Load sectors served by the L2.
    pub l2_hit_sectors: u64,
    /// Load sectors that missed the L2 (served by DRAM).
    pub l2_miss_sectors: u64,

    // ---- DRAM / row-buffer locality (below-L1 load stream) ----
    /// Load sectors served by DRAM.
    pub dram_sectors: u64,
    /// Below-L1 load sectors that stayed in the issuing warp's open
    /// modelled DRAM row (`crate::mem::DRAM_ROW_BYTES`).
    pub row_hit_sectors: u64,
    /// Below-L1 load sectors that crossed a DRAM row boundary.
    pub row_miss_sectors: u64,

    // ---- occupancy timeline ----
    /// Width of one occupancy bucket in warp-slot cycles
    /// (`ceil(schedule_makespan / OCCUPANCY_BUCKETS)`, at least 1).
    pub bucket_cycles: u64,
    /// Per-SM busy-cycle timelines; SMs that never ran a block are
    /// omitted.
    pub occupancy: Vec<SmOccupancy>,
}

impl HwCounters {
    /// Build the counter set from the launch's merged warp totals, the
    /// per-worker L1 eviction sum, and the block placements `(sm, block,
    /// start_cycles, end_cycles)` produced by the list scheduler.
    pub(crate) fn collect(
        cfg: &DeviceConfig,
        total: &WarpStats,
        l1_evictions: u64,
        placements: &[(usize, u32, u64, u64)],
    ) -> Self {
        let horizon = placements.iter().map(|&(_, _, _, e)| e).max().unwrap_or(0);
        let bucket_cycles = horizon.div_ceil(OCCUPANCY_BUCKETS as u64).max(1);
        let mut busy = vec![[0u64; OCCUPANCY_BUCKETS]; cfg.num_sms];
        for &(sm, _, start, end) in placements {
            let end = end.max(start);
            // `start < horizon <= OCCUPANCY_BUCKETS * bucket_cycles` by
            // construction, so `first` is always in range; the last-bucket
            // fold is pure defence against a future horizon change and
            // keeps total busy cycles conserved regardless.
            let first = ((start / bucket_cycles) as usize).min(OCCUPANCY_BUCKETS - 1);
            let last = ((end.saturating_sub(1) / bucket_cycles) as usize).max(first);
            let row = &mut busy[sm];
            for (b, slot) in row.iter_mut().enumerate().take(last + 1).skip(first) {
                let lo = start.max(b as u64 * bucket_cycles);
                let hi = if b == OCCUPANCY_BUCKETS - 1 {
                    end
                } else {
                    end.min((b as u64 + 1) * bucket_cycles)
                };
                *slot += hi.saturating_sub(lo);
            }
        }
        let occupancy = busy
            .into_iter()
            .enumerate()
            .filter(|(_, b)| b.iter().any(|&c| c > 0))
            .map(|(sm, b)| SmOccupancy {
                sm: sm as u32,
                busy_cycles: b.to_vec(),
            })
            .collect();
        HwCounters {
            issue_active_cycles: total.issue_cycles,
            stall_mem_cycles: total.mem_lat_cycles,
            stall_atomic_cycles: total.atomic_lat_cycles,
            stall_sync_cycles: total.syncs * cfg.sync_cycles,
            barriers: total.syncs,
            l1_hit_sectors: total.l1_hit_sectors,
            l1_miss_sectors: total.below_l1_sectors(),
            l1_evictions,
            l2_hit_sectors: total.l2_hit_sectors,
            l2_miss_sectors: total.dram_sectors,
            dram_sectors: total.dram_sectors,
            row_hit_sectors: total.row_hit_sectors,
            row_miss_sectors: total.row_miss_sectors,
            bucket_cycles,
            occupancy,
        }
    }

    /// Row-buffer locality of the below-L1 load stream in `[0, 1]`; zero
    /// when everything hit the L1.
    pub fn row_locality(&self) -> f64 {
        let total = self.row_hit_sectors + self.row_miss_sectors;
        if total == 0 {
            0.0
        } else {
            self.row_hit_sectors as f64 / total as f64
        }
    }

    /// Every scalar counter as `(name, value)`, in declaration order; the
    /// launcher publishes these as `kernel.<name>.hw.<counter>` telemetry
    /// counters. The occupancy timeline is serialized with the profile
    /// only (a histogram makes no sense as a scalar).
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_buckets_cover_placements() {
        let cfg = DeviceConfig::test_small();
        let total = WarpStats::default();
        // One block busy for the whole horizon on SM 0, one for the first
        // half on SM 1.
        let placements = vec![(0usize, 0u32, 0u64, 1600u64), (1, 1, 0, 800)];
        let hw = HwCounters::collect(&cfg, &total, 0, &placements);
        assert_eq!(hw.bucket_cycles, 100);
        assert_eq!(hw.occupancy.len(), 2);
        let sm0 = &hw.occupancy[0];
        assert!(sm0.busy_cycles.iter().all(|&c| c == 100));
        let sm1 = &hw.occupancy[1];
        assert_eq!(sm1.busy_cycles.iter().sum::<u64>(), 800);
        assert_eq!(sm1.busy_cycles[OCCUPANCY_BUCKETS - 1], 0);
        // Total busy cycles equal total placement spans exactly.
        let busy: u64 = hw.occupancy.iter().flat_map(|o| o.busy_cycles.iter()).sum();
        assert_eq!(busy, 1600 + 800);
    }

    #[test]
    fn busy_cycles_conserved_for_irregular_spans() {
        let cfg = DeviceConfig::test_small();
        let total = WarpStats::default();
        // Spans that straddle bucket boundaries at awkward offsets: the
        // bucketed timeline must conserve the exact total span length.
        let placements = vec![
            (0usize, 0u32, 0u64, 777u64),
            (0, 1, 777, 1234),
            (1, 2, 100, 531),
        ];
        let hw = HwCounters::collect(&cfg, &total, 0, &placements);
        let busy: u64 = hw.occupancy.iter().flat_map(|o| o.busy_cycles.iter()).sum();
        assert_eq!(busy, 777 + (1234 - 777) + (531 - 100));
    }

    #[test]
    fn row_locality_ratio() {
        let hw = HwCounters {
            row_hit_sectors: 3,
            row_miss_sectors: 1,
            ..Default::default()
        };
        assert_eq!(hw.row_locality(), 0.75);
        assert_eq!(HwCounters::default().row_locality(), 0.0);
    }
}
