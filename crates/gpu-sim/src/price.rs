//! The pricing half of every request: what a load, store or atomic costs
//! given the caches it meets, and what a warp, a block and an SM worker
//! add to the launch ledger.
//!
//! [`WarpCtx`](crate::WarpCtx) performs a request and keeps the counters
//! that depend on no cache (instructions, requests, sectors, LSU issue
//! slots); [`Pricer::price`] is the one function that walks the sectors
//! through the L1 and L2 models, tracks DRAM-row locality and charges the
//! request's latency. [`Pricer::mark`] closes a warp (its cycles), a block
//! (its [`BlockCost`]) and a worker (its L1). Whether a request is priced
//! the moment it is issued or replayed later from the launch's log
//! ([`crate::log`]), these two functions see the same calls in the same
//! order, so every counter comes out the same.

use crate::cache::SectorCache;
use crate::config::DeviceConfig;
use crate::mem::SectorGeometry;
use crate::warp::WarpStats;

/// What a request does to the memory system (its sectors come separately).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    /// A global load: every sector is looked up, the slowest level
    /// stalls the warp.
    Load,
    /// A write-through store: the data lands in the L2 and any L1 copy
    /// is dropped; the warp does not wait.
    Store,
    /// An atomic round trip through the L2, bypassing (and invalidating)
    /// the L1, over `distinct` addresses with at most `conflict` lanes on
    /// one address.
    Atomic { distinct: usize, conflict: usize },
}

/// What pricing needs of a finished warp's cache-independent counters.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WarpEnd {
    pub(crate) issue_cycles: u64,
    pub(crate) store_sectors: u64,
    pub(crate) atomic_sectors: u64,
}

impl WarpEnd {
    pub(crate) fn of(stats: &WarpStats) -> Self {
        Self {
            issue_cycles: stats.issue_cycles,
            store_sectors: stats.store_sectors,
            atomic_sectors: stats.atomic_sectors,
        }
    }
}

/// A boundary in the launch's fixed worker → block → warp order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Mark {
    /// The current warp retired.
    Warp(WarpEnd),
    /// Block `.0` (its launch index) retired.
    Block(usize),
    /// The current SM worker ran its last block; its L1 starts over.
    Worker,
}

/// Cost record of one executed block, consumed by the list scheduler.
#[derive(Debug, Clone, Default)]
pub(crate) struct BlockCost {
    pub(crate) issue_cycles: u64,
    /// Atomic-weighted bandwidth sectors.
    pub(crate) bw_sectors: f64,
    /// Warp-slot time the block occupies: the sum of per-warp cycles
    /// plus [`RAMP_DOWN_CHARGE`] of the tail where early-retiring warps'
    /// slots sit idle until the whole CTA completes.
    pub(crate) slot_cycles: u64,
    pub(crate) max_warp: u64,
}

/// Fraction of a block's ramp-down tail (slot-cycles between a warp's
/// retirement and its CTA's completion) charged as occupied. Warp slots
/// free individually when warps exit, but a successor CTA launches only
/// once the whole block's allotment is free, so part of the tail is
/// unusable in practice; 0 would model perfect per-warp backfill, 1
/// CTA-granular holding of every slot until the slowest warp ends.
const RAMP_DOWN_CHARGE: f64 = 0.3;

/// Everything pricing accumulates over one launch, apart from the L2 the
/// device keeps between launches.
pub(crate) struct PriceState {
    /// The current SM worker's L1.
    l1: SectorCache,
    /// Cache-dependent counters of the current warp.
    warp: WarpStats,
    /// DRAM row of the current warp's last below-L1 load sector
    /// (`u64::MAX` = none yet), for the row-locality counters.
    last_dram_row: u64,
    /// The current block, until its [`Mark::Block`].
    block: BlockCost,
    warps_per_block: u64,
    /// Indexed by block: launch order, in which the hardware distributor
    /// hands blocks out and the list scheduler reads them.
    blocks: Vec<BlockCost>,
    /// Cache-dependent counters of every retired warp.
    priced: WarpStats,
    /// L1 evictions summed over retired workers.
    l1_evictions: u64,
}

impl PriceState {
    /// A launch of `grid` blocks of `warps_per_block` warps whose workers
    /// each own an L1 of `l1_bytes` (every worker starts from an empty
    /// one).
    pub(crate) fn new(
        l1_bytes: usize,
        sector_bytes: usize,
        grid: usize,
        warps_per_block: usize,
    ) -> Self {
        Self {
            l1: SectorCache::new(l1_bytes, sector_bytes),
            warp: WarpStats::default(),
            last_dram_row: u64::MAX,
            block: BlockCost::default(),
            warps_per_block: warps_per_block as u64,
            blocks: vec![BlockCost::default(); grid],
            priced: WarpStats::default(),
            l1_evictions: 0,
        }
    }

    /// The cache-dependent counters of every retired warp, the L1
    /// evictions, and the per-block costs.
    pub(crate) fn finish(self) -> (WarpStats, u64, Vec<BlockCost>) {
        (self.priced, self.l1_evictions, self.blocks)
    }

    /// The current warp's cache-dependent counters so far.
    #[cfg(test)]
    pub(crate) fn warp(&self) -> &WarpStats {
        &self.warp
    }

    /// The current worker's L1.
    #[cfg(test)]
    pub(crate) fn l1(&self) -> &SectorCache {
        &self.l1
    }
}

/// The pricing half of a launch, borrowed for as long as one warp (or one
/// replayed log chunk) needs it.
pub(crate) struct Pricer<'a> {
    cfg: &'a DeviceConfig,
    geometry: SectorGeometry,
    l2: &'a mut SectorCache,
    state: &'a mut PriceState,
}

impl<'a> Pricer<'a> {
    pub(crate) fn new(
        cfg: &'a DeviceConfig,
        geometry: SectorGeometry,
        l2: &'a mut SectorCache,
        state: &'a mut PriceState,
    ) -> Self {
        Self {
            cfg,
            geometry,
            l2,
            state,
        }
    }

    /// The same pricer, borrowed for a shorter while.
    #[inline]
    pub(crate) fn reborrow(&mut self) -> Pricer<'_> {
        Pricer {
            cfg: self.cfg,
            geometry: self.geometry,
            l2: self.l2,
            state: self.state,
        }
    }

    /// Price one request over its (non-empty) sector list: the one place
    /// the caches are consulted. Inlined into each caller, so a request's
    /// sector iterator (one sector, a range, a gathered set) is
    /// specialised rather than funnelled through one shared copy.
    #[inline]
    pub(crate) fn price(&mut self, op: Op, sectors: impl ExactSizeIterator<Item = u64>) {
        let cfg = self.cfg;
        let state = &mut *self.state;
        let (l1, l2, w) = (&mut state.l1, &mut *self.l2, &mut state.warp);
        let n = sectors.len() as u64;
        match op {
            Op::Load => {
                let mut worst = 0u64;
                for s in sectors {
                    let lvl_lat = if l1.access(s) {
                        w.l1_hit_sectors += 1;
                        cfg.l1_latency
                    } else {
                        // Below-L1 stream: row-buffer locality relative to
                        // this warp's previous sector that left the SM.
                        let row = self.geometry.dram_row(s);
                        if row == state.last_dram_row {
                            w.row_hit_sectors += 1;
                        } else {
                            state.last_dram_row = row;
                        }
                        if l2.access(s) {
                            w.l2_hit_sectors += 1;
                            cfg.l2_latency
                        } else {
                            w.dram_sectors += 1;
                            cfg.dram_latency
                        }
                    };
                    worst = worst.max(lvl_lat);
                }
                // Extra sectors in one request are issued back to back by
                // the memory controller: serialization on top of the
                // slowest hit level.
                w.mem_lat_cycles += worst + (n - 1) * cfg.sector_issue_cycles;
            }
            Op::Store => {
                // Write-through: data lands in L2 (so later loads may hit).
                for s in sectors {
                    l2.access(s);
                    l1.invalidate(s);
                }
            }
            Op::Atomic { distinct, conflict } => {
                for s in sectors {
                    l1.invalidate(s);
                    l2.access(s);
                }
                w.atomic_lat_cycles += cfg.atomic_latency
                    + (distinct.saturating_sub(1) as u64) * cfg.sector_issue_cycles
                    + (conflict.saturating_sub(1) as u64) * cfg.atomic_conflict_cycles;
            }
        }
    }

    /// Close a warp, a block or a worker.
    pub(crate) fn mark(&mut self, mark: Mark) {
        let cfg = self.cfg;
        let state = &mut *self.state;
        match mark {
            Mark::Warp(end) => {
                let priced = std::mem::take(&mut state.warp);
                state.priced.merge(&priced);
                state.last_dram_row = u64::MAX;
                let w = WarpStats {
                    issue_cycles: end.issue_cycles,
                    store_sectors: end.store_sectors,
                    atomic_sectors: end.atomic_sectors,
                    ..priced
                };
                let bc = &mut state.block;
                let wc = w.warp_cycles(cfg);
                bc.max_warp = bc.max_warp.max(wc);
                bc.slot_cycles += wc;
                bc.issue_cycles += w.issue_cycles;
                bc.bw_sectors += (w.below_l1_sectors() + w.store_sectors) as f64
                    + w.atomic_sectors as f64 * cfg.atomic_bw_factor;
            }
            Mark::Block(block) => {
                let mut bc = std::mem::take(&mut state.block);
                let ceiling = bc.max_warp * state.warps_per_block;
                bc.slot_cycles += ((ceiling - bc.slot_cycles) as f64 * RAMP_DOWN_CHARGE) as u64;
                state.blocks[block] = bc;
            }
            Mark::Worker => {
                state.l1_evictions += state.l1.evictions();
                state.l1.reset();
            }
        }
    }
}
