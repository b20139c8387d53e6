//! Warp execution context: the lane-level API simulated kernels program
//! against, and the per-warp statistics it records.
//!
//! A kernel's `run_warp` receives a [`WarpCtx`] and expresses its work as
//! warp-wide operations: SIMD issue ([`WarpCtx::issue`]), global loads and
//! stores, atomics, shared memory, and barriers. Every operation
//! *performs* the data movement against [`DeviceMemory`] (results are
//! real) and counts what depends on no cache: instructions, lane activity,
//! requests, and the 32-byte sectors the lane addresses group into. The
//! request then goes to the launch's pricing half (`Pricer::price` in
//! `price.rs`), which walks its sectors through the L1/L2 models — at
//! once, or later from the launch's request log (`log.rs`); the order is
//! the same either way.
//!
//! A load or store request comes in two forms that model the same thing
//! and are priced by the same code:
//!
//! * the **run form** — [`WarpCtx::ld_run`] / [`WarpCtx::st_run`]: lanes
//!   `0..active` touch elements `start..start + active`. This is what a
//!   feature-parallel kernel issues (32 lanes over 32 consecutive feature
//!   dimensions, the last tile partial), and the simulator executes it as
//!   one slice and one sector range;
//! * the **closure form** — [`WarpCtx::ld`] / [`WarpCtx::st`]: a closure
//!   maps lane → element index, `None` = lane inactive. For everything
//!   irregular: gathers through an index array, strided access, sub-warp
//!   packing, lanes masked by anything other than a prefix.
//!
//! A contiguous prefix handed to the closure form yields the same values,
//! counters and cache state as the run form (a differential test holds
//! them together); the run form only spares the host the per-lane work.

use std::sync::atomic::Ordering;

use crate::config::{DeviceConfig, WARP_SIZE};
use crate::log::LogWriter;
use crate::mem::{self, DeviceBuffer, DeviceMemory, SectorGeometry, Word};
use crate::price::{Mark, Op, Pricer};

/// Per-warp counters; the launcher merges every warp's into the launch
/// ledger ([`Accounting::warps`](crate::Accounting::warps)).
#[derive(Debug, Clone, Copy, Default)]
pub struct WarpStats {
    /// Warp instructions issued (memory instructions included).
    pub insts: u64,
    /// Cycles spent issuing instructions.
    pub issue_cycles: u64,
    /// Global-memory load requests (one per warp load instruction).
    pub mem_requests: u64,
    /// Below-L1 load sectors that stayed in the same modelled DRAM row as
    /// the warp's previous below-L1 sector (row-buffer locality).
    pub row_hit_sectors: u64,
    /// Cycles the warp stalled waiting on loads ("long scoreboard").
    pub mem_lat_cycles: u64,
    /// Load sectors served by the L1.
    pub l1_hit_sectors: u64,
    /// Load sectors served by the L2.
    pub l2_hit_sectors: u64,
    /// Load sectors served by DRAM.
    pub dram_sectors: u64,
    /// Store requests issued.
    pub store_requests: u64,
    /// Sectors written by stores.
    pub store_sectors: u64,
    /// Atomic requests issued.
    pub atomic_requests: u64,
    /// Sectors touched by atomics (all bypass L1).
    pub atomic_sectors: u64,
    /// Cycles spent in atomic round trips and conflict serialization.
    pub atomic_lat_cycles: u64,
    /// Active lanes summed over SIMD steps (divergence numerator).
    pub active_lane_steps: u64,
    /// `WARP_SIZE` × SIMD steps (divergence denominator).
    pub total_lane_steps: u64,
    /// Block-level barriers executed.
    pub syncs: u64,
}

impl WarpStats {
    /// Merge another warp's counters into this accumulator.
    pub(crate) fn merge(&mut self, o: &WarpStats) {
        self.insts += o.insts;
        self.issue_cycles += o.issue_cycles;
        self.mem_requests += o.mem_requests;
        self.row_hit_sectors += o.row_hit_sectors;
        self.mem_lat_cycles += o.mem_lat_cycles;
        self.l1_hit_sectors += o.l1_hit_sectors;
        self.l2_hit_sectors += o.l2_hit_sectors;
        self.dram_sectors += o.dram_sectors;
        self.store_requests += o.store_requests;
        self.store_sectors += o.store_sectors;
        self.atomic_requests += o.atomic_requests;
        self.atomic_sectors += o.atomic_sectors;
        self.atomic_lat_cycles += o.atomic_lat_cycles;
        self.active_lane_steps += o.active_lane_steps;
        self.total_lane_steps += o.total_lane_steps;
        self.syncs += o.syncs;
    }

    /// Total cycles this warp was busy or stalled: its serial execution
    /// time, with outstanding loads overlapped per the device's
    /// memory-level-parallelism factors.
    pub(crate) fn warp_cycles(&self, cfg: &DeviceConfig) -> u64 {
        self.issue_cycles
            + (self.mem_lat_cycles as f64 / cfg.warp_mlp.max(1.0)) as u64
            + (self.atomic_lat_cycles as f64 / cfg.atomic_mlp.max(1.0)) as u64
    }

    /// Load sectors that had to be serviced below the L1 (consume
    /// interconnect/DRAM bandwidth).
    pub(crate) fn below_l1_sectors(&self) -> u64 {
        self.l2_hit_sectors + self.dram_sectors
    }

    /// Sectors touched by load requests (coalescing metric numerator):
    /// every one is served by exactly one level.
    pub fn mem_sectors(&self) -> u64 {
        self.l1_hit_sectors + self.below_l1_sectors()
    }

    /// Below-L1 load sectors that crossed a DRAM row boundary: every
    /// below-L1 sector is either a row hit or this.
    pub(crate) fn row_miss_sectors(&self) -> u64 {
        self.below_l1_sectors() - self.row_hit_sectors
    }
}

/// Identity of a warp within a launch.
#[derive(Debug, Clone, Copy)]
pub struct WarpId {
    /// Block index within the grid.
    pub block_idx: usize,
    /// Warp index within the block.
    pub warp_in_block: usize,
    /// Warps per block for this launch.
    pub warps_per_block: usize,
}

impl WarpId {
    /// Flat warp index across the whole grid.
    #[inline]
    pub fn global_warp(&self) -> usize {
        self.block_idx * self.warps_per_block + self.warp_in_block
    }
}

/// Execution context handed to `Kernel::run_warp`.
pub struct WarpCtx<'a> {
    mem: &'a DeviceMemory,
    cfg: &'a DeviceConfig,
    geometry: SectorGeometry,
    shared: &'a mut [f32],
    id: WarpId,
    sink: Sink<'a>,
    /// This warp's cache-independent counters (read by the launcher
    /// afterwards; the pricing half keeps the others).
    pub(crate) stats: WarpStats,
}

/// The sectors of one request, in the shape the request form found them.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Sectors<'s> {
    /// The one sector of a broadcast scalar.
    One(u64),
    /// `n` consecutive sectors from `first`, ascending.
    Run { first: u64, n: usize },
    /// Distinct sectors in the order the lanes first touched them.
    Set(&'s [u64]),
}

impl Sectors<'_> {
    #[inline]
    pub(crate) fn len(&self) -> usize {
        match self {
            Sectors::One(_) => 1,
            Sectors::Run { n, .. } => *n,
            Sectors::Set(set) => set.len(),
        }
    }
}

/// Where a warp's requests go: priced as they are issued, or appended to
/// the launch's log for the replay to price.
pub(crate) enum Sink<'a> {
    Price(Pricer<'a>),
    Log(LogWriter<'a>),
}

impl Sink<'_> {
    /// The same sink, borrowed for a shorter while (one warp).
    #[inline]
    pub(crate) fn reborrow(&mut self) -> Sink<'_> {
        match self {
            Sink::Price(p) => Sink::Price(p.reborrow()),
            Sink::Log(log) => Sink::Log(log.reborrow()),
        }
    }

    /// Always inlined into the request that issues it, where the sector
    /// shape is known: each shape gets its own copy of the pricing loop,
    /// as a kernel's one-sector, range and gathered requests should.
    #[inline(always)]
    fn request(&mut self, op: Op, sectors: Sectors<'_>) {
        match self {
            Sink::Price(p) => match sectors {
                Sectors::One(sector) => p.price(op, std::iter::once(sector)),
                Sectors::Run { first, n } => p.price(op, crate::log::run(first, n)),
                Sectors::Set(set) => p.price(op, set.iter().copied()),
            },
            Sink::Log(log) => log.request(op, sectors),
        }
    }

    /// Close a warp, a block or a worker.
    pub(crate) fn mark(&mut self, mark: Mark) {
        match self {
            Sink::Price(p) => p.mark(mark),
            Sink::Log(log) => log.mark(mark),
        }
    }
}

/// Scratch for sector grouping: at most one sector per lane.
type SectorSet = ([u64; WARP_SIZE], usize);

#[inline]
fn push_sector(set: &mut SectorSet, sector: u64) {
    let (buf, n) = set;
    // Neighbouring lanes mostly share a sector: try the last one pushed
    // before scanning the rest.
    if *n > 0 && buf[*n - 1] == sector {
        return;
    }
    if !buf[..*n].contains(&sector) {
        buf[*n] = sector;
        *n += 1;
    }
}

impl<'a> WarpCtx<'a> {
    pub(crate) fn new(
        mem: &'a DeviceMemory,
        cfg: &'a DeviceConfig,
        geometry: SectorGeometry,
        shared: &'a mut [f32],
        id: WarpId,
        sink: Sink<'a>,
    ) -> Self {
        Self {
            mem,
            cfg,
            geometry,
            shared,
            id,
            sink,
            stats: WarpStats::default(),
        }
    }

    /// Number of lanes in this warp (always 32).
    #[inline]
    pub fn lanes(&self) -> usize {
        WARP_SIZE
    }

    /// Block index within the grid.
    #[inline]
    pub fn block_idx(&self) -> usize {
        self.id.block_idx
    }

    /// Warp index within the block.
    #[inline]
    pub fn warp_in_block(&self) -> usize {
        self.id.warp_in_block
    }

    /// Warps per block.
    #[inline]
    pub fn warps_per_block(&self) -> usize {
        self.id.warps_per_block
    }

    /// Flat warp index across the grid.
    #[inline]
    pub fn global_warp(&self) -> usize {
        self.id.global_warp()
    }

    // ---- instruction issue ----

    /// Account `insts` warp-wide instructions with all 32 lanes active.
    #[inline]
    pub fn issue(&mut self, insts: u64) {
        self.issue_simd(insts, WARP_SIZE);
    }

    /// Account `insts` warp-wide instructions with only `active` lanes
    /// doing useful work (branch divergence: idle lanes still occupy the
    /// issue slot).
    #[inline]
    pub fn issue_simd(&mut self, insts: u64, active: usize) {
        debug_assert!(active <= WARP_SIZE);
        self.stats.insts += insts;
        self.stats.issue_cycles += insts;
        self.stats.active_lane_steps += insts * active as u64;
        self.stats.total_lane_steps += insts * WARP_SIZE as u64;
    }

    /// Account a warp-level tree reduction/shuffle (log2(32) = 5 shuffle
    /// instructions plus the combine ops).
    #[inline]
    pub fn shfl_reduce(&mut self) {
        self.issue(10);
    }

    // ---- global memory: loads ----

    /// Coalescable warp load: `lane_idx(lane)` yields the element index the
    /// lane reads, or `None` if the lane is inactive. Returns one value per
    /// lane (inactive lanes get `T::default()`).
    pub fn ld<T: Word>(
        &mut self,
        buf: DeviceBuffer<T>,
        mut lane_idx: impl FnMut(usize) -> Option<usize>,
    ) -> [T; WARP_SIZE] {
        let view = self.mem.view(buf);
        let mut out = [T::default(); WARP_SIZE];
        let mut sectors: SectorSet = ([0; WARP_SIZE], 0);
        let mut active = 0usize;
        for (lane, slot) in out.iter_mut().enumerate() {
            if let Some(idx) = lane_idx(lane) {
                let (word, addr) = view.at(idx);
                *slot = T::from_bits(word.load(Ordering::Relaxed));
                push_sector(&mut sectors, self.geometry.sector_of(addr));
                active += 1;
            }
        }
        self.issue_simd(1, active);
        if active > 0 {
            self.account_load(Sectors::Set(&sectors.0[..sectors.1]));
        }
        out
    }

    /// Coalesced warp load, run form: lane `l < active` reads element
    /// `start + l`. Returns one value per lane (the rest get
    /// `T::default()`). Same request, same accounting as [`Self::ld`] over
    /// `|l| (l < active).then(|| start + l)`.
    pub fn ld_run<T: Word>(
        &mut self,
        buf: DeviceBuffer<T>,
        start: usize,
        active: usize,
    ) -> [T; WARP_SIZE] {
        let view = self.mem.view(buf);
        let mut out = [T::default(); WARP_SIZE];
        self.issue_simd(1, active);
        if active > 0 {
            let (words, first) = view.run(start, active);
            for (slot, word) in out.iter_mut().zip(words) {
                *slot = T::from_bits(word.load(Ordering::Relaxed));
            }
            let sectors = self.run_sectors(first, active);
            self.account_load(sectors);
        }
        out
    }

    /// Sectors of `active` consecutive words from byte address `first`,
    /// ascending: the order and the dedup [`push_sector`] arrives at when
    /// the lanes walk the same words one by one.
    #[inline]
    fn run_sectors(&self, first: u64, active: usize) -> Sectors<'static> {
        assert!(
            active <= WARP_SIZE,
            "a request has at most {WARP_SIZE} lanes"
        );
        let lo = self.geometry.sector_of(first);
        let hi = self.geometry.sector_of(first + (active as u64 - 1) * 4);
        Sectors::Run {
            first: lo,
            n: (hi - lo + 1) as usize,
        }
    }

    /// Load a single element, broadcast to the warp (all lanes read the
    /// same address: one sector, one request).
    pub fn ld_scalar<T: Word>(&mut self, buf: DeviceBuffer<T>, idx: usize) -> T {
        let (word, addr) = self.mem.view(buf).at(idx);
        let v = T::from_bits(word.load(Ordering::Relaxed));
        self.issue(1);
        self.account_load(Sectors::One(self.geometry.sector_of(addr)));
        v
    }

    /// Count a load request, whichever form built its sector list, and
    /// hand it to the pricing half. Inlined into each request, so a
    /// kernel's call sites are specialised (one sector, a range) rather
    /// than funnelled through one shared copy.
    #[inline]
    fn account_load(&mut self, sectors: Sectors<'_>) {
        let n = sectors.len() as u64;
        self.stats.mem_requests += 1;
        // LSU wavefront replays: one per sector, consuming issue slots.
        self.stats.issue_cycles += (n as f64 * self.cfg.lsu_cycles_per_sector) as u64;
        self.sink.request(Op::Load, sectors);
    }

    // ---- global memory: stores ----

    /// Coalescable warp store: `lane_val(lane)` yields `(index, value)` or
    /// `None` for inactive lanes. Stores are write-through with a write
    /// buffer: they consume bandwidth but do not stall the warp.
    pub fn st<T: Word>(
        &mut self,
        buf: DeviceBuffer<T>,
        mut lane_val: impl FnMut(usize) -> Option<(usize, T)>,
    ) {
        let view = self.mem.view(buf);
        let mut sectors: SectorSet = ([0; WARP_SIZE], 0);
        let mut active = 0usize;
        for lane in 0..WARP_SIZE {
            if let Some((idx, v)) = lane_val(lane) {
                let (word, addr) = view.at(idx);
                word.store(v.to_bits(), Ordering::Relaxed);
                push_sector(&mut sectors, self.geometry.sector_of(addr));
                active += 1;
            }
        }
        self.issue_simd(1, active);
        if active > 0 {
            self.account_store(Sectors::Set(&sectors.0[..sectors.1]));
        }
    }

    /// Coalesced warp store, run form: lane `l < active` writes `vals[l]`
    /// to element `start + l`. Same request, same accounting as
    /// [`Self::st`] over `|l| (l < active).then(|| (start + l, vals[l]))`.
    pub fn st_run<T: Word>(
        &mut self,
        buf: DeviceBuffer<T>,
        start: usize,
        active: usize,
        vals: &[T; WARP_SIZE],
    ) {
        let view = self.mem.view(buf);
        self.issue_simd(1, active);
        if active > 0 {
            let (words, first) = view.run(start, active);
            for (word, v) in words.iter().zip(vals) {
                word.store(v.to_bits(), Ordering::Relaxed);
            }
            let sectors = self.run_sectors(first, active);
            self.account_store(sectors);
        }
    }

    /// Count a store request and hand it on (see [`Self::account_load`]).
    #[inline]
    fn account_store(&mut self, sectors: Sectors<'_>) {
        let st = &mut self.stats;
        let n = sectors.len() as u64;
        st.store_requests += 1;
        st.store_sectors += n;
        st.issue_cycles += (n as f64 * self.cfg.lsu_cycles_per_sector) as u64;
        st.issue_cycles += (n - 1) * self.cfg.sector_issue_cycles;
        self.sink.request(Op::Store, sectors);
    }

    // ---- atomics ----

    /// Warp atomic float add: `lane_op(lane)` yields `(index, addend)` or
    /// `None`. Atomics bypass L1, round-trip to L2, and serialize between
    /// lanes that hit the same address.
    pub fn atomic_add_f32(
        &mut self,
        buf: DeviceBuffer<f32>,
        mut lane_op: impl FnMut(usize) -> Option<(usize, f32)>,
    ) {
        let view = self.mem.view(buf);
        let mut sectors: SectorSet = ([0; WARP_SIZE], 0);
        let mut addrs: ([u64; WARP_SIZE], usize) = ([0; WARP_SIZE], 0);
        let mut max_conflict = 0usize;
        let mut counts = [0u8; WARP_SIZE];
        let mut active = 0usize;
        for lane in 0..WARP_SIZE {
            if let Some((idx, v)) = lane_op(lane) {
                let (word, addr) = view.at(idx);
                mem::atomic_add_f32(word, v);
                push_sector(&mut sectors, self.geometry.sector_of(addr));
                let (abuf, n) = &mut addrs;
                match abuf[..*n].iter().position(|&a| a == addr) {
                    Some(p) => counts[p] += 1,
                    None => {
                        abuf[*n] = addr;
                        counts[*n] = 1;
                        *n += 1;
                    }
                }
                active += 1;
            }
        }
        for &c in &counts[..addrs.1] {
            max_conflict = max_conflict.max(c as usize);
        }
        self.issue_simd(1, active);
        if active > 0 {
            self.account_atomic(&sectors.0[..sectors.1], addrs.1, max_conflict);
        }
    }

    /// Single-lane atomic add on a `u32` (e.g. the software task-pool
    /// cursor of Algorithm 1). Returns the previous value.
    pub fn atomic_add_u32_scalar(&mut self, buf: DeviceBuffer<u32>, idx: usize, val: u32) -> u32 {
        let (word, addr) = self.mem.view(buf).at(idx);
        let old = mem::atomic_add_u32(word, val);
        self.issue_simd(1, 1);
        self.account_atomic(&[self.geometry.sector_of(addr)], 1, 1);
        old
    }

    /// Count an atomic request and hand it on (see [`Self::account_load`]).
    fn account_atomic(&mut self, sectors: &[u64], distinct: usize, conflict: usize) {
        let st = &mut self.stats;
        st.atomic_requests += 1;
        st.atomic_sectors += sectors.len() as u64;
        st.issue_cycles += (sectors.len() as f64 * self.cfg.lsu_cycles_per_sector) as u64;
        self.sink
            .request(Op::Atomic { distinct, conflict }, Sectors::Set(sectors));
    }

    // ---- shared memory and barriers ----

    /// Raw access to this block's shared memory. The caller is responsible
    /// for charging requests via [`WarpCtx::shared_access`]. Warps of one
    /// block execute sequentially on the simulated SM, so `&mut` access is
    /// race-free; ordering across warps still requires [`WarpCtx::sync_threads`]
    /// semantics at the algorithm level, as on hardware.
    pub fn shared(&mut self) -> &mut [f32] {
        self.shared
    }

    /// Account one warp-wide shared-memory access with bank-conflict
    /// modelling: the 32 banks are interleaved at word granularity, and a
    /// request replays once per extra *distinct word* mapped to the same
    /// bank (lanes reading the same word broadcast for free). Returns the
    /// conflict degree (1 = conflict-free).
    pub fn shared_access(&mut self, mut lane_word: impl FnMut(usize) -> Option<usize>) -> u32 {
        // Per bank, the distinct word addresses seen (at most 32 lanes).
        let mut bank_words: [([usize; WARP_SIZE], usize); 32] = [([0; WARP_SIZE], 0); 32];
        let mut active = 0usize;
        for lane in 0..WARP_SIZE {
            if let Some(word) = lane_word(lane) {
                active += 1;
                let (words, n) = &mut bank_words[word % 32];
                if !words[..*n].contains(&word) {
                    words[*n] = word;
                    *n += 1;
                }
            }
        }
        let conflicts = bank_words.iter().map(|(_, n)| *n).max().unwrap_or(0).max(1) as u32;
        self.stats.insts += 1;
        self.stats.issue_cycles += self.cfg.shared_latency * conflicts as u64;
        self.stats.active_lane_steps += active as u64;
        self.stats.total_lane_steps += WARP_SIZE as u64;
        conflicts
    }

    /// Block-wide barrier (`__syncthreads()`).
    pub fn sync_threads(&mut self) {
        self.stats.syncs += 1;
        self.stats.issue_cycles += self.cfg.sync_cycles;
        self.stats.insts += 1;
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;

    use super::*;
    use crate::cache::SectorCache;
    use crate::config::DeviceConfig;
    use crate::log::{replay, Spill, CHUNK_WORDS};
    use crate::price::{PriceState, WarpEnd};
    use proptest::prelude::*;

    /// The pricing half of a one-warp launch: a warp under test logs its
    /// requests, and whatever it has logged is replayed here when the
    /// test reads its counters.
    struct Replayer {
        cfg: DeviceConfig,
        geometry: SectorGeometry,
        caches: RefCell<(PriceState, SectorCache)>,
    }

    impl Spill for Replayer {
        fn spill(&self, chunk: &mut Vec<u64>) {
            let (state, l2) = &mut *self.caches.borrow_mut();
            replay(chunk, &mut Pricer::new(&self.cfg, self.geometry, l2, state));
            chunk.clear();
        }
    }

    impl Replayer {
        fn new(cfg: DeviceConfig, l1_bytes: usize, l2: SectorCache) -> Self {
            let state = PriceState::new(l1_bytes, cfg.sector_bytes, 1, 1);
            Self {
                geometry: SectorGeometry::new(cfg.sector_bytes),
                cfg,
                caches: RefCell::new((state, l2)),
            }
        }

        fn warp<'a>(&'a self, mem: &'a DeviceMemory, log: &'a mut Vec<u64>) -> WarpCtx<'a> {
            let id = WarpId {
                block_idx: 0,
                warp_in_block: 0,
                warps_per_block: 1,
            };
            let sink = Sink::Log(LogWriter::new(log, self));
            WarpCtx::new(mem, &self.cfg, self.geometry, &mut [], id, sink)
        }

        /// Replay what `w` has logged so far; its counters, both halves.
        fn settle(&self, w: &mut WarpCtx<'_>) -> WarpStats {
            if let Sink::Log(log) = &mut w.sink {
                log.flush();
            }
            let mut stats = w.stats;
            stats.merge(self.caches.borrow().0.warp());
            stats
        }

        /// Retire `w`, so the next warp starts from fresh counters.
        fn retire(&self, mut w: WarpCtx<'_>) {
            w.sink.mark(Mark::Warp(WarpEnd::of(&w.stats)));
            self.settle(&mut w);
        }

        /// `(hits, misses, evictions)` of the L1 and the L2.
        fn counts(&self) -> [(u64, u64, u64); 2] {
            let (state, l2) = &*self.caches.borrow();
            [state.l1(), l2].map(|c| (c.hits(), c.misses(), c.evictions()))
        }

        /// Whether a one-sector load of `sector` now hits in the L1, and
        /// whether (having missed there) it hits in the L2.
        fn serve(&self, sector: u64) -> (bool, bool) {
            let (state, l2) = &mut *self.caches.borrow_mut();
            let before = *state.warp();
            Pricer::new(&self.cfg, self.geometry, l2, state)
                .price(Op::Load, std::iter::once(sector));
            let after = state.warp();
            (
                after.l1_hit_sectors > before.l1_hit_sectors,
                after.l2_hit_sectors > before.l2_hit_sectors,
            )
        }
    }

    fn harness() -> (DeviceMemory, Replayer) {
        let cfg = DeviceConfig::test_small();
        let l2 = SectorCache::sliced(cfg.l2_bytes, cfg.sector_bytes);
        (
            DeviceMemory::new(),
            Replayer::new(cfg.clone(), cfg.l1_bytes, l2),
        )
    }

    fn log() -> Vec<u64> {
        Vec::with_capacity(CHUNK_WORDS)
    }

    #[test]
    fn coalesced_load_touches_four_sectors() {
        let (mut mem, r) = harness();
        let data: Vec<f32> = (0..32).map(|i| i as f32).collect();
        let buf = mem.alloc_from(&data);
        let mut log = log();
        let mut w = r.warp(&mem, &mut log);
        let vals = w.ld(buf, Some);
        assert_eq!(vals[5], 5.0);
        // 32 consecutive f32 = 128 bytes = 4 sectors of 32B.
        let s = r.settle(&mut w);
        assert_eq!(s.mem_requests, 1);
        assert_eq!(s.mem_sectors(), 4);
    }

    #[test]
    fn strided_load_is_uncoalesced() {
        let (mut mem, r) = harness();
        let data: Vec<f32> = (0..32 * 64).map(|i| i as f32).collect();
        let buf = mem.alloc_from(&data);
        let mut log = log();
        let mut w = r.warp(&mem, &mut log);
        // Stride of 64 floats = 256 bytes: every lane in its own sector.
        let _ = w.ld(buf, |lane| Some(lane * 64));
        let s = r.settle(&mut w);
        assert_eq!(s.mem_sectors(), 32);
        assert!(s.mem_lat_cycles > r.cfg.dram_latency);
    }

    #[test]
    fn repeated_scalar_load_hits_l1() {
        let (mut mem, r) = harness();
        let buf = mem.alloc_from(&[42.0f32]);
        let mut log = log();
        let mut w = r.warp(&mem, &mut log);
        let a = w.ld_scalar(buf, 0);
        let b = w.ld_scalar(buf, 0);
        assert_eq!((a, b), (42.0, 42.0));
        let s = r.settle(&mut w);
        assert_eq!(s.l1_hit_sectors, 1);
        assert_eq!(s.dram_sectors, 1);
    }

    #[test]
    fn row_locality_tracks_below_l1_stream() {
        let (mut mem, r) = harness();
        let data: Vec<f32> = (0..32 * 256).map(|i| i as f32).collect();
        let buf = mem.alloc_from(&data);
        let mut log = log();
        let mut w = r.warp(&mem, &mut log);
        // Streaming: 4 consecutive cold sectors share one 1 KiB row.
        let _ = w.ld(buf, Some);
        let s = r.settle(&mut w);
        assert_eq!(s.row_miss_sectors(), 1);
        assert_eq!(s.row_hit_sectors, 3);
        // Stride 256 floats = 1 KiB: every below-L1 lane lands in a fresh
        // row (lane 0 re-reads a sector still resident in the L1).
        let _ = w.ld(buf, |lane| Some(lane * 256));
        let s = r.settle(&mut w);
        assert_eq!(s.row_miss_sectors(), 1 + 31);
        assert_eq!(s.row_hit_sectors, 3);
    }

    #[test]
    fn store_writes_and_counts() {
        let (mut mem, r) = harness();
        let buf = mem.alloc::<f32>(32);
        let mut log = log();
        let mut w = r.warp(&mem, &mut log);
        w.st(buf, |lane| Some((lane, lane as f32 * 2.0)));
        let s = r.settle(&mut w);
        assert_eq!(s.store_requests, 1);
        assert_eq!(s.store_sectors, 4);
        let _ = w;
        assert_eq!(mem.read_vec(buf)[31], 62.0);
    }

    /// Everything a sequence of requests leaves behind that the model can
    /// see: the lanes each load returned, the buffer's final contents,
    /// every `WarpStats` field, `(hits, misses, evictions)` of the L1 and
    /// the L2, and which level serves each load of a follow-up stream —
    /// which depends on recency order within each set, not just on counts.
    type Observed = (
        Vec<[u32; WARP_SIZE]>,
        Vec<u32>,
        String,
        [(u64, u64, u64); 2],
        Vec<(bool, bool)>,
    );

    /// Drive `(is_store, start, active)` requests over a `len`-word buffer
    /// through the run form or through the closure form it replaces.
    fn drive(
        sector_bytes: usize,
        len: usize,
        ops: &[(bool, usize, usize)],
        run_form: bool,
    ) -> Observed {
        let cfg = DeviceConfig {
            sector_bytes,
            ..DeviceConfig::test_small()
        };
        let mut mem = DeviceMemory::new();
        let data: Vec<u32> = (0..len as u32)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect();
        let buf = mem.alloc_from(&data);
        // Eight sectors of L1 and the smallest L2: requests evict.
        let r = Replayer::new(cfg, 8 * sector_bytes, SectorCache::sliced(0, sector_bytes));
        let mut log = log();
        let mut w = r.warp(&mem, &mut log);
        let mut lanes = Vec::new();
        for (i, &(is_store, start, active)) in ops.iter().enumerate() {
            let vals: [u32; WARP_SIZE] = std::array::from_fn(|l| (i * WARP_SIZE + l) as u32);
            match (is_store, run_form) {
                (false, true) => lanes.push(w.ld_run(buf, start, active)),
                (false, false) => lanes.push(w.ld(buf, |l| (l < active).then(|| start + l))),
                (true, true) => w.st_run(buf, start, active, &vals),
                (true, false) => w.st(buf, |l| (l < active).then(|| (start + l, vals[l]))),
            }
        }
        let stats = format!("{:?}", r.settle(&mut w));
        let counts = r.counts();
        let first = mem.view(buf).at(0).1 / sector_bytes as u64;
        let span = (len * 4).div_ceil(sector_bytes) as u64 + 16;
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let follow_up = (0..512)
            .map(|_| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                r.serve(first.saturating_sub(8) + (x >> 33) % span)
            })
            .collect();
        let _ = w;
        (lanes, mem.read_vec(buf), stats, counts, follow_up)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The run form is the closure form over a contiguous prefix: same
        /// lanes, same memory, same counters, same cache state.
        #[test]
        fn run_form_equals_closure_form(
            width in 0usize..5,
            len in 32usize..700,
            raw_ops in proptest::collection::vec((any::<bool>(), 0usize..4096, 0usize..=32), 1..24),
        ) {
            // 32 B is every stock device; 24 and 48 do not divide the
            // 256 B allocation alignment evenly; 4 is one word per sector.
            let sector_bytes = [32, 24, 48, 64, 4][width];
            let ops: Vec<_> = raw_ops
                .into_iter()
                .map(|(is_store, start, active)| (is_store, start % (len - active + 1), active))
                .collect();
            prop_assert_eq!(
                drive(sector_bytes, len, &ops, true),
                drive(sector_bytes, len, &ops, false)
            );
        }
    }

    #[test]
    fn empty_run_charges_an_issue_slot_and_no_request() {
        let (mut mem, r) = harness();
        let buf = mem.alloc::<f32>(8);
        let mut log = log();
        let mut w = r.warp(&mem, &mut log);
        // Past the end, but no lane is active: nothing is touched.
        assert_eq!(w.ld_run(buf, 100, 0), [0.0; WARP_SIZE]);
        w.st_run(buf, 100, 0, &[1.0; WARP_SIZE]);
        let s = r.settle(&mut w);
        assert_eq!((s.insts, s.issue_cycles), (2, 2));
        assert_eq!((s.active_lane_steps, s.total_lane_steps), (0, 64));
        assert_eq!((s.mem_requests, s.store_requests), (0, 0));
        assert_eq!((s.mem_sectors(), s.store_sectors), (0, 0));
        let _ = w;
        let [l1, l2] = r.counts();
        assert_eq!((l1.1, l2.1), (0, 0));
        assert_eq!(mem.read_vec(buf), vec![0.0; 8]);
    }

    #[test]
    #[should_panic(expected = "illegal device memory access")]
    fn run_load_past_the_end_is_an_illegal_access() {
        let (mut mem, r) = harness();
        let buf = mem.alloc::<f32>(40);
        let mut log = log();
        let mut w = r.warp(&mem, &mut log);
        let _ = w.ld_run(buf, 32, 9);
    }

    #[test]
    #[should_panic(expected = "illegal device memory access")]
    fn run_store_past_the_end_is_an_illegal_access() {
        let (mut mem, r) = harness();
        let buf = mem.alloc::<f32>(40);
        let mut log = log();
        let mut w = r.warp(&mem, &mut log);
        w.st_run(buf, 39, 2, &[0.0; WARP_SIZE]);
    }

    #[test]
    fn atomic_conflict_serializes() {
        let (mut mem, r) = harness();
        let buf = mem.alloc::<f32>(1);
        let mut log = log();
        let mut w = r.warp(&mem, &mut log);
        // All 32 lanes add to the same address: worst-case conflict.
        w.atomic_add_f32(buf, |_| Some((0, 1.0)));
        let s = r.settle(&mut w);
        assert_eq!(s.atomic_requests, 1);
        let cfg = &r.cfg;
        assert!(s.atomic_lat_cycles >= cfg.atomic_latency + 31 * cfg.atomic_conflict_cycles);
        let _ = w;
        assert_eq!(mem.read_vec(buf)[0], 32.0);
    }

    #[test]
    fn atomic_disjoint_cheaper_than_conflicting() {
        let (mut mem, r) = harness();
        let buf = mem.alloc::<f32>(64);
        let mut log = log();
        let mut w1 = r.warp(&mem, &mut log);
        w1.atomic_add_f32(buf, |lane| Some((lane, 1.0)));
        let disjoint = r.settle(&mut w1).atomic_lat_cycles;
        r.retire(w1);
        let mut w2 = r.warp(&mem, &mut log);
        w2.atomic_add_f32(buf, |_| Some((0, 1.0)));
        assert!(r.settle(&mut w2).atomic_lat_cycles > disjoint);
    }

    #[test]
    fn divergence_tracked() {
        let (mem, r) = harness();
        let mut log = log();
        let mut w = r.warp(&mem, &mut log);
        w.issue_simd(10, 8);
        let s = r.settle(&mut w);
        assert_eq!(s.active_lane_steps, 80);
        assert_eq!(s.total_lane_steps, 320);
    }

    #[test]
    fn shared_bank_conflicts_counted() {
        let (mem, r) = harness();
        let mut log = log();
        let mut w = r.warp(&mem, &mut log);
        // Consecutive words: one word per bank, conflict-free.
        assert_eq!(w.shared_access(Some), 1);
        // Stride 32: every lane in bank 0 with a distinct word: 32-way.
        assert_eq!(w.shared_access(|l| Some(l * 32)), 32);
        // Same word for all lanes: broadcast, conflict-free.
        assert_eq!(w.shared_access(|_| Some(64)), 1);
        // Stride 2: two words per bank across 16 banks: 2-way.
        assert_eq!(w.shared_access(|l| Some(l * 2)), 2);
    }

    #[test]
    fn task_pool_cursor_behaves() {
        let (mut mem, r) = harness();
        let cursor = mem.alloc::<u32>(1);
        let mut log = log();
        let mut w = r.warp(&mem, &mut log);
        assert_eq!(w.atomic_add_u32_scalar(cursor, 0, 8), 0);
        assert_eq!(w.atomic_add_u32_scalar(cursor, 0, 8), 8);
        assert_eq!(w.atomic_add_u32_scalar(cursor, 0, 8), 16);
    }
}
