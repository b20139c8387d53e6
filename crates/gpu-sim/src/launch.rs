//! The device: owns memory and the L2, executes kernels (functionally, one
//! warp at a time on the calling thread), records each launch's ledger
//! ([`Accounting`]) and reads a [`KernelProfile`] off it via the analytic
//! cost model.
//!
//! # Execution, log, replay
//!
//! Blocks are *executed* by one loop over simulated SM workers: worker `w`
//! of `W` runs blocks `w, w + W, w + 2W, …` to completion before worker
//! `w + 1` starts (blocks of one worker share a simulated L1). Every warp
//! runs on the calling thread, so a kernel sees device memory exactly as
//! the sequential order leaves it.
//!
//! Each request is *priced* — looked up in the L1/L2 models, charged its
//! latency — by one function, `Pricer::price`, and each retired warp,
//! block and worker is closed by `Pricer::mark`. A launch prices inline,
//! request by request, until it shows itself large (`PIPELINE_REQUESTS`:
//! a quarter of it executed, all of it projected); from that worker
//! boundary on, the warps instead append their requests to a bounded log
//! (`log.rs`) that a parked helper of
//! `tlpgnn_tensor::pool` replays through the same two functions while the
//! caller executes on. A busy pool (a nested call, another thread's launch
//! or job) keeps the launch inline. Serving launches stay below the size
//! rule; full-graph convolutions cross it.
//!
//! The fixed replay order, not the thread it runs on, is the simulator's
//! determinism: the log is replayed in exactly the worker → block → warp
//! → request order the inline path prices in, so every cache sees one
//! access stream — the same on every run, every machine and either
//! schedule — and every counter comes out bit for bit the same. Only one
//! party prices at a time, which is why no cache is locked.
//!
//! Blocks' *placement* for the cost model is computed afterwards by
//! deterministic greedy list scheduling — each block, in launch order,
//! goes to the SM with the least accumulated work — which is exactly the
//! fixed point of the hardware's dynamic block distributor and is what
//! lets a grid with a few enormous blocks (hub vertices) still balance
//! across SMs.
//!
//! Execution merges every warp's cache-independent counters, pricing the
//! rest, into the ledger; the scheduler fills the ledger's per-SM totals
//! ([`SmAccounting`]) directly. Nothing else is recorded: every metric of
//! the profile, the limiter and the hardware counters are functions of
//! that one record.
//!
//! # Cost model
//!
//! Each warp's trace yields issue cycles, memory stall cycles, and
//! bandwidth sectors; per block we also track the slowest warp (a block
//! holds all its warp slots until that warp retires). For the set of
//! blocks scheduled on one SM ([`SmAccounting::cost`], the one place this
//! is written):
//!
//! ```text
//! sm_time = max( Σ issue_cycles / issue_ipc,              (issue throughput)
//!                Σ weighted_sectors × sector_bw_cycles,   (memory bandwidth;
//!                                                          atomic sectors cost
//!                                                          atomic_bw_factor ×)
//!                Σ_blocks wpb × max_warp_in_block
//!                      / resident_warps,                  (latency hiding with
//!                                                          block-granularity
//!                                                          slot release)
//!                max warp_cycles )                        (critical path)
//!           + blocks × block_sched_cycles                 (HW scheduling)
//! ```
//!
//! Kernel GPU time is the max over SMs ([`Accounting::critical_sm`]), whose
//! terms are the profile's limiter; end-to-end runtime adds the host
//! launch overhead. A warp's serial time overlaps its own outstanding
//! loads: `warp_cycles = issue + mem_lat/warp_mlp + atomic_lat/atomic_mlp`.
//!
//! This reproduces, to first order, every effect the paper measures:
//! atomic-heavy kernels inflate traffic and serialized throughput;
//! uncoalesced kernels inflate sectors and latency; launching many kernels
//! pays overhead and re-reads intermediates; low occupancy leaves latency
//! unhidden; and skewed workload assignments inflate the slot and
//! critical-path terms.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};

use telemetry::{BlockSlice, KernelSample, SimKernelTimeline, SmTimeline, MAX_BLOCK_EVENTS};
use tlpgnn_tensor::pool;

use crate::cache::SectorCache;
use crate::config::DeviceConfig;
use crate::fault::{FaultEvent, FaultKind, LaunchError};
use crate::kernel::{Kernel, LaunchConfig};
use crate::log::{Log, Producer};
use crate::mem::{DeviceMemory, SectorGeometry};
use crate::price::{BlockCost, Mark, PriceState, Pricer, WarpEnd};
use crate::profile::{Accounting, KernelProfile, SmAccounting};
use crate::warp::{Sink, WarpCtx, WarpId, WarpStats};

/// Launch size, in requests, from which pricing is pipelined: above every
/// serving launch (the largest, a dense layer over a batch's ego graphs,
/// runs about 0.65 M), well below a full-graph convolution (3 M and
/// more), where the hand-off costs nothing next to the launch. A launch
/// hands its pricing to the replay at the first SM-worker boundary where,
/// at the rate of the workers done so far, it will execute this many, and
/// has executed a quarter of them: the projection lets a full-graph
/// launch leave only its first few workers inline, and the floor keeps a
/// small launch whose first workers are its busiest (an ego graph's
/// targets come first) from projecting itself large.
const PIPELINE_REQUESTS: u64 = 1 << 20;

/// How a launch's requests are priced. Only the schedule-equivalence tests
/// choose anything but [`Schedule::Auto`] (through [`with_schedule`]); the
/// results are bitwise the same under all three.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Schedule {
    /// Inline until the launch shows itself large (`PIPELINE_REQUESTS`),
    /// then pipelined if the pool has a free helper.
    #[default]
    Auto,
    /// Every request priced as it is issued.
    Inline,
    /// Every request logged and replayed — by a pool helper if one is
    /// free, else by the calling thread.
    Pipelined,
}

thread_local! {
    static SCHEDULE: Cell<Schedule> = const { Cell::new(Schedule::Auto) };
}

/// Run `f` with every launch made on this thread priced under `schedule`.
#[doc(hidden)]
pub fn with_schedule<R>(schedule: Schedule, f: impl FnOnce() -> R) -> R {
    struct Restore(Schedule);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCHEDULE.with(|s| s.set(self.0));
        }
    }
    let _restore = Restore(SCHEDULE.with(|s| s.replace(schedule)));
    f()
}

/// Who replays a pipelined launch's log.
enum Replay {
    /// A pool helper, next to the calling thread's execution.
    Helper(pool::Reserved),
    /// The calling thread: between chunks when the log is full, and the
    /// rest after execution (no helper was free).
    Caller,
}

impl Schedule {
    /// Whether the launch hands pricing over to a replay at this worker
    /// boundary, `workers_done` of its `workers` having executed `done`,
    /// and to whom.
    fn replay_from_here(
        self,
        done: &WarpStats,
        workers_done: usize,
        workers: usize,
    ) -> Option<Replay> {
        match self {
            Schedule::Inline => None,
            Schedule::Auto => {
                let executed = done.mem_requests + done.store_requests + done.atomic_requests;
                let projected = executed * workers as u64 / workers_done.max(1) as u64;
                (executed >= PIPELINE_REQUESTS / 4 && projected >= PIPELINE_REQUESTS)
                    .then(pool::reserve)
                    .flatten()
                    .map(Replay::Helper)
            }
            Schedule::Pipelined => Some(pool::reserve().map_or(Replay::Caller, Replay::Helper)),
        }
    }
}

/// The functional half of a launch: runs the warps in the fixed worker →
/// block → warp order, handing every request and boundary to a [`Sink`].
struct Executor<'l> {
    kernel: &'l dyn Kernel,
    mem: &'l DeviceMemory,
    cfg: &'l DeviceConfig,
    geometry: SectorGeometry,
    grid: usize,
    workers: usize,
    warps_per_block: usize,
}

impl Executor<'_> {
    /// Run SM worker `worker`'s blocks, merging every warp's
    /// cache-independent counters into `done`.
    fn run_worker(
        &self,
        worker: usize,
        shared: &mut [f32],
        sink: &mut Sink<'_>,
        done: &mut WarpStats,
    ) {
        for block in (worker..self.grid).step_by(self.workers) {
            shared.fill(0.0);
            for warp in 0..self.warps_per_block {
                let id = WarpId {
                    block_idx: block,
                    warp_in_block: warp,
                    warps_per_block: self.warps_per_block,
                };
                let mut ctx = WarpCtx::new(
                    self.mem,
                    self.cfg,
                    self.geometry,
                    shared,
                    id,
                    sink.reborrow(),
                );
                self.kernel.run_warp(&mut ctx);
                let stats = ctx.stats;
                done.merge(&stats);
                sink.mark(Mark::Warp(WarpEnd::of(&stats)));
            }
            sink.mark(Mark::Block(block));
        }
        sink.mark(Mark::Worker);
    }
}

/// Process-wide device id source, so telemetry can tell multiple
/// simulated devices (multi-GPU runs) apart in one trace.
static NEXT_DEVICE_ID: AtomicU64 = AtomicU64::new(0);

/// A simulated GPU device.
pub struct Device {
    cfg: DeviceConfig,
    mem: DeviceMemory,
    /// A launch holds `&mut self` and reaches the cache directly; the cell
    /// is there only so [`Self::flush_l2`] works through `&self`. A device
    /// is driven by one thread at a time (`Send`, not `Sync`).
    l2: RefCell<SectorCache>,
    launches: u64,
    id: u64,
    /// Simulated wall clock, µs: launches lay out sequentially on the
    /// device's timeline for trace export.
    sim_clock_us: f64,
    /// Launch *attempts* consulted against the fault plan (failed launches
    /// count too, so a retried launch rolls a fresh fault decision).
    fault_attempts: u64,
    /// Set once the fault plan declares the device permanently lost;
    /// every launch from then on fails with [`LaunchError::DeviceLost`].
    lost: bool,
    /// Every fault this device injected, in attempt order.
    fault_log: Vec<FaultEvent>,
}

impl Device {
    /// Create a device with the given configuration.
    pub fn new(cfg: DeviceConfig) -> Self {
        let l2 = RefCell::new(SectorCache::sliced(cfg.l2_bytes, cfg.sector_bytes));
        Self {
            cfg,
            mem: DeviceMemory::new(),
            l2,
            launches: 0,
            id: NEXT_DEVICE_ID.fetch_add(1, Ordering::Relaxed),
            sim_clock_us: 0.0,
            fault_attempts: 0,
            lost: false,
            fault_log: Vec::new(),
        }
    }

    /// A V100-like device (the paper's testbed).
    pub fn v100() -> Self {
        Self::new(DeviceConfig::v100())
    }

    /// Device configuration.
    pub fn cfg(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Mutable access to device memory (allocation, host copies).
    pub fn mem_mut(&mut self) -> &mut DeviceMemory {
        &mut self.mem
    }

    /// Shared access to device memory (reads, fills).
    pub fn mem(&self) -> &DeviceMemory {
        &self.mem
    }

    /// Kernels launched since creation.
    pub fn launches(&self) -> u64 {
        self.launches
    }

    /// Simulated device clock, µs (advances by each launch's runtime).
    pub fn sim_clock_us(&self) -> f64 {
        self.sim_clock_us
    }

    /// Drop all cached state in the L2 (e.g. between experiments).
    pub fn flush_l2(&self) {
        self.l2.borrow_mut().reset();
    }

    /// Whether the fault plan has permanently killed this device.
    pub fn is_lost(&self) -> bool {
        self.lost
    }

    /// Every fault injected so far, in launch-attempt order. The log is a
    /// deterministic function of the fault plan and the attempt sequence,
    /// so two identical runs produce identical logs.
    pub fn fault_events(&self) -> &[FaultEvent] {
        &self.fault_log
    }

    /// Launch a kernel and return its profile.
    ///
    /// Panics if the launch geometry violates device limits (mirroring a
    /// CUDA launch failure) or if the device's fault plan injects a fault
    /// — callers that configure faults must use [`Self::try_launch`].
    pub fn launch(&mut self, kernel: &dyn Kernel, lc: LaunchConfig) -> KernelProfile {
        self.try_launch(kernel, lc)
            .unwrap_or_else(|e| panic!("unhandled launch fault: {e}"))
    }

    /// Launch a kernel, consulting the device's `FaultPlan`
    /// (`crate::FaultPlan`) first.
    ///
    /// A transient fault aborts the launch *before* any execution —
    /// device memory and caches are untouched, so retrying the same
    /// launch is always sound. A straggler executes normally, then has
    /// its modelled times scaled by the plan's factor (functional output
    /// is still correct; the event is recorded on the profile). Once the
    /// plan declares the device lost, every subsequent launch fails.
    ///
    /// With the empty plan this is exactly the historical launch path:
    /// one `is_none` branch, no extra state, bitwise-identical profiles.
    pub fn try_launch(
        &mut self,
        kernel: &dyn Kernel,
        lc: LaunchConfig,
    ) -> Result<KernelProfile, LaunchError> {
        let mut straggler: Option<FaultEvent> = None;
        if !self.cfg.fault.is_none() || self.lost {
            if self.lost {
                return Err(LaunchError::DeviceLost);
            }
            let attempt = self.fault_attempts;
            self.fault_attempts += 1;
            match self.cfg.fault.decide(attempt) {
                None => {}
                Some(kind @ FaultKind::DeviceLost) => {
                    self.lost = true;
                    self.record_fault(attempt, kind, kernel.name());
                    return Err(LaunchError::DeviceLost);
                }
                Some(kind @ FaultKind::Transient) => {
                    self.record_fault(attempt, kind, kernel.name());
                    return Err(LaunchError::TransientFault { launch: attempt });
                }
                Some(kind @ FaultKind::Straggler { .. }) => {
                    straggler = Some(self.record_fault(attempt, kind, kernel.name()));
                }
            }
        }
        let mut p = self.execute(kernel, lc);
        if let Some(event) = straggler {
            let FaultKind::Straggler { factor } = event.kind else {
                unreachable!()
            };
            let extra_ms = p.gpu_time_ms * (factor - 1.0);
            p.gpu_cycles *= factor;
            p.gpu_time_ms *= factor;
            p.runtime_ms += extra_ms;
            // The clock already advanced by the fault-free runtime inside
            // `finish_profile`; stretch it by the slowdown.
            self.sim_clock_us += extra_ms * 1e3;
            p.injected_fault = Some(event);
        }
        Ok(p)
    }

    fn record_fault(&mut self, attempt: u64, kind: FaultKind, kernel: &str) -> FaultEvent {
        let event = FaultEvent {
            launch: attempt,
            kind,
            kernel: kernel.to_string(),
            // Tag the injection with the request that drove this launch
            // (the serve worker marks its batch leader before computing).
            trace: telemetry::trace::current(),
        };
        telemetry::counter_add(&format!("sim.fault.{}", kind.label()), 1);
        self.fault_log.push(event.clone());
        event
    }

    /// The fault-free launch path: execute every warp, recording the
    /// launch ledger, and build the profile from it.
    fn execute(&mut self, kernel: &dyn Kernel, lc: LaunchConfig) -> KernelProfile {
        assert!(
            lc.block_threads >= 1 && lc.block_threads <= self.cfg.max_threads_per_block,
            "invalid block size {}",
            lc.block_threads
        );
        self.launches += 1;
        let warps_per_block = lc.warps_per_block();
        let mut acc = Accounting {
            warps_per_block: warps_per_block as u64,
            resident_warps: self.resident_warps(kernel, lc),
            ..Accounting::default()
        };
        if lc.grid_blocks == 0 {
            return self.finish_profile(kernel, lc, acc, Vec::new());
        }

        let shared_f32 = kernel.shared_f32_per_block();
        assert!(
            shared_f32 * 4 <= self.cfg.shared_mem_per_sm,
            "kernel requests more shared memory than the SM has"
        );

        let grid = lc.grid_blocks;
        // The simulator executes one warp at a time per worker, which
        // would give every warp the whole L1 to itself; on hardware the
        // L1 is shared by all resident warps. Model that contention by
        // sizing each worker's cache to one resident warp's share.
        let l1_eff = (self.cfg.l1_bytes as f64 / acc.resident_warps).max(2048.0) as usize;

        let cfg = &self.cfg;
        let l2 = self.l2.get_mut();
        let geometry = SectorGeometry::new(cfg.sector_bytes);
        let exec = Executor {
            kernel,
            mem: &self.mem,
            cfg,
            geometry,
            grid,
            workers: cfg.num_sms.min(grid),
            warps_per_block,
        };
        let mut state = PriceState::new(l1_eff, cfg.sector_bytes, grid, warps_per_block);
        let mut done = WarpStats::default();
        let mut shared = vec![0.0f32; shared_f32];

        // Price inline until the schedule hands the rest of the launch to
        // a replay, at a worker boundary.
        let schedule = SCHEDULE.with(Cell::get);
        let mut worker = 0;
        let mut replay = None;
        {
            let mut sink = Sink::Price(Pricer::new(cfg, geometry, l2, &mut state));
            while worker < exec.workers {
                replay = schedule.replay_from_here(&done, worker, exec.workers);
                if replay.is_some() {
                    break;
                }
                exec.run_worker(worker, &mut shared, &mut sink, &mut done);
                worker += 1;
            }
        }
        if let Some(replay) = replay {
            telemetry::counter_add("sim.launch.pipelined", 1);
            let log = Log::new(cfg, geometry, l2, state);
            let mut execute = || {
                let mut producer = Producer::new(&log);
                let mut sink = Sink::Log(producer.writer());
                for w in worker..exec.workers {
                    exec.run_worker(w, &mut shared, &mut sink, &mut done);
                }
            };
            match replay {
                Replay::Helper(pool) => pool.alongside(|| log.replay_all(), execute),
                Replay::Caller => {
                    execute();
                    log.replay_all();
                }
            }
            state = log.finish();
        }

        let (priced, l1_evictions, blocks) = state.finish();
        acc.warps = done;
        acc.warps.merge(&priced);
        acc.l1_evictions = l1_evictions;
        self.finish_profile(kernel, lc, acc, blocks)
    }

    /// Resident warps per SM for this kernel/launch (registers, warp
    /// slots, shared memory, and the hard block cap all considered).
    fn resident_warps(&self, kernel: &dyn Kernel, lc: LaunchConfig) -> f64 {
        let cfg = &self.cfg;
        let shared_bytes = kernel.shared_f32_per_block() * 4;
        let mut resident_blocks = cfg.resident_blocks(kernel.regs_per_thread(), lc.block_threads);
        if shared_bytes > 0 {
            resident_blocks = resident_blocks
                .min(cfg.shared_mem_per_sm / shared_bytes.max(1))
                .max(1);
        }
        (resident_blocks * lc.warps_per_block())
            .min(cfg.max_warps_per_sm)
            .max(1) as f64
    }

    /// Place the executed blocks on SMs, completing the ledger, and read
    /// the profile off it.
    fn finish_profile(
        &mut self,
        kernel: &dyn Kernel,
        lc: LaunchConfig,
        mut acc: Accounting,
        blocks: Vec<BlockCost>,
    ) -> KernelProfile {
        let cfg = &self.cfg;

        // Greedy list scheduling of blocks onto SMs: each block (in launch
        // order) goes to the SM with the least accumulated slot time —
        // the deterministic fixed point of the hardware block distributor.
        acc.sm = vec![SmAccounting::default(); cfg.num_sms];
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
            (0..cfg.num_sms).map(|i| Reverse((0u64, i))).collect();
        // `(sm, block, start_cycles, end_cycles)` of every block, for the
        // per-SM trace track; only telemetry reads it.
        let mut placements = telemetry::enabled().then(|| Vec::with_capacity(blocks.len()));
        for (idx, b) in blocks.iter().enumerate() {
            let Reverse((load, i)) = heap.pop().expect("bins nonempty");
            let sm = &mut acc.sm[i];
            sm.issue_cycles += b.issue_cycles;
            sm.bw_sectors += b.bw_sectors;
            sm.slot_cycles += b.slot_cycles;
            sm.max_warp_cycles = sm.max_warp_cycles.max(b.max_warp);
            sm.blocks += 1;
            if let Some(placements) = placements.as_mut() {
                placements.push((i, idx as u32, load, load + b.slot_cycles));
            }
            heap.push(Reverse((load + b.slot_cycles + cfg.block_sched_cycles, i)));
        }

        let (gpu_cycles, limiter) = acc.critical_sm(cfg);
        let gpu_time_ms = cfg.cycles_to_ms(gpu_cycles);
        let denom_cycles = gpu_cycles.max(1.0);
        let num_sms = cfg.num_sms as f64;
        let sector = cfg.sector_bytes as u64;
        let sum_slots: u64 = acc.sm.iter().map(|sm| sm.slot_cycles).sum();
        let max_slot = acc.sm.iter().map(|sm| sm.slot_cycles).max().unwrap_or(0);
        let blocks_run = lc.grid_blocks as u64;

        let w = &acc.warps;

        let profile = KernelProfile {
            name: kernel.name().to_string(),
            grid_blocks: lc.grid_blocks,
            block_threads: lc.block_threads,
            gpu_cycles,
            gpu_time_ms,
            runtime_ms: gpu_time_ms + cfg.kernel_launch_us / 1e3,
            sm_utilization: (w.issue_cycles as f64 / cfg.issue_ipc) / (num_sms * denom_cycles),
            // Achieved occupancy = configured residency × load balance:
            // warps stay resident for their block's whole duration, so a
            // fully balanced launch achieves its configured occupancy and
            // imbalance (idle SMs waiting on stragglers) lowers it.
            achieved_occupancy: if max_slot == 0 {
                0.0
            } else {
                (acc.resident_warps / cfg.max_warps_per_sm as f64)
                    * (sum_slots as f64 / (num_sms * max_slot as f64))
            },
            simd_efficiency: if w.total_lane_steps == 0 {
                1.0
            } else {
                w.active_lane_steps as f64 / w.total_lane_steps as f64
            },
            sectors_per_request: w.mem_sectors() as f64 / w.mem_requests.max(1) as f64,
            stall_long_scoreboard: (w.mem_lat_cycles + w.atomic_lat_cycles) as f64
                / w.insts.max(1) as f64,
            l1_hit_rate: if w.mem_sectors() == 0 {
                0.0
            } else {
                w.l1_hit_sectors as f64 / w.mem_sectors() as f64
            },
            l2_hit_rate: if w.below_l1_sectors() == 0 {
                0.0
            } else {
                w.l2_hit_sectors as f64 / w.below_l1_sectors() as f64
            },
            load_bytes: w.below_l1_sectors() * sector,
            dram_load_bytes: w.dram_sectors * sector,
            store_bytes: w.store_sectors * sector,
            atomic_bytes: w.atomic_sectors * sector,
            mem_requests: w.mem_requests,
            atomic_requests: w.atomic_requests,
            insts: w.insts,
            warps_run: blocks_run * acc.warps_per_block,
            blocks_run,
            peak_mem_bytes: self.mem.peak_bytes(),
            limiter,
            accounting: acc,
            injected_fault: None,
        };

        if let Some(placements) = placements {
            self.publish_telemetry(&profile, placements);
        }
        self.sim_clock_us += profile.runtime_ms * 1e3;
        profile
    }

    /// Feed one finished launch into the global telemetry collector:
    /// scalar metrics plus the per-SM block timeline derived from the
    /// list schedule. Only called when collection is enabled.
    fn publish_telemetry(&self, profile: &KernelProfile, placements: Vec<(usize, u32, u64, u64)>) {
        let cfg = &self.cfg;
        telemetry::record_kernel(KernelSample {
            name: profile.name.clone(),
            gpu_time_ms: profile.gpu_time_ms,
            runtime_ms: profile.runtime_ms,
            sectors_per_request: profile.sectors_per_request,
            achieved_occupancy: profile.achieved_occupancy,
            sm_utilization: profile.sm_utilization,
            limiter: profile.limiter.name().to_string(),
        });
        for (counter, v) in profile.accounting.hw(cfg).scalar_counters() {
            telemetry::counter_add(&format!("kernel.{}.hw.{counter}", profile.name), v);
        }

        let to_us = |cycles: u64| cfg.cycles_to_ms(cycles as f64) * 1e3;
        let mut sms: Vec<SmTimeline> = (0..cfg.num_sms)
            .map(|sm| SmTimeline {
                sm: sm as u32,
                blocks: Vec::new(),
            })
            .collect();
        let truncated = placements.len() > MAX_BLOCK_EVENTS;
        if truncated {
            // Collapse each SM's schedule to one busy envelope so huge
            // grids stay loadable in the trace viewer.
            let mut span: Vec<Option<(u64, u64)>> = vec![None; cfg.num_sms];
            for (sm, _, start, end) in placements {
                let s = span[sm].get_or_insert((start, end));
                s.0 = s.0.min(start);
                s.1 = s.1.max(end);
            }
            for (sm, s) in span.into_iter().enumerate() {
                if let Some((start, end)) = s {
                    sms[sm].blocks.push(BlockSlice {
                        block: u32::MAX,
                        start_us: to_us(start),
                        dur_us: to_us(end - start),
                    });
                }
            }
        } else {
            for (sm, block, start, end) in placements {
                sms[sm].blocks.push(BlockSlice {
                    block,
                    start_us: to_us(start),
                    dur_us: to_us(end - start),
                });
            }
        }
        sms.retain(|t| !t.blocks.is_empty());
        telemetry::record_sim_timeline(SimKernelTimeline {
            device: self.id,
            kernel: profile.name.clone(),
            launch_seq: self.launches,
            t0_us: self.sim_clock_us,
            gpu_time_us: profile.gpu_time_ms * 1e3,
            sms,
            truncated,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::DeviceBuffer;

    /// y[i] = x[i] * 2 over one warp per 32 elements.
    struct Double {
        x: DeviceBuffer<f32>,
        y: DeviceBuffer<f32>,
        n: usize,
    }

    impl Kernel for Double {
        fn name(&self) -> &str {
            "double"
        }
        fn run_warp(&self, w: &mut WarpCtx<'_>) {
            let base = w.global_warp() * 32;
            let n = self.n;
            let vals = w.ld(self.x, |lane| {
                let i = base + lane;
                (i < n).then_some(i)
            });
            w.issue(1);
            w.st(self.y, |lane| {
                let i = base + lane;
                (i < n).then_some((i, vals[lane] * 2.0))
            });
        }
    }

    #[test]
    fn functional_and_profiled() {
        let mut dev = Device::new(DeviceConfig::test_small());
        let n = 1000;
        let xs: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let x = dev.mem_mut().alloc_from(&xs);
        let y = dev.mem_mut().alloc::<f32>(n);
        let k = Double { x, y, n };
        let lc = LaunchConfig::warp_per_item(n.div_ceil(32), 128);
        let p = dev.launch(&k, lc);
        let out = dev.mem().read_vec(y);
        assert!(out.iter().enumerate().all(|(i, &v)| v == 2.0 * i as f32));
        assert!(p.gpu_time_ms > 0.0);
        assert!(p.runtime_ms > p.gpu_time_ms);
        assert!(p.mem_requests >= (n / 32) as u64);
        assert!(p.sectors_per_request <= 4.5);
        assert_eq!(p.blocks_run as usize, lc.grid_blocks);
    }

    #[test]
    fn launch_is_deterministic() {
        let run = || {
            let mut dev = Device::new(DeviceConfig::test_small());
            let n = 4096;
            let xs: Vec<f32> = (0..n).map(|i| (i % 97) as f32).collect();
            let x = dev.mem_mut().alloc_from(&xs);
            let y = dev.mem_mut().alloc::<f32>(n);
            let k = Double { x, y, n };
            let p = dev.launch(&k, LaunchConfig::warp_per_item(n / 32, 256));
            (p.gpu_cycles, p.l1_hit_rate, p.load_bytes)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn hw_counters_bitwise_deterministic_and_conserving() {
        let cfg = DeviceConfig::test_small();
        let run = || {
            let mut dev = Device::new(cfg.clone());
            let n = 4096;
            let xs: Vec<f32> = (0..n).map(|i| (i % 97) as f32).collect();
            let x = dev.mem_mut().alloc_from(&xs);
            let y = dev.mem_mut().alloc::<f32>(n);
            let k = Double { x, y, n };
            dev.launch(&k, LaunchConfig::warp_per_item(n / 32, 256))
        };
        let a = run();
        let b = run();
        // All-integer counters: equality here is bitwise identity.
        assert_eq!(a.accounting.hw(&cfg), b.accounting.hw(&cfg));

        // Conservation between the ledger's two recordings: the merged
        // warp totals and the per-SM schedule.
        let acc = &a.accounting;
        assert!(acc.hw(&cfg).stall_mem_cycles > 0);
        let issue: u64 = acc.sm.iter().map(|s| s.issue_cycles).sum();
        assert_eq!(issue, acc.warps.issue_cycles);
        let blocks: u64 = acc.sm.iter().map(|s| s.blocks).sum();
        assert_eq!(blocks, a.blocks_run);
        // Per-SM bandwidth sectors re-add to the atomic-weighted total.
        let bw: f64 = acc.sm.iter().map(|s| s.bw_sectors).sum();
        assert!(bw > 0.0);
        assert!(acc.resident_warps >= 1.0);
    }

    #[test]
    fn empty_grid_is_noop() {
        let mut dev = Device::new(DeviceConfig::test_small());
        let x = dev.mem_mut().alloc::<f32>(32);
        let y = dev.mem_mut().alloc::<f32>(32);
        let k = Double { x, y, n: 32 };
        let p = dev.launch(&k, LaunchConfig::new(0, 32));
        assert_eq!(p.warps_run, 0);
        assert_eq!(p.gpu_cycles, 0.0);
    }

    /// Atomic-heavy kernel: all warps hammer one counter.
    struct Hammer {
        c: DeviceBuffer<f32>,
    }
    impl Kernel for Hammer {
        fn name(&self) -> &str {
            "hammer"
        }
        fn run_warp(&self, w: &mut WarpCtx<'_>) {
            w.atomic_add_f32(self.c, |_| Some((0, 1.0)));
        }
    }

    #[test]
    fn atomics_counted_and_correct() {
        let mut dev = Device::new(DeviceConfig::test_small());
        let c = dev.mem_mut().alloc::<f32>(1);
        let warps = 256;
        let p = dev.launch(&Hammer { c }, LaunchConfig::warp_per_item(warps, 64));
        assert_eq!(dev.mem().read_vec(c)[0], (warps * 32) as f32);
        assert!(p.atomic_bytes > 0);
        assert!(p.stall_long_scoreboard > 0.0);
    }

    #[test]
    fn more_blocks_cost_scheduling() {
        // Same total warps, more blocks => more scheduling overhead.
        let time = |warps_per_block: usize| {
            let mut dev = Device::new(DeviceConfig::test_small());
            let n = 32 * 512;
            let x = dev.mem_mut().alloc::<f32>(n);
            let y = dev.mem_mut().alloc::<f32>(n);
            let k = Double { x, y, n };
            let p = dev.launch(&k, LaunchConfig::warp_per_item(512, warps_per_block * 32));
            p.gpu_cycles
        };
        assert!(time(1) > time(16));
    }

    /// Kernel with one enormous block and many small ones: list
    /// scheduling must isolate the big block rather than stacking more
    /// work on its SM.
    struct Lopsided {
        x: DeviceBuffer<f32>,
    }
    impl Kernel for Lopsided {
        fn name(&self) -> &str {
            "lopsided"
        }
        fn run_warp(&self, w: &mut WarpCtx<'_>) {
            let reps = if w.block_idx() == 0 { 20_000 } else { 1 };
            for r in 0..reps {
                let _ = w.ld(self.x, |l| Some((r * 32 + l) % 4096));
                w.issue(4);
            }
        }
    }

    #[test]
    fn list_scheduling_isolates_heavy_blocks() {
        let mut dev = Device::new(DeviceConfig::test_small());
        let x = dev.mem_mut().alloc::<f32>(4096);
        let k = Lopsided { x };
        let p = dev.launch(&k, LaunchConfig::new(64, 32));
        // The heavy block alone bounds the kernel: its SM should carry
        // (roughly) only that block's work, so gpu time is close to the
        // critical warp, not critical warp + a pile of small blocks.
        assert!(
            p.gpu_cycles < 1.7 * p.limiter.critical_warp.max(p.limiter.bandwidth),
            "gpu {} vs critical {} / bw {}",
            p.gpu_cycles,
            p.limiter.critical_warp,
            p.limiter.bandwidth
        );
    }

    #[test]
    fn limiter_breakdown_names_dominant_term() {
        let mut dev = Device::new(DeviceConfig::test_small());
        let x = dev.mem_mut().alloc::<f32>(32 * 512);
        let y = dev.mem_mut().alloc::<f32>(32 * 512);
        let k = Double { x, y, n: 32 * 512 };
        let p = dev.launch(&k, LaunchConfig::warp_per_item(512, 256));
        let l = &p.limiter;
        let max = l.issue.max(l.bandwidth).max(l.latency).max(l.critical_warp);
        assert!(p.gpu_cycles >= max);
        assert!(!l.name().is_empty());
    }
}
