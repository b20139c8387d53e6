//! Device descriptions and cost-model constants.
//!
//! The default configuration models an NVIDIA Volta V100 (the GPU used in
//! the TLPGNN paper): 80 SMs, 64 resident warps per SM, a 64K-entry 32-bit
//! register file per SM, 128-byte cache lines split into 32-byte sectors.
//!
//! The latency/bandwidth constants are first-order approximations chosen so
//! that relative effects (atomic serialization, uncoalesced access,
//! kernel-launch overhead) reproduce the orderings measured in the paper;
//! they are not calibrated to absolute V100 timings.

use crate::fault::FaultPlan;

/// Number of threads in a warp. Fixed by the SIMT model (and by CUDA).
pub const WARP_SIZE: usize = 32;

/// Hardware description plus analytic cost-model constants for a simulated
/// device.
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Human-readable device name (reported in profiles).
    pub name: String,
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: usize,
    /// Maximum resident blocks per SM regardless of resource usage.
    pub max_blocks_per_sm: usize,
    /// Maximum threads per block accepted by the launcher.
    pub max_threads_per_block: usize,
    /// 32-bit registers per SM.
    pub registers_per_sm: usize,
    /// Maximum registers one thread may use.
    pub max_registers_per_thread: usize,
    /// Shared memory bytes per SM.
    pub shared_mem_per_sm: usize,
    /// L1 data cache bytes (per SM).
    pub l1_bytes: usize,
    /// L2 cache bytes (shared by all SMs).
    pub l2_bytes: usize,
    /// Bytes per memory sector (minimum DRAM transaction).
    pub sector_bytes: usize,

    // ---- cost model ----
    /// Core clock in GHz; converts cycles to wall time.
    pub clock_ghz: f64,
    /// Warp instructions issued per cycle per SM (throughput bound).
    pub issue_ipc: f64,
    /// Latency of an L1 hit, cycles.
    pub l1_latency: u64,
    /// Latency of an L2 hit, cycles.
    pub l2_latency: u64,
    /// Latency of a DRAM access, cycles.
    pub dram_latency: u64,
    /// Per-sector bandwidth cost (cycles per 32B sector per SM) for traffic
    /// that misses L1.
    pub sector_bw_cycles: f64,
    /// Additional serialization cycles per extra sector within one request.
    pub sector_issue_cycles: u64,
    /// Issue-pipeline (LSU) cycles consumed per sector of a memory
    /// request: an uncoalesced request replays one wavefront per sector,
    /// occupying the load/store unit even when every sector hits the L1.
    pub lsu_cycles_per_sector: f64,
    /// Base latency of an atomic RMW operation (round trip to L2).
    pub atomic_latency: u64,
    /// Extra serialization cycles for each additional lane hitting the same
    /// address in one atomic request.
    pub atomic_conflict_cycles: u64,
    /// Cycles to schedule one block onto an SM (hardware work distribution).
    pub block_sched_cycles: u64,
    /// Memory-level parallelism within one warp: how many outstanding
    /// loads the scoreboard overlaps, dividing a warp's serial load
    /// latency. (Volta tracks multiple in-flight loads per warp.)
    pub warp_mlp: f64,
    /// Outstanding-atomic overlap within one warp. Scatter-style
    /// `atomicAdd`s whose result is unused are fire-and-forget (the warp
    /// does not stall on the round trip), so this is high; their real cost
    /// is modelled as reduced memory throughput via `atomic_bw_factor`.
    pub atomic_mlp: f64,
    /// Bandwidth cost multiplier for atomic sectors relative to plain
    /// sectors: atomics occupy the L2 ROP units, which have far lower
    /// throughput than the plain load path.
    pub atomic_bw_factor: f64,
    /// Cycles charged for a `__syncthreads()` barrier.
    pub sync_cycles: u64,
    /// Cycles per shared-memory request.
    pub shared_latency: u64,
    /// Host-side cost of launching one kernel, microseconds (driver +
    /// runtime dispatch; excludes any framework overhead a baseline adds).
    pub kernel_launch_us: f64,

    // ---- fault injection ----
    /// Deterministic fault schedule ([`FaultPlan::none`] by default: the
    /// launch path takes a single branch and produces bitwise-identical
    /// profiles to a build without the fault layer).
    pub fault: FaultPlan,
}

impl DeviceConfig {
    /// A Volta V100-like device: the configuration used throughout the
    /// paper's evaluation (Section 7.1).
    pub fn v100() -> Self {
        Self {
            name: "SimV100".to_string(),
            num_sms: 80,
            max_warps_per_sm: 64,
            max_blocks_per_sm: 32,
            max_threads_per_block: 1024,
            registers_per_sm: 65_536,
            max_registers_per_thread: 255,
            shared_mem_per_sm: 96 * 1024,
            l1_bytes: 128 * 1024,
            l2_bytes: 6 * 1024 * 1024,
            sector_bytes: 32,
            clock_ghz: 1.38,
            issue_ipc: 2.0,
            l1_latency: 32,
            l2_latency: 190,
            dram_latency: 440,
            sector_bw_cycles: 4.0,
            sector_issue_cycles: 4,
            lsu_cycles_per_sector: 2.0,
            atomic_latency: 380,
            atomic_conflict_cycles: 40,
            block_sched_cycles: 600,
            warp_mlp: 20.0,
            atomic_mlp: 8.0,
            atomic_bw_factor: 4.0,
            sync_cycles: 40,
            shared_latency: 24,
            kernel_launch_us: 4.0,
            fault: FaultPlan::none(),
        }
    }

    /// An Ampere A100-like device: more SMs, a much larger L2, higher
    /// bandwidth and a faster clock than the V100. Used by the
    /// device-portability ablation — the paper argues its design is not
    /// V100-specific.
    pub fn a100() -> Self {
        Self {
            name: "SimA100".to_string(),
            num_sms: 108,
            max_warps_per_sm: 64,
            registers_per_sm: 65_536,
            shared_mem_per_sm: 164 * 1024,
            l1_bytes: 192 * 1024,
            l2_bytes: 40 * 1024 * 1024,
            clock_ghz: 1.41,
            // ~1.9x the V100's DRAM bandwidth per SM-cycle.
            sector_bw_cycles: 2.2,
            dram_latency: 400,
            ..Self::v100()
        }
    }

    /// A small device useful in unit tests: 4 SMs, tiny caches. Keeps test
    /// workloads fast while exercising every code path (multi-SM scheduling,
    /// cache evictions, occupancy limits).
    pub fn test_small() -> Self {
        Self {
            name: "SimTest".to_string(),
            num_sms: 4,
            max_warps_per_sm: 8,
            max_blocks_per_sm: 8,
            max_threads_per_block: 1024,
            registers_per_sm: 8_192,
            max_registers_per_thread: 255,
            shared_mem_per_sm: 16 * 1024,
            l1_bytes: 4 * 1024,
            l2_bytes: 64 * 1024,
            ..Self::v100()
        }
    }

    /// Convert a cycle count on this device to milliseconds.
    pub(crate) fn cycles_to_ms(&self, cycles: f64) -> f64 {
        cycles / (self.clock_ghz * 1e9) * 1e3
    }

    /// Maximum number of resident blocks per SM for a kernel using
    /// `regs_per_thread` registers and `block_threads` threads per block,
    /// considering the register file, warp slots, and the hard block limit.
    pub fn resident_blocks(&self, regs_per_thread: usize, block_threads: usize) -> usize {
        let regs_per_thread = regs_per_thread.clamp(1, self.max_registers_per_thread);
        let warps_per_block = block_threads.div_ceil(WARP_SIZE);
        let by_warps = self.max_warps_per_sm / warps_per_block.max(1);
        let by_regs = self.registers_per_sm / (regs_per_thread * block_threads).max(1);
        by_warps.min(by_regs).min(self.max_blocks_per_sm).max(1)
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self::v100()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_shape() {
        let c = DeviceConfig::v100();
        assert_eq!(c.num_sms, 80);
        assert_eq!(c.max_warps_per_sm, 64);
    }

    #[test]
    fn a100_is_bigger_and_faster() {
        let (v, a) = (DeviceConfig::v100(), DeviceConfig::a100());
        assert!(a.num_sms > v.num_sms);
        assert!(a.l2_bytes > v.l2_bytes);
        assert!(a.sector_bw_cycles < v.sector_bw_cycles);
    }

    #[test]
    fn cycles_to_ms_roundtrip() {
        let c = DeviceConfig::v100();
        // 1.38e9 cycles == 1 second == 1000 ms.
        let ms = c.cycles_to_ms(1.38e9);
        assert!((ms - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn resident_blocks_limited_by_warps() {
        let c = DeviceConfig::v100();
        // 512 threads = 16 warps; 64/16 = 4 blocks by warp slots.
        assert_eq!(c.resident_blocks(32, 512), 4);
    }

    #[test]
    fn resident_blocks_limited_by_registers() {
        let c = DeviceConfig::v100();
        // 255 regs * 1024 threads = 261k regs > 65536: only 1 block fits,
        // and the floor keeps it at least 1.
        assert_eq!(c.resident_blocks(255, 1024), 1);
    }

    #[test]
    fn resident_blocks_hard_cap() {
        let c = DeviceConfig::v100();
        // 32 threads = 1 warp, tiny registers: warp slots allow 64 but the
        // hard block cap is 32.
        assert_eq!(c.resident_blocks(16, 32), 32);
    }
}
