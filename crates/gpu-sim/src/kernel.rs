//! Kernel trait and launch geometry.

use crate::warp::WarpCtx;

/// Launch geometry: grid of blocks, threads per block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Number of blocks in the grid.
    pub grid_blocks: usize,
    /// Threads per block (rounded up to whole warps by the launcher).
    pub(crate) block_threads: usize,
}

impl LaunchConfig {
    /// Convenience constructor.
    pub fn new(grid_blocks: usize, block_threads: usize) -> Self {
        Self {
            grid_blocks,
            block_threads,
        }
    }

    /// Geometry that gives one warp per work item (`items` warps total)
    /// with `block_threads` threads per block — the hardware-based dynamic
    /// workload assignment of TLPGNN Section 5.
    pub fn warp_per_item(items: usize, block_threads: usize) -> Self {
        let warps_per_block = (block_threads / 32).max(1);
        Self {
            grid_blocks: items.div_ceil(warps_per_block).max(1),
            block_threads: warps_per_block * 32,
        }
    }

    /// Warps per block.
    pub(crate) fn warps_per_block(&self) -> usize {
        self.block_threads.div_ceil(32).max(1)
    }

    /// Total warps in the grid.
    pub fn total_warps(&self) -> usize {
        self.grid_blocks * self.warps_per_block()
    }
}

/// A simulated GPU kernel. Implementations express per-warp work through
/// the [`WarpCtx`] lane API; the launcher runs every warp of the grid.
pub trait Kernel: Sync {
    /// Kernel name, reported in profiles.
    fn name(&self) -> &str;

    /// Registers used per thread. Limits occupancy exactly as `nvcc`'s
    /// per-thread register allocation does. The default corresponds to a
    /// simple kernel; register-caching variants declare more.
    fn regs_per_thread(&self) -> usize {
        32
    }

    /// Shared memory (in `f32` words) required per block. Zero for the
    /// fused TLPGNN kernels; nonzero for CTA-per-vertex variants.
    fn shared_f32_per_block(&self) -> usize {
        0
    }

    /// Execute one warp of the kernel.
    fn run_warp(&self, w: &mut WarpCtx<'_>);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warp_per_item_geometry() {
        let lc = LaunchConfig::warp_per_item(100, 512);
        assert_eq!(lc.warps_per_block(), 16);
        assert_eq!(lc.grid_blocks, 7); // ceil(100 / 16)
        assert!(lc.total_warps() >= 100);
    }

    #[test]
    fn warp_per_item_minimums() {
        let lc = LaunchConfig::warp_per_item(1, 32);
        assert_eq!(lc.grid_blocks, 1);
        assert_eq!(lc.total_warps(), 1);
    }
}
