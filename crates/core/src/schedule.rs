//! Hybrid dynamic workload assignment (paper Section 5).
//!
//! Vertex parallelism leaves workload distribution to decide. TLPGNN
//! switches between two strategies:
//!
//! * **Hardware-based**: launch exactly one warp per vertex and let the
//!   GPU's block scheduler hand blocks to SMs as they drain. No software
//!   coordination, but every block pays hardware scheduling cost, and
//!   warps inside one block finish together only as fast as their slowest
//!   member.
//! * **Software-based** (Algorithm 1): launch a fixed persistent grid
//!   (as many warps as the device can keep resident) and let each warp
//!   pull chunks of `step` consecutive vertices from a global atomic
//!   cursor until the pool drains.
//!
//! The heuristic: software wins when the graph is large (hardware would
//! schedule too many blocks) or the average degree is high (per-chunk
//! atomic overhead amortizes); the paper's thresholds are |V| > 1M or
//! avg degree > 50.

use gpu_sim::{Device, DeviceBuffer, DeviceConfig, LaunchConfig};

use crate::kernels::WorkSource;

/// Workload assignment strategy for the first-level (vertex) parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Assignment {
    /// One warp per vertex; the hardware block scheduler balances.
    Hardware {
        /// Warps per block — the tunable the paper discusses (fewer warps
        /// = better balance, more scheduling overhead).
        warps_per_block: usize,
    },
    /// Persistent warps pulling chunks of `step` vertices from a global
    /// cursor (Algorithm 1).
    Software {
        /// Vertices taken per cursor increment.
        step: u32,
        /// Warps per block of the persistent grid.
        warps_per_block: usize,
    },
}

impl Assignment {
    /// Default hardware assignment (8 warps / 256 threads per block).
    pub fn hardware() -> Self {
        Assignment::Hardware { warps_per_block: 8 }
    }

    /// Default software assignment (chunk of 8 vertices per pull).
    pub fn software() -> Self {
        Assignment::Software {
            step: 8,
            warps_per_block: 8,
        }
    }

    /// Launch geometry for a graph of `n` vertices on `cfg`.
    pub fn launch_config(
        &self,
        n: usize,
        cfg: &DeviceConfig,
        regs_per_thread: usize,
    ) -> LaunchConfig {
        match *self {
            Assignment::Hardware { warps_per_block } => {
                LaunchConfig::warp_per_item(n.max(1), warps_per_block * 32)
            }
            Assignment::Software {
                warps_per_block, ..
            } => {
                // Fill the device exactly once: resident blocks per SM ×
                // number of SMs.
                let block_threads = warps_per_block * 32;
                let resident = cfg.resident_blocks(regs_per_thread, block_threads);
                LaunchConfig::new((cfg.num_sms * resident).max(1), block_threads)
            }
        }
    }

    /// Bind this assignment to one launch over the first `rows` rows of
    /// a graph on `dev`, for a kernel using `regs_per_thread` registers
    /// (take it from the kernel's own `regs`, which also feeds the
    /// occupancy model — a second table would size the persistent grid
    /// for a different kernel than the one launched). The only place an
    /// assignment becomes a geometry, a [`WorkSource`] and a cursor.
    pub fn bind(&self, dev: &mut Device, rows: usize, regs_per_thread: usize) -> BoundLaunch {
        let lc = self.launch_config(rows, dev.cfg(), regs_per_thread);
        match *self {
            Assignment::Hardware { .. } => BoundLaunch::hardware(lc, rows),
            Assignment::Software { step, .. } => BoundLaunch::persistent(dev, lc, step, rows),
        }
    }
}

/// One launch's first-level binding: geometry, how warps find their
/// vertices, how many rows there are to find, and — for the software
/// pool — the device cursor that lives until [`Self::release`] (not
/// `Copy`: the cursor is freed once).
pub struct BoundLaunch {
    /// Launch geometry.
    pub lc: LaunchConfig,
    /// First-level work source for the kernel.
    pub work: WorkSource,
    /// The launch covers rows `0..rows`.
    pub rows: usize,
    cursor: Option<DeviceBuffer<u32>>,
}

impl BoundLaunch {
    /// Hardware scheduling on an explicit geometry `lc`: no device state.
    fn hardware(lc: LaunchConfig, rows: usize) -> Self {
        Self {
            lc,
            work: WorkSource::Hardware,
            rows,
            cursor: None,
        }
    }

    /// Algorithm 1's task pool on an explicit persistent grid `lc`: the
    /// cursor is allocated here (after the graph buffers, before any
    /// kernel-specific ones — addresses feed the sector model).
    pub(crate) fn persistent(dev: &mut Device, lc: LaunchConfig, step: u32, rows: usize) -> Self {
        let cursor = dev.mem_mut().alloc::<u32>(1);
        Self {
            lc,
            work: WorkSource::Software {
                cursor,
                step,
                total_warps: lc.total_warps(),
            },
            rows,
            cursor: Some(cursor),
        }
    }

    /// Free the software cursor, if this binding allocated one.
    pub fn release(self, dev: &mut Device) {
        if let Some(c) = self.cursor {
            dev.mem_mut().free(c);
        }
    }
}

/// The heuristic discriminant of paper Section 5, with configurable
/// thresholds so scaled-down datasets keep the paper's decision boundary.
///
/// ```
/// use tlpgnn::{Assignment, HybridHeuristic};
/// let h = HybridHeuristic::default();
/// // Small sparse graph -> hardware scheduling; big or dense -> software.
/// assert!(matches!(h.choose(10_000, 4.0), Assignment::Hardware { .. }));
/// assert!(matches!(h.choose(2_000_000, 4.0), Assignment::Software { .. }));
/// assert!(matches!(h.choose(10_000, 200.0), Assignment::Software { .. }));
/// ```
#[derive(Debug, Clone)]
pub struct HybridHeuristic {
    /// Use software assignment when |V| exceeds this (paper: 1M).
    pub vertex_threshold: usize,
    /// Use software assignment when the average degree exceeds this
    /// (paper: 50).
    pub degree_threshold: f64,
    /// `step` for the software task pool.
    pub software_step: u32,
    /// Warps per block for either strategy.
    pub warps_per_block: usize,
}

impl Default for HybridHeuristic {
    fn default() -> Self {
        Self {
            vertex_threshold: 1_000_000,
            degree_threshold: 50.0,
            software_step: 8,
            warps_per_block: 8,
        }
    }
}

impl HybridHeuristic {
    /// Thresholds matched to datasets scaled down by `scale` (|V| shrinks
    /// by the same factor, average degree is preserved).
    pub fn scaled(scale: usize) -> Self {
        Self {
            vertex_threshold: (1_000_000 / scale.max(1)).max(1),
            ..Self::default()
        }
    }

    /// Pick the assignment for a graph with `n` vertices and `avg_degree`.
    pub fn choose(&self, n: usize, avg_degree: f64) -> Assignment {
        if n > self.vertex_threshold || avg_degree > self.degree_threshold {
            Assignment::Software {
                step: self.software_step,
                warps_per_block: self.warps_per_block,
            }
        } else {
            Assignment::Hardware {
                warps_per_block: self.warps_per_block,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heuristic_matches_paper_thresholds() {
        let h = HybridHeuristic::default();
        // Small, low degree -> hardware.
        assert!(matches!(h.choose(10_000, 5.0), Assignment::Hardware { .. }));
        // Huge vertex count -> software.
        assert!(matches!(
            h.choose(2_000_000, 5.0),
            Assignment::Software { .. }
        ));
        // High degree -> software.
        assert!(matches!(
            h.choose(10_000, 500.0),
            Assignment::Software { .. }
        ));
        // Boundary: exactly at thresholds stays hardware (strict >).
        assert!(matches!(
            h.choose(1_000_000, 50.0),
            Assignment::Hardware { .. }
        ));
    }

    #[test]
    fn scaled_thresholds_shrink_vertices_only() {
        let h = HybridHeuristic::scaled(32);
        assert_eq!(h.vertex_threshold, 31_250);
        assert_eq!(h.degree_threshold, 50.0);
        assert!(matches!(h.choose(40_000, 5.0), Assignment::Software { .. }));
    }

    #[test]
    fn hardware_launch_covers_all_vertices() {
        let cfg = DeviceConfig::v100();
        let lc = Assignment::hardware().launch_config(1000, &cfg, 32);
        assert!(lc.total_warps() >= 1000);
    }

    #[test]
    fn software_launch_fills_device_once() {
        let cfg = DeviceConfig::v100();
        let lc = Assignment::software().launch_config(10_000_000, &cfg, 32);
        // Persistent grid: bounded by device capacity, not graph size.
        assert!(lc.total_warps() <= cfg.num_sms * cfg.max_warps_per_sm);
        assert!(lc.grid_blocks >= cfg.num_sms);
    }
}
