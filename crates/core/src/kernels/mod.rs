//! Simulated GPU kernels implementing TLPGNN's graph convolution.
//!
//! * [`fused`] — the paper's contribution: the one-kernel, warp-per-vertex,
//!   feature-parallel convolution for the sum-family models (GCN, GIN,
//!   GraphSage), with register caching and pluggable workload assignment.
//! * [`gat`] — the fused one-kernel GAT (attention + softmax + aggregate).
//! * [`variants`] — the design-space points the paper profiles against:
//!   thread-per-vertex (uncoalesced), CTA-per-vertex (sync overhead),
//!   sub-warp lane groups (Table 2's half-warp), and the edge-parallel
//!   second level (Figure 5a).

pub mod dense;
pub mod fused;
pub mod gat;
pub mod variants;
pub mod weighted;

use gpu_sim::{DeviceBuffer, Kernel};

use crate::gpu::{GatScoresOnDevice, GraphOnDevice};
use crate::model::{GatParams, GnnModel};
use crate::schedule::BoundLaunch;

/// Aggregation operator of the sum-family models. (GAT has its own kernel:
/// its softmax needs two passes over the edge list.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Aggregator {
    /// GCN: `out[v] = c_v Σ c_u x[u] + c_v² x[v]`.
    GcnSum,
    /// GIN: `out[v] = Σ x[u] + (1 + ε) x[v]`.
    GinSum {
        /// Self-weight ε.
        eps: f32,
    },
    /// GraphSage mean: `out[v] = (Σ x[u]) / max(deg v, 1)`.
    SageMean,
}

impl Aggregator {
    /// The aggregator implementing a sum-family model, or `None` for GAT
    /// (whose softmax needs the dedicated two-pass kernel).
    pub fn of_model(model: &GnnModel) -> Option<Aggregator> {
        match model {
            GnnModel::Gcn => Some(Aggregator::GcnSum),
            GnnModel::Gin { eps } => Some(Aggregator::GinSum { eps: *eps }),
            GnnModel::Sage => Some(Aggregator::SageMean),
            GnnModel::Gat { .. } => None,
        }
    }

    /// Short name for kernel labels.
    pub fn name(&self) -> &'static str {
        match self {
            Aggregator::GcnSum => "gcn",
            Aggregator::GinSum { .. } => "gin",
            Aggregator::SageMean => "sage",
        }
    }
}

/// Registers per thread of `model`'s fused kernel — what
/// [`crate::Assignment::bind`] sizes a persistent grid with.
pub(crate) fn fused_regs(model: &GnnModel, reg_cache: bool) -> usize {
    match Aggregator::of_model(model) {
        Some(_) => fused::FusedConvKernel::regs(reg_cache),
        None => gat::FusedGatKernel::regs(reg_cache),
    }
}

/// A kernel bound to its launch, ready to go.
pub(crate) struct PreparedLaunch {
    /// The kernel to launch on `bound.lc`.
    pub(crate) kernel: Box<dyn Kernel>,
    /// Geometry, work source and cursor lifetime.
    pub(crate) bound: BoundLaunch,
    /// GAT attention scores the kernel reads; the caller frees them
    /// after the launch.
    pub(crate) scores: Option<GatScoresOnDevice>,
}

/// `model`'s fused kernel over `gd` under `bound`: the sum-family kernel
/// for the aggregator [`Aggregator::of_model`] names, else the GAT
/// kernel over the scores `upload_scores` puts on the device (called for
/// GAT only — so after `bound` took its cursor: graph buffers → cursor →
/// scores is the allocation order the sector model sees).
pub(crate) fn fused_kernel(
    model: &GnnModel,
    gd: GraphOnDevice,
    bound: BoundLaunch,
    reg_cache: bool,
    upload_scores: impl FnOnce(&GatParams) -> GatScoresOnDevice,
) -> PreparedLaunch {
    let (kernel, scores): (Box<dyn Kernel>, _) = match model {
        GnnModel::Gat { params } => {
            let scores = upload_scores(params);
            let mut k = gat::FusedGatKernel::new(gd, scores, bound.work, reg_cache);
            k.rows = bound.rows;
            (Box::new(k), Some(scores))
        }
        _ => {
            let agg = Aggregator::of_model(model).expect("every model but GAT is sum-family");
            let mut k = fused::FusedConvKernel::new(gd, agg, bound.work, reg_cache);
            k.rows = bound.rows;
            (Box::new(k), None)
        }
    };
    PreparedLaunch {
        kernel,
        bound,
        scores,
    }
}

/// How a warp obtains the vertices it processes (the first-level workload
/// assignment; paper Section 5).
#[derive(Clone, Copy)]
pub enum WorkSource {
    /// One warp per vertex, blocks balanced by the hardware scheduler.
    Hardware,
    /// Fixed persistent grid; warp `w` statically owns the contiguous
    /// range `[w·⌈n/W⌉, (w+1)·⌈n/W⌉)` — the naive vertex partition of a
    /// "TLP only" implementation (Figure 10's first bar). On graphs whose
    /// hubs cluster in the id space (power-law generators place them at
    /// low ids) this suffers exactly the imbalance the paper describes.
    StaticContiguous {
        /// Total warps `W` in the persistent grid.
        total_warps: usize,
    },
    /// Algorithm 1: persistent warps pull chunks of `step` consecutive
    /// vertices from a global cursor.
    ///
    /// **Simulation note.** Simulated warps execute sequentially on their
    /// SM, so consuming a *live* cursor would let the first warp drain the
    /// whole pool and serialize the modelled time. Instead the chunk
    /// schedule is the equal-progress fixed point of the pool (warp `w`
    /// takes chunks `w, w+W, w+2W, …` — what the dynamic pool converges to
    /// when warps proceed at similar rates), while every chunk still pays
    /// its real `atomicAdd` on the cursor, so the cost and traffic of
    /// Algorithm 1 are fully accounted.
    Software {
        /// The device-resident cursor (one `u32`, initialized to 0).
        cursor: DeviceBuffer<u32>,
        /// Vertices claimed per atomic increment.
        step: u32,
        /// Total warps `W` in the persistent grid.
        total_warps: usize,
    },
}

impl WorkSource {
    /// Drive `process` over every vertex this warp owns.
    ///
    /// This is the shared first-level loop used by all warp-per-vertex
    /// kernels (TLPGNN's fused kernels and several variants).
    pub(crate) fn for_each_vertex(
        &self,
        w: &mut gpu_sim::WarpCtx<'_>,
        n: usize,
        mut process: impl FnMut(&mut gpu_sim::WarpCtx<'_>, usize),
    ) {
        match *self {
            WorkSource::Hardware => {
                let v = w.global_warp();
                if v < n {
                    process(w, v);
                }
            }
            WorkSource::StaticContiguous { total_warps } => {
                let chunk = n.div_ceil(total_warps.max(1));
                let start = w.global_warp() * chunk;
                let end = (start + chunk).min(n);
                for v in start..end {
                    process(w, v);
                    w.issue(1); // loop bookkeeping
                }
            }
            WorkSource::Software {
                cursor,
                step,
                total_warps,
            } => {
                let step = step.max(1) as usize;
                let chunks = n.div_ceil(step);
                // Consecutive chunks go to warps of *different* blocks
                // (block-major interleaving): real pools drain in arrival
                // order across all resident blocks, so adjacent chunks —
                // which in power-law graphs may all be hub-heavy — never
                // pile into one block.
                let wpb = w.warps_per_block().max(1);
                let num_blocks = (total_warps.max(1)).div_ceil(wpb);
                let wkey = w.warp_in_block() * num_blocks + w.block_idx();
                let mut c = wkey;
                while c < chunks {
                    // The pull: one atomicAdd on the shared cursor.
                    let _ = w.atomic_add_u32_scalar(cursor, 0, step as u32);
                    let start = c * step;
                    let end = (start + step).min(n);
                    for v in start..end {
                        process(w, v);
                    }
                    w.issue(1); // loop bookkeeping
                    c += total_warps.max(1);
                }
                // The final pull that discovers the pool is empty.
                let _ = w.atomic_add_u32_scalar(cursor, 0, step as u32);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{Device, DeviceBuffer, DeviceConfig, Kernel, LaunchConfig, WarpCtx};

    /// Kernel that counts how many times each vertex is processed.
    struct CoverageKernel {
        counts: DeviceBuffer<f32>,
        work: WorkSource,
        n: usize,
    }

    impl Kernel for CoverageKernel {
        fn name(&self) -> &str {
            "coverage"
        }
        fn run_warp(&self, w: &mut WarpCtx<'_>) {
            self.work.for_each_vertex(w, self.n, |w, v| {
                w.atomic_add_f32(self.counts, |l| (l == 0).then_some((v, 1.0)));
            });
        }
    }

    fn coverage(
        work_of: impl Fn(DeviceBuffer<u32>, usize) -> WorkSource,
        lc: LaunchConfig,
        n: usize,
    ) {
        let mut dev = Device::new(DeviceConfig::test_small());
        let counts = dev.mem_mut().alloc::<f32>(n);
        let cursor = dev.mem_mut().alloc::<u32>(1);
        let k = CoverageKernel {
            counts,
            work: work_of(cursor, lc.total_warps()),
            n,
        };
        dev.launch(&k, lc);
        let got = dev.mem().read_vec(counts);
        assert!(
            got.iter().all(|&c| c == 1.0),
            "some vertex not processed exactly once: {:?}",
            got.iter().enumerate().find(|(_, &c)| c != 1.0)
        );
    }

    #[test]
    fn hardware_covers_each_vertex_once() {
        for n in [1usize, 31, 32, 33, 1000] {
            coverage(
                |_, _| WorkSource::Hardware,
                LaunchConfig::warp_per_item(n, 128),
                n,
            );
        }
    }

    #[test]
    fn static_contiguous_covers_each_vertex_once() {
        for n in [1usize, 7, 64, 999] {
            let lc = LaunchConfig::new(4, 256);
            coverage(
                |_, warps| WorkSource::StaticContiguous { total_warps: warps },
                lc,
                n,
            );
        }
    }

    #[test]
    fn software_covers_each_vertex_once() {
        for n in [1usize, 7, 64, 999] {
            for step in [1u32, 3, 8, 64] {
                let lc = LaunchConfig::new(4, 256);
                coverage(
                    |cursor, warps| WorkSource::Software {
                        cursor,
                        step,
                        total_warps: warps,
                    },
                    lc,
                    n,
                );
            }
        }
    }

    #[test]
    fn software_pays_cursor_atomics() {
        let mut dev = Device::new(DeviceConfig::test_small());
        let n = 256;
        let counts = dev.mem_mut().alloc::<f32>(n);
        let cursor = dev.mem_mut().alloc::<u32>(1);
        let lc = LaunchConfig::new(4, 256);
        let k = CoverageKernel {
            counts,
            work: WorkSource::Software {
                cursor,
                step: 8,
                total_warps: lc.total_warps(),
            },
            n,
        };
        let p = dev.launch(&k, lc);
        // At least one pull per chunk plus one empty-discovery pull per
        // warp (the vertex-count atomics from the coverage kernel add n).
        assert!(p.atomic_requests >= (n / 8) as u64 + n as u64);
    }
}
