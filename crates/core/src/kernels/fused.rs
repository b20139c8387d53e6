//! The fused TLPGNN graph-convolution kernel (paper Sections 4–6).
//!
//! Structure, mirroring the paper's CUDA kernel (Figure 7):
//!
//! * **First level — vertex parallelism**: each warp owns whole vertices
//!   (via [`WorkSource`]), so no atomics are ever needed on the output and
//!   all lanes follow the same control path (no divergence).
//! * **Second level — feature parallelism**: the 32 lanes cover 32
//!   consecutive feature dimensions, so every neighbor-feature load is a
//!   single coalesced request; feature dimensions beyond 32 are covered by
//!   tiling.
//! * **Kernel fusion**: scaling (GCN norms), aggregation, self-term, and
//!   the final write all happen in this one kernel — no intermediate
//!   message materialization.
//! * **Register caching**: the `indptr` bounds and the per-lane partial
//!   sum live in registers. The `reg_cache: false` variant reproduces the
//!   paper's Figure 7(b): the loop bound is re-read from global memory on
//!   every iteration and the accumulator is read-modified-written in the
//!   output buffer, exactly the traffic the optimization removes.

use gpu_sim::{Kernel, WarpCtx, WARP_SIZE};

use super::{Aggregator, WorkSource};
use crate::gpu::GraphOnDevice;

/// The fused convolution kernel for GCN / GIN / GraphSage.
pub struct FusedConvKernel {
    /// Device-resident graph and features.
    pub(crate) gd: GraphOnDevice,
    /// Aggregation operator.
    pub(crate) agg: Aggregator,
    /// First-level workload assignment.
    pub(crate) work: WorkSource,
    /// Register caching of index bounds and partial sums (Section 6).
    pub(crate) reg_cache: bool,
    /// The launch covers rows `0..rows`: `gd.n` from [`Self::new`];
    /// narrow it to leave the rest of `gd` as read-only neighbor state
    /// (e.g. a shard's halo rows).
    pub(crate) rows: usize,
    name: String,
}

impl FusedConvKernel {
    /// Build the kernel.
    pub fn new(gd: GraphOnDevice, agg: Aggregator, work: WorkSource, reg_cache: bool) -> Self {
        let name = format!(
            "tlpgnn_fused_{}{}",
            agg.name(),
            if reg_cache { "" } else { "_nocache" }
        );
        Self {
            gd,
            agg,
            work,
            reg_cache,
            rows: gd.n,
            name,
        }
    }

    /// Registers per thread: register caching spends registers on the
    /// cached bounds and the accumulator tile; the uncached variant is
    /// leaner per thread.
    pub const fn regs(reg_cache: bool) -> usize {
        if reg_cache {
            48
        } else {
            26
        }
    }

    fn process_vertex(&self, w: &mut WarpCtx<'_>, v: usize) {
        let gd = &self.gd;
        let f = gd.feat_dim;

        // Per-vertex scalars (one broadcast load each).
        let norm_v = match self.agg {
            Aggregator::GcnSum => w.ld_scalar(gd.norm, v),
            _ => 0.0,
        };
        let inv_deg = match self.agg {
            Aggregator::SageMean => {
                let d = w.ld_scalar(gd.degree, v);
                if d == 0 {
                    0.0
                } else {
                    1.0 / d as f32
                }
            }
            _ => 0.0,
        };

        // Register caching of the index boundary: read once per vertex.
        // The uncached variant re-reads the end bound inside the loop.
        let start = w.ld_scalar(gd.indptr, v) as usize;
        let end = w.ld_scalar(gd.indptr, v + 1) as usize;

        for tile in 0..gd.tiles() {
            let base = tile * WARP_SIZE;
            let active = (f - base).min(WARP_SIZE);
            // This tile of row `v` (own features, output) starts here.
            let own_at = v * f + base;
            let mut acc = [0.0f32; WARP_SIZE];
            if !self.reg_cache {
                // Figure 7(b): result[threadIdx.x] = 0.0 in global memory.
                w.st_run(gd.output, own_at, active, &[0.0; WARP_SIZE]);
            }
            for i in start..end {
                if !self.reg_cache {
                    // Loop condition re-reads indptr[v + 1] every time.
                    let _ = w.ld_scalar(gd.indptr, v + 1);
                }
                let u = w.ld_scalar(gd.indices, i) as usize;
                let scale = match self.agg {
                    Aggregator::GcnSum => w.ld_scalar(gd.norm, u) * norm_v,
                    Aggregator::GinSum { .. } => 1.0,
                    Aggregator::SageMean => inv_deg,
                };
                let vals = w.ld_run(gd.features, u * f + base, active);
                w.issue_simd(2, active); // fused multiply-add + loop step
                if self.reg_cache {
                    for lane in 0..active {
                        acc[lane] += scale * vals[lane];
                    }
                } else {
                    // Read-modify-write the result in global memory.
                    let cur = w.ld_run(gd.output, own_at, active);
                    let sum = std::array::from_fn(|lane| cur[lane] + scale * vals[lane]);
                    w.st_run(gd.output, own_at, active, &sum);
                }
            }
            // Self term / finalization.
            let self_scale = match self.agg {
                Aggregator::GcnSum => norm_v * norm_v,
                Aggregator::GinSum { eps } => 1.0 + eps,
                Aggregator::SageMean => 0.0,
            };
            if self.reg_cache {
                if self_scale != 0.0 {
                    let own = w.ld_run(gd.features, own_at, active);
                    w.issue_simd(2, active);
                    for lane in 0..active {
                        acc[lane] += self_scale * own[lane];
                    }
                }
                w.st_run(gd.output, own_at, active, &acc);
            } else if self_scale != 0.0 {
                let own = w.ld_run(gd.features, own_at, active);
                let cur = w.ld_run(gd.output, own_at, active);
                w.issue_simd(2, active);
                let sum = std::array::from_fn(|lane| cur[lane] + self_scale * own[lane]);
                w.st_run(gd.output, own_at, active, &sum);
            }
        }
    }
}

impl Kernel for FusedConvKernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn regs_per_thread(&self) -> usize {
        Self::regs(self.reg_cache)
    }

    fn run_warp(&self, w: &mut WarpCtx<'_>) {
        self.work
            .for_each_vertex(w, self.rows, |w, v| self.process_vertex(w, v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::GnnModel;
    use crate::oracle::conv_reference;
    use crate::schedule::Assignment;
    use gpu_sim::{Device, DeviceConfig};
    use tlpgnn_graph::generators;
    use tlpgnn_tensor::Matrix;

    fn run_fused(
        g: &tlpgnn_graph::Csr,
        x: &Matrix,
        agg: Aggregator,
        software: bool,
        reg_cache: bool,
    ) -> Matrix {
        let mut dev = Device::new(DeviceConfig::test_small());
        let gd = GraphOnDevice::upload(&mut dev, g, x);
        let assignment = if software {
            Assignment::software()
        } else {
            Assignment::hardware()
        };
        let lc = assignment.launch_config(gd.n, dev.cfg(), if reg_cache { 48 } else { 26 });
        let work = if software {
            let cursor = dev.mem_mut().alloc::<u32>(1);
            WorkSource::Software {
                cursor,
                step: 4,
                total_warps: lc.total_warps(),
            }
        } else {
            WorkSource::Hardware
        };
        let k = FusedConvKernel::new(gd, agg, work, reg_cache);
        dev.launch(&k, lc);
        gd.read_output(&dev)
    }

    fn model_of(agg: Aggregator) -> GnnModel {
        match agg {
            Aggregator::GcnSum => GnnModel::Gcn,
            Aggregator::GinSum { eps } => GnnModel::Gin { eps },
            Aggregator::SageMean => GnnModel::Sage,
        }
    }

    #[test]
    fn all_aggregators_match_oracle_hardware() {
        let g = generators::rmat_default(200, 1500, 3);
        let x = Matrix::random(200, 32, 1.0, 4);
        for agg in [
            Aggregator::GcnSum,
            Aggregator::GinSum { eps: 0.25 },
            Aggregator::SageMean,
        ] {
            let got = run_fused(&g, &x, agg, false, true);
            let want = conv_reference(&model_of(agg), &g, &x);
            assert!(
                got.max_abs_diff(&want) < 1e-4,
                "{agg:?} diverged: {}",
                got.max_abs_diff(&want)
            );
        }
    }

    #[test]
    fn software_assignment_matches_oracle() {
        let g = generators::rmat_default(300, 2500, 5);
        let x = Matrix::random(300, 32, 1.0, 6);
        let got = run_fused(&g, &x, Aggregator::GcnSum, true, true);
        let want = conv_reference(&GnnModel::Gcn, &g, &x);
        assert!(got.max_abs_diff(&want) < 1e-4);
    }

    #[test]
    fn no_reg_cache_is_functionally_identical() {
        let g = generators::erdos_renyi(150, 800, 7);
        let x = Matrix::random(150, 32, 1.0, 8);
        let cached = run_fused(&g, &x, Aggregator::GinSum { eps: 0.0 }, false, true);
        let uncached = run_fused(&g, &x, Aggregator::GinSum { eps: 0.0 }, false, false);
        assert!(cached.max_abs_diff(&uncached) < 1e-4);
    }

    #[test]
    fn wide_features_tile_correctly() {
        let g = generators::erdos_renyi(60, 300, 9);
        let x = Matrix::random(60, 96, 1.0, 10); // 3 tiles
        let got = run_fused(&g, &x, Aggregator::GcnSum, false, true);
        let want = conv_reference(&GnnModel::Gcn, &g, &x);
        assert!(got.max_abs_diff(&want) < 1e-4);
    }

    #[test]
    fn narrow_features_mask_lanes() {
        let g = generators::erdos_renyi(60, 300, 11);
        let x = Matrix::random(60, 16, 1.0, 12); // half-warp active
        let got = run_fused(&g, &x, Aggregator::SageMean, false, true);
        let want = conv_reference(&GnnModel::Sage, &g, &x);
        assert!(got.max_abs_diff(&want) < 1e-4);
    }

    #[test]
    fn fused_kernel_uses_no_atomics_in_hardware_mode() {
        let mut dev = Device::new(DeviceConfig::test_small());
        let g = generators::rmat_default(100, 700, 13);
        let x = Matrix::random(100, 32, 1.0, 14);
        let gd = GraphOnDevice::upload(&mut dev, &g, &x);
        let k = FusedConvKernel::new(gd, Aggregator::GcnSum, WorkSource::Hardware, true);
        let p = dev.launch(
            &k,
            Assignment::hardware().launch_config(gd.n, dev.cfg(), 48),
        );
        assert_eq!(
            p.atomic_requests, 0,
            "vertex parallelism must be atomic-free"
        );
        assert_eq!(p.atomic_bytes, 0);
    }

    #[test]
    fn reg_cache_reduces_traffic() {
        let mut dev = Device::new(DeviceConfig::test_small());
        let g = generators::rmat_default(150, 2000, 15);
        let x = Matrix::random(150, 32, 1.0, 16);
        let gd = GraphOnDevice::upload(&mut dev, &g, &x);
        let lc = Assignment::hardware().launch_config(gd.n, dev.cfg(), 48);
        let cached = dev.launch(
            &FusedConvKernel::new(
                gd,
                Aggregator::GinSum { eps: 0.0 },
                WorkSource::Hardware,
                true,
            ),
            lc,
        );
        dev.mem().fill(gd.output, 0.0);
        let uncached = dev.launch(
            &FusedConvKernel::new(
                gd,
                Aggregator::GinSum { eps: 0.0 },
                WorkSource::Hardware,
                false,
            ),
            lc,
        );
        assert!(uncached.store_bytes > 2 * cached.store_bytes);
        assert!(uncached.gpu_cycles > cached.gpu_cycles);
    }

    #[test]
    fn static_contiguous_covers_all_vertices() {
        let g = generators::rmat_default(100, 600, 17);
        let x = Matrix::random(100, 32, 1.0, 18);
        let mut dev = Device::new(DeviceConfig::test_small());
        let gd = GraphOnDevice::upload(&mut dev, &g, &x);
        let lc = gpu_sim::LaunchConfig::new(4, 256); // 32 warps persistent
        let k = FusedConvKernel::new(
            gd,
            Aggregator::GcnSum,
            WorkSource::StaticContiguous {
                total_warps: lc.total_warps(),
            },
            true,
        );
        dev.launch(&k, lc);
        let want = conv_reference(&GnnModel::Gcn, &g, &x);
        assert!(gd.read_output(&dev).max_abs_diff(&want) < 1e-4);
    }
}
