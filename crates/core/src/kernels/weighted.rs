//! Edge-weighted aggregation: `out[v] = Σ_{e=(u,v)} w_e · x[u]`.
//!
//! The unfused GAT pipelines run it as their third stage, aggregating
//! with the materialized softmax weights (the Figure 10 ablation ladder
//! in `tlpgnn_baselines::multikernel`).
//!
//! It is the fused TLPGNN aggregation with the per-edge scale read from a
//! device buffer instead of computed from vertex state, and keeps the
//! same knobs: first-level [`WorkSource`] and register caching.

use gpu_sim::{DeviceBuffer, Kernel, WarpCtx, WARP_SIZE};

use super::WorkSource;

/// Weighted aggregation over CSR rows with configurable first-level
/// assignment and register caching.
pub struct WeightedAggKernel {
    /// CSR offsets.
    pub indptr: DeviceBuffer<u32>,
    /// CSR neighbor ids.
    pub indices: DeviceBuffer<u32>,
    /// Per-edge weights (CSR order).
    pub values: DeviceBuffer<f32>,
    /// Input features.
    pub x: DeviceBuffer<f32>,
    /// Output features.
    pub out: DeviceBuffer<f32>,
    /// Rows.
    pub n: usize,
    /// Feature dimension.
    pub f: usize,
    /// First-level work source.
    pub work: WorkSource,
    /// Register caching.
    pub reg_cache: bool,
}

impl WeightedAggKernel {
    /// Registers per thread, with and without register caching (the
    /// fused sum kernel's budget: same loop, same cached state).
    pub const fn regs(reg_cache: bool) -> usize {
        super::fused::FusedConvKernel::regs(reg_cache)
    }
}

impl Kernel for WeightedAggKernel {
    fn name(&self) -> &str {
        "weighted_aggregate"
    }
    fn regs_per_thread(&self) -> usize {
        Self::regs(self.reg_cache)
    }
    fn run_warp(&self, w: &mut WarpCtx<'_>) {
        self.work.for_each_vertex(w, self.n, |w, v| {
            let f = self.f;
            let start = w.ld_scalar(self.indptr, v) as usize;
            let end = w.ld_scalar(self.indptr, v + 1) as usize;
            for tile in 0..f.div_ceil(WARP_SIZE) {
                let base = tile * WARP_SIZE;
                let active = (f - base).min(WARP_SIZE);
                let out_at = v * f + base;
                let mut acc = [0.0f32; WARP_SIZE];
                if !self.reg_cache {
                    w.st_run(self.out, out_at, active, &[0.0; WARP_SIZE]);
                }
                for i in start..end {
                    if !self.reg_cache {
                        let _ = w.ld_scalar(self.indptr, v + 1);
                    }
                    let u = w.ld_scalar(self.indices, i) as usize;
                    let val = w.ld_scalar(self.values, i);
                    let xs = w.ld_run(self.x, u * f + base, active);
                    w.issue_simd(2, active);
                    if self.reg_cache {
                        for l in 0..active {
                            acc[l] += val * xs[l];
                        }
                    } else {
                        let cur = w.ld_run(self.out, out_at, active);
                        let sum = std::array::from_fn(|l| cur[l] + val * xs[l]);
                        w.st_run(self.out, out_at, active, &sum);
                    }
                }
                if self.reg_cache {
                    w.st_run(self.out, out_at, active, &acc);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Assignment;
    use gpu_sim::{Device, DeviceConfig};
    use tlpgnn_graph::{generators, Csr};
    use tlpgnn_tensor::Matrix;

    /// Serial reference for the edge-weighted aggregation. `weights` is
    /// in CSR edge order.
    fn weighted_reference(g: &Csr, x: &Matrix, weights: &[f32]) -> Matrix {
        assert_eq!(weights.len(), g.num_edges());
        let f = x.cols();
        let mut out = Matrix::zeros(g.num_vertices(), f);
        let mut e = 0usize;
        for v in 0..g.num_vertices() {
            let row = out.row_mut(v);
            for &u in g.neighbors(v) {
                let w = weights[e];
                e += 1;
                for (o, &xv) in row.iter_mut().zip(x.row(u as usize)) {
                    *o += w * xv;
                }
            }
        }
        out
    }

    #[test]
    fn weighted_kernel_matches_reference_all_modes() {
        let g = generators::rmat_default(200, 1500, 411);
        let x = Matrix::random(200, 32, 1.0, 412);
        let weights = Matrix::random(1, g.num_edges(), 1.0, 413).into_vec();
        let want = weighted_reference(&g, &x, &weights);
        for (software, reg_cache) in [(false, true), (false, false), (true, true)] {
            let mut dev = Device::new(DeviceConfig::test_small());
            let mem = dev.mem_mut();
            let indptr = mem.alloc_from(g.indptr());
            let indices = mem.alloc_from(g.indices());
            let values = mem.alloc_from(&weights);
            let xb = mem.alloc_from(x.data());
            let out = mem.alloc::<f32>(200 * 32);
            let assignment = if software {
                Assignment::software()
            } else {
                Assignment::hardware()
            };
            let lc = assignment.launch_config(200, dev.cfg(), 48);
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
            let k = WeightedAggKernel {
                indptr,
                indices,
                values,
                x: xb,
                out,
                n: 200,
                f: 32,
                work,
                reg_cache,
            };
            dev.launch(&k, lc);
            let got = Matrix::from_vec(200, 32, dev.mem().read_vec(out));
            assert!(
                got.max_abs_diff(&want) < 1e-3,
                "software={software} reg_cache={reg_cache}: {}",
                got.max_abs_diff(&want)
            );
        }
    }

    #[test]
    fn uniform_weights_equal_plain_sum() {
        let g = generators::erdos_renyi(100, 600, 414);
        let x = Matrix::random(100, 8, 1.0, 415);
        let ones = vec![1.0f32; g.num_edges()];
        let weighted = weighted_reference(&g, &x, &ones);
        let plain = crate::oracle::conv_reference(&crate::GnnModel::Gin { eps: -1.0 }, &g, &x);
        assert!(weighted.max_abs_diff(&plain) < 1e-5);
    }
}
