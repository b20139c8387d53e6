//! Design-space variant kernels the paper profiles TLPGNN against.
//!
//! * [`ThreadPerVertexKernel`] — first level maps one **thread** to one
//!   vertex (Table 2 "One Thread"): lanes of a warp walk different
//!   neighbor lists (branch divergence) and read the same feature index of
//!   32 different vertices (fully uncoalesced).
//! * [`SubWarpKernel`] — `lanes_per_vertex` threads per vertex (Table 2's
//!   "Half Warp" is 16); coalescing improves with the group size.
//! * `CtaPerVertexKernel` — one whole thread block per vertex: warps
//!   split the edge list, combine partials in shared memory behind
//!   barriers (the synchronization overhead of Section 4.2).
//! * [`EdgeParallelSecondKernel`] — keeps warp-per-vertex but uses the
//!   *edge-parallel* second level of Figure 5(a): lanes cover 32 edges at
//!   one feature dimension, requiring a cross-lane reduction per dimension
//!   and scattered feature loads.
//!
//! All variants compute the same sum-family aggregations as the fused
//! kernel and are oracle-checked; only their performance differs.

use gpu_sim::{Device, Kernel, KernelProfile, LaunchConfig, WarpCtx, WARP_SIZE};
use tlpgnn_graph::Csr;
use tlpgnn_tensor::Matrix;

use super::Aggregator;
use crate::gpu::GraphOnDevice;

/// An enumerable handle over every design-space kernel in this module,
/// so harnesses (benchmarks, the conformance fuzzer) can sweep the whole
/// variant space without naming concrete kernel types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelVariant {
    /// [`ThreadPerVertexKernel`].
    ThreadPerVertex,
    /// [`SubWarpKernel`] with the given group width (must divide 32).
    SubWarp {
        /// Threads cooperating on one vertex.
        lanes_per_vertex: usize,
    },
    /// `CtaPerVertexKernel`.
    CtaPerVertex,
    /// [`EdgeParallelSecondKernel`].
    EdgeParallelSecond,
}

impl KernelVariant {
    /// Every variant the paper profiles, including both sub-warp widths
    /// from Table 2 (quarter and half warp).
    pub fn all() -> Vec<KernelVariant> {
        vec![
            KernelVariant::ThreadPerVertex,
            KernelVariant::SubWarp {
                lanes_per_vertex: 8,
            },
            KernelVariant::SubWarp {
                lanes_per_vertex: 16,
            },
            KernelVariant::CtaPerVertex,
            KernelVariant::EdgeParallelSecond,
        ]
    }

    /// Stable human-readable label (used in corpus files and reports).
    pub fn label(&self) -> String {
        match self {
            KernelVariant::ThreadPerVertex => "thread_per_vertex".into(),
            KernelVariant::SubWarp { lanes_per_vertex } => {
                format!("sub_warp_{lanes_per_vertex}")
            }
            KernelVariant::CtaPerVertex => "cta_per_vertex".into(),
            KernelVariant::EdgeParallelSecond => "edge_parallel_second".into(),
        }
    }

    /// Construct the kernel for a device-resident graph.
    pub(crate) fn build(&self, gd: GraphOnDevice, agg: Aggregator) -> Box<dyn Kernel> {
        match *self {
            KernelVariant::ThreadPerVertex => Box::new(ThreadPerVertexKernel { gd, agg }),
            KernelVariant::SubWarp { lanes_per_vertex } => Box::new(SubWarpKernel {
                gd,
                agg,
                lanes_per_vertex,
            }),
            KernelVariant::CtaPerVertex => Box::new(CtaPerVertexKernel { gd, agg }),
            KernelVariant::EdgeParallelSecond => Box::new(EdgeParallelSecondKernel { gd, agg }),
        }
    }

    /// The launch geometry each variant's mapping requires.
    pub(crate) fn launch_config(&self, gd: &GraphOnDevice) -> LaunchConfig {
        match *self {
            KernelVariant::ThreadPerVertex => {
                LaunchConfig::warp_per_item(gd.n.div_ceil(WARP_SIZE), 128)
            }
            KernelVariant::SubWarp { lanes_per_vertex } => {
                let groups = WARP_SIZE / lanes_per_vertex;
                LaunchConfig::warp_per_item(gd.n.div_ceil(groups), 128)
            }
            KernelVariant::CtaPerVertex => LaunchConfig::new(gd.n, 128),
            KernelVariant::EdgeParallelSecond => LaunchConfig::warp_per_item(gd.n, 128),
        }
    }

    /// Upload `g`/`x`, launch this variant, read back the result, and free
    /// the device buffers. One-call convenience for sweeps and fuzzing.
    pub fn run(
        &self,
        dev: &mut Device,
        g: &Csr,
        x: &Matrix,
        agg: Aggregator,
    ) -> (Matrix, KernelProfile) {
        let gd = GraphOnDevice::upload(dev, g, x);
        let kernel = self.build(gd, agg);
        let profile = dev.launch(kernel.as_ref(), self.launch_config(&gd));
        let out = gd.read_output(dev);
        gd.free(dev);
        (out, profile)
    }
}

/// Per-edge scale factor for an aggregator (1 for GIN, `c_u c_v` for GCN,
/// `1/deg` for Sage mean).
#[inline]
fn self_scale(agg: Aggregator, norm_v: f32) -> f32 {
    match agg {
        Aggregator::GcnSum => norm_v * norm_v,
        Aggregator::GinSum { eps } => 1.0 + eps,
        Aggregator::SageMean => 0.0,
    }
}

/// One CUDA **thread** per vertex (the traditional graph-processing
/// mapping the paper's Table 2 shows is catastrophic for GNN features).
pub struct ThreadPerVertexKernel {
    /// Device-resident graph and features.
    pub gd: GraphOnDevice,
    /// Aggregation operator.
    pub agg: Aggregator,
}

impl Kernel for ThreadPerVertexKernel {
    fn name(&self) -> &str {
        "thread_per_vertex"
    }

    fn regs_per_thread(&self) -> usize {
        40
    }

    fn run_warp(&self, w: &mut WarpCtx<'_>) {
        let gd = &self.gd;
        let n = gd.n;
        let f = gd.feat_dim;
        let base = w.global_warp() * WARP_SIZE;
        if base >= n {
            return;
        }
        let lane_vertex = |lane: usize| {
            let v = base + lane;
            (v < n).then_some(v)
        };
        // Coalesced reads of each lane's row bounds.
        let count = (n - base).min(WARP_SIZE);
        let starts = w.ld_run(gd.indptr, base, count);
        let ends = w.ld_run(gd.indptr, base + 1, count);
        let norms = match self.agg {
            Aggregator::GcnSum => w.ld_run(gd.norm, base, count),
            _ => [0.0; WARP_SIZE],
        };
        let degs = match self.agg {
            Aggregator::SageMean => w.ld_run(gd.degree, base, count),
            _ => [0u32; WARP_SIZE],
        };
        let max_deg = (0..WARP_SIZE)
            .filter_map(|l| lane_vertex(l).map(|_| (ends[l] - starts[l]) as usize))
            .max()
            .unwrap_or(0);

        // Per-lane accumulators: one full feature vector per thread.
        let mut acc = vec![0.0f32; WARP_SIZE * f];

        // Lock-step edge walk: lanes whose list is exhausted idle
        // (branch divergence).
        for step in 0..max_deg {
            let lane_active = |lane: usize| {
                lane_vertex(lane).filter(|_| starts[lane] as usize + step < ends[lane] as usize)
            };
            let active = (0..WARP_SIZE).filter(|&l| lane_active(l).is_some()).count();
            // Scattered index loads: each lane reads from its own row.
            let us = w.ld(gd.indices, |lane| {
                lane_active(lane).map(|_| starts[lane] as usize + step)
            });
            let scales: [f32; WARP_SIZE] = match self.agg {
                Aggregator::GcnSum => {
                    let nu = w.ld(gd.norm, |lane| lane_active(lane).map(|_| us[lane] as usize));
                    std::array::from_fn(|l| nu[l] * norms[l])
                }
                Aggregator::GinSum { .. } => [1.0; WARP_SIZE],
                Aggregator::SageMean => std::array::from_fn(|l| {
                    if degs[l] == 0 {
                        0.0
                    } else {
                        1.0 / degs[l] as f32
                    }
                }),
            };
            // Feature loop: every lane reads dimension d of a *different*
            // vertex — one sector per lane, the uncoalesced pattern of
            // Figure 3(a).
            for d in 0..f {
                let vals = w.ld(gd.features, |lane| {
                    lane_active(lane).map(|_| us[lane] as usize * f + d)
                });
                w.issue_simd(2, active);
                for lane in 0..WARP_SIZE {
                    if lane_active(lane).is_some() {
                        acc[lane * f + d] += scales[lane] * vals[lane];
                    }
                }
            }
        }
        // Self term + writeback, one dimension at a time (scattered).
        for d in 0..f {
            let own = if matches!(self.agg, Aggregator::SageMean) {
                [0.0; WARP_SIZE]
            } else {
                w.ld(gd.features, |lane| lane_vertex(lane).map(|v| v * f + d))
            };
            w.issue(1);
            w.st(gd.output, |lane| {
                lane_vertex(lane).map(|v| {
                    let s = self_scale(self.agg, norms[lane]);
                    (v * f + d, acc[lane * f + d] + s * own[lane])
                })
            });
        }
    }
}

/// `lanes_per_vertex` threads cooperate on one vertex; a warp therefore
/// carries `32 / lanes_per_vertex` vertices. Table 2's "Half Warp" uses 16.
pub struct SubWarpKernel {
    /// Device-resident graph and features.
    pub gd: GraphOnDevice,
    /// Aggregation operator.
    pub agg: Aggregator,
    /// Threads per vertex; must divide 32.
    pub lanes_per_vertex: usize,
}

impl Kernel for SubWarpKernel {
    fn name(&self) -> &str {
        "sub_warp"
    }

    fn regs_per_thread(&self) -> usize {
        44
    }

    fn run_warp(&self, w: &mut WarpCtx<'_>) {
        let lpv = self.lanes_per_vertex;
        assert!(lpv >= 1 && 32 % lpv == 0, "lanes_per_vertex must divide 32");
        let groups = WARP_SIZE / lpv;
        let gd = &self.gd;
        let n = gd.n;
        let f = gd.feat_dim;
        let base = w.global_warp() * groups;
        if base >= n {
            return;
        }
        let group_vertex = |g: usize| {
            let v = base + g;
            (v < n).then_some(v)
        };
        // One request covering the bounds of all groups' vertices.
        let count = (n - base).min(groups);
        let starts = w.ld_run(gd.indptr, base, count);
        let ends = w.ld_run(gd.indptr, base + 1, count);
        let norms = match self.agg {
            Aggregator::GcnSum => w.ld_run(gd.norm, base, count),
            _ => [0.0; WARP_SIZE],
        };
        let degs = match self.agg {
            Aggregator::SageMean => w.ld_run(gd.degree, base, count),
            _ => [0u32; WARP_SIZE],
        };
        let max_deg = (0..groups)
            .filter_map(|g| group_vertex(g).map(|_| (ends[g] - starts[g]) as usize))
            .max()
            .unwrap_or(0);
        let tiles = f.div_ceil(lpv);
        let mut acc = vec![0.0f32; WARP_SIZE * tiles];

        for step in 0..max_deg {
            let group_active =
                |g: usize| group_vertex(g).filter(|_| starts[g] as usize + step < ends[g] as usize);
            let us = w.ld(gd.indices, |lane| {
                (lane < groups)
                    .then_some(lane)
                    .and_then(group_active)
                    .map(|_| starts[lane] as usize + step)
            });
            let scales: Vec<f32> = (0..groups)
                .map(|g| match self.agg {
                    Aggregator::GcnSum => norms[g],
                    Aggregator::GinSum { .. } => 1.0,
                    Aggregator::SageMean => {
                        if degs[g] == 0 {
                            0.0
                        } else {
                            1.0 / degs[g] as f32
                        }
                    }
                })
                .collect();
            let nu = match self.agg {
                Aggregator::GcnSum => w.ld(gd.norm, |lane| {
                    (lane < groups)
                        .then_some(lane)
                        .and_then(group_active)
                        .map(|_| us[lane] as usize)
                }),
                _ => [1.0; WARP_SIZE],
            };
            for tile in 0..tiles {
                let dbase = tile * lpv;
                let active: usize = (0..groups)
                    .filter(|&g| group_active(g).is_some())
                    .map(|_| lpv.min(f - dbase))
                    .sum();
                // Each group's lanes read lpv consecutive dims of its own
                // neighbor: `groups` runs of `lpv` floats.
                let vals = w.ld(gd.features, |lane| {
                    let g = lane / lpv;
                    let off = lane % lpv;
                    let d = dbase + off;
                    (g < groups && d < f)
                        .then_some(g)
                        .and_then(group_active)
                        .map(|_| us[g] as usize * f + d)
                });
                w.issue_simd(2, active);
                for lane in 0..WARP_SIZE {
                    let g = lane / lpv;
                    let d = dbase + lane % lpv;
                    if g < groups && d < f && group_active(g).is_some() {
                        let scale = match self.agg {
                            Aggregator::GcnSum => nu[g] * scales[g],
                            _ => scales[g],
                        };
                        acc[lane * tiles + tile] += scale * vals[lane];
                    }
                }
            }
        }
        // Self term + writeback.
        for tile in 0..tiles {
            let dbase = tile * lpv;
            let own = if matches!(self.agg, Aggregator::SageMean) {
                [0.0; WARP_SIZE]
            } else {
                w.ld(gd.features, |lane| {
                    let g = lane / lpv;
                    let d = dbase + lane % lpv;
                    (g < groups && d < f)
                        .then_some(g)
                        .and_then(group_vertex)
                        .map(|v| v * f + d)
                })
            };
            w.issue(1);
            w.st(gd.output, |lane| {
                let g = lane / lpv;
                let d = dbase + lane % lpv;
                (g < groups && d < f)
                    .then_some(g)
                    .and_then(group_vertex)
                    .map(|v| {
                        let s = self_scale(self.agg, norms[g]);
                        (v * f + d, acc[lane * tiles + tile] + s * own[lane])
                    })
            });
        }
    }
}

/// One thread block per vertex: `warps_per_block` warps split the edge
/// list, accumulate partials into shared memory behind two barriers, and
/// warp 0 writes the result. Models the CTA-mapping cost of Section 4.2.
pub(crate) struct CtaPerVertexKernel {
    /// Device-resident graph and features.
    pub(crate) gd: GraphOnDevice,
    /// Aggregation operator.
    pub(crate) agg: Aggregator,
}

impl Kernel for CtaPerVertexKernel {
    fn name(&self) -> &str {
        "cta_per_vertex"
    }

    fn regs_per_thread(&self) -> usize {
        40
    }

    fn shared_f32_per_block(&self) -> usize {
        // One partial feature tile per warp slot (up to 32 warps) per
        // feature tile of the vertex.
        32 * WARP_SIZE * self.gd.tiles()
    }

    fn run_warp(&self, w: &mut WarpCtx<'_>) {
        // NOTE: the simulator executes a block's warps sequentially, so
        // the producer/consumer split across the barrier must follow warp
        // order: every warp deposits partials, and the *last* warp (which
        // runs after all producers) performs the reduction. On hardware
        // the two `sync_threads` barriers make any reducer warp legal;
        // choosing the last one is correct in both execution models.
        let gd = &self.gd;
        let v = w.block_idx();
        if v >= gd.n {
            return;
        }
        let f = gd.feat_dim;
        let wpb = w.warps_per_block();
        let wid = w.warp_in_block();
        let tiles = gd.tiles();
        let start = w.ld_scalar(gd.indptr, v) as usize;
        let end = w.ld_scalar(gd.indptr, v + 1) as usize;
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
        for tile in 0..tiles {
            let base = tile * WARP_SIZE;
            let active = (f - base).min(WARP_SIZE);
            let mut acc = [0.0f32; WARP_SIZE];
            // This warp handles edges start+wid, start+wid+wpb, ...
            let mut i = start + wid;
            while i < end {
                let u = w.ld_scalar(gd.indices, i) as usize;
                let scale = match self.agg {
                    Aggregator::GcnSum => w.ld_scalar(gd.norm, u) * norm_v,
                    Aggregator::GinSum { .. } => 1.0,
                    Aggregator::SageMean => inv_deg,
                };
                let vals = w.ld_run(gd.features, u * f + base, active);
                w.issue_simd(2, active);
                for lane in 0..active {
                    acc[lane] += scale * vals[lane];
                }
                i += wpb;
            }
            // Deposit this warp's partial for this tile in shared memory
            // (consecutive words: conflict-free).
            {
                let off = (wid * tiles + tile) * WARP_SIZE;
                let shared = w.shared();
                shared[off..off + active].copy_from_slice(&acc[..active]);
            }
            w.shared_access(|l| (l < active).then(|| (wid * tiles + tile) * WARP_SIZE + l));
        }
        w.sync_threads();
        // The last warp combines all partials and writes the output.
        if wid == wpb - 1 {
            for tile in 0..tiles {
                let base = tile * WARP_SIZE;
                let active = (f - base).min(WARP_SIZE);
                let mut total = [0.0f32; WARP_SIZE];
                {
                    let shared = w.shared();
                    for src in 0..wpb {
                        let off = (src * tiles + tile) * WARP_SIZE;
                        for lane in 0..active {
                            total[lane] += shared[off + lane];
                        }
                    }
                }
                for src in 0..wpb {
                    w.shared_access(|l| (l < active).then(|| (src * tiles + tile) * WARP_SIZE + l));
                }
                let self_w = self_scale(self.agg, norm_v);
                if self_w != 0.0 {
                    let own = w.ld_run(gd.features, v * f + base, active);
                    w.issue_simd(2, active);
                    for lane in 0..active {
                        total[lane] += self_w * own[lane];
                    }
                }
                w.st_run(gd.output, v * f + base, active, &total);
            }
        }
        w.sync_threads();
    }
}

/// Warp-per-vertex with the **edge-parallel** second level of Figure 5(a):
/// lanes cover up to 32 edges at a single feature dimension; a cross-lane
/// reduction collapses them before the (single-lane) accumulate. Feature
/// dimensions advance sequentially, so neighbor loads are scattered.
pub struct EdgeParallelSecondKernel {
    /// Device-resident graph and features.
    pub gd: GraphOnDevice,
    /// Aggregation operator.
    pub agg: Aggregator,
}

impl Kernel for EdgeParallelSecondKernel {
    fn name(&self) -> &str {
        "edge_parallel_second_level"
    }

    fn regs_per_thread(&self) -> usize {
        36
    }

    fn run_warp(&self, w: &mut WarpCtx<'_>) {
        let gd = &self.gd;
        let v = w.global_warp();
        if v >= gd.n {
            return;
        }
        let f = gd.feat_dim;
        let start = w.ld_scalar(gd.indptr, v) as usize;
        let end = w.ld_scalar(gd.indptr, v + 1) as usize;
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
        let mut out_row = vec![0.0f32; f];
        // Chunk the edge list 32 at a time; lanes own edges.
        let mut chunk = start;
        while chunk < end {
            let count = (end - chunk).min(WARP_SIZE);
            let us = w.ld_run(gd.indices, chunk, count);
            let scales: [f32; WARP_SIZE] = match self.agg {
                Aggregator::GcnSum => {
                    let nu = w.ld(gd.norm, |lane| (lane < count).then(|| us[lane] as usize));
                    std::array::from_fn(|l| nu[l] * norm_v)
                }
                Aggregator::GinSum { .. } => [1.0; WARP_SIZE],
                Aggregator::SageMean => [inv_deg; WARP_SIZE],
            };
            // Feature dimensions advance sequentially (Figure 5a's moving
            // direction): each step loads dimension d of `count` different
            // vertices — scattered — then reduces across lanes.
            for (d, out_slot) in out_row.iter_mut().enumerate() {
                let vals = w.ld(gd.features, |lane| {
                    (lane < count).then(|| us[lane] as usize * f + d)
                });
                w.issue_simd(2, count);
                w.shfl_reduce();
                let partial: f32 = (0..count).map(|l| scales[l] * vals[l]).sum();
                *out_slot += partial;
            }
            chunk += count;
        }
        // Self term and writeback, feature-parallel for fairness.
        for tile in 0..gd.tiles() {
            let base = tile * WARP_SIZE;
            let active = (f - base).min(WARP_SIZE);
            let self_w = self_scale(self.agg, norm_v);
            let own = if self_w != 0.0 {
                w.ld_run(gd.features, v * f + base, active)
            } else {
                [0.0; WARP_SIZE]
            };
            w.issue_simd(1, active);
            let mut row = [0.0f32; WARP_SIZE];
            for lane in 0..active {
                row[lane] = out_row[base + lane] + self_w * own[lane];
            }
            w.st_run(gd.output, v * f + base, active, &row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::GnnModel;
    use crate::oracle::conv_reference;
    use gpu_sim::{Device, DeviceConfig, LaunchConfig};
    use tlpgnn_graph::generators;
    use tlpgnn_tensor::Matrix;

    fn model_of(agg: Aggregator) -> GnnModel {
        match agg {
            Aggregator::GcnSum => GnnModel::Gcn,
            Aggregator::GinSum { eps } => GnnModel::Gin { eps },
            Aggregator::SageMean => GnnModel::Sage,
        }
    }

    fn check(
        kernel: &dyn Kernel,
        dev: &mut Device,
        gd: GraphOnDevice,
        lc: LaunchConfig,
        want: &Matrix,
    ) {
        dev.launch(kernel, lc);
        let got = gd.read_output(dev);
        assert!(
            got.max_abs_diff(want) < 1e-3,
            "{} diverged: {}",
            kernel.name(),
            got.max_abs_diff(want)
        );
    }

    #[test]
    fn thread_per_vertex_matches_oracle() {
        let g = generators::rmat_default(100, 600, 41);
        let x = Matrix::random(100, 16, 1.0, 42);
        for agg in [
            Aggregator::GcnSum,
            Aggregator::GinSum { eps: 0.1 },
            Aggregator::SageMean,
        ] {
            let mut dev = Device::new(DeviceConfig::test_small());
            let gd = GraphOnDevice::upload(&mut dev, &g, &x);
            let k = ThreadPerVertexKernel { gd, agg };
            let lc = LaunchConfig::warp_per_item(gd.n.div_ceil(32), 128);
            check(
                &k,
                &mut dev,
                gd,
                lc,
                &conv_reference(&model_of(agg), &g, &x),
            );
        }
    }

    #[test]
    fn thread_per_vertex_is_uncoalesced() {
        let g = generators::erdos_renyi(256, 4096, 43);
        let x = Matrix::random(256, 32, 1.0, 44);
        let mut dev = Device::new(DeviceConfig::test_small());
        let gd = GraphOnDevice::upload(&mut dev, &g, &x);
        let k = ThreadPerVertexKernel {
            gd,
            agg: Aggregator::GinSum { eps: 0.0 },
        };
        let p = dev.launch(&k, LaunchConfig::warp_per_item(gd.n.div_ceil(32), 128));
        assert!(
            p.sectors_per_request > 6.0,
            "expected heavy uncoalesced access, got {}",
            p.sectors_per_request
        );
    }

    #[test]
    fn sub_warp_matches_oracle_multiple_widths() {
        let g = generators::rmat_default(120, 800, 45);
        let x = Matrix::random(120, 32, 1.0, 46);
        let want = conv_reference(&GnnModel::Gcn, &g, &x);
        for lpv in [8usize, 16, 32] {
            let mut dev = Device::new(DeviceConfig::test_small());
            let gd = GraphOnDevice::upload(&mut dev, &g, &x);
            let k = SubWarpKernel {
                gd,
                agg: Aggregator::GcnSum,
                lanes_per_vertex: lpv,
            };
            let groups = 32 / lpv;
            let lc = LaunchConfig::warp_per_item(gd.n.div_ceil(groups), 128);
            check(&k, &mut dev, gd, lc, &want);
        }
    }

    #[test]
    fn half_warp_more_coalesced_than_one_thread() {
        let g = generators::erdos_renyi(512, 6000, 47);
        let x = Matrix::random(512, 128, 1.0, 48);
        let mut dev = Device::new(DeviceConfig::test_small());
        let gd = GraphOnDevice::upload(&mut dev, &g, &x);
        let one = ThreadPerVertexKernel {
            gd,
            agg: Aggregator::GinSum { eps: 0.0 },
        };
        let p_one = dev.launch(&one, LaunchConfig::warp_per_item(gd.n.div_ceil(32), 128));
        dev.mem().fill(gd.output, 0.0);
        let half = SubWarpKernel {
            gd,
            agg: Aggregator::GinSum { eps: 0.0 },
            lanes_per_vertex: 16,
        };
        let p_half = dev.launch(&half, LaunchConfig::warp_per_item(gd.n.div_ceil(2), 128));
        assert!(p_one.sectors_per_request > 2.0 * p_half.sectors_per_request);
        assert!(p_one.gpu_cycles > p_half.gpu_cycles);
    }

    #[test]
    fn cta_per_vertex_matches_oracle() {
        let g = generators::rmat_default(80, 900, 49);
        let x = Matrix::random(80, 32, 1.0, 50);
        for agg in [
            Aggregator::GcnSum,
            Aggregator::GinSum { eps: 0.3 },
            Aggregator::SageMean,
        ] {
            let mut dev = Device::new(DeviceConfig::test_small());
            let gd = GraphOnDevice::upload(&mut dev, &g, &x);
            let k = CtaPerVertexKernel { gd, agg };
            // One block per vertex, 4 warps per block.
            let lc = LaunchConfig::new(gd.n, 128);
            check(
                &k,
                &mut dev,
                gd,
                lc,
                &conv_reference(&model_of(agg), &g, &x),
            );
        }
    }

    #[test]
    fn edge_parallel_second_matches_oracle() {
        let g = generators::rmat_default(90, 700, 51);
        let x = Matrix::random(90, 32, 1.0, 52);
        for agg in [
            Aggregator::GcnSum,
            Aggregator::GinSum { eps: 0.0 },
            Aggregator::SageMean,
        ] {
            let mut dev = Device::new(DeviceConfig::test_small());
            let gd = GraphOnDevice::upload(&mut dev, &g, &x);
            let k = EdgeParallelSecondKernel { gd, agg };
            let lc = LaunchConfig::warp_per_item(gd.n, 128);
            check(
                &k,
                &mut dev,
                gd,
                lc,
                &conv_reference(&model_of(agg), &g, &x),
            );
        }
    }

    #[test]
    fn feature_parallel_beats_edge_parallel_second_level() {
        use super::super::{fused::FusedConvKernel, WorkSource};
        let g = generators::rmat_default(256, 4000, 53);
        let x = Matrix::random(256, 32, 1.0, 54);
        let mut dev = Device::new(DeviceConfig::test_small());
        let gd = GraphOnDevice::upload(&mut dev, &g, &x);
        let fp = FusedConvKernel::new(
            gd,
            Aggregator::GinSum { eps: 0.0 },
            WorkSource::Hardware,
            true,
        );
        let p_fp = dev.launch(&fp, LaunchConfig::warp_per_item(gd.n, 256));
        dev.mem().fill(gd.output, 0.0);
        let ep = EdgeParallelSecondKernel {
            gd,
            agg: Aggregator::GinSum { eps: 0.0 },
        };
        let p_ep = dev.launch(&ep, LaunchConfig::warp_per_item(gd.n, 256));
        assert!(
            p_ep.gpu_cycles > p_fp.gpu_cycles,
            "edge-parallel {} should be slower than feature-parallel {}",
            p_ep.gpu_cycles,
            p_fp.gpu_cycles
        );
    }
}
