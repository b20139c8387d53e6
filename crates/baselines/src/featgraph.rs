//! FeatGraph-like system: TVM-generated kernels with a rigid
//! vertex/thread mapping (paper Sections 1, 7.2; Figure 9).
//!
//! FeatGraph emits one kernel per graph operation, so the sum-family
//! models are a single launch and GAT is **three** (edge scores, softmax,
//! aggregate — Table 3's "Three-Kernel" point). The cost the paper
//! identifies is the mapping: the Tensor Expression schedule binds one
//! **thread block** per vertex with the feature axis as `threadIdx`. A
//! 32-feature model yields one-warp blocks, so an SM can host at most
//! `max_blocks_per_sm` warps (half its warp slots on Volta) and pays block
//! scheduling per vertex — the occupancy gap of Figure 9.

use gpu_sim::{Device, DeviceBuffer, Kernel, LaunchConfig, OpProfile, WarpCtx, WARP_SIZE};
use tlpgnn::{Aggregator, GnnModel};
use tlpgnn_graph::Csr;
use tlpgnn_tensor::activations::leaky_relu_scalar;
use tlpgnn_tensor::Matrix;

/// Host dispatch overhead per launch, ms (compiled TVM runtime — cheaper
/// than a Python framework, pricier than a bare kernel launch).
pub(crate) const FEATGRAPH_DISPATCH_MS: f64 = 0.045;

/// Sum-family convolution with the rigid block-per-vertex mapping.
pub(crate) struct FgConvKernel {
    /// CSR offsets.
    pub(crate) indptr: DeviceBuffer<u32>,
    /// CSR neighbor ids.
    pub(crate) indices: DeviceBuffer<u32>,
    /// Input features.
    pub(crate) features: DeviceBuffer<f32>,
    /// Output features.
    pub(crate) output: DeviceBuffer<f32>,
    /// GCN norms.
    pub(crate) norm: DeviceBuffer<f32>,
    /// In-degrees.
    pub(crate) degree: DeviceBuffer<u32>,
    /// Per-vertex self weights.
    pub(crate) self_w: DeviceBuffer<f32>,
    /// Aggregator.
    pub(crate) agg: Aggregator,
    /// Vertex count.
    pub(crate) n: usize,
    /// Feature dimension.
    pub(crate) f: usize,
}

impl Kernel for FgConvKernel {
    fn name(&self) -> &str {
        "featgraph_conv"
    }
    fn regs_per_thread(&self) -> usize {
        36
    }
    fn run_warp(&self, w: &mut WarpCtx<'_>) {
        // Rigid mapping: blockIdx.x = vertex, threadIdx.x = feature dim.
        let v = w.block_idx();
        if v >= self.n {
            return;
        }
        let f = self.f;
        // This warp covers dims [warp_in_block*32, ...+32).
        let base = w.warp_in_block() * WARP_SIZE;
        if base >= f {
            return;
        }
        let active = (f - base).min(WARP_SIZE);
        let start = w.ld_scalar(self.indptr, v) as usize;
        let end = w.ld_scalar(self.indptr, v + 1) as usize;
        let norm_v = match self.agg {
            Aggregator::GcnSum => w.ld_scalar(self.norm, v),
            _ => 0.0,
        };
        let inv_deg = match self.agg {
            Aggregator::SageMean => {
                let d = w.ld_scalar(self.degree, v);
                if d == 0 {
                    0.0
                } else {
                    1.0 / d as f32
                }
            }
            _ => 0.0,
        };
        let mut acc = [0.0f32; WARP_SIZE];
        for i in start..end {
            let u = w.ld_scalar(self.indices, i) as usize;
            let scale = match self.agg {
                Aggregator::GcnSum => w.ld_scalar(self.norm, u) * norm_v,
                Aggregator::GinSum { .. } => 1.0,
                Aggregator::SageMean => inv_deg,
            };
            let vals = w.ld_run(self.features, u * f + base, active);
            w.issue_simd(2, active);
            for l in 0..active {
                acc[l] += scale * vals[l];
            }
        }
        let sw = w.ld_scalar(self.self_w, v);
        if sw != 0.0 {
            let own = w.ld_run(self.features, v * f + base, active);
            w.issue_simd(2, active);
            for l in 0..active {
                acc[l] += sw * own[l];
            }
        }
        w.st_run(self.output, v * f + base, active, &acc);
    }
}

/// GAT kernel 1/3: per-edge attention score `s[e] = leaky(al[src] + ar[dst])`
/// (TVM fuses the gathers and the activation into one kernel).
pub(crate) struct FgEdgeScoreKernel {
    /// Source per edge.
    pub(crate) src: DeviceBuffer<u32>,
    /// Destination per edge.
    pub(crate) dst: DeviceBuffer<u32>,
    /// Source-side scores.
    pub(crate) al: DeviceBuffer<f32>,
    /// Destination-side scores.
    pub(crate) ar: DeviceBuffer<f32>,
    /// Per-edge output.
    pub(crate) s: DeviceBuffer<f32>,
    /// LeakyReLU slope.
    pub(crate) slope: f32,
    /// Edge count.
    pub(crate) m: usize,
}

impl Kernel for FgEdgeScoreKernel {
    fn name(&self) -> &str {
        "featgraph_edge_score"
    }
    fn run_warp(&self, w: &mut WarpCtx<'_>) {
        let base = w.global_warp() * WARP_SIZE;
        if base >= self.m {
            return;
        }
        let active = (self.m - base).min(WARP_SIZE);
        let srcs = w.ld_run(self.src, base, active);
        let dsts = w.ld_run(self.dst, base, active);
        let als = w.ld(self.al, |l| (l < active).then(|| srcs[l] as usize));
        let ars = w.ld(self.ar, |l| (l < active).then(|| dsts[l] as usize));
        w.issue(3);
        let scores = std::array::from_fn(|l| leaky_relu_scalar(als[l] + ars[l], self.slope));
        w.st_run(self.s, base, active, &scores);
    }
}

/// GAT kernel 2/3: per-row softmax over the edge scores, in place.
/// Block-per-vertex mapping; the row is walked three times (max, sum,
/// normalize), with the scores living in global memory between passes.
pub(crate) struct FgSoftmaxKernel {
    /// CSR offsets.
    pub(crate) indptr: DeviceBuffer<u32>,
    /// Edge scores, normalized in place.
    pub(crate) s: DeviceBuffer<f32>,
    /// Vertex count.
    pub(crate) n: usize,
}

impl Kernel for FgSoftmaxKernel {
    fn name(&self) -> &str {
        "featgraph_row_softmax"
    }
    fn run_warp(&self, w: &mut WarpCtx<'_>) {
        let v = w.block_idx();
        if v >= self.n || w.warp_in_block() != 0 {
            return;
        }
        let start = w.ld_scalar(self.indptr, v) as usize;
        let end = w.ld_scalar(self.indptr, v + 1) as usize;
        if start == end {
            return;
        }
        // Pass 1: max.
        let mut mx = f32::NEG_INFINITY;
        let mut i = start;
        while i < end {
            let count = (end - i).min(WARP_SIZE);
            let vals = w.ld_run(self.s, i, count);
            w.shfl_reduce();
            for &x in vals.iter().take(count) {
                mx = mx.max(x);
            }
            i += count;
        }
        // Pass 2: sum of exp.
        let mut sum = 0.0f32;
        let mut i = start;
        while i < end {
            let count = (end - i).min(WARP_SIZE);
            let vals = w.ld_run(self.s, i, count);
            w.issue_simd(2, count);
            w.shfl_reduce();
            for &x in vals.iter().take(count) {
                sum += (x - mx).exp();
            }
            i += count;
        }
        // Pass 3: normalize in place.
        let mut i = start;
        while i < end {
            let count = (end - i).min(WARP_SIZE);
            let vals = w.ld_run(self.s, i, count);
            w.issue_simd(2, count);
            w.st_run(self.s, i, count, &vals.map(|x| (x - mx).exp() / sum));
            i += count;
        }
    }
}

/// GAT kernel 3/3: weighted aggregation with the normalized scores —
/// the same rigid block-per-vertex mapping as [`FgConvKernel`].
pub(crate) struct FgAggregateKernel {
    /// CSR offsets.
    pub(crate) indptr: DeviceBuffer<u32>,
    /// CSR neighbor ids.
    pub(crate) indices: DeviceBuffer<u32>,
    /// Normalized attention per edge.
    pub(crate) s: DeviceBuffer<f32>,
    /// Input features.
    pub(crate) features: DeviceBuffer<f32>,
    /// Output features.
    pub(crate) output: DeviceBuffer<f32>,
    /// Vertex count.
    pub(crate) n: usize,
    /// Feature dimension.
    pub(crate) f: usize,
}

impl Kernel for FgAggregateKernel {
    fn name(&self) -> &str {
        "featgraph_gat_aggregate"
    }
    fn run_warp(&self, w: &mut WarpCtx<'_>) {
        let v = w.block_idx();
        if v >= self.n {
            return;
        }
        let f = self.f;
        let base = w.warp_in_block() * WARP_SIZE;
        if base >= f {
            return;
        }
        let active = (f - base).min(WARP_SIZE);
        let start = w.ld_scalar(self.indptr, v) as usize;
        let end = w.ld_scalar(self.indptr, v + 1) as usize;
        let mut acc = [0.0f32; WARP_SIZE];
        for i in start..end {
            let u = w.ld_scalar(self.indices, i) as usize;
            let weight = w.ld_scalar(self.s, i);
            let vals = w.ld_run(self.features, u * f + base, active);
            w.issue_simd(2, active);
            for l in 0..active {
                acc[l] += weight * vals[l];
            }
        }
        w.st_run(self.output, v * f + base, active, &acc);
    }
}

/// The FeatGraph-like system.
pub struct FeatGraphSystem {
    device: Device,
}

impl FeatGraphSystem {
    /// System on the given device configuration.
    pub fn new(cfg: gpu_sim::DeviceConfig) -> Self {
        Self {
            device: Device::new(cfg),
        }
    }

    /// Launch geometry of the rigid mapping: one block per vertex,
    /// `f` threads (rounded up to whole warps, capped at 1024).
    fn rigid_launch(&self, n: usize, f: usize) -> LaunchConfig {
        let threads = f.clamp(32, 1024).div_ceil(32) * 32;
        LaunchConfig::new(n.max(1), threads)
    }

    /// Run one convolution (all four models supported).
    pub fn run(&mut self, model: &GnnModel, g: &Csr, x: &Matrix) -> (Matrix, OpProfile) {
        self.device.mem_mut().reset_peak();
        let n = g.num_vertices();
        let f = x.cols();
        let mut op = OpProfile::new(format!("featgraph_{}", model.name()));
        let mem = self.device.mem_mut();
        let indptr = mem.alloc_from(g.indptr());
        let indices = mem.alloc_from(g.indices());
        let features = mem.alloc_from(x.data());
        let output = mem.alloc::<f32>(n * f);
        match model {
            GnnModel::Gat { params } => {
                let (al_h, ar_h) = tlpgnn::oracle::gat_scores(x, params);
                let coo = crate::common::CooOnDevice::upload(&mut self.device, g);
                let mem = self.device.mem_mut();
                let al = mem.alloc_from(&al_h);
                let ar = mem.alloc_from(&ar_h);
                let s = mem.alloc::<f32>(g.num_edges().max(1));
                let m = g.num_edges();
                let k1 = FgEdgeScoreKernel {
                    src: coo.src,
                    dst: coo.dst,
                    al,
                    ar,
                    s,
                    slope: params.slope,
                    m,
                };
                op.add(
                    &self
                        .device
                        .launch(&k1, LaunchConfig::warp_per_item(m.div_ceil(32).max(1), 256)),
                );
                op.add_framework_overhead_ms(FEATGRAPH_DISPATCH_MS);
                let k2 = FgSoftmaxKernel { indptr, s, n };
                op.add(&self.device.launch(&k2, self.rigid_launch(n, 32)));
                op.add_framework_overhead_ms(FEATGRAPH_DISPATCH_MS);
                let k3 = FgAggregateKernel {
                    indptr,
                    indices,
                    s,
                    features,
                    output,
                    n,
                    f,
                };
                op.add(&self.device.launch(&k3, self.rigid_launch(n, f)));
                op.add_framework_overhead_ms(FEATGRAPH_DISPATCH_MS);
                coo.free(&mut self.device);
                let mem = self.device.mem_mut();
                mem.free(al);
                mem.free(ar);
                mem.free(s);
            }
            _ => {
                let agg = Aggregator::of_model(model).expect("GAT ran its own pipeline above");
                let mem = self.device.mem_mut();
                let norm = mem.alloc_from(&tlpgnn::oracle::gcn_norm(g));
                let degs: Vec<u32> = (0..n).map(|v| g.degree(v) as u32).collect();
                let degree = mem.alloc_from(&degs);
                let self_w = mem.alloc_from(&crate::common::self_weights(g, agg));
                let k = FgConvKernel {
                    indptr,
                    indices,
                    features,
                    output,
                    norm,
                    degree,
                    self_w,
                    agg,
                    n,
                    f,
                };
                op.add(&self.device.launch(&k, self.rigid_launch(n, f)));
                op.add_framework_overhead_ms(FEATGRAPH_DISPATCH_MS);
                let mem = self.device.mem_mut();
                mem.free(norm);
                mem.free(degree);
                mem.free(self_w);
            }
        }
        op.peak_mem_bytes = self.device.mem().peak_bytes();
        let out = Matrix::from_vec(n, f, self.device.mem().read_vec(output));
        let mem = self.device.mem_mut();
        mem.free(indptr);
        mem.free(indices);
        mem.free(features);
        mem.free(output);
        (out, op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceConfig;
    use tlpgnn::oracle::conv_reference;
    use tlpgnn_graph::generators;

    #[test]
    fn featgraph_matches_oracle_all_models() {
        let g = generators::rmat_default(130, 1000, 141);
        let x = Matrix::random(130, 32, 1.0, 142);
        for model in GnnModel::all_four(32) {
            let mut sys = FeatGraphSystem::new(DeviceConfig::test_small());
            let (got, prof) = sys.run(&model, &g, &x);
            let want = conv_reference(&model, &g, &x);
            assert!(
                got.max_abs_diff(&want) < 1e-3,
                "{}: {}",
                model.name(),
                got.max_abs_diff(&want)
            );
            let want_launches = if matches!(model, GnnModel::Gat { .. }) {
                3
            } else {
                1
            };
            assert_eq!(prof.kernel_launches, want_launches);
        }
    }

    #[test]
    fn wide_features_multi_warp_blocks() {
        let g = generators::erdos_renyi(60, 400, 143);
        let x = Matrix::random(60, 96, 1.0, 144);
        let mut sys = FeatGraphSystem::new(DeviceConfig::test_small());
        let (got, _) = sys.run(&GnnModel::Gcn, &g, &x);
        let want = conv_reference(&GnnModel::Gcn, &g, &x);
        assert!(got.max_abs_diff(&want) < 1e-3);
    }

    #[test]
    fn rigid_mapping_has_lower_occupancy_than_tlpgnn() {
        // Figure 9's shape: FeatGraph's one-warp blocks cap occupancy.
        // Use a graph big enough to fill the device for multiple waves
        // (occupancy comparisons are meaningless on a near-empty GPU).
        let g = tlpgnn_graph::datasets::by_abbr("OA").unwrap().synthesize(4);
        let x = Matrix::random(g.num_vertices(), 32, 1.0, 146);
        let mut fg = FeatGraphSystem::new(DeviceConfig::v100());
        let (_, p_fg) = fg.run(&GnnModel::Gcn, &g, &x);
        let mut tlp = tlpgnn::TlpgnnEngine::v100();
        let (_, p_tlp) = tlp.conv(&GnnModel::Gcn, &g, &x);
        assert!(
            p_tlp.achieved_occupancy > p_fg.achieved_occupancy,
            "tlpgnn {} vs featgraph {}",
            p_tlp.achieved_occupancy,
            p_fg.achieved_occupancy
        );
    }
}
