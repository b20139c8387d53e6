//! Edge-centric processing (X-Stream style; paper Table 1 "Edge").
//!
//! One warp per edge: load the source's feature tile (coalesced) and
//! atomically accumulate it into the destination row. Perfect load balance
//! — every work unit is one edge — but the atomic write per edge is
//! exactly the overhead Observation I blames.
//!
//! Self terms are handled by appending `n` weighted self-edges to the COO
//! stream (a standard trick; it keeps the op a single kernel).

use gpu_sim::{Device, DeviceBuffer, Kernel, LaunchConfig, OpProfile, WarpCtx, WARP_SIZE};
use tlpgnn::{Aggregator, GnnModel};
use tlpgnn_graph::Csr;
use tlpgnn_tensor::Matrix;

/// The edge-centric kernel: warp `e` processes COO edge `e`.
pub struct EdgeCentricKernel {
    /// Source per edge.
    pub src: DeviceBuffer<u32>,
    /// Destination per edge.
    pub dst: DeviceBuffer<u32>,
    /// Weight per edge (precomputed host-side, as streaming systems do).
    pub weight: DeviceBuffer<f32>,
    /// Input features.
    pub features: DeviceBuffer<f32>,
    /// Output features (zero-initialized).
    pub output: DeviceBuffer<f32>,
    /// Edge count (including appended self edges).
    pub m: usize,
    /// Feature dimension.
    pub f: usize,
}

impl Kernel for EdgeCentricKernel {
    fn name(&self) -> &str {
        "edge_centric_conv"
    }
    fn run_warp(&self, w: &mut WarpCtx<'_>) {
        let e = w.global_warp();
        if e >= self.m {
            return;
        }
        let f = self.f;
        let u = w.ld_scalar(self.src, e) as usize;
        let v = w.ld_scalar(self.dst, e) as usize;
        let weight = w.ld_scalar(self.weight, e);
        for tile in 0..f.div_ceil(WARP_SIZE) {
            let base = tile * WARP_SIZE;
            let active = (f - base).min(WARP_SIZE);
            let feats = w.ld_run(self.features, u * f + base, active);
            w.issue_simd(2, active);
            w.atomic_add_f32(self.output, |l| {
                let c = base + l;
                (c < f).then(|| (v * f + c, weight * feats[l]))
            });
        }
    }
}

/// The edge-centric system.
pub struct EdgeCentricSystem {
    device: Device,
}

impl EdgeCentricSystem {
    /// System on the given device configuration.
    pub fn new(cfg: gpu_sim::DeviceConfig) -> Self {
        Self {
            device: Device::new(cfg),
        }
    }

    /// Run one convolution.
    pub fn run(&mut self, agg: Aggregator, g: &Csr, x: &Matrix) -> (Matrix, OpProfile) {
        let n = g.num_vertices();
        let f = x.cols();
        // COO stream in CSR order + appended self edges.
        let mut srcs: Vec<u32> = g.indices().to_vec();
        let mut dsts = Vec::with_capacity(g.num_edges() + n);
        for v in 0..n {
            dsts.extend(std::iter::repeat_n(v as u32, g.degree(v)));
        }
        let mut weights = crate::common::edge_weights(g, agg);
        let self_w = crate::common::self_weights(g, agg);
        for v in 0..n {
            if self_w[v] != 0.0 {
                srcs.push(v as u32);
                dsts.push(v as u32);
                weights.push(self_w[v]);
            }
        }
        let m = srcs.len();
        let dev = &mut self.device;
        let mem = dev.mem_mut();
        let src = mem.alloc_from(&srcs);
        let dst = mem.alloc_from(&dsts);
        let weight = mem.alloc_from(&weights);
        let features = mem.alloc_from(x.data());
        let output = mem.alloc::<f32>(n * f);
        let k = EdgeCentricKernel {
            src,
            dst,
            weight,
            features,
            output,
            m,
            f,
        };
        let mut op = OpProfile::new(format!("edge_centric_{}", agg.name()));
        op.add(&dev.launch(&k, LaunchConfig::warp_per_item(m, 256)));
        op.peak_mem_bytes = dev.mem().peak_bytes();
        let out = Matrix::from_vec(n, f, dev.mem().read_vec(output));
        let mem = dev.mem_mut();
        mem.free(src);
        mem.free(dst);
        mem.free(weight);
        mem.free(features);
        mem.free(output);
        (out, op)
    }

    /// Aggregator for a supported model.
    pub(crate) fn aggregator(model: &GnnModel) -> Option<Aggregator> {
        crate::push::PushSystem::aggregator(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceConfig;
    use tlpgnn::oracle::conv_reference;
    use tlpgnn_graph::generators;

    #[test]
    fn edge_centric_matches_oracle() {
        let g = generators::rmat_default(150, 1200, 111);
        let x = Matrix::random(150, 32, 1.0, 112);
        for (agg, model) in [
            (Aggregator::GcnSum, GnnModel::Gcn),
            (Aggregator::GinSum { eps: 0.1 }, GnnModel::Gin { eps: 0.1 }),
            (Aggregator::SageMean, GnnModel::Sage),
        ] {
            let mut sys = EdgeCentricSystem::new(DeviceConfig::test_small());
            let (got, prof) = sys.run(agg, &g, &x);
            let want = conv_reference(&model, &g, &x);
            assert!(
                got.max_abs_diff(&want) < 1e-3,
                "{}: {}",
                agg.name(),
                got.max_abs_diff(&want)
            );
            assert!(prof.atomic_bytes > 0);
        }
    }

    #[test]
    fn edge_centric_balanced_but_atomic_heavy() {
        // Star graph: maximal skew. Edge-centric has perfect balance but
        // pays an atomic per edge into the same hub row (conflicts).
        let g = generators::star(500);
        let x = Matrix::random(500, 32, 1.0, 113);
        let mut sys = EdgeCentricSystem::new(DeviceConfig::test_small());
        let (got, prof) = sys.run(Aggregator::GinSum { eps: 0.0 }, &g, &x);
        let want = conv_reference(&GnnModel::Gin { eps: 0.0 }, &g, &x);
        assert!(got.max_abs_diff(&want) < 1e-2);
        assert!(prof.atomic_bytes as usize >= g.num_edges() * 32);
    }
}
