//! Push updating policy (paper Section 3.1, Table 1 "Push").
//!
//! Every vertex scatters its feature along its out-edges; because many
//! sources update the same destination concurrently, **every edge costs an
//! atomic read-modify-write** on the destination's feature row. The warp
//! still covers feature dimensions (coalesced addresses), but atomics
//! bypass the L1 and serialize at the memory system — the overhead the
//! paper's Observation I quantifies.

use gpu_sim::{Device, DeviceBuffer, Kernel, LaunchConfig, OpProfile, WarpCtx, WARP_SIZE};
use tlpgnn::{Aggregator, GnnModel};
use tlpgnn_graph::Csr;
use tlpgnn_tensor::Matrix;

/// The push-scatter kernel: warp per *source* vertex over the out-CSR.
pub struct PushConvKernel {
    /// Out-orientation offsets (row `u` lists the vertices `u` sends to).
    pub out_indptr: DeviceBuffer<u32>,
    /// Out-orientation neighbor ids.
    pub out_indices: DeviceBuffer<u32>,
    /// Input features (`n × f`).
    pub features: DeviceBuffer<f32>,
    /// Output features, zero-initialized (`n × f`).
    pub output: DeviceBuffer<f32>,
    /// GCN norms (pull-degree based).
    pub norm: DeviceBuffer<f32>,
    /// Pull (in-)degrees, for the Sage mean divisor.
    pub degree: DeviceBuffer<u32>,
    /// Per-vertex self weight (`c_v²`, `1+ε`, `0`).
    pub self_w: DeviceBuffer<f32>,
    /// Aggregator.
    pub agg: Aggregator,
    /// Vertex count.
    pub n: usize,
    /// Feature dimension.
    pub f: usize,
}

impl Kernel for PushConvKernel {
    fn name(&self) -> &str {
        "push_conv"
    }
    fn regs_per_thread(&self) -> usize {
        40
    }
    fn run_warp(&self, w: &mut WarpCtx<'_>) {
        let u = w.global_warp();
        if u >= self.n {
            return;
        }
        let f = self.f;
        let start = w.ld_scalar(self.out_indptr, u) as usize;
        let end = w.ld_scalar(self.out_indptr, u + 1) as usize;
        let norm_u = match self.agg {
            Aggregator::GcnSum => w.ld_scalar(self.norm, u),
            _ => 0.0,
        };
        let self_w = w.ld_scalar(self.self_w, u);
        for tile in 0..f.div_ceil(WARP_SIZE) {
            let base = tile * WARP_SIZE;
            let active = (f - base).min(WARP_SIZE);
            // Load this source's feature tile once (registers).
            let feats = w.ld_run(self.features, u * f + base, active);
            for i in start..end {
                let v = w.ld_scalar(self.out_indices, i) as usize;
                let scale = match self.agg {
                    Aggregator::GcnSum => w.ld_scalar(self.norm, v) * norm_u,
                    Aggregator::GinSum { .. } => 1.0,
                    Aggregator::SageMean => {
                        let d = w.ld_scalar(self.degree, v);
                        if d == 0 {
                            0.0
                        } else {
                            1.0 / d as f32
                        }
                    }
                };
                w.issue_simd(2, active);
                // The race: every edge writes to a destination someone else
                // may be writing too — atomic add per lane.
                w.atomic_add_f32(self.output, |l| {
                    let c = base + l;
                    (c < f).then(|| (v * f + c, scale * feats[l]))
                });
            }
            // Self term (also atomic: another warp may target row u).
            if self_w != 0.0 {
                w.issue_simd(1, active);
                w.atomic_add_f32(self.output, |l| {
                    let c = base + l;
                    (c < f).then(|| (u * f + c, self_w * feats[l]))
                });
            }
        }
    }
}

/// The push system: reverse the graph (out-orientation), scatter with
/// atomics. Supports the sum-family models.
pub struct PushSystem {
    device: Device,
}

impl PushSystem {
    /// System on the given device configuration.
    pub fn new(cfg: gpu_sim::DeviceConfig) -> Self {
        Self {
            device: Device::new(cfg),
        }
    }

    /// Run one convolution, returning output and profile.
    pub fn run(&mut self, agg: Aggregator, g: &Csr, x: &Matrix) -> (Matrix, OpProfile) {
        let n = g.num_vertices();
        let f = x.cols();
        let rev = g.reverse();
        let dev = &mut self.device;
        let mem = dev.mem_mut();
        let out_indptr = mem.alloc_from(rev.indptr());
        let out_indices = mem.alloc_from(rev.indices());
        let features = mem.alloc_from(x.data());
        let output = mem.alloc::<f32>(n * f);
        let norm = mem.alloc_from(&tlpgnn::oracle::gcn_norm(g));
        let degs: Vec<u32> = (0..n).map(|v| g.degree(v) as u32).collect();
        let degree = mem.alloc_from(&degs);
        let self_w = mem.alloc_from(&crate::common::self_weights(g, agg));
        let k = PushConvKernel {
            out_indptr,
            out_indices,
            features,
            output,
            norm,
            degree,
            self_w,
            agg,
            n,
            f,
        };
        let lc = LaunchConfig::warp_per_item(n, 256);
        let mut op = OpProfile::new(format!("push_{}", agg.name()));
        op.add(&dev.launch(&k, lc));
        op.peak_mem_bytes = dev.mem().peak_bytes();
        let out = Matrix::from_vec(n, f, dev.mem().read_vec(output));
        let mem = dev.mem_mut();
        mem.free(out_indptr);
        mem.free(out_indices);
        mem.free(features);
        mem.free(output);
        mem.free(norm);
        mem.free(degree);
        mem.free(self_w);
        (out, op)
    }

    /// Aggregator for a supported model (GAT is not expressible as a push
    /// scatter without extra passes).
    pub(crate) fn aggregator(model: &GnnModel) -> Option<Aggregator> {
        Aggregator::of_model(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceConfig;
    use tlpgnn::oracle::conv_reference;
    use tlpgnn_graph::generators;

    #[test]
    fn push_matches_oracle_all_sum_models() {
        let g = generators::rmat_default(150, 1200, 101);
        let x = Matrix::random(150, 32, 1.0, 102);
        for (agg, model) in [
            (Aggregator::GcnSum, GnnModel::Gcn),
            (Aggregator::GinSum { eps: 0.2 }, GnnModel::Gin { eps: 0.2 }),
            (Aggregator::SageMean, GnnModel::Sage),
        ] {
            let mut sys = PushSystem::new(DeviceConfig::test_small());
            let (got, prof) = sys.run(agg, &g, &x);
            let want = conv_reference(&model, &g, &x);
            assert!(
                got.max_abs_diff(&want) < 1e-3,
                "{}: {}",
                agg.name(),
                got.max_abs_diff(&want)
            );
            assert!(prof.atomic_bytes > 0, "push must pay atomic traffic");
        }
    }

    #[test]
    fn push_atomic_traffic_scales_with_edges() {
        let x32 = Matrix::random(200, 32, 1.0, 103);
        let small = generators::erdos_renyi(200, 500, 104);
        let large = generators::erdos_renyi(200, 4000, 104);
        let mut sys = PushSystem::new(DeviceConfig::test_small());
        let (_, p_small) = sys.run(Aggregator::GinSum { eps: 0.0 }, &small, &x32);
        let (_, p_large) = sys.run(Aggregator::GinSum { eps: 0.0 }, &large, &x32);
        assert!(p_large.atomic_bytes > 4 * p_small.atomic_bytes);
    }

    #[test]
    fn gat_unsupported() {
        assert!(PushSystem::aggregator(&GnnModel::Gat {
            params: tlpgnn::GatParams::random(8, 1)
        })
        .is_none());
    }
}
