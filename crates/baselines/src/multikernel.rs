//! The hand-written **three-kernel** GAT (paper Table 3, "Three-Kernel").
//!
//! Same math as the fused TLPGNN GAT, but split at the natural ApplyEdge /
//! ApplyVertex boundaries (Figure 6): edge scores, row softmax, weighted
//! aggregation — with the per-edge score array materialized in global
//! memory between kernels. Comparing this against the one-kernel version
//! isolates the benefit of kernel fusion (also the "Fusion" bar of
//! Figure 10).

use gpu_sim::{Device, LaunchConfig, OpProfile};
use tlpgnn::kernels::weighted::WeightedAggKernel;
use tlpgnn::{Assignment, GatParams};
use tlpgnn_graph::Csr;
use tlpgnn_tensor::Matrix;

use crate::common::CooOnDevice;
use crate::edge_centric::EdgeCentricKernel;
use crate::featgraph::{FgEdgeScoreKernel, FgSoftmaxKernel};
use crate::prims::SpmmCsrKernel;

/// How the third (aggregation) kernel of the unfused GAT runs — the knob
/// the Figure 10 ablation ladder turns.
#[derive(Clone, Copy)]
pub enum AggMode {
    /// Edge-centric with atomic accumulation (the ablation baseline).
    EdgeCentricAtomic,
    /// Warp-per-vertex feature-parallel, with a first-level assignment and
    /// optional register caching. The "TLP only" rung passes
    /// `Assignment::Hardware { warps_per_block: 32 }` (naive maximal
    /// blocks) with `reg_cache: false`.
    WarpVertex {
        /// Vertex assignment for the aggregate kernel.
        assignment: Assignment,
        /// Register caching of bounds and partial sums.
        reg_cache: bool,
    },
}

/// Per-launch host dispatch overhead of the three-kernel GAT, ms
/// (hand-written C++ host code — cheaper than a framework, same class as
/// TLPGNN's own dispatch).
const THREE_KERNEL_DISPATCH_MS: f64 = 0.06;

/// The three-kernel GAT system.
pub struct ThreeKernelGatSystem {
    device: Device,
}

impl ThreeKernelGatSystem {
    /// System on the given device configuration.
    pub fn new(cfg: gpu_sim::DeviceConfig) -> Self {
        Self {
            device: Device::new(cfg),
        }
    }

    /// Run the three-kernel GAT convolution.
    pub fn run(&mut self, params: &GatParams, g: &Csr, x: &Matrix) -> (Matrix, OpProfile) {
        self.device.mem_mut().reset_peak();
        let n = g.num_vertices();
        let m = g.num_edges();
        let f = x.cols();
        let (al_h, ar_h) = tlpgnn::oracle::gat_scores(x, params);
        let coo = CooOnDevice::upload(&mut self.device, g);
        let mem = self.device.mem_mut();
        let indptr = mem.alloc_from(g.indptr());
        let indices = mem.alloc_from(g.indices());
        let features = mem.alloc_from(x.data());
        let output = mem.alloc::<f32>(n * f);
        let al = mem.alloc_from(&al_h);
        let ar = mem.alloc_from(&ar_h);
        // The materialized intermediate the fused kernel avoids.
        let s = mem.alloc::<f32>(m.max(1));

        let mut op = OpProfile::new("three_kernel_gat");
        // Kernel 1: ApplyEdge — attention scores.
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
        op.add_framework_overhead_ms(THREE_KERNEL_DISPATCH_MS);
        // Kernel 2: ApplyVertex — softmax over each row's scores.
        let k2 = FgSoftmaxKernel { indptr, s, n };
        op.add(&self.device.launch(&k2, LaunchConfig::new(n.max(1), 32)));
        op.add_framework_overhead_ms(THREE_KERNEL_DISPATCH_MS);
        // Kernel 3: ApplyVertex — weighted aggregation (warp per row).
        let k3 = SpmmCsrKernel {
            indptr,
            indices,
            values: s,
            x: features,
            out: output,
            n,
            f,
        };
        op.add(&self.device.launch(&k3, LaunchConfig::warp_per_item(n, 256)));
        op.add_framework_overhead_ms(THREE_KERNEL_DISPATCH_MS);

        op.peak_mem_bytes = self.device.mem().peak_bytes();
        let out = Matrix::from_vec(n, f, self.device.mem().read_vec(output));
        coo.free(&mut self.device);
        let mem = self.device.mem_mut();
        mem.free(indptr);
        mem.free(indices);
        mem.free(features);
        mem.free(output);
        mem.free(al);
        mem.free(ar);
        mem.free(s);
        (out, op)
    }

    /// Run the unfused GAT with a configurable aggregation stage — the
    /// Figure 10 ablation ladder for GAT.
    pub fn run_mode(
        &mut self,
        params: &GatParams,
        g: &Csr,
        x: &Matrix,
        mode: AggMode,
    ) -> (Matrix, OpProfile) {
        self.device.mem_mut().reset_peak();
        let n = g.num_vertices();
        let m = g.num_edges();
        let f = x.cols();
        let (al_h, ar_h) = tlpgnn::oracle::gat_scores(x, params);
        let coo = CooOnDevice::upload(&mut self.device, g);
        let mem = self.device.mem_mut();
        let indptr = mem.alloc_from(g.indptr());
        let indices = mem.alloc_from(g.indices());
        let features = mem.alloc_from(x.data());
        let output = mem.alloc::<f32>(n * f);
        let al = mem.alloc_from(&al_h);
        let ar = mem.alloc_from(&ar_h);
        let s = mem.alloc::<f32>(m.max(1));

        let mut op = OpProfile::new("gat_ablation");
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
        let k2 = FgSoftmaxKernel { indptr, s, n };
        op.add(&self.device.launch(&k2, LaunchConfig::new(n.max(1), 32)));

        match mode {
            AggMode::EdgeCentricAtomic => {
                let k3 = EdgeCentricKernel {
                    src: coo.src,
                    dst: coo.dst,
                    weight: s,
                    features,
                    output,
                    m,
                    f,
                };
                op.add(&self.device.launch(&k3, LaunchConfig::warp_per_item(m, 256)));
            }
            AggMode::WarpVertex {
                assignment,
                reg_cache,
            } => {
                let bound =
                    assignment.bind(&mut self.device, n, WeightedAggKernel::regs(reg_cache));
                let k3 = WeightedAggKernel {
                    indptr,
                    indices,
                    values: s,
                    x: features,
                    out: output,
                    n,
                    f,
                    work: bound.work,
                    reg_cache,
                };
                op.add(&self.device.launch(&k3, bound.lc));
                bound.release(&mut self.device);
            }
        }
        for _ in 0..op.kernel_launches {
            op.add_framework_overhead_ms(THREE_KERNEL_DISPATCH_MS / 3.0);
        }

        op.peak_mem_bytes = self.device.mem().peak_bytes();
        let out = Matrix::from_vec(n, f, self.device.mem().read_vec(output));
        coo.free(&mut self.device);
        let mem = self.device.mem_mut();
        mem.free(indptr);
        mem.free(indices);
        mem.free(features);
        mem.free(output);
        mem.free(al);
        mem.free(ar);
        mem.free(s);
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
    fn three_kernel_gat_matches_oracle() {
        let g = generators::rmat_default(140, 1000, 151);
        let x = Matrix::random(140, 32, 1.0, 152);
        let params = GatParams::random(32, 153);
        let mut sys = ThreeKernelGatSystem::new(DeviceConfig::test_small());
        let (got, prof) = sys.run(&params, &g, &x);
        let want = conv_reference(&tlpgnn::GnnModel::Gat { params }, &g, &x);
        assert!(
            got.max_abs_diff(&want) < 1e-3,
            "{}",
            got.max_abs_diff(&want)
        );
        assert_eq!(prof.kernel_launches, 3);
    }

    #[test]
    fn fused_beats_three_kernel_on_traffic_and_memory() {
        // Table 3's shape: 1-kernel < 3-kernel in traffic, memory, time.
        let g = generators::rmat_default(1000, 20_000, 154);
        let x = Matrix::random(1000, 32, 1.0, 155);
        let params = GatParams::random(32, 156);
        let mut three = ThreeKernelGatSystem::new(DeviceConfig::v100());
        let (_, p3) = three.run(&params, &g, &x);
        let mut fused = tlpgnn::TlpgnnEngine::v100();
        let (_, p1) = fused.conv(&tlpgnn::GnnModel::Gat { params }, &g, &x);
        assert!(p3.total_traffic_bytes() > p1.total_traffic_bytes());
        assert!(p3.gpu_time_ms > p1.gpu_time_ms);
        assert!(p3.host_overhead_ms() > p1.host_overhead_ms());
    }

    #[test]
    fn all_ablation_modes_match_oracle() {
        let g = generators::rmat_default(130, 1100, 157);
        let x = Matrix::random(130, 32, 1.0, 158);
        let params = GatParams::random(32, 159);
        let want = conv_reference(
            &tlpgnn::GnnModel::Gat {
                params: params.clone(),
            },
            &g,
            &x,
        );
        let modes = [
            AggMode::EdgeCentricAtomic,
            AggMode::WarpVertex {
                assignment: Assignment::Hardware {
                    warps_per_block: 32,
                },
                reg_cache: false,
            },
            AggMode::WarpVertex {
                assignment: Assignment::hardware(),
                reg_cache: false,
            },
            AggMode::WarpVertex {
                assignment: Assignment::software(),
                reg_cache: true,
            },
        ];
        for (i, mode) in modes.into_iter().enumerate() {
            let mut sys = ThreeKernelGatSystem::new(DeviceConfig::test_small());
            let (got, _) = sys.run_mode(&params, &g, &x, mode);
            assert!(
                got.max_abs_diff(&want) < 1e-3,
                "mode {i}: {}",
                got.max_abs_diff(&want)
            );
        }
    }
}
