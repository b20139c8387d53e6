//! DGL-like system: graph convolution composed from general sparse-library
//! kernels (paper Sections 1, 3.3, 7.2; Table 3).
//!
//! DGL expresses each model's convolution with cuSPARSE SpMM plus a chain
//! of format-manipulation, gather, reduce, and elementwise kernels. The
//! paper counts **6 / 8 / 10 / 18** kernel launches for GCN / GIN /
//! GraphSage / GAT; we compose functionally-correct pipelines with exactly
//! those launch counts. Every intermediate (notably the per-edge score
//! arrays of GAT) is materialized in global memory — the traffic and
//! memory-footprint cost of Table 3 — and every launch pays the
//! framework's host dispatch overhead.

use gpu_sim::{Device, DeviceBuffer, Kernel, LaunchConfig, OpProfile};
use tlpgnn::{Aggregator, GnnModel};
use tlpgnn_graph::Csr;
use tlpgnn_tensor::Matrix;

use crate::common::CooOnDevice;
use crate::prims::*;

/// Host-side dispatch overhead DGL pays per kernel launch, ms (Python
/// framework + graph runtime, amortized over repeated op invocations —
/// calibrated so Table 5's small-graph rows land near the paper's: e.g.
/// 6 kernels × 0.06 ms ≈ DGL's 0.4 ms on Citeseer).
pub const DGL_DISPATCH_MS: f64 = 0.06;

/// The DGL-like system.
pub struct DglSystem {
    device: Device,
}

struct Ctx {
    n: usize,
    m: usize,
    f: usize,
    indptr: DeviceBuffer<u32>,
    indices: DeviceBuffer<u32>,
    coo: CooOnDevice,
    x: DeviceBuffer<f32>,
    out: DeviceBuffer<f32>,
}

impl DglSystem {
    /// System on the given device configuration.
    pub fn new(cfg: gpu_sim::DeviceConfig) -> Self {
        Self {
            device: Device::new(cfg),
        }
    }

    fn upload(&mut self, g: &Csr, x: &Matrix) -> Ctx {
        let n = g.num_vertices();
        let f = x.cols();
        let coo = CooOnDevice::upload(&mut self.device, g);
        let mem = self.device.mem_mut();
        Ctx {
            n,
            m: g.num_edges(),
            f,
            indptr: mem.alloc_from(g.indptr()),
            indices: mem.alloc_from(g.indices()),
            coo,
            x: mem.alloc_from(x.data()),
            out: mem.alloc::<f32>(n * f),
        }
    }

    fn free_ctx(&mut self, c: Ctx) {
        c.coo.free(&mut self.device);
        let mem = self.device.mem_mut();
        mem.free(c.indptr);
        mem.free(c.indices);
        mem.free(c.x);
        mem.free(c.out);
    }

    fn launch_flat(&mut self, op: &mut OpProfile, k: &dyn Kernel, len: usize) {
        let lc = LaunchConfig::warp_per_item(len.div_ceil(32).max(1), 256);
        op.add(&self.device.launch(k, lc));
        op.add_framework_overhead_ms(DGL_DISPATCH_MS);
    }

    fn launch_rows(&mut self, op: &mut OpProfile, k: &dyn Kernel, rows: usize) {
        let lc = LaunchConfig::warp_per_item(rows.max(1), 256);
        op.add(&self.device.launch(k, lc));
        op.add_framework_overhead_ms(DGL_DISPATCH_MS);
    }

    /// Run one convolution. Supports all four models (DGL does).
    pub fn run(&mut self, model: &GnnModel, g: &Csr, x: &Matrix) -> (Matrix, OpProfile) {
        self.device.mem_mut().reset_peak();
        let c = self.upload(g, x);
        let mut op = OpProfile::new(format!("dgl_{}", model.name()));
        match model {
            GnnModel::Gcn => self.pipeline_gcn(&mut op, &c, g),
            GnnModel::Gin { eps } => self.pipeline_gin(&mut op, &c, g, *eps),
            GnnModel::Sage => self.pipeline_sage(&mut op, &c),
            GnnModel::Gat { params } => self.pipeline_gat(&mut op, &c, x, params),
        }
        op.peak_mem_bytes = self.device.mem().peak_bytes();
        let out = Matrix::from_vec(c.n, c.f, self.device.mem().read_vec(c.out));
        self.free_ctx(c);
        (out, op)
    }

    /// GCN, 6 launches: norm gather ×2 folded into (1) gather + (2)
    /// row-value multiply, (3) SpMM, (4) self-scale, (5) add, (6) output
    /// format copy.
    fn pipeline_gcn(&mut self, op: &mut OpProfile, c: &Ctx, g: &Csr) {
        let norm_host = tlpgnn::oracle::gcn_norm(g);
        let mem = self.device.mem_mut();
        let norm = mem.alloc_from(&norm_host);
        let self_w: Vec<f32> = norm_host.iter().map(|&v| v * v).collect();
        let self_w = mem.alloc_from(&self_w);
        let values = mem.alloc::<f32>(c.m.max(1));
        let tmp = mem.alloc::<f32>(c.n * c.f);
        let selfbuf = mem.alloc::<f32>(c.n * c.f);

        // 1. values[e] = norm[src[e]]
        self.launch_flat(
            op,
            &GatherKernel {
                ids: c.coo.src,
                table: norm,
                out: values,
                len: c.m,
                label: "gather_src_norm",
            },
            c.m,
        );
        // 2. values[e] *= norm[dst[e]]
        self.launch_flat(
            op,
            &EdgeRowBinaryKernel {
                data: values,
                table: norm,
                dst: c.coo.dst,
                len: c.m,
                op: EdgeRowBinaryOp::Mul,
            },
            c.m,
        );
        // 3. SpMM
        self.launch_rows(
            op,
            &SpmmCsrKernel {
                indptr: c.indptr,
                indices: c.indices,
                values,
                x: c.x,
                out: tmp,
                n: c.n,
                f: c.f,
            },
            c.n,
        );
        // 4. selfbuf = c_v^2 * x
        self.launch_rows(
            op,
            &RowScaleKernel {
                x: c.x,
                s: self_w,
                out: selfbuf,
                n: c.n,
                f: c.f,
            },
            c.n,
        );
        // 5. out = tmp + selfbuf
        self.launch_flat(
            op,
            &AddKernel {
                a: tmp,
                b: selfbuf,
                out: c.out,
                len: c.n * c.f,
            },
            c.n * c.f,
        );
        // 6. output format copy (contiguous cast back to the framework)
        self.launch_flat(
            op,
            &ScaleCopyKernel {
                src: c.out,
                dst: c.out,
                scale: 1.0,
                len: c.n * c.f,
                label: "format_output",
            },
            c.n * c.f,
        );

        let mem = self.device.mem_mut();
        mem.free(norm);
        mem.free(self_w);
        mem.free(values);
        mem.free(tmp);
        mem.free(selfbuf);
    }

    /// GIN, 8 launches.
    fn pipeline_gin(&mut self, op: &mut OpProfile, c: &Ctx, g: &Csr, eps: f32) {
        let mem = self.device.mem_mut();
        let values = mem.alloc::<f32>(c.m.max(1));
        let col_ids = mem.alloc::<u32>(c.m.max(1));
        let x2 = mem.alloc::<f32>(c.n * c.f);
        let tmp = mem.alloc::<f32>(c.n * c.f);
        let selfbuf = mem.alloc::<f32>(c.n * c.f);
        let self_w = mem.alloc_from(&crate::common::self_weights(g, Aggregator::GinSum { eps }));

        // 1. format: copy column indices for the sparse handle
        self.launch_flat(
            op,
            &CopyU32Kernel {
                src: c.indices,
                dst: col_ids,
                len: c.m,
                label: "format_col_ids",
            },
            c.m,
        );
        // 2. values = 1
        self.launch_flat(
            op,
            &FillKernel {
                out: values,
                value: 1.0,
                len: c.m,
            },
            c.m,
        );
        // 3. copy input tensor to contiguous layout
        self.launch_flat(
            op,
            &ScaleCopyKernel {
                src: c.x,
                dst: x2,
                scale: 1.0,
                len: c.n * c.f,
                label: "format_input",
            },
            c.n * c.f,
        );
        // 4. SpMM
        self.launch_rows(
            op,
            &SpmmCsrKernel {
                indptr: c.indptr,
                indices: col_ids,
                values,
                x: x2,
                out: tmp,
                n: c.n,
                f: c.f,
            },
            c.n,
        );
        // 5. selfbuf = (1 + eps) x
        self.launch_rows(
            op,
            &RowScaleKernel {
                x: c.x,
                s: self_w,
                out: selfbuf,
                n: c.n,
                f: c.f,
            },
            c.n,
        );
        // 6. out = tmp + selfbuf
        self.launch_flat(
            op,
            &AddKernel {
                a: tmp,
                b: selfbuf,
                out: c.out,
                len: c.n * c.f,
            },
            c.n * c.f,
        );
        // 7.–8. output format copies (cast + contiguous)
        self.launch_flat(
            op,
            &ScaleCopyKernel {
                src: c.out,
                dst: tmp,
                scale: 1.0,
                len: c.n * c.f,
                label: "format_cast",
            },
            c.n * c.f,
        );
        self.launch_flat(
            op,
            &ScaleCopyKernel {
                src: tmp,
                dst: c.out,
                scale: 1.0,
                len: c.n * c.f,
                label: "format_output",
            },
            c.n * c.f,
        );

        let mem = self.device.mem_mut();
        mem.free(values);
        mem.free(col_ids);
        mem.free(x2);
        mem.free(tmp);
        mem.free(selfbuf);
        mem.free(self_w);
    }

    /// GraphSage (mean aggregator), 10 launches.
    fn pipeline_sage(&mut self, op: &mut OpProfile, c: &Ctx) {
        let mem = self.device.mem_mut();
        let values = mem.alloc::<f32>(c.m.max(1));
        let col_ids = mem.alloc::<u32>(c.m.max(1));
        let x2 = mem.alloc::<f32>(c.n * c.f);
        let tmp = mem.alloc::<f32>(c.n * c.f);
        let deg = mem.alloc::<f32>(c.n);

        // 1. format: column ids
        self.launch_flat(
            op,
            &CopyU32Kernel {
                src: c.indices,
                dst: col_ids,
                len: c.m,
                label: "format_col_ids",
            },
            c.m,
        );
        // 2. values = 1
        self.launch_flat(
            op,
            &FillKernel {
                out: values,
                value: 1.0,
                len: c.m,
            },
            c.m,
        );
        // 3. copy input
        self.launch_flat(
            op,
            &ScaleCopyKernel {
                src: c.x,
                dst: x2,
                scale: 1.0,
                len: c.n * c.f,
                label: "format_input",
            },
            c.n * c.f,
        );
        // 4. SpMM (plain sum)
        self.launch_rows(
            op,
            &SpmmCsrKernel {
                indptr: c.indptr,
                indices: col_ids,
                values,
                x: x2,
                out: tmp,
                n: c.n,
                f: c.f,
            },
            c.n,
        );
        // 5. degrees
        self.launch_flat(
            op,
            &DegreeKernel {
                indptr: c.indptr,
                out: deg,
                n: c.n,
            },
            c.n,
        );
        // 6. reciprocal
        self.launch_flat(
            op,
            &EdgeUnaryKernel {
                data: deg,
                op: EdgeUnaryOp::Recip,
                len: c.n,
            },
            c.n,
        );
        // 7. out = inv_deg * tmp
        self.launch_rows(
            op,
            &RowScaleKernel {
                x: tmp,
                s: deg,
                out: c.out,
                n: c.n,
                f: c.f,
            },
            c.n,
        );
        // 8.–10. format copies (dst ids, cast, contiguous output)
        self.launch_flat(
            op,
            &CopyU32Kernel {
                src: c.coo.dst,
                dst: col_ids,
                len: c.m,
                label: "format_row_ids",
            },
            c.m,
        );
        self.launch_flat(
            op,
            &ScaleCopyKernel {
                src: c.out,
                dst: tmp,
                scale: 1.0,
                len: c.n * c.f,
                label: "format_cast",
            },
            c.n * c.f,
        );
        self.launch_flat(
            op,
            &ScaleCopyKernel {
                src: tmp,
                dst: c.out,
                scale: 1.0,
                len: c.n * c.f,
                label: "format_output",
            },
            c.n * c.f,
        );

        let mem = self.device.mem_mut();
        mem.free(values);
        mem.free(col_ids);
        mem.free(x2);
        mem.free(tmp);
        mem.free(deg);
    }

    /// GAT, 18 launches: the full gather → score → softmax → SpMM chain
    /// with every per-edge intermediate materialized.
    fn pipeline_gat(
        &mut self,
        op: &mut OpProfile,
        c: &Ctx,
        x: &Matrix,
        params: &tlpgnn::GatParams,
    ) {
        let (al_host, ar_host) = tlpgnn::oracle::gat_scores(x, params);
        let mem = self.device.mem_mut();
        let al = mem.alloc_from(&al_host);
        let ar = mem.alloc_from(&ar_host);
        let el = mem.alloc::<f32>(c.m.max(1));
        let er = mem.alloc::<f32>(c.m.max(1));
        let s = mem.alloc::<f32>(c.m.max(1));
        let w2 = mem.alloc::<f32>(c.m.max(1));
        let rowv = mem.alloc::<f32>(c.n);
        let col_ids = mem.alloc::<u32>(c.m.max(1));
        let x2 = mem.alloc::<f32>(c.n * c.f);
        let tmp = mem.alloc::<f32>(c.n * c.f);

        // 1. format: column ids
        self.launch_flat(
            op,
            &CopyU32Kernel {
                src: c.indices,
                dst: col_ids,
                len: c.m,
                label: "format_col_ids",
            },
            c.m,
        );
        // 2. el[e] = al[src[e]]
        self.launch_flat(
            op,
            &GatherKernel {
                ids: c.coo.src,
                table: al,
                out: el,
                len: c.m,
                label: "gather_el",
            },
            c.m,
        );
        // 3. er[e] = ar[dst[e]]
        self.launch_flat(
            op,
            &GatherKernel {
                ids: c.coo.dst,
                table: ar,
                out: er,
                len: c.m,
                label: "gather_er",
            },
            c.m,
        );
        // 4. s = el + er
        self.launch_flat(
            op,
            &AddKernel {
                a: el,
                b: er,
                out: s,
                len: c.m,
            },
            c.m,
        );
        // 5. s = leaky(s)
        self.launch_flat(
            op,
            &EdgeUnaryKernel {
                data: s,
                op: EdgeUnaryOp::Leaky(params.slope),
                len: c.m,
            },
            c.m,
        );
        // 6. rowv = rowmax(s)
        self.launch_rows(
            op,
            &RowReduceKernel {
                indptr: c.indptr,
                data: s,
                out: rowv,
                n: c.n,
                op: RowReduceOp::Max,
            },
            c.n,
        );
        // 7. s -= rowv[dst]
        self.launch_flat(
            op,
            &EdgeRowBinaryKernel {
                data: s,
                table: rowv,
                dst: c.coo.dst,
                len: c.m,
                op: EdgeRowBinaryOp::Sub,
            },
            c.m,
        );
        // 8. s = exp(s)
        self.launch_flat(
            op,
            &EdgeUnaryKernel {
                data: s,
                op: EdgeUnaryOp::Exp,
                len: c.m,
            },
            c.m,
        );
        // 9. rowv = rowsum(s)
        self.launch_rows(
            op,
            &RowReduceKernel {
                indptr: c.indptr,
                data: s,
                out: rowv,
                n: c.n,
                op: RowReduceOp::Sum,
            },
            c.n,
        );
        // 10. s /= rowv[dst]
        self.launch_flat(
            op,
            &EdgeRowBinaryKernel {
                data: s,
                table: rowv,
                dst: c.coo.dst,
                len: c.m,
                op: EdgeRowBinaryOp::Div,
            },
            c.m,
        );
        // 11. format: copy the attention weights for the sparse handle
        self.launch_flat(
            op,
            &ScaleCopyKernel {
                src: s,
                dst: w2,
                scale: 1.0,
                len: c.m,
                label: "format_values",
            },
            c.m,
        );
        // 12. format: copy input
        self.launch_flat(
            op,
            &ScaleCopyKernel {
                src: c.x,
                dst: x2,
                scale: 1.0,
                len: c.n * c.f,
                label: "format_input",
            },
            c.n * c.f,
        );
        // 13. SpMM with attention weights
        self.launch_rows(
            op,
            &SpmmCsrKernel {
                indptr: c.indptr,
                indices: col_ids,
                values: w2,
                x: x2,
                out: tmp,
                n: c.n,
                f: c.f,
            },
            c.n,
        );
        // 14.–18. framework epilogue: casts/copies of scores and output.
        self.launch_flat(
            op,
            &ScaleCopyKernel {
                src: tmp,
                dst: c.out,
                scale: 1.0,
                len: c.n * c.f,
                label: "format_cast",
            },
            c.n * c.f,
        );
        self.launch_flat(
            op,
            &ScaleCopyKernel {
                src: el,
                dst: er,
                scale: 1.0,
                len: c.m,
                label: "save_edge_scores",
            },
            c.m,
        );
        self.launch_flat(
            op,
            &ScaleCopyKernel {
                src: s,
                dst: el,
                scale: 1.0,
                len: c.m,
                label: "save_attention",
            },
            c.m,
        );
        self.launch_flat(
            op,
            &CopyU32Kernel {
                src: c.coo.dst,
                dst: col_ids,
                len: c.m,
                label: "format_row_ids",
            },
            c.m,
        );
        self.launch_flat(
            op,
            &ScaleCopyKernel {
                src: c.out,
                dst: c.out,
                scale: 1.0,
                len: c.n * c.f,
                label: "format_output",
            },
            c.n * c.f,
        );

        let mem = self.device.mem_mut();
        mem.free(al);
        mem.free(ar);
        mem.free(el);
        mem.free(er);
        mem.free(s);
        mem.free(w2);
        mem.free(rowv);
        mem.free(col_ids);
        mem.free(x2);
        mem.free(tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceConfig;
    use tlpgnn::oracle::conv_reference;
    use tlpgnn_graph::generators;

    fn launches_for(model: &GnnModel) -> usize {
        match model {
            GnnModel::Gcn => 6,
            GnnModel::Gin { .. } => 8,
            GnnModel::Sage => 10,
            GnnModel::Gat { .. } => 18,
        }
    }

    #[test]
    fn dgl_pipelines_match_oracle_with_paper_kernel_counts() {
        let g = generators::rmat_default(120, 900, 131);
        let x = Matrix::random(120, 32, 1.0, 132);
        for model in GnnModel::all_four(32) {
            let mut sys = DglSystem::new(DeviceConfig::test_small());
            let (got, prof) = sys.run(&model, &g, &x);
            let want = conv_reference(&model, &g, &x);
            assert!(
                got.max_abs_diff(&want) < 1e-3,
                "{}: {}",
                model.name(),
                got.max_abs_diff(&want)
            );
            assert_eq!(
                prof.kernel_launches,
                launches_for(&model),
                "paper's kernel count for {}",
                model.name()
            );
            assert!(prof.framework_overhead_ms > 0.0);
        }
    }

    #[test]
    fn gat_uses_more_memory_than_gcn() {
        // The materialized per-edge arrays of the 18-kernel GAT dominate.
        let g = generators::rmat_default(200, 8000, 133);
        let x = Matrix::random(200, 32, 1.0, 134);
        let mut sys = DglSystem::new(DeviceConfig::test_small());
        let (_, p_gcn) = sys.run(&GnnModel::Gcn, &g, &x);
        let mut sys2 = DglSystem::new(DeviceConfig::test_small());
        let (_, p_gat) = sys2.run(
            &GnnModel::Gat {
                params: tlpgnn::GatParams::random(32, 135),
            },
            &g,
            &x,
        );
        assert!(p_gat.peak_mem_bytes > p_gcn.peak_mem_bytes);
        assert!(p_gat.total_traffic_bytes() > p_gcn.total_traffic_bytes());
    }

    #[test]
    fn empty_graph_is_handled() {
        let g = generators::path(5); // a few edges; also exercises deg-0 rows
        let x = Matrix::random(5, 8, 1.0, 136);
        let mut sys = DglSystem::new(DeviceConfig::test_small());
        let (got, _) = sys.run(&GnnModel::Sage, &g, &x);
        let want = conv_reference(&GnnModel::Sage, &g, &x);
        assert!(got.max_abs_diff(&want) < 1e-4);
    }
}
