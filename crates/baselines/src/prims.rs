//! Primitive kernels the multi-kernel baselines are composed from.
//!
//! Each corresponds to one GPU kernel launch in a framework like DGL:
//! elementwise transforms, per-edge gathers, row reductions, and a
//! cuSPARSE-style CSR SpMM. They are individually correct and individually
//! profiled — composing many of them is precisely the overhead the paper's
//! Observation III quantifies.

use gpu_sim::{DeviceBuffer, Kernel, WarpCtx, WARP_SIZE};

/// `dst[i] = scale * src[i]` over a flat array (covers the framework's
/// copy / cast / "format manipulation" kernels; `scale = 1` is a copy).
pub(crate) struct ScaleCopyKernel {
    /// Input array.
    pub(crate) src: DeviceBuffer<f32>,
    /// Output array.
    pub(crate) dst: DeviceBuffer<f32>,
    /// Multiplier.
    pub(crate) scale: f32,
    /// Elements to process.
    pub(crate) len: usize,
    /// Kernel label (frameworks launch this under many names).
    pub(crate) label: &'static str,
}

impl Kernel for ScaleCopyKernel {
    fn name(&self) -> &str {
        self.label
    }
    fn run_warp(&self, w: &mut WarpCtx<'_>) {
        let base = w.global_warp() * WARP_SIZE;
        if base >= self.len {
            return;
        }
        let active = (self.len - base).min(WARP_SIZE);
        let vals = w.ld_run(self.src, base, active);
        w.issue(1);
        w.st_run(self.dst, base, active, &vals.map(|x| self.scale * x));
    }
}

/// `out[i] = a[i] + b[i]` elementwise.
pub(crate) struct AddKernel {
    /// First operand.
    pub(crate) a: DeviceBuffer<f32>,
    /// Second operand.
    pub(crate) b: DeviceBuffer<f32>,
    /// Output.
    pub(crate) out: DeviceBuffer<f32>,
    /// Elements.
    pub(crate) len: usize,
}

impl Kernel for AddKernel {
    fn name(&self) -> &str {
        "elementwise_add"
    }
    fn run_warp(&self, w: &mut WarpCtx<'_>) {
        let base = w.global_warp() * WARP_SIZE;
        if base >= self.len {
            return;
        }
        let active = (self.len - base).min(WARP_SIZE);
        let av = w.ld_run(self.a, base, active);
        let bv = w.ld_run(self.b, base, active);
        w.issue(1);
        let sum = std::array::from_fn(|l| av[l] + bv[l]);
        w.st_run(self.out, base, active, &sum);
    }
}

/// Per-edge gather: `out[e] = table[ids[e]]` (e.g. `el[e] = al[src[e]]`).
/// The gather addresses are data-dependent — partially uncoalesced, like
/// the real SDDMM prologue kernels.
pub(crate) struct GatherKernel {
    /// Edge-indexed id array.
    pub(crate) ids: DeviceBuffer<u32>,
    /// Vertex-indexed table.
    pub(crate) table: DeviceBuffer<f32>,
    /// Edge-indexed output.
    pub(crate) out: DeviceBuffer<f32>,
    /// Edge count.
    pub(crate) len: usize,
    /// Kernel label.
    pub(crate) label: &'static str,
}

impl Kernel for GatherKernel {
    fn name(&self) -> &str {
        self.label
    }
    fn run_warp(&self, w: &mut WarpCtx<'_>) {
        let base = w.global_warp() * WARP_SIZE;
        if base >= self.len {
            return;
        }
        let active = (self.len - base).min(WARP_SIZE);
        let ids = w.ld_run(self.ids, base, active);
        let vals = w.ld(self.table, |l| (l < active).then(|| ids[l] as usize));
        w.issue(1);
        w.st_run(self.out, base, active, &vals);
    }
}

/// Per-edge unary transform (LeakyReLU / exp), in place.
pub(crate) struct EdgeUnaryKernel {
    /// The edge array transformed in place.
    pub(crate) data: DeviceBuffer<f32>,
    /// Which transform.
    pub(crate) op: EdgeUnaryOp,
    /// Edge count.
    pub(crate) len: usize,
}

/// Supported unary transforms.
#[derive(Clone, Copy)]
pub(crate) enum EdgeUnaryOp {
    /// LeakyReLU with the given slope.
    Leaky(f32),
    /// `exp(x)`.
    Exp,
    /// `1 / x` (0 stays 0) — the degree-reciprocal kernel.
    Recip,
}

impl Kernel for EdgeUnaryKernel {
    fn name(&self) -> &str {
        match self.op {
            EdgeUnaryOp::Leaky(_) => "edge_leaky_relu",
            EdgeUnaryOp::Exp => "edge_exp",
            EdgeUnaryOp::Recip => "reciprocal",
        }
    }
    fn run_warp(&self, w: &mut WarpCtx<'_>) {
        let base = w.global_warp() * WARP_SIZE;
        if base >= self.len {
            return;
        }
        let active = (self.len - base).min(WARP_SIZE);
        let vals = w.ld_run(self.data, base, active);
        w.issue(2);
        let out = vals.map(|x| match self.op {
            EdgeUnaryOp::Leaky(s) => {
                if x >= 0.0 {
                    x
                } else {
                    s * x
                }
            }
            EdgeUnaryOp::Exp => x.exp(),
            EdgeUnaryOp::Recip => {
                if x == 0.0 {
                    0.0
                } else {
                    1.0 / x
                }
            }
        });
        w.st_run(self.data, base, active, &out);
    }
}

/// Row reduction over CSR-ordered edge values: `out[v] = reduce(data[e])`
/// for the edges of row `v`. One warp per row, edge-parallel lanes with a
/// shuffle reduction (the standard segmented-reduce kernel shape).
pub(crate) struct RowReduceKernel {
    /// CSR offsets.
    pub(crate) indptr: DeviceBuffer<u32>,
    /// Edge values in CSR order.
    pub(crate) data: DeviceBuffer<f32>,
    /// Per-row result.
    pub(crate) out: DeviceBuffer<f32>,
    /// Row count.
    pub(crate) n: usize,
    /// Reduction kind.
    pub(crate) op: RowReduceOp,
}

/// Supported row reductions.
#[derive(Clone, Copy)]
pub(crate) enum RowReduceOp {
    /// Maximum (identity −∞ mapped to 0 for empty rows).
    Max,
    /// Sum.
    Sum,
}

impl Kernel for RowReduceKernel {
    fn name(&self) -> &str {
        match self.op {
            RowReduceOp::Max => "row_max",
            RowReduceOp::Sum => "row_sum",
        }
    }
    fn run_warp(&self, w: &mut WarpCtx<'_>) {
        let v = w.global_warp();
        if v >= self.n {
            return;
        }
        let start = w.ld_scalar(self.indptr, v) as usize;
        let end = w.ld_scalar(self.indptr, v + 1) as usize;
        let mut acc = match self.op {
            RowReduceOp::Max => f32::NEG_INFINITY,
            RowReduceOp::Sum => 0.0,
        };
        let mut i = start;
        while i < end {
            let count = (end - i).min(WARP_SIZE);
            let vals = w.ld_run(self.data, i, count);
            w.shfl_reduce();
            for &x in vals.iter().take(count) {
                acc = match self.op {
                    RowReduceOp::Max => acc.max(x),
                    RowReduceOp::Sum => acc + x,
                };
            }
            i += count;
        }
        if end == start {
            acc = 0.0;
        }
        w.st(self.out, |l| (l == 0).then_some((v, acc)));
    }
}

/// Per-edge binary against a row-indexed table:
/// `data[e] = combine(data[e], table[dst[e]])` (broadcast subtract of the
/// row max, divide by the row sum).
pub(crate) struct EdgeRowBinaryKernel {
    /// Edge values, transformed in place.
    pub(crate) data: DeviceBuffer<f32>,
    /// Row-indexed operand.
    pub(crate) table: DeviceBuffer<f32>,
    /// Destination row per edge.
    pub(crate) dst: DeviceBuffer<u32>,
    /// Edge count.
    pub(crate) len: usize,
    /// Operation.
    pub(crate) op: EdgeRowBinaryOp,
}

/// Supported edge-row binary operations.
#[derive(Clone, Copy)]
pub(crate) enum EdgeRowBinaryOp {
    /// `data - table[dst]`.
    Sub,
    /// `data / table[dst]` (0 when the divisor is 0).
    Div,
    /// `data * table[dst]`.
    Mul,
}

impl Kernel for EdgeRowBinaryKernel {
    fn name(&self) -> &str {
        match self.op {
            EdgeRowBinaryOp::Sub => "edge_sub_rowval",
            EdgeRowBinaryOp::Div => "edge_div_rowval",
            EdgeRowBinaryOp::Mul => "edge_mul_rowval",
        }
    }
    fn run_warp(&self, w: &mut WarpCtx<'_>) {
        let base = w.global_warp() * WARP_SIZE;
        if base >= self.len {
            return;
        }
        let active = (self.len - base).min(WARP_SIZE);
        let vals = w.ld_run(self.data, base, active);
        let dsts = w.ld_run(self.dst, base, active);
        let tabs = w.ld(self.table, |l| (l < active).then(|| dsts[l] as usize));
        w.issue(2);
        let out = std::array::from_fn(|l| match self.op {
            EdgeRowBinaryOp::Sub => vals[l] - tabs[l],
            EdgeRowBinaryOp::Div => {
                if tabs[l] == 0.0 {
                    0.0
                } else {
                    vals[l] / tabs[l]
                }
            }
            EdgeRowBinaryOp::Mul => vals[l] * tabs[l],
        });
        w.st_run(self.data, base, active, &out);
    }
}

/// cuSPARSE-style CSR SpMM: `out[v, :] = Σ_e values[e] · x[src[e], :]`
/// over the edges of row `v`. Warp per row, feature-parallel lanes, tiled
/// for wide features. A good library kernel — but it only computes the
/// weighted sum; everything else needs more launches.
pub(crate) struct SpmmCsrKernel {
    /// CSR offsets.
    pub(crate) indptr: DeviceBuffer<u32>,
    /// CSR neighbor ids.
    pub(crate) indices: DeviceBuffer<u32>,
    /// Per-edge values in CSR order.
    pub(crate) values: DeviceBuffer<f32>,
    /// Dense input matrix (`n × f` row major).
    pub(crate) x: DeviceBuffer<f32>,
    /// Dense output matrix.
    pub(crate) out: DeviceBuffer<f32>,
    /// Rows.
    pub(crate) n: usize,
    /// Feature dimension.
    pub(crate) f: usize,
}

impl Kernel for SpmmCsrKernel {
    fn name(&self) -> &str {
        "cusparse_spmm_csr"
    }
    fn regs_per_thread(&self) -> usize {
        40
    }
    fn run_warp(&self, w: &mut WarpCtx<'_>) {
        let v = w.global_warp();
        if v >= self.n {
            return;
        }
        let f = self.f;
        let start = w.ld_scalar(self.indptr, v) as usize;
        let end = w.ld_scalar(self.indptr, v + 1) as usize;
        for tile in 0..f.div_ceil(WARP_SIZE) {
            let base = tile * WARP_SIZE;
            let active = (f - base).min(WARP_SIZE);
            let mut acc = [0.0f32; WARP_SIZE];
            for i in start..end {
                let u = w.ld_scalar(self.indices, i) as usize;
                let val = w.ld_scalar(self.values, i);
                let xs = w.ld_run(self.x, u * f + base, active);
                w.issue_simd(2, active);
                for l in 0..active {
                    acc[l] += val * xs[l];
                }
            }
            w.st_run(self.out, v * f + base, active, &acc);
        }
    }
}

/// Fill a flat array with one value.
pub(crate) struct FillKernel {
    /// Target array.
    pub(crate) out: DeviceBuffer<f32>,
    /// Fill value.
    pub(crate) value: f32,
    /// Elements.
    pub(crate) len: usize,
}

impl Kernel for FillKernel {
    fn name(&self) -> &str {
        "fill"
    }
    fn run_warp(&self, w: &mut WarpCtx<'_>) {
        let base = w.global_warp() * WARP_SIZE;
        if base >= self.len {
            return;
        }
        let active = (self.len - base).min(WARP_SIZE);
        w.issue(1);
        w.st_run(self.out, base, active, &[self.value; WARP_SIZE]);
    }
}

/// Copy a `u32` array (index/format manipulation for the sparse library).
pub(crate) struct CopyU32Kernel {
    /// Input.
    pub(crate) src: DeviceBuffer<u32>,
    /// Output.
    pub(crate) dst: DeviceBuffer<u32>,
    /// Elements.
    pub(crate) len: usize,
    /// Label.
    pub(crate) label: &'static str,
}

impl Kernel for CopyU32Kernel {
    fn name(&self) -> &str {
        self.label
    }
    fn run_warp(&self, w: &mut WarpCtx<'_>) {
        let base = w.global_warp() * WARP_SIZE;
        if base >= self.len {
            return;
        }
        let active = (self.len - base).min(WARP_SIZE);
        let vals = w.ld_run(self.src, base, active);
        w.issue(1);
        w.st_run(self.dst, base, active, &vals);
    }
}

/// Compute per-row degrees from CSR offsets: `deg[v] = indptr[v+1] - indptr[v]`
/// as `f32` (ready for the reciprocal kernel).
pub(crate) struct DegreeKernel {
    /// CSR offsets.
    pub(crate) indptr: DeviceBuffer<u32>,
    /// Output degrees.
    pub(crate) out: DeviceBuffer<f32>,
    /// Rows.
    pub(crate) n: usize,
}

impl Kernel for DegreeKernel {
    fn name(&self) -> &str {
        "degrees"
    }
    fn run_warp(&self, w: &mut WarpCtx<'_>) {
        let base = w.global_warp() * WARP_SIZE;
        if base >= self.n {
            return;
        }
        let active = (self.n - base).min(WARP_SIZE);
        let lo = w.ld_run(self.indptr, base, active);
        let hi = w.ld_run(self.indptr, base + 1, active);
        w.issue(1);
        let degrees = std::array::from_fn(|l| (hi[l] - lo[l]) as f32);
        w.st_run(self.out, base, active, &degrees);
    }
}

/// Row-broadcast scale of a dense matrix: `out[v, :] = s[v] * x[v, :]`
/// (the "apply self weight" kernel of the frameworks).
pub(crate) struct RowScaleKernel {
    /// Input matrix.
    pub(crate) x: DeviceBuffer<f32>,
    /// Per-row scale.
    pub(crate) s: DeviceBuffer<f32>,
    /// Output matrix.
    pub(crate) out: DeviceBuffer<f32>,
    /// Rows.
    pub(crate) n: usize,
    /// Columns.
    pub(crate) f: usize,
}

impl Kernel for RowScaleKernel {
    fn name(&self) -> &str {
        "row_scale"
    }
    fn run_warp(&self, w: &mut WarpCtx<'_>) {
        let v = w.global_warp();
        if v >= self.n {
            return;
        }
        let f = self.f;
        let s = w.ld_scalar(self.s, v);
        for tile in 0..f.div_ceil(WARP_SIZE) {
            let base = tile * WARP_SIZE;
            let active = (f - base).min(WARP_SIZE);
            let xs = w.ld_run(self.x, v * f + base, active);
            w.issue(1);
            w.st_run(self.out, v * f + base, active, &xs.map(|x| s * x));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{Device, DeviceConfig, LaunchConfig};

    fn dev() -> Device {
        Device::new(DeviceConfig::test_small())
    }

    fn flat_launch(len: usize) -> LaunchConfig {
        LaunchConfig::warp_per_item(len.div_ceil(32).max(1), 128)
    }

    #[test]
    fn scale_copy() {
        let mut d = dev();
        let src = d.mem_mut().alloc_from(&[1.0f32, 2.0, 3.0]);
        let dst = d.mem_mut().alloc::<f32>(3);
        d.launch(
            &ScaleCopyKernel {
                src,
                dst,
                scale: 2.0,
                len: 3,
                label: "copy",
            },
            flat_launch(3),
        );
        assert_eq!(d.mem().read_vec(dst), vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn gather() {
        let mut d = dev();
        let ids = d.mem_mut().alloc_from(&[2u32, 0, 1]);
        let table = d.mem_mut().alloc_from(&[10.0f32, 20.0, 30.0]);
        let out = d.mem_mut().alloc::<f32>(3);
        d.launch(
            &GatherKernel {
                ids,
                table,
                out,
                len: 3,
                label: "gather",
            },
            flat_launch(3),
        );
        assert_eq!(d.mem().read_vec(out), vec![30.0, 10.0, 20.0]);
    }

    #[test]
    fn edge_unary_ops() {
        let mut d = dev();
        let data = d.mem_mut().alloc_from(&[-1.0f32, 2.0]);
        d.launch(
            &EdgeUnaryKernel {
                data,
                op: EdgeUnaryOp::Leaky(0.1),
                len: 2,
            },
            flat_launch(2),
        );
        let out = d.mem().read_vec(data);
        assert!((out[0] + 0.1).abs() < 1e-6);
        assert_eq!(out[1], 2.0);
    }

    #[test]
    fn row_reduce_max_and_sum() {
        let mut d = dev();
        // Two rows: [1, 5, 3] and [2].
        let indptr = d.mem_mut().alloc_from(&[0u32, 3, 4]);
        let data = d.mem_mut().alloc_from(&[1.0f32, 5.0, 3.0, 2.0]);
        let out = d.mem_mut().alloc::<f32>(2);
        d.launch(
            &RowReduceKernel {
                indptr,
                data,
                out,
                n: 2,
                op: RowReduceOp::Max,
            },
            LaunchConfig::warp_per_item(2, 64),
        );
        assert_eq!(d.mem().read_vec(out), vec![5.0, 2.0]);
        d.launch(
            &RowReduceKernel {
                indptr,
                data,
                out,
                n: 2,
                op: RowReduceOp::Sum,
            },
            LaunchConfig::warp_per_item(2, 64),
        );
        assert_eq!(d.mem().read_vec(out), vec![9.0, 2.0]);
    }

    #[test]
    fn edge_row_binary_div() {
        let mut d = dev();
        let data = d.mem_mut().alloc_from(&[4.0f32, 9.0]);
        let table = d.mem_mut().alloc_from(&[2.0f32, 3.0]);
        let dst = d.mem_mut().alloc_from(&[0u32, 1]);
        d.launch(
            &EdgeRowBinaryKernel {
                data,
                table,
                dst,
                len: 2,
                op: EdgeRowBinaryOp::Div,
            },
            flat_launch(2),
        );
        assert_eq!(d.mem().read_vec(data), vec![2.0, 3.0]);
    }

    #[test]
    fn spmm_small() {
        let mut d = dev();
        // Row 0 pulls from {1 (w=2)}, row 1 pulls from {0 (w=1), 1 (w=3)}.
        let indptr = d.mem_mut().alloc_from(&[0u32, 1, 3]);
        let indices = d.mem_mut().alloc_from(&[1u32, 0, 1]);
        let values = d.mem_mut().alloc_from(&[2.0f32, 1.0, 3.0]);
        let x = d.mem_mut().alloc_from(&[10.0f32, 20.0]); // f = 1
        let out = d.mem_mut().alloc::<f32>(2);
        d.launch(
            &SpmmCsrKernel {
                indptr,
                indices,
                values,
                x,
                out,
                n: 2,
                f: 1,
            },
            LaunchConfig::warp_per_item(2, 64),
        );
        assert_eq!(d.mem().read_vec(out), vec![40.0, 70.0]);
    }

    #[test]
    fn row_scale() {
        let mut d = dev();
        let x = d.mem_mut().alloc_from(&[1.0f32, 2.0, 3.0, 4.0]);
        let s = d.mem_mut().alloc_from(&[10.0f32, 0.5]);
        let out = d.mem_mut().alloc::<f32>(4);
        d.launch(
            &RowScaleKernel {
                x,
                s,
                out,
                n: 2,
                f: 2,
            },
            LaunchConfig::warp_per_item(2, 64),
        );
        assert_eq!(d.mem().read_vec(out), vec![10.0, 20.0, 1.5, 2.0]);
    }
}
