//! The fused one-kernel GAT graph convolution (paper Table 3's
//! "One-Kernel" implementation).
//!
//! GAT needs a softmax over each vertex's incoming edge scores before the
//! weighted aggregation. Multi-kernel systems materialize the per-edge
//! scores (and their exponentials, and the normalized weights) in global
//! memory; the fused kernel instead makes **two register-resident passes**
//! over the vertex's edge list:
//!
//! 1. an online-softmax pass computing the running max `m` and the scaled
//!    exponential sum `s` of the scores;
//! 2. an aggregation pass recomputing each score (its inputs are two
//!    cached scalars, so this is cheap) and accumulating
//!    `exp(e - m)/s · x[u]` into the register tile.
//!
//! Nothing per-edge ever touches global memory beyond the reads that are
//! necessary anyway — this is exactly the memory-traffic saving kernel
//! fusion buys in Table 3.

use gpu_sim::{Kernel, WarpCtx, WARP_SIZE};
use tlpgnn_tensor::activations::leaky_relu_scalar;

use super::WorkSource;
use crate::gpu::{GatScoresOnDevice, GraphOnDevice};

/// Fused single-kernel GAT convolution.
pub struct FusedGatKernel {
    /// Device-resident graph and features.
    pub(crate) gd: GraphOnDevice,
    /// Device-resident attention scores.
    pub(crate) scores: GatScoresOnDevice,
    /// First-level workload assignment.
    pub(crate) work: WorkSource,
    /// Register caching (bounds + accumulator), as in the sum kernels.
    pub(crate) reg_cache: bool,
    /// The launch covers rows `0..rows`: `gd.n` from [`Self::new`];
    /// narrow it to leave the rest of `gd` as read-only neighbor state
    /// (e.g. a shard's halo rows).
    pub(crate) rows: usize,
}

impl FusedGatKernel {
    /// Build the kernel.
    pub fn new(
        gd: GraphOnDevice,
        scores: GatScoresOnDevice,
        work: WorkSource,
        reg_cache: bool,
    ) -> Self {
        Self {
            gd,
            scores,
            work,
            reg_cache,
            rows: gd.n,
        }
    }

    /// Registers per thread, with and without register caching.
    pub const fn regs(reg_cache: bool) -> usize {
        if reg_cache {
            56
        } else {
            32
        }
    }

    fn process_vertex(&self, w: &mut WarpCtx<'_>, v: usize) {
        let gd = &self.gd;
        let f = gd.feat_dim;
        let start = w.ld_scalar(gd.indptr, v) as usize;
        let end = w.ld_scalar(gd.indptr, v + 1) as usize;
        if start == end {
            // Isolated vertex: zero output (softmax over an empty set).
            for tile in 0..gd.tiles() {
                let base = tile * WARP_SIZE;
                let active = (f - base).min(WARP_SIZE);
                w.st_run(gd.output, v * f + base, active, &[0.0; WARP_SIZE]);
            }
            return;
        }
        let ar_v = w.ld_scalar(self.scores.ar, v);
        let slope = self.scores.slope;

        // Pass 1: online softmax statistics (running max m, scaled sum s).
        let mut m = f32::NEG_INFINITY;
        let mut s = 0.0f32;
        for i in start..end {
            if !self.reg_cache {
                let _ = w.ld_scalar(gd.indptr, v + 1);
            }
            let u = w.ld_scalar(gd.indices, i) as usize;
            let al_u = w.ld_scalar(self.scores.al, u);
            let e = leaky_relu_scalar(al_u + ar_v, slope);
            let m_new = m.max(e);
            s = s * (m - m_new).exp() + (e - m_new).exp();
            m = m_new;
            w.issue(8); // max, two exps, fma, loop
        }

        // Pass 2: weighted aggregation, feature-parallel per tile.
        for tile in 0..gd.tiles() {
            let base = tile * WARP_SIZE;
            let active = (f - base).min(WARP_SIZE);
            let out_at = v * f + base;
            let mut acc = [0.0f32; WARP_SIZE];
            if !self.reg_cache {
                w.st_run(gd.output, out_at, active, &[0.0; WARP_SIZE]);
            }
            for i in start..end {
                if !self.reg_cache {
                    let _ = w.ld_scalar(gd.indptr, v + 1);
                }
                let u = w.ld_scalar(gd.indices, i) as usize;
                let al_u = w.ld_scalar(self.scores.al, u);
                let e = leaky_relu_scalar(al_u + ar_v, slope);
                let weight = (e - m).exp() / s;
                let vals = w.ld_run(gd.features, u * f + base, active);
                w.issue_simd(4, active); // exp + div + fma
                if self.reg_cache {
                    for lane in 0..active {
                        acc[lane] += weight * vals[lane];
                    }
                } else {
                    let cur = w.ld_run(gd.output, out_at, active);
                    let sum = std::array::from_fn(|lane| cur[lane] + weight * vals[lane]);
                    w.st_run(gd.output, out_at, active, &sum);
                }
            }
            if self.reg_cache {
                w.st_run(gd.output, out_at, active, &acc);
            }
        }
    }
}

impl Kernel for FusedGatKernel {
    fn name(&self) -> &str {
        "tlpgnn_fused_gat"
    }

    fn regs_per_thread(&self) -> usize {
        Self::regs(self.reg_cache)
    }

    fn run_warp(&self, w: &mut WarpCtx<'_>) {
        self.work
            .for_each_vertex(w, self.rows, |w, v| self.process_vertex(w, v));
    }
}

/// Multi-head GAT parameters: `H` independent attention heads whose
/// outputs are concatenated (the standard GAT formulation; the paper
/// evaluates a single head, this is the natural extension).
#[derive(Debug, Clone, PartialEq)]
pub struct MultiHeadGatParams {
    /// Per-head attention parameters (all share the feature dimension).
    pub heads: Vec<crate::model::GatParams>,
}

impl MultiHeadGatParams {
    /// `heads` random heads for a feature dimension.
    pub fn random(feat_dim: usize, heads: usize, seed: u64) -> Self {
        Self {
            heads: (0..heads)
                .map(|h| crate::model::GatParams::random(feat_dim, seed + h as u64))
                .collect(),
        }
    }

    /// Number of heads.
    fn num_heads(&self) -> usize {
        self.heads.len()
    }

    /// Serial reference: per-head attention aggregation, heads
    /// concatenated along the feature axis (output is `n × H·F`).
    pub fn conv_reference(
        &self,
        g: &tlpgnn_graph::Csr,
        x: &tlpgnn_tensor::Matrix,
    ) -> tlpgnn_tensor::Matrix {
        let f = x.cols();
        let h = self.num_heads();
        let mut out = tlpgnn_tensor::Matrix::zeros(g.num_vertices(), h * f);
        for (hi, params) in self.heads.iter().enumerate() {
            let head = crate::oracle::conv_reference(
                &crate::model::GnnModel::Gat {
                    params: params.clone(),
                },
                g,
                x,
            );
            for v in 0..g.num_vertices() {
                out.row_mut(v)[hi * f..(hi + 1) * f].copy_from_slice(head.row(v));
            }
        }
        out
    }
}

/// Device-side multi-head scores: `al[h*n + u]`, `ar[h*n + v]`.
#[derive(Clone, Copy)]
pub struct MultiHeadScoresOnDevice {
    /// Flattened per-head source scores (`H × n`).
    pub(crate) al: gpu_sim::DeviceBuffer<f32>,
    /// Flattened per-head destination scores (`H × n`).
    pub(crate) ar: gpu_sim::DeviceBuffer<f32>,
    /// Head count.
    pub(crate) heads: usize,
    /// LeakyReLU slope (shared across heads).
    pub(crate) slope: f32,
}

impl MultiHeadScoresOnDevice {
    /// Compute all heads' scores on the host and upload.
    pub fn upload(
        dev: &mut gpu_sim::Device,
        feats: &tlpgnn_tensor::Matrix,
        params: &MultiHeadGatParams,
    ) -> Self {
        let n = feats.rows();
        let h = params.num_heads();
        let mut al = vec![0.0f32; h * n];
        let mut ar = vec![0.0f32; h * n];
        let mut slope = 0.2;
        for (hi, p) in params.heads.iter().enumerate() {
            let (a, r) = crate::oracle::gat_scores(feats, p);
            al[hi * n..(hi + 1) * n].copy_from_slice(&a);
            ar[hi * n..(hi + 1) * n].copy_from_slice(&r);
            slope = p.slope;
        }
        let mem = dev.mem_mut();
        Self {
            al: mem.alloc_from(&al),
            ar: mem.alloc_from(&ar),
            heads: h,
            slope,
        }
    }
}

/// Fused multi-head GAT: **one kernel for all heads** — the warp owning a
/// vertex runs the two-pass attention per head, reusing the edge list it
/// already has in cache, and writes the concatenated output (`n × H·F`).
pub struct FusedMultiHeadGatKernel {
    /// Device-resident graph and features (output buffer must be `n·H·F`;
    /// allocate separately and pass here).
    pub gd: GraphOnDevice,
    /// Concatenated output buffer (`n × H·F`).
    pub output: gpu_sim::DeviceBuffer<f32>,
    /// Multi-head scores.
    pub scores: MultiHeadScoresOnDevice,
}

impl Kernel for FusedMultiHeadGatKernel {
    fn name(&self) -> &str {
        "tlpgnn_fused_gat_multihead"
    }
    fn regs_per_thread(&self) -> usize {
        64
    }
    fn run_warp(&self, w: &mut WarpCtx<'_>) {
        let gd = &self.gd;
        let v = w.global_warp();
        if v >= gd.n {
            return;
        }
        let f = gd.feat_dim;
        let n = gd.n;
        let heads = self.scores.heads;
        let out_stride = heads * f;
        let start = w.ld_scalar(gd.indptr, v) as usize;
        let end = w.ld_scalar(gd.indptr, v + 1) as usize;
        for h in 0..heads {
            // Head `h`'s slice of row `v` in the concatenated output.
            let out_row = v * out_stride + h * f;
            if start == end {
                for tile in 0..f.div_ceil(WARP_SIZE) {
                    let base = tile * WARP_SIZE;
                    let active = (f - base).min(WARP_SIZE);
                    w.st_run(self.output, out_row + base, active, &[0.0; WARP_SIZE]);
                }
                continue;
            }
            let ar_v = w.ld_scalar(self.scores.ar, h * n + v);
            let slope = self.scores.slope;
            // Online softmax pass for this head.
            let mut m = f32::NEG_INFINITY;
            let mut s = 0.0f32;
            for i in start..end {
                let u = w.ld_scalar(gd.indices, i) as usize;
                let al_u = w.ld_scalar(self.scores.al, h * n + u);
                let e = leaky_relu_scalar(al_u + ar_v, slope);
                let m_new = m.max(e);
                s = s * (m - m_new).exp() + (e - m_new).exp();
                m = m_new;
                w.issue(8);
            }
            // Aggregation pass.
            for tile in 0..f.div_ceil(WARP_SIZE) {
                let base = tile * WARP_SIZE;
                let active = (f - base).min(WARP_SIZE);
                let mut acc = [0.0f32; WARP_SIZE];
                for i in start..end {
                    let u = w.ld_scalar(gd.indices, i) as usize;
                    let al_u = w.ld_scalar(self.scores.al, h * n + u);
                    let e = leaky_relu_scalar(al_u + ar_v, slope);
                    let weight = (e - m).exp() / s;
                    let vals = w.ld_run(gd.features, u * f + base, active);
                    w.issue_simd(4, active);
                    for lane in 0..active {
                        acc[lane] += weight * vals[lane];
                    }
                }
                w.st_run(self.output, out_row + base, active, &acc);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{GatParams, GnnModel};
    use crate::oracle::conv_reference;
    use crate::schedule::Assignment;
    use gpu_sim::{Device, DeviceConfig};
    use tlpgnn_graph::generators;
    use tlpgnn_tensor::Matrix;

    fn run_gat(g: &tlpgnn_graph::Csr, x: &Matrix, params: &GatParams, software: bool) -> Matrix {
        let mut dev = Device::new(DeviceConfig::test_small());
        let gd = GraphOnDevice::upload(&mut dev, g, x);
        let scores = GatScoresOnDevice::upload(&mut dev, x, params);
        let assignment = if software {
            Assignment::software()
        } else {
            Assignment::hardware()
        };
        let lc = assignment.launch_config(gd.n, dev.cfg(), 56);
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
        let k = FusedGatKernel::new(gd, scores, work, true);
        dev.launch(&k, lc);
        gd.read_output(&dev)
    }

    #[test]
    fn fused_gat_matches_oracle() {
        let g = generators::rmat_default(150, 1000, 21);
        let x = Matrix::random(150, 32, 1.0, 22);
        let params = GatParams::random(32, 23);
        let got = run_gat(&g, &x, &params, false);
        let want = conv_reference(&GnnModel::Gat { params }, &g, &x);
        assert!(
            got.max_abs_diff(&want) < 1e-3,
            "diff = {}",
            got.max_abs_diff(&want)
        );
    }

    #[test]
    fn fused_gat_software_assignment() {
        let g = generators::rmat_default(120, 900, 25);
        let x = Matrix::random(120, 32, 1.0, 26);
        let params = GatParams::random(32, 27);
        let got = run_gat(&g, &x, &params, true);
        let want = conv_reference(&GnnModel::Gat { params }, &g, &x);
        assert!(got.max_abs_diff(&want) < 1e-3);
    }

    #[test]
    fn isolated_vertices_written_zero() {
        let g = generators::star(30);
        let x = Matrix::random(30, 32, 1.0, 28);
        let params = GatParams::random(32, 29);
        let got = run_gat(&g, &x, &params, false);
        for v in 1..30 {
            assert!(got.row(v).iter().all(|&x| x == 0.0));
        }
    }

    #[test]
    fn wide_features() {
        let g = generators::erdos_renyi(60, 400, 31);
        let x = Matrix::random(60, 64, 1.0, 32);
        let params = GatParams::random(64, 33);
        let got = run_gat(&g, &x, &params, false);
        let want = conv_reference(&GnnModel::Gat { params }, &g, &x);
        assert!(got.max_abs_diff(&want) < 1e-3);
    }

    #[test]
    fn multi_head_matches_reference() {
        let g = generators::rmat_default(100, 700, 38);
        let x = Matrix::random(100, 32, 1.0, 39);
        let params = MultiHeadGatParams::random(32, 4, 40);
        let want = params.conv_reference(&g, &x);

        let mut dev = Device::new(DeviceConfig::test_small());
        let gd = GraphOnDevice::upload(&mut dev, &g, &x);
        let output = dev.mem_mut().alloc::<f32>(gd.n * 4 * 32);
        let scores = MultiHeadScoresOnDevice::upload(&mut dev, &x, &params);
        let k = FusedMultiHeadGatKernel { gd, output, scores };
        let before = dev.launches();
        let p = dev.launch(
            &k,
            Assignment::hardware().launch_config(gd.n, dev.cfg(), 64),
        );
        assert_eq!(dev.launches() - before, 1, "all heads in one launch");
        assert_eq!(p.atomic_requests, 0);
        let got = Matrix::from_vec(gd.n, 4 * 32, dev.mem().read_vec(output));
        assert!(
            got.max_abs_diff(&want) < 1e-3,
            "multi-head diverged: {}",
            got.max_abs_diff(&want)
        );
    }

    #[test]
    fn one_head_multihead_equals_single_head_kernel() {
        let g = generators::rmat_default(90, 500, 41);
        let x = Matrix::random(90, 32, 1.0, 42);
        let single = GatParams::random(32, 43);
        let multi = MultiHeadGatParams {
            heads: vec![single.clone()],
        };
        let got_single = run_gat(&g, &x, &single, false);
        let want = multi.conv_reference(&g, &x);
        assert!(got_single.max_abs_diff(&want) < 1e-4);
    }

    #[test]
    fn fused_gat_is_atomic_free_and_single_launch() {
        let mut dev = Device::new(DeviceConfig::test_small());
        let g = generators::rmat_default(80, 500, 35);
        let x = Matrix::random(80, 32, 1.0, 36);
        let params = GatParams::random(32, 37);
        let gd = GraphOnDevice::upload(&mut dev, &g, &x);
        let scores = GatScoresOnDevice::upload(&mut dev, &x, &params);
        let k = FusedGatKernel::new(gd, scores, WorkSource::Hardware, true);
        let before = dev.launches();
        let p = dev.launch(
            &k,
            Assignment::hardware().launch_config(gd.n, dev.cfg(), 56),
        );
        assert_eq!(dev.launches() - before, 1);
        assert_eq!(p.atomic_requests, 0);
    }
}
