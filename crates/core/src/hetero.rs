//! Heterogeneous-graph extension — the paper's other stated future work
//! (Section 1: "our designs for the kernel is generic and should be also
//! applicable to the GNN models on heterogeneous graphs with reasonable
//! modifications").
//!
//! A heterogeneous graph holds several edge relations over one vertex
//! set. The R-GCN-style convolution aggregates per relation and sums:
//!
//! ```text
//! out[v] = x[v] + Σ_r mean_{u ∈ N_r(v)} x[u]
//! ```
//!
//! (the per-relation weight matrices `W_r` belong to the dense phase,
//! exactly as the paper factors GNN layers). The "reasonable
//! modification" to the fused kernel is small: the warp owning vertex `v`
//! walks one edge list per relation, keeping everything else — feature
//! parallelism, register accumulators, single launch — unchanged. The
//! unfused alternative launches one kernel per relation plus an add,
//! re-paying Observation III's costs; both are implemented so the
//! extension can be measured.

use gpu_sim::{Device, DeviceBuffer, Kernel, LaunchConfig, OpProfile, WarpCtx, WARP_SIZE};
use tlpgnn_graph::Csr;
use tlpgnn_tensor::Matrix;

/// Several edge relations over one vertex set.
///
/// ```
/// use tlpgnn::hetero::{HeteroEngine, HeteroGraph};
/// use tlpgnn_graph::generators;
/// use tlpgnn_tensor::Matrix;
/// let mut hg = HeteroGraph::new(64);
/// hg.add_relation("cites", generators::erdos_renyi(64, 256, 1));
/// hg.add_relation("same_venue", generators::ring_lattice(64, 2));
/// let x = Matrix::random(64, 16, 1.0, 2);
/// let mut engine = HeteroEngine::new(gpu_sim::DeviceConfig::test_small());
/// let (out, profile) = engine.conv_fused(&hg, &x);
/// assert!(out.max_abs_diff(&hg.conv_reference(&x)) < 1e-3);
/// assert_eq!(profile.kernel_launches, 1); // all relations, one launch
/// ```
#[derive(Debug, Clone)]
pub struct HeteroGraph {
    num_vertices: usize,
    relations: Vec<(String, Csr)>,
}

impl HeteroGraph {
    /// Empty heterogeneous graph over `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        Self {
            num_vertices,
            relations: Vec::new(),
        }
    }

    /// Add one relation. Panics if the vertex count differs.
    pub fn add_relation(&mut self, name: impl Into<String>, g: Csr) -> &mut Self {
        assert_eq!(
            g.num_vertices(),
            self.num_vertices,
            "relation over a different vertex set"
        );
        self.relations.push((name.into(), g));
        self
    }

    /// Vertex count.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// The relations.
    pub fn relations(&self) -> &[(String, Csr)] {
        &self.relations
    }

    /// Total edges over all relations.
    pub fn num_edges(&self) -> usize {
        self.relations.iter().map(|(_, g)| g.num_edges()).sum()
    }

    /// Serial reference convolution (see module docs for the semantics).
    pub fn conv_reference(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.rows(), self.num_vertices);
        let mut out = x.clone(); // the self term
        for (_, g) in &self.relations {
            for v in 0..self.num_vertices {
                let d = g.degree(v);
                if d == 0 {
                    continue;
                }
                let inv = 1.0 / d as f32;
                let row = out.row_mut(v);
                for &u in g.neighbors(v) {
                    for (o, &xv) in row.iter_mut().zip(x.row(u as usize)) {
                        *o += inv * xv;
                    }
                }
            }
        }
        out
    }
}

/// Device-side state of one relation.
#[derive(Clone, Copy)]
struct RelationOnDevice {
    indptr: DeviceBuffer<u32>,
    indices: DeviceBuffer<u32>,
}

/// The fused multi-relation kernel: one warp per vertex, one launch for
/// ALL relations.
pub(crate) struct FusedHeteroKernel {
    relations: Vec<RelationOnDevice>,
    features: DeviceBuffer<f32>,
    output: DeviceBuffer<f32>,
    n: usize,
    f: usize,
}

impl Kernel for FusedHeteroKernel {
    fn name(&self) -> &str {
        "tlpgnn_fused_hetero"
    }
    fn regs_per_thread(&self) -> usize {
        52
    }
    fn run_warp(&self, w: &mut WarpCtx<'_>) {
        let v = w.global_warp();
        if v >= self.n {
            return;
        }
        let f = self.f;
        for tile in 0..f.div_ceil(WARP_SIZE) {
            let base = tile * WARP_SIZE;
            let active = (f - base).min(WARP_SIZE);
            // Register accumulator initialized with the self term.
            let mut acc = w.ld_run(self.features, v * f + base, active);
            for rel in &self.relations {
                let start = w.ld_scalar(rel.indptr, v) as usize;
                let end = w.ld_scalar(rel.indptr, v + 1) as usize;
                if start == end {
                    continue;
                }
                let inv = 1.0 / (end - start) as f32;
                for i in start..end {
                    let u = w.ld_scalar(rel.indices, i) as usize;
                    let vals = w.ld_run(self.features, u * f + base, active);
                    w.issue_simd(2, active);
                    for l in 0..active {
                        acc[l] += inv * vals[l];
                    }
                }
            }
            w.st_run(self.output, v * f + base, active, &acc);
        }
    }
}

/// Per-relation mean-aggregation kernel used by the unfused pipeline
/// (accumulates `mean_r` into the output, which starts as a copy of `x`).
struct RelationMeanKernel {
    rel: RelationOnDevice,
    features: DeviceBuffer<f32>,
    output: DeviceBuffer<f32>,
    n: usize,
    f: usize,
}

impl Kernel for RelationMeanKernel {
    fn name(&self) -> &str {
        "hetero_relation_mean"
    }
    fn run_warp(&self, w: &mut WarpCtx<'_>) {
        let v = w.global_warp();
        if v >= self.n {
            return;
        }
        let f = self.f;
        let start = w.ld_scalar(self.rel.indptr, v) as usize;
        let end = w.ld_scalar(self.rel.indptr, v + 1) as usize;
        if start == end {
            return;
        }
        let inv = 1.0 / (end - start) as f32;
        for tile in 0..f.div_ceil(WARP_SIZE) {
            let base = tile * WARP_SIZE;
            let active = (f - base).min(WARP_SIZE);
            let mut acc = [0.0f32; WARP_SIZE];
            for i in start..end {
                let u = w.ld_scalar(self.rel.indices, i) as usize;
                let vals = w.ld_run(self.features, u * f + base, active);
                w.issue_simd(2, active);
                for l in 0..active {
                    acc[l] += inv * vals[l];
                }
            }
            // Accumulate into the (already initialized) output: an extra
            // read-modify-write per relation — the unfused cost.
            let cur = w.ld_run(self.output, v * f + base, active);
            let sum = std::array::from_fn(|l| cur[l] + acc[l]);
            w.st_run(self.output, v * f + base, active, &sum);
        }
    }
}

/// Engine for the heterogeneous convolution on a simulated device.
pub struct HeteroEngine {
    device: Device,
}

impl HeteroEngine {
    /// Engine on the given device configuration.
    pub fn new(cfg: gpu_sim::DeviceConfig) -> Self {
        Self {
            device: Device::new(cfg),
        }
    }

    fn upload(
        &mut self,
        hg: &HeteroGraph,
        x: &Matrix,
    ) -> (Vec<RelationOnDevice>, DeviceBuffer<f32>, DeviceBuffer<f32>) {
        let mem = self.device.mem_mut();
        let rels = hg
            .relations()
            .iter()
            .map(|(_, g)| RelationOnDevice {
                indptr: mem.alloc_from(g.indptr()),
                indices: mem.alloc_from(g.indices()),
            })
            .collect();
        let features = mem.alloc_from(x.data());
        let output = mem.alloc::<f32>(x.rows() * x.cols());
        (rels, features, output)
    }

    fn free(
        &mut self,
        rels: Vec<RelationOnDevice>,
        features: DeviceBuffer<f32>,
        output: DeviceBuffer<f32>,
    ) {
        let mem = self.device.mem_mut();
        for r in rels {
            mem.free(r.indptr);
            mem.free(r.indices);
        }
        mem.free(features);
        mem.free(output);
    }

    /// Fused: one kernel launch covering every relation.
    pub fn conv_fused(&mut self, hg: &HeteroGraph, x: &Matrix) -> (Matrix, OpProfile) {
        let n = hg.num_vertices();
        let f = x.cols();
        let (rels, features, output) = self.upload(hg, x);
        let k = FusedHeteroKernel {
            relations: rels.clone(),
            features,
            output,
            n,
            f,
        };
        let mut op = OpProfile::new("hetero_fused");
        op.add(&self.device.launch(&k, LaunchConfig::warp_per_item(n, 256)));
        let out = Matrix::from_vec(n, f, self.device.mem().read_vec(output));
        self.free(rels, features, output);
        (out, op)
    }

    /// Unfused: one copy kernel (self term) plus one kernel per relation.
    pub fn conv_per_relation(&mut self, hg: &HeteroGraph, x: &Matrix) -> (Matrix, OpProfile) {
        let n = hg.num_vertices();
        let f = x.cols();
        let (rels, features, output) = self.upload(hg, x);
        let mut op = OpProfile::new("hetero_per_relation");
        // Kernel 0: output = x (the self term).
        op.add(&self.device.launch(
            &crate::hetero::copy_kernel(features, output, n * f),
            LaunchConfig::warp_per_item((n * f).div_ceil(32).max(1), 256),
        ));
        for rel in &rels {
            let k = RelationMeanKernel {
                rel: *rel,
                features,
                output,
                n,
                f,
            };
            op.add(&self.device.launch(&k, LaunchConfig::warp_per_item(n, 256)));
        }
        let out = Matrix::from_vec(n, f, self.device.mem().read_vec(output));
        self.free(rels, features, output);
        (out, op)
    }
}

/// Flat copy kernel (self-term initialization of the unfused pipeline).
struct CopyKernel {
    src: DeviceBuffer<f32>,
    dst: DeviceBuffer<f32>,
    len: usize,
}

fn copy_kernel(src: DeviceBuffer<f32>, dst: DeviceBuffer<f32>, len: usize) -> CopyKernel {
    CopyKernel { src, dst, len }
}

impl Kernel for CopyKernel {
    fn name(&self) -> &str {
        "hetero_self_copy"
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

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceConfig;
    use tlpgnn_graph::generators;

    fn sample_hetero(n: usize, seed: u64) -> HeteroGraph {
        let mut hg = HeteroGraph::new(n);
        hg.add_relation("cites", generators::erdos_renyi(n, n * 4, seed));
        hg.add_relation("authors", generators::rmat_default(n, n * 2, seed + 1));
        hg.add_relation("venue", generators::ring_lattice(n, 3));
        hg
    }

    #[test]
    fn fused_matches_reference() {
        let hg = sample_hetero(150, 201);
        let x = Matrix::random(150, 32, 1.0, 202);
        let want = hg.conv_reference(&x);
        let mut e = HeteroEngine::new(DeviceConfig::test_small());
        let (got, prof) = e.conv_fused(&hg, &x);
        assert!(
            got.max_abs_diff(&want) < 1e-3,
            "{}",
            got.max_abs_diff(&want)
        );
        assert_eq!(prof.kernel_launches, 1);
    }

    #[test]
    fn per_relation_matches_reference() {
        let hg = sample_hetero(150, 203);
        let x = Matrix::random(150, 32, 1.0, 204);
        let want = hg.conv_reference(&x);
        let mut e = HeteroEngine::new(DeviceConfig::test_small());
        let (got, prof) = e.conv_per_relation(&hg, &x);
        assert!(got.max_abs_diff(&want) < 1e-3);
        assert_eq!(prof.kernel_launches, 1 + hg.relations().len());
    }

    #[test]
    fn fusion_still_pays_off_on_heterographs() {
        // Observation III extends: one launch beats R+1 launches in both
        // launch overhead and traffic.
        let hg = sample_hetero(2000, 205);
        let x = Matrix::random(2000, 32, 1.0, 206);
        let mut e = HeteroEngine::new(DeviceConfig::v100());
        let (_, p_fused) = e.conv_fused(&hg, &x);
        let mut e2 = HeteroEngine::new(DeviceConfig::v100());
        let (_, p_rel) = e2.conv_per_relation(&hg, &x);
        assert!(p_rel.total_traffic_bytes() > p_fused.total_traffic_bytes());
        assert!(p_rel.runtime_ms > p_fused.runtime_ms);
    }

    #[test]
    fn empty_relation_is_identity_contribution() {
        let mut hg = HeteroGraph::new(40);
        hg.add_relation("empty", generators::path(40)); // near-empty rows
        let x = Matrix::random(40, 8, 1.0, 207);
        let want = hg.conv_reference(&x);
        let mut e = HeteroEngine::new(DeviceConfig::test_small());
        let (got, _) = e.conv_fused(&hg, &x);
        assert!(got.max_abs_diff(&want) < 1e-4);
    }

    #[test]
    #[should_panic(expected = "different vertex set")]
    fn mismatched_relation_rejected() {
        let mut hg = HeteroGraph::new(10);
        hg.add_relation("bad", generators::path(11));
    }
}
