//! Device-resident graph + feature state shared by all simulated kernels
//! (TLPGNN's and every baseline's).

use gpu_sim::{Device, DeviceBuffer};
use tlpgnn_graph::Csr;
use tlpgnn_tensor::Matrix;

use crate::model::GatParams;
use crate::oracle;

/// A graph, its features, and the standard auxiliary arrays, uploaded to
/// device memory. Buffers are plain copyable handles, so kernels embed
/// them directly.
#[derive(Clone, Copy)]
pub struct GraphOnDevice {
    /// Vertex count.
    pub n: usize,
    /// Edge count.
    pub m: usize,
    /// Feature dimension.
    pub feat_dim: usize,
    /// CSR offsets (`n + 1` entries).
    pub indptr: DeviceBuffer<u32>,
    /// CSR neighbor ids (`m` entries).
    pub indices: DeviceBuffer<u32>,
    /// Row-major feature matrix (`n * feat_dim`).
    pub features: DeviceBuffer<f32>,
    /// Output feature matrix (`n * feat_dim`).
    pub output: DeviceBuffer<f32>,
    /// GCN normalization `1/sqrt(deg+1)` per vertex.
    pub norm: DeviceBuffer<f32>,
    /// In-degree per vertex.
    pub degree: DeviceBuffer<u32>,
}

impl GraphOnDevice {
    /// Upload a graph and its feature matrix.
    pub fn upload(dev: &mut Device, g: &Csr, feats: &Matrix) -> Self {
        assert_eq!(g.num_vertices(), feats.rows(), "graph/feature mismatch");
        let n = g.num_vertices();
        let m = g.num_edges();
        let feat_dim = feats.cols();
        let mem = dev.mem_mut();
        let indptr = mem.alloc_from(g.indptr());
        let indices = mem.alloc_from(g.indices());
        let features = mem.alloc_from(feats.data());
        let output = mem.alloc::<f32>(n * feat_dim);
        let norm = mem.alloc_from(&oracle::gcn_norm(g));
        let degs: Vec<u32> = (0..n).map(|v| g.degree(v) as u32).collect();
        let degree = mem.alloc_from(&degs);
        Self {
            n,
            m,
            feat_dim,
            indptr,
            indices,
            features,
            output,
            norm,
            degree,
        }
    }

    /// Read the output matrix back to the host.
    pub fn read_output(&self, dev: &Device) -> Matrix {
        Matrix::from_vec(self.n, self.feat_dim, dev.mem().read_vec(self.output))
    }

    /// Number of 32-lane feature tiles per vertex.
    pub fn tiles(&self) -> usize {
        self.feat_dim.div_ceil(32).max(1)
    }

    /// Release all device buffers (graph, features, output, auxiliaries).
    pub fn free(self, dev: &mut Device) {
        let mem = dev.mem_mut();
        mem.free(self.indptr);
        mem.free(self.indices);
        mem.free(self.features);
        mem.free(self.output);
        mem.free(self.norm);
        mem.free(self.degree);
    }
}

/// Device-resident GAT attention scores (`al[u] = a_src · x[u]`,
/// `ar[v] = a_dst · x[v]`).
#[derive(Clone, Copy)]
pub struct GatScoresOnDevice {
    /// Source-side scores, one per vertex.
    pub al: DeviceBuffer<f32>,
    /// Destination-side scores, one per vertex.
    pub ar: DeviceBuffer<f32>,
    /// LeakyReLU slope.
    pub slope: f32,
}

impl GatScoresOnDevice {
    /// Compute scores on the host and upload them.
    pub fn upload(dev: &mut Device, feats: &Matrix, params: &GatParams) -> Self {
        let (al, ar) = oracle::gat_scores(feats, params);
        let mem = dev.mem_mut();
        Self {
            al: mem.alloc_from(&al),
            ar: mem.alloc_from(&ar),
            slope: params.slope,
        }
    }

    /// Release the score buffers.
    pub fn free(self, dev: &mut Device) {
        let mem = dev.mem_mut();
        mem.free(self.al);
        mem.free(self.ar);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceConfig;
    use tlpgnn_graph::generators;

    #[test]
    fn upload_roundtrip() {
        let mut dev = Device::new(DeviceConfig::test_small());
        let g = generators::erdos_renyi(50, 200, 1);
        let x = Matrix::random(50, 16, 1.0, 2);
        let gd = GraphOnDevice::upload(&mut dev, &g, &x);
        assert_eq!(gd.n, 50);
        assert_eq!(gd.m, g.num_edges());
        assert_eq!(gd.tiles(), 1);
        assert_eq!(dev.mem().read_vec(gd.features), x.data());
        assert_eq!(dev.mem().read_vec(gd.indptr), g.indptr());
        let out = gd.read_output(&dev);
        assert_eq!(out.shape(), (50, 16));
        assert!(out.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn tiles_round_up() {
        let mut dev = Device::new(DeviceConfig::test_small());
        let g = generators::path(4);
        let x = Matrix::zeros(4, 48);
        let gd = GraphOnDevice::upload(&mut dev, &g, &x);
        assert_eq!(gd.tiles(), 2);
    }

    #[test]
    fn gat_scores_upload() {
        let mut dev = Device::new(DeviceConfig::test_small());
        let x = Matrix::random(10, 8, 1.0, 3);
        let params = GatParams::random(8, 4);
        let s = GatScoresOnDevice::upload(&mut dev, &x, &params);
        let al = dev.mem().read_vec(s.al);
        assert_eq!(al.len(), 10);
        let (want_al, _) = oracle::gat_scores(&x, &params);
        assert_eq!(al, want_al);
    }
}
