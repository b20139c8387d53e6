//! Shared device-upload helpers for the baseline systems.

use gpu_sim::{Device, DeviceBuffer};
use tlpgnn_graph::Csr;

/// COO edge arrays in CSR order: edge `i` of the flat `indices` array has
/// source `src[i]` and destination `dst[i]` (the row it belongs to).
/// Edge-centric and DGL-style systems stream these.
#[derive(Clone, Copy)]
pub struct CooOnDevice {
    /// Source vertex per edge.
    pub src: DeviceBuffer<u32>,
    /// Destination vertex per edge.
    pub dst: DeviceBuffer<u32>,
    /// Edge count.
    pub m: usize,
}

impl CooOnDevice {
    /// Upload the COO view of a pull-oriented CSR (edge order = CSR order,
    /// so edge id doubles as the CSR position).
    pub fn upload(dev: &mut Device, g: &Csr) -> Self {
        let m = g.num_edges();
        let mut dsts = Vec::with_capacity(m);
        for v in 0..g.num_vertices() {
            dsts.extend(std::iter::repeat_n(v as u32, g.degree(v)));
        }
        let mem = dev.mem_mut();
        Self {
            src: mem.alloc_from(g.indices()),
            dst: mem.alloc_from(&dsts),
            m,
        }
    }

    /// Release the buffers.
    pub fn free(self, dev: &mut Device) {
        let mem = dev.mem_mut();
        mem.free(self.src);
        mem.free(self.dst);
    }
}

/// Host-side per-edge weights for the sum-family aggregators, in CSR edge
/// order: `c_u c_v` for GCN, `1` for GIN, `1/deg(v)` for Sage.
pub(crate) fn edge_weights(g: &Csr, agg: tlpgnn::Aggregator) -> Vec<f32> {
    use tlpgnn::Aggregator;
    let norm = tlpgnn::oracle::gcn_norm(g);
    let mut w = Vec::with_capacity(g.num_edges());
    for v in 0..g.num_vertices() {
        let scale = match agg {
            Aggregator::GcnSum => norm[v],
            Aggregator::GinSum { .. } => 1.0,
            Aggregator::SageMean => {
                let d = g.degree(v);
                if d == 0 {
                    0.0
                } else {
                    1.0 / d as f32
                }
            }
        };
        for &u in g.neighbors(v) {
            let wu = match agg {
                Aggregator::GcnSum => norm[u as usize] * scale,
                _ => scale,
            };
            w.push(wu);
        }
    }
    w
}

/// Per-vertex self-term scale for an aggregator (`c_v²`, `1+ε`, `0`).
pub fn self_weights(g: &Csr, agg: tlpgnn::Aggregator) -> Vec<f32> {
    use tlpgnn::Aggregator;
    let norm = tlpgnn::oracle::gcn_norm(g);
    (0..g.num_vertices())
        .map(|v| match agg {
            Aggregator::GcnSum => norm[v] * norm[v],
            Aggregator::GinSum { eps } => 1.0 + eps,
            Aggregator::SageMean => 0.0,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceConfig;
    use tlpgnn::Aggregator;
    use tlpgnn_graph::generators;

    #[test]
    fn coo_matches_csr_order() {
        let mut dev = Device::new(DeviceConfig::test_small());
        let g = generators::rmat_default(50, 300, 91);
        let coo = CooOnDevice::upload(&mut dev, &g);
        let src = dev.mem().read_vec(coo.src);
        let dst = dev.mem().read_vec(coo.dst);
        assert_eq!(src.len(), g.num_edges());
        let mut i = 0;
        for v in 0..g.num_vertices() {
            for &u in g.neighbors(v) {
                assert_eq!(src[i], u);
                assert_eq!(dst[i], v as u32);
                i += 1;
            }
        }
    }

    #[test]
    fn gin_edge_weights_are_ones() {
        let g = generators::erdos_renyi(40, 200, 92);
        let w = edge_weights(&g, Aggregator::GinSum { eps: 0.5 });
        assert!(w.iter().all(|&x| x == 1.0));
        let s = self_weights(&g, Aggregator::GinSum { eps: 0.5 });
        assert!(s.iter().all(|&x| (x - 1.5).abs() < 1e-6));
    }

    #[test]
    fn sage_weights_sum_to_one_per_vertex() {
        let g = generators::rmat_default(60, 400, 93);
        let w = edge_weights(&g, Aggregator::SageMean);
        let mut i = 0;
        for v in 0..g.num_vertices() {
            let d = g.degree(v);
            let sum: f32 = (0..d).map(|k| w[i + k]).sum();
            if d > 0 {
                assert!((sum - 1.0).abs() < 1e-4);
            }
            i += d;
        }
    }
}
