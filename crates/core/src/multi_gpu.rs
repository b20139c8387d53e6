//! Multi-GPU execution — the paper's stated future work (Section 1:
//! "our techniques can also be deployed on a multi-GPU setting with the
//! help of graph partition techniques, e.g., METIS").
//!
//! The graph is split into contiguous, edge-balanced vertex ranges (the
//! lightweight METIS stand-in from `tlpgnn_graph::partition`); each
//! simulated device owns one range:
//!
//! 1. **Halo exchange** — every device needs the feature rows of remote
//!    in-neighbors of its vertices. The transfer is costed with an
//!    NVLink-style bandwidth/latency model.
//! 2. **Local convolution** — each device runs the standard fused TLPGNN
//!    kernel over its local subgraph (vertices reindexed; features =
//!    local rows + received halo rows).
//! 3. **Gather** — output rows come back to the host.
//!
//! Devices run their kernels concurrently, so the modelled step time is
//! `max(comm_d + gpu_d)` over devices; the profile also reports total
//! communication volume (which equals the partition's cut size × feature
//! bytes — the quantity a METIS-quality partitioner minimizes).

use gpu_sim::{Device, DeviceConfig};
use tlpgnn_graph::partition::{self, VertexPartition};
use tlpgnn_graph::{Csr, GraphBuilder};
use tlpgnn_tensor::Matrix;

use crate::gpu::{GatScoresOnDevice, GraphOnDevice};
use crate::kernels::{fused_kernel, fused_regs};
use crate::model::GnnModel;
use crate::oracle;
use crate::schedule::HybridHeuristic;

/// Interconnect model for halo transfers.
#[derive(Debug, Clone)]
pub struct Interconnect {
    /// Peer-to-peer bandwidth per link, GB/s (NVLink 2.0 ≈ 25 GB/s per
    /// direction per brick; use an aggregate effective figure).
    pub bandwidth_gbps: f64,
    /// Per-transfer latency, microseconds.
    pub latency_us: f64,
}

impl Default for Interconnect {
    fn default() -> Self {
        Self {
            bandwidth_gbps: 50.0,
            latency_us: 10.0,
        }
    }
}

impl Interconnect {
    /// Modelled time of one transfer of `bytes`, ms: the per-transfer
    /// latency plus the bandwidth term. Zero bytes cost nothing (no
    /// transfer is issued).
    fn transfer_ms(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            0.0
        } else {
            self.latency_us / 1e3 + bytes as f64 / (self.bandwidth_gbps * 1e9) * 1e3
        }
    }

    /// Modelled time of `batches` coalesced transfers moving `bytes` in
    /// total: each batch pays the latency once, the bytes pay the
    /// bandwidth term once. This is the figure the sharded serve tier
    /// charges for one request's halo exchange.
    pub fn batched_transfer_ms(&self, batches: u64, bytes: u64) -> f64 {
        if batches == 0 {
            0.0
        } else {
            batches as f64 * self.latency_us / 1e3
                + bytes as f64 / (self.bandwidth_gbps * 1e9) * 1e3
        }
    }
}

/// Profile of one multi-GPU convolution.
#[derive(Debug, Clone)]
pub struct MultiGpuProfile {
    /// Devices used.
    pub devices: usize,
    /// Modelled end-to-end step time (max over devices of comm + compute).
    pub step_ms: f64,
    /// Per-device GPU compute times.
    pub gpu_ms: Vec<f64>,
    /// Per-device blocks launched (the grid each shard's assignment bound).
    pub blocks_run: Vec<u64>,
    /// Per-device halo-receive volumes, bytes.
    pub halo_bytes: Vec<u64>,
    /// Total communication volume, bytes.
    pub total_comm_bytes: u64,
    /// Cut edges of the partition (remote in-edges).
    pub cut_edges: usize,
}

impl MultiGpuProfile {
    /// Communication time of device `d`, ms.
    fn comm_ms(&self, ic: &Interconnect, d: usize) -> f64 {
        ic.transfer_ms(self.halo_bytes[d])
    }
}

/// One device's slice of the graph, reindexed locally.
struct Shard {
    /// Local subgraph: rows = owned vertices, neighbor ids = local ids
    /// into `owned ++ halo` feature rows.
    local: Csr,
    /// Global ids of owned vertices (a contiguous range).
    owned: std::ops::Range<usize>,
    /// Global ids of halo vertices, in local order after the owned rows.
    halo: Vec<u32>,
}

fn build_shards(g: &Csr, part: &VertexPartition) -> Vec<Shard> {
    (0..part.parts())
        .map(|p| {
            let owned = part.range(p);
            let base = owned.start;
            let n_owned = owned.len();
            // Collect halo: remote in-neighbors, deduplicated, ordered.
            let mut halo: Vec<u32> = Vec::new();
            let mut halo_id = std::collections::HashMap::new();
            let mut edges: Vec<(u32, u32)> = Vec::new();
            for v in owned.clone() {
                for &u in g.neighbors(v) {
                    let lu = if (u as usize) >= owned.start && (u as usize) < owned.end {
                        (u as usize - base) as u32
                    } else {
                        *halo_id.entry(u).or_insert_with(|| {
                            let id = n_owned as u32 + halo.len() as u32;
                            halo.push(u);
                            id
                        })
                    };
                    edges.push((lu, (v - base) as u32));
                }
            }
            let total = n_owned + halo.len();
            let mut b = GraphBuilder::new(total.max(1));
            b.extend(edges);
            Shard {
                local: b.build(),
                owned: owned.clone(),
                halo,
            }
        })
        .collect()
}

/// Multi-device TLPGNN engine. GCN norms and GAT attention scores are
/// computed on the *global* graph and shipped with the halo features.
///
/// ```
/// use tlpgnn::multi_gpu::MultiGpuEngine;
/// use tlpgnn::GnnModel;
/// use tlpgnn_graph::generators;
/// use tlpgnn_tensor::Matrix;
/// let g = generators::rmat_default(400, 3000, 1);
/// let x = Matrix::random(400, 16, 1.0, 2);
/// let engine = MultiGpuEngine::new(gpu_sim::DeviceConfig::test_small());
/// let (out, profile) = engine.conv(&GnnModel::Gcn, &g, &x, 4);
/// assert!(out.max_abs_diff(&tlpgnn::oracle::conv_reference(&GnnModel::Gcn, &g, &x)) < 1e-3);
/// assert_eq!(profile.devices, 4);
/// assert!(profile.total_comm_bytes > 0); // halo rows crossed devices
/// ```
pub struct MultiGpuEngine {
    cfg: DeviceConfig,
    /// Interconnect model.
    pub interconnect: Interconnect,
    /// Workload heuristic applied per shard.
    pub heuristic: HybridHeuristic,
}

impl MultiGpuEngine {
    /// Engine whose devices all use `cfg`.
    pub fn new(cfg: DeviceConfig) -> Self {
        Self {
            cfg,
            interconnect: Interconnect::default(),
            heuristic: HybridHeuristic::default(),
        }
    }

    /// Run one graph convolution over `devices` simulated GPUs.
    /// Returns the (globally ordered) output and the profile.
    pub fn conv(
        &self,
        model: &GnnModel,
        g: &Csr,
        x: &Matrix,
        devices: usize,
    ) -> (Matrix, MultiGpuProfile) {
        let _span = telemetry::span!(
            "multi_gpu.conv",
            model = model.name(),
            devices = devices,
            vertices = g.num_vertices()
        );
        let n = g.num_vertices();
        let f = x.cols();
        let part = partition::edge_balanced_partition(g, devices);
        let shards = build_shards(g, &part);
        let global_norm = oracle::gcn_norm(g);
        let global_deg: Vec<u32> = (0..n).map(|v| g.degree(v) as u32).collect();
        // GAT ships per-vertex attention scores alongside the features
        // (they travel with the halo rows exactly like norms do).
        let gat_scores = match model {
            GnnModel::Gat { params } => Some(oracle::gat_scores(x, params)),
            _ => None,
        };

        let mut out = Matrix::zeros(n, f);
        let mut gpu_ms = Vec::with_capacity(devices);
        let mut blocks_run = Vec::with_capacity(devices);
        let mut halo_bytes = Vec::with_capacity(devices);

        for (shard_idx, shard) in shards.iter().enumerate() {
            let n_owned = shard.owned.len();
            let total = n_owned + shard.halo.len();
            // Assemble local features (owned rows, then halo rows) and the
            // global norms/degrees those rows carry.
            let halo_span = telemetry::span!(
                "halo_assemble",
                shard = shard_idx,
                halo_rows = shard.halo.len()
            );
            let mut feats = Matrix::zeros(total.max(1), f);
            let mut norm = vec![0.0f32; total.max(1)];
            let mut deg = vec![0u32; total.max(1)];
            for (local, global) in shard.owned.clone().enumerate() {
                feats.row_mut(local).copy_from_slice(x.row(global));
                norm[local] = global_norm[global];
                deg[local] = global_deg[global];
            }
            for (k, &u) in shard.halo.iter().enumerate() {
                let local = n_owned + k;
                feats.row_mut(local).copy_from_slice(x.row(u as usize));
                norm[local] = global_norm[u as usize];
                deg[local] = global_deg[u as usize];
            }
            let floats_per_row = f + if gat_scores.is_some() { 2 } else { 0 };
            halo_bytes.push((shard.halo.len() * floats_per_row * 4) as u64);
            drop(halo_span);
            let conv_span = telemetry::span!("local_conv", shard = shard_idx, owned = n_owned);

            // Run the fused kernel on this shard's own device. The local
            // graph's degree/norm arrays must be the GLOBAL ones, so they
            // are overwritten after the upload.
            let mut dev = Device::new(self.cfg.clone());
            let gd = GraphOnDevice::upload(&mut dev, &shard.local, &feats);
            dev.mem().write_slice(gd.norm, &norm);
            dev.mem().write_slice(gd.degree, &deg);
            // Launch on the owned rows only: halo vertices have rows in
            // the local CSR and feed their neighbors, but their outputs
            // belong to other devices. (The output buffer still spans
            // all local rows; we read the owned prefix.)
            let assignment = self.heuristic.choose(n_owned, shard.local.avg_degree());
            let bound = assignment.bind(&mut dev, n_owned, fused_regs(model, true));
            let launch = fused_kernel(model, gd, bound, true, |params| {
                let (gal, gar) = gat_scores.as_ref().expect("scores computed above");
                let mut al = vec![0.0f32; total.max(1)];
                let mut ar = vec![0.0f32; total.max(1)];
                for (local, global) in shard.owned.clone().enumerate() {
                    al[local] = gal[global];
                    ar[local] = gar[global];
                }
                for (k, &u) in shard.halo.iter().enumerate() {
                    al[n_owned + k] = gal[u as usize];
                    ar[n_owned + k] = gar[u as usize];
                }
                let mem = dev.mem_mut();
                GatScoresOnDevice {
                    al: mem.alloc_from(&al),
                    ar: mem.alloc_from(&ar),
                    slope: params.slope,
                }
            });
            // The device is dropped with the shard: nothing to free.
            let p = dev.launch(launch.kernel.as_ref(), launch.bound.lc);
            gpu_ms.push(p.gpu_time_ms);
            blocks_run.push(p.blocks_run);
            drop(conv_span);

            let _gather_span = telemetry::span!("gather", shard = shard_idx);
            let local_out = dev.mem().read_vec(gd.output);
            for (local, global) in shard.owned.clone().enumerate() {
                out.row_mut(global)
                    .copy_from_slice(&local_out[local * f..(local + 1) * f]);
            }
        }

        let cut = partition::cut_edges(g, &part);
        let total_comm: u64 = halo_bytes.iter().sum();
        let ic = &self.interconnect;
        let profile = MultiGpuProfile {
            devices,
            step_ms: 0.0,
            gpu_ms: gpu_ms.clone(),
            blocks_run,
            halo_bytes: halo_bytes.clone(),
            total_comm_bytes: total_comm,
            cut_edges: cut,
        };
        let step_ms = (0..devices)
            .map(|d| profile.comm_ms(ic, d) + gpu_ms[d])
            .fold(0.0f64, f64::max);
        let profile = MultiGpuProfile { step_ms, ..profile };
        (out, profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::conv_reference;
    use tlpgnn_graph::generators;

    fn cfg() -> DeviceConfig {
        DeviceConfig::test_small()
    }

    #[test]
    fn multi_gpu_matches_single_oracle() {
        let g = generators::rmat_default(300, 2400, 191);
        let x = Matrix::random(300, 32, 1.0, 192);
        let e = MultiGpuEngine::new(cfg());
        let gat = GnnModel::Gat {
            params: crate::model::GatParams::random(32, 199),
        };
        for model in [
            GnnModel::Gcn,
            GnnModel::Gin { eps: 0.2 },
            GnnModel::Sage,
            gat,
        ] {
            let want = conv_reference(&model, &g, &x);
            for devices in [1usize, 2, 4] {
                let (got, prof) = e.conv(&model, &g, &x, devices);
                assert!(
                    got.max_abs_diff(&want) < 1e-3,
                    "{} on {devices} devices: {}",
                    model.name(),
                    got.max_abs_diff(&want)
                );
                assert_eq!(prof.devices, devices);
            }
        }
    }

    #[test]
    fn software_gat_grid_uses_the_gat_kernels_registers() {
        // With the heuristic forced to software, every shard launches a
        // persistent grid sized for the kernel it runs: GAT declares 56
        // registers (4 resident 256-thread blocks per V100 SM), the sum
        // kernels 48 (5 blocks).
        let cfg = DeviceConfig::v100();
        let g = generators::rmat_default(300, 2400, 191);
        let x = Matrix::random(300, 32, 1.0, 192);
        let mut e = MultiGpuEngine::new(cfg.clone());
        e.heuristic.degree_threshold = 0.0;
        let gat = GnnModel::Gat {
            params: crate::model::GatParams::random(32, 199),
        };
        for (model, regs) in [(gat, 56), (GnnModel::Gcn, 48)] {
            let (got, prof) = e.conv(&model, &g, &x, 2);
            let want = (cfg.num_sms * cfg.resident_blocks(regs, 256)) as u64;
            assert_eq!(prof.blocks_run, vec![want; 2], "{}", model.name());
            assert!(got.max_abs_diff(&conv_reference(&model, &g, &x)) < 1e-3);
        }
        assert_ne!(cfg.resident_blocks(56, 256), cfg.resident_blocks(48, 256));
    }

    #[test]
    fn single_device_has_no_communication() {
        let g = generators::erdos_renyi(200, 1200, 193);
        let x = Matrix::random(200, 16, 1.0, 194);
        let e = MultiGpuEngine::new(cfg());
        let (_, prof) = e.conv(&GnnModel::Gcn, &g, &x, 1);
        assert_eq!(prof.total_comm_bytes, 0);
        assert_eq!(prof.cut_edges, 0);
    }

    #[test]
    fn comm_volume_equals_halo_rows() {
        let g = generators::rmat_default(200, 1600, 195);
        let x = Matrix::random(200, 32, 1.0, 196);
        let e = MultiGpuEngine::new(cfg());
        let (_, prof) = e.conv(&GnnModel::Gin { eps: 0.0 }, &g, &x, 4);
        // Halo rows are deduplicated per device, so volume <= cut edges
        // and > 0 for a connected-ish random graph.
        assert!(prof.total_comm_bytes > 0);
        assert!(prof.total_comm_bytes <= prof.cut_edges as u64 * 32 * 4);
    }

    #[test]
    fn more_devices_reduce_compute_time() {
        let g = generators::rmat_default(4000, 48_000, 197);
        let x = Matrix::random(4000, 32, 1.0, 198);
        let e = MultiGpuEngine::new(cfg());
        let (_, p1) = e.conv(&GnnModel::Gcn, &g, &x, 1);
        let (_, p4) = e.conv(&GnnModel::Gcn, &g, &x, 4);
        let max1 = p1.gpu_ms.iter().cloned().fold(0.0, f64::max);
        let max4 = p4.gpu_ms.iter().cloned().fold(0.0, f64::max);
        assert!(
            max4 < max1 * 0.6,
            "4-device compute {max4} should be well below 1-device {max1}"
        );
    }
}
