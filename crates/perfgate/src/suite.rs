//! Pinned bench-suite definitions and the deterministic runner.
//!
//! Everything that shapes the numbers — device geometry, graph
//! generators and seeds, feature seed and width, the workload matrix —
//! is pinned here and folded into the suite's config fingerprint, so a
//! baseline is only ever compared against a run of the *same* suite.
//! Cost-model constants are deliberately **not** part of the fingerprint:
//! changing them is exactly the kind of performance-relevant edit the
//! gate exists to catch and attribute, not to silently invalidate.

use gpu_sim::{Device, DeviceConfig, Kernel, KernelProfile};
use tlpgnn::kernels::fused::FusedConvKernel;
use tlpgnn::{Aggregator, Assignment, GraphOnDevice, KernelVariant, WorkSource};
use tlpgnn_graph::{generators, Csr};
use tlpgnn_tensor::Matrix;

use crate::snapshot::{Snapshot, WorkloadResult, SCHEMA};

/// Seed for the deterministic feature matrices.
pub(crate) const FEAT_SEED: u64 = 0x7e9f_6a7e;

/// Which kernel a workload launches.
#[derive(Debug, Clone)]
pub(crate) enum KernelSpec {
    /// The fused TLPGNN kernel: hardware assignment, register caching.
    Fused,
    /// One of the design-space variants (thread-per-vertex, sub-warp, …).
    Variant(KernelVariant),
}

impl KernelSpec {
    /// Stable label used in workload ids.
    pub(crate) fn label(&self) -> String {
        match self {
            KernelSpec::Fused => "fused".into(),
            KernelSpec::Variant(v) => v.label(),
        }
    }
}

/// A seeded synthetic dataset generator.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DatasetSpec {
    /// R-MAT graph: skewed, power-law-ish degree distribution.
    PowerLaw {
        /// Vertices.
        n: usize,
        /// Edges.
        m: usize,
        /// Generator seed.
        seed: u64,
    },
    /// Erdős–Rényi graph: near-uniform degrees.
    Uniform {
        /// Vertices.
        n: usize,
        /// Edges.
        m: usize,
        /// Generator seed.
        seed: u64,
    },
}

impl DatasetSpec {
    /// Stable label used in workload ids.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            DatasetSpec::PowerLaw { .. } => "power_law",
            DatasetSpec::Uniform { .. } => "uniform",
        }
    }

    /// Generate the graph (same seed, same graph, every time).
    pub(crate) fn build(&self) -> Csr {
        match *self {
            DatasetSpec::PowerLaw { n, m, seed } => generators::rmat_default(n, m, seed),
            DatasetSpec::Uniform { n, m, seed } => generators::erdos_renyi(n, m, seed),
        }
    }

    fn describe(&self) -> String {
        match *self {
            DatasetSpec::PowerLaw { n, m, seed } => format!("power_law(n={n},m={m},seed={seed})"),
            DatasetSpec::Uniform { n, m, seed } => format!("uniform(n={n},m={m},seed={seed})"),
        }
    }
}

/// One cell of the bench matrix.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Kernel under test.
    pub(crate) kernel: KernelSpec,
    /// Aggregation model (GCN / GIN / Sage).
    pub(crate) agg: Aggregator,
    /// Input graph generator.
    pub(crate) dataset: DatasetSpec,
}

impl Workload {
    /// `kernel/model/dataset`, the key workloads are diffed under.
    pub fn id(&self) -> String {
        format!(
            "{}/{}/{}",
            self.kernel.label(),
            self.agg.name(),
            self.dataset.label()
        )
    }

    fn describe(&self) -> String {
        let agg = match self.agg {
            Aggregator::GcnSum => "gcn".to_string(),
            Aggregator::GinSum { eps } => format!("gin(eps={eps})"),
            Aggregator::SageMean => "sage".to_string(),
        };
        format!("{}/{agg}/{}", self.kernel.label(), self.dataset.describe())
    }
}

/// A pinned bench suite: device + feature width + workload matrix.
#[derive(Debug, Clone)]
pub struct Suite {
    /// Suite name (recorded in the snapshot).
    pub name: &'static str,
    /// The simulated device every workload runs on.
    pub device: DeviceConfig,
    /// Feature width of the random input matrix.
    pub(crate) feat_dim: usize,
    /// The workload matrix.
    pub workloads: Vec<Workload>,
}

/// The pinned gate device: a V100 shrunk 10× (8 SMs, L2 scaled with it),
/// matching how the bench crate scales devices for shrunk datasets so
/// waves-per-SM and bytes-per-L2 stay in the paper's regime. Independent
/// of `TLPGNN_SCALE` and every other env knob: baselines must mean the
/// same thing on every machine.
fn gate_device() -> DeviceConfig {
    let v100 = DeviceConfig::v100();
    DeviceConfig {
        name: "SimV100-gate8".to_string(),
        num_sms: 8,
        l2_bytes: v100.l2_bytes * 8 / 80,
        ..v100
    }
}

fn matrix(kernels: &[KernelSpec], aggs: &[Aggregator], datasets: &[DatasetSpec]) -> Vec<Workload> {
    let mut out = Vec::new();
    for k in kernels {
        for a in aggs {
            for d in datasets {
                out.push(Workload {
                    kernel: k.clone(),
                    agg: *a,
                    dataset: *d,
                });
            }
        }
    }
    out
}

impl Suite {
    /// The full CI suite: 5 kernels × 3 models × 2 graph families.
    pub fn full() -> Self {
        let kernels = [
            KernelSpec::Fused,
            KernelSpec::Variant(KernelVariant::ThreadPerVertex),
            KernelSpec::Variant(KernelVariant::SubWarp {
                lanes_per_vertex: 16,
            }),
            KernelSpec::Variant(KernelVariant::CtaPerVertex),
            KernelSpec::Variant(KernelVariant::EdgeParallelSecond),
        ];
        let aggs = [
            Aggregator::GcnSum,
            Aggregator::GinSum { eps: 0.25 },
            Aggregator::SageMean,
        ];
        let datasets = [
            DatasetSpec::PowerLaw {
                n: 1200,
                m: 7200,
                seed: 0x51ab,
            },
            DatasetSpec::Uniform {
                n: 900,
                m: 5400,
                seed: 0x2e77,
            },
        ];
        Suite {
            name: "full",
            device: gate_device(),
            feat_dim: 32,
            workloads: matrix(&kernels, &aggs, &datasets),
        }
    }

    /// A small suite for tests and quick local runs: 2 kernels ×
    /// 2 models × 2 graph families on smaller graphs.
    pub fn smoke() -> Self {
        let kernels = [
            KernelSpec::Fused,
            KernelSpec::Variant(KernelVariant::ThreadPerVertex),
        ];
        let aggs = [Aggregator::GcnSum, Aggregator::SageMean];
        let datasets = [
            DatasetSpec::PowerLaw {
                n: 600,
                m: 3600,
                seed: 0x51ab,
            },
            DatasetSpec::Uniform {
                n: 400,
                m: 2400,
                seed: 0x2e77,
            },
        ];
        Suite {
            name: "smoke",
            device: gate_device(),
            feat_dim: 32,
            workloads: matrix(&kernels, &aggs, &datasets),
        }
    }

    /// Canonical description of everything that defines the suite's
    /// *configuration* (not its cost model): schema version, device
    /// geometry, feature width and seed, and the full workload matrix
    /// with generator parameters.
    fn describe(&self) -> String {
        let d = &self.device;
        let mut s = format!(
            "schema={SCHEMA};suite={};device={};sms={};warps_per_sm={};l2={};l1={};feat_dim={};feat_seed={FEAT_SEED:#x}",
            self.name, d.name, d.num_sms, d.max_warps_per_sm, d.l2_bytes, d.l1_bytes, self.feat_dim,
        );
        for w in &self.workloads {
            s.push(';');
            s.push_str(&w.describe());
        }
        s
    }

    /// FNV-1a hash of `Self::describe`, hex. Stored in every snapshot;
    /// the gate refuses to diff snapshots with different fingerprints.
    pub fn fingerprint(&self) -> String {
        format!("{:016x}", fnv1a(self.describe().as_bytes()))
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn launch_workload(dev: &mut Device, w: &Workload, g: &Csr, x: &Matrix) -> KernelProfile {
    match &w.kernel {
        KernelSpec::Fused => {
            let gd = GraphOnDevice::upload(dev, g, x);
            let k = FusedConvKernel::new(gd, w.agg, WorkSource::Hardware, true);
            let lc = Assignment::hardware().launch_config(
                g.num_vertices(),
                dev.cfg(),
                k.regs_per_thread(),
            );
            let p = dev.launch(&k, lc);
            gd.free(dev);
            p
        }
        KernelSpec::Variant(v) => v.run(dev, g, x, w.agg).1,
    }
}

/// Run every workload on a fresh device and keep the full
/// [`KernelProfile`] per workload id, in suite order. The roofline
/// attribution layer consumes these directly; [`run`] reduces them to
/// the gate-metric snapshot.
pub fn run_profiled(suite: &Suite) -> Vec<(String, KernelProfile)> {
    let mut out = Vec::with_capacity(suite.workloads.len());
    for w in &suite.workloads {
        let id = w.id();
        let _span = telemetry::span!("perfgate.workload", id = id);
        let g = w.dataset.build();
        let x = Matrix::random(g.num_vertices(), suite.feat_dim, 1.0, FEAT_SEED);
        let mut dev = Device::new(suite.device.clone());
        let p = launch_workload(&mut dev, w, &g, &x);
        out.push((id, p));
    }
    out
}

/// Reduce profiled runs to the snapshot the gate serializes.
///
/// `seq` and `git_sha` are left for the caller to fill in (the runner
/// itself must not read the environment, so that two back-to-back runs
/// are byte-identical).
pub fn snapshot_from(suite: &Suite, runs: &[(String, KernelProfile)]) -> Snapshot {
    let workloads = runs
        .iter()
        .map(|(id, p)| WorkloadResult {
            id: id.clone(),
            limiter: p.limiter.name().to_string(),
            metrics: p
                .gate_metrics()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        })
        .collect();
    Snapshot {
        schema: SCHEMA.to_string(),
        seq: 0,
        git_sha: String::new(),
        suite: suite.name.to_string(),
        config_fingerprint: suite.fingerprint(),
        device: suite.device.name.clone(),
        workloads,
    }
}

/// Run every workload on a fresh device and collect the snapshot.
pub fn run(suite: &Suite) -> Snapshot {
    snapshot_from(suite, &run_profiled(suite))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_tracks_config_not_cost_model() {
        let a = Suite::smoke();
        let mut slow = Suite::smoke();
        slow.device.sector_bw_cycles *= 10.0;
        assert_eq!(a.fingerprint(), slow.fingerprint());
        let mut wider = Suite::smoke();
        wider.feat_dim = 64;
        assert_ne!(a.fingerprint(), wider.fingerprint());
        assert_ne!(a.fingerprint(), Suite::full().fingerprint());
    }

    #[test]
    fn workload_ids_are_unique() {
        for s in [Suite::full(), Suite::smoke()] {
            let mut ids: Vec<String> = s.workloads.iter().map(Workload::id).collect();
            let n = ids.len();
            ids.sort();
            ids.dedup();
            assert_eq!(ids.len(), n, "duplicate workload id in suite {}", s.name);
        }
    }
}
