//! The top-level TLPGNN engine: upload → choose assignment → launch the
//! fused kernel → read back, with profiling.
//!
//! This is the public entry point a downstream user calls; it packages the
//! paper's whole pipeline (two-level parallelism, hybrid workload
//! balancing, kernel fusion, register caching) behind one `conv` call.
//!
//! Both convolution entry points (`try_conv_with`, `conv_with_grid`)
//! are the one private `TlpgnnEngine::run_uploaded` sequence — upload,
//! bind, launch, read back, free, with the fault-path cleanup written
//! once — and differ only in the [`PreparedLaunch`] they hand it.
//! Assignments become launches in [`Assignment::bind`] and models become
//! kernels in [`crate::kernels::fused_kernel`], nowhere else.

use std::borrow::Cow;

use gpu_sim::{Device, DeviceConfig, LaunchConfig, LaunchError, OpProfile};
use tlpgnn_graph::Csr;
use tlpgnn_tensor::Matrix;

use crate::gpu::{GatScoresOnDevice, GraphOnDevice};
use crate::kernels::dense::{try_dense_on_device, Dense};
use crate::kernels::{fused_kernel, fused_regs, PreparedLaunch};
use crate::model::{GnnLayer, GnnModel, Order};
use crate::schedule::{Assignment, BoundLaunch, HybridHeuristic};

/// Host-side dispatch overhead per launch, ms (a thin C++/PyTorch
/// binding; much smaller than a Python framework's per-kernel cost).
const DISPATCH_MS: f64 = 0.02;

/// Tunables of the engine. The defaults are the paper's configuration.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Hybrid workload heuristic (thresholds scale with dataset scale).
    pub heuristic: HybridHeuristic,
    /// Register caching (Section 6); disable only for ablations.
    pub reg_cache: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self {
            heuristic: HybridHeuristic::default(),
            reg_cache: true,
        }
    }
}

/// The TLPGNN execution engine over a simulated device.
pub struct TlpgnnEngine {
    device: Device,
    /// Engine configuration.
    pub options: EngineOptions,
}

impl TlpgnnEngine {
    /// Engine on a V100-like device with default options.
    pub fn v100() -> Self {
        Self::new(DeviceConfig::v100(), EngineOptions::default())
    }

    /// Engine with explicit device and options.
    pub fn new(cfg: DeviceConfig, options: EngineOptions) -> Self {
        Self {
            device: Device::new(cfg),
            options,
        }
    }

    /// The underlying simulated device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Mutable access to the device (buffer management in benchmarks).
    pub fn device_mut(&mut self) -> &mut Device {
        &mut self.device
    }

    /// Pick the workload assignment for a graph per the hybrid heuristic.
    pub fn assignment_for(&self, g: &Csr) -> Assignment {
        self.options
            .heuristic
            .choose(g.num_vertices(), g.avg_degree())
    }

    /// Run one graph convolution, returning the aggregated features and
    /// the operation profile. All of TLPGNN runs in **one kernel launch**.
    pub fn conv(&mut self, model: &GnnModel, g: &Csr, x: &Matrix) -> (Matrix, OpProfile) {
        self.try_conv(model, g, x)
            .unwrap_or_else(|e| panic!("unhandled launch fault: {e}"))
    }

    /// Fallible [`Self::conv`]: surfaces an injected device fault instead
    /// of panicking. On error every buffer the call uploaded has been
    /// freed, and — because the whole convolution is **one** fused kernel
    /// launch that aborts before execution — there is no partial state to
    /// reconcile: the call can simply be retried.
    fn try_conv(
        &mut self,
        model: &GnnModel,
        g: &Csr,
        x: &Matrix,
    ) -> Result<(Matrix, OpProfile), LaunchError> {
        let _span = telemetry::span!(
            "tlpgnn.conv",
            model = model.name(),
            vertices = g.num_vertices(),
            edges = g.num_edges()
        );
        let assignment = self.assignment_for(g);
        self.try_conv_with(model, g, x, assignment, self.options.reg_cache)
    }

    /// The one device sequence behind every convolution: upload the
    /// graph, let `prepare` bind the launch and build the kernel, launch,
    /// read back, free. On an injected fault every buffer the call
    /// allocated (graph, features, GAT scores, software cursor) is freed
    /// before the error is returned, leaving device memory exactly as
    /// before the call.
    fn run_uploaded(
        &mut self,
        op_name: String,
        g: &Csr,
        x: &Matrix,
        prepare: impl FnOnce(&mut Device, GraphOnDevice) -> PreparedLaunch,
    ) -> Result<(Matrix, OpProfile), LaunchError> {
        let gd = {
            let _span = telemetry::span!("upload");
            GraphOnDevice::upload(&mut self.device, g, x)
        };
        let PreparedLaunch {
            kernel,
            bound,
            scores,
        } = prepare(&mut self.device, gd);
        let launched = {
            let _span = telemetry::span!("kernel", name = kernel.name());
            self.device.try_launch(kernel.as_ref(), bound.lc)
        };
        if let Some(scores) = scores {
            scores.free(&mut self.device);
        }
        let result = launched.map(|profile| {
            let mut op = OpProfile::new(op_name);
            op.add(&profile);
            op.add_framework_overhead_ms(DISPATCH_MS);
            op.peak_mem_bytes = self.device.mem().peak_bytes();
            let _span = telemetry::span!("readback");
            (gd.read_output(&self.device), op)
        });
        bound.release(&mut self.device);
        gd.free(&mut self.device);
        result
    }

    /// Run one graph convolution under an explicit assignment and
    /// register-caching setting (used by the Figure 10 ablations).
    pub fn conv_with(
        &mut self,
        model: &GnnModel,
        g: &Csr,
        x: &Matrix,
        assignment: Assignment,
        reg_cache: bool,
    ) -> (Matrix, OpProfile) {
        self.try_conv_with(model, g, x, assignment, reg_cache)
            .unwrap_or_else(|e| panic!("unhandled launch fault: {e}"))
    }

    /// Fallible [`Self::conv_with`]: on an injected fault, frees every
    /// uploaded buffer (graph, features, GAT scores, software cursor) and
    /// returns the error, leaving device memory exactly as before the
    /// call.
    fn try_conv_with(
        &mut self,
        model: &GnnModel,
        g: &Csr,
        x: &Matrix,
        assignment: Assignment,
        reg_cache: bool,
    ) -> Result<(Matrix, OpProfile), LaunchError> {
        let regs = fused_regs(model, reg_cache);
        let op_name = format!("tlpgnn_{}", model.name());
        self.run_uploaded(op_name, g, x, |dev, gd| {
            let bound = assignment.bind(dev, gd.n, regs);
            fused_kernel(model, gd, bound, reg_cache, |params| {
                GatScoresOnDevice::upload(dev, x, params)
            })
        })
    }

    /// Run one full GNN layer on the device, in the order
    /// [`GnnLayer`] decided (project first iff `out_dim < in_dim`). The
    /// dense work is [`DenseLayerKernel`](crate::kernels::dense) launches
    /// around the fused convolution:
    ///
    /// - aggregate first: the convolution on `h`, then
    ///   `act(agg·W + b)` — two launches. GraphSage's self term is a
    ///   second product term of the same launch:
    ///   `act(h·W_self + agg·W_neigh + b)`.
    /// - project first: `z = h·W` (no bias, no ReLU), the convolution on
    ///   `z`, then the epilogue `act(conv(z) + b)`, GraphSage
    ///   `act(h·W_self + conv(z) + b)` — three launches, two when the
    ///   epilogue would do nothing (no self term, an all-zero bias, no
    ///   ReLU).
    ///
    /// Any launch may surface an injected fault; every launch frees its
    /// own buffers, so the layer can be retried whole.
    pub(crate) fn try_layer_forward(
        &mut self,
        layer: &GnnLayer,
        g: &Csr,
        x: &Matrix,
    ) -> Result<(Matrix, OpProfile), LaunchError> {
        let _span = telemetry::span!("tlpgnn.layer_forward", model = layer.model.name());
        let w = layer.linear.weight();
        let self_term = || layer.self_weight.iter().map(|w_self| (x, w_self));
        let (bias, relu) = (layer.linear.bias(), layer.relu);
        let mut launched = Vec::new();
        let mut dense = |dev: &mut Device, launch: &Dense<'_>| {
            try_dense_on_device(dev, launch).map(|(out, p)| {
                launched.push(p);
                out
            })
        };
        let (out, mut op) = match layer.order {
            Order::AggregateFirst => {
                let (agg, op) = self.try_conv(&layer.model, g, x)?;
                let launch = Dense {
                    products: self_term().chain([(&agg, w)]).collect(),
                    addend: None,
                    bias,
                    relu,
                };
                (dense(&mut self.device, &launch)?, op)
            }
            Order::ProjectFirst => {
                let z = dense(&mut self.device, &Dense::product(x, w))?;
                let (agg, op) = self.try_conv(&layer.model, g, &z)?;
                let epilogue = Dense {
                    products: self_term().collect(),
                    addend: Some(&agg),
                    bias,
                    relu,
                };
                if epilogue.is_noop() {
                    (agg, op)
                } else {
                    (dense(&mut self.device, &epilogue)?, op)
                }
            }
        };
        for p in &launched {
            op.add(p);
            op.add_framework_overhead_ms(DISPATCH_MS);
        }
        Ok((out, op))
    }

    /// Run a whole [`crate::model::GnnNetwork`] forward pass with every
    /// kernel on the device: per layer the launches of
    /// [`Self::try_layer_forward`] (two, or three for a narrowing layer
    /// with work after its convolution), then one log-softmax kernel.
    /// The two-layer networks served here narrow only in their last
    /// layer: GCN `16 → 16 → 8` is `2 + 2 + 1` launches (a zero bias and
    /// no final ReLU skip the epilogue), GraphSage `16 → 16 → 8` is
    /// `2 + 3 + 1`.
    pub fn classify_forward(
        &mut self,
        net: &crate::model::GnnNetwork,
        g: &Csr,
        x: &Matrix,
    ) -> (Matrix, OpProfile) {
        self.try_classify_forward(net, g, x)
            .unwrap_or_else(|e| panic!("unhandled launch fault: {e}"))
    }

    /// Fallible [`Self::classify_forward`]. Layer outputs live on the
    /// host between launches (each launch uploads its own inputs and
    /// frees them), so a fault at any launch leaves no device state
    /// behind — the serving layer retries the whole forward pass.
    pub fn try_classify_forward(
        &mut self,
        net: &crate::model::GnnNetwork,
        g: &Csr,
        x: &Matrix,
    ) -> Result<(Matrix, OpProfile), LaunchError> {
        let _span = telemetry::span!("tlpgnn.classify_forward", layers = net.layers.len());
        let mut op = OpProfile::new("tlpgnn_network_forward");
        // Every stage uploads its input from a reference, so the caller's
        // matrix is read in place, never copied.
        let mut h = Cow::Borrowed(x);
        for layer in &net.layers {
            let (out, layer_op) = self.try_layer_forward(layer, g, &h)?;
            op.gpu_time_ms += layer_op.gpu_time_ms;
            op.runtime_ms += layer_op.runtime_ms;
            op.kernel_launches += layer_op.kernel_launches;
            op.load_bytes += layer_op.load_bytes;
            op.store_bytes += layer_op.store_bytes;
            h = Cow::Owned(out);
        }
        let (out, p) = crate::kernels::dense::try_log_softmax_on_device(&mut self.device, &h)?;
        op.add(&p);
        op.add_framework_overhead_ms(DISPATCH_MS);
        Ok((out, op))
    }

    /// Run one graph convolution on an explicit persistent grid
    /// (`grid_blocks × block_threads`), using the software task pool so
    /// any grid size processes the whole graph. This is the knob of the
    /// paper's thread-count scalability study (Figure 11).
    pub fn conv_with_grid(
        &mut self,
        model: &GnnModel,
        g: &Csr,
        x: &Matrix,
        grid_blocks: usize,
        block_threads: usize,
    ) -> (Matrix, OpProfile) {
        let _span = telemetry::span!(
            "tlpgnn.conv_with_grid",
            model = model.name(),
            grid_blocks = grid_blocks,
            block_threads = block_threads
        );
        let op_name = format!("tlpgnn_grid_{}", model.name());
        self.run_uploaded(op_name, g, x, |dev, gd| {
            let lc = LaunchConfig::new(grid_blocks.max(1), block_threads);
            let bound = BoundLaunch::persistent(dev, lc, 8, gd.n);
            fused_kernel(model, gd, bound, true, |params| {
                GatScoresOnDevice::upload(dev, x, params)
            })
        })
        .unwrap_or_else(|e| panic!("unhandled launch fault: {e}"))
    }

    /// Run a "TLP only" convolution: the naive first implementation of
    /// two-level parallelism — warp-per-vertex in maximal 1024-thread
    /// blocks (32 warps each, so a whole block's warp slots are held until
    /// its slowest warp finishes) and no register caching. The first bar
    /// of the Figure 10 ablation.
    pub fn conv_tlp_only(&mut self, model: &GnnModel, g: &Csr, x: &Matrix) -> (Matrix, OpProfile) {
        self.conv_with(
            model,
            g,
            x,
            Assignment::Hardware {
                warps_per_block: 32,
            },
            false,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::conv_reference;
    use tlpgnn_graph::generators;

    fn engine() -> TlpgnnEngine {
        TlpgnnEngine::new(DeviceConfig::test_small(), EngineOptions::default())
    }

    #[test]
    fn conv_all_models_match_oracle() {
        let g = generators::rmat_default(200, 1500, 61);
        let x = Matrix::random(200, 32, 1.0, 62);
        let mut e = engine();
        for model in GnnModel::all_four(32) {
            let (out, op) = e.conv(&model, &g, &x);
            let want = conv_reference(&model, &g, &x);
            assert!(out.max_abs_diff(&want) < 1e-3, "{}", model.name());
            assert_eq!(op.kernel_launches, 1, "fusion means one launch");
            assert!(op.gpu_time_ms > 0.0);
        }
    }

    #[test]
    fn buffers_freed_between_convs() {
        let g = generators::erdos_renyi(100, 500, 63);
        let x = Matrix::random(100, 32, 1.0, 64);
        let mut e = engine();
        let _ = e.conv(&GnnModel::Gcn, &g, &x);
        let after_first = e.device().mem().current_bytes();
        for _ in 0..3 {
            let _ = e.conv(&GnnModel::Gcn, &g, &x);
        }
        assert_eq!(e.device().mem().current_bytes(), after_first);
        assert_eq!(after_first, 0, "all buffers released");
    }

    #[test]
    fn heuristic_picks_software_for_high_degree() {
        let e = engine();
        let g = generators::ring_lattice(100, 60); // avg degree 60 exactly
        assert!(matches!(e.assignment_for(&g), Assignment::Software { .. }));
    }

    #[test]
    fn classify_forward_matches_host_network() {
        let g = generators::rmat_default(120, 900, 79);
        let x = Matrix::random(120, 12, 1.0, 80);
        let net = crate::model::GnnNetwork::two_layer(|_| GnnModel::Gcn, 12, 16, 5, 81);
        let mut e = engine();
        let (got, op) = e.classify_forward(&net, &g, &x);
        let want = net.forward_with(&x, |m, h| conv_reference(m, &g, h));
        assert!(
            got.max_abs_diff(&want) < 1e-3,
            "{}",
            got.max_abs_diff(&want)
        );
        assert_eq!(op.kernel_launches, 2 * 2 + 1);
    }

    #[test]
    fn layer_forward_on_device_matches_host_layer() {
        let g = generators::rmat_default(150, 1000, 71);
        // Narrowing layers project first: projection, conv and epilogue.
        // The others aggregate first: conv and dense.
        for (in_dim, out_dim, launches) in [(16, 12, 3), (12, 16, 2)] {
            let x = Matrix::random(150, in_dim, 1.0, 72);
            for model in GnnModel::all_four(out_dim) {
                let layer = crate::model::GnnLayer::new(model, in_dim, out_dim, 73);
                let mut e = engine();
                let (got, op) = e.try_layer_forward(&layer, &g, &x).unwrap();
                let want = layer.forward_with(&x, |m, feats| conv_reference(m, &g, feats));
                assert!(
                    got.max_abs_diff(&want) < 1e-3,
                    "{}: {}",
                    layer.model.name(),
                    got.max_abs_diff(&want)
                );
                assert_eq!(op.kernel_launches, launches, "{}", layer.model.name());
                assert_eq!(e.device().mem().current_bytes(), 0, "every buffer freed");
            }
        }
    }

    #[test]
    fn conv_with_grid_matches_oracle_for_any_grid() {
        let g = generators::rmat_default(300, 2500, 69);
        let x = Matrix::random(300, 32, 1.0, 70);
        let want = conv_reference(&GnnModel::Gcn, &g, &x);
        let mut e = engine();
        for blocks in [1usize, 3, 16] {
            let (out, p) = e.conv_with_grid(&GnnModel::Gcn, &g, &x, blocks, 512);
            assert!(out.max_abs_diff(&want) < 1e-3, "{blocks} blocks");
            assert_eq!(p.kernel_launches, 1);
        }
        // More blocks never slower (monotone non-increasing, small jitter).
        let t1 = e
            .conv_with_grid(&GnnModel::Gcn, &g, &x, 1, 512)
            .1
            .gpu_time_ms;
        let t16 = e
            .conv_with_grid(&GnnModel::Gcn, &g, &x, 16, 512)
            .1
            .gpu_time_ms;
        assert!(t16 < t1);
    }

    #[test]
    fn software_grid_is_sized_from_the_kernel_it_launches() {
        // The persistent grid fills the device once for the launched
        // kernel's own register budget. The table is spelled out here on
        // purpose: it pins what the kernels declare.
        let cfg = DeviceConfig::v100();
        let g = generators::rmat_default(300, 2400, 91);
        let x = Matrix::random(300, 32, 1.0, 92);
        let mut e = TlpgnnEngine::new(cfg.clone(), EngineOptions::default());
        for model in GnnModel::all_four(32) {
            for reg_cache in [true, false] {
                let regs = match (&model, reg_cache) {
                    (GnnModel::Gat { .. }, true) => 56,
                    (GnnModel::Gat { .. }, false) => 32,
                    (_, true) => 48,
                    (_, false) => 26,
                };
                assert_eq!(fused_regs(&model, reg_cache), regs, "{}", model.name());
                let (out, op) = e.conv_with(&model, &g, &x, Assignment::software(), reg_cache);
                assert_eq!(
                    op.blocks_run,
                    (cfg.num_sms * cfg.resident_blocks(regs, 256)) as u64,
                    "{} reg_cache={reg_cache}",
                    model.name()
                );
                let want = conv_reference(&model, &g, &x);
                assert!(out.max_abs_diff(&want) < 1e-3, "{}", model.name());
            }
        }
        assert_eq!(
            e.device().mem().current_bytes(),
            0,
            "cursor and scores freed"
        );
    }

    #[test]
    fn faulted_forward_frees_buffers_and_retries_clean() {
        use gpu_sim::FaultPlan;
        let g = generators::rmat_default(120, 900, 79);
        let x = Matrix::random(120, 12, 1.0, 80);
        let net = crate::model::GnnNetwork::two_layer(|_| GnnModel::Gcn, 12, 16, 5, 81);
        // High transient rate: a 5-launch forward pass will fault often.
        let cfg = DeviceConfig {
            fault: FaultPlan::transient(5, 0.5),
            ..DeviceConfig::test_small()
        };
        let mut e = TlpgnnEngine::new(cfg, EngineOptions::default());
        let mut faults = 0;
        let out = loop {
            match e.try_classify_forward(&net, &g, &x) {
                Ok((out, _)) => break out,
                Err(gpu_sim::LaunchError::TransientFault { .. }) => {
                    faults += 1;
                    // Every buffer the failed attempt uploaded is freed.
                    assert_eq!(e.device().mem().current_bytes(), 0, "leak after fault");
                    assert!(faults < 200, "seed 5 at rate 0.5 should let a pass through");
                }
                Err(e) => panic!("unexpected {e}"),
            }
        };
        assert!(
            faults > 0,
            "rate 0.5 should fault at least once in 5 launches"
        );
        // The retried result matches a fault-free engine bit for bit:
        // transient faults abort before execution, so nothing accumulates.
        let mut clean = engine();
        let (want, _) = clean.classify_forward(&net, &g, &x);
        assert_eq!(out.data(), want.data());
        assert_eq!(e.device().mem().current_bytes(), 0);
    }

    #[test]
    fn lost_device_surfaces_from_every_entry_point() {
        use gpu_sim::{FaultPlan, LaunchError};
        let g = generators::rmat_default(80, 400, 21);
        let x = Matrix::random(80, 8, 1.0, 22);
        let cfg = DeviceConfig {
            fault: FaultPlan::device_lost_at(0),
            ..DeviceConfig::test_small()
        };
        let mut e = TlpgnnEngine::new(cfg, EngineOptions::default());
        assert!(matches!(
            e.try_conv(&GnnModel::Gcn, &g, &x),
            Err(LaunchError::DeviceLost)
        ));
        let layer = crate::model::GnnLayer::new(GnnModel::Gcn, 8, 4, 23);
        assert!(matches!(
            e.try_layer_forward(&layer, &g, &x),
            Err(LaunchError::DeviceLost)
        ));
        assert!(e.device().is_lost());
        assert_eq!(e.device().mem().current_bytes(), 0);
    }

    #[test]
    fn tlp_only_is_correct_but_slower_on_skewed_graphs() {
        // Heavily skewed graph: static strided assignment suffers.
        let g = generators::rmat_default(2000, 40_000, 67);
        let x = Matrix::random(2000, 32, 1.0, 68);
        let mut e = engine();
        let want = conv_reference(&GnnModel::Gcn, &g, &x);
        let (out_tlp, p_tlp) = e.conv_tlp_only(&GnnModel::Gcn, &g, &x);
        assert!(out_tlp.max_abs_diff(&want) < 1e-3);
        let (out_full, p_full) = e.conv(&GnnModel::Gcn, &g, &x);
        assert!(out_full.max_abs_diff(&want) < 1e-3);
        assert!(
            p_tlp.gpu_time_ms > p_full.gpu_time_ms,
            "tlp-only {} vs full {}",
            p_tlp.gpu_time_ms,
            p_full.gpu_time_ms
        );
    }
}
