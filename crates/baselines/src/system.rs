//! A uniform system interface so the experiment harness can iterate over
//! TLPGNN and every baseline the same way.

use gpu_sim::{DeviceConfig, OpProfile};
use tlpgnn::{GnnModel, TlpgnnEngine};
use tlpgnn_graph::Csr;
use tlpgnn_tensor::Matrix;

use crate::advisor::AdvisorSystem;
use crate::dgl::DglSystem;
use crate::edge_centric::EdgeCentricSystem;
use crate::featgraph::FeatGraphSystem;
use crate::push::PushSystem;

/// Output + profile of one system run.
pub struct RunResult {
    /// The aggregated feature matrix.
    pub output: Matrix,
    /// The operation profile.
    pub profile: OpProfile,
}

/// A GNN computation system under evaluation.
pub trait GnnSystem {
    /// Display name (used as a table column).
    fn name(&self) -> &'static str;
    /// Whether the system implements this model.
    fn supports(&self, model: &GnnModel) -> bool;
    /// Run one graph convolution; `None` when unsupported.
    fn run(&mut self, model: &GnnModel, g: &Csr, x: &Matrix) -> Option<RunResult>;
}

/// TLPGNN wrapped as a [`GnnSystem`].
pub struct TlpgnnSystem {
    engine: TlpgnnEngine,
}

impl TlpgnnSystem {
    /// Build on the given device with default engine options.
    pub fn new(cfg: DeviceConfig) -> Self {
        Self {
            engine: TlpgnnEngine::new(cfg, Default::default()),
        }
    }

    /// Build with a hybrid heuristic scaled for down-scaled datasets.
    pub fn with_scaled_heuristic(cfg: DeviceConfig, scale: usize) -> Self {
        let options = tlpgnn::EngineOptions {
            heuristic: tlpgnn::HybridHeuristic::scaled(scale),
            ..Default::default()
        };
        Self {
            engine: TlpgnnEngine::new(cfg, options),
        }
    }
}

impl GnnSystem for TlpgnnSystem {
    fn name(&self) -> &'static str {
        "TLPGNN"
    }
    fn supports(&self, _: &GnnModel) -> bool {
        true
    }
    fn run(&mut self, model: &GnnModel, g: &Csr, x: &Matrix) -> Option<RunResult> {
        let _span = telemetry::span!("system.run", system = "TLPGNN", model = model.name());
        let (output, profile) = self.engine.conv(model, g, x);
        Some(RunResult { output, profile })
    }
}

impl GnnSystem for DglSystem {
    fn name(&self) -> &'static str {
        "DGL"
    }
    fn supports(&self, _: &GnnModel) -> bool {
        true
    }
    fn run(&mut self, model: &GnnModel, g: &Csr, x: &Matrix) -> Option<RunResult> {
        let _span = telemetry::span!("system.run", system = "DGL", model = model.name());
        let (output, profile) = DglSystem::run(self, model, g, x);
        Some(RunResult { output, profile })
    }
}

impl GnnSystem for FeatGraphSystem {
    fn name(&self) -> &'static str {
        "FeatGraph"
    }
    fn supports(&self, _: &GnnModel) -> bool {
        true
    }
    fn run(&mut self, model: &GnnModel, g: &Csr, x: &Matrix) -> Option<RunResult> {
        let _span = telemetry::span!("system.run", system = "FeatGraph", model = model.name());
        let (output, profile) = FeatGraphSystem::run(self, model, g, x);
        Some(RunResult { output, profile })
    }
}

impl GnnSystem for AdvisorSystem {
    fn name(&self) -> &'static str {
        "GNNAdvisor"
    }
    fn supports(&self, model: &GnnModel) -> bool {
        AdvisorSystem::supports(model)
    }
    fn run(&mut self, model: &GnnModel, g: &Csr, x: &Matrix) -> Option<RunResult> {
        let _span = telemetry::span!("system.run", system = "GNNAdvisor", model = model.name());
        let agg = tlpgnn::Aggregator::of_model(model).filter(|_| AdvisorSystem::supports(model))?;
        let (output, profile) = AdvisorSystem::run(self, agg, g, x);
        Some(RunResult { output, profile })
    }
}

impl GnnSystem for PushSystem {
    fn name(&self) -> &'static str {
        "Push"
    }
    fn supports(&self, model: &GnnModel) -> bool {
        PushSystem::aggregator(model).is_some()
    }
    fn run(&mut self, model: &GnnModel, g: &Csr, x: &Matrix) -> Option<RunResult> {
        let _span = telemetry::span!("system.run", system = "Push", model = model.name());
        let agg = PushSystem::aggregator(model)?;
        let (output, profile) = PushSystem::run(self, agg, g, x);
        Some(RunResult { output, profile })
    }
}

impl GnnSystem for EdgeCentricSystem {
    fn name(&self) -> &'static str {
        "Edge-centric"
    }
    fn supports(&self, model: &GnnModel) -> bool {
        EdgeCentricSystem::aggregator(model).is_some()
    }
    fn run(&mut self, model: &GnnModel, g: &Csr, x: &Matrix) -> Option<RunResult> {
        let _span = telemetry::span!("system.run", system = "Edge-centric", model = model.name());
        let agg = EdgeCentricSystem::aggregator(model)?;
        let (output, profile) = EdgeCentricSystem::run(self, agg, g, x);
        Some(RunResult { output, profile })
    }
}

/// Every system under evaluation on the given device, TLPGNN included.
/// The canonical enumeration for harnesses (experiments, the conformance
/// fuzzer) that must cover all backends uniformly.
pub fn all_systems(cfg: DeviceConfig) -> Vec<Box<dyn GnnSystem>> {
    vec![
        Box::new(TlpgnnSystem::new(cfg.clone())),
        Box::new(DglSystem::new(cfg.clone())),
        Box::new(FeatGraphSystem::new(cfg.clone())),
        Box::new(AdvisorSystem::new(cfg.clone())),
        Box::new(PushSystem::new(cfg.clone())),
        Box::new(EdgeCentricSystem::new(cfg)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlpgnn::oracle::conv_reference;
    use tlpgnn_graph::generators;

    #[test]
    fn all_systems_agree_on_gcn() {
        let g = generators::rmat_default(120, 900, 161);
        let x = Matrix::random(120, 32, 1.0, 162);
        let want = conv_reference(&GnnModel::Gcn, &g, &x);
        let cfg = DeviceConfig::test_small();
        let mut systems: Vec<Box<dyn GnnSystem>> = vec![
            Box::new(TlpgnnSystem::new(cfg.clone())),
            Box::new(DglSystem::new(cfg.clone())),
            Box::new(FeatGraphSystem::new(cfg.clone())),
            Box::new(AdvisorSystem::new(cfg.clone())),
            Box::new(PushSystem::new(cfg.clone())),
            Box::new(EdgeCentricSystem::new(cfg)),
        ];
        for sys in &mut systems {
            let r = sys.run(&GnnModel::Gcn, &g, &x).unwrap();
            assert!(
                r.output.max_abs_diff(&want) < 1e-3,
                "{} diverged: {}",
                sys.name(),
                r.output.max_abs_diff(&want)
            );
        }
    }

    #[test]
    fn support_matrix_matches_paper() {
        let cfg = DeviceConfig::test_small();
        let gat = GnnModel::Gat {
            params: tlpgnn::GatParams::random(8, 1),
        };
        assert!(TlpgnnSystem::new(cfg.clone()).supports(&gat));
        assert!(DglSystem::new(cfg.clone()).supports(&gat));
        assert!(FeatGraphSystem::new(cfg.clone()).supports(&gat));
        assert!(!GnnSystem::supports(&AdvisorSystem::new(cfg), &gat));
    }
}
