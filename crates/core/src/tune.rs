//! Workload-assignment autotuner.
//!
//! The paper's Section 5 leaves two tunables open: the warps-per-block of
//! the hardware assignment ("fewer warps mean a more balanced workload
//! but higher hardware scheduling overhead") and the `step` of the
//! software task pool. The hybrid heuristic picks a *strategy*; this
//! module exhaustively measures the configurations on the actual
//! workload and returns the best, the way a deployment would calibrate
//! once per graph.

use tlpgnn_graph::Csr;
use tlpgnn_tensor::Matrix;

use crate::engine::TlpgnnEngine;
use crate::model::GnnModel;
use crate::schedule::Assignment;

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct TunePoint {
    /// The configuration.
    pub(crate) assignment: Assignment,
    /// Measured (modelled) GPU time, ms.
    pub gpu_ms: f64,
}

/// Result of a tuning sweep.
#[derive(Debug, Clone)]
pub struct TuneReport {
    /// Every configuration measured, in sweep order.
    pub points: Vec<TunePoint>,
    /// Index of the fastest point.
    pub best: usize,
    /// What the paper's static heuristic would have picked.
    pub heuristic_choice: Assignment,
    /// Slowdown of the heuristic's choice relative to the tuned best
    /// (1.0 = the heuristic was optimal).
    pub heuristic_gap: f64,
}

impl TuneReport {
    /// The fastest configuration.
    pub fn best_assignment(&self) -> Assignment {
        self.points[self.best].assignment
    }
}

/// Candidate warps-per-block values for the hardware assignment.
pub const WPB_CANDIDATES: &[usize] = &[1, 2, 4, 8, 16, 32];
/// Candidate chunk sizes for the software task pool.
pub const STEP_CANDIDATES: &[u32] = &[1, 2, 4, 8, 16, 64];

/// Measure every candidate configuration of both strategies for `model`
/// on `(g, x)` and return the report. The engine's device is reused, so
/// cache state is comparable across points.
///
/// ```
/// use tlpgnn::{tune, GnnModel, TlpgnnEngine};
/// use tlpgnn_graph::generators;
/// use tlpgnn_tensor::Matrix;
/// let g = generators::rmat_default(300, 2000, 1);
/// let x = Matrix::random(300, 32, 1.0, 2);
/// let mut engine = TlpgnnEngine::new(gpu_sim::DeviceConfig::test_small(), Default::default());
/// let report = tune::autotune(&mut engine, &GnnModel::Gcn, &g, &x);
/// assert!(report.heuristic_gap >= 1.0); // the tuned best is never worse
/// ```
pub fn autotune(engine: &mut TlpgnnEngine, model: &GnnModel, g: &Csr, x: &Matrix) -> TuneReport {
    let mut points = Vec::new();
    for &wpb in WPB_CANDIDATES {
        let a = Assignment::Hardware {
            warps_per_block: wpb,
        };
        let (_, p) = engine.conv_with(model, g, x, a, true);
        points.push(TunePoint {
            assignment: a,
            gpu_ms: p.gpu_time_ms,
        });
    }
    for &step in STEP_CANDIDATES {
        let a = Assignment::Software {
            step,
            warps_per_block: 8,
        };
        let (_, p) = engine.conv_with(model, g, x, a, true);
        points.push(TunePoint {
            assignment: a,
            gpu_ms: p.gpu_time_ms,
        });
    }
    let best = points
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.gpu_ms.partial_cmp(&b.1.gpu_ms).unwrap())
        .map(|(i, _)| i)
        .unwrap();
    let heuristic_choice = engine
        .options
        .heuristic
        .choose(g.num_vertices(), g.avg_degree());
    let heuristic_ms = points
        .iter()
        .filter(|p| {
            std::mem::discriminant(&p.assignment) == std::mem::discriminant(&heuristic_choice)
        })
        .map(|p| p.gpu_ms)
        .fold(f64::INFINITY, f64::min);
    TuneReport {
        heuristic_gap: heuristic_ms / points[best].gpu_ms,
        points,
        best,
        heuristic_choice,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineOptions;
    use gpu_sim::DeviceConfig;
    use tlpgnn_graph::generators;

    #[test]
    fn sweep_covers_both_strategies() {
        let g = generators::rmat_default(400, 3000, 211);
        let x = Matrix::random(400, 32, 1.0, 212);
        let mut e = TlpgnnEngine::new(DeviceConfig::test_small(), EngineOptions::default());
        let report = autotune(&mut e, &GnnModel::Gcn, &g, &x);
        assert_eq!(
            report.points.len(),
            WPB_CANDIDATES.len() + STEP_CANDIDATES.len()
        );
        assert!(report
            .points
            .iter()
            .any(|p| matches!(p.assignment, Assignment::Hardware { .. })));
        assert!(report
            .points
            .iter()
            .any(|p| matches!(p.assignment, Assignment::Software { .. })));
        assert!(report.points.iter().all(|p| p.gpu_ms > 0.0));
    }

    #[test]
    fn best_is_actually_minimal_and_gap_at_least_one() {
        let g = generators::rmat_default(300, 2400, 213);
        let x = Matrix::random(300, 32, 1.0, 214);
        let mut e = TlpgnnEngine::new(DeviceConfig::test_small(), EngineOptions::default());
        let report = autotune(&mut e, &GnnModel::Gin { eps: 0.0 }, &g, &x);
        let best_ms = report.points[report.best].gpu_ms;
        assert!(report.points.iter().all(|p| p.gpu_ms >= best_ms));
        assert!(report.heuristic_gap >= 1.0 - 1e-9);
    }
}
