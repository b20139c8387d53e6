//! Uniform enumeration of every convolution implementation in the
//! workspace, so the fuzzer and the regression replay can drive all of
//! them through one interface.
//!
//! A [`Backend`] covers:
//!
//! * the four design-space kernels via [`KernelVariant`] (two sub-warp
//!   widths, so five entries),
//! * the fused TLPGNN engine in its main configurations (hybrid
//!   assignment, TLP-only, software task pool, register cache off),
//! * the CPU [`NativeEngine`] under both schedules,
//! * every baseline system from [`tlpgnn_baselines::all_systems`].

use gpu_sim::{Device, DeviceConfig, KernelProfile};
use tlpgnn::{
    Aggregator, Assignment, EngineOptions, GnnModel, KernelVariant, NativeEngine, NativeSchedule,
    TlpgnnEngine,
};
use tlpgnn_baselines::all_systems;
use tlpgnn_graph::Csr;
use tlpgnn_tensor::Matrix;

/// What one backend produced for a case.
pub(crate) struct BackendRun {
    /// The aggregated output features.
    pub(crate) output: Matrix,
    /// The raw kernel profile, when the backend exposes one (the variant
    /// kernels do; it feeds the gpu-sim accounting conservation checks).
    pub(crate) kernel_profile: Option<KernelProfile>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Variant(KernelVariant),
    FusedHybrid,
    FusedTlpOnly,
    FusedSoftwarePool,
    FusedNoRegCache,
    NativeStatic,
    NativeTaskPool,
    /// Index into [`all_systems`]'s fixed order.
    System(usize),
}

/// One convolution implementation under conformance test.
pub struct Backend {
    label: String,
    kind: Kind,
    /// Whether outputs are bitwise reproducible across *device shape*
    /// changes (SM count, scheduler layout). True for every atomic-free
    /// path: each vertex's sum is accumulated sequentially by one owner
    /// warp, so block placement cannot reorder it. False for the
    /// atomic-add systems (GNNAdvisor, Push, Edge-centric), where hardware
    /// would commit colliding adds in a placement-dependent order.
    pub(crate) deterministic_across_devices: bool,
}

impl Backend {
    /// The backend's stable label (used in corpus files).
    pub(crate) fn label(&self) -> &str {
        &self.label
    }

    /// All backends, in a fixed order.
    pub(crate) fn all() -> Vec<Backend> {
        let mut out = Vec::new();
        for v in KernelVariant::all() {
            out.push(Backend {
                label: v.label(),
                kind: Kind::Variant(v),
                deterministic_across_devices: true,
            });
        }
        for (label, kind) in [
            ("fused_hybrid", Kind::FusedHybrid),
            ("fused_tlp_only", Kind::FusedTlpOnly),
            ("fused_software_pool", Kind::FusedSoftwarePool),
            ("fused_no_reg_cache", Kind::FusedNoRegCache),
            ("native_static", Kind::NativeStatic),
            ("native_task_pool", Kind::NativeTaskPool),
        ] {
            out.push(Backend {
                label: label.into(),
                kind,
                deterministic_across_devices: true,
            });
        }
        for (i, sys) in all_systems(DeviceConfig::test_small()).iter().enumerate() {
            let slug: String = sys
                .name()
                .chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() {
                        c.to_ascii_lowercase()
                    } else {
                        '_'
                    }
                })
                .collect();
            out.push(Backend {
                label: format!("sys_{slug}"),
                kind: Kind::System(i),
                // GNNAdvisor, Push and Edge-centric combine with atomic
                // float adds.
                deterministic_across_devices: !matches!(
                    sys.name(),
                    "GNNAdvisor" | "Push" | "Edge-centric"
                ),
            });
        }
        out
    }

    /// Look a backend up by its `label`.
    pub fn by_label(label: &str) -> Option<Backend> {
        Self::all().into_iter().find(|b| b.label == label)
    }

    /// Whether the backend implements the model. (The conformance domain
    /// is the sum family; GAT has its own dedicated kernels and tests.)
    pub(crate) fn supports(&self, model: &GnnModel) -> bool {
        match (&self.kind, model) {
            (_, GnnModel::Gat { .. }) => false,
            // GNNAdvisor's reordering pipeline handles GCN and GIN only.
            (Kind::System(3), m) => matches!(m, GnnModel::Gcn | GnnModel::Gin { .. }),
            _ => true,
        }
    }

    /// Run one convolution on a fresh device. Returns `None` when the
    /// model is unsupported.
    pub(crate) fn run(
        &self,
        cfg: &DeviceConfig,
        model: &GnnModel,
        g: &Csr,
        x: &Matrix,
    ) -> Option<BackendRun> {
        if !self.supports(model) {
            return None;
        }
        let agg = Aggregator::of_model(model);
        match self.kind {
            Kind::Variant(v) => {
                let mut dev = Device::new(cfg.clone());
                let (output, profile) = v.run(&mut dev, g, x, agg?);
                Some(BackendRun {
                    output,
                    kernel_profile: Some(profile),
                })
            }
            Kind::FusedHybrid => {
                let mut eng = TlpgnnEngine::new(cfg.clone(), EngineOptions::default());
                let (output, _) = eng.conv(model, g, x);
                Some(BackendRun {
                    output,
                    kernel_profile: None,
                })
            }
            Kind::FusedTlpOnly => {
                let mut eng = TlpgnnEngine::new(cfg.clone(), EngineOptions::default());
                let (output, _) = eng.conv_tlp_only(model, g, x);
                Some(BackendRun {
                    output,
                    kernel_profile: None,
                })
            }
            Kind::FusedSoftwarePool => {
                let mut eng = TlpgnnEngine::new(cfg.clone(), EngineOptions::default());
                let (output, _) = eng.conv_with(model, g, x, Assignment::software(), true);
                Some(BackendRun {
                    output,
                    kernel_profile: None,
                })
            }
            Kind::FusedNoRegCache => {
                let mut eng = TlpgnnEngine::new(cfg.clone(), EngineOptions::default());
                let (output, _) = eng.conv_with(model, g, x, Assignment::hardware(), false);
                Some(BackendRun {
                    output,
                    kernel_profile: None,
                })
            }
            Kind::NativeStatic => {
                let eng = NativeEngine {
                    schedule: NativeSchedule::Static,
                    threads: 1,
                };
                Some(BackendRun {
                    output: eng.conv(model, g, x),
                    kernel_profile: None,
                })
            }
            Kind::NativeTaskPool => {
                let eng = NativeEngine {
                    schedule: NativeSchedule::TaskPool { step: 16 },
                    threads: 1,
                };
                Some(BackendRun {
                    output: eng.conv(model, g, x),
                    kernel_profile: None,
                })
            }
            Kind::System(i) => {
                let mut systems = all_systems(cfg.clone());
                let r = systems[i].run(model, g, x)?;
                Some(BackendRun {
                    output: r.output,
                    kernel_profile: None,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique_and_resolvable() {
        let backends = Backend::all();
        assert!(
            backends.len() >= 16,
            "expected full backend matrix, got {}",
            backends.len()
        );
        for b in &backends {
            let again = Backend::by_label(b.label()).expect("label resolves");
            assert_eq!(
                again.deterministic_across_devices,
                b.deterministic_across_devices
            );
        }
        let mut labels: Vec<_> = backends.iter().map(|b| b.label().to_string()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), backends.len(), "duplicate backend labels");
    }

    #[test]
    fn advisor_slot_matches_label() {
        // `supports` special-cases system index 3; pin that to GNNAdvisor
        // so a reorder of `all_systems` cannot silently misroute it.
        let backends = Backend::all();
        let advisor = backends
            .iter()
            .find(|b| b.label() == "sys_gnnadvisor")
            .unwrap();
        assert_eq!(advisor.kind, Kind::System(3));
        assert!(!advisor.supports(&GnnModel::Sage));
        assert!(advisor.supports(&GnnModel::Gcn));
    }

    #[test]
    fn atomic_systems_flagged_nondeterministic() {
        for b in Backend::all() {
            let expect = !matches!(
                b.label(),
                "sys_gnnadvisor" | "sys_push" | "sys_edge_centric"
            );
            assert_eq!(
                b.deterministic_across_devices,
                expect,
                "{} determinism flag",
                b.label()
            );
        }
    }
}
