//! Deterministic fault injection for the simulated device.
//!
//! A [`FaultPlan`] is part of [`DeviceConfig`](crate::DeviceConfig): a
//! seeded schedule of hardware faults a device injects into its own
//! launches. Three fault classes cover the failure modes a serving stack
//! must survive:
//!
//! * **Transient launch failure** — one launch aborts before executing
//!   (`Xid`-style sticky-but-recoverable error). Because TLPGNN fuses a
//!   whole layer into one kernel, a failed launch leaves *no* partial
//!   multi-kernel state: device memory is untouched and the launch can be
//!   retried whole.
//! * **Permanent device loss** — from one launch index on, every launch
//!   (including retries) fails with [`LaunchError::DeviceLost`]. Models a
//!   fallen-off-the-bus GPU; recovery requires a fresh device.
//! * **Straggler** — the launch completes correctly but its modelled GPU
//!   time is multiplied by a configurable factor (thermal throttling, a
//!   noisy neighbor on shared hardware).
//!
//! Injection is a pure function of `(seed, launch index)` — no wall
//! clock, no OS randomness — so a faulty run is exactly reproducible:
//! the same seed yields the same fault schedule on every machine, which
//! is what lets the serving stack's chaos tests assert SLO invariants
//! deterministically.
//! With [`FaultPlan::none`] (the default) the fault path is a single
//! branch per launch and profiles are bitwise identical to a build
//! without the fault layer.

use std::fmt;

/// Seeded, deterministic fault schedule for one simulated device.
///
/// The plan is consulted once per launch *attempt* (attempts are counted
/// separately from successful launches, so a retried launch rolls new
/// faults). Decisions derive from `splitmix64(seed, attempt_index)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-launch fault draws.
    pub seed: u64,
    /// Probability in `[0, 1]` that a launch attempt fails transiently.
    pub transient_rate: f64,
    /// Probability in `[0, 1]` that a launch runs as a straggler.
    /// Evaluated only when the transient draw passes.
    pub straggler_rate: f64,
    /// GPU-cycle multiplier applied to straggler launches (>= 1).
    pub straggler_factor: f64,
    /// Launch-attempt index (0-based) at which the device is permanently
    /// lost. `None` means the device never dies.
    pub lost_at_launch: Option<u64>,
}

impl FaultPlan {
    /// The empty plan: no faults, ever. This is the default; the launch
    /// path detects it and skips fault bookkeeping entirely, so profiles
    /// are bitwise identical to a fault-free build.
    pub fn none() -> Self {
        Self {
            seed: 0,
            transient_rate: 0.0,
            straggler_rate: 0.0,
            straggler_factor: 1.0,
            lost_at_launch: None,
        }
    }

    /// Whether this plan can never fire (the fast-path check).
    pub fn is_none(&self) -> bool {
        self.transient_rate <= 0.0 && self.straggler_rate <= 0.0 && self.lost_at_launch.is_none()
    }

    /// A transient-fault plan: each launch attempt independently fails
    /// with probability `rate`.
    pub fn transient(seed: u64, rate: f64) -> Self {
        Self {
            seed,
            transient_rate: rate,
            ..Self::none()
        }
    }

    /// A straggler plan: each launch independently runs `factor`× slower
    /// with probability `rate`.
    pub fn straggler(seed: u64, rate: f64, factor: f64) -> Self {
        Self {
            seed,
            straggler_rate: rate,
            straggler_factor: factor.max(1.0),
            ..Self::none()
        }
    }

    /// A permanent-loss plan: the device dies at launch attempt `at`.
    pub fn device_lost_at(at: u64) -> Self {
        Self {
            lost_at_launch: Some(at),
            ..Self::none()
        }
    }

    /// Derive a plan with a different seed stream (e.g. one per worker
    /// in a pool) while keeping the same rates.
    pub fn with_salt(&self, salt: u64) -> Self {
        Self {
            seed: splitmix64(self.seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            ..self.clone()
        }
    }

    /// The fault (if any) this plan injects into launch attempt `idx`.
    /// Pure: same `(plan, idx)`, same answer, every time.
    pub fn decide(&self, idx: u64) -> Option<FaultKind> {
        if self.lost_at_launch.is_some_and(|at| idx >= at) {
            return Some(FaultKind::DeviceLost);
        }
        if self.transient_rate > 0.0 || self.straggler_rate > 0.0 {
            let h = splitmix64(self.seed ^ idx.wrapping_mul(0xd134_2543_de82_ef95));
            let u = (h >> 11) as f64 / (1u64 << 53) as f64;
            if u < self.transient_rate {
                return Some(FaultKind::Transient);
            }
            if u < self.transient_rate + self.straggler_rate {
                return Some(FaultKind::Straggler {
                    factor: self.straggler_factor.max(1.0),
                });
            }
        }
        None
    }

    /// The fault schedule for the first `n` launch attempts — the
    /// deterministic "event log" a chaos harness can compare across runs
    /// without depending on execution timing.
    pub fn schedule(&self, n: u64) -> Vec<(u64, FaultKind)> {
        (0..n)
            .filter_map(|i| self.decide(i).map(|k| (i, k)))
            .collect()
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The kind of fault injected into one launch attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The launch aborted before executing; retrying may succeed.
    Transient,
    /// The device is gone; every launch from here on fails.
    DeviceLost,
    /// The launch completed but ran `factor`× slower.
    Straggler {
        /// GPU-cycle multiplier (>= 1).
        factor: f64,
    },
}

impl FaultKind {
    /// Stable label used in logs and telemetry counter names.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Transient => "transient",
            FaultKind::DeviceLost => "device_lost",
            FaultKind::Straggler { .. } => "straggler",
        }
    }
}

/// One injected fault, as recorded in the device's fault log (and, for
/// stragglers, on the launch's [`KernelProfile`](crate::KernelProfile)).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Launch-attempt index the fault fired at (0-based, per device).
    pub launch: u64,
    /// What was injected.
    pub kind: FaultKind,
    /// Name of the kernel whose launch was hit.
    pub kernel: String,
    /// Causal trace id of the request whose launch triggered the fault
    /// (read from [`telemetry::trace::current`] at injection time); 0
    /// when the launch was not driven by a traced request.
    pub trace: u64,
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            FaultKind::Straggler { factor } => {
                write!(
                    f,
                    "launch {} `{}`: straggler x{factor}",
                    self.launch, self.kernel
                )
            }
            ref k => write!(f, "launch {} `{}`: {}", self.launch, self.kernel, k.label()),
        }
    }
}

/// Why a fallible launch ([`Device::try_launch`](crate::Device::try_launch))
/// failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunchError {
    /// The launch aborted before executing (injected transient fault).
    /// Device memory is untouched; the launch can be retried whole.
    TransientFault {
        /// Launch-attempt index that faulted.
        launch: u64,
    },
    /// The device is permanently lost; no launch on it can ever succeed
    /// again. Recover by recreating the device (fresh [`Device`](crate::Device)).
    DeviceLost,
}

impl fmt::Display for LaunchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaunchError::TransientFault { launch } => {
                write!(f, "transient launch fault at launch attempt {launch}")
            }
            LaunchError::DeviceLost => write!(f, "device permanently lost"),
        }
    }
}

impl std::error::Error for LaunchError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_fires() {
        let p = FaultPlan::none();
        assert!(p.is_none());
        for i in 0..10_000 {
            assert_eq!(p.decide(i), None);
        }
        assert!(p.schedule(1000).is_empty());
    }

    #[test]
    fn decide_is_pure_and_seed_dependent() {
        let a = FaultPlan::transient(7, 0.3);
        let b = FaultPlan::transient(7, 0.3);
        let c = FaultPlan::transient(8, 0.3);
        assert_eq!(a.schedule(500), b.schedule(500));
        assert_ne!(a.schedule(500), c.schedule(500));
    }

    #[test]
    fn transient_rate_roughly_respected() {
        let p = FaultPlan::transient(42, 0.25);
        let n = 20_000;
        let fired = p.schedule(n).len() as f64 / n as f64;
        assert!((fired - 0.25).abs() < 0.02, "observed rate {fired}");
    }

    #[test]
    fn device_loss_is_permanent() {
        let p = FaultPlan::device_lost_at(5);
        assert_eq!(p.decide(4), None);
        assert_eq!(p.decide(5), Some(FaultKind::DeviceLost));
        assert_eq!(p.decide(6), Some(FaultKind::DeviceLost));
        assert_eq!(p.decide(u64::MAX), Some(FaultKind::DeviceLost));
    }

    #[test]
    fn straggler_carries_factor_and_floors_at_one() {
        let p = FaultPlan::straggler(3, 1.0, 0.5); // silly factor, floored
        match p.decide(0) {
            Some(FaultKind::Straggler { factor }) => assert_eq!(factor, 1.0),
            other => panic!("expected straggler, got {other:?}"),
        }
    }

    #[test]
    fn salt_changes_the_stream_not_the_rates() {
        let base = FaultPlan::transient(9, 0.2);
        let salted = base.with_salt(1);
        assert_eq!(salted.transient_rate, base.transient_rate);
        assert_ne!(salted.schedule(200), base.schedule(200));
        // Salting is itself deterministic.
        assert_eq!(base.with_salt(1), base.with_salt(1));
    }

    #[test]
    fn errors_and_events_display() {
        assert!(LaunchError::DeviceLost.to_string().contains("lost"));
        assert!(LaunchError::TransientFault { launch: 3 }
            .to_string()
            .contains('3'));
        let e = FaultEvent {
            launch: 2,
            kind: FaultKind::Straggler { factor: 4.0 },
            kernel: "fused".into(),
            trace: 0,
        };
        assert!(e.to_string().contains("x4"));
    }
}
