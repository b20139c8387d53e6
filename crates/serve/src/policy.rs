//! Resilience policies: bounded retry with exponential backoff + jitter
//! and the load-shedding degradation ladder. (A slot that keeps dying is
//! retired by the supervisor's per-slot death count,
//! [`crate::SupervisorConfig::slot_breaker_threshold`].)
//!
//! Everything here is deterministic given its configuration (jitter is
//! seeded, thresholds are explicit) so the chaos harness can assert exact
//! behaviour across runs.

use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// Jitter width: a retry's backoff is multiplied by a deterministic
/// draw from `[1 - JITTER_FRAC, 1]`. At most 0.5, so the ×2 growth
/// dominates the worst-case shrink.
const JITTER_FRAC: f64 = 0.25;

/// Bounded retry with exponential backoff and deterministic jitter.
///
/// Attempt `a` (1-based) backs off `base_backoff · 2^(a-1)`, capped at
/// `max_backoff`, then shrunk by a seeded jitter drawn from
/// `[0.75, 1]`, so the sequence is monotone non-decreasing despite the
/// jitter.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retry budget per operation; 0 disables retrying.
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Backoff growth cap.
    pub max_backoff: Duration,
    /// Seed of the jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            base_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(20),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry `attempt` (1-based), or `None` when the
    /// retry budget is exhausted. Pure: same policy, same attempt, same
    /// duration.
    pub(crate) fn backoff(&self, attempt: u32) -> Option<Duration> {
        if attempt == 0 || attempt > self.max_retries {
            return None;
        }
        let exp = self
            .base_backoff
            .saturating_mul(1u32.checked_shl(attempt - 1).unwrap_or(u32::MAX))
            .min(self.max_backoff);
        let h = splitmix64(self.seed ^ (attempt as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        let scale = 1.0 - JITTER_FRAC * u;
        Some(exp.mul_f64(scale))
    }

    /// Schedule retry `attempt`: the backoff to sleep, or `None` when the
    /// budget is exhausted *or* sleeping would land past `deadline` — a
    /// retry that cannot finish before the deadline is never scheduled.
    pub fn schedule(
        &self,
        attempt: u32,
        now: Instant,
        deadline: Option<Instant>,
    ) -> Option<Duration> {
        let d = self.backoff(attempt)?;
        if let Some(dl) = deadline {
            if now.checked_add(d).is_none_or(|wake| wake >= dl) {
                return None;
            }
        }
        Some(d)
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The degradation ladder, mildest first. Each level includes every
/// milder one's measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum DegradationLevel {
    /// Full service.
    Normal = 0,
    /// Serve cache entries up to `stale_grace` past their TTL, flagged
    /// `degraded.stale_cache`.
    StaleOk = 1,
    /// Additionally extract with seeded fanout-capped neighbor sampling
    /// (GraphSAGE-style) at full depth, flagged `degraded.sampled`.
    /// Sampled outputs are approximate and are never cached.
    Sampled = 2,
    /// Additionally truncate ego-graph extraction by one hop, flagged
    /// `degraded.reduced_hops`: the vertices at the reduced depth keep
    /// their features but have empty rows, so they aggregate nothing
    /// (truncated outputs cache only under their own depth key).
    /// Supersedes sampling.
    ReducedHops = 3,
    /// Additionally reject new submissions (`ServeError::Overloaded`).
    Shed = 4,
}

impl DegradationLevel {
    fn from_u8(v: u8) -> Self {
        match v {
            0 => Self::Normal,
            1 => Self::StaleOk,
            2 => Self::Sampled,
            3 => Self::ReducedHops,
            _ => Self::Shed,
        }
    }

    /// Stable label for logs and telemetry.
    pub fn label(&self) -> &'static str {
        match self {
            Self::Normal => "normal",
            Self::StaleOk => "stale_ok",
            Self::Sampled => "sampled",
            Self::ReducedHops => "reduced_hops",
            Self::Shed => "shed",
        }
    }
}

/// Thresholds of the degradation ladder over a single *pressure* signal:
/// `queue_load + unhealthy_frac`, where `queue_load`
/// is the queue depth as a fraction of capacity and `unhealthy_frac` the
/// fraction of worker slots out of rotation.
///
/// Hysteresis: level `i` engages at `enter[i]` and disengages below
/// `exit[i]` (each `exit[i] < enter[i]`), so pressure noise at a
/// threshold does not flap the ladder.
#[derive(Debug, Clone)]
pub struct DegradationPolicy {
    /// Pressure at which levels 1..4 engage, ascending.
    pub enter: [f64; 4],
    /// Pressure below which levels 1..4 disengage (each below its
    /// `enter`).
    pub exit: [f64; 4],
}

impl Default for DegradationPolicy {
    fn default() -> Self {
        Self {
            enter: [0.50, 0.70, 0.85, 0.95],
            exit: [0.35, 0.55, 0.70, 0.85],
        }
    }
}

/// Shared mutable state of the ladder: the active level, updated from
/// pressure observations, readable from any thread.
#[derive(Debug)]
pub struct DegradationController {
    policy: DegradationPolicy,
    level: AtomicU8,
}

impl DegradationController {
    /// A controller at [`DegradationLevel::Normal`].
    pub fn new(policy: DegradationPolicy) -> Self {
        Self {
            policy,
            level: AtomicU8::new(0),
        }
    }

    /// The active level.
    pub(crate) fn level(&self) -> DegradationLevel {
        DegradationLevel::from_u8(self.level.load(Ordering::Relaxed))
    }

    /// Fold one pressure observation in and return the (possibly new)
    /// active level. `queue_load` and `unhealthy_frac` are fractions in
    /// `[0, 1]`.
    pub(crate) fn update(&self, queue_load: f64, unhealthy_frac: f64) -> DegradationLevel {
        let pressure = queue_load + unhealthy_frac;
        let current = self.level.load(Ordering::Relaxed);
        let mut next = 0u8;
        for (i, &enter) in self.policy.enter.iter().enumerate() {
            let lvl = (i + 1) as u8;
            // Already at/above this level: hold it until pressure drops
            // below the exit threshold. Below it: engage at enter.
            let threshold = if current >= lvl {
                self.policy.exit[i]
            } else {
                enter
            };
            if pressure >= threshold {
                next = lvl;
            }
        }
        self.level.store(next, Ordering::Relaxed);
        DegradationLevel::from_u8(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_monotone_and_bounded() {
        let p = RetryPolicy {
            max_retries: 8,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(100),
            seed: 42,
        };
        let mut prev = Duration::ZERO;
        for a in 1..=8 {
            let b = p.backoff(a).unwrap();
            let nominal = Duration::from_millis(1 << (a - 1)).min(p.max_backoff);
            assert!(b <= nominal, "attempt {a}: {b:?} > nominal {nominal:?}");
            assert!(
                b >= nominal.mul_f64(0.75),
                "attempt {a}: {b:?} under jitter floor"
            );
            assert!(b >= prev, "attempt {a}: {b:?} < previous {prev:?}");
            prev = b;
        }
        assert_eq!(p.backoff(0), None);
        assert_eq!(p.backoff(9), None, "budget exhausted");
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff(2), p.backoff(2));
        let other = RetryPolicy {
            seed: 1,
            ..RetryPolicy::default()
        };
        assert_ne!(p.backoff(2), other.backoff(2));
    }

    #[test]
    fn schedule_respects_deadline() {
        let p = RetryPolicy {
            max_retries: 5,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            seed: 0,
        };
        // The first backoff lies in the jitter band [7.5 ms, 10 ms], so a
        // 5 ms deadline always falls before it lands.
        let first = p.backoff(1).unwrap();
        assert!(first >= Duration::from_micros(7_500) && first <= Duration::from_millis(10));
        let now = Instant::now();
        // Deadline far away: scheduled.
        assert!(p
            .schedule(1, now, Some(now + Duration::from_secs(10)))
            .is_some());
        // Deadline before the backoff lands: never scheduled.
        assert_eq!(
            p.schedule(1, now, Some(now + Duration::from_millis(5))),
            None
        );
        // No deadline: only the budget gates.
        assert!(p.schedule(5, now, None).is_some());
        assert_eq!(p.schedule(6, now, None), None);
    }

    #[test]
    fn ladder_engages_in_order_with_hysteresis() {
        let c = DegradationController::new(DegradationPolicy::default());
        assert_eq!(c.level(), DegradationLevel::Normal);
        assert_eq!(c.update(0.55, 0.0), DegradationLevel::StaleOk);
        assert_eq!(c.update(0.75, 0.0), DegradationLevel::Sampled);
        assert_eq!(c.update(0.90, 0.0), DegradationLevel::ReducedHops);
        assert_eq!(c.update(1.0, 0.0), DegradationLevel::Shed);
        // Hysteresis: between exit (0.85) and enter (0.95) holds Shed...
        assert_eq!(c.update(0.90, 0.0), DegradationLevel::Shed);
        // ...and below each exit it steps down one rung at a time.
        assert_eq!(c.update(0.80, 0.0), DegradationLevel::ReducedHops);
        assert_eq!(c.update(0.60, 0.0), DegradationLevel::Sampled);
        assert_eq!(c.update(0.45, 0.0), DegradationLevel::StaleOk);
        assert_eq!(c.update(0.10, 0.0), DegradationLevel::Normal);
    }

    #[test]
    fn unhealthy_workers_add_pressure() {
        let c = DegradationController::new(DegradationPolicy::default());
        // Empty queue but half the pool is dead: pressure 0.5 → StaleOk.
        assert_eq!(c.update(0.0, 0.5), DegradationLevel::StaleOk);
        // A fully-dead pool sheds regardless of queue depth.
        assert_eq!(c.update(0.0, 1.0), DegradationLevel::Shed);
    }

    #[test]
    fn levels_are_ordered() {
        assert!(DegradationLevel::Normal < DegradationLevel::StaleOk);
        assert!(DegradationLevel::StaleOk < DegradationLevel::Sampled);
        assert!(DegradationLevel::Sampled < DegradationLevel::ReducedHops);
        assert!(DegradationLevel::ReducedHops < DegradationLevel::Shed);
        assert_eq!(DegradationLevel::Shed.label(), "shed");
        assert_eq!(DegradationLevel::Sampled.label(), "sampled");
    }
}
