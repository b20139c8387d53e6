//! Online SLO monitoring: sliding-window tail latency and error-budget
//! burn rate, computed incrementally from request completions.
//!
//! Objectives are declared in code as an [`SloSpec`] — a p99 latency
//! target — and share one error budget of 1 % (the fraction of requests
//! allowed to fail *unflagged*; degraded-but-flagged responses are
//! within contract and do not burn budget). The monitor keeps the last `window` completions;
//! the burn rate is the window's error rate divided by the budget, so
//! `burn_rate >= 1` means the service is failing faster than the budget
//! allows and [`SloReport::burn_alert`] fires.
//!
//! The window is **count-based**, not wall-clock-based, so same-seed
//! runs that complete the same requests in the same order produce the
//! same alert decisions regardless of machine speed.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Error budget: the fraction of completions allowed to be unflagged
/// errors. The burn rate is error-rate / budget.
const ERROR_BUDGET: f64 = 0.01;

/// A service-level objective, declared in code.
#[derive(Debug, Clone)]
pub struct SloSpec {
    /// Objective name (used in gauge names and reports).
    pub(crate) name: String,
    /// Target: windowed p99 latency must stay below this.
    pub(crate) p99_target_ms: f64,
    /// Completions per sliding window.
    pub(crate) window: usize,
}

impl Default for SloSpec {
    fn default() -> Self {
        Self {
            name: "serve".to_string(),
            p99_target_ms: 250.0,
            window: 256,
        }
    }
}

#[derive(Debug, Default)]
struct State {
    /// `(latency_ms, error)`; latency is NaN for errors.
    window: VecDeque<(f64, bool)>,
    window_errors: usize,
    total: u64,
    total_errors: u64,
}

/// Point-in-time evaluation of one objective.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// Objective name.
    pub(crate) name: String,
    /// Completions seen in the current window.
    pub window_len: usize,
    /// Windowed p99 latency over successful completions (0 when none).
    pub(crate) p99_ms: f64,
    /// The declared p99 target.
    pub(crate) p99_target_ms: f64,
    /// Whether windowed p99 exceeds the target.
    pub(crate) latency_breach: bool,
    /// Windowed unflagged-error rate.
    pub(crate) error_rate: f64,
    /// The error budget (the fixed 1 %).
    pub(crate) error_budget: f64,
    /// `error_rate / error_budget`.
    pub(crate) burn_rate: f64,
    /// Whether the burn rate reached 1.0 — the budget is being consumed
    /// at or above the sustainable rate.
    pub burn_alert: bool,
    /// Lifetime completions.
    pub(crate) total: u64,
    /// Lifetime unflagged errors.
    pub total_errors: u64,
}

/// Incremental monitor for one [`SloSpec`]. Thread-safe; feed it every
/// terminal request outcome.
#[derive(Debug)]
pub struct SloMonitor {
    spec: SloSpec,
    state: Mutex<State>,
}

impl SloMonitor {
    /// A monitor with an empty window.
    pub fn new(spec: SloSpec) -> Self {
        Self {
            spec,
            state: Mutex::new(State::default()),
        }
    }

    /// Record a successful completion (flagged degradation included —
    /// a degraded response honors the contract by declaring itself).
    pub fn record_ok(&self, latency_ms: f64) {
        self.record(latency_ms, false);
    }

    /// Record an unflagged failure (rejection, deadline blown, fault
    /// surfaced to the caller). Burns error budget.
    pub fn record_error(&self) {
        self.record(f64::NAN, true);
    }

    fn record(&self, latency_ms: f64, error: bool) {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        s.total += 1;
        if error {
            s.total_errors += 1;
        }
        s.window.push_back((latency_ms, error));
        if error {
            s.window_errors += 1;
        }
        if s.window.len() > self.spec.window.max(1) {
            if let Some((_, was_err)) = s.window.pop_front() {
                if was_err {
                    s.window_errors -= 1;
                }
            }
        }
    }

    /// Evaluate the objective against the current window.
    pub fn report(&self) -> SloReport {
        let s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let mut lat: Vec<f64> = s
            .window
            .iter()
            .filter(|(_, err)| !err)
            .map(|(ms, _)| *ms)
            .filter(|ms| ms.is_finite())
            .collect();
        lat.sort_by(f64::total_cmp);
        let p99 = if lat.is_empty() {
            0.0
        } else {
            let rank = (0.99 * lat.len() as f64).ceil() as usize;
            lat[rank.clamp(1, lat.len()) - 1]
        };
        let error_rate = if s.window.is_empty() {
            0.0
        } else {
            s.window_errors as f64 / s.window.len() as f64
        };
        let burn_rate = error_rate / ERROR_BUDGET;
        SloReport {
            name: self.spec.name.clone(),
            window_len: s.window.len(),
            p99_ms: p99,
            p99_target_ms: self.spec.p99_target_ms,
            latency_breach: !lat.is_empty() && p99 > self.spec.p99_target_ms,
            error_rate,
            error_budget: ERROR_BUDGET,
            burn_rate,
            burn_alert: burn_rate >= 1.0,
            total: s.total,
            total_errors: s.total_errors,
        }
    }

    /// Publish the current report as gauges `<prefix>.p99_ms`,
    /// `<prefix>.burn_rate`, `<prefix>.error_rate`, `<prefix>.burn_alert`
    /// (0/1), `<prefix>.latency_breach` (0/1), `<prefix>.window`.
    /// No-op when collection is disabled.
    pub fn publish(&self, prefix: &str) {
        if !crate::enabled() {
            return;
        }
        let r = self.report();
        crate::gauge_set(&format!("{prefix}.p99_ms"), r.p99_ms);
        crate::gauge_set(&format!("{prefix}.p99_target_ms"), r.p99_target_ms);
        crate::gauge_set(&format!("{prefix}.burn_rate"), r.burn_rate);
        crate::gauge_set(&format!("{prefix}.error_rate"), r.error_rate);
        crate::gauge_set(&format!("{prefix}.burn_alert"), r.burn_alert as u8 as f64);
        crate::gauge_set(
            &format!("{prefix}.latency_breach"),
            r.latency_breach as u8 as f64,
        );
        crate::gauge_set(&format!("{prefix}.window"), r.window_len as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(window: usize) -> SloSpec {
        SloSpec {
            name: "t".into(),
            p99_target_ms: 10.0,
            window,
        }
    }

    #[test]
    fn clean_window_does_not_alert() {
        let m = SloMonitor::new(spec(8));
        for _ in 0..100 {
            m.record_ok(1.0);
        }
        let r = m.report();
        assert_eq!(r.window_len, 8);
        assert_eq!(r.p99_ms, 1.0);
        assert!(!r.burn_alert);
        assert!(!r.latency_breach);
        assert_eq!(r.burn_rate, 0.0);
        assert_eq!(r.total, 100);
    }

    #[test]
    fn errors_burn_budget_and_alert() {
        let m = SloMonitor::new(spec(100));
        for _ in 0..99 {
            m.record_ok(1.0);
        }
        assert!(!m.report().burn_alert);
        m.record_error();
        let r = m.report();
        assert_eq!(r.error_rate, 0.01);
        assert!((r.burn_rate - 1.0).abs() < 1e-12);
        assert!(r.burn_alert, "burn rate 1.0 is the alert threshold");
        assert_eq!(r.total_errors, 1);
    }

    #[test]
    fn errors_age_out_of_the_window() {
        let m = SloMonitor::new(spec(4));
        m.record_error();
        assert!(m.report().burn_alert);
        for _ in 0..4 {
            m.record_ok(1.0);
        }
        let r = m.report();
        assert_eq!(r.error_rate, 0.0, "old error slid out");
        assert!(!r.burn_alert);
        assert_eq!(r.total_errors, 1, "lifetime count is kept");
    }

    #[test]
    fn latency_breach_tracks_windowed_p99() {
        let m = SloMonitor::new(spec(100));
        for _ in 0..98 {
            m.record_ok(1.0);
        }
        m.record_ok(50.0);
        m.record_ok(50.0);
        let r = m.report();
        assert_eq!(r.p99_ms, 50.0, "nearest-rank p99 of 100 samples");
        assert!(r.latency_breach);
        assert!(!r.burn_alert, "slow but successful burns no budget");
    }

    #[test]
    fn errors_excluded_from_latency_percentile() {
        let m = SloMonitor::new(spec(10));
        m.record_ok(2.0);
        m.record_error();
        let r = m.report();
        assert_eq!(r.p99_ms, 2.0);
        assert!(!r.p99_ms.is_nan());
    }
}
