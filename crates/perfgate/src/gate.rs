//! The diff engine: compare a current snapshot against a baseline,
//! gate on cycles and peak memory, and *attribute* every regression to
//! the profiler metrics that moved.
//!
//! The simulator is deterministic, so there is no noise floor to argue
//! with: the thresholds exist only to ignore genuinely negligible
//! drift (a default of 0.5% on cycles), not to absorb variance.

use std::collections::BTreeMap;

use crate::snapshot::Snapshot;

/// Metrics the gate fails on (everything else is attribution context).
const GATED: &[&str] = &["gpu_cycles", "peak_mem_bytes"];

/// Metrics that restate the gated ones in other units; excluded from
/// attribution because they always move in lockstep with `gpu_cycles`.
const DERIVED: &[&str] = &["gpu_time_ms", "runtime_ms"];

/// At most this many movers are listed per regression.
const MAX_ATTRIBUTION: usize = 6;

/// Minimum |relative change| for a metric to appear in attribution.
const ATTRIBUTION_FLOOR: f64 = 0.02;

/// Gate threshold (a relative change, e.g. `0.005` = 0.5%).
#[derive(Debug, Clone, Copy)]
pub struct GateConfig {
    /// Maximum tolerated relative increase of a gated metric.
    pub threshold: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        Self { threshold: 0.005 }
    }
}

/// One metric that moved, used for attribution lines.
#[derive(Debug, Clone)]
pub struct MetricMove {
    /// Metric name.
    pub metric: String,
    /// Baseline value.
    pub(crate) old: f64,
    /// Current value.
    pub(crate) new: f64,
    /// Relative change (±∞ when the baseline is zero).
    pub rel: f64,
}

/// A gated metric that crossed the threshold on one workload.
#[derive(Debug, Clone)]
pub struct WorkloadDiff {
    /// Workload id (`kernel/model/dataset`).
    pub id: String,
    /// The gated metric that moved.
    pub metric: &'static str,
    /// Baseline value.
    pub old: f64,
    /// Current value.
    pub new: f64,
    /// Relative change.
    pub rel: f64,
    /// Baseline limiter name.
    pub(crate) limiter_old: String,
    /// Current limiter name.
    pub limiter_new: String,
    /// The non-gated metrics that moved, largest |relative change|
    /// first — the "why" of the regression.
    pub attribution: Vec<MetricMove>,
}

/// Outcome of comparing a run against the baseline.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Structural problems (schema / fingerprint / workload-set
    /// mismatches). Any error fails the gate.
    pub(crate) errors: Vec<String>,
    /// Gated metrics that got worse beyond the threshold.
    pub regressions: Vec<WorkloadDiff>,
    /// Gated metrics that got *better* beyond the threshold. Don't fail
    /// the gate, but the report suggests re-blessing so the improvement
    /// is locked in.
    pub(crate) improvements: Vec<WorkloadDiff>,
    /// Workloads compared.
    pub compared: usize,
}

impl GateReport {
    /// True when the run is no worse than the baseline.
    pub fn passed(&self) -> bool {
        self.errors.is_empty() && self.regressions.is_empty()
    }

    /// Human-readable attribution report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.errors {
            out.push_str(&format!("ERROR {e}\n"));
        }
        for r in &self.regressions {
            out.push_str(&render_diff("REGRESSION", r));
        }
        for r in &self.improvements {
            out.push_str(&render_diff("IMPROVEMENT", r));
        }
        out.push_str(&format!(
            "perf gate: {} workloads compared, {} regression(s), {} improvement(s){}\n",
            self.compared,
            self.regressions.len(),
            self.improvements.len(),
            if self.errors.is_empty() {
                String::new()
            } else {
                format!(", {} error(s)", self.errors.len())
            },
        ));
        if self.passed() && !self.improvements.is_empty() {
            out.push_str("improvements detected: consider re-baselining with --bless\n");
        }
        out.push_str(if self.passed() {
            "perf gate: PASS\n"
        } else {
            "perf gate: FAIL\n"
        });
        out
    }
}

fn render_diff(tag: &str, r: &WorkloadDiff) -> String {
    let mut out = format!(
        "{tag} {}: {} {} ({} -> {})\n  limiter: {}{}\n",
        r.id,
        r.metric,
        fmt_pct(r.rel),
        fmt_val(r.old),
        fmt_val(r.new),
        r.limiter_old,
        if r.limiter_new == r.limiter_old {
            " (unchanged)".to_string()
        } else {
            format!(" -> {}", r.limiter_new)
        },
    );
    if r.attribution.is_empty() {
        out.push_str("  attribution: no other tracked metric moved above the floor\n");
    } else {
        let moves: Vec<String> = r
            .attribution
            .iter()
            .map(|m| {
                format!(
                    "{} {} ({} -> {})",
                    m.metric,
                    fmt_pct(m.rel),
                    fmt_val(m.old),
                    fmt_val(m.new)
                )
            })
            .collect();
        out.push_str(&format!("  attribution: {}\n", moves.join(", ")));
    }
    out
}

/// Relative change, matching `telemetry::diff` semantics: zero baseline
/// with a nonzero current value yields ±∞.
pub(crate) fn rel_change(old: f64, new: f64) -> f64 {
    if old == 0.0 {
        if new == 0.0 {
            0.0
        } else if new > 0.0 {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        }
    } else {
        (new - old) / old.abs()
    }
}

fn fmt_pct(rel: f64) -> String {
    if rel.is_infinite() {
        (if rel > 0.0 { "+inf%" } else { "-inf%" }).to_string()
    } else {
        format!("{:+.1}%", rel * 100.0)
    }
}

fn fmt_val(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

/// Compare `current` against `baseline` under `cfg`.
pub fn compare(baseline: &Snapshot, current: &Snapshot, cfg: &GateConfig) -> GateReport {
    let mut report = GateReport::default();
    if baseline.schema != current.schema {
        report.errors.push(format!(
            "schema mismatch: baseline {:?} vs current {:?}",
            baseline.schema, current.schema
        ));
        return report;
    }
    if baseline.config_fingerprint != current.config_fingerprint {
        report.errors.push(format!(
            "config fingerprint mismatch (baseline {}, current {}): the suite or device \
             definition changed; re-baseline with --bless",
            baseline.config_fingerprint, current.config_fingerprint
        ));
        return report;
    }
    let old_by_id: BTreeMap<&str, &crate::snapshot::WorkloadResult> = baseline
        .workloads
        .iter()
        .map(|w| (w.id.as_str(), w))
        .collect();
    let new_by_id: BTreeMap<&str, &crate::snapshot::WorkloadResult> = current
        .workloads
        .iter()
        .map(|w| (w.id.as_str(), w))
        .collect();
    for id in old_by_id.keys() {
        if !new_by_id.contains_key(*id) {
            report
                .errors
                .push(format!("workload {id} is in the baseline but was not run"));
        }
    }
    for id in new_by_id.keys() {
        if !old_by_id.contains_key(*id) {
            report.errors.push(format!(
                "workload {id} has no baseline; re-baseline with --bless"
            ));
        }
    }

    for w in &current.workloads {
        let Some(old) = old_by_id.get(w.id.as_str()) else {
            continue;
        };
        report.compared += 1;
        for &gated in GATED {
            let (Some(&ov), Some(&nv)) = (old.metrics.get(gated), w.metrics.get(gated)) else {
                report
                    .errors
                    .push(format!("workload {}: metric {gated} missing", w.id));
                continue;
            };
            let rel = rel_change(ov, nv);
            if rel.abs() <= cfg.threshold {
                continue;
            }
            let diff = WorkloadDiff {
                id: w.id.clone(),
                metric: gated,
                old: ov,
                new: nv,
                rel,
                limiter_old: old.limiter.clone(),
                limiter_new: w.limiter.clone(),
                attribution: attribution(&old.metrics, &w.metrics),
            };
            if rel > 0.0 {
                report.regressions.push(diff);
            } else {
                report.improvements.push(diff);
            }
        }
    }
    report
}

/// Non-gated metrics whose |relative change| clears
/// [`ATTRIBUTION_FLOOR`], largest first (±∞ sorts above everything),
/// capped at [`MAX_ATTRIBUTION`].
fn attribution(old: &BTreeMap<String, f64>, new: &BTreeMap<String, f64>) -> Vec<MetricMove> {
    let mut moves: Vec<MetricMove> = old
        .iter()
        .filter(|(k, _)| !GATED.contains(&k.as_str()) && !DERIVED.contains(&k.as_str()))
        .filter_map(|(k, &ov)| {
            let &nv = new.get(k)?;
            let rel = rel_change(ov, nv);
            (rel.abs() >= ATTRIBUTION_FLOOR).then(|| MetricMove {
                metric: k.clone(),
                old: ov,
                new: nv,
                rel,
            })
        })
        .collect();
    moves.sort_by(|a, b| {
        b.rel
            .abs()
            .total_cmp(&a.rel.abs())
            .then_with(|| a.metric.cmp(&b.metric))
    });
    moves.truncate(MAX_ATTRIBUTION);
    moves
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{WorkloadResult, SCHEMA};

    fn snap(cycles: f64, atomics: f64, limiter: &str) -> Snapshot {
        let mut metrics = BTreeMap::new();
        metrics.insert("gpu_cycles".to_string(), cycles);
        metrics.insert("gpu_time_ms".to_string(), cycles / 1e6);
        metrics.insert("peak_mem_bytes".to_string(), 4096.0);
        metrics.insert("atomic_transactions".to_string(), atomics);
        metrics.insert("achieved_occupancy".to_string(), 0.5);
        Snapshot {
            schema: SCHEMA.to_string(),
            seq: 1,
            git_sha: "x".to_string(),
            suite: "t".to_string(),
            config_fingerprint: "f".to_string(),
            device: "d".to_string(),
            workloads: vec![WorkloadResult {
                id: "warp_per_vertex/gcn/power_law".to_string(),
                limiter: limiter.to_string(),
                metrics,
            }],
        }
    }

    #[test]
    fn equal_snapshots_pass() {
        let a = snap(1000.0, 50.0, "bandwidth");
        let r = compare(&a, &a.clone(), &GateConfig::default());
        assert!(r.passed());
        assert_eq!(r.compared, 1);
        assert!(r.render().contains("PASS"));
    }

    #[test]
    fn regression_attributed_to_moving_metric() {
        let old = snap(1000.0, 50.0, "latency");
        let new = snap(1120.0, 70.0, "bandwidth");
        let r = compare(&old, &new, &GateConfig::default());
        assert!(!r.passed());
        assert_eq!(r.regressions.len(), 1);
        let d = &r.regressions[0];
        assert_eq!(d.metric, "gpu_cycles");
        assert_eq!(d.limiter_new, "bandwidth");
        assert_eq!(d.attribution.len(), 1, "occupancy did not move");
        assert_eq!(d.attribution[0].metric, "atomic_transactions");
        let text = r.render();
        assert!(text.contains("REGRESSION warp_per_vertex/gcn/power_law"));
        assert!(text.contains("atomic_transactions +40.0%"), "{text}");
        assert!(text.contains("limiter: latency -> bandwidth"), "{text}");
        assert!(text.contains("FAIL"));
    }

    #[test]
    fn improvement_does_not_fail_but_suggests_bless() {
        let old = snap(1000.0, 50.0, "bandwidth");
        let new = snap(900.0, 50.0, "bandwidth");
        let r = compare(&old, &new, &GateConfig::default());
        assert!(r.passed());
        assert_eq!(r.improvements.len(), 1);
        assert!(r.render().contains("--bless"));
    }

    #[test]
    fn fingerprint_mismatch_is_an_error() {
        let old = snap(1000.0, 50.0, "bandwidth");
        let mut new = old.clone();
        new.config_fingerprint = "other".to_string();
        let r = compare(&old, &new, &GateConfig::default());
        assert!(!r.passed());
        assert!(r.render().contains("re-baseline with --bless"));
    }

    #[test]
    fn workload_set_mismatch_is_an_error() {
        let old = snap(1000.0, 50.0, "bandwidth");
        let mut new = old.clone();
        new.workloads[0].id = "other/gcn/power_law".to_string();
        let r = compare(&old, &new, &GateConfig::default());
        assert_eq!(r.errors.len(), 2);
        assert!(!r.passed());
    }

    #[test]
    fn small_drift_below_threshold_ignored() {
        let old = snap(1000.0, 50.0, "bandwidth");
        let new = snap(1002.0, 50.0, "bandwidth");
        let r = compare(&old, &new, &GateConfig::default());
        assert!(r.passed(), "0.2% is under the 0.5% default threshold");
    }
}
