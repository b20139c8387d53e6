//! Snapshot comparison: the logic behind the `telemetry-diff` tool.
//!
//! Two [`MetricsSnapshot`]s are compared on their *watched* values —
//! every counter, every gauge, and each histogram's `mean` and `p50` —
//! and any relative change beyond the threshold is flagged as a
//! regression (the tool exits non-zero when one exists).

use crate::metrics::MetricsSnapshot;

/// One compared metric value.
#[derive(Debug, Clone)]
pub struct MetricDelta {
    /// Watched metric name (histograms get a `.mean` / `.p50` suffix).
    pub metric: String,
    /// Value in the old snapshot.
    pub old: f64,
    /// Value in the new snapshot.
    pub new: f64,
    /// Signed relative change `(new - old) / |old|`; ±inf when the old
    /// value was zero and the new one is not.
    pub rel_change: f64,
}

impl MetricDelta {
    /// Whether the change exceeds `threshold` in magnitude.
    fn exceeds(&self, threshold: f64) -> bool {
        self.rel_change.abs() > threshold
    }
}

/// Result of comparing two snapshots.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// The threshold the report was built against.
    pub threshold: f64,
    /// Every watched metric present in both snapshots.
    pub deltas: Vec<MetricDelta>,
    /// Watched metrics present in exactly one snapshot (informational).
    pub missing: Vec<String>,
}

impl DiffReport {
    /// Deltas whose magnitude exceeds the threshold.
    pub fn regressions(&self) -> Vec<&MetricDelta> {
        self.deltas
            .iter()
            .filter(|d| d.exceeds(self.threshold))
            .collect()
    }
}

fn rel_change(old: f64, new: f64) -> f64 {
    if old == new {
        0.0
    } else if old == 0.0 {
        f64::INFINITY.copysign(new)
    } else {
        (new - old) / old.abs()
    }
}

fn watched(snap: &MetricsSnapshot) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for (k, v) in &snap.counters {
        out.push((format!("counter.{k}"), *v as f64));
    }
    for (k, v) in &snap.gauges {
        out.push((format!("gauge.{k}"), *v));
    }
    for (k, s) in &snap.histograms {
        out.push((format!("{k}.mean"), s.mean));
        out.push((format!("{k}.p50"), s.p50));
    }
    out
}

/// Compare two snapshots at the given relative threshold (0.10 = 10%).
pub fn diff(old: &MetricsSnapshot, new: &MetricsSnapshot, threshold: f64) -> DiffReport {
    let old_watched = watched(old);
    let new_watched: std::collections::BTreeMap<String, f64> = watched(new).into_iter().collect();
    let old_keys: std::collections::BTreeSet<&String> =
        old_watched.iter().map(|(k, _)| k).collect();

    let mut deltas = Vec::new();
    let mut missing = Vec::new();
    for (k, old_v) in &old_watched {
        match new_watched.get(k) {
            Some(&new_v) => deltas.push(MetricDelta {
                metric: k.clone(),
                old: *old_v,
                new: new_v,
                rel_change: rel_change(*old_v, new_v),
            }),
            None => missing.push(format!("{k} (only in old)")),
        }
    }
    for k in new_watched.keys() {
        if !old_keys.contains(k) {
            missing.push(format!("{k} (only in new)"));
        }
    }
    DiffReport {
        threshold,
        deltas,
        missing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;

    fn snap(ms: f64, launches: u64) -> MetricsSnapshot {
        let m = Metrics::new();
        m.counter_add("kernel.fused.launches", launches);
        m.observe("kernel.fused.gpu_time_ms", ms);
        m.snapshot()
    }

    #[test]
    fn within_threshold_passes() {
        let r = diff(&snap(1.00, 4), &snap(1.05, 4), 0.10);
        assert!(r.regressions().is_empty(), "{:?}", r.regressions());
        assert!(r.missing.is_empty());
    }

    #[test]
    fn beyond_threshold_flags() {
        let r = diff(&snap(1.00, 4), &snap(1.25, 4), 0.10);
        assert!(!r.regressions().is_empty());
        let regs = r.regressions();
        // Both mean and p50 of the single-sample histogram moved 25%.
        assert_eq!(regs.len(), 2);
        assert!((regs[0].rel_change - 0.25).abs() < 1e-12);
    }

    #[test]
    fn counter_changes_watched() {
        let r = diff(&snap(1.0, 4), &snap(1.0, 8), 0.10);
        assert!(!r.regressions().is_empty());
        assert!(r.regressions()[0].metric.contains("launches"));
    }

    #[test]
    fn improvements_also_flagged() {
        // A 50% speedup still trips the diff: the trajectory moved and a
        // human should acknowledge it (re-baseline), same as a regression.
        let r = diff(&snap(2.0, 4), &snap(1.0, 4), 0.10);
        assert!(!r.regressions().is_empty());
        assert!(r.regressions()[0].rel_change < 0.0);
    }

    #[test]
    fn zero_old_value_is_infinite_change() {
        let m_old = Metrics::new();
        m_old.gauge_set("g", 0.0);
        let m_new = Metrics::new();
        m_new.gauge_set("g", 3.0);
        let r = diff(&m_old.snapshot(), &m_new.snapshot(), 0.10);
        assert!(!r.regressions().is_empty());
        assert!(r.deltas[0].rel_change.is_infinite());
    }

    #[test]
    fn missing_metrics_reported_not_failed() {
        let r = diff(&snap(1.0, 4), &MetricsSnapshot::default(), 0.10);
        assert!(r.regressions().is_empty());
        assert_eq!(r.missing.len(), 3); // counter + hist mean + hist p50
    }
}
