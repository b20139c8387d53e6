//! Metrics registry: counters, gauges, and sample-keeping histograms with
//! summary percentiles, plus a serializable [`MetricsSnapshot`].
//!
//! Names are dotted paths (`kernel.fused_gcn.gpu_time_ms`); the registry
//! is thread-safe and append-only between [`Metrics::reset`] calls.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::json::{self, Value};

/// A histogram that keeps raw samples (bench-scale cardinality) and
/// summarizes with nearest-rank percentiles.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    values: Vec<f64>,
}

impl Histogram {
    /// Record one sample; non-finite samples are dropped.
    pub fn observe(&mut self, v: f64) {
        if v.is_finite() {
            self.values.push(v);
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> usize {
        self.values.len()
    }

    /// The recorded samples, in observation order.
    pub fn samples(&self) -> &[f64] {
        &self.values
    }

    /// Nearest-rank percentile of the recorded samples.
    ///
    /// Total — never panics and never returns NaN: an empty histogram
    /// yields `0.0`, a single-sample histogram yields that sample for
    /// every `q`, and `q` outside `[0, 100]` (including NaN) is clamped
    /// into range (NaN clamps to 0).
    pub fn percentile(&self, q: f64) -> f64 {
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        percentile(&sorted, q)
    }

    /// Summary statistics (zeros when empty).
    pub fn summary(&self) -> HistogramSummary {
        if self.values.is_empty() {
            return HistogramSummary::default();
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let count = sorted.len();
        let mean = sorted.iter().sum::<f64>() / count as f64;
        HistogramSummary {
            count,
            min: sorted[0],
            max: sorted[count - 1],
            mean,
            p50: percentile(&sorted, 50.0),
            p90: percentile(&sorted, 90.0),
            p99: percentile(&sorted, 99.0),
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted slice. Defined for
/// every input: empty slices yield 0.0 and `q` is clamped into
/// `[0, 100]` (a NaN `q` clamps to 0, i.e. the minimum).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 100.0) };
    let rank = (q / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Summary statistics of one histogram.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: usize,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank 90th percentile.
    pub p90: f64,
    /// Nearest-rank 99th percentile.
    pub p99: f64,
}

impl HistogramSummary {
    fn to_json(self) -> Value {
        let mut o = Value::object();
        o.set("count", self.count)
            .set("min", self.min)
            .set("max", self.max)
            .set("mean", self.mean)
            .set("p50", self.p50)
            .set("p90", self.p90)
            .set("p99", self.p99);
        o
    }

    fn from_json(v: &Value) -> Result<Self, String> {
        let num = |k: &str| {
            v.get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("histogram summary missing numeric field {k:?}"))
        };
        Ok(Self {
            count: num("count")? as usize,
            min: num("min")?,
            max: num("max")?,
            mean: num("mean")?,
            p50: num("p50")?,
            p90: num("p90")?,
            p99: num("p99")?,
        })
    }
}

/// The thread-safe metrics registry.
#[derive(Debug, Default)]
pub struct Metrics {
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, f64>>,
    hists: Mutex<BTreeMap<String, Histogram>>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to the named counter (created at zero).
    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut c = self.counters.lock().unwrap();
        *c.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Set the named gauge to `v`.
    pub fn gauge_set(&self, name: &str, v: f64) {
        self.gauges.lock().unwrap().insert(name.to_string(), v);
    }

    /// Record one sample into the named histogram.
    pub fn observe(&self, name: &str, v: f64) {
        self.hists
            .lock()
            .unwrap()
            .entry(name.to_string())
            .or_default()
            .observe(v);
    }

    /// A clone of the named histogram with its raw samples, for callers
    /// that need percentiles beyond the fixed [`HistogramSummary`] set
    /// (e.g. p95 latency tables). `None` if nothing was observed under
    /// that name.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.hists.lock().unwrap().get(name).cloned()
    }

    /// Drop every metric.
    pub fn reset(&self) {
        self.counters.lock().unwrap().clear();
        self.gauges.lock().unwrap().clear();
        self.hists.lock().unwrap().clear();
    }

    /// A consistent point-in-time snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.lock().unwrap().clone(),
            gauges: self.gauges.lock().unwrap().clone(),
            histograms: self
                .hists
                .lock()
                .unwrap()
                .iter()
                .map(|(k, h)| (k.clone(), h.summary()))
                .collect(),
        }
    }
}

/// A serializable snapshot of the registry — what `metrics.json` holds
/// and what `telemetry-diff` compares.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl MetricsSnapshot {
    /// Serialize to the `metrics.json` layout.
    pub fn to_json(&self) -> Value {
        let mut counters = Value::object();
        for (k, v) in &self.counters {
            counters.set(k.clone(), *v);
        }
        let mut gauges = Value::object();
        for (k, v) in &self.gauges {
            gauges.set(k.clone(), *v);
        }
        let mut hists = Value::object();
        for (k, s) in &self.histograms {
            hists.set(k.clone(), s.to_json());
        }
        let mut o = Value::object();
        o.set("counters", counters)
            .set("gauges", gauges)
            .set("histograms", hists);
        o
    }

    /// Parse a `metrics.json` document produced by [`Self::to_json`].
    ///
    /// Degrades gracefully on partial documents: a `null` counter or
    /// gauge (how non-finite values serialize) and a `null` or
    /// field-incomplete histogram summary are *skipped*, not fatal —
    /// the entry simply parses as absent, and a later diff reports it
    /// as missing instead of refusing the whole file.
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        let v = json::parse(text)?;
        let mut snap = Self::default();
        if let Some(fields) = v.get("counters").and_then(Value::as_obj) {
            for (k, c) in fields {
                if matches!(c, Value::Null) {
                    continue;
                }
                let n = c
                    .as_f64()
                    .ok_or_else(|| format!("counter {k:?} is not a number"))?;
                snap.counters.insert(k.clone(), n as u64);
            }
        }
        if let Some(fields) = v.get("gauges").and_then(Value::as_obj) {
            for (k, g) in fields {
                if matches!(g, Value::Null) {
                    continue;
                }
                let n = g
                    .as_f64()
                    .ok_or_else(|| format!("gauge {k:?} is not a number"))?;
                snap.gauges.insert(k.clone(), n);
            }
        }
        if let Some(fields) = v.get("histograms").and_then(Value::as_obj) {
            for (k, h) in fields {
                if matches!(h, Value::Null) {
                    continue;
                }
                match HistogramSummary::from_json(h) {
                    Ok(s) => {
                        snap.histograms.insert(k.clone(), s);
                    }
                    // A summary with null/absent fields (non-finite
                    // stats) is dropped, not fatal.
                    Err(_) => continue,
                }
            }
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let mut h = Histogram::default();
        for v in 1..=100 {
            h.observe(v as f64);
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p90, 90.0);
        assert_eq!(s.p99, 99.0);
        assert!((s.mean - 50.5).abs() < 1e-12);
    }

    #[test]
    fn single_sample_percentiles() {
        let mut h = Histogram::default();
        h.observe(7.0);
        let s = h.summary();
        assert_eq!((s.p50, s.p90, s.p99), (7.0, 7.0, 7.0));
        // Every quantile of a single-sample histogram is that sample, and
        // the summary carries no NaN anywhere.
        for q in [0.0, 0.001, 50.0, 99.999, 100.0] {
            assert_eq!(h.percentile(q), 7.0);
        }
        assert_eq!((s.min, s.max, s.mean), (7.0, 7.0, 7.0));
    }

    #[test]
    fn empty_histogram_is_zeros() {
        assert_eq!(Histogram::default().summary(), HistogramSummary::default());
        // Percentiles of an empty histogram are defined (0.0), not a
        // panic or NaN.
        let h = Histogram::default();
        for q in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(q), 0.0);
        }
    }

    #[test]
    fn out_of_range_quantiles_clamp() {
        let mut h = Histogram::default();
        for v in [1.0, 2.0, 3.0] {
            h.observe(v);
        }
        assert_eq!(h.percentile(-10.0), 1.0, "below 0 clamps to min");
        assert_eq!(h.percentile(250.0), 3.0, "above 100 clamps to max");
        assert_eq!(h.percentile(0.0), 1.0, "p0 is the minimum");
        assert_eq!(h.percentile(100.0), 3.0, "p100 is the maximum");
        let nan = h.percentile(f64::NAN);
        assert!(!nan.is_nan(), "NaN quantile must not propagate");
        assert_eq!(nan, 1.0);
    }

    #[test]
    fn non_finite_samples_dropped() {
        let mut h = Histogram::default();
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        h.observe(2.0);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn null_and_partial_entries_parse_as_absent() {
        // A NaN gauge serializes as `null`; a snapshot containing one
        // must still parse, with the null entry simply missing — the
        // diff layer then reports it as "missing" instead of the whole
        // file being rejected.
        let m = Metrics::new();
        m.gauge_set("lat.p50", f64::NAN);
        m.gauge_set("lat.p90", 3.0);
        let text = m.snapshot().to_json().to_string();
        assert!(text.contains("null"), "NaN gauge serializes as null");
        let snap = MetricsSnapshot::from_json_str(&text).unwrap();
        assert!(!snap.gauges.contains_key("lat.p50"));
        assert_eq!(snap.gauges["lat.p90"], 3.0);

        let partial = r#"{
            "counters": {"ok": 1, "broken": null},
            "gauges": {},
            "histograms": {
                "h.null": null,
                "h.partial": {"count": 2, "min": null},
                "h.ok": {"count": 1, "min": 1.0, "max": 1.0, "mean": 1.0,
                         "p50": 1.0, "p90": 1.0, "p99": 1.0}
            }
        }"#;
        let snap = MetricsSnapshot::from_json_str(partial).unwrap();
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.histograms.len(), 1);
        assert!(snap.histograms.contains_key("h.ok"));

        // And the diff against a complete snapshot reports the absent
        // entries as missing rather than failing.
        let full = Metrics::new();
        full.gauge_set("lat.p50", 1.0);
        full.gauge_set("lat.p90", 3.0);
        let m2 = Metrics::new();
        m2.gauge_set("lat.p50", f64::NAN);
        m2.gauge_set("lat.p90", 3.0);
        let roundtrip =
            MetricsSnapshot::from_json_str(&m2.snapshot().to_json().to_string()).unwrap();
        let report = crate::diff::diff(&full.snapshot(), &roundtrip, 0.10);
        assert!(report.regressions().is_empty());
        assert_eq!(report.missing, vec!["gauge.lat.p50 (only in old)"]);
    }

    #[test]
    fn registry_and_snapshot_roundtrip() {
        let m = Metrics::new();
        m.counter_add("kernel.fused.launches", 2);
        m.counter_add("kernel.fused.launches", 1);
        m.gauge_set("device.peak_mem_bytes", 1024.0);
        for v in [1.0, 2.0, 3.0] {
            m.observe("kernel.fused.gpu_time_ms", v);
        }
        let snap = m.snapshot();
        assert_eq!(snap.counters["kernel.fused.launches"], 3);
        assert_eq!(snap.histograms["kernel.fused.gpu_time_ms"].p50, 2.0);
        let text = snap.to_json().to_string();
        let back = MetricsSnapshot::from_json_str(&text).unwrap();
        assert_eq!(back, snap);
    }
}
