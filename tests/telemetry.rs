//! Integration: the telemetry subsystem observing a real engine run.
//!
//! These tests drive `TlpgnnEngine::conv` and `NativeEngine::conv` with
//! collection enabled and assert the whole pipeline — span trees,
//! auto-published kernel metrics, simulator timelines, folded stacks and
//! the Chrome-trace export — hangs together.
//! They share the process-global collector, so they serialize on a mutex.

use std::sync::{Mutex, MutexGuard, OnceLock};

use gpu_sim::DeviceConfig;
use tlpgnn::{EngineOptions, GnnModel, NativeEngine, TlpgnnEngine};
use tlpgnn_graph::generators;
use tlpgnn_tensor::Matrix;

fn telemetry_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Run one GCN conv with collection on; collector state is left for the
/// caller to inspect (still enabled=false on return).
fn run_conv_collected() -> (Matrix, gpu_sim::OpProfile) {
    telemetry::reset();
    telemetry::set_enabled(true);
    let g = generators::rmat_default(200, 1500, 11);
    let x = Matrix::random(200, 32, 1.0, 12);
    let mut e = TlpgnnEngine::new(DeviceConfig::test_small(), EngineOptions::default());
    let out = e.conv(&GnnModel::Gcn, &g, &x);
    telemetry::set_enabled(false);
    out
}

#[test]
fn conv_produces_expected_span_tree() {
    let _guard = telemetry_lock();
    let _ = run_conv_collected();
    let spans = telemetry::collector().spans_snapshot();

    let conv = spans
        .iter()
        .find(|s| s.name == "tlpgnn.conv")
        .expect("conv span recorded");
    assert!(conv.parent.is_none(), "conv is a root span");
    assert!(conv.end_ns >= conv.start_ns);
    assert!(
        conv.args.iter().any(|(k, v)| *k == "model" && v == "GCN"),
        "conv span carries the model arg: {:?}",
        conv.args
    );

    for child_name in ["upload", "kernel", "readback"] {
        let child = spans
            .iter()
            .find(|s| s.name == child_name)
            .unwrap_or_else(|| panic!("{child_name} span recorded"));
        assert_eq!(child.parent, Some(conv.id), "{child_name} nests under conv");
        assert_eq!(child.depth, conv.depth + 1);
        assert!(child.start_ns >= conv.start_ns && child.end_ns <= conv.end_ns);
    }
}

#[test]
fn native_conv_produces_expected_span_tree() {
    let _guard = telemetry_lock();
    telemetry::reset();
    telemetry::set_enabled(true);
    let g = generators::rmat_default(200, 1500, 11);
    let x = Matrix::random(200, 32, 1.0, 12);
    let _ = NativeEngine::default().conv(&GnnModel::Gcn, &g, &x);
    telemetry::set_enabled(false);
    let c = telemetry::collector();
    let spans = c.spans_snapshot();

    let conv = spans
        .iter()
        .find(|s| s.name == "native.conv")
        .expect("native.conv span recorded");
    assert!(conv.parent.is_none(), "native.conv is a root span");
    assert!(
        conv.args.iter().any(|(k, v)| *k == "model" && v == "GCN"),
        "native.conv carries the model arg: {:?}",
        conv.args
    );
    for child_name in ["native.prepare", "native.aggregate"] {
        let child = spans
            .iter()
            .find(|s| s.name == child_name)
            .unwrap_or_else(|| panic!("{child_name} span recorded"));
        assert_eq!(child.parent, Some(conv.id), "{child_name} nests under conv");
        assert!(child.start_ns >= conv.start_ns && child.end_ns <= conv.end_ns);
    }
    let folded = telemetry::export::folded_stacks(c);
    assert!(
        folded.contains("native.conv;native.aggregate"),
        "folded stacks attribute the aggregation: {folded}"
    );
}

#[test]
fn conv_publishes_kernel_metrics_and_timeline() {
    let _guard = telemetry_lock();
    let (_, op) = run_conv_collected();
    let c = telemetry::collector();

    let kernels = c.kernel_samples_snapshot();
    assert!(!kernels.is_empty(), "launch published a kernel sample");
    let name = &kernels[0].name;
    assert!((kernels[0].gpu_time_ms - op.gpu_time_ms).abs() < 1e-9);

    let snap = c.metrics().snapshot();
    let hist = snap
        .histograms
        .get(&format!("kernel.{name}.gpu_time_ms"))
        .expect("gpu_time_ms histogram exists");
    assert_eq!(hist.count, 1);
    assert!(hist.p50 > 0.0);
    assert_eq!(
        snap.counters.get(&format!("kernel.{name}.launches")),
        Some(&1)
    );
    assert!(
        snap.counters
            .keys()
            .any(|k| k.starts_with(&format!("kernel.{name}.limiter."))),
        "limiter counter published"
    );

    let timelines = c.timelines_snapshot();
    assert_eq!(timelines.len(), 1, "one launch, one timeline");
    let t = &timelines[0];
    assert_eq!(&t.kernel, name);
    assert!(!t.sms.is_empty());
    let blocks: usize = t.sms.iter().map(|s| s.blocks.len()).sum();
    assert!(blocks > 0, "timeline carries block slices");
}

#[test]
fn chrome_trace_export_of_real_run_is_valid_json() {
    let _guard = telemetry_lock();
    let _ = run_conv_collected();
    let c = telemetry::collector();

    let trace = telemetry::export::chrome_trace(c);
    let text = trace.to_string();
    let parsed = telemetry::json::parse(&text).expect("trace round-trips");
    let events = parsed
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let complete = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .count();
    // 4 host spans (conv + upload/kernel/readback), 1 kernel launch
    // event, plus at least one per-SM block slice.
    assert!(
        complete >= 6,
        "expected >= 6 complete events, got {complete}"
    );

    let metrics = telemetry::export::metrics_json(c).to_string();
    let reparsed = telemetry::MetricsSnapshot::from_json_str(&metrics).expect("metrics reparse");
    assert!(!reparsed.histograms.is_empty());
}

#[test]
fn disabled_collection_records_nothing() {
    let _guard = telemetry_lock();
    telemetry::reset();
    telemetry::set_enabled(false);
    let g = generators::rmat_default(100, 600, 13);
    let x = Matrix::random(100, 16, 1.0, 14);
    let mut e = TlpgnnEngine::new(DeviceConfig::test_small(), EngineOptions::default());
    let _ = e.conv(&GnnModel::Gcn, &g, &x);
    let c = telemetry::collector();
    assert!(c.spans_snapshot().is_empty());
    assert!(c.kernel_samples_snapshot().is_empty());
    assert!(c.timelines_snapshot().is_empty());
    assert!(c.metrics().snapshot().histograms.is_empty());
}
