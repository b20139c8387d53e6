//! Golden test for the Chrome `trace_event` exporter: the document must
//! be valid JSON, every event must carry the required fields, and the
//! `ph:"X"` complete events on each track must be properly nested (no
//! partial overlap) — the invariant Perfetto relies on to draw stacks.

use telemetry::export;
use telemetry::json::{self, Value};
use telemetry::{BlockSlice, Collector, KernelSample, SimKernelTimeline, SmTimeline, SpanRecord};

fn span(
    id: u64,
    parent: Option<u64>,
    depth: u32,
    name: &'static str,
    t0: u64,
    t1: u64,
) -> SpanRecord {
    SpanRecord {
        id,
        parent,
        depth,
        name,
        args: vec![("model", "gcn".to_string())],
        tid: 1,
        start_ns: t0,
        end_ns: t1,
    }
}

fn build_collector() -> Collector {
    let c = Collector::new();
    // A realistic little tree: conv{ upload, kernel{}, readback } + sibling.
    c.record_span(span(2, Some(1), 1, "upload", 1_000, 5_000));
    c.record_span(span(3, Some(1), 1, "kernel", 5_000, 40_000));
    c.record_span(span(4, Some(1), 1, "readback", 41_000, 44_000));
    c.record_span(span(1, None, 0, "conv", 0, 45_000));
    c.record_kernel(KernelSample {
        name: "fused_gcn".into(),
        gpu_time_ms: 0.03,
        runtime_ms: 0.035,
        sectors_per_request: 4.2,
        achieved_occupancy: 0.61,
        sm_utilization: 0.4,
        limiter: "bandwidth".into(),
    });
    c.record_sim_timeline(SimKernelTimeline {
        device: 0,
        kernel: "fused_gcn".into(),
        launch_seq: 1,
        t0_us: 5.0,
        gpu_time_us: 30.0,
        sms: vec![
            SmTimeline {
                sm: 0,
                blocks: vec![
                    BlockSlice {
                        block: 0,
                        start_us: 0.0,
                        dur_us: 12.0,
                    },
                    BlockSlice {
                        block: 2,
                        start_us: 12.5,
                        dur_us: 10.0,
                    },
                ],
            },
            SmTimeline {
                sm: 1,
                blocks: vec![BlockSlice {
                    block: 1,
                    start_us: 0.0,
                    dur_us: 29.0,
                }],
            },
        ],
        truncated: false,
    });
    c
}

/// Events on one (pid, tid) track must nest like a call stack: sorted by
/// start time, each event either starts after every open ancestor ends,
/// or lies entirely within the innermost open one.
fn assert_track_nesting(events: &[(f64, f64)]) {
    let mut sorted = events.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.total_cmp(&a.1)));
    let mut stack: Vec<(f64, f64)> = Vec::new();
    const EPS: f64 = 1e-9;
    for &(ts, dur) in &sorted {
        let end = ts + dur;
        while let Some(&(_, open_end)) = stack.last() {
            if ts >= open_end - EPS {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&(_, open_end)) = stack.last() {
            assert!(
                end <= open_end + EPS,
                "event [{ts}, {end}) partially overlaps enclosing event ending at {open_end}"
            );
        }
        stack.push((ts, end));
    }
}

#[test]
fn chrome_trace_is_valid_and_nested() {
    let c = build_collector();
    let text = export::chrome_trace(&c).to_string();

    // 1. Valid JSON.
    let doc = json::parse(&text).expect("exporter must emit valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    // 2. Every event is well-formed; collect X events per track.
    let mut tracks: std::collections::BTreeMap<(u64, u64), Vec<(f64, f64)>> =
        std::collections::BTreeMap::new();
    let mut x_events = 0;
    for e in events {
        let ph = e.get("ph").and_then(Value::as_str).expect("ph field");
        let pid = e.get("pid").and_then(Value::as_f64).expect("pid field") as u64;
        assert!(e.get("name").and_then(Value::as_str).is_some());
        match ph {
            "M" => {} // metadata: process_name / thread_name
            "X" => {
                x_events += 1;
                let tid = e.get("tid").and_then(Value::as_f64).expect("tid") as u64;
                let ts = e.get("ts").and_then(Value::as_f64).expect("ts");
                let dur = e.get("dur").and_then(Value::as_f64).expect("dur");
                assert!(dur >= 0.0);
                tracks.entry((pid, tid)).or_default().push((ts, dur));
            }
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    // 4 host spans + 1 launch event + 3 block events.
    assert_eq!(x_events, 8);

    // 3. Complete events nest properly on every track.
    for ((pid, tid), evs) in &tracks {
        assert_track_nesting(evs);
        let _ = (pid, tid);
    }

    // 4. The host track carries the span tree: conv encloses its
    // children on the same track.
    let host = &tracks[&(1, 1)];
    assert_eq!(host.len(), 4);

    // 5. Sim tracks exist: launches track + SM 0 + SM 1 under pid 100.
    assert!(tracks.contains_key(&(100, export::LAUNCH_TRACK_TID)));
    assert!(tracks.contains_key(&(100, 0)));
    assert!(tracks.contains_key(&(100, 1)));
}

#[test]
fn metrics_json_has_kernel_histograms() {
    let c = build_collector();
    let text = export::metrics_json(&c).to_string();
    let snap = telemetry::MetricsSnapshot::from_json_str(&text).unwrap();
    assert_eq!(snap.counters["kernel.fused_gcn.launches"], 1);
    assert_eq!(snap.counters["kernel.fused_gcn.limiter.bandwidth"], 1);
    for metric in ["gpu_time_ms", "sectors_per_request", "achieved_occupancy"] {
        let h = &snap.histograms[&format!("kernel.fused_gcn.{metric}")];
        assert_eq!(h.count, 1, "{metric}");
    }
}

#[test]
fn files_written_and_reparsable() {
    let c = build_collector();
    let dir = std::env::temp_dir().join(format!("tlpgnn-telemetry-test-{}", std::process::id()));
    let trace = dir.join("trace.json");
    let metrics = dir.join("metrics.json");
    export::write_chrome_trace(&c, &trace).unwrap();
    export::write_metrics_json(&c, &metrics).unwrap();
    for p in [&trace, &metrics] {
        let text = std::fs::read_to_string(p).unwrap();
        json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
    }
    std::fs::remove_dir_all(&dir).ok();
}
