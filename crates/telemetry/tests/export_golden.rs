//! Golden-file test for the folded-stack flamegraph exporter and an
//! escaping test for `chrome_trace`: span names containing quotes,
//! backslashes, and newlines must survive a JSON round trip exactly.

use telemetry::export;
use telemetry::json::{self, Value};
use telemetry::{Collector, SpanRecord};

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
        args: Vec::new(),
        tid: 1,
        start_ns: t0,
        end_ns: t1,
    }
}

/// The span tree used by `trace_golden.rs`: conv(0..45000) enclosing
/// upload(1000..5000), kernel(5000..40000), readback(41000..44000).
/// Self times: conv 45000-42000=3000, upload 4000, kernel 35000,
/// readback 3000.
fn build_collector() -> Collector {
    let c = Collector::new();
    c.record_span(span(2, Some(1), 1, "upload", 1_000, 5_000));
    c.record_span(span(3, Some(1), 1, "kernel", 5_000, 40_000));
    c.record_span(span(4, Some(1), 1, "readback", 41_000, 44_000));
    c.record_span(span(1, None, 0, "conv", 0, 45_000));
    c
}

#[test]
fn folded_stacks_match_golden_file() {
    let c = build_collector();
    let text = export::folded_stacks(&c);
    let golden = include_str!("golden/folded.txt");
    assert_eq!(
        text, golden,
        "folded-stack output drifted from tests/golden/folded.txt; \
         update the golden file only on an intentional format change"
    );
}

#[test]
fn folded_stacks_skip_zero_self_time_and_merge_threads() {
    let c = Collector::new();
    // Parent fully covered by its child: zero self time, no line.
    c.record_span(span(1, None, 0, "outer", 0, 10_000));
    c.record_span(span(2, Some(1), 1, "inner", 0, 10_000));
    // Same stack of names on another thread merges into one line.
    let mut s = span(3, None, 0, "outer", 0, 4_000);
    s.tid = 2;
    c.record_span(s);
    let mut s = span(4, Some(3), 1, "inner", 0, 1_000);
    s.tid = 2;
    c.record_span(s);
    let text = export::folded_stacks(&c);
    assert_eq!(text, "outer 3000\nouter;inner 11000\n");
}

#[test]
fn folded_stacks_sanitize_separator_and_control_chars() {
    let c = Collector::new();
    c.record_span(span(1, None, 0, "a;b\nc", 0, 1_000));
    let text = export::folded_stacks(&c);
    assert_eq!(text, "a:b c 1000\n");
}

#[test]
fn chrome_trace_escapes_hostile_span_names() {
    let hostile: &'static str = "he said \"hi\\there\"\nnew\tline";
    let c = Collector::new();
    let mut s = span(1, None, 0, hostile, 0, 5_000);
    s.args = vec![("note", "quote \" backslash \\ newline \n".to_string())];
    c.record_span(s);

    let text = export::chrome_trace(&c).to_string();
    let doc = json::parse(&text).expect("chrome_trace must emit valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents array");
    let ev = events
        .iter()
        .find(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .expect("one complete event");
    assert_eq!(
        ev.get("name").and_then(Value::as_str),
        Some(hostile),
        "span name must round-trip byte-for-byte through JSON escaping"
    );
    assert_eq!(
        ev.get("args")
            .and_then(|a| a.get("note"))
            .and_then(Value::as_str),
        Some("quote \" backslash \\ newline \n"),
    );
}

#[test]
fn write_folded_stacks_roundtrip() {
    let c = build_collector();
    let dir = std::env::temp_dir().join(format!("tlpgnn-folded-test-{}", std::process::id()));
    let path = dir.join("out.folded.txt");
    export::write_folded_stacks(&c, &path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(text, include_str!("golden/folded.txt"));
    std::fs::remove_dir_all(&dir).ok();
}
