//! Exporters: Chrome `trace_event` JSON (loadable in Perfetto or
//! `chrome://tracing`), self-time folded stacks (flame-graph input), and
//! the `metrics.json` snapshot.
//!
//! Trace layout:
//! * **pid 1 `host`** — one track per host thread (labelled with the OS
//!   thread's name when it has one); every [`SpanRecord`] becomes a
//!   `ph:"X"` complete event (RAII guarantees proper nesting).
//! * **pid 2 `requests`** — one track per traced request: each causal
//!   chain renders as a waterfall of complete events (each stage spans
//!   until the next event) ending in an instant terminal marker.
//! * **pid 100+d `sim-gpu-<d>`** — one track per simulated SM plus a
//!   `launches` track; each kernel launch becomes a complete event on the
//!   `launches` track and each scheduled block a complete event on its
//!   SM's track, laid out on the device's cumulative sim clock.

use std::collections::BTreeSet;
use std::io::Write;
use std::path::Path;

use crate::json::Value;
use crate::span::SpanRecord;
use crate::Collector;

/// The `tid` used for the per-device kernel-launch track.
pub const LAUNCH_TRACK_TID: u64 = 9999;

/// The `pid` of the per-request waterfall process.
pub(crate) const REQUEST_PID: u64 = 2;

fn meta(name: &str, pid: u64, tid: Option<u64>, label: &str) -> Value {
    let mut args = Value::object();
    args.set("name", label);
    let mut e = Value::object();
    e.set("name", name).set("ph", "M").set("pid", pid);
    if let Some(tid) = tid {
        e.set("tid", tid);
    }
    e.set("args", args);
    e
}

fn complete_event(
    name: &str,
    cat: &str,
    pid: u64,
    tid: u64,
    ts_us: f64,
    dur_us: f64,
    args: Value,
) -> Value {
    let mut e = Value::object();
    e.set("name", name)
        .set("cat", cat)
        .set("ph", "X")
        .set("pid", pid)
        .set("tid", tid)
        .set("ts", ts_us)
        .set("dur", dur_us)
        .set("args", args);
    e
}

fn instant_event(name: &str, cat: &str, pid: u64, tid: u64, ts_us: f64, args: Value) -> Value {
    let mut e = Value::object();
    e.set("name", name)
        .set("cat", cat)
        .set("ph", "i")
        .set("s", "t")
        .set("pid", pid)
        .set("tid", tid)
        .set("ts", ts_us)
        .set("args", args);
    e
}

fn span_event(s: &SpanRecord) -> Value {
    let mut args = Value::object();
    args.set("id", s.id).set("depth", s.depth);
    if let Some(p) = s.parent {
        args.set("parent", p);
    }
    for (k, v) in &s.args {
        args.set(*k, v.clone());
    }
    complete_event(
        s.name,
        "host",
        1,
        s.tid,
        s.start_ns as f64 / 1e3,
        s.dur_us(),
        args,
    )
}

/// Render the collector's state as a Chrome `trace_event` document.
pub fn chrome_trace(c: &Collector) -> Value {
    let mut events = Value::array();
    events.push(meta("process_name", 1, None, "host"));

    let spans = c.spans_snapshot();
    let names = c.thread_names_snapshot();
    let tids: BTreeSet<u64> = spans.iter().map(|s| s.tid).collect();
    for tid in tids {
        let label = names
            .get(&tid)
            .cloned()
            .unwrap_or_else(|| format!("thread {tid}"));
        events.push(meta("thread_name", 1, Some(tid), &label));
    }
    for s in &spans {
        events.push(span_event(s));
    }

    let traces = c.traces_snapshot();
    if !traces.is_empty() {
        events.push(meta("process_name", REQUEST_PID, None, "requests"));
    }
    for t in &traces {
        events.push(meta(
            "thread_name",
            REQUEST_PID,
            Some(t.id),
            &format!("req {}", t.id),
        ));
        // Waterfall: each stage occupies the time until the next event;
        // the terminal event is an instant marker.
        for pair in t.events.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            let mut args = Value::object();
            args.set("seq", a.seq);
            if !a.detail.is_empty() {
                args.set("detail", a.detail.clone());
            }
            events.push(complete_event(
                a.kind,
                "request",
                REQUEST_PID,
                t.id,
                a.t_ns as f64 / 1e3,
                (b.t_ns.saturating_sub(a.t_ns)) as f64 / 1e3,
                args,
            ));
        }
        if let Some(last) = t.events.last() {
            let mut args = Value::object();
            args.set("seq", last.seq);
            if !last.detail.is_empty() {
                args.set("detail", last.detail.clone());
            }
            events.push(instant_event(
                last.kind,
                "request",
                REQUEST_PID,
                t.id,
                last.t_ns as f64 / 1e3,
                args,
            ));
        }
    }

    let timelines = c.timelines_snapshot();
    let devices: BTreeSet<u64> = timelines.iter().map(|t| t.device).collect();
    for d in devices {
        let pid = 100 + d;
        events.push(meta("process_name", pid, None, &format!("sim-gpu-{d}")));
        events.push(meta("thread_name", pid, Some(LAUNCH_TRACK_TID), "launches"));
        let sms: BTreeSet<u32> = timelines
            .iter()
            .filter(|t| t.device == d)
            .flat_map(|t| t.sms.iter().map(|s| s.sm))
            .collect();
        for sm in sms {
            events.push(meta(
                "thread_name",
                pid,
                Some(sm as u64),
                &format!("SM {sm}"),
            ));
        }
    }
    for t in &timelines {
        let pid = 100 + t.device;
        let mut args = Value::object();
        args.set("launch_seq", t.launch_seq)
            .set("truncated", t.truncated);
        events.push(complete_event(
            &t.kernel,
            "sim.kernel",
            pid,
            LAUNCH_TRACK_TID,
            t.t0_us,
            t.gpu_time_us,
            args,
        ));
        for sm in &t.sms {
            for b in &sm.blocks {
                let (name, mut args) = if b.block == u32::MAX {
                    (format!("{} (envelope)", t.kernel), Value::object())
                } else {
                    let mut a = Value::object();
                    a.set("block", b.block);
                    (format!("{}[b{}]", t.kernel, b.block), a)
                };
                args.set("launch_seq", t.launch_seq);
                events.push(complete_event(
                    &name,
                    "sim.block",
                    pid,
                    sm.sm as u64,
                    t.t0_us + b.start_us,
                    b.dur_us,
                    args,
                ));
            }
        }
    }

    let mut doc = Value::object();
    doc.set("traceEvents", events).set("displayTimeUnit", "ms");
    doc
}

/// Render the collector's metrics registry as the `metrics.json` layout.
pub fn metrics_json(c: &Collector) -> Value {
    c.metrics().snapshot().to_json()
}

/// A frame name, made safe for the folded-stack line format: `;` is the
/// frame separator and the weight is whitespace-delimited at end of line.
fn folded_frame(name: &str) -> String {
    name.chars()
        .map(|c| match c {
            ';' => ':',
            c if c.is_control() => ' ',
            c => c,
        })
        .collect()
}

/// Render completed spans as folded stacks — the input format of
/// `flamegraph.pl`, inferno, and speedscope: one line per unique stack,
/// `root;child;leaf <self_time_ns>`, sorted by stack.
///
/// The weight of each line is the span's *self* time (duration minus the
/// summed durations of its direct children), so leaf-heavy hot paths
/// dominate the flame graph instead of every ancestor double-counting
/// its subtree; a flame graph still draws every frame at its inclusive
/// width, the sum of the lines beneath it. Spans from different threads
/// with the same stack of names aggregate into one line.
pub fn folded_stacks(c: &Collector) -> String {
    use std::collections::{BTreeMap, HashMap};
    let spans = c.spans_snapshot();
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in &spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_insert(0) += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    for s in &spans {
        let total = s.end_ns.saturating_sub(s.start_ns);
        let weight = total.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        if weight == 0 {
            continue;
        }
        let mut frames = vec![folded_frame(s.name)];
        let mut cur = s.parent;
        while let Some(pid) = cur {
            // A parent id can be absent if the collector was reset while
            // the parent guard was still open; treat the span as a root.
            match by_id.get(&pid) {
                Some(p) => {
                    frames.push(folded_frame(p.name));
                    cur = p.parent;
                }
                None => break,
            }
        }
        frames.reverse();
        *folded.entry(frames.join(";")).or_insert(0) += weight;
    }
    let mut out = String::new();
    for (stack, ns) in folded {
        out.push_str(&stack);
        out.push(' ');
        out.push_str(&ns.to_string());
        out.push('\n');
    }
    out
}

fn write_text(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(text.as_bytes())
}

/// Write the Chrome trace to `path` (open with Perfetto / chrome://tracing).
pub fn write_chrome_trace(c: &Collector, path: impl AsRef<Path>) -> std::io::Result<()> {
    write_text(path.as_ref(), &chrome_trace(c).to_string())
}

/// Write the metrics snapshot to `path`.
pub fn write_metrics_json(c: &Collector, path: impl AsRef<Path>) -> std::io::Result<()> {
    write_text(path.as_ref(), &metrics_json(c).to_string())
}

/// Write the folded-stack flamegraph input to `path` (feed to
/// `flamegraph.pl` or drop into speedscope).
pub fn write_folded_stacks(c: &Collector, path: impl AsRef<Path>) -> std::io::Result<()> {
    write_text(path.as_ref(), &folded_stacks(c))
}
