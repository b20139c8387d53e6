//! The benchmark's own spans: recorded around calls into each layer from
//! the benchmark's files only, kept in a preallocated vector, written
//! once at exit. Spans inside `crates/` are a later change.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use telemetry::json::Value;

/// Parent id of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<what>`; the part before the first dot names the layer.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`ROOT`].
    pub parent: u32,
    /// Spans of one request share an identifier (0 = not a request).
    pub request_id: u64,
}

/// In-memory span recorder. When off, `record` does nothing, so the
/// untraced pass pays one branch per would-be span.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// A recorder with room for `capacity` spans; further spans are
    /// counted as dropped instead of growing the vector mid-measurement.
    pub fn new(on: bool, capacity: usize) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::with_capacity(if on { capacity } else { 0 }),
            dropped: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Switch recording on or off (the traced pass alternates to price
    /// its own overhead).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Run `f` with recording off — warm-up is set-up, not the measured
    /// workload — and restore the previous state.
    pub fn paused<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let was_on = std::mem::replace(&mut self.on, false);
        let r = f(self);
        self.on = was_on;
        r
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// `t` on the tracer's clock, ns (0 for instants before its start).
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record one finished span; returns its id for children to name as
    /// parent ([`ROOT`] when recording is off or the buffer is full).
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        request_id: u64,
    ) -> u32 {
        if !self.on {
            return ROOT;
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return ROOT;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            request_id,
        });
        (self.spans.len() - 1) as u32
    }

    /// Open a span whose children will be recorded before it ends;
    /// [`close`](Self::close) sets its end.
    pub fn open(&mut self, name: &'static str, parent: u32, request_id: u64) -> u32 {
        let now = self.now_ns();
        self.record(name, now, now, parent, request_id)
    }

    /// End a span opened with [`open`](Self::open) now.
    pub fn close(&mut self, id: u32) {
        let now = self.now_ns();
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.end_ns = now;
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn scope<R>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> R) -> R {
        let t0 = self.now_ns();
        let r = f();
        let t1 = self.now_ns();
        self.record(name, t0, t1, parent, 0);
        r
    }

    /// Durations, ms, of every span named `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Self time per layer, ns, largest first: each span's duration minus
    /// the part of it its children cover, summed by layer.
    pub fn layer_self_ns(&self) -> Vec<(String, u64)> {
        let selfs = self_times(&self.spans);
        let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(selfs) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *by_layer.entry(layer).or_default() += t;
        }
        let mut v: Vec<(String, u64)> = by_layer
            .into_iter()
            .map(|(k, t)| (k.to_string(), t))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }

    /// Write `<workload>.trace.json` (Chrome `trace_event`) and
    /// `<workload>.layers.json` into `dir`, creating it.
    pub fn write(&self, dir: &Path, workload: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut events = Value::array();
        for (i, s) in self.spans.iter().enumerate() {
            let mut args = Value::object();
            args.set("id", i)
                .set(
                    "parent",
                    if s.parent == ROOT {
                        -1i64
                    } else {
                        i64::from(s.parent)
                    },
                )
                .set("request_id", s.request_id);
            let mut e = Value::object();
            e.set("name", s.name)
                .set("ph", "X")
                .set("ts", s.start_ns as f64 / 1e3)
                .set("dur", (s.end_ns - s.start_ns) as f64 / 1e3)
                .set("pid", 1u32)
                // Requests overlap in time; spread them over lanes so the
                // viewer nests only spans of the same request.
                .set("tid", s.request_id % 64)
                .set("args", args);
            events.push(e);
        }
        let mut trace = Value::object();
        trace
            .set("workload", workload)
            .set("dropped_spans", self.dropped)
            .set("traceEvents", events);
        write_all(
            &dir.join(format!("{workload}.trace.json")),
            &trace.to_string(),
        )?;

        let layers = self.layer_self_ns();
        let total: u64 = layers.iter().map(|l| l.1).sum();
        let mut rows = Value::array();
        for (layer, ns) in &layers {
            let mut row = Value::object();
            row.set("layer", layer.as_str())
                .set("self_ms", *ns as f64 / 1e6)
                .set("share", *ns as f64 / total.max(1) as f64);
            rows.push(row);
        }
        let mut doc = Value::object();
        doc.set("workload", workload)
            .set("traced_ms", total as f64 / 1e6)
            .set("layers", rows);
        write_all(
            &dir.join(format!("{workload}.layers.json")),
            &doc.to_string(),
        )
    }
}

fn write_all(path: &Path, text: &str) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(text.as_bytes())?;
    f.write_all(b"\n")
}

/// Self time of every span: its duration minus the length of the union
/// of its children's intervals, clipped to the span itself.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(kids) = children.get_mut(s.parent as usize) {
            kids.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("bench.request", 0, 100, ROOT),
            // Two overlapping children cover [10, 50]; one sticks out
            // past the parent and is clipped to [90, 100].
            span("serve.queue", 10, 40, 0),
            span("serve.compute", 30, 50, 0),
            span("serve.extract", 90, 120, 0),
            // A grandchild takes time from its parent only.
            span("gpu_sim.launch", 35, 45, 2),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 10, 30, 10]);
    }

    #[test]
    fn self_time_of_a_fully_covered_span_is_zero() {
        let spans = vec![
            span("tensor.forward", 5, 25, ROOT),
            span("core.conv", 0, 15, 0),
            span("core.conv", 15, 30, 0),
        ];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn layers_sum_self_time_by_prefix() {
        let mut t = Tracer::new(true, 8);
        let root = t.record("tensor.forward", 0, 100, ROOT, 0);
        t.record("core.native.conv", 10, 40, root, 0);
        t.record("core.native.conv", 50, 70, root, 0);
        assert_eq!(
            t.layer_self_ns(),
            vec![("core".to_string(), 50), ("tensor".to_string(), 50)]
        );
        assert_eq!(t.durations_ms("core.native.conv"), vec![3e-5, 2e-5]);
    }

    #[test]
    fn off_or_full_records_nothing() {
        let mut off = Tracer::new(false, 8);
        assert_eq!(off.record("a.b", 0, 1, ROOT, 0), ROOT);
        assert!(off.spans.is_empty());
        let mut tiny = Tracer::new(true, 1);
        assert_eq!(tiny.record("a.b", 0, 1, ROOT, 0), 0);
        assert_eq!(tiny.record("a.b", 1, 2, ROOT, 0), ROOT);
        assert_eq!(tiny.spans.len(), 1);
        assert_eq!(tiny.dropped, 1);
    }
}
