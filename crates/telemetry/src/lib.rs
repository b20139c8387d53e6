//! # telemetry — structured tracing and metrics for the TLPGNN stack
//!
//! A lightweight, **zero-dependency** observability layer shared by the
//! simulator (`gpu-sim`), the engine (`tlpgnn`), the baselines, and the
//! bench harness:
//!
//! * **Spans** — [`span!`] opens a nested, timed span recorded by a
//!   global thread-safe collector (`span!("launch", kernel = name)`).
//! * **Metrics** — a registry of counters / gauges / histograms
//!   ([`metrics::Metrics`]); `gpu_sim::Device::launch` publishes every
//!   kernel profile into it automatically under `kernel.<name>.*`.
//! * **Exporters** — Chrome `trace_event` JSON (open in
//!   [Perfetto](https://ui.perfetto.dev) or `chrome://tracing`) with
//!   per-SM block/kernel timelines from the simulator's list schedule, a
//!   JSONL event log, and a `metrics.json` snapshot
//!   ([`export`]), plus snapshot diffing for regression gating
//!   ([`diff`], surfaced as the `telemetry-diff` binary).
//!
//! ## Zero cost when disabled
//!
//! Collection is off by default behind one atomic flag. Every recording
//! entry point — the [`span!`] macro, [`counter_add`], [`observe`],
//! [`record_kernel`] — checks [`enabled`] first and returns before
//! evaluating arguments or allocating, so instrumented hot paths cost a
//! relaxed atomic load per call site when tracing is off (verified by the
//! `zero_cost` integration test with a counting allocator).
//!
//! ## Typical use
//!
//! ```
//! telemetry::set_enabled(true);
//! {
//!     let _outer = telemetry::span!("conv", model = "gcn");
//!     telemetry::observe("kernel.demo.gpu_time_ms", 1.25);
//!     telemetry::counter_add("kernel.demo.launches", 1);
//! }
//! let dir = std::env::temp_dir().join("telemetry-doc");
//! telemetry::export::write_chrome_trace(telemetry::collector(), dir.join("trace.json")).unwrap();
//! telemetry::export::write_metrics_json(telemetry::collector(), dir.join("metrics.json")).unwrap();
//! telemetry::set_enabled(false);
//! ```

#![warn(missing_docs)]

pub mod alloc;
pub mod diff;
pub mod export;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod sim;
pub mod slo;
pub mod span;
pub mod trace;

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub use metrics::{Histogram, HistogramSummary, Metrics, MetricsSnapshot};
pub use sim::{BlockSlice, KernelSample, SimKernelTimeline, SmTimeline, MAX_BLOCK_EVENTS};
pub use slo::{SloMonitor, SloReport, SloSpec};
pub use span::{SpanGuard, SpanRecord};
pub use trace::{TraceChain, TraceContext, TraceEvent};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether collection is enabled. This is the hot-path check: a relaxed
/// atomic load, nothing else.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn collection on or off (process-wide).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// The global collector: completed spans, kernel samples, simulator
/// timelines, and the metrics registry.
#[derive(Debug)]
pub struct Collector {
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
    kernels: Mutex<Vec<KernelSample>>,
    timelines: Mutex<Vec<SimKernelTimeline>>,
    traces: Mutex<Vec<TraceChain>>,
    thread_names: Mutex<BTreeMap<u64, String>>,
    metrics: Metrics,
    next_span_id: AtomicU64,
    next_tid: AtomicU64,
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

impl Collector {
    /// A fresh, empty collector with its epoch at "now". The process
    /// normally uses the global one (see [`collector`]); tests build
    /// their own.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            kernels: Mutex::new(Vec::new()),
            timelines: Mutex::new(Vec::new()),
            traces: Mutex::new(Vec::new()),
            thread_names: Mutex::new(BTreeMap::new()),
            metrics: Metrics::new(),
            next_span_id: AtomicU64::new(1),
            next_tid: AtomicU64::new(1),
        }
    }

    /// Nanoseconds since this collector's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Allocate a unique span id.
    pub(crate) fn alloc_span_id(&self) -> u64 {
        self.next_span_id.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn alloc_tid(&self) -> u64 {
        self.next_tid.fetch_add(1, Ordering::Relaxed)
    }

    /// Store a completed span (called by [`SpanGuard`] on drop).
    pub fn record_span(&self, s: SpanRecord) {
        self.metrics.counter_add("telemetry.self.spans", 1);
        self.spans.lock().unwrap().push(s);
    }

    /// Store a completed causal chain (called by
    /// [`trace::TraceContext::finish`]).
    pub(crate) fn record_trace(&self, chain: TraceChain) {
        self.metrics.counter_add("telemetry.self.traces", 1);
        self.metrics
            .counter_add("telemetry.self.trace_events", chain.events.len() as u64);
        self.traces.lock().unwrap().push(chain);
    }

    /// Remember a display name for a telemetry thread id (the Chrome
    /// trace exporter renders it as the track name).
    fn register_thread_name(&self, tid: u64, name: &str) {
        self.thread_names
            .lock()
            .unwrap()
            .insert(tid, name.to_string());
    }

    /// Clone of the tid → display-name map.
    pub(crate) fn thread_names_snapshot(&self) -> BTreeMap<u64, String> {
        self.thread_names.lock().unwrap().clone()
    }

    /// Store a kernel sample and publish it into the metrics registry as
    /// `kernel.<name>.{gpu_time_ms, sectors_per_request,
    /// achieved_occupancy, sm_utilization}` histograms plus `launches`
    /// and `limiter.<limiter>` counters.
    pub fn record_kernel(&self, sample: KernelSample) {
        let m = &self.metrics;
        m.counter_add("telemetry.self.kernel_samples", 1);
        let k = &sample.name;
        m.observe(&format!("kernel.{k}.gpu_time_ms"), sample.gpu_time_ms);
        m.observe(
            &format!("kernel.{k}.sectors_per_request"),
            sample.sectors_per_request,
        );
        m.observe(
            &format!("kernel.{k}.achieved_occupancy"),
            sample.achieved_occupancy,
        );
        m.observe(&format!("kernel.{k}.sm_utilization"), sample.sm_utilization);
        m.counter_add(&format!("kernel.{k}.launches"), 1);
        m.counter_add(&format!("kernel.{k}.limiter.{}", sample.limiter), 1);
        self.kernels.lock().unwrap().push(sample);
    }

    /// Store one launch's per-SM timeline for the trace exporter.
    pub fn record_sim_timeline(&self, t: SimKernelTimeline) {
        self.timelines.lock().unwrap().push(t);
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Clone of every completed span so far.
    pub fn spans_snapshot(&self) -> Vec<SpanRecord> {
        self.spans.lock().unwrap().clone()
    }

    /// Clone of every kernel sample so far.
    pub fn kernel_samples_snapshot(&self) -> Vec<KernelSample> {
        self.kernels.lock().unwrap().clone()
    }

    /// Clone of every simulator timeline so far.
    pub fn timelines_snapshot(&self) -> Vec<SimKernelTimeline> {
        self.timelines.lock().unwrap().clone()
    }

    /// Clone of every completed causal chain so far.
    pub(crate) fn traces_snapshot(&self) -> Vec<TraceChain> {
        self.traces.lock().unwrap().clone()
    }

    /// Remove and return every completed causal chain (per-scenario
    /// isolation for harnesses that validate chains between runs).
    pub fn take_traces(&self) -> Vec<TraceChain> {
        std::mem::take(&mut *self.traces.lock().unwrap())
    }

    /// Drop all recorded events and metrics (run-over-run isolation).
    /// Span/thread id counters keep counting; the epoch and thread
    /// names are unchanged.
    pub fn reset(&self) {
        self.spans.lock().unwrap().clear();
        self.kernels.lock().unwrap().clear();
        self.timelines.lock().unwrap().clear();
        self.traces.lock().unwrap().clear();
        self.metrics.reset();
    }
}

static COLLECTOR: OnceLock<Collector> = OnceLock::new();

/// The process-wide collector (created on first use).
pub fn collector() -> &'static Collector {
    COLLECTOR.get_or_init(Collector::new)
}

/// Clear the global collector's events and metrics, and the flight
/// recorder's ring.
pub fn reset() {
    collector().reset();
    flight::recorder().reset();
}

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
}

/// Small per-thread id for trace tracks (assigned on first use). The
/// OS thread's name is captured at assignment time so exported tracks
/// carry legible labels (`serve-worker-0.1`) instead of raw tids.
pub(crate) fn current_tid() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            let c = collector();
            let tid = c.alloc_tid();
            t.set(tid);
            match std::thread::current().name() {
                Some(name) if !name.is_empty() => c.register_thread_name(tid, name),
                _ => c.register_thread_name(tid, &format!("thread {tid}")),
            }
        }
        t.get()
    })
}

/// Add to a counter in the global registry; no-op (and no allocation)
/// when collection is disabled.
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    if enabled() {
        collector().metrics().counter_add(name, delta);
    }
}

/// Set a gauge in the global registry; no-op when disabled.
#[inline]
pub fn gauge_set(name: &str, v: f64) {
    if enabled() {
        collector().metrics().gauge_set(name, v);
    }
}

/// Record a histogram sample in the global registry; no-op when disabled.
#[inline]
pub fn observe(name: &str, v: f64) {
    if enabled() {
        collector().metrics().observe(name, v);
    }
}

/// Publish one kernel launch's metrics; no-op when disabled. Callers on
/// hot paths should guard sample construction with [`enabled`] so the
/// strings are never built when collection is off.
#[inline]
pub fn record_kernel(sample: KernelSample) {
    if enabled() {
        collector().record_kernel(sample);
    }
}

/// Publish one launch's per-SM timeline; no-op when disabled.
#[inline]
pub fn record_sim_timeline(t: SimKernelTimeline) {
    if enabled() {
        collector().record_sim_timeline(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// Unit tests that touch the global enabled flag / collector must not
    /// interleave; cargo runs `#[test]`s on parallel threads.
    fn global_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn span_nesting_and_timing() {
        let _g = global_lock();
        reset();
        set_enabled(true);
        {
            let _a = span!("outer", phase = "test");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _b = span!("inner");
            }
            let _c = span!("sibling");
        }
        set_enabled(false);
        let spans = collector().spans_snapshot();
        let find = |name: &str| spans.iter().find(|s| s.name == name).unwrap();
        let outer = find("outer");
        let inner = find("inner");
        let sibling = find("sibling");
        assert_eq!(outer.depth, 0);
        assert_eq!(outer.parent, None);
        assert_eq!(inner.depth, 1);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(sibling.parent, Some(outer.id));
        assert_eq!(outer.args, vec![("phase", "test".to_string())]);
        // Children close before the parent and fit inside it.
        assert!(outer.start_ns <= inner.start_ns);
        assert!(inner.end_ns <= outer.end_ns);
        assert!(outer.end_ns - outer.start_ns >= 2_000_000, "slept 2ms");
        assert!(inner.end_ns <= sibling.start_ns, "siblings ordered");
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = global_lock();
        reset();
        set_enabled(false);
        let g = span!("ghost", x = 1);
        assert!(g.is_none());
        drop(g);
        assert!(collector().spans_snapshot().is_empty());
    }

    #[test]
    fn kernel_samples_feed_metrics() {
        let _g = global_lock();
        reset();
        set_enabled(true);
        for ms in [1.0, 2.0] {
            record_kernel(KernelSample {
                name: "fused_gcn".into(),
                gpu_time_ms: ms,
                runtime_ms: ms + 0.01,
                sectors_per_request: 4.0,
                achieved_occupancy: 0.5,
                sm_utilization: 0.3,
                limiter: "bandwidth".into(),
            });
        }
        set_enabled(false);
        let snap = collector().metrics().snapshot();
        assert_eq!(snap.counters["kernel.fused_gcn.launches"], 2);
        assert_eq!(snap.counters["kernel.fused_gcn.limiter.bandwidth"], 2);
        assert_eq!(snap.histograms["kernel.fused_gcn.gpu_time_ms"].count, 2);
        assert_eq!(snap.histograms["kernel.fused_gcn.gpu_time_ms"].p50, 1.0);
    }

    #[test]
    fn spans_record_across_threads() {
        let _g = global_lock();
        reset();
        set_enabled(true);
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let _s = span!("worker", idx = i);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        set_enabled(false);
        let spans = collector().spans_snapshot();
        let workers: Vec<_> = spans.iter().filter(|s| s.name == "worker").collect();
        assert_eq!(workers.len(), 4);
        let tids: std::collections::BTreeSet<u64> = workers.iter().map(|s| s.tid).collect();
        assert_eq!(tids.len(), 4, "each thread gets its own track");
    }
}
