//! Proof that telemetry is zero-cost when disabled: with the enabled
//! flag off, instrumented call sites perform **zero heap allocations**.
//! A counting global allocator makes that a hard assertion rather than a
//! code-review claim.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

#[test]
fn disabled_telemetry_allocates_nothing() {
    telemetry::set_enabled(false);
    // Warm up lazies (thread locals, etc.) outside the measured window.
    {
        let g = telemetry::span!("warmup", i = 0);
        assert!(g.is_none());
        telemetry::counter_add("warmup", 1);
        telemetry::observe("warmup", 1.0);
        telemetry::gauge_set("warmup", 1.0);
    }

    // The trace context itself allocates once at request admission;
    // create it outside the measured window like the warmup above.
    let trace = telemetry::TraceContext::new(1);

    let before = allocations();
    for i in 0..10_000u64 {
        // The launch-shaped hot path: a span with formatted args, a
        // counter bump, and a histogram sample per "launch".
        let g = telemetry::span!("launch", kernel = "fused_gcn", seq = i);
        assert!(g.is_none());
        telemetry::counter_add("kernel.fused_gcn.launches", 1);
        telemetry::observe("kernel.fused_gcn.gpu_time_ms", i as f64);
        telemetry::gauge_set("device.mem", i as f64);
        // The request-shaped hot path: causal events never format their
        // detail strings (the closure must not even run) when disabled.
        trace.push("pickup", || format!("batch={i}"));
        telemetry::trace::set_current(i);
    }
    telemetry::trace::set_current(0);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "disabled telemetry must not allocate on hot paths"
    );

    // Sanity check that the counter actually counts (the assertion above
    // is meaningless if the instrumentation never allocates at all).
    let before = allocations();
    telemetry::set_enabled(true);
    {
        let _g = telemetry::span!("enabled", kernel = "fused_gcn");
        telemetry::observe("kernel.fused_gcn.gpu_time_ms", 1.0);
    }
    telemetry::set_enabled(false);
    assert!(allocations() > before, "enabled path does allocate");
}
