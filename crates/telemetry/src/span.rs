//! Nested timed spans: the [`crate::span!`] macro, the RAII
//! [`SpanGuard`], and the completed [`SpanRecord`].
//!
//! Nesting is tracked per thread with a thread-local stack of open span
//! ids, so records carry their parent id and depth and the exporters can
//! rebuild the span tree without any global ordering assumptions.

use std::cell::RefCell;

/// One completed span, as stored by the collector.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Unique id (process-wide, monotone).
    pub id: u64,
    /// Id of the enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Nesting depth (0 = top-level).
    pub depth: u32,
    /// Span name (a string literal at the call site).
    pub name: &'static str,
    /// Key/value arguments captured at entry.
    pub args: Vec<(&'static str, String)>,
    /// Telemetry thread id (small, assigned per thread on first use).
    pub tid: u64,
    /// Start, nanoseconds since the collector epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the collector epoch.
    pub end_ns: u64,
}

impl SpanRecord {
    /// Span duration in microseconds.
    pub(crate) fn dur_us(&self) -> f64 {
        (self.end_ns.saturating_sub(self.start_ns)) as f64 / 1e3
    }
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard for an open span; records the completed span on drop.
///
/// Construct through [`crate::span!`] — the macro checks the global
/// enabled flag first, so disabled call sites evaluate nothing and
/// allocate nothing.
#[derive(Debug)]
pub struct SpanGuard {
    id: u64,
    parent: Option<u64>,
    depth: u32,
    name: &'static str,
    args: Vec<(&'static str, String)>,
    tid: u64,
    start_ns: u64,
}

impl SpanGuard {
    /// Open a span now. Used by the `span!` macro; prefer the macro.
    pub fn enter(name: &'static str, args: Vec<(&'static str, String)>) -> Self {
        let c = crate::collector();
        let id = c.alloc_span_id();
        let (parent, depth) = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            let depth = s.len() as u32;
            s.push(id);
            (parent, depth)
        });
        Self {
            id,
            parent,
            depth,
            name,
            args,
            tid: crate::current_tid(),
            start_ns: c.now_ns(),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let c = crate::collector();
        let end_ns = c.now_ns();
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Guards drop in reverse creation order under normal RAII use;
            // tolerate out-of-order drops rather than panicking in a drop.
            if s.last() == Some(&self.id) {
                s.pop();
            } else if let Some(pos) = s.iter().rposition(|&id| id == self.id) {
                s.remove(pos);
            }
        });
        c.record_span(SpanRecord {
            id: self.id,
            parent: self.parent,
            depth: self.depth,
            name: self.name,
            args: std::mem::take(&mut self.args),
            tid: self.tid,
            start_ns: self.start_ns,
            end_ns,
        });
    }
}

/// Open a timed span for the rest of the enclosing scope.
///
/// Returns `Option<SpanGuard>`: `None` (and **no evaluation of the
/// arguments, no allocation**) when collection is disabled. Bind it to
/// keep the span open:
///
/// ```
/// telemetry::set_enabled(true);
/// {
///     let _conv = telemetry::span!("conv", model = "gcn", vertices = 100usize);
///     let _upload = telemetry::span!("upload");
/// } // spans close here, innermost first
/// let spans = telemetry::collector().spans_snapshot();
/// assert!(spans.iter().any(|s| s.name == "upload" && s.parent.is_some()));
/// telemetry::set_enabled(false);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr $(,)?) => {
        if $crate::enabled() {
            ::core::option::Option::Some($crate::span::SpanGuard::enter($name, ::std::vec::Vec::new()))
        } else {
            ::core::option::Option::None
        }
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        if $crate::enabled() {
            ::core::option::Option::Some($crate::span::SpanGuard::enter(
                $name,
                ::std::vec![$((::core::stringify!($key), ::std::format!("{}", $value))),+],
            ))
        } else {
            ::core::option::Option::None
        }
    };
}
