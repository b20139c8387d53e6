//! Request-scoped causal tracing: [`TraceContext`], [`TraceEvent`], and
//! the completed [`TraceChain`].
//!
//! A `TraceContext` is allocated when a request is admitted and rides
//! along with it through every stage — queueing, worker pickup, cache
//! lookups, launch attempts, retries, supervisor salvage, degradation —
//! appending one [`TraceEvent`] per causal step. The context is a cheap
//! clone sharing one event chain, so a copy parked for crash salvage and
//! the copy a worker is processing write to the *same* history; whoever
//! resolves the request calls [`TraceContext::finish`] exactly once and
//! the chain is published to the global [`crate::Collector`].
//!
//! ## Determinism
//!
//! Trace ids and event sequence numbers derive from submission and
//! append *order*, never from the wall clock. Timestamps are carried for
//! waterfall rendering but excluded from [`TraceChain::canonical`], the
//! representation the chaos tests compare across same-seed runs.

use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Event kinds that terminate a chain. Exactly one of these appears per
/// chain, always last: `response` (request served, possibly degraded),
/// `error` (admitted but failed), `reject` (refused at admission).
pub(crate) const TERMINAL_KINDS: &[&str] = &["response", "error", "reject"];

/// One causal step in a request's life.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Owning trace (request) id; allocated in submission order.
    pub(crate) trace_id: u64,
    /// Position in the chain (0-based, dense, append order).
    pub(crate) seq: u32,
    /// Stage name (`submit`, `pickup`, `cache`, `retry`, `salvage`, …).
    pub kind: &'static str,
    /// Deterministic detail string (`attempt=2 backoff_us=800`).
    pub detail: String,
    /// Nanoseconds since the collector epoch — rendering only, never
    /// part of the canonical form.
    pub(crate) t_ns: u64,
}

impl TraceEvent {
    /// Whether this event kind terminates a chain.
    fn is_terminal(&self) -> bool {
        TERMINAL_KINDS.contains(&self.kind)
    }
}

#[derive(Debug)]
struct Inner {
    events: Vec<TraceEvent>,
    finished: bool,
}

/// A completed (or in-flight snapshot of a) causal chain.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceChain {
    /// The trace (request) id.
    pub id: u64,
    /// The events, in append order; `events[i].seq == i`.
    pub events: Vec<TraceEvent>,
}

impl TraceChain {
    /// Timestamp-free canonical rendering, identical across same-seed
    /// runs: `id=3 submit(targets=1 hops=exact) pickup(batch=1) response(ok)`.
    pub fn canonical(&self) -> String {
        let mut s = format!("id={}", self.id);
        for e in &self.events {
            if e.detail.is_empty() {
                let _ = write!(s, " {}", e.kind);
            } else {
                let _ = write!(s, " {}({})", e.kind, e.detail);
            }
        }
        s
    }

    /// Well-formedness of one chain, mirroring the serve tier's
    /// invariants. Returns the first violation as an error string.
    ///
    /// * non-empty, starts with `submit`
    /// * `seq` is dense and monotonically ordered from 0
    /// * exactly one terminal event, and it is last
    /// * `salvage` appears at most once (PR 5's exactly-once requeue)
    /// * `shard_route` appears at most once and, when present, directly
    ///   after `submit` — routing is decided once, at admission, before
    ///   any queueing or compute
    /// * `halo_fetch` only appears in a routed chain: cross-shard
    ///   traffic with no routing decision on record is unexplained
    /// * `shard_failover` appears at most once (a salvaged batch is
    ///   re-routed to the buddy exactly once), only in a routed chain,
    ///   and only after a `salvage` — failover *is* the salvage's
    ///   re-routing, never a spontaneous second routing decision
    /// * the chain explains its outcome: a degraded response has a
    ///   `degrade` event, a `device_fault` error a `fault` event, a
    ///   `worker_lost` error a `salvage` event or `buddy=none` (no live
    ///   lane to salvage to), and a `deadline_exceeded` error a `shed`
    ///   event
    pub fn validate(&self) -> Result<(), String> {
        if self.events.is_empty() {
            return Err(format!("trace {}: empty chain", self.id));
        }
        if self.events[0].kind != "submit" {
            return Err(format!(
                "trace {}: chain starts with {:?}, not submit",
                self.id, self.events[0].kind
            ));
        }
        for (i, e) in self.events.iter().enumerate() {
            if e.trace_id != self.id {
                return Err(format!(
                    "trace {}: event {i} carries foreign trace id {}",
                    self.id, e.trace_id
                ));
            }
            if e.seq != i as u32 {
                return Err(format!(
                    "trace {}: event {i} has seq {} (chain not densely ordered)",
                    self.id, e.seq
                ));
            }
        }
        let terminals = self.events.iter().filter(|e| e.is_terminal()).count();
        if terminals != 1 {
            return Err(format!(
                "trace {}: {terminals} terminal events (want exactly 1): {}",
                self.id,
                self.canonical()
            ));
        }
        if !self.events.last().is_some_and(TraceEvent::is_terminal) {
            return Err(format!(
                "trace {}: terminal event is not last: {}",
                self.id,
                self.canonical()
            ));
        }
        let salvages = self.events.iter().filter(|e| e.kind == "salvage").count();
        if salvages > 1 {
            return Err(format!(
                "trace {}: salvaged {salvages} times (exactly-once requeue violated): {}",
                self.id,
                self.canonical()
            ));
        }
        let routes = self
            .events
            .iter()
            .filter(|e| e.kind == "shard_route")
            .count();
        if routes > 1 {
            return Err(format!(
                "trace {}: routed {routes} times (routing is decided once): {}",
                self.id,
                self.canonical()
            ));
        }
        if routes == 1 && self.events[1].kind != "shard_route" {
            return Err(format!(
                "trace {}: shard_route is not directly after submit: {}",
                self.id,
                self.canonical()
            ));
        }
        if routes == 0 && self.events.iter().any(|e| e.kind == "halo_fetch") {
            return Err(format!(
                "trace {}: halo_fetch without a shard_route decision: {}",
                self.id,
                self.canonical()
            ));
        }
        let failovers = self
            .events
            .iter()
            .filter(|e| e.kind == "shard_failover")
            .count();
        if failovers > 1 {
            return Err(format!(
                "trace {}: {failovers} shard_failover events (exactly-once re-route violated): {}",
                self.id,
                self.canonical()
            ));
        }
        if failovers == 1 {
            if routes == 0 {
                return Err(format!(
                    "trace {}: shard_failover without a shard_route decision: {}",
                    self.id,
                    self.canonical()
                ));
            }
            let failover_at = self
                .events
                .iter()
                .position(|e| e.kind == "shard_failover")
                .expect("counted above");
            let salvage_at = self.events.iter().position(|e| e.kind == "salvage");
            if salvage_at.is_none_or(|s| s >= failover_at) {
                return Err(format!(
                    "trace {}: shard_failover without a preceding salvage: {}",
                    self.id,
                    self.canonical()
                ));
            }
        }
        let term = &self.events[self.events.len() - 1];
        let has = |k: &str| self.events.iter().any(|e| e.kind == k);
        let explained = match term.kind {
            "response" if term.detail == "degraded" => has("degrade"),
            "error" if term.detail.starts_with("device_fault") => has("fault"),
            "error" if term.detail.starts_with("worker_lost") => {
                has("salvage") || term.detail.contains("buddy=none")
            }
            "error" if term.detail.starts_with("deadline_exceeded") => has("shed"),
            _ => true,
        };
        if !explained {
            return Err(format!(
                "trace {}: outcome {}({}) unexplained by its chain: {}",
                self.id,
                term.kind,
                term.detail,
                self.canonical()
            ));
        }
        Ok(())
    }
}

/// Handle to one request's causal chain. Clones share the chain.
#[derive(Debug, Clone)]
pub struct TraceContext {
    id: u64,
    inner: Arc<Mutex<Inner>>,
}

impl TraceContext {
    /// A fresh chain for trace id `id` (ids come from a submission-order
    /// counter owned by the caller, so same-seed runs allocate the same
    /// ids).
    pub fn new(id: u64) -> Self {
        Self {
            id,
            inner: Arc::new(Mutex::new(Inner {
                events: Vec::new(),
                finished: false,
            })),
        }
    }

    /// The trace id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Append a causal event. `detail` is only invoked (and nothing is
    /// allocated) when collection is enabled; after the chain is
    /// finished, late events are dropped.
    pub fn push(&self, kind: &'static str, detail: impl FnOnce() -> String) {
        if !crate::enabled() {
            return;
        }
        let c = crate::collector();
        let ev = {
            let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            if inner.finished {
                return;
            }
            let ev = TraceEvent {
                trace_id: self.id,
                seq: inner.events.len() as u32,
                kind,
                detail: detail(),
                t_ns: c.now_ns(),
            };
            inner.events.push(ev.clone());
            ev
        };
        crate::flight::recorder().record(&ev);
    }

    /// Append the terminal event and publish the completed chain to the
    /// global collector. Idempotent: only the first call wins, matching
    /// the serve tier's exactly-once response guarantee.
    pub fn finish(&self, kind: &'static str, detail: impl FnOnce() -> String) {
        if !crate::enabled() {
            return;
        }
        let c = crate::collector();
        let chain = {
            let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            if inner.finished {
                return;
            }
            inner.finished = true;
            let ev = TraceEvent {
                trace_id: self.id,
                seq: inner.events.len() as u32,
                kind,
                detail: detail(),
                t_ns: c.now_ns(),
            };
            inner.events.push(ev.clone());
            crate::flight::recorder().record(&ev);
            inner.events.clone()
        };
        c.record_trace(TraceChain {
            id: self.id,
            events: chain,
        });
    }
}

thread_local! {
    static CURRENT_TRACE: Cell<u64> = const { Cell::new(0) };
}

/// Mark `id` as the trace driving work on this thread (0 = none). The
/// simulator reads it back with [`current`] to tag injected faults with
/// the request that triggered the launch.
pub fn set_current(id: u64) {
    CURRENT_TRACE.with(|t| t.set(id));
}

/// The trace id driving this thread's work, or 0 when none was set.
pub fn current() -> u64 {
    CURRENT_TRACE.with(|t| t.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(kinds: &[&'static str]) -> TraceChain {
        TraceChain {
            id: 7,
            events: kinds
                .iter()
                .enumerate()
                .map(|(i, k)| TraceEvent {
                    trace_id: 7,
                    seq: i as u32,
                    kind: k,
                    detail: String::new(),
                    t_ns: i as u64,
                })
                .collect(),
        }
    }

    #[test]
    fn valid_chain_passes() {
        chain(&["submit", "enqueue", "pickup", "cache", "response"])
            .validate()
            .unwrap();
    }

    #[test]
    fn violations_are_caught() {
        assert!(chain(&[]).validate().is_err(), "empty");
        assert!(chain(&["pickup", "response"]).validate().is_err(), "start");
        assert!(
            chain(&["submit", "pickup"]).validate().is_err(),
            "no terminal"
        );
        assert!(
            chain(&["submit", "response", "error"]).validate().is_err(),
            "two terminals"
        );
        assert!(
            chain(&["submit", "response", "pickup"]).validate().is_err(),
            "event after terminal"
        );
        assert!(
            chain(&["submit", "salvage", "pickup", "salvage", "pickup", "error"])
                .validate()
                .is_err(),
            "double salvage"
        );
        let mut bad_seq = chain(&["submit", "response"]);
        bad_seq.events[1].seq = 5;
        assert!(bad_seq.validate().is_err(), "sparse seq");
    }

    #[test]
    fn routing_invariants() {
        chain(&["submit", "shard_route", "enqueue", "pickup", "response"])
            .validate()
            .unwrap();
        chain(&["submit", "shard_route", "pickup", "halo_fetch", "response"])
            .validate()
            .unwrap();
        chain(&["submit", "shard_route", "reject"])
            .validate()
            .unwrap();
        assert!(
            chain(&["submit", "enqueue", "shard_route", "response"])
                .validate()
                .is_err(),
            "route after enqueue"
        );
        assert!(
            chain(&["submit", "shard_route", "shard_route", "response"])
                .validate()
                .is_err(),
            "double route"
        );
        assert!(
            chain(&["submit", "pickup", "halo_fetch", "response"])
                .validate()
                .is_err(),
            "halo fetch without routing"
        );
    }

    #[test]
    fn failover_invariants() {
        chain(&[
            "submit",
            "shard_route",
            "enqueue",
            "pickup",
            "salvage",
            "shard_failover",
            "pickup",
            "response",
        ])
        .validate()
        .unwrap();
        assert!(
            chain(&["submit", "shard_route", "shard_failover", "response"])
                .validate()
                .is_err(),
            "failover without salvage"
        );
        assert!(
            chain(&["submit", "salvage", "shard_failover", "response"])
                .validate()
                .is_err(),
            "failover without routing"
        );
        assert!(
            chain(&[
                "submit",
                "shard_route",
                "salvage",
                "shard_failover",
                "shard_failover",
                "response"
            ])
            .validate()
            .is_err(),
            "double failover"
        );
    }

    /// `chain(kinds)` with `detail` on its terminal event.
    fn ending(kinds: &[&'static str], detail: &str) -> TraceChain {
        let mut c = chain(kinds);
        c.events.last_mut().unwrap().detail = detail.into();
        c
    }

    #[test]
    fn degraded_response_needs_a_degrade_event() {
        ending(&["submit", "pickup", "degrade", "response"], "degraded")
            .validate()
            .unwrap();
        ending(&["submit", "pickup", "response"], "ok")
            .validate()
            .unwrap();
        assert!(ending(&["submit", "pickup", "response"], "degraded")
            .validate()
            .is_err());
    }

    #[test]
    fn device_fault_needs_a_fault_event() {
        let detail = "device_fault (retry budget exhausted)";
        ending(&["submit", "pickup", "fault", "retry", "error"], detail)
            .validate()
            .unwrap();
        assert!(ending(&["submit", "pickup", "retry", "error"], detail)
            .validate()
            .is_err());
    }

    #[test]
    fn worker_lost_needs_a_salvage_or_no_buddy() {
        ending(
            &["submit", "pickup", "salvage", "pickup", "error"],
            "worker_lost cause=panic",
        )
        .validate()
        .unwrap();
        ending(
            &["submit", "pickup", "error"],
            "worker_lost cause=device_lost buddy=none",
        )
        .validate()
        .unwrap();
        assert!(
            ending(&["submit", "pickup", "error"], "worker_lost cause=panic")
                .validate()
                .is_err()
        );
    }

    #[test]
    fn deadline_exceeded_needs_a_shed_event() {
        ending(&["submit", "pickup", "shed", "error"], "deadline_exceeded")
            .validate()
            .unwrap();
        assert!(ending(&["submit", "pickup", "error"], "deadline_exceeded")
            .validate()
            .is_err());
    }

    #[test]
    fn canonical_excludes_timestamps() {
        let mut a = chain(&["submit", "response"]);
        let mut b = chain(&["submit", "response"]);
        a.events[0].t_ns = 1;
        b.events[0].t_ns = 999;
        a.events[1].detail = "ok".into();
        b.events[1].detail = "ok".into();
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(a.canonical(), "id=7 submit response(ok)");
    }

    #[test]
    fn current_trace_is_per_thread() {
        set_current(42);
        assert_eq!(current(), 42);
        std::thread::spawn(|| assert_eq!(current(), 0))
            .join()
            .unwrap();
        set_current(0);
    }
}
