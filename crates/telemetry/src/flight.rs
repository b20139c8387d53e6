//! Flight recorder: a bounded ring of the most recent trace events,
//! dumped to disk when a permanent fault fires — the black box that
//! explains what the serve tier was doing in the moments before a
//! device loss, worker death, or circuit-breaker trip.
//!
//! Writers claim a slot with one wait-free `fetch_add` on the ticket
//! counter and then store through that slot's own lock; a given slot is
//! only ever contended when the ring wraps a full capacity between two
//! writers, so the record path never serializes behind a global lock.
//! The ring holds the last [`FlightRecorder::capacity`] events; older
//! ones are overwritten and accounted in the dump's `dropped` field.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::json::Value;
use crate::trace::TraceEvent;

/// Events retained by the global recorder.
pub(crate) const DEFAULT_CAPACITY: usize = 256;

/// The bounded recent-events ring. Use the global [`recorder`].
#[derive(Debug)]
pub struct FlightRecorder {
    /// Total events ever recorded; slot index = ticket % capacity.
    tickets: AtomicU64,
    slots: Vec<Mutex<Option<(u64, TraceEvent)>>>,
    /// Scenario label used in the dump filename (`flightrec_<label>.json`).
    label: Mutex<String>,
    /// Directory dumps are written to.
    dump_dir: Mutex<PathBuf>,
}

impl FlightRecorder {
    fn new(capacity: usize) -> Self {
        Self {
            tickets: AtomicU64::new(0),
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
            label: Mutex::new("default".to_string()),
            dump_dir: Mutex::new(PathBuf::from("results")),
        }
    }

    /// Maximum events retained (and maximum events per dump).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Record one event (callers gate on [`crate::enabled`]).
    pub(crate) fn record(&self, ev: &TraceEvent) {
        let ticket = self.tickets.fetch_add(1, Ordering::Relaxed);
        let slot = (ticket % self.slots.len() as u64) as usize;
        *self.slots[slot].lock().unwrap_or_else(|e| e.into_inner()) = Some((ticket, ev.clone()));
    }

    /// Set the scenario label used for dump filenames.
    pub fn set_label(&self, label: &str) {
        *self.label.lock().unwrap_or_else(|e| e.into_inner()) = label.to_string();
    }

    /// Set the directory dumps are written to.
    pub fn set_dump_dir(&self, dir: impl Into<PathBuf>) {
        *self.dump_dir.lock().unwrap_or_else(|e| e.into_inner()) = dir.into();
    }

    /// The retained events, oldest first (at most `capacity`).
    fn recent(&self) -> Vec<TraceEvent> {
        let mut with_tickets: Vec<(u64, TraceEvent)> = self
            .slots
            .iter()
            .filter_map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).clone())
            .collect();
        with_tickets.sort_by_key(|(t, _)| *t);
        with_tickets.into_iter().map(|(_, e)| e).collect()
    }

    /// Drop all retained events and reset the ticket counter (run-over-run
    /// isolation; the label and dump dir are kept).
    pub fn reset(&self) {
        for s in &self.slots {
            *s.lock().unwrap_or_else(|e| e.into_inner()) = None;
        }
        self.tickets.store(0, Ordering::SeqCst);
    }

    /// The dump document for `reason`, without writing it.
    fn dump_json(&self, reason: &str) -> Value {
        let events = self.recent();
        let total = self.tickets.load(Ordering::SeqCst);
        let mut evs = Value::array();
        for e in &events {
            let mut o = Value::object();
            o.set("trace_id", e.trace_id)
                .set("seq", e.seq)
                .set("kind", e.kind)
                .set("detail", e.detail.clone())
                .set("ts_us", e.t_ns as f64 / 1e3);
            evs.push(o);
        }
        let mut doc = Value::object();
        doc.set(
            "label",
            self.label.lock().unwrap_or_else(|e| e.into_inner()).clone(),
        )
        .set("reason", reason)
        .set("capacity", self.capacity())
        .set("total_events", total)
        .set("dropped", total.saturating_sub(events.len() as u64))
        .set("events", evs);
        doc
    }

    /// Write `flightrec_<label>.json` into the configured dump directory
    /// and return its path. Later dumps overwrite earlier ones for the
    /// same label — the file always holds the run-up to the most recent
    /// permanent fault.
    pub(crate) fn dump(&self, reason: &str) -> std::io::Result<PathBuf> {
        let dir = self
            .dump_dir
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        let label = self.label.lock().unwrap_or_else(|e| e.into_inner()).clone();
        let path = dir.join(format!("flightrec_{label}.json"));
        self.dump_to(reason, &path)?;
        Ok(path)
    }

    /// Write the dump document for `reason` to an explicit path.
    fn dump_to(&self, reason: &str, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        std::fs::write(path, self.dump_json(reason).to_string())
    }
}

static RECORDER: OnceLock<FlightRecorder> = OnceLock::new();

/// The process-wide flight recorder (capacity `DEFAULT_CAPACITY`).
pub fn recorder() -> &'static FlightRecorder {
    RECORDER.get_or_init(|| FlightRecorder::new(DEFAULT_CAPACITY))
}

/// Dump the global recorder because a permanent fault fired. No-op when
/// collection is disabled; dump failures are counted, not propagated —
/// a full disk must not take down the serve path. Returns the dump path
/// when one was written.
pub fn trigger(reason: &str) -> Option<PathBuf> {
    if !crate::enabled() {
        return None;
    }
    match recorder().dump(reason) {
        Ok(path) => {
            crate::counter_add("telemetry.flight.dumps", 1);
            Some(path)
        }
        Err(_) => {
            crate::counter_add("telemetry.flight.dump_errors", 1);
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(id: u64, seq: u32, kind: &'static str) -> TraceEvent {
        TraceEvent {
            trace_id: id,
            seq,
            kind,
            detail: String::new(),
            t_ns: 0,
        }
    }

    #[test]
    fn ring_keeps_last_capacity_events() {
        let r = FlightRecorder::new(4);
        for i in 0..10u64 {
            r.record(&ev(i, 0, "submit"));
        }
        let recent = r.recent();
        assert_eq!(recent.len(), 4);
        let ids: Vec<u64> = recent.iter().map(|e| e.trace_id).collect();
        assert_eq!(ids, vec![6, 7, 8, 9], "oldest-first, last 4 retained");
        let doc = r.dump_json("test");
        assert_eq!(doc.get("dropped").and_then(Value::as_f64), Some(6.0));
        assert_eq!(doc.get("capacity").and_then(Value::as_f64), Some(4.0));
    }

    #[test]
    fn dump_writes_bounded_file() {
        let r = FlightRecorder::new(8);
        r.set_label("unit");
        let dir = std::env::temp_dir().join(format!("tlpgnn-flight-{}", std::process::id()));
        r.set_dump_dir(&dir);
        for i in 0..100u64 {
            r.record(&ev(i, 0, "retry"));
        }
        let path = r.dump("device_lost").unwrap();
        assert_eq!(path.file_name().unwrap(), "flightrec_unit.json");
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = crate::json::parse(&text).unwrap();
        let events = doc.get("events").and_then(Value::as_arr).unwrap();
        assert_eq!(events.len(), 8, "dump is bounded by capacity");
        assert_eq!(
            doc.get("reason").and_then(Value::as_str),
            Some("device_lost")
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reset_clears_ring() {
        let r = FlightRecorder::new(4);
        r.record(&ev(1, 0, "submit"));
        r.reset();
        assert!(r.recent().is_empty());
    }

    #[test]
    fn concurrent_writers_never_lose_the_ring() {
        let r = std::sync::Arc::new(FlightRecorder::new(16));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        r.record(&ev(t * 1000 + i, 0, "retry"));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let recent = r.recent();
        assert_eq!(recent.len(), 16);
        assert_eq!(
            r.dump_json("x").get("total_events").and_then(Value::as_f64),
            Some(400.0)
        );
    }
}
