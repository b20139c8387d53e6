//! Worker supervision: detect dead workers (panicked or on a lost
//! device), hand their in-flight batch back to the server for requeueing,
//! and respawn them within a bounded budget — or retire the slot when the
//! budget is spent.
//!
//! The supervisor is deliberately generic: it knows nothing about
//! requests or engines. The server provides callbacks — `spawn` (to
//! start a worker in a slot), `on_death` (to salvage the in-flight
//! batch), `on_retire` (to steer routing away from a permanently dead
//! slot), and `tick` (to feed pool health into the degradation
//! controller) — and the supervisor owns the lifecycle: a monitor thread
//! polls worker handles, joins finished ones, and classifies the exit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// How a worker thread ended, as reported by the worker itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerExit {
    /// The queue shut down and the worker drained it — normal retirement.
    Drained,
    /// The worker's device was permanently lost; the worker abandoned its
    /// in-flight batch for the supervisor to salvage.
    DeviceLost,
}

/// Why a worker died (a `Drained` exit is not a death).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeathCause {
    /// The device reported [`WorkerExit::DeviceLost`].
    DeviceLost,
    /// The worker thread panicked mid-batch.
    Panic,
}

impl DeathCause {
    /// Stable label used in trace events and flight-recorder dump reasons.
    pub fn label(&self) -> &'static str {
        match self {
            DeathCause::DeviceLost => "device_lost",
            DeathCause::Panic => "panic",
        }
    }
}

/// Supervision knobs.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Total respawn budget across the whole pool; once spent, dead slots
    /// are retired (their device circuit stays broken).
    pub max_respawns: u32,
    /// Monitor poll interval.
    pub monitor_interval: Duration,
    /// Deaths of one slot at which it is retired, even with respawn
    /// budget left: a slot that keeps dying (bad device, poisoned
    /// workload) must not drain the whole pool's budget. Every death of
    /// the slot counts, over the server's lifetime: a respawn does not
    /// reset the count. 0 acts as 1.
    pub slot_breaker_threshold: u32,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            max_respawns: 4,
            monitor_interval: Duration::from_millis(1),
            slot_breaker_threshold: 3,
        }
    }
}

/// Point-in-time pool health, passed to the `tick` callback.
#[derive(Debug, Clone, Copy)]
pub struct HealthSnapshot {
    /// Worker slots in total.
    pub slots: usize,
    /// Slots retired dead (circuit broken, respawn budget spent).
    pub dead: usize,
    /// Respawns performed so far.
    pub respawns: u64,
}

impl HealthSnapshot {
    /// Fraction of the pool out of rotation, in `[0, 1]`.
    pub(crate) fn unhealthy_frac(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.dead as f64 / self.slots as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Running,
    Drained,
    Dead,
}

struct Slot {
    generation: u32,
    state: SlotState,
    handle: Option<JoinHandle<WorkerExit>>,
    /// Deaths of this slot so far, across all its generations.
    deaths: u32,
}

/// Start a worker: `(slot, generation)` → its join handle. Generation 0
/// is the slot's first worker; every later generation is a respawn.
pub type SpawnFn = Box<dyn Fn(usize, u32) -> JoinHandle<WorkerExit> + Send + Sync>;
/// Salvage a dead worker's state: `(slot, cause)`; called exactly once
/// per death, before any replacement starts.
pub type DeathFn = Box<dyn Fn(usize, DeathCause) + Send + Sync>;
/// Slot retirement notification: `(slot)`; called exactly once when a
/// slot is permanently taken out of rotation (circuit open or respawn
/// budget spent), after the death's `DeathFn`. Routing layers use it to
/// steer new work away from the dead slot.
pub type RetireFn = Box<dyn Fn(usize) + Send + Sync>;
/// Health observation callback, invoked once per monitor poll.
pub type TickFn = Box<dyn Fn(HealthSnapshot) + Send + Sync>;

struct Inner {
    cfg: SupervisorConfig,
    slots: Mutex<Vec<Slot>>,
    // Stop signal as mutex+condvar so `stop()` can interrupt the
    // monitor's inter-poll sleep instead of waiting it out.
    stop: Mutex<bool>,
    stop_cv: Condvar,
    respawns: AtomicU64,
    lost_devices: AtomicU64,
    panics: AtomicU64,
    spawn: SpawnFn,
    on_death: DeathFn,
    on_retire: RetireFn,
    tick: TickFn,
}

/// Supervises a pool of worker threads; see the module docs.
pub struct Supervisor {
    inner: Arc<Inner>,
    monitor: Option<JoinHandle<()>>,
}

impl Supervisor {
    /// Spawn `workers` initial workers (generation 0, on their configured
    /// fault plan) and the monitor thread.
    pub fn start(
        cfg: SupervisorConfig,
        workers: usize,
        spawn: SpawnFn,
        on_death: DeathFn,
        on_retire: RetireFn,
        tick: TickFn,
    ) -> Self {
        let slots = (0..workers)
            .map(|i| Slot {
                generation: 0,
                state: SlotState::Running,
                handle: Some(spawn(i, 0)),
                deaths: 0,
            })
            .collect();
        let inner = Arc::new(Inner {
            cfg,
            slots: Mutex::new(slots),
            stop: Mutex::new(false),
            stop_cv: Condvar::new(),
            respawns: AtomicU64::new(0),
            lost_devices: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            spawn,
            on_death,
            on_retire,
            tick,
        });
        let monitor = {
            let inner = Arc::clone(&inner);
            thread::Builder::new()
                .name("serve-supervisor".into())
                .spawn(move || loop {
                    poll_once(&inner);
                    (inner.tick)(health_of(&inner));
                    let stopped = inner.stop.lock().unwrap_or_else(|p| p.into_inner());
                    if *stopped {
                        break;
                    }
                    let (stopped, _) = inner
                        .stop_cv
                        .wait_timeout(stopped, inner.cfg.monitor_interval)
                        .unwrap_or_else(|p| p.into_inner());
                    if *stopped {
                        break;
                    }
                })
                .expect("spawn supervisor monitor")
        };
        Self {
            inner,
            monitor: Some(monitor),
        }
    }

    /// Respawns performed.
    pub fn respawns(&self) -> u64 {
        self.inner.respawns.load(Ordering::Relaxed)
    }

    /// Wait until every slot has retired (drained or dead). The work
    /// queue must already be shut down — otherwise workers never drain.
    /// Deaths during the drain are still salvaged and respawned within
    /// budget, so requeued batches get served when possible.
    pub fn drain(&self) {
        loop {
            poll_once(&self.inner);
            let all_done = {
                let slots = lock_slots(&self.inner);
                slots.iter().all(|s| s.state != SlotState::Running)
            };
            if all_done {
                return;
            }
            thread::sleep(Duration::from_micros(200));
        }
    }

    /// Stop the monitor and join every remaining worker handle. Call
    /// after [`drain`](Self::drain) for a clean shutdown.
    pub(crate) fn stop(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        *self.inner.stop.lock().unwrap_or_else(|p| p.into_inner()) = true;
        self.inner.stop_cv.notify_all();
        if let Some(m) = self.monitor.take() {
            let _ = m.join();
        }
        let handles: Vec<JoinHandle<WorkerExit>> = {
            let mut slots = lock_slots(&self.inner);
            slots.iter_mut().filter_map(|s| s.handle.take()).collect()
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn lock_slots(inner: &Inner) -> std::sync::MutexGuard<'_, Vec<Slot>> {
    // A panic while holding the slot lock is a supervisor bug, but never
    // compound it: recover the guard and keep supervising.
    inner
        .slots
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn health_of(inner: &Inner) -> HealthSnapshot {
    let slots = lock_slots(inner);
    HealthSnapshot {
        slots: slots.len(),
        dead: slots.iter().filter(|s| s.state == SlotState::Dead).count(),
        respawns: inner.respawns.load(Ordering::Relaxed),
    }
}

/// One monitor pass: join finished workers, salvage deaths, respawn
/// within budget.
fn poll_once(inner: &Inner) {
    let finished: Vec<(usize, JoinHandle<WorkerExit>)> = {
        let mut slots = lock_slots(inner);
        slots
            .iter_mut()
            .enumerate()
            .filter(|(_, s)| {
                s.state == SlotState::Running && s.handle.as_ref().is_some_and(|h| h.is_finished())
            })
            .map(|(i, s)| (i, s.handle.take().expect("finished slot has handle")))
            .collect()
    };
    // Join and handle deaths outside the slot lock: callbacks may take
    // other locks (in-flight registry, batch queue).
    for (i, handle) in finished {
        let cause = match handle.join() {
            Ok(WorkerExit::Drained) => {
                let mut slots = lock_slots(inner);
                slots[i].state = SlotState::Drained;
                continue;
            }
            Ok(WorkerExit::DeviceLost) => {
                inner.lost_devices.fetch_add(1, Ordering::Relaxed);
                DeathCause::DeviceLost
            }
            Err(_) => {
                inner.panics.fetch_add(1, Ordering::Relaxed);
                DeathCause::Panic
            }
        };
        telemetry::counter_add("serve.supervisor.worker_death", 1);
        // A worker death is a permanent fault: dump the flight recorder
        // *before* salvage mutates any state, so the dump holds the
        // events leading up to the death.
        telemetry::flight::trigger(&format!("worker_death:{}", cause.label()));
        (inner.on_death)(i, cause);
        // A slot that keeps dying is retired at its
        // `slot_breaker_threshold`-th death without touching the pool-wide
        // respawn budget.
        let tripped = {
            let mut slots = lock_slots(inner);
            slots[i].deaths += 1;
            slots[i].deaths >= inner.cfg.slot_breaker_threshold.max(1)
        };
        if tripped {
            telemetry::counter_add("serve.supervisor.circuit_open", 1);
            telemetry::flight::trigger("circuit_open");
            {
                let mut slots = lock_slots(inner);
                slots[i].state = SlotState::Dead;
            }
            (inner.on_retire)(i);
            continue;
        }
        // Claim a respawn slot atomically: drain() and the monitor may
        // poll concurrently, and the budget is a hard cap.
        let budget = inner.cfg.max_respawns as u64;
        let claimed = inner
            .respawns
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |r| {
                (r < budget).then_some(r + 1)
            })
            .is_ok();
        if claimed {
            telemetry::counter_add("serve.supervisor.respawn", 1);
            let mut slots = lock_slots(inner);
            let generation = slots[i].generation + 1;
            slots[i].generation = generation;
            slots[i].handle = Some((inner.spawn)(i, generation));
        } else {
            {
                let mut slots = lock_slots(inner);
                slots[i].state = SlotState::Dead;
            }
            (inner.on_retire)(i);
        }
    }
}

#[cfg(test)]
impl Supervisor {
    /// Pool health right now.
    fn health(&self) -> HealthSnapshot {
        health_of(&self.inner)
    }

    /// Workers that died on a lost device.
    fn lost_devices(&self) -> u64 {
        self.inner.lost_devices.load(Ordering::Relaxed)
    }

    /// Workers that died by panic.
    fn panics(&self) -> u64 {
        self.inner.panics.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn idle_callbacks() -> (DeathFn, RetireFn, TickFn) {
        (Box::new(|_, _| {}), Box::new(|_| {}), Box::new(|_| {}))
    }

    #[test]
    fn drained_workers_retire_without_respawn() {
        let (on_death, on_retire, tick) = idle_callbacks();
        let sup = Supervisor::start(
            SupervisorConfig::default(),
            3,
            Box::new(|slot, _| {
                thread::Builder::new()
                    .name(format!("w{slot}"))
                    .spawn(|| WorkerExit::Drained)
                    .unwrap()
            }),
            on_death,
            on_retire,
            tick,
        );
        sup.drain();
        let h = sup.health();
        assert_eq!((h.slots, h.dead, h.respawns), (3, 0, 0));
        assert_eq!(h.unhealthy_frac(), 0.0);
        sup.stop();
    }

    #[test]
    fn death_is_salvaged_then_respawned_until_budget_spent() {
        let deaths = Arc::new(AtomicUsize::new(0));
        let spawned = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&deaths);
        let s = Arc::clone(&spawned);
        let sup = Supervisor::start(
            SupervisorConfig {
                max_respawns: 2,
                monitor_interval: Duration::from_micros(200),
                // Breaker above the death count: budget is what retires.
                slot_breaker_threshold: 10,
            },
            1,
            Box::new(move |_, generation| {
                // Generation 0 is the first worker, each respawn the next
                // (the pipeline gives generations > 0 a fault-free device).
                let spawned_before = s.fetch_add(1, Ordering::SeqCst);
                assert_eq!(generation as usize, spawned_before);
                thread::spawn(|| WorkerExit::DeviceLost)
            }),
            Box::new(move |slot, cause| {
                assert_eq!(slot, 0);
                assert_eq!(cause, DeathCause::DeviceLost);
                d.fetch_add(1, Ordering::SeqCst);
            }),
            Box::new(|_| {}),
            Box::new(|_| {}),
        );
        sup.drain();
        // Initial spawn + 2 respawns, all dying: 3 deaths, slot retired.
        assert_eq!(deaths.load(Ordering::SeqCst), 3);
        assert_eq!(spawned.load(Ordering::SeqCst), 3);
        assert_eq!(sup.respawns(), 2);
        assert_eq!(sup.lost_devices(), 3);
        let h = sup.health();
        assert_eq!(h.dead, 1);
        assert_eq!(h.unhealthy_frac(), 1.0);
        sup.stop();
    }

    #[test]
    fn breaker_retires_flapping_slot_before_budget_is_spent() {
        let (on_death, on_retire, tick) = idle_callbacks();
        let sup = Supervisor::start(
            SupervisorConfig {
                max_respawns: 10, // plenty left when the breaker opens
                monitor_interval: Duration::from_micros(200),
                slot_breaker_threshold: 2,
            },
            1,
            Box::new(|_, _| thread::spawn(|| WorkerExit::DeviceLost)),
            on_death,
            on_retire,
            tick,
        );
        sup.drain();
        // Initial death consumes one respawn; the replacement's death is
        // the second consecutive failure — circuit opens, slot retires.
        assert_eq!(sup.respawns(), 1);
        assert_eq!(sup.lost_devices(), 2);
        assert_eq!(sup.health().dead, 1);
        sup.stop();
    }

    #[test]
    fn retire_hook_fires_exactly_once_at_both_retirement_sites() {
        // Budget exhaustion retires the slot.
        for breaker in [10u32, 1] {
            let retired = Arc::new(Mutex::new(Vec::new()));
            let r = Arc::clone(&retired);
            let (on_death, _, tick) = idle_callbacks();
            let sup = Supervisor::start(
                SupervisorConfig {
                    max_respawns: 0,
                    monitor_interval: Duration::from_micros(200),
                    // breaker=10: budget exhaustion retires; breaker=1:
                    // the circuit opens first. Both must fire the hook.
                    slot_breaker_threshold: breaker,
                },
                1,
                Box::new(|_, _| thread::spawn(|| WorkerExit::DeviceLost)),
                on_death,
                Box::new(move |slot| r.lock().unwrap().push(slot)),
                tick,
            );
            sup.drain();
            assert_eq!(*retired.lock().unwrap(), vec![0]);
            sup.stop();
        }
    }

    #[test]
    fn panics_are_classified_and_counted() {
        let cause_seen = Arc::new(Mutex::new(None));
        let c = Arc::clone(&cause_seen);
        let sup = Supervisor::start(
            SupervisorConfig {
                max_respawns: 0,
                monitor_interval: Duration::from_micros(200),
                ..SupervisorConfig::default()
            },
            1,
            Box::new(|_, _| {
                thread::Builder::new()
                    .name("doomed".into())
                    .spawn(|| -> WorkerExit { panic!("chaos") })
                    .unwrap()
            }),
            Box::new(move |_, cause| {
                *c.lock().unwrap() = Some(cause);
            }),
            Box::new(|_| {}),
            Box::new(|_| {}),
        );
        sup.drain();
        assert_eq!(*cause_seen.lock().unwrap(), Some(DeathCause::Panic));
        assert_eq!(sup.panics(), 1);
        assert_eq!(sup.health().dead, 1);
        sup.stop();
    }
}
