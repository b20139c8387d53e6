//! Dynamic micro-batching over a bounded queue.
//!
//! The batcher is the admission-control and coalescing point of the
//! server: producers [`push`](BatchQueue::push) items (failing fast when
//! the queue is full), workers [`pop_batch`](BatchQueue::pop_batch)
//! groups of up to `max_batch` items. A batch flushes when it is full
//! *or* when its oldest item has waited `max_wait` — the size-or-deadline
//! policy that lets a loaded server amortize per-batch costs without
//! adding unbounded latency at low load.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Why a push was refused. The item is handed back so the caller can
/// fail the originating request without losing it.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity (backpressure — reject, don't buffer).
    Full(T),
    /// The queue has been shut down.
    ShutDown(T),
}

struct State<T> {
    items: VecDeque<(T, Instant)>,
    shutdown: bool,
}

/// A bounded MPMC queue whose consumers receive dynamic micro-batches.
pub struct BatchQueue<T> {
    state: Mutex<State<T>>,
    nonempty: Condvar,
    capacity: usize,
    max_batch: usize,
    max_wait: Duration,
}

impl<T> BatchQueue<T> {
    /// A queue holding at most `capacity` items, batching up to
    /// `max_batch` with deadline `max_wait`.
    ///
    /// # Panics
    /// Panics if `capacity` or `max_batch` is zero.
    pub fn new(capacity: usize, max_batch: usize, max_wait: Duration) -> Self {
        assert!(capacity >= 1, "capacity must be at least 1");
        assert!(max_batch >= 1, "max_batch must be at least 1");
        Self {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity),
                shutdown: false,
            }),
            nonempty: Condvar::new(),
            capacity,
            max_batch,
            max_wait,
        }
    }

    /// Items currently queued.
    pub(crate) fn len(&self) -> usize {
        self.state.lock().unwrap().items.len()
    }

    /// The maximum number of queued items.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Enqueue one item, stamping its arrival time. Returns the queue
    /// depth after the push, or the item back if the queue is full or
    /// shut down — the caller converts that into an `Overloaded` /
    /// `ShuttingDown` rejection.
    pub fn push(&self, item: T) -> Result<usize, PushError<T>> {
        self.push_with(item, |_| {})
    }

    /// [`push`](Self::push), invoking `on_admit(depth)` while the queue
    /// lock is still held. A worker needs that lock to pop, so anything
    /// `on_admit` records (e.g. the `enqueue` trace event) is strictly
    /// ordered before any worker-side event for the same item — pushing
    /// the event after `push` returns would race the worker's `pickup`.
    pub(crate) fn push_with(
        &self,
        item: T,
        on_admit: impl FnOnce(usize),
    ) -> Result<usize, PushError<T>> {
        let mut st = self.state.lock().unwrap();
        if st.shutdown {
            return Err(PushError::ShutDown(item));
        }
        if st.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        st.items.push_back((item, Instant::now()));
        let depth = st.items.len();
        on_admit(depth);
        drop(st);
        self.nonempty.notify_one();
        Ok(depth)
    }

    /// Block until a batch is ready and take it. Returns items with their
    /// enqueue stamps, oldest first; `None` once the queue is shut down
    /// *and* drained (queued work is always served before workers exit).
    ///
    /// Flush policy: return as soon as `max_batch` items are queued, the
    /// oldest queued item is `max_wait` old, or shutdown is flagged.
    pub fn pop_batch(&self) -> Option<Vec<(T, Instant)>> {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.items.len() >= self.max_batch || (st.shutdown && !st.items.is_empty()) {
                return Some(self.drain(&mut st));
            }
            if let Some(&(_, first)) = st.items.front() {
                let age = first.elapsed();
                if age >= self.max_wait {
                    return Some(self.drain(&mut st));
                }
                let (guard, _timeout) =
                    self.nonempty.wait_timeout(st, self.max_wait - age).unwrap();
                st = guard;
            } else if st.shutdown {
                return None;
            } else {
                st = self.nonempty.wait(st).unwrap();
            }
        }
    }

    fn drain(&self, st: &mut State<T>) -> Vec<(T, Instant)> {
        let take = st.items.len().min(self.max_batch);
        st.items.drain(..take).collect()
    }

    /// Put an already-admitted item back at the *front* of the queue,
    /// keeping its original enqueue stamp. Used by the supervisor to
    /// return a dead worker's in-flight batch: the item was admitted
    /// once, so this bypasses both the capacity check and the shutdown
    /// gate (during a shutdown drain the item is still served before
    /// workers exit).
    pub fn requeue_front(&self, item: T, enqueued: Instant) {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        st.items.push_front((item, enqueued));
        drop(st);
        self.nonempty.notify_one();
    }

    /// Take every queued item unconditionally, ending with an empty
    /// queue. Final-shutdown cleanup: after the workers are gone, whatever
    /// is left can only be failed back to its callers.
    pub(crate) fn drain_remaining(&self) -> Vec<(T, Instant)> {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        st.items.drain(..).collect()
    }

    /// Stop accepting new items and wake every waiting consumer. Already
    /// queued items are still handed out by `pop_batch` before it starts
    /// returning `None`.
    pub fn shutdown(&self) {
        self.state.lock().unwrap().shutdown = true;
        self.nonempty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn queue(cap: usize, batch: usize, wait_ms: u64) -> BatchQueue<u32> {
        BatchQueue::new(cap, batch, Duration::from_millis(wait_ms))
    }

    #[test]
    fn flushes_at_max_batch() {
        let q = queue(16, 4, 10_000); // deadline far away
        for i in 0..4 {
            q.push(i).unwrap();
        }
        let t0 = Instant::now();
        let batch = q.pop_batch().unwrap();
        assert_eq!(batch.len(), 4);
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "size-triggered flush"
        );
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn flushes_at_deadline_with_partial_batch() {
        let q = queue(16, 64, 30);
        q.push(7).unwrap();
        let t0 = Instant::now();
        let batch = q.pop_batch().unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].0, 7);
        let waited = t0.elapsed();
        assert!(waited >= Duration::from_millis(25), "waited {waited:?}");
        assert!(waited < Duration::from_secs(5));
    }

    #[test]
    fn rejects_when_full() {
        let q = queue(2, 8, 1000);
        q.push(1).unwrap();
        q.push(2).unwrap();
        match q.push(3) {
            Err(PushError::Full(3)) => {}
            other => panic!("expected Full(3), got {other:?}"),
        }
        assert_eq!(q.len(), 2, "rejected item not buffered");
    }

    #[test]
    fn shutdown_drains_then_ends() {
        let q = queue(8, 3, 10_000);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        q.shutdown();
        assert!(matches!(q.push(9), Err(PushError::ShutDown(9))));
        let a = q.pop_batch().unwrap();
        let b = q.pop_batch().unwrap();
        assert_eq!(a.len() + b.len(), 5, "queued work served before exit");
        assert!(q.pop_batch().is_none());
        assert!(q.pop_batch().is_none(), "stays terminated");
    }

    #[test]
    fn wakes_blocked_consumer_on_push() {
        let q = Arc::new(queue(8, 2, 10_000));
        let qc = Arc::clone(&q);
        let consumer = std::thread::spawn(move || qc.pop_batch().unwrap());
        std::thread::sleep(Duration::from_millis(20));
        q.push(1).unwrap();
        q.push(2).unwrap();
        let batch = consumer.join().unwrap();
        assert_eq!(batch.len(), 2);
    }

    #[test]
    fn requeue_front_bypasses_capacity_and_shutdown() {
        let q = queue(2, 8, 10_000);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.shutdown();
        // Full *and* shut down: a salvaged item still goes back in, at
        // the front, with its original stamp.
        let stamp = Instant::now();
        q.requeue_front(0, stamp);
        assert_eq!(q.len(), 3);
        let batch = q.pop_batch().unwrap();
        let ids: Vec<u32> = batch.iter().map(|&(v, _)| v).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(batch[0].1, stamp);
        assert!(q.pop_batch().is_none());
    }

    #[test]
    fn drain_remaining_empties_the_queue() {
        let q = queue(8, 8, 10_000);
        for i in 0..3 {
            q.push(i).unwrap();
        }
        let left = q.drain_remaining();
        assert_eq!(left.len(), 3);
        assert_eq!(q.len(), 0);
        assert!(q.drain_remaining().is_empty());
    }

    #[test]
    fn batches_preserve_fifo_order() {
        let q = queue(16, 16, 0); // zero deadline: flush whatever is there
        for i in 0..6 {
            q.push(i).unwrap();
        }
        let batch = q.pop_batch().unwrap();
        let ids: Vec<u32> = batch.iter().map(|&(v, _)| v).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
    }
}
