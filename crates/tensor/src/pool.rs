//! The one persistent worker pool of the host path — the paper's
//! Algorithm 1 (a shared cursor handing out chunks of consecutive work
//! items), written once.
//!
//! `available_parallelism − 1` helper threads are started on first use and
//! then stay parked; the calling thread is always a participant, so a job
//! never waits for a helper to wake before it makes progress. The native
//! graph-convolution engine and the dense tensor ops both schedule through
//! here, which makes this the single place that decides how many threads
//! the host path uses (one, when `available_parallelism` cannot tell).
//!
//! One job runs at a time. A caller that finds the pool busy — a second
//! serve worker, or a body that itself calls a pooled op — runs its job
//! inline on its own thread: nothing blocks, nothing oversubscribes, and
//! concurrent callers cannot deadlock on each other.
//!
//! The simulator uses the pool the other way round: [`reserve`] and
//! [`Reserved::alongside`] run one long body on a helper next to the
//! caller's own, different work (a launch's replay beside its execution),
//! under the same rule — a busy pool answers `None` and the caller goes
//! on alone.
//!
//! Results never depend on the number of participants: chunks are disjoint
//! and every caller in this workspace computes each item independently of
//! which chunk it landed in.

use std::any::Any;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread;

/// Work, in multiply-adds of the register-tiled matmul, below which
/// [`for_each_row_block`] keeps an op on the calling thread. Waking a
/// helper costs tens of microseconds and takes a core from whoever else
/// is running (a serve worker's ego-graph ops are all far below this);
/// above it the op runs for a millisecond or more and the hand-off is
/// noise.
pub(crate) const MIN_PARALLEL_WORK: usize = 1 << 23;

/// Work per chunk handed out by [`for_each_row_block`]: small enough that
/// a participant that loses its core mid-op strands little, large enough
/// that the cursor is touched a few hundred times per op at most.
const CHUNK_WORK: usize = MIN_PARALLEL_WORK / 8;

/// Rough cost of one element that is loaded, touched once and stored
/// (bias add, ReLU, copy), in [`MIN_PARALLEL_WORK`] units: such passes
/// are bound by memory, not arithmetic, and move about one element in the
/// time the tiled matmul retires eight multiply-adds.
pub(crate) const STREAMED_ELEMENT_WORK: usize = 8;

/// The job cursor on a cache line of its own, so participants hammering
/// it do not false-share with the job's other fields.
#[repr(align(128))]
struct Cursor(AtomicUsize);

/// One chunked loop: `body` over `0..n` in ranges of `step`.
struct Job<'a> {
    body: &'a (dyn Fn(Range<usize>) + Sync),
    n: usize,
    step: usize,
    cursor: Cursor,
}

impl Job<'_> {
    /// Pull chunks until the cursor passes `n`.
    fn drain(&self) {
        loop {
            // Relaxed: the cursor publishes nothing but itself; the
            // hand-over of the job and of its results goes through the
            // pool's mutex.
            let start = self.cursor.0.fetch_add(self.step, Ordering::Relaxed);
            if start >= self.n {
                return;
            }
            (self.body)(start..(start + self.step).min(self.n));
        }
    }

    /// Stop handing out chunks (a participant panicked).
    fn abort(&self) {
        self.cursor.0.store(self.n, Ordering::Relaxed);
    }
}

/// A posted job, as the helpers see it.
#[derive(Clone, Copy)]
struct JobRef(*const Job<'static>);

// SAFETY: the pointee is a `Job`, whose body is `Sync` and whose other
// fields are plain integers and an atomic; the poster keeps it alive until
// every helper that took the pointer has reported back (see `run`).
unsafe impl Send for JobRef {}

#[derive(Default)]
struct Slot {
    job: Option<JobRef>,
    /// Bumped per posted job, so a helper joins each job at most once.
    epoch: u64,
    /// Helpers that may still join the posted job.
    open: usize,
    /// Helpers currently inside the posted job.
    active: usize,
    /// First panic payload caught from a helper, for the poster to rethrow.
    panic: Option<Box<dyn Any + Send>>,
    shutdown: bool,
}

#[derive(Default)]
struct Shared {
    slot: Mutex<Slot>,
    /// Helpers park here.
    work: Condvar,
    /// The poster waits here for the last helper to leave its job.
    done: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Slot> {
        self.slot
            .lock()
            .expect("pool state is never locked across a job body, so no panic can poison it")
    }
}

fn helper_loop(shared: &Shared) {
    let mut seen = 0;
    let mut slot = shared.lock();
    loop {
        if slot.shutdown {
            return;
        }
        if slot.open == 0 || slot.epoch == seen {
            slot = shared
                .work
                .wait(slot)
                .expect("pool state is never locked across a job body");
            continue;
        }
        slot.open -= 1;
        slot.active += 1;
        seen = slot.epoch;
        let job = slot.job.expect("open helper slots imply a posted job");
        drop(slot);
        // SAFETY: `active` was raised under the lock while the job was
        // still posted, and `run` does not return (so the `Job` on its
        // stack stays alive) until `active` is back to zero.
        let job = unsafe { &*job.0 };
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| job.drain()));
        if outcome.is_err() {
            job.abort();
        }
        slot = shared.lock();
        if let Err(payload) = outcome {
            slot.panic.get_or_insert(payload);
        }
        slot.active -= 1;
        if slot.active == 0 {
            shared.done.notify_one();
        }
    }
}

struct Pool {
    shared: Arc<Shared>,
    helpers: Vec<thread::JoinHandle<()>>,
    /// Held by the caller whose job is posted; everyone else runs inline.
    turn: Mutex<()>,
}

impl Pool {
    /// A pool with up to `helpers` parked threads (fewer if the OS refuses
    /// to start one).
    fn new(helpers: usize) -> Self {
        let shared = Arc::new(Shared::default());
        let helpers = (0..helpers)
            .map_while(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("tlpgnn-pool-{i}"))
                    .spawn(move || helper_loop(&shared))
                    .ok()
            })
            .collect();
        Self {
            shared,
            helpers,
            turn: Mutex::new(()),
        }
    }

    fn participants(&self, cap: usize) -> usize {
        let all = self.helpers.len() + 1;
        if cap == 0 {
            all
        } else {
            cap.min(all)
        }
    }

    fn run(&self, n: usize, step: usize, cap: usize, body: &(dyn Fn(Range<usize>) + Sync)) {
        if n == 0 {
            return;
        }
        let step = step.clamp(1, n);
        let job = Job {
            body,
            n,
            step,
            cursor: Cursor(AtomicUsize::new(0)),
        };
        let wanted = self.participants(cap).min(n.div_ceil(step)) - 1;
        if wanted == 0 {
            return job.drain();
        }
        // Busy (or poisoned by a bug in here): run inline rather than wait.
        let Ok(turn) = self.turn.try_lock() else {
            return job.drain();
        };
        let outcome = self.post(&job, wanted, || ());
        // Released before any panic resumes, so the turn is never poisoned.
        drop(turn);
        outcome.unwrap_or_else(|payload| panic::resume_unwind(payload));
    }

    /// Post `job` to `wanted` helpers, run `mine` and then the rest of the
    /// job on the caller, and return once every helper has left the job:
    /// `mine`'s result, or the first panic of any participant. The caller
    /// must hold `turn`.
    fn post<R>(
        &self,
        job: &Job<'_>,
        wanted: usize,
        mine: impl FnOnce() -> R,
    ) -> Result<R, Box<dyn Any + Send>> {
        {
            let mut slot = self.shared.lock();
            let erased: *const Job<'_> = job;
            slot.job = Some(JobRef(erased.cast()));
            slot.epoch += 1;
            slot.open = wanted;
        }
        if wanted == 1 {
            self.shared.work.notify_one();
        } else {
            self.shared.work.notify_all();
        }
        let mine = panic::catch_unwind(AssertUnwindSafe(|| {
            let r = mine();
            job.drain();
            r
        }));
        if mine.is_err() {
            job.abort();
        }
        let theirs = {
            let mut slot = self.shared.lock();
            // Withdraw the job under the lock helpers join under: from here
            // no helper can take the pointer, and those that did are
            // counted in `active`.
            slot.open = 0;
            slot.job = None;
            while slot.active > 0 {
                slot = self
                    .shared
                    .done
                    .wait(slot)
                    .expect("pool state is never locked across a job body");
            }
            slot.panic.take()
        };
        match (mine, theirs) {
            (Ok(r), None) => Ok(r),
            (Err(payload), _) | (Ok(_), Some(payload)) => Err(payload),
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        if let Ok(mut slot) = self.shared.slot.lock() {
            slot.shutdown = true;
        }
        self.shared.work.notify_all();
        for helper in self.helpers.drain(..) {
            // A helper catches every panic of a job body, so it can only
            // have died of a bug in this module; nothing to add from a
            // destructor.
            let _ = helper.join();
        }
    }
}

fn global() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool::new(thread::available_parallelism().map_or(1, usize::from) - 1))
}

/// Threads a job capped at `cap` participants (0 = no cap) runs on: the
/// caller plus the helpers, `available_parallelism` in all.
pub fn participants(cap: usize) -> usize {
    global().participants(cap)
}

/// Run `body` over disjoint ranges of at most `step` consecutive indices
/// that together cover `0..n`, on up to `cap` threads (0 = all of the
/// pool) including the caller. Returns once every range is done; a panic
/// in `body` is rethrown here.
///
/// `body` must tolerate concurrent calls on different ranges.
pub fn for_each_chunk(n: usize, step: usize, cap: usize, body: impl Fn(Range<usize>) + Sync) {
    global().run(n, step, cap, &body);
}

/// The pool held for one caller/helper pair by [`reserve`]: until it is
/// used or dropped, every other caller of the pool runs its jobs inline.
pub struct Reserved {
    _turn: MutexGuard<'static, ()>,
}

/// Reserve the pool for [`Reserved::alongside`]: `None` when there is no
/// helper thread, or when the pool is busy — a job of another thread, or
/// this call nested inside a job — in which case the caller should do
/// its work alone rather than wait.
pub fn reserve() -> Option<Reserved> {
    let pool = global();
    if pool.helpers.is_empty() {
        return None;
    }
    pool.turn
        .try_lock()
        .ok()
        .map(|turn| Reserved { _turn: turn })
}

impl Reserved {
    /// Run `caller` on this thread while one helper runs `helper`, and
    /// return `caller`'s result once both are done. Should no helper have
    /// started `helper` by the time `caller` returns, the calling thread
    /// runs it then, so `helper` must finish on its own once `caller` has
    /// (it never runs if `caller` panics before a helper took it). A
    /// panic of either is rethrown here.
    pub fn alongside<R>(self, helper: impl Fn() + Sync, caller: impl FnOnce() -> R) -> R {
        let body = |_: Range<usize>| helper();
        let job = Job {
            body: &body,
            n: 1,
            step: 1,
            cursor: Cursor(AtomicUsize::new(0)),
        };
        let outcome = global().post(&job, 1, caller);
        drop(self);
        outcome.unwrap_or_else(|payload| panic::resume_unwind(payload))
    }
}

/// `data` as a `*mut` that chunk bodies on other threads may carve up.
struct RowsPtr(*mut f32);

// SAFETY: only ever dereferenced through disjoint row ranges of a slice
// that is exclusively borrowed for the duration of the job
// (`row_chunks_on`).
unsafe impl Sync for RowsPtr {}

impl RowsPtr {
    /// # Safety
    /// `start .. start + len` must lie inside the slice this was made
    /// from, that slice must stay exclusively borrowed for `'a`, and no
    /// two live results may overlap.
    unsafe fn slice_mut<'a>(&self, start: usize, len: usize) -> &'a mut [f32] {
        // SAFETY: the caller's contract, restated above.
        unsafe { std::slice::from_raw_parts_mut(self.0.add(start), len) }
    }
}

fn row_chunks_on(
    pool: &Pool,
    data: &mut [f32],
    cols: usize,
    step: usize,
    cap: usize,
    body: &(dyn Fn(usize, &mut [f32]) + Sync),
) {
    if cols == 0 {
        return;
    }
    assert_eq!(data.len() % cols, 0, "buffer is not whole rows");
    let rows = data.len() / cols;
    let base = RowsPtr(data.as_mut_ptr());
    pool.run(rows, step, cap, &|r: Range<usize>| {
        // SAFETY: `run` hands out disjoint subranges of `0..rows`, so the
        // blocks never alias; each lies inside `data`, which this function
        // borrows exclusively until `run` has returned.
        let block = unsafe { base.slice_mut(r.start * cols, r.len() * cols) };
        body(r.start, block);
    });
}

/// [`for_each_chunk`] over the rows of a row-major buffer `cols` wide:
/// `body(first_row, block)` gets exclusive access to the rows of its
/// chunk, `block.len() / cols` of them starting at `first_row`.
pub fn for_each_row_chunk(
    data: &mut [f32],
    cols: usize,
    step: usize,
    cap: usize,
    body: impl Fn(usize, &mut [f32]) + Sync,
) {
    row_chunks_on(global(), data, cols, step, cap, &body);
}

/// Row-chunk an op whose cost is `row_work` per row (in
/// [`MIN_PARALLEL_WORK`] units): on the caller alone below the cutoff,
/// over the whole pool above it. Both decisions read only the shape of
/// the input.
pub(crate) fn for_each_row_block(
    data: &mut [f32],
    cols: usize,
    row_work: usize,
    body: impl Fn(usize, &mut [f32]) + Sync,
) {
    if data.is_empty() {
        return;
    }
    let rows = data.len() / cols;
    if rows.saturating_mul(row_work) < MIN_PARALLEL_WORK {
        return body(0, data);
    }
    // Whole multiples of eight rows, so row-tiled kernels see full tiles
    // everywhere but at the end of the matrix.
    let step = (CHUNK_WORK / row_work).max(1).next_multiple_of(8);
    for_each_row_chunk(data, cols, step, 0, body);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::mpsc;

    fn hits(pool: &Pool, n: usize, step: usize, cap: usize) -> Vec<u32> {
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        pool.run(n, step, cap, &|r: Range<usize>| {
            assert!(r.len() <= step.max(1));
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        hits.into_iter().map(AtomicU32::into_inner).collect()
    }

    #[test]
    fn every_index_exactly_once_at_sizes_that_do_not_divide() {
        let pool = Pool::new(3);
        for (n, step) in [(10_007, 7), (1, 64), (5, 1000), (1000, 999), (97, 0)] {
            for cap in [0, 1, 2, 3, 4, 9] {
                assert!(
                    hits(&pool, n, step, cap).iter().all(|&h| h == 1),
                    "n {n} step {step} cap {cap}"
                );
            }
        }
        assert!(hits(&pool, 0, 8, 0).is_empty());
    }

    #[test]
    fn helpers_take_part() {
        // Every participant blocks in its first chunk until all four have
        // arrived; the job only finishes if three helpers really join.
        let pool = Pool::new(3);
        let barrier = std::sync::Barrier::new(4);
        let arrived = AtomicU32::new(0);
        pool.run(4, 1, 0, &|_| {
            arrived.fetch_add(1, Ordering::Relaxed);
            barrier.wait();
        });
        assert_eq!(arrived.into_inner(), 4);
    }

    #[test]
    fn cap_limits_participants() {
        let pool = Pool::new(3);
        assert_eq!(pool.participants(0), 4);
        assert_eq!(pool.participants(2), 2);
        assert_eq!(pool.participants(9), 4);
        let threads = Mutex::new(std::collections::HashSet::new());
        pool.run(64, 1, 2, &|_| {
            threads.lock().unwrap().insert(thread::current().id());
            thread::yield_now();
        });
        assert!(threads.into_inner().unwrap().len() <= 2);
    }

    #[test]
    fn concurrent_second_caller_completes_inline() {
        let pool = Pool::new(1);
        let (started_tx, started_rx) = mpsc::channel();
        let (second_done_tx, second_done_rx) = mpsc::channel::<()>();
        let started_tx = Mutex::new(started_tx);
        let second_done_rx = Mutex::new(second_done_rx);
        thread::scope(|s| {
            s.spawn(|| {
                // Holds the pool until the second caller has finished: if
                // that one waited for its turn, this would never return.
                pool.run(2, 1, 0, &|r: Range<usize>| {
                    if r.start == 0 {
                        started_tx.lock().unwrap().send(()).unwrap();
                        second_done_rx.lock().unwrap().recv().unwrap();
                    }
                });
            });
            started_rx.recv().unwrap();
            let me = thread::current().id();
            let inline = AtomicU32::new(0);
            pool.run(100, 3, 0, &|r: Range<usize>| {
                assert_eq!(thread::current().id(), me, "busy pool must run inline");
                inline.fetch_add(r.len() as u32, Ordering::Relaxed);
            });
            assert_eq!(inline.into_inner(), 100);
            second_done_tx.send(()).unwrap();
        });
    }

    #[test]
    fn nested_call_runs_inline() {
        let pool = Pool::new(2);
        let total = AtomicU32::new(0);
        pool.run(8, 1, 0, &|_| {
            pool.run(10, 2, 0, &|r: Range<usize>| {
                total.fetch_add(r.len() as u32, Ordering::Relaxed);
            });
        });
        assert_eq!(total.into_inner(), 80);
    }

    /// [`reserve`] on the global pool, waiting out other tests' jobs;
    /// `None` only on a machine with a single hardware thread.
    fn reserve_global() -> Option<Reserved> {
        if global().helpers.is_empty() {
            return None;
        }
        loop {
            if let Some(r) = reserve() {
                return Some(r);
            }
            thread::yield_now();
        }
    }

    #[test]
    fn alongside_runs_the_helper_body_next_to_the_caller() {
        let Some(reserved) = reserve_global() else {
            return;
        };
        // Both bodies block until the other has arrived: this only returns
        // if a helper really runs `helper` while the caller runs its own.
        let barrier = std::sync::Barrier::new(2);
        let me = thread::current().id();
        let helper_thread = Mutex::new(None);
        let got = reserved.alongside(
            || {
                *helper_thread.lock().unwrap() = Some(thread::current().id());
                barrier.wait();
            },
            || {
                barrier.wait();
                7
            },
        );
        assert_eq!(got, 7);
        assert_ne!(helper_thread.into_inner().unwrap(), Some(me));
    }

    #[test]
    fn reserve_inside_a_job_is_refused() {
        let Some(reserved) = reserve_global() else {
            return;
        };
        let nested = AtomicU32::new(0);
        reserved.alongside(
            || (),
            || {
                // The pool is taken by this very pair: a nested reservation
                // or pooled op must not wait for it.
                assert!(reserve().is_none());
                for_each_chunk(10, 1, 0, |r| {
                    nested.fetch_add(r.len() as u32, Ordering::Relaxed);
                });
            },
        );
        assert_eq!(nested.into_inner(), 10);
    }

    #[test]
    fn alongside_rethrows_the_helpers_panic() {
        let Some(reserved) = reserve_global() else {
            return;
        };
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            reserved.alongside(|| panic!("helper boom"), || ());
        }));
        let payload = caught.expect_err("the helper's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"helper boom"));
        assert!(!global().turn.is_poisoned(), "the pool is free again");
    }

    #[test]
    fn panic_propagates_and_pool_survives() {
        let pool = Pool::new(2);
        for victim in [0, 37, 99] {
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run(100, 1, 0, &|r: Range<usize>| {
                    if r.start == victim {
                        panic!("boom at {victim}");
                    }
                });
            }));
            let payload = caught.expect_err("the body's panic must reach the caller");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some(format!("boom at {victim}").as_str())
            );
            assert!(hits(&pool, 1000, 7, 0).iter().all(|&h| h == 1));
        }
    }

    #[test]
    fn row_blocks_are_disjoint_and_independent_of_participants() {
        let fill = |pool: &Pool, cap: usize, step: usize| {
            let mut data = vec![0.0f32; 1003 * 5];
            row_chunks_on(pool, &mut data, 5, step, cap, &|first, block| {
                for (i, row) in block.chunks_mut(5).enumerate() {
                    for (c, v) in row.iter_mut().enumerate() {
                        *v += ((first + i) * 5 + c) as f32;
                    }
                }
            });
            data
        };
        let want: Vec<f32> = (0..1003 * 5).map(|i| i as f32).collect();
        let pool = Pool::new(3);
        for cap in [1, 2, 3, 4] {
            for step in [1, 8, 64, 2000] {
                assert_eq!(fill(&pool, cap, step), want, "cap {cap} step {step}");
            }
        }
        assert_eq!(fill(&Pool::new(0), 0, 16), want);
    }

    #[test]
    fn zero_width_rows_are_a_noop() {
        for_each_row_chunk(&mut [], 0, 8, 0, |_, _| panic!("no rows to visit"));
        for_each_row_block(&mut [], 0, 1, |_, _| panic!("no rows to visit"));
    }

    #[test]
    fn small_work_stays_on_the_caller_as_one_block() {
        let me = thread::current().id();
        let mut data = vec![0.0f32; 64 * 4];
        let calls = AtomicU32::new(0);
        for_each_row_block(&mut data, 4, MIN_PARALLEL_WORK / 64 - 1, |first, block| {
            assert_eq!((first, block.len()), (0, 64 * 4));
            assert_eq!(thread::current().id(), me);
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.into_inner(), 1);
    }

    #[test]
    fn large_work_is_chunked_in_multiples_of_eight_rows() {
        let mut data = vec![0.0f32; 4099 * 2];
        let row_work = MIN_PARALLEL_WORK / 4096;
        let step = (CHUNK_WORK / row_work).next_multiple_of(8);
        for_each_row_block(&mut data, 2, row_work, |first, block| {
            assert_eq!(first % step, 0);
            assert!(block.len() / 2 == step || first + block.len() / 2 == 4099);
            block.fill(1.0);
        });
        assert!(data.iter().all(|&v| v == 1.0));
    }
}
