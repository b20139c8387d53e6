//! Algorithm 1 on the CPU: dynamic chunked self-scheduling.
//!
//! A shared atomic cursor hands out chunks of `step` consecutive work
//! items; each participating thread pulls until the pool drains. This is
//! the paper's software-based dynamic workload assignment, with a thread
//! standing in for a warp. The threads and the cursor live in
//! [`tlpgnn_tensor::pool`] — started once and parked between calls, shared
//! with the dense ops — and this is its per-item face.

use tlpgnn_tensor::pool;

/// Run `f(i)` for every `i in 0..n`, distributing work dynamically in
/// chunks of `step` across at most `threads` threads of the shared pool,
/// the caller among them (0 = all of the pool).
///
/// `f` must tolerate concurrent invocation for distinct `i` — typical use
/// writes only to data owned by item `i`.
pub fn task_pool_for(n: usize, step: usize, threads: usize, f: impl Fn(usize) + Sync) {
    pool::for_each_chunk(n, step, threads, |chunk| chunk.for_each(&f));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn covers_every_item_exactly_once() {
        let n = 10_000;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        task_pool_for(n, 7, 8, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn zero_items_is_noop() {
        task_pool_for(0, 8, 4, |_| panic!("must not be called"));
    }

    #[test]
    fn single_thread_works() {
        let sum = AtomicU64::new(0);
        task_pool_for(100, 13, 1, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4950);
    }

    #[test]
    fn step_larger_than_n() {
        let count = AtomicU64::new(0);
        task_pool_for(5, 1000, 4, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 5);
    }
}
