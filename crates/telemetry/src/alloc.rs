//! Per-thread heap counters and the counting global allocator that feeds
//! them. `perf_report` installs [`CountingAlloc`] to attribute heap
//! bytes and allocation counts to serve batches (`batch.alloc_*`
//! histograms) and to its own run. The counters live here
//! unconditionally — reading them is free and returns zeros when no
//! counting allocator is installed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static TOTAL_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Heap counters for the calling thread (see [`thread_alloc_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Allocations (plus reallocations) performed.
    pub allocs: u64,
    /// Bytes requested across those allocations.
    pub bytes: u64,
}

impl AllocStats {
    /// Counter deltas since an earlier snapshot of the same thread.
    pub fn since(&self, earlier: &AllocStats) -> AllocStats {
        AllocStats {
            allocs: self.allocs.wrapping_sub(earlier.allocs),
            bytes: self.bytes.wrapping_sub(earlier.bytes),
        }
    }
}

/// This thread's allocation counters. All zeros (and deltas stay zero)
/// unless the process installed [`CountingAlloc`] as its global
/// allocator.
pub fn thread_alloc_stats() -> AllocStats {
    AllocStats {
        allocs: THREAD_ALLOCS.with(|c| c.get()),
        bytes: THREAD_ALLOC_BYTES.with(|c| c.get()),
    }
}

/// Whether a counting allocator is live in this process (any allocation
/// has been counted).
pub fn alloc_counting_installed() -> bool {
    TOTAL_ALLOCS.load(Ordering::Relaxed) > 0
}

/// A counting global allocator: forwards to [`System`] and bumps the
/// per-thread and process-wide counters. Install it from a binary that
/// wants per-request allocation attribution:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: telemetry::alloc::CountingAlloc = telemetry::alloc::CountingAlloc;
/// ```
///
/// The counter bumps are a `Cell` add and one relaxed atomic — safe
/// inside the allocator (no allocation, no lazy init) and cheap enough
/// for bench binaries; the library never installs it for you.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[inline]
fn count(bytes: usize) {
    THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
    THREAD_ALLOC_BYTES.with(|c| c.set(c.get() + bytes as u64));
    TOTAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_stats_delta() {
        let a = AllocStats {
            allocs: 10,
            bytes: 100,
        };
        let b = AllocStats {
            allocs: 14,
            bytes: 350,
        };
        assert_eq!(
            b.since(&a),
            AllocStats {
                allocs: 4,
                bytes: 250
            }
        );
    }
}
