//! A steady-state host forward maps no fresh pages for its
//! intermediates: past the first forward, every large buffer but the one
//! it returns comes back from `Matrix`'s spare store; and a convolution
//! allocates per call, never per chunk of rows. A counting global
//! allocator makes those hard assertions rather than readings of a
//! fault counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use tlpgnn::{GnnModel, GnnNetwork, NativeEngine};
use tlpgnn_graph::generators;
use tlpgnn_tensor::Matrix;

/// The size from which the allocator maps fresh pages for a block (its
/// default mapping threshold), and from which the spare store holds one.
const LARGE_BYTES: usize = 128 << 10;

static LARGE: AtomicU64 = AtomicU64::new(0);

/// Every allocation, of any size.
static ALL: AtomicU64 = AtomicU64::new(0);

/// Held by each test for its whole body: the counters are global, so no
/// other test of this binary may allocate inside a measured window.
static SERIAL: Mutex<()> = Mutex::new(());

struct CountingAlloc;

impl CountingAlloc {
    fn count(size: usize) {
        ALL.fetch_add(1, Ordering::Relaxed);
        if size >= LARGE_BYTES {
            LARGE.fetch_add(1, Ordering::Relaxed);
        }
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn bits(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn second_forward_allocates_only_its_output() {
    let _serial = serial();
    // 16 columns of 3000 rows are 192 000 bytes: every intermediate is
    // large enough for the store.
    let n = 3000;
    let g = generators::rmat_default(n, 8 * n, 1);
    let engine = NativeEngine::default();
    // Layer orders (A = aggregate first, P = project first): A in place
    // then P; A widening then P; P then A widening.
    for (in_dim, hidden, classes) in [(64, 64, 16), (16, 64, 16), (64, 16, 64)] {
        let x = Matrix::random(n, in_dim, 1.0, 2);
        for which in 0..4 {
            let net = GnnNetwork::two_layer(
                |d| GnnModel::all_four(d).swap_remove(which),
                in_dim,
                hidden,
                classes,
                3,
            );
            let forward = || net.forward_with(&x, |m, h| engine.conv(m, &g, h));
            let first = forward();
            let before = LARGE.load(Ordering::SeqCst);
            let second = forward();
            let large = LARGE.load(Ordering::SeqCst) - before;
            let name = net.layers[0].model.name();
            assert_eq!(
                large, 1,
                "{name} {in_dim}->{hidden}->{classes}: the second forward's large allocations"
            );
            assert_eq!(
                bits(&second),
                bits(&first),
                "{name} {in_dim}->{hidden}->{classes}: the second forward's output"
            );
        }
    }
    // The counter counts: a fresh large matrix is one allocation.
    let before = LARGE.load(Ordering::SeqCst);
    let fresh = Matrix::zeros(n, 16);
    assert_eq!(LARGE.load(Ordering::SeqCst) - before, 1);
    drop(fresh);
}

/// A convolution's allocations are its per-call set-up (GCN's norms,
/// GAT's two score vectors) and nothing per chunk of rows: the same
/// count on a graph four times the size, at a width whose rows are
/// accumulated in registers (64) and at one whose rows are accumulated
/// in place (19). Both graphs run on every participant of the pool.
#[test]
fn conv_allocations_do_not_grow_with_the_vertex_count() {
    let _serial = serial();
    let engine = NativeEngine::default();
    for width in [64, 19] {
        let [small, large] = [3000, 12_000].map(|n| {
            let g = generators::rmat_default(n, 8 * n, 4);
            let x = Matrix::random(n, width, 1.0, 5);
            GnnModel::all_four(width)
                .iter()
                .map(|model| {
                    // The first call leaves the output's buffer in the
                    // spare store, so the second takes it back.
                    engine.conv(model, &g, &x).recycle();
                    let before = ALL.load(Ordering::SeqCst);
                    let out = engine.conv(model, &g, &x);
                    let count = ALL.load(Ordering::SeqCst) - before;
                    out.recycle();
                    (model.name(), count)
                })
                .collect::<Vec<_>>()
        });
        assert_eq!(large, small, "width {width}: allocations per conv");
        // The counter counts: GCN's norms are one allocation.
        assert_eq!(small[0], ("GCN", 1), "width {width}");
    }
}
