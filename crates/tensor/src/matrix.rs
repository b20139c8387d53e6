//! Row-major dense `f32` matrices — the feature-matrix representation the
//! GNN layers operate on.
//!
//! A vertex feature matrix is `num_vertices × feature_dim`, stored row
//! major so one vertex's feature vector is contiguous — the property the
//! paper's feature parallelism exploits for coalesced access, and which
//! the device-side kernels assume when they index `v * dim + lane`.

use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::pool;

/// Buffers shorter than this many bytes are never held: the allocator
/// serves them from its heap without mapping pages, and below its
/// default mapping threshold (128 KiB) a fresh one costs no faults.
const SPARE_MIN_BYTES: usize = 128 << 10;

/// Most buffers held at once. A forward keeps at most two spare shapes
/// in flight (the input-width and the output-width intermediates); the
/// rest absorb a second network or graph interleaved with the first.
const SPARE_SLOTS: usize = 4;

/// The spare-buffer store: large buffers that [`Matrix::recycle`] gave
/// back, oldest first, for [`Matrix::for_overwrite`] to hand out again.
/// Reusing a buffer reuses its mapped pages, so a steady-state forward
/// takes no page faults for its intermediates; a freed large block goes
/// back to the kernel instead, and its replacement is faulted in afresh,
/// one page at a time.
struct Spares(Vec<Vec<f32>>);

impl Spares {
    /// The newest held buffer of exactly `len` elements.
    fn take(&mut self, len: usize) -> Option<Vec<f32>> {
        let newest = self.0.iter().rposition(|b| b.len() == len)?;
        Some(self.0.remove(newest))
    }

    /// Hold `buf` if it is large enough, dropping the oldest buffer when
    /// every slot is full.
    fn give(&mut self, buf: Vec<f32>) {
        if buf.len() * std::mem::size_of::<f32>() < SPARE_MIN_BYTES {
            return;
        }
        if self.0.len() == SPARE_SLOTS {
            self.0.remove(0);
        }
        self.0.push(buf);
    }
}

static SPARES: Mutex<Spares> = Mutex::new(Spares(Vec::new()));

/// The store, locked. A holder cannot leave it half-updated, so a
/// poisoned lock is taken over as it is.
fn spares() -> MutexGuard<'static, Spares> {
    SPARES.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The `j`-th `next_u64` (from 0) of `StdRng::seed_from_u64(seed)`,
/// without the `j` draws before it: the generator is splitmix64, whose
/// state before that draw is `seed + (j + 1)·γ`.
fn draw(seed: u64, j: u64) -> u64 {
    const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut z = seed.wrapping_add(j.wrapping_add(2).wrapping_mul(GAMMA));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// A draw as `random::<f32>()` makes it: the top 24 bits of its
/// `next_u32` (the draw's high half), uniform in `[0, 1)`.
fn unit_f32(x: u64) -> f32 {
    ((x >> 32) as u32 >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
}

/// A dense row-major `f32` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix filled with one value.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Build from an existing buffer (length must equal `rows * cols`).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/buffer mismatch");
        Self { rows, cols, data }
    }

    /// A matrix whose every element the caller is about to write: a held
    /// spare buffer of exactly `rows * cols` elements when the store has
    /// one, a fresh zeroed buffer otherwise. Debug builds fill it with
    /// NaN, so an element the writer skips shows in any comparison.
    pub fn for_overwrite(rows: usize, cols: usize) -> Self {
        let len = rows * cols;
        let spare = spares().take(len);
        let mut data = spare.unwrap_or_else(|| vec![0.0; len]);
        if cfg!(debug_assertions) {
            data.fill(f32::NAN);
        }
        Self { rows, cols, data }
    }

    /// Give the buffer back for a later [`Self::for_overwrite`] of the
    /// same length to reuse. The store holds a few buffers of 128 KiB or
    /// more and drops the rest, oldest first.
    pub fn recycle(self) {
        spares().give(self.data);
    }

    /// Uniform random entries in `[-scale, scale)`, deterministic in seed.
    /// The paper initializes features and weights to random 32-bit floats
    /// (Section 7.1); this is that initializer.
    ///
    /// Element `k` (row major) is `StdRng::seed_from_u64(seed)`'s `k`-th
    /// `random::<f32>()`, computed from the counter alone, so rows fill
    /// on [`pool`](crate::pool) and the matrix is the same bits whatever
    /// the thread count.
    pub fn random(rows: usize, cols: usize, scale: f32, seed: u64) -> Self {
        let mut data = vec![0.0; rows * cols];
        pool::for_each_row_block(
            &mut data,
            cols,
            cols * pool::STREAMED_ELEMENT_WORK,
            |first, block| {
                let first = (first * cols) as u64;
                for (k, v) in (first..).zip(block) {
                    *v = (unit_f32(draw(seed, k)) * 2.0 - 1.0) * scale;
                }
            },
        );
        Self { rows, cols, data }
    }

    /// Glorot/Xavier-uniform initializer for weight matrices.
    pub(crate) fn glorot(rows: usize, cols: usize, seed: u64) -> Self {
        let limit = (6.0 / (rows + cols) as f32).sqrt();
        Self::random(rows, cols, limit, seed)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Flat data slice (row major).
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat data slice.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// One row as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Maximum absolute elementwise difference to another matrix of the
    /// same shape.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// True when all entries are finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_access() {
        let mut m = Matrix::zeros(3, 4);
        m.set(2, 3, 7.0);
        assert_eq!(m.get(2, 3), 7.0);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.row(2), &[0.0, 0.0, 0.0, 7.0]);
    }

    #[test]
    fn random_is_deterministic_and_bounded() {
        let a = Matrix::random(10, 10, 0.5, 42);
        let b = Matrix::random(10, 10, 0.5, 42);
        assert_eq!(a, b);
        assert!(a.data().iter().all(|v| v.abs() <= 0.5));
        assert_ne!(a, Matrix::random(10, 10, 0.5, 43));
    }

    /// The sequential initializer `random` replaced: one `StdRng`
    /// stream, one element after another.
    fn reference_random(rows: usize, cols: usize, scale: f32, seed: u64) -> Matrix {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..rows * cols)
            .map(|_| (rng.random::<f32>() * 2.0 - 1.0) * scale)
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn random_matches_the_sequential_stream() {
        // Empty shapes, a single element, odd shapes, and one past the
        // pool's cutoff whose rows do not divide into its chunks.
        let shapes = [(0, 5), (5, 0), (1, 1), (3, 7), (1031, 1024)];
        for (rows, cols) in shapes {
            for seed in [0, 7, u64::MAX] {
                let (got, want) = (
                    Matrix::random(rows, cols, 0.75, seed),
                    reference_random(rows, cols, 0.75, seed),
                );
                let same = got
                    .data()
                    .iter()
                    .zip(want.data())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(
                    same && got.shape() == want.shape(),
                    "{rows}x{cols} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn glorot_limit_shrinks_with_size() {
        let small = Matrix::glorot(4, 4, 1);
        let large = Matrix::glorot(400, 400, 1);
        let max_small = small.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let max_large = large.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        assert!(max_large < max_small);
    }

    #[test]
    fn max_abs_diff_zero_for_self() {
        let a = Matrix::random(5, 5, 1.0, 9);
        assert_eq!(a.max_abs_diff(&a), 0.0);
    }

    /// A spare holding exactly the values a writer means to store, so
    /// only the poison can show the row it skips.
    #[test]
    #[cfg(debug_assertions)]
    fn a_writer_that_skips_a_row_is_caught() {
        // Past the store's minimum, a length no other test uses.
        let (rows, cols, skipped) = (1031, 37, 517);
        let want = Matrix::random(rows, cols, 1.0, 11);
        want.clone().recycle();
        let mut got = Matrix::for_overwrite(rows, cols);
        for r in (0..rows).filter(|&r| r != skipped) {
            got.row_mut(r).copy_from_slice(want.row(r));
        }
        assert!(got.row(skipped).iter().all(|v| v.is_nan()));
        assert_ne!(got, want);
    }

    #[test]
    fn spares_match_exact_lengths_and_drop_the_oldest() {
        let big = SPARE_MIN_BYTES / std::mem::size_of::<f32>();
        let mut store = Spares(Vec::new());
        store.give(vec![0.0; big - 1]);
        assert!(store.0.is_empty(), "a buffer under 128 KiB is not held");
        for len in big..big + SPARE_SLOTS + 1 {
            store.give(vec![len as f32; len]);
        }
        assert_eq!(store.0.len(), SPARE_SLOTS);
        assert_eq!(store.take(big), None, "the oldest was dropped");
        assert_eq!(store.take(big + 2).map(|b| b.len()), Some(big + 2));
        assert_eq!(store.take(big + 2), None, "a buffer is handed out once");
        store.give(vec![1.0; big + 1]);
        assert_eq!(store.take(big + 1).map(|b| b[0]), Some(1.0), "newest first");
    }

    #[test]
    #[should_panic(expected = "shape/buffer mismatch")]
    fn from_vec_validates() {
        let _ = Matrix::from_vec(2, 2, vec![0.0; 3]);
    }
}
