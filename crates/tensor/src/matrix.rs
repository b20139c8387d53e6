//! Row-major dense `f32` matrices — the feature-matrix representation the
//! GNN layers operate on.
//!
//! A vertex feature matrix is `num_vertices × feature_dim`, stored row
//! major so one vertex's feature vector is contiguous — the property the
//! paper's feature parallelism exploits for coalesced access, and which
//! the device-side kernels assume when they index `v * dim + lane`.

use crate::pool;

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

    #[test]
    #[should_panic(expected = "shape/buffer mismatch")]
    fn from_vec_validates() {
        let _ = Matrix::from_vec(2, 2, vec![0.0; 3]);
    }
}
