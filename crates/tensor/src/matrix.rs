//! Row-major dense `f32` matrices — the feature-matrix representation the
//! GNN layers operate on.
//!
//! A vertex feature matrix is `num_vertices × feature_dim`, stored row
//! major so one vertex's feature vector is contiguous — the property the
//! paper's feature parallelism exploits for coalesced access, and which
//! the device-side kernels assume when they index `v * dim + lane`.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

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
    pub fn random(rows: usize, cols: usize, scale: f32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..rows * cols)
            .map(|_| (rng.random::<f32>() * 2.0 - 1.0) * scale)
            .collect();
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
