//! Dense linear layer (`x @ W + b`) — the learned projection of every GNN
//! layer, applied before or after its graph convolution.

use crate::matrix::Matrix;
use crate::ops;

/// A fully-connected layer.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Matrix,
    bias: Option<Vec<f32>>,
}

impl Linear {
    /// Glorot-initialized layer mapping `in_dim -> out_dim`.
    pub fn new(in_dim: usize, out_dim: usize, bias: bool, seed: u64) -> Self {
        Self {
            weight: Matrix::glorot(in_dim, out_dim, seed),
            bias: bias.then(|| vec![0.0; out_dim]),
        }
    }

    /// Layer with explicit parameters (tests, loading).
    pub fn from_parts(weight: Matrix, bias: Option<Vec<f32>>) -> Self {
        if let Some(b) = &bias {
            assert_eq!(b.len(), weight.cols(), "bias length mismatch");
        }
        Self { weight, bias }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.weight.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.weight.cols()
    }

    /// The weight matrix.
    pub fn weight(&self) -> &Matrix {
        &self.weight
    }

    /// The bias row, if the layer has one.
    pub fn bias(&self) -> Option<&[f32]> {
        self.bias.as_deref()
    }

    /// Forward pass: `x @ W (+ b)`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.in_dim(), "input feature dim mismatch");
        ops::dense(ops::matmul(x, &self.weight), None, None, self.bias(), false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shapes() {
        let layer = Linear::new(8, 4, true, 1);
        let x = Matrix::random(10, 8, 1.0, 2);
        let y = layer.forward(&x);
        assert_eq!(y.shape(), (10, 4));
        assert!(y.all_finite());
    }

    #[test]
    fn identity_weight_passthrough() {
        let mut eye = Matrix::zeros(3, 3);
        for i in 0..3 {
            eye.set(i, i, 1.0);
        }
        let layer = Linear::from_parts(eye, None);
        let x = Matrix::random(5, 3, 1.0, 3);
        assert!(layer.forward(&x).max_abs_diff(&x) < 1e-6);
    }

    #[test]
    fn bias_applied() {
        let layer = Linear::from_parts(Matrix::zeros(2, 2), Some(vec![1.5, -0.5]));
        assert_eq!(layer.bias(), Some(&[1.5, -0.5][..]));
        let x = Matrix::random(4, 2, 1.0, 4);
        let y = layer.forward(&x);
        for r in 0..4 {
            assert_eq!(y.row(r), &[1.5, -0.5]);
        }
    }

    #[test]
    #[should_panic(expected = "input feature dim mismatch")]
    fn shape_mismatch_panics() {
        let layer = Linear::new(8, 4, false, 1);
        let x = Matrix::zeros(2, 5);
        let _ = layer.forward(&x);
    }
}
