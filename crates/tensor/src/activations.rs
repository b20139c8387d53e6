//! Activation functions and row-wise normalizations (the `σ` of the GNN
//! layer equation, paper Section 2.1).

use crate::matrix::Matrix;
use crate::pool::{self, STREAMED_ELEMENT_WORK};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Rough cost of one `exp` next to a multiply-add of the tiled matmul
/// (see [`pool::MIN_PARALLEL_WORK`]).
const EXP_WORK: usize = 128;

/// ReLU in place.
pub fn relu(m: &mut Matrix) {
    let cols = m.cols();
    pool::for_each_row_block(
        m.data_mut(),
        cols,
        cols * STREAMED_ELEMENT_WORK,
        |_, block| {
            for v in block {
                *v = v.max(0.0);
            }
        },
    );
}

/// Scalar LeakyReLU (GAT's edge-score activation, slope 0.2, inside the
/// fused kernels).
#[inline]
pub fn leaky_relu_scalar(x: f32, slope: f32) -> f32 {
    if x >= 0.0 {
        x
    } else {
        slope * x
    }
}

/// Numerically-stable row softmax in place.
pub fn softmax_rows(m: &mut Matrix) {
    let cols = m.cols();
    for row in m.data_mut().chunks_mut(cols.max(1)) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        if sum > 0.0 {
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
    }
}

/// Row log-softmax in place (classification heads).
pub fn log_softmax_rows(m: &mut Matrix) {
    let cols = m.cols();
    pool::for_each_row_block(m.data_mut(), cols, cols * EXP_WORK, |_, block| {
        for row in block.chunks_exact_mut(cols) {
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let log_sum = row.iter().map(|v| (v - max).exp()).sum::<f32>().ln();
            for v in row.iter_mut() {
                *v = *v - max - log_sum;
            }
        }
    });
}

/// Inverted dropout: zero each entry with probability `p` and scale
/// survivors by `1 / (1 - p)`. Deterministic in the seed.
pub fn dropout(m: &mut Matrix, p: f32, seed: u64) {
    assert!((0.0..1.0).contains(&p), "dropout p must be in [0, 1)");
    if p == 0.0 {
        return;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let keep = 1.0 - p;
    for v in m.data_mut() {
        if rng.random::<f32>() < p {
            *v = 0.0;
        } else {
            *v /= keep;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let mut m = Matrix::from_vec(1, 4, vec![-2.0, -0.1, 0.0, 3.0]);
        relu(&mut m);
        assert_eq!(m.data(), &[0.0, 0.0, 0.0, 3.0]);
    }

    #[test]
    fn leaky_relu_scales_negatives() {
        assert_eq!(leaky_relu_scalar(-1.0, 0.2), -0.2);
        assert_eq!(leaky_relu_scalar(2.0, 0.2), 2.0);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut m = Matrix::random(5, 8, 3.0, 7);
        softmax_rows(&mut m);
        for r in 0..5 {
            let s: f32 = m.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(m.row(r).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn softmax_stable_for_large_inputs() {
        let mut m = Matrix::from_vec(1, 3, vec![1000.0, 1000.0, 1000.0]);
        softmax_rows(&mut m);
        assert!(m.all_finite());
        assert!((m.get(0, 0) - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn log_softmax_matches_softmax() {
        let mut a = Matrix::random(3, 5, 2.0, 11);
        let mut b = a.clone();
        softmax_rows(&mut a);
        log_softmax_rows(&mut b);
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x.ln() - y).abs() < 1e-4);
        }
    }

    #[test]
    fn dropout_preserves_expectation() {
        let mut m = Matrix::full(100, 100, 1.0);
        dropout(&mut m, 0.5, 3);
        let mean: f32 = m.data().iter().sum::<f32>() / 10_000.0;
        assert!((mean - 1.0).abs() < 0.05, "mean = {mean}");
        let zeros = m.data().iter().filter(|&&v| v == 0.0).count();
        assert!((zeros as f32 / 10_000.0 - 0.5).abs() < 0.05);
    }

    #[test]
    fn dropout_zero_p_is_identity() {
        let mut m = Matrix::random(4, 4, 1.0, 5);
        let before = m.clone();
        dropout(&mut m, 0.0, 1);
        assert_eq!(m, before);
    }
}
