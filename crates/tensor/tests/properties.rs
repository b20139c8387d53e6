//! Property-based tests of the dense tensor substrate.

use proptest::prelude::*;
use tlpgnn_tensor::{activations, ops, Linear, Matrix};

fn arb_matrix(max_r: usize, max_c: usize) -> impl Strategy<Value = Matrix> {
    (1usize..max_r, 1usize..max_c, any::<u64>())
        .prop_map(|(r, c, seed)| Matrix::random(r, c, 1.0, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (A B)ᵀ = Bᵀ Aᵀ.
    #[test]
    fn matmul_transpose_identity(
        (r, k, c, s1, s2) in (1usize..12, 1usize..12, 1usize..12, any::<u64>(), any::<u64>())
    ) {
        let a = Matrix::random(r, k, 1.0, s1);
        let b = Matrix::random(k, c, 1.0, s2);
        let lhs = ops::transpose(&ops::matmul(&a, &b));
        let rhs = ops::matmul(&ops::transpose(&b), &ops::transpose(&a));
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-4);
    }

    /// Matmul distributes over addition: (A + B) C = AC + BC.
    #[test]
    fn matmul_distributes(
        (r, k, c, s1, s2, s3) in
            (1usize..10, 1usize..10, 1usize..10, any::<u64>(), any::<u64>(), any::<u64>())
    ) {
        let a = Matrix::random(r, k, 1.0, s1);
        let b = Matrix::random(r, k, 1.0, s2);
        let cm = Matrix::random(k, c, 1.0, s3);
        let lhs = ops::matmul(&ops::add(&a, &b), &cm);
        let rhs = ops::add(&ops::matmul(&a, &cm), &ops::matmul(&b, &cm));
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-4);
    }

    /// Softmax rows are probability vectors and invariant to row shifts.
    #[test]
    fn softmax_shift_invariant(m in arb_matrix(12, 12), shift in -5.0f32..5.0) {
        let mut a = m.clone();
        activations::softmax_rows(&mut a);
        let mut b = m.clone();
        for v in b.data_mut() {
            *v += shift;
        }
        activations::softmax_rows(&mut b);
        prop_assert!(a.max_abs_diff(&b) < 1e-4);
        for r in 0..a.rows() {
            let s: f32 = a.row(r).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4);
        }
    }

    /// ReLU is idempotent and non-negative.
    #[test]
    fn relu_idempotent(m in arb_matrix(12, 12)) {
        let mut once = m.clone();
        activations::relu(&mut once);
        let mut twice = once.clone();
        activations::relu(&mut twice);
        prop_assert_eq!(&once, &twice);
        prop_assert!(once.data().iter().all(|&v| v >= 0.0));
    }

    /// log-softmax exponentiates to softmax.
    #[test]
    fn log_softmax_consistent(m in arb_matrix(10, 10)) {
        let mut soft = m.clone();
        activations::softmax_rows(&mut soft);
        let mut log = m.clone();
        activations::log_softmax_rows(&mut log);
        for (s, l) in soft.data().iter().zip(log.data()) {
            prop_assert!((s - l.exp()).abs() < 1e-4);
        }
    }

    /// Linear layers are linear: f(ax) = a f(x) when bias-free.
    #[test]
    fn linear_is_linear((r, i, o, s) in (1usize..10, 1usize..10, 1usize..10, any::<u64>()),
                        scale in -3.0f32..3.0) {
        let layer = Linear::new(i, o, false, s);
        let x = Matrix::random(r, i, 1.0, s ^ 1);
        let mut sx = x.clone();
        for v in sx.data_mut() {
            *v *= scale;
        }
        let lhs = layer.forward(&sx);
        let mut rhs = layer.forward(&x);
        for v in rhs.data_mut() {
            *v *= scale;
        }
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-3);
    }

    /// Dropout with p=0 is the identity; with p>0 it zeroes about p of
    /// the entries on large matrices.
    #[test]
    fn dropout_rate(seed in any::<u64>(), p in 0.1f32..0.9) {
        let mut m = Matrix::full(80, 80, 1.0);
        activations::dropout(&mut m, p, seed);
        let zeros = m.data().iter().filter(|&&v| v == 0.0).count() as f32;
        let rate = zeros / 6400.0;
        prop_assert!((rate - p).abs() < 0.08, "rate {rate} vs p {p}");
    }
}
