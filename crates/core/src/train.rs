//! Training support: backward passes through the graph convolution and a
//! small end-to-end GCN classifier.
//!
//! The paper measures inference-side graph convolution, but the same
//! kernels carry training: the backward pass of a (linear) graph
//! convolution is *another* graph convolution on the transposed graph.
//! For GCN's symmetrically-normalized operator,
//!
//! ```text
//! out[v] = c_v Σ_{u ∈ N(v)} c_u x[u] + c_v² x[v]
//! ∂L/∂x[u] = c_u Σ_{v : u ∈ N(v)} c_v g[v] + c_u² g[u]
//! ```
//!
//! i.e. the gradient convolution runs over the **reverse** graph with the
//! same normalization coefficients. This module wires that up on the
//! native engine and builds a two-layer GCN node classifier with manual
//! reverse-mode gradients and SGD — the Cora-style semi-supervised
//! workload the paper's introduction motivates.

use crate::model::GnnModel;
use crate::native::NativeEngine;
use crate::oracle;
use tlpgnn_graph::Csr;
use tlpgnn_tensor::{activations, ops, pool, Matrix};

/// The GCN convolution and its transpose, with the reverse graph cached.
///
/// ```
/// use tlpgnn::train::GcnConvPair;
/// use tlpgnn_graph::generators;
/// use tlpgnn_tensor::Matrix;
/// let pair = GcnConvPair::new(generators::rmat_default(100, 700, 3));
/// let x = Matrix::random(100, 8, 1.0, 4);
/// let y = Matrix::random(100, 8, 1.0, 5);
/// // conv_transpose is the adjoint: <Ax, y> == <x, Aᵀy>.
/// let dot = |a: &Matrix, b: &Matrix| -> f64 {
///     a.data().iter().zip(b.data()).map(|(p, q)| (*p as f64) * (*q as f64)).sum()
/// };
/// let lhs = dot(&pair.conv(&x), &y);
/// let rhs = dot(&x, &pair.conv_transpose(&y));
/// assert!((lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0));
/// ```
pub struct GcnConvPair {
    forward: Csr,
    reverse: Csr,
    /// `1/sqrt(deg+1)` of the *forward* graph — both directions use it.
    norm: Vec<f32>,
    engine: NativeEngine,
}

impl GcnConvPair {
    /// Build from a pull-oriented graph.
    pub fn new(g: Csr) -> Self {
        let reverse = g.reverse();
        let norm = oracle::gcn_norm(&g);
        Self {
            forward: g,
            reverse,
            norm,
            engine: NativeEngine::default(),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Csr {
        &self.forward
    }

    /// Forward convolution: `A_hat x`.
    pub fn conv(&self, x: &Matrix) -> Matrix {
        let _span = telemetry::span!("train.conv_forward", rows = x.rows());
        self.engine.conv(&GnnModel::Gcn, &self.forward, x)
    }

    /// Transposed convolution: `A_hatᵀ g` — the gradient path. The same
    /// two-level pull (rows over the task pool, features inside a row)
    /// over the reverse graph, with the forward graph's norms.
    pub fn conv_transpose(&self, g: &Matrix) -> Matrix {
        let _span = telemetry::span!("train.conv_transpose", rows = g.rows());
        let n = self.reverse.num_vertices();
        let f = g.cols();
        assert_eq!(n, g.rows());
        let mut out = Matrix::zeros(n, f);
        let norm = &self.norm;
        let rev = &self.reverse;
        // Rows are independent, so the result is the same bits on any
        // number of pool threads.
        let row_work = (rev.avg_degree() as usize + 1) * f;
        pool::for_each_row_block(out.data_mut(), f, row_work, |first, block| {
            for (i, row) in block.chunks_exact_mut(f).enumerate() {
                let u = first + i;
                let cu = norm[u];
                for &v in rev.neighbors(u) {
                    let w = cu * norm[v as usize];
                    for (o, &gv) in row.iter_mut().zip(g.row(v as usize)) {
                        *o += w * gv;
                    }
                }
                let sw = cu * cu;
                for (o, &gv) in row.iter_mut().zip(g.row(u)) {
                    *o += sw * gv;
                }
            }
        });
        out
    }
}

/// A two-layer GCN node classifier with manual reverse-mode gradients:
/// `logits = A_hat · relu(A_hat X W1 + b1) · W2 + b2`.
pub struct GcnClassifier {
    conv: GcnConvPair,
    w1: Matrix,
    b1: Vec<f32>,
    w2: Matrix,
    b2: Vec<f32>,
}

/// One epoch's training statistics.
#[derive(Debug, Clone, Copy)]
pub struct EpochStats {
    /// Mean cross-entropy over the training mask.
    pub loss: f32,
    /// Accuracy over the training mask.
    pub train_accuracy: f64,
}

impl GcnClassifier {
    /// Build a classifier `in_dim -> hidden -> classes` on a graph.
    pub fn new(g: Csr, in_dim: usize, hidden: usize, classes: usize, seed: u64) -> Self {
        Self {
            conv: GcnConvPair::new(g),
            w1: Matrix::glorot(in_dim, hidden, seed),
            b1: vec![0.0; hidden],
            w2: Matrix::glorot(hidden, classes, seed + 1),
            b2: vec![0.0; classes],
        }
    }

    /// Forward pass returning per-vertex class log-probabilities.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let (_, _, mut logits) = self.forward_cached(x);
        activations::log_softmax_rows(&mut logits);
        logits
    }

    /// Forward keeping the intermediates the backward pass needs:
    /// `(a1 = A_hat x, h1 = relu(a1 W1 + b1), logits)`.
    fn forward_cached(&self, x: &Matrix) -> (Matrix, Matrix, Matrix) {
        let a1 = self.conv.conv(x);
        let mut h1 = ops::matmul(&a1, &self.w1);
        ops::add_bias(&mut h1, &self.b1);
        activations::relu(&mut h1);
        let a2 = self.conv.conv(&h1);
        let mut logits = ops::matmul(&a2, &self.w2);
        ops::add_bias(&mut logits, &self.b2);
        (a1, h1, logits)
    }

    /// Predicted class per vertex.
    fn predict(&self, x: &Matrix) -> Vec<usize> {
        activations::argmax_rows(&self.forward(x))
    }

    /// Accuracy over the vertices selected by `mask`.
    pub fn accuracy(&self, x: &Matrix, labels: &[usize], mask: &[bool]) -> f64 {
        let pred = self.predict(x);
        let mut hit = 0usize;
        let mut total = 0usize;
        for v in 0..labels.len() {
            if mask[v] {
                total += 1;
                hit += (pred[v] == labels[v]) as usize;
            }
        }
        if total == 0 {
            0.0
        } else {
            hit as f64 / total as f64
        }
    }

    /// Reverse-mode gradients of the masked cross-entropy loss.
    fn gradients(&self, x: &Matrix, labels: &[usize], mask: &[bool]) -> (Grads, EpochStats) {
        let n = x.rows();
        assert_eq!(labels.len(), n);
        assert_eq!(mask.len(), n);
        let (a1, h1, logits) = self.forward_cached(x);
        let classes = logits.cols();

        // Softmax + masked cross-entropy; dlogits = (p - y) / |mask|.
        let mut probs = logits;
        activations::softmax_rows(&mut probs);
        let count = mask.iter().filter(|&&m| m).count().max(1) as f32;
        let mut loss = 0.0f32;
        let mut correct = 0usize;
        let mut dlogits = Matrix::zeros(n, classes);
        for v in 0..n {
            if !mask[v] {
                continue;
            }
            let p = probs.row(v);
            loss -= p[labels[v]].max(1e-12).ln() / count;
            let pred = p
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(i, _)| i)
                .unwrap();
            correct += (pred == labels[v]) as usize;
            let drow = dlogits.row_mut(v);
            for (c, (d, &pv)) in drow.iter_mut().zip(p).enumerate() {
                *d = (pv - (c == labels[v]) as usize as f32) / count;
            }
        }

        // Backward.
        // logits = a2 @ w2 + b2, a2 = conv(h1)
        let a2 = self.conv.conv(&h1);
        let dw2 = ops::matmul(&ops::transpose(&a2), &dlogits);
        let db2: Vec<f32> = (0..classes)
            .map(|c| (0..n).map(|v| dlogits.get(v, c)).sum())
            .collect();
        let da2 = ops::matmul(&dlogits, &ops::transpose(&self.w2));
        let dh1_pre_relu = self.conv.conv_transpose(&da2);
        // relu backward on h1's pre-activation sign (h1 > 0 iff pre > 0).
        let mut dh1 = dh1_pre_relu;
        for (d, &h) in dh1.data_mut().iter_mut().zip(h1.data()) {
            if h <= 0.0 {
                *d = 0.0;
            }
        }
        let hidden = self.w1.cols();
        let dw1 = ops::matmul(&ops::transpose(&a1), &dh1);
        let db1: Vec<f32> = (0..hidden)
            .map(|c| (0..n).map(|v| dh1.get(v, c)).sum())
            .collect();

        (
            Grads { dw1, db1, dw2, db2 },
            EpochStats {
                loss,
                train_accuracy: correct as f64 / count as f64,
            },
        )
    }

    /// One SGD step on masked cross-entropy; returns the epoch stats.
    fn train_epoch(&mut self, x: &Matrix, labels: &[usize], mask: &[bool], lr: f32) -> EpochStats {
        let _span = telemetry::span!("train.epoch");
        let (g, stats) = self.gradients(x, labels, mask);
        for (w, d) in self.w2.data_mut().iter_mut().zip(g.dw2.data()) {
            *w -= lr * d;
        }
        for (b, d) in self.b2.iter_mut().zip(&g.db2) {
            *b -= lr * d;
        }
        for (w, d) in self.w1.data_mut().iter_mut().zip(g.dw1.data()) {
            *w -= lr * d;
        }
        for (b, d) in self.b1.iter_mut().zip(&g.db1) {
            *b -= lr * d;
        }
        stats
    }

    /// Train for `epochs` epochs; returns per-epoch stats.
    pub fn fit(
        &mut self,
        x: &Matrix,
        labels: &[usize],
        mask: &[bool],
        epochs: usize,
        lr: f32,
    ) -> Vec<EpochStats> {
        (0..epochs)
            .map(|_| self.train_epoch(x, labels, mask, lr))
            .collect()
    }
}

/// Parameter gradients of one backward pass.
struct Grads {
    dw1: Matrix,
    db1: Vec<f32>,
    dw2: Matrix,
    db2: Vec<f32>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlpgnn_graph::generators;

    #[test]
    fn conv_transpose_is_adjoint() {
        // <conv(x), y> == <x, conv_transpose(y)> for all x, y.
        let g = generators::rmat_default(80, 500, 171);
        let pair = GcnConvPair::new(g);
        let x = Matrix::random(80, 8, 1.0, 172);
        let y = Matrix::random(80, 8, 1.0, 173);
        let lhs: f64 = pair
            .conv(&x)
            .data()
            .iter()
            .zip(y.data())
            .map(|(a, b)| (*a as f64) * (*b as f64))
            .sum();
        let rhs: f64 = x
            .data()
            .iter()
            .zip(pair.conv_transpose(&y).data())
            .map(|(a, b)| (*a as f64) * (*b as f64))
            .sum();
        assert!(
            (lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0),
            "adjoint mismatch: {lhs} vs {rhs}"
        );
    }

    #[test]
    fn conv_transpose_equals_conv_on_symmetric_graph() {
        // Undirected graph: A is symmetric, so A_hatᵀ = A_hat.
        let mut b = tlpgnn_graph::GraphBuilder::new(50);
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(174);
        for _ in 0..200 {
            let u = rng.random_range(0..50u32);
            let v = rng.random_range(0..50u32);
            if u != v {
                b.add_undirected(u, v);
            }
        }
        let pair = GcnConvPair::new(b.build());
        let x = Matrix::random(50, 6, 1.0, 175);
        assert!(pair.conv(&x).max_abs_diff(&pair.conv_transpose(&x)) < 1e-4);
    }

    /// Numerical gradient check of the full classifier loss w.r.t. a few
    /// W1 entries.
    #[test]
    fn gradients_match_finite_differences() {
        let g = generators::erdos_renyi(30, 120, 176);
        let x = Matrix::random(30, 5, 1.0, 177);
        let labels: Vec<usize> = (0..30).map(|v| v % 3).collect();
        let mask = vec![true; 30];

        let loss_of = |clf: &GcnClassifier| -> f64 {
            let logp = clf.forward(&x);
            let mut l = 0.0f64;
            for v in 0..30 {
                l -= logp.get(v, labels[v]) as f64 / 30.0;
            }
            l
        };

        let mut clf = GcnClassifier::new(g.clone(), 5, 4, 3, 178);
        // Analytic gradient via one epoch with lr that isolates the grad:
        // capture params before, do an SGD step with lr, infer grad.
        let w1_before = clf.w1.clone();
        let lr = 1.0f32;
        clf.train_epoch(&x, &labels, &mask, lr);
        let analytic_dw1 = {
            let mut d = w1_before.clone();
            for (dv, (before, after)) in d
                .data_mut()
                .iter_mut()
                .zip(w1_before.data().iter().zip(clf.w1.data()))
            {
                *dv = (before - after) / lr;
            }
            d
        };

        // Finite differences on a fresh classifier with the same seed.
        let eps = 1e-3f32;
        for &(i, j) in &[(0usize, 0usize), (2, 1), (4, 3)] {
            let mut plus = GcnClassifier::new(g.clone(), 5, 4, 3, 178);
            plus.w1.set(i, j, plus.w1.get(i, j) + eps);
            let mut minus = GcnClassifier::new(g.clone(), 5, 4, 3, 178);
            minus.w1.set(i, j, minus.w1.get(i, j) - eps);
            let numeric = (loss_of(&plus) - loss_of(&minus)) / (2.0 * eps as f64);
            let analytic = analytic_dw1.get(i, j) as f64;
            assert!(
                (numeric - analytic).abs() < 2e-2 * numeric.abs().max(0.05),
                "dW1[{i},{j}]: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn training_reduces_loss_and_learns_communities() {
        // Two planted communities, features = noisy indicators.
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(179);
        let n = 120;
        let labels: Vec<usize> = (0..n).map(|v| v % 2).collect();
        let mut b = tlpgnn_graph::GraphBuilder::new(n);
        for _ in 0..800 {
            let u = rng.random_range(0..n);
            let same: bool = rng.random::<f32>() < 0.9;
            let mut v = rng.random_range(0..n);
            let mut tries = 0;
            while ((labels[v] == labels[u]) != same || v == u) && tries < 50 {
                v = rng.random_range(0..n);
                tries += 1;
            }
            b.add_undirected(u as u32, v as u32);
        }
        let g = b.build();
        let mut x = Matrix::random(n, 8, 0.5, 180);
        for v in 0..n {
            x.row_mut(v)[labels[v]] += 1.0;
        }
        let mask = vec![true; n];
        let mut clf = GcnClassifier::new(g, 8, 8, 2, 181);
        let stats = clf.fit(&x, &labels, &mask, 60, 0.5);
        assert!(
            stats.last().unwrap().loss < stats[0].loss * 0.7,
            "loss did not drop: {} -> {}",
            stats[0].loss,
            stats.last().unwrap().loss
        );
        let acc = clf.accuracy(&x, &labels, &mask);
        assert!(acc > 0.85, "accuracy {acc}");
    }
}
