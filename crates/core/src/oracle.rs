//! Serial host reference for every graph-convolution operator.
//!
//! These are the ground truth the simulated kernels, the native engine,
//! and every baseline are tested against: any "speedup" a system shows is
//! only admissible if its output matches the oracle.

use crate::model::{GatParams, GnnModel};
use tlpgnn_graph::Csr;
use tlpgnn_tensor::activations::leaky_relu_scalar;
use tlpgnn_tensor::Matrix;

/// GCN normalization coefficient `1 / sqrt(deg(v) + 1)` (the +1 is the
/// implicit self loop).
pub fn gcn_norm(g: &Csr) -> Vec<f32> {
    (0..g.num_vertices())
        .map(|v| 1.0 / ((g.degree(v) as f32) + 1.0).sqrt())
        .collect()
}

/// One GAT attention projection for a run of rows:
/// `out[i] = a · x[first + i]`, each a left-to-right sum. [`gat_scores`]
/// is this over all rows; the native engine chunks it over its pool.
pub(crate) fn gat_project_rows(x: &Matrix, a: &[f32], first: usize, out: &mut [f32]) {
    assert_eq!(a.len(), x.cols());
    for (i, o) in out.iter_mut().enumerate() {
        *o = x.row(first + i).iter().zip(a).map(|(r, w)| r * w).sum();
    }
}

/// GAT per-vertex attention scores: `al[u] = a_src · x[u]`,
/// `ar[v] = a_dst · x[v]`. Computing these is a dense (ApplyVertex)
/// operation; all GAT graph-convolution implementations take them as
/// input.
pub fn gat_scores(x: &Matrix, params: &GatParams) -> (Vec<f32>, Vec<f32>) {
    let project = |a: &[f32]| {
        let mut out = vec![0.0; x.rows()];
        gat_project_rows(x, a, 0, &mut out);
        out
    };
    (project(&params.a_src), project(&params.a_dst))
}

/// Serial reference graph convolution for `model`.
///
/// ```
/// use tlpgnn::{oracle, GnnModel};
/// use tlpgnn_graph::generators;
/// use tlpgnn_tensor::Matrix;
/// let g = generators::ring_lattice(8, 2);
/// let x = Matrix::full(8, 4, 1.0);
/// // GIN with eps = -1 counts in-degrees when features are all ones.
/// let out = oracle::conv_reference(&GnnModel::Gin { eps: -1.0 }, &g, &x);
/// assert_eq!(out.get(0, 0), 2.0);
/// ```
///
/// Semantics (matching `crate::model::GnnModel` docs):
/// * **GCN**: `out[v] = c_v * Σ_u c_u x[u]  +  c_v² x[v]` with
///   `c = 1/sqrt(deg+1)` (symmetric normalization with self loop).
/// * **GIN**: `out[v] = (1 + ε) x[v] + Σ_u x[u]`.
/// * **Sage**: `out[v] = (Σ_u x[u]) / max(deg(v), 1)` (mean aggregator;
///   the self term `h·W_self` is added by the model layer, not the conv).
/// * **GAT**: softmax-weighted sum with edge score
///   `e_uv = LeakyReLU(al[u] + ar[v], 0.2)`; zero output for isolated
///   vertices.
pub fn conv_reference(model: &GnnModel, g: &Csr, x: &Matrix) -> Matrix {
    assert_eq!(g.num_vertices(), x.rows(), "graph/feature row mismatch");
    let n = g.num_vertices();
    let f = x.cols();
    let mut out = Matrix::zeros(n, f);
    match model {
        GnnModel::Gcn => {
            let c = gcn_norm(g);
            for v in 0..n {
                let row = out.row_mut(v);
                for &u in g.neighbors(v) {
                    let w = c[u as usize] * c[v];
                    for (o, &xv) in row.iter_mut().zip(x.row(u as usize)) {
                        *o += w * xv;
                    }
                }
                let self_w = c[v] * c[v];
                for (o, &xv) in row.iter_mut().zip(x.row(v)) {
                    *o += self_w * xv;
                }
            }
        }
        GnnModel::Gin { eps } => {
            for v in 0..n {
                let row = out.row_mut(v);
                for &u in g.neighbors(v) {
                    for (o, &xv) in row.iter_mut().zip(x.row(u as usize)) {
                        *o += xv;
                    }
                }
                let self_w = 1.0 + eps;
                for (o, &xv) in row.iter_mut().zip(x.row(v)) {
                    *o += self_w * xv;
                }
            }
        }
        GnnModel::Sage => {
            for v in 0..n {
                let d = g.degree(v);
                if d == 0 {
                    continue;
                }
                let inv = 1.0 / d as f32;
                let row = out.row_mut(v);
                for &u in g.neighbors(v) {
                    for (o, &xv) in row.iter_mut().zip(x.row(u as usize)) {
                        *o += inv * xv;
                    }
                }
            }
        }
        GnnModel::Gat { params } => {
            let (al, ar) = gat_scores(x, params);
            for v in 0..n {
                let nbrs = g.neighbors(v);
                if nbrs.is_empty() {
                    continue;
                }
                // Numerically-stable softmax over the edge scores.
                let scores: Vec<f32> = nbrs
                    .iter()
                    .map(|&u| leaky_relu_scalar(al[u as usize] + ar[v], params.slope))
                    .collect();
                let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let exps: Vec<f32> = scores.iter().map(|s| (s - max).exp()).collect();
                let sum: f32 = exps.iter().sum();
                let row = out.row_mut(v);
                for (&u, &e) in nbrs.iter().zip(&exps) {
                    let w = e / sum;
                    for (o, &xv) in row.iter_mut().zip(x.row(u as usize)) {
                        *o += w * xv;
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlpgnn_graph::generators;

    fn feat(n: usize, f: usize, seed: u64) -> Matrix {
        Matrix::random(n, f, 1.0, seed)
    }

    #[test]
    fn gcn_on_path_matches_hand_calc() {
        // 0 -> 1: in(1) = {0}. deg(0)=0, deg(1)=1.
        let g = generators::path(2);
        let x = Matrix::from_vec(2, 1, vec![2.0, 3.0]);
        let out = conv_reference(&GnnModel::Gcn, &g, &x);
        let c0 = 1.0 / 1f32.sqrt();
        let c1 = 1.0 / 2f32.sqrt();
        // out[0] = c0^2 * 2.0 ; out[1] = c1*c0*2 + c1^2*3.
        assert!((out.get(0, 0) - c0 * c0 * 2.0).abs() < 1e-6);
        assert!((out.get(1, 0) - (c1 * c0 * 2.0 + c1 * c1 * 3.0)).abs() < 1e-6);
    }

    #[test]
    fn gin_eps_zero_is_plain_sum_plus_self() {
        let g = generators::complete(4);
        let x = feat(4, 3, 1);
        let out = conv_reference(&GnnModel::Gin { eps: 0.0 }, &g, &x);
        // Every vertex sums all 4 rows (3 neighbors + self).
        for v in 0..4 {
            for c in 0..3 {
                let want: f32 = (0..4).map(|u| x.get(u, c)).sum();
                assert!((out.get(v, c) - want).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn sage_mean_of_constant_is_constant() {
        let g = generators::rmat_default(100, 600, 5);
        let x = Matrix::full(100, 4, 2.5);
        let out = conv_reference(&GnnModel::Sage, &g, &x);
        for v in 0..100 {
            let want = if g.degree(v) == 0 { 0.0 } else { 2.5 };
            assert!((out.get(v, 0) - want).abs() < 1e-5);
        }
    }

    #[test]
    fn gat_weights_are_convex_combination() {
        let g = generators::rmat_default(50, 300, 7);
        let x = Matrix::full(50, 4, 1.0); // constant features
        let params = GatParams::random(4, 3);
        let out = conv_reference(&GnnModel::Gat { params }, &g, &x);
        // Softmax weights sum to 1 => constant features stay constant.
        for v in 0..50 {
            let want = if g.degree(v) == 0 { 0.0 } else { 1.0 };
            assert!((out.get(v, 0) - want).abs() < 1e-4, "v={v}");
        }
    }

    #[test]
    fn isolated_vertices_zero_for_sage_and_gat() {
        let g = generators::star(10); // leaves isolated in-degree
        let x = feat(10, 4, 2);
        let sage = conv_reference(&GnnModel::Sage, &g, &x);
        let gat = conv_reference(
            &GnnModel::Gat {
                params: GatParams::random(4, 1),
            },
            &g,
            &x,
        );
        for v in 1..10 {
            assert_eq!(sage.row(v), &[0.0; 4]);
            assert_eq!(gat.row(v), &[0.0; 4]);
        }
    }

    #[test]
    fn outputs_finite_on_skewed_graph() {
        let g = generators::rmat_default(500, 5000, 9);
        let x = feat(500, 16, 3);
        for model in [
            GnnModel::Gcn,
            GnnModel::Gin { eps: 0.1 },
            GnnModel::Sage,
            GnnModel::Gat {
                params: GatParams::random(16, 4),
            },
        ] {
            assert!(conv_reference(&model, &g, &x).all_finite());
        }
    }
}
