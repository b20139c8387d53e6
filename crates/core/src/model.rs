//! GNN model definitions: the four models of the paper's evaluation
//! (Section 7.1) and the layer/network API built on top of the
//! graph-convolution engines.

use std::borrow::Cow;
use tlpgnn_tensor::{activations, Linear, Matrix};

/// Parameters of a single-head graph attention layer.
#[derive(Debug, Clone, PartialEq)]
pub struct GatParams {
    /// Source-side attention vector (`a_src · x[u]`).
    pub(crate) a_src: Vec<f32>,
    /// Destination-side attention vector (`a_dst · x[v]`).
    pub(crate) a_dst: Vec<f32>,
    /// LeakyReLU negative slope for edge scores (0.2 in the GAT paper).
    pub slope: f32,
}

impl GatParams {
    /// Random attention vectors for a feature dimension, deterministic in
    /// the seed.
    pub fn random(feat_dim: usize, seed: u64) -> Self {
        let m = Matrix::random(2, feat_dim, 0.5, seed);
        Self {
            a_src: m.row(0).to_vec(),
            a_dst: m.row(1).to_vec(),
            slope: 0.2,
        }
    }
}

/// The graph-convolution operator of one of the paper's four GNN models.
#[derive(Debug, Clone, PartialEq)]
pub enum GnnModel {
    /// Graph Convolutional Network: degree-normalized weighted sum with an
    /// implicit self loop.
    Gcn,
    /// Graph Isomorphism Network: plain neighbor sum plus `(1 + ε)` self.
    Gin {
        /// The ε self-weight parameter.
        eps: f32,
    },
    /// GraphSage with the mean aggregator.
    Sage,
    /// Graph Attention Network (single head).
    Gat {
        /// Attention parameters.
        params: GatParams,
    },
}

impl GnnModel {
    /// Short name used in experiment tables ("GCN", "GIN", "Sage", "GAT").
    pub fn name(&self) -> &'static str {
        match self {
            GnnModel::Gcn => "GCN",
            GnnModel::Gin { .. } => "GIN",
            GnnModel::Sage => "Sage",
            GnnModel::Gat { .. } => "GAT",
        }
    }

    /// The paper's standard four models for a given feature dimension
    /// (GAT parameters seeded deterministically).
    pub fn all_four(feat_dim: usize) -> Vec<GnnModel> {
        vec![
            GnnModel::Gcn,
            GnnModel::Gin { eps: 0.1 },
            GnnModel::Sage,
            GnnModel::Gat {
                params: GatParams::random(feat_dim, 0x6a7),
            },
        ]
    }
}

/// How a [`GnnLayer`] combines the aggregated neighborhood with the
/// vertex's own representation after convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Combine {
    /// Use the convolution output directly (GCN/GIN/GAT style, where the
    /// self term is inside the conv).
    Replace,
    /// Concatenate `[x, conv(x)]` before the linear projection
    /// (GraphSage).
    ConcatSelf,
}

/// One full GNN layer: dense projection + graph convolution + activation.
///
/// The convolution itself is pluggable (simulated GPU engine, native CPU
/// engine, or the serial oracle) via the closure passed to
/// [`GnnLayer::forward_with`].
#[derive(Debug, Clone)]
pub struct GnnLayer {
    /// Convolution operator.
    pub model: GnnModel,
    /// Learned projection applied before convolution.
    pub(crate) linear: Linear,
    /// Self-combination mode.
    pub(crate) combine: Combine,
    /// Apply ReLU at the end.
    pub(crate) relu: bool,
}

impl GnnLayer {
    /// Build a layer for `model` mapping `in_dim -> out_dim`.
    pub(crate) fn new(model: GnnModel, in_dim: usize, out_dim: usize, seed: u64) -> Self {
        let combine = match model {
            GnnModel::Sage => Combine::ConcatSelf,
            _ => Combine::Replace,
        };
        let lin_in = match combine {
            Combine::Replace => in_dim,
            Combine::ConcatSelf => 2 * in_dim,
        };
        Self {
            model,
            linear: Linear::new(lin_in, out_dim, true, seed),
            combine,
            relu: true,
        }
    }

    /// Forward pass using `conv` to perform the graph convolution.
    /// `conv(model, features)` must return the aggregated features.
    pub(crate) fn forward_with(
        &self,
        x: &Matrix,
        mut conv: impl FnMut(&GnnModel, &Matrix) -> Matrix,
    ) -> Matrix {
        let agg = conv(&self.model, x);
        let mut out = match self.combine {
            Combine::Replace => self.linear.forward(&agg),
            Combine::ConcatSelf => self.linear.forward_concat(x, &agg),
        };
        if self.relu {
            activations::relu(&mut out);
        }
        out
    }
}

/// A stack of GNN layers with a log-softmax classification head.
#[derive(Debug, Clone)]
pub struct GnnNetwork {
    /// The layers, applied in order.
    pub layers: Vec<GnnLayer>,
}

impl GnnNetwork {
    /// A standard two-layer network: `in -> hidden -> classes`.
    pub fn two_layer(
        model_of: impl Fn(usize) -> GnnModel,
        in_dim: usize,
        hidden: usize,
        classes: usize,
        seed: u64,
    ) -> Self {
        let mut l0 = GnnLayer::new(model_of(in_dim), in_dim, hidden, seed);
        l0.relu = true;
        let mut l1 = GnnLayer::new(model_of(hidden), hidden, classes, seed + 1);
        l1.relu = false;
        Self {
            layers: vec![l0, l1],
        }
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Output dimension of the final layer (class count).
    pub fn out_dim(&self) -> usize {
        self.layers.last().map_or(0, |l| l.linear.out_dim())
    }

    /// Ego-graph extraction depth needed for *exact* target outputs when
    /// serving this network on a k-hop ego graph (see
    /// `tlpgnn_graph::subgraph`, which keeps rows only for the vertices
    /// it expanded): one hop per layer, plus one extra hop when any layer
    /// is GCN — its symmetric normalization reads *source-vertex*
    /// degrees, so sources one hop past the receptive field must be
    /// expanded too, keeping complete in-neighbor rows (hence true
    /// degrees). GIN/Sage/GAT read only destination-side structure and
    /// need no slack.
    pub fn receptive_hops(&self) -> usize {
        let gcn = self.layers.iter().any(|l| matches!(l.model, GnnModel::Gcn));
        self.layers.len() + usize::from(gcn)
    }

    /// Full forward pass; returns per-vertex class log-probabilities.
    pub fn forward_with(
        &self,
        x: &Matrix,
        mut conv: impl FnMut(&GnnModel, &Matrix) -> Matrix,
    ) -> Matrix {
        // The first layer reads the caller's matrix; only a network
        // without layers has to copy it.
        let mut h = Cow::Borrowed(x);
        for layer in &self.layers {
            h = Cow::Owned(layer.forward_with(&h, &mut conv));
        }
        let mut h = h.into_owned();
        activations::log_softmax_rows(&mut h);
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::conv_reference;
    use tlpgnn_graph::generators;

    #[test]
    fn model_names() {
        assert_eq!(GnnModel::Gcn.name(), "GCN");
        assert_eq!(GnnModel::all_four(8).len(), 4);
    }

    #[test]
    fn layer_forward_shapes() {
        let g = generators::erdos_renyi(30, 100, 1);
        let x = Matrix::random(30, 8, 1.0, 2);
        let layer = GnnLayer::new(GnnModel::Gcn, 8, 4, 3);
        let y = layer.forward_with(&x, |m, feats| conv_reference(m, &g, feats));
        assert_eq!(y.shape(), (30, 4));
        assert!(y.data().iter().all(|&v| v >= 0.0), "relu applied");
    }

    #[test]
    fn sage_layer_concats_self() {
        let g = generators::erdos_renyi(20, 60, 4);
        let x = Matrix::random(20, 6, 1.0, 5);
        let layer = GnnLayer::new(GnnModel::Sage, 6, 3, 6);
        assert_eq!(layer.linear.in_dim(), 12);
        let y = layer.forward_with(&x, |m, feats| conv_reference(m, &g, feats));
        assert_eq!(y.shape(), (20, 3));
        // The two-source projection is the materialised concat, bit for bit.
        let cat = tlpgnn_tensor::ops::concat_cols(&x, &conv_reference(&layer.model, &g, &x));
        let mut want = layer.linear.forward(&cat);
        activations::relu(&mut want);
        assert_eq!(y, want);
    }

    #[test]
    fn network_produces_log_probs() {
        let g = generators::erdos_renyi(25, 80, 7);
        let x = Matrix::random(25, 10, 1.0, 8);
        let net = GnnNetwork::two_layer(|_| GnnModel::Gcn, 10, 16, 5, 9);
        let y = net.forward_with(&x, |m, feats| conv_reference(m, &g, feats));
        assert_eq!(y.shape(), (25, 5));
        // log-probabilities: exp-sums to 1 per row.
        for r in 0..25 {
            let s: f32 = y.row(r).iter().map(|v| v.exp()).sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn receptive_hops_per_model() {
        let gcn = GnnNetwork::two_layer(|_| GnnModel::Gcn, 8, 8, 4, 1);
        assert_eq!(gcn.depth(), 2);
        assert_eq!(gcn.out_dim(), 4);
        assert_eq!(gcn.receptive_hops(), 3, "GCN needs one hop of slack");
        let sage = GnnNetwork::two_layer(|_| GnnModel::Sage, 8, 8, 4, 2);
        assert_eq!(sage.receptive_hops(), 2);
        let gin = GnnNetwork::two_layer(|_| GnnModel::Gin { eps: 0.1 }, 8, 8, 4, 3);
        assert_eq!(gin.receptive_hops(), 2);
    }

    #[test]
    fn gat_params_deterministic() {
        assert_eq!(GatParams::random(8, 1), GatParams::random(8, 1));
        assert_ne!(GatParams::random(8, 1), GatParams::random(8, 2));
    }
}
