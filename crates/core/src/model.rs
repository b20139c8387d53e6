//! GNN model definitions: the four models of the paper's evaluation
//! (Section 7.1) and the layer/network API built on top of the
//! graph-convolution engines.

use std::borrow::Cow;
use tlpgnn_tensor::{activations, ops, Linear, Matrix};

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
    /// the seed. In a [`GnnNetwork`] layer that dimension is the layer's
    /// output width: the vectors score the projected features `z = h·W`.
    pub fn random(feat_dim: usize, seed: u64) -> Self {
        let m = Matrix::random(2, feat_dim, 0.5, seed);
        Self {
            a_src: m.row(0).to_vec(),
            a_dst: m.row(1).to_vec(),
            slope: 0.2,
        }
    }

    /// The same scores read off the unprojected features:
    /// `a · (h·W) = h · (W·a)`, so each vector becomes `W·a`.
    fn folded(&self, w: &Matrix) -> Self {
        let fold = |a: &[f32]| ops::matmul(w, &Matrix::from_vec(a.len(), 1, a.to_vec())).into_vec();
        Self {
            a_src: fold(&self.a_src),
            a_dst: fold(&self.a_dst),
            slope: self.slope,
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

/// Which of a [`GnnLayer`]'s two phases runs first. The aggregators are
/// linear, so both orders compute the same function up to rounding; the
/// order only decides the width the memory-bound aggregation runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Order {
    /// `conv(h)·W`: aggregate at the input width, then project.
    AggregateFirst,
    /// `conv(h·W)`: project to the output width, then aggregate.
    ProjectFirst,
}

/// Floats in one 128-byte memory segment: the unit a gathered feature row
/// is fetched in, on the device (one request per segment) and on the host
/// (two cache lines).
const SEGMENT_FLOATS: usize = 32;

/// One full GNN layer: a learned projection and a graph convolution, in
/// the order [`GnnLayer::new`] decides once — **project first iff that
/// lowers the 128-byte segments per row**, `⌈out/32⌉ < ⌈in/32⌉`: the
/// aggregation gathers the narrower rows whenever they take fewer
/// segments, and the device never pays the projection's launch when
/// they take as many:
///
/// - GCN, GIN, GAT: `act(conv(h)·W + b)` or `act(conv(h·W) + b)`. The bias
///   comes after aggregation in both, since `Σ(W·x + b) ≠ W·Σx + b`.
/// - GraphSage: `W` is `[W_self; W_neigh]` (the `[h | mean(h)]` form), so
///   the layer is `act(h·W_self + mean(h)·W_neigh + b)` or
///   `act(h·W_self + mean(h·W_neigh) + b)`.
/// - GAT is the standard form: scores `LeakyReLU(a_dst·z_v + a_src·z_u)`
///   on `z = h·W`, attention vectors sized `out_dim`. An aggregate-first
///   layer folds them once (`a' = W·a`) to score `h` directly.
///
/// The convolution itself is pluggable (simulated GPU engine, native CPU
/// engine, or the serial oracle) via the closure passed to
/// [`GnnLayer::forward_with`]; `TlpgnnEngine` runs the same order on the
/// device.
#[derive(Debug, Clone)]
pub struct GnnLayer {
    /// Convolution operator, as the convolution sees it: an
    /// aggregate-first GAT layer holds its folded attention vectors.
    pub model: GnnModel,
    /// The projection `W` (GraphSage: its neighbour block `W_neigh`) and
    /// the bias, added after aggregation in either order.
    pub(crate) linear: Linear,
    /// GraphSage's self block `W_self`; `None` for the other models.
    pub(crate) self_weight: Option<Matrix>,
    /// Which phase runs first.
    pub(crate) order: Order,
    /// Apply ReLU at the end.
    pub(crate) relu: bool,
}

impl GnnLayer {
    /// Build a layer for `model` mapping `in_dim -> out_dim`. A GAT
    /// model's attention vectors are sized `out_dim`.
    pub(crate) fn new(model: GnnModel, in_dim: usize, out_dim: usize, seed: u64) -> Self {
        let order = if out_dim.div_ceil(SEGMENT_FLOATS) < in_dim.div_ceil(SEGMENT_FLOATS) {
            Order::ProjectFirst
        } else {
            Order::AggregateFirst
        };
        let w_rows = match model {
            GnnModel::Sage => 2 * in_dim,
            _ => in_dim,
        };
        Self::from_parts(model, Linear::new(w_rows, out_dim, true, seed), order)
    }

    /// A layer from its standard-form parameters, run in `order`: the
    /// one constructor, so tests can hold both orders to one function.
    /// A GraphSage `linear` is `[W_self; W_neigh]` (`2·in × out`).
    fn from_parts(model: GnnModel, linear: Linear, order: Order) -> Self {
        let (linear, self_weight) = match model {
            GnnModel::Sage => {
                let (rows, out) = linear.weight().shape();
                let (w_self, w_neigh) = linear.weight().data().split_at(rows / 2 * out);
                let block = |w: &[f32]| Matrix::from_vec(rows / 2, out, w.to_vec());
                (
                    Linear::from_parts(block(w_neigh), linear.bias().map(<[f32]>::to_vec)),
                    Some(block(w_self)),
                )
            }
            _ => (linear, None),
        };
        let model = match (model, order) {
            (GnnModel::Gat { params }, Order::AggregateFirst) => GnnModel::Gat {
                params: params.folded(linear.weight()),
            },
            (model, _) => model,
        };
        Self {
            model,
            linear,
            self_weight,
            order,
            relu: true,
        }
    }

    /// Forward pass using `conv` to perform the graph convolution.
    /// `conv(model, features)` must return the aggregated features; it
    /// sees `h` (aggregate first) or `h·W` (project first). The rest of
    /// the layer is one [`ops::dense`] pass over the convolution's
    /// output.
    pub(crate) fn forward_with(
        &self,
        x: &Matrix,
        mut conv: impl FnMut(&GnnModel, &Matrix) -> Matrix,
    ) -> Matrix {
        let w = self.linear.weight();
        let (agg, w) = match self.order {
            Order::AggregateFirst => (conv(&self.model, x), Some(w)),
            Order::ProjectFirst => {
                let z = ops::matmul(x, w);
                let agg = conv(&self.model, &z);
                z.recycle();
                (agg, None)
            }
        };
        let self_term = self.self_weight.as_ref().map(|w_self| (x, w_self));
        ops::dense(agg, w, self_term, self.linear.bias(), self.relu)
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
    /// `model_of` receives each layer's *output* width, the width a GAT
    /// layer's attention vectors score.
    pub fn two_layer(
        model_of: impl Fn(usize) -> GnnModel,
        in_dim: usize,
        hidden: usize,
        classes: usize,
        seed: u64,
    ) -> Self {
        let mut l0 = GnnLayer::new(model_of(hidden), in_dim, hidden, seed);
        l0.relu = true;
        let mut l1 = GnnLayer::new(model_of(classes), hidden, classes, seed + 1);
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
            let out = Cow::Owned(layer.forward_with(&h, &mut conv));
            if let Cow::Owned(consumed) = std::mem::replace(&mut h, out) {
                consumed.recycle();
            }
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
    use crate::{EngineOptions, TlpgnnEngine};
    use gpu_sim::DeviceConfig;
    use proptest::prelude::*;
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

    /// The layer's standard-form parameters with a nonzero bias:
    /// `Linear::new` draws an all-zero one, which the device skips, so a
    /// misplaced bias would pass unseen.
    fn biased_linear(model: &GnnModel, in_dim: usize, out_dim: usize, seed: u64) -> Linear {
        let rows = match model {
            GnnModel::Sage => 2 * in_dim,
            _ => in_dim,
        };
        let bias = Matrix::random(1, out_dim, 1.0, seed ^ 0xb1a5)
            .row(0)
            .to_vec();
        let weight = Linear::new(rows, out_dim, false, seed).weight().clone();
        Linear::from_parts(weight, Some(bias))
    }

    fn model_for(which: usize, out_dim: usize, seed: u64) -> GnnModel {
        match which {
            0 => GnnModel::Gcn,
            1 => GnnModel::Gin { eps: 0.1 },
            2 => GnnModel::Sage,
            _ => GnnModel::Gat {
                params: GatParams::random(out_dim, seed),
            },
        }
    }

    #[test]
    fn projects_first_iff_the_layer_narrows() {
        // Project first iff the rows lose a 128-byte (32-float) segment.
        for model in GnnModel::all_four(8) {
            for (in_dim, out_dim, want) in [
                (64, 16, Order::ProjectFirst),
                (40, 12, Order::ProjectFirst),
                (33, 32, Order::ProjectFirst),
                (64, 64, Order::AggregateFirst),
                (64, 33, Order::AggregateFirst),
                (32, 31, Order::AggregateFirst),
                (16, 8, Order::AggregateFirst),
                (8, 4, Order::AggregateFirst),
                (16, 64, Order::AggregateFirst),
            ] {
                let model = match model {
                    GnnModel::Gat { .. } => model_for(3, out_dim, 1),
                    ref m => m.clone(),
                };
                let layer = GnnLayer::new(model, in_dim, out_dim, 2);
                assert_eq!(
                    layer.order,
                    want,
                    "{} {in_dim}->{out_dim}",
                    layer.model.name()
                );
            }
        }
        // Serving's GraphSage 16→16→8 (one segment throughout) and the
        // native benchmark's 64→64→16.
        let orders = |net: GnnNetwork| net.layers.iter().map(|l| l.order).collect::<Vec<_>>();
        assert_eq!(
            orders(GnnNetwork::two_layer(|_| GnnModel::Sage, 16, 16, 8, 3)),
            [Order::AggregateFirst, Order::AggregateFirst]
        );
        assert_eq!(
            orders(GnnNetwork::two_layer(|_| GnnModel::Gcn, 64, 64, 16, 3)),
            [Order::AggregateFirst, Order::ProjectFirst]
        );
    }

    #[test]
    fn sage_layer_splits_its_weight() {
        let g = generators::erdos_renyi(20, 60, 4);
        let x = Matrix::random(20, 6, 1.0, 5);
        let linear = biased_linear(&GnnModel::Sage, 6, 3, 6);
        for order in [Order::AggregateFirst, Order::ProjectFirst] {
            let layer = GnnLayer::from_parts(GnnModel::Sage, linear.clone(), order);
            // `[W_self; W_neigh]`: the self block multiplies `h`, the
            // neighbour block the mean.
            let w_self = layer.self_weight.as_ref().expect("SAGE keeps a self block");
            assert_eq!(w_self.data(), &linear.weight().data()[..18]);
            assert_eq!(layer.linear.weight().data(), &linear.weight().data()[18..]);
            assert_eq!(layer.linear.bias(), linear.bias());
            let y = layer.forward_with(&x, |m, feats| conv_reference(m, &g, feats));
            let neigh = match order {
                Order::AggregateFirst => ops::matmul(
                    &conv_reference(&GnnModel::Sage, &g, &x),
                    layer.linear.weight(),
                ),
                Order::ProjectFirst => {
                    conv_reference(&GnnModel::Sage, &g, &ops::matmul(&x, layer.linear.weight()))
                }
            };
            let mut want = ops::add(&neigh, &ops::matmul(&x, w_self));
            for r in 0..want.rows() {
                for (v, b) in want.row_mut(r).iter_mut().zip(linear.bias().unwrap()) {
                    *v = (*v + b).max(0.0);
                }
            }
            assert_eq!(y, want, "{order:?}");
        }
    }

    #[test]
    fn gat_layer_is_the_standard_form() {
        let g = generators::rmat_default(40, 200, 11);
        for (in_dim, out_dim) in [(12, 5), (5, 12)] {
            let x = Matrix::random(40, in_dim, 1.0, 12);
            let params = GatParams::random(out_dim, 13);
            let model = GnnModel::Gat {
                params: params.clone(),
            };
            let linear = biased_linear(&model, in_dim, out_dim, 14);
            // By hand: z = h·W, e_vu = LeakyReLU(a_dst·z_v + a_src·z_u),
            // softmax over v's in-neighbours, Σ α·z_u, + b, ReLU.
            let z = ops::matmul(&x, linear.weight());
            let dot = |a: &[f32], r: &[f32]| a.iter().zip(r).map(|(a, r)| a * r).sum::<f32>();
            let mut want = Matrix::zeros(40, out_dim);
            for v in 0..40 {
                let nbrs = g.neighbors(v);
                let e: Vec<f32> = nbrs
                    .iter()
                    .map(|&u| {
                        let s =
                            dot(&params.a_dst, z.row(v)) + dot(&params.a_src, z.row(u as usize));
                        if s > 0.0 {
                            s
                        } else {
                            params.slope * s
                        }
                    })
                    .collect();
                let max = e.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let total: f32 = e.iter().map(|s| (s - max).exp()).sum();
                for (&u, s) in nbrs.iter().zip(&e) {
                    let alpha = (s - max).exp() / total;
                    for (o, zu) in want.row_mut(v).iter_mut().zip(z.row(u as usize)) {
                        *o += alpha * zu;
                    }
                }
                for (o, b) in want.row_mut(v).iter_mut().zip(linear.bias().unwrap()) {
                    *o = (*o + b).max(0.0);
                }
            }
            for order in [Order::AggregateFirst, Order::ProjectFirst] {
                let layer = GnnLayer::from_parts(model.clone(), linear.clone(), order);
                let y = layer.forward_with(&x, |m, feats| conv_reference(m, &g, feats));
                assert!(
                    y.max_abs_diff(&want) < 1e-4,
                    "{in_dim}->{out_dim} ({order:?}): {}",
                    y.max_abs_diff(&want)
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Both orders compute one function, on the host and on the
        /// device, for every model, with the layer narrowing, keeping or
        /// widening its width, with and without ReLU.
        #[test]
        fn both_orders_compute_one_function(
            n in 10usize..90,
            edges_per_vertex in 1usize..8,
            seed in any::<u64>(),
            which in 0usize..4,
            dims in 0usize..3,
            relu in any::<bool>(),
        ) {
            let (in_dim, out_dim) = [(12, 5), (8, 8), (5, 12)][dims];
            let g = generators::rmat_default(n, n * edges_per_vertex, seed);
            let x = Matrix::random(n, in_dim, 1.0, seed ^ 0xfea7);
            let model = model_for(which, out_dim, seed);
            let linear = biased_linear(&model, in_dim, out_dim, seed);
            let mut engine = TlpgnnEngine::new(DeviceConfig::test_small(), EngineOptions::default());
            let mut host = Vec::new();
            let mut device = Vec::new();
            for order in [Order::AggregateFirst, Order::ProjectFirst] {
                let mut layer = GnnLayer::from_parts(model.clone(), linear.clone(), order);
                layer.relu = relu;
                host.push(layer.forward_with(&x, |m, feats| conv_reference(m, &g, feats)));
                device.push(engine.try_layer_forward(&layer, &g, &x).unwrap().0);
            }
            let name = model.name();
            for (what, got) in [("host", &host), ("device", &device)] {
                let diff = got[0].max_abs_diff(&got[1]);
                prop_assert!(diff < 1e-3, "{} {}: {}->{}: {}", what, name, in_dim, out_dim, diff);
            }
            for (h, d) in host.iter().zip(&device) {
                prop_assert!(h.max_abs_diff(d) < 1e-3, "{} host vs device", name);
            }
        }
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
