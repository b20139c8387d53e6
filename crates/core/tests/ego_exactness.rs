//! Frontier rows are never read by the answer.
//!
//! `subgraph::ego_graph` keeps a row only for vertices it expanded; the
//! last level it discovers (hop == extraction depth) carries empty rows.
//! At `GnnNetwork::receptive_hops()` that must not move a single bit of
//! the targets' outputs: this property compares the simulated engine's
//! forward pass over the extracted ego graph with the same pass over the
//! full induced subgraph on the same locals (every in-edge between
//! extracted vertices, rows sorted by local id — built here from
//! `ego.vertices`).

use std::collections::HashMap;

use proptest::prelude::*;
use tlpgnn::{GatParams, GnnModel, GnnNetwork, TlpgnnEngine};
use tlpgnn_graph::{generators, subgraph, Csr};
use tlpgnn_tensor::Matrix;

/// Every in-edge of `g` between the vertices of `locals`, relabelled to
/// their positions and sorted per row.
fn induced(g: &Csr, locals: &[u32]) -> Csr {
    let local: HashMap<u32, u32> = locals
        .iter()
        .enumerate()
        .map(|(l, &v)| (v, l as u32))
        .collect();
    let mut indptr = vec![0u32];
    let mut indices = Vec::new();
    for &v in locals {
        let start = indices.len();
        indices.extend(g.neighbors(v as usize).iter().filter_map(|u| local.get(u)));
        indices[start..].sort_unstable();
        indptr.push(indices.len() as u32);
    }
    Csr::new(locals.len(), indptr, indices)
}

fn networks(in_dim: usize, hidden: usize, seed: u64) -> Vec<GnnNetwork> {
    let gat = |d: usize| GnnModel::Gat {
        params: GatParams::random(d, seed ^ d as u64),
    };
    vec![
        GnnNetwork::two_layer(|_| GnnModel::Gcn, in_dim, hidden, 4, seed),
        GnnNetwork::two_layer(|_| GnnModel::Gin { eps: 0.1 }, in_dim, hidden, 4, seed),
        GnnNetwork::two_layer(|_| GnnModel::Sage, in_dim, hidden, 4, seed),
        GnnNetwork::two_layer(gat, in_dim, hidden, 4, seed),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn frontier_rows_do_not_move_target_outputs(
        n in 60usize..400,
        edges_per_vertex in 2usize..12,
        seed in any::<u64>(),
        targets in proptest::collection::vec(any::<u32>(), 1..9),
        dims in 0usize..3,
    ) {
        let g = generators::rmat_default(n, n * edges_per_vertex, seed);
        let targets: Vec<u32> = targets.iter().map(|t| t % n as u32).collect();
        // 8 and 16 take the packed sub-warp path, 24 the plain fused one.
        let (in_dim, hidden) = [(8, 16), (16, 8), (24, 24)][dims];
        let x = Matrix::random(n, in_dim, 1.0, seed ^ 0x5eed);
        let mut engine = TlpgnnEngine::v100();
        for net in networks(in_dim, hidden, seed) {
            let ego = subgraph::ego_graph(&g, &targets, net.receptive_hops());
            let full = induced(&g, &ego.vertices);
            prop_assert!(ego.csr.num_edges() <= full.num_edges());
            let mut feats = Matrix::zeros(ego.vertices.len(), in_dim);
            for (local, &v) in ego.vertices.iter().enumerate() {
                feats.row_mut(local).copy_from_slice(x.row(v as usize));
            }
            let (got, _) = engine.classify_forward(&net, &ego.csr, &feats);
            let (want, _) = engine.classify_forward(&net, &full, &feats);
            for t in 0..ego.num_targets {
                let bits = |m: &Matrix| m.row(t).iter().map(|z| z.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{} target {} (vertex {})",
                    net.layers[0].model.name(),
                    t,
                    ego.vertices[t]
                );
            }
        }
    }
}
