//! Seeded input generators. `--seed` drives every one of them — graphs,
//! features, weights, target streams, mutation streams — and the program
//! under test receives only what they produce.

use tlpgnn::{GatParams, GnnModel, GnnNetwork};
use tlpgnn_serve::{GraphMutation, ZipfSampler};

/// An independent seed for the input called `tag`, derived from the
/// run's seed (FNV-1a over the tag, mixed splitmix64-style).
pub fn sub_seed(seed: u64, tag: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for b in tag.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut z = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The four models of the paper, by the short names the metrics use.
pub const MODELS: [&str; 4] = ["gcn", "gin", "sage", "gat"];

/// A two-layer network of `model` (`in -> hidden -> classes`); GAT
/// attention vectors are drawn per layer from the seed.
pub fn two_layer(
    model: &str,
    in_dim: usize,
    hidden: usize,
    classes: usize,
    seed: u64,
) -> GnnNetwork {
    let model_of = |dim: usize| match model {
        "gcn" => GnnModel::Gcn,
        "gin" => GnnModel::Gin { eps: 0.1 },
        "sage" => GnnModel::Sage,
        "gat" => GnnModel::Gat {
            params: GatParams::random(dim, sub_seed(seed, "gat") ^ dim as u64),
        },
        other => panic!("unknown model {other}"),
    };
    GnnNetwork::two_layer(model_of, in_dim, hidden, classes, sub_seed(seed, "weights"))
}

/// The stream of request targets: Zipf-popular vertex ranks (exponent 0
/// is uniform). Rank `r` is vertex `r`, so under R-MAT the popular
/// vertices are also the high-degree ones.
pub fn targets(n: usize, exponent: f64, seed: u64) -> ZipfSampler {
    ZipfSampler::new(n, exponent, sub_seed(seed, "targets"))
}

/// The stream of graph writes `serve_churn` issues: `InsertEdge` and
/// `SetFeatures` alternating, endpoints uniform.
pub struct MutationStream {
    uniform: ZipfSampler,
    feat_dim: usize,
    issued: u64,
}

impl MutationStream {
    /// A stream over `n` vertices with `feat_dim`-wide feature rows.
    pub fn new(n: usize, feat_dim: usize, seed: u64) -> Self {
        Self {
            uniform: ZipfSampler::new(n, 0.0, sub_seed(seed, "mutations")),
            feat_dim,
            issued: 0,
        }
    }

    /// The next write.
    pub fn next_mutation(&mut self) -> GraphMutation {
        self.issued += 1;
        if self.issued % 2 == 1 {
            GraphMutation::InsertEdge {
                src: self.uniform.sample(),
                dst: self.uniform.sample(),
            }
        } else {
            let vertex = self.uniform.sample();
            // Feature values in [-1, 1), derived from the same stream.
            let features = (0..self.feat_dim)
                .map(|_| self.uniform.sample() as f32 / self.uniform.domain() as f32 * 2.0 - 1.0)
                .collect();
            GraphMutation::SetFeatures { vertex, features }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_differ_by_tag_and_seed_and_repeat() {
        assert_eq!(sub_seed(42, "graph"), sub_seed(42, "graph"));
        assert_ne!(sub_seed(42, "graph"), sub_seed(42, "features"));
        assert_ne!(sub_seed(42, "graph"), sub_seed(43, "graph"));
    }

    #[test]
    fn mutation_stream_alternates_and_repeats() {
        let mut a = MutationStream::new(100, 4, 7);
        let mut b = MutationStream::new(100, 4, 7);
        for i in 0..10 {
            let m = a.next_mutation();
            assert_eq!(m, b.next_mutation());
            match m {
                GraphMutation::InsertEdge { src, dst } => {
                    assert_eq!(i % 2, 0);
                    assert!(src < 100 && dst < 100);
                }
                GraphMutation::SetFeatures { vertex, features } => {
                    assert_eq!(i % 2, 1);
                    assert!(vertex < 100);
                    assert_eq!(features.len(), 4);
                    assert!(features.iter().all(|f| (-1.0..1.0).contains(f)));
                }
                GraphMutation::InsertVertex { .. } => unreachable!(),
            }
        }
    }
}
