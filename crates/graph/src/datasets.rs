//! The paper's dataset registry (Table 4), reproduced synthetically.
//!
//! The evaluation datasets are real graphs; what drives every result in
//! the paper is their *shape*: vertex count, edge count, average degree,
//! and degree skew (the paper's own hybrid heuristic keys on |V| and avg
//! degree alone). We synthesize graphs matching those statistics — R-MAT
//! for the skewed social/OGB graphs, Erdős–Rényi for the near-regular
//! citation/molecular graphs — optionally scaled down by a divisor that
//! shrinks |V| and |E| together so the average degree (and the heuristic's
//! decision) is preserved.

use crate::csr::Csr;
use crate::generators;

/// Degree-distribution family used to synthesize a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Near-uniform degrees (citation and molecular graphs).
    Uniform,
    /// Power-law degrees (social networks, OGB product/protein graphs).
    PowerLaw,
}

/// One row of the paper's Table 4.
///
/// ```
/// use tlpgnn_graph::datasets;
/// let pubmed = datasets::by_abbr("PD").unwrap();
/// assert_eq!(pubmed.name, "Pubmed");
/// let g = pubmed.synthesize(4); // 1/4 scale
/// assert!((g.avg_degree() - pubmed.avg_degree()).abs() < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Table 4 abbreviation (e.g. "RD").
    pub abbr: &'static str,
    /// Full name (e.g. "Reddit").
    pub name: &'static str,
    /// Vertex count of the real dataset.
    pub vertices: usize,
    /// Directed edge count of the real dataset.
    pub edges: usize,
    /// Degree family for synthesis.
    pub family: Family,
    /// Default scale divisor applied by [`DatasetSpec::load`]; >1 for the
    /// giant graphs so the simulator stays tractable.
    pub default_scale: usize,
}

impl DatasetSpec {
    /// Average degree of the real dataset.
    pub fn avg_degree(&self) -> f64 {
        self.edges as f64 / self.vertices as f64
    }

    /// Synthesize the graph at an explicit scale divisor (1 = full size).
    /// |V| and |E| shrink together, preserving average degree.
    ///
    /// Vertex ids are shuffled after generation: R-MAT places its hubs at
    /// consecutive low ids, an artifact real datasets do not have (and one
    /// that would make any chunk-of-consecutive-vertices workload
    /// assignment look unrealistically imbalanced).
    pub fn synthesize(&self, scale: usize) -> Csr {
        assert!(scale >= 1);
        let n = (self.vertices / scale).max(64);
        let m = (self.edges / scale).max(n);
        // Never ask for more than half the possible edges: beyond that the
        // generator degenerates into coupon collecting.
        let m = m.min(n * (n - 1) / 2);
        let seed = seed_for(self.abbr);
        let gen = |mm: usize, s: u64| match self.family {
            Family::Uniform => generators::erdos_renyi(n, mm, s),
            Family::PowerLaw => generators::rmat_default(n, mm, s),
        };
        let mut g = gen(m, seed);
        // Aggressive down-scales of the densest graphs (ON, RD) collapse
        // many sampled edges into duplicates; top up so the scaled graph
        // keeps the paper's average degree (which drives the hybrid
        // heuristic and the per-warp workload).
        let mut attempt = 0u64;
        while g.num_edges() < m * 95 / 100 && attempt < 6 {
            attempt += 1;
            let deficit = m - g.num_edges();
            let extra = gen(deficit * 3 / 2, seed.wrapping_add(attempt * 0x9e37));
            let mut b = crate::builder::GraphBuilder::new(n);
            b.reserve(g.num_edges() + extra.num_edges());
            b.extend(g.edge_iter());
            b.extend(extra.edge_iter());
            g = b.build();
        }
        g.permute(&shuffled_permutation(n, seed ^ 0x5bff))
    }

    /// Synthesize at the default scale divisor.
    pub fn load(&self) -> Csr {
        self.synthesize(self.default_scale)
    }

    /// Synthesize at `default_scale * extra` (harness-level extra scaling).
    pub fn load_scaled(&self, extra: usize) -> Csr {
        self.synthesize(self.default_scale * extra.max(1))
    }
}

/// Seeded Fisher–Yates permutation of `0..n`.
fn shuffled_permutation(n: usize, seed: u64) -> Vec<u32> {
    use rand::{RngExt, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        perm.swap(i, j);
    }
    perm
}

fn seed_for(abbr: &str) -> u64 {
    // Stable per-dataset seed derived from the abbreviation (FNV-1a).
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in abbr.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// All 11 datasets of Table 4, in the paper's order (sorted by edge count).
pub const DATASETS: &[DatasetSpec] = &[
    DatasetSpec {
        abbr: "CS",
        name: "Citeseer",
        vertices: 3_300,
        edges: 9_200,
        family: Family::Uniform,
        default_scale: 1,
    },
    DatasetSpec {
        abbr: "CR",
        name: "Cora",
        vertices: 2_700,
        edges: 10_500,
        family: Family::Uniform,
        default_scale: 1,
    },
    DatasetSpec {
        abbr: "PD",
        name: "Pubmed",
        vertices: 19_700,
        edges: 88_600,
        family: Family::Uniform,
        default_scale: 1,
    },
    DatasetSpec {
        abbr: "OA",
        name: "Ogbn-arxiv",
        vertices: 169_000,
        edges: 1_100_000,
        family: Family::PowerLaw,
        default_scale: 2,
    },
    DatasetSpec {
        abbr: "PI",
        name: "PPI",
        vertices: 56_000,
        edges: 1_600_000,
        family: Family::PowerLaw,
        default_scale: 2,
    },
    DatasetSpec {
        abbr: "DD",
        name: "DD",
        vertices: 334_000,
        edges: 1_600_000,
        family: Family::Uniform,
        default_scale: 2,
    },
    DatasetSpec {
        abbr: "OH",
        name: "Ovcar-8h",
        vertices: 1_800_000,
        edges: 3_900_000,
        family: Family::Uniform,
        default_scale: 4,
    },
    DatasetSpec {
        abbr: "CL",
        name: "Collab",
        vertices: 372_000,
        edges: 24_900_000,
        family: Family::PowerLaw,
        default_scale: 16,
    },
    DatasetSpec {
        abbr: "ON",
        name: "Ogbn-protein",
        vertices: 132_000,
        edges: 79_000_000,
        family: Family::PowerLaw,
        default_scale: 32,
    },
    DatasetSpec {
        abbr: "RD",
        name: "Reddit",
        vertices: 232_000,
        edges: 114_000_000,
        family: Family::PowerLaw,
        default_scale: 32,
    },
    DatasetSpec {
        abbr: "OT",
        name: "Ogbn-product",
        vertices: 2_400_000,
        edges: 123_700_000,
        family: Family::PowerLaw,
        default_scale: 32,
    },
];

/// Look up a dataset by its Table 4 abbreviation (case-insensitive).
pub fn by_abbr(abbr: &str) -> Option<&'static DatasetSpec> {
    DATASETS.iter().find(|d| d.abbr.eq_ignore_ascii_case(abbr))
}

/// The four largest graphs (CL, ON, RD, OT) used by the paper's
/// scalability studies (Figures 11 and 12).
pub fn largest_four() -> Vec<&'static DatasetSpec> {
    ["CL", "ON", "RD", "OT"]
        .iter()
        .map(|a| by_abbr(a).unwrap())
        .collect()
}

/// The seven datasets GNNAdvisor runs on without crashing (Figure 8).
pub fn advisor_seven() -> Vec<&'static DatasetSpec> {
    ["CS", "CR", "PD", "OA", "PI", "DD", "OH"]
        .iter()
        .map(|a| by_abbr(a).unwrap())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_table4_shape() {
        assert_eq!(DATASETS.len(), 11);
        // Table 4 is sorted by edge count.
        for w in DATASETS.windows(2) {
            assert!(w[0].edges <= w[1].edges, "{} > {}", w[0].abbr, w[1].abbr);
        }
        // Spot-check the paper's average degrees.
        assert!((by_abbr("RD").unwrap().avg_degree() - 491.0).abs() < 2.0);
        assert!((by_abbr("OH").unwrap().avg_degree() - 2.2).abs() < 0.1);
        assert!((by_abbr("ON").unwrap().avg_degree() - 607.0).abs() < 12.0);
    }

    #[test]
    fn synthesis_preserves_avg_degree() {
        let spec = by_abbr("PI").unwrap();
        let g = spec.synthesize(4);
        let want = spec.avg_degree();
        let got = g.avg_degree();
        // Dedup and top-up overshoot both stay within 10%.
        assert!(
            got > want * 0.9 && got < want * 1.1,
            "avg degree {got} vs expected {want}"
        );
    }

    #[test]
    fn synthesis_scales_vertices() {
        let spec = by_abbr("OA").unwrap();
        let g1 = spec.synthesize(2);
        let g2 = spec.synthesize(8);
        assert!(g1.num_vertices() > 3 * g2.num_vertices());
    }

    #[test]
    fn skewed_datasets_are_skewed() {
        let rd = by_abbr("RD").unwrap().synthesize(128);
        let oh = by_abbr("OH").unwrap().synthesize(128);
        let rd_skew = rd.degree_second_moment() / rd.num_edges() as f64;
        let oh_skew = oh.degree_second_moment() / oh.num_edges() as f64;
        assert!(rd_skew > 3.0 * oh_skew);
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert_eq!(by_abbr("rd").unwrap().name, "Reddit");
        assert!(by_abbr("nope").is_none());
    }

    #[test]
    fn deterministic_synthesis() {
        let spec = by_abbr("CR").unwrap();
        assert_eq!(spec.load(), spec.load());
    }

    #[test]
    fn helper_sets() {
        assert_eq!(largest_four().len(), 4);
        assert_eq!(advisor_seven().len(), 7);
    }
}
