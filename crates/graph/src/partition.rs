//! Workload partitioning utilities.
//!
//! Two consumers:
//! * the GNNAdvisor-like baseline, which splits every vertex's neighbor
//!   list into fixed-size groups and assigns one warp per group (Section 3.1
//!   of the paper explains why this forces atomic combines);
//! * the sharded serving tier's `ShardPlan` (`tlpgnn_shard`), the paper's
//!   multi-GPU future work (Section 1, "Limitations"), which needs an
//!   edge-balanced vertex partition in lieu of METIS.

use crate::csr::Csr;

/// One fixed-size neighbor group: a contiguous slice of a vertex's
/// neighbor list, processed by one warp in the GNNAdvisor scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NeighborGroup {
    /// Destination vertex the group accumulates into.
    pub vertex: u32,
    /// Start offset into the CSR `indices` array.
    pub start: u32,
    /// End offset (exclusive).
    pub end: u32,
}

impl NeighborGroup {
    /// Number of edges in this group.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// True when the group covers no edges (only possible for isolated
    /// vertices, which still get one empty group so their output is
    /// initialized).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Split every vertex's neighbor list into groups of at most `group_size`
/// edges. Isolated vertices contribute one empty group.
pub fn neighbor_groups(g: &Csr, group_size: usize) -> Vec<NeighborGroup> {
    assert!(group_size >= 1);
    let mut groups = Vec::with_capacity(g.num_edges() / group_size + g.num_vertices());
    for v in 0..g.num_vertices() {
        let start = g.indptr()[v];
        let end = g.indptr()[v + 1];
        if start == end {
            groups.push(NeighborGroup {
                vertex: v as u32,
                start,
                end,
            });
            continue;
        }
        let mut s = start;
        while s < end {
            let e = (s + group_size as u32).min(end);
            groups.push(NeighborGroup {
                vertex: v as u32,
                start: s,
                end: e,
            });
            s = e;
        }
    }
    groups
}

/// Estimated host-side cost of building the neighbor groups (GNNAdvisor's
/// second preprocessing stage), ms.
pub fn grouping_cost_ms(g: &Csr, group_size: usize) -> f64 {
    let groups = g.num_edges() / group_size.max(1) + g.num_vertices();
    // ~80M group records built per second on the host.
    groups as f64 / 80e6 * 1e3
}

/// A contiguous-range vertex partition with approximately equal edge
/// counts per part: the lightweight stand-in for METIS the paper names
/// for its multi-GPU future work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VertexPartition {
    /// `bounds[p]..bounds[p+1]` is the vertex range of part `p`.
    pub bounds: Vec<u32>,
}

impl VertexPartition {
    /// Number of parts.
    pub fn parts(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Vertex range of part `p`.
    pub fn range(&self, p: usize) -> std::ops::Range<usize> {
        self.bounds[p] as usize..self.bounds[p + 1] as usize
    }

    /// Which part owns vertex `v`: the unique `p` with
    /// `bounds[p] <= v < bounds[p + 1]`. (A plain `binary_search` is wrong
    /// here — empty parts duplicate bounds, and it may land on a duplicate
    /// whose range is empty.)
    pub fn part_of(&self, v: u32) -> usize {
        let i = self.bounds.partition_point(|&b| b <= v);
        i.saturating_sub(1).min(self.parts() - 1)
    }

    /// Total vertices covered: the final bound.
    pub fn num_vertices(&self) -> usize {
        *self.bounds.last().unwrap() as usize
    }

    /// Structural well-formedness: at least one part, bounds start at
    /// zero and never decrease. Returns the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.bounds.len() < 2 {
            return Err("partition needs at least one part".to_string());
        }
        if self.bounds[0] != 0 {
            return Err(format!("bounds must start at 0, got {}", self.bounds[0]));
        }
        for w in self.bounds.windows(2) {
            if w[0] > w[1] {
                return Err(format!("bounds decrease: {} > {}", w[0], w[1]));
            }
        }
        Ok(())
    }
}

/// Split `[0, n)` into `parts` contiguous ranges with balanced edge
/// counts (greedy prefix-sum split).
pub fn edge_balanced_partition(g: &Csr, parts: usize) -> VertexPartition {
    assert!(parts >= 1);
    let n = g.num_vertices();
    let m = g.num_edges() as u64;
    let target = m.div_ceil(parts as u64).max(1);
    let mut bounds = Vec::with_capacity(parts + 1);
    bounds.push(0u32);
    let mut acc = 0u64;
    let mut next_cut = target;
    for v in 0..n {
        acc += g.degree(v) as u64;
        if acc >= next_cut && bounds.len() < parts {
            bounds.push((v + 1) as u32);
            next_cut += target;
        }
    }
    while bounds.len() < parts + 1 {
        bounds.push(n as u32);
    }
    VertexPartition { bounds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn groups_cover_all_edges_exactly_once() {
        let g = generators::rmat_default(300, 2000, 17);
        let groups = neighbor_groups(&g, 16);
        let covered: usize = groups.iter().map(|gr| gr.len()).sum();
        assert_eq!(covered, g.num_edges());
        // Groups of one vertex are contiguous and within its row.
        for gr in &groups {
            let v = gr.vertex as usize;
            assert!(gr.start >= g.indptr()[v] && gr.end <= g.indptr()[v + 1]);
            assert!(gr.len() <= 16);
        }
    }

    #[test]
    fn isolated_vertices_get_empty_group() {
        let g = generators::star(5); // leaves have no in-edges
        let groups = neighbor_groups(&g, 4);
        let empty = groups.iter().filter(|g| g.is_empty()).count();
        assert_eq!(empty, 4);
    }

    #[test]
    fn high_degree_vertex_spans_groups() {
        let g = generators::star(65); // hub in-degree 64
        let groups = neighbor_groups(&g, 16);
        let hub_groups = groups.iter().filter(|gr| gr.vertex == 0).count();
        assert_eq!(hub_groups, 4);
    }

    #[test]
    fn partition_balances_edges() {
        let g = generators::rmat_default(1000, 20_000, 23);
        let p = edge_balanced_partition(&g, 4);
        assert_eq!(p.parts(), 4);
        let counts: Vec<usize> = (0..4)
            .map(|i| p.range(i).map(|v| g.degree(v)).sum())
            .collect();
        let max = *counts.iter().max().unwrap() as f64;
        let avg = g.num_edges() as f64 / 4.0;
        // Contiguous split of a skewed graph: allow generous slack, but it
        // must beat a pathological 1-part-gets-everything split.
        assert!(max < 2.5 * avg, "counts {counts:?}");
    }

    #[test]
    fn part_of_consistent_with_ranges() {
        let g = generators::erdos_renyi(100, 700, 3);
        let p = edge_balanced_partition(&g, 3);
        p.validate().unwrap();
        assert_eq!(p.num_vertices(), 100);
        for part in 0..p.parts() {
            for v in p.range(part) {
                assert_eq!(p.part_of(v as u32), part);
            }
        }
    }

    #[test]
    fn validate_rejects_malformed_bounds() {
        assert!(VertexPartition { bounds: vec![0] }.validate().is_err());
        assert!(VertexPartition { bounds: vec![1, 5] }.validate().is_err());
        assert!(VertexPartition {
            bounds: vec![0, 5, 3]
        }
        .validate()
        .is_err());
        VertexPartition {
            bounds: vec![0, 3, 3, 5],
        }
        .validate()
        .unwrap();
    }

    #[test]
    fn costs_positive() {
        let g = generators::erdos_renyi(100, 700, 3);
        assert!(grouping_cost_ms(&g, 16) > 0.0);
    }
}
