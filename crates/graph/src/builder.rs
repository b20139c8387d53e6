//! Edge-list (COO) accumulation and conversion to CSR.

use crate::csr::Csr;

/// An edge-list builder. Collects `(src, dst)` pairs, then sorts,
/// deduplicates, and emits a [`Csr`] whose rows are **destinations**
/// holding their in-neighbors (the pull orientation GNN aggregation
/// consumes).
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// Start a builder for a graph with `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        assert!(num_vertices <= u32::MAX as usize);
        Self {
            num_vertices,
            edges: Vec::new(),
        }
    }

    /// Number of vertices this builder targets.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Add a directed edge `src -> dst`. Out-of-range endpoints panic;
    /// self loops are silently dropped (generator convenience: a model
    /// that wants `A + I` adds the self term itself).
    pub(crate) fn add_edge(&mut self, src: u32, dst: u32) {
        assert!(
            (src as usize) < self.num_vertices && (dst as usize) < self.num_vertices,
            "edge ({src}, {dst}) out of range for {} vertices",
            self.num_vertices
        );
        if src == dst {
            return;
        }
        self.edges.push((src, dst));
    }

    /// Add both directions of an undirected edge.
    pub fn add_undirected(&mut self, a: u32, b: u32) {
        self.add_edge(a, b);
        self.add_edge(b, a);
    }

    /// Bulk-add directed edges.
    pub fn extend(&mut self, edges: impl IntoIterator<Item = (u32, u32)>) {
        for (s, d) in edges {
            self.add_edge(s, d);
        }
    }

    /// Reserve capacity for `n` more edges.
    pub fn reserve(&mut self, n: usize) {
        self.edges.reserve(n);
    }

    /// Sort, deduplicate, and build the pull-oriented CSR (rows are
    /// destinations, entries are sorted source ids).
    pub fn build(mut self) -> Csr {
        let n = self.num_vertices;
        // Sort by (dst, src) so rows come out grouped and sorted.
        self.edges
            .sort_unstable_by_key(|&(s, d)| ((d as u64) << 32) | s as u64);
        self.edges.dedup();
        let mut indptr = vec![0u32; n + 1];
        for &(_, d) in &self.edges {
            indptr[d as usize + 1] += 1;
        }
        for i in 0..n {
            indptr[i + 1] += indptr[i];
        }
        let indices: Vec<u32> = self.edges.iter().map(|&(s, _)| s).collect();
        Csr::new(n, indptr, indices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_dedups_and_sorts() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 2);
        b.add_edge(1, 2);
        b.add_edge(0, 2); // duplicate
        b.add_edge(2, 0);
        let g = b.build();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(2), &[0, 1]);
        assert_eq!(g.neighbors(0), &[2]);
    }

    #[test]
    fn self_loops_dropped_by_default() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0);
        b.add_edge(0, 1);
        assert_eq!(b.build().num_edges(), 1);
    }

    #[test]
    fn undirected_adds_both() {
        let mut b = GraphBuilder::new(3);
        b.add_undirected(0, 1);
        let g = b.build();
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 5);
    }
}
