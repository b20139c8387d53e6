//! Compressed Sparse Row graph storage.
//!
//! The layout mirrors what the paper's CUDA kernels consume: an `indptr`
//! array of `n + 1` offsets and an `indices` array of `m` neighbor ids,
//! both 32-bit (GNN graphs fit comfortably, and smaller indices halve the
//! memory traffic of index loads — the same reason GPU frameworks use
//! `int32`).

/// A directed graph in CSR form. For GNN aggregation the row vertex is the
/// *destination* and `neighbors(v)` are the sources it pulls from (i.e.
/// this is the in-adjacency unless documented otherwise by the builder).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    num_vertices: usize,
    indptr: Vec<u32>,
    indices: Vec<u32>,
}

impl Csr {
    /// Build from raw arrays, validating the CSR invariants.
    ///
    /// # Panics
    /// Panics if the arrays are inconsistent (wrong `indptr` length,
    /// non-monotone offsets, neighbor ids out of range).
    pub fn new(num_vertices: usize, indptr: Vec<u32>, indices: Vec<u32>) -> Self {
        let g = Self {
            num_vertices,
            indptr,
            indices,
        };
        g.validate().expect("invalid CSR");
        g
    }

    /// Build without validation. Used by trusted internal constructors.
    pub(crate) fn new_unchecked(num_vertices: usize, indptr: Vec<u32>, indices: Vec<u32>) -> Self {
        debug_assert!(Self {
            num_vertices,
            indptr: indptr.clone(),
            indices: indices.clone()
        }
        .validate()
        .is_ok());
        Self {
            num_vertices,
            indptr,
            indices,
        }
    }

    /// Check all CSR invariants, returning a description of the first
    /// violation found.
    pub fn validate(&self) -> Result<(), String> {
        if self.indptr.len() != self.num_vertices + 1 {
            return Err(format!(
                "indptr has {} entries, expected {}",
                self.indptr.len(),
                self.num_vertices + 1
            ));
        }
        if self.indptr.first() != Some(&0) {
            return Err("indptr[0] != 0".into());
        }
        if *self.indptr.last().unwrap() as usize != self.indices.len() {
            return Err("indptr[n] != indices.len()".into());
        }
        if self.indptr.windows(2).any(|w| w[0] > w[1]) {
            return Err("indptr not monotone".into());
        }
        if self.num_vertices > u32::MAX as usize {
            return Err("too many vertices for u32 ids".into());
        }
        if let Some(&bad) = self
            .indices
            .iter()
            .find(|&&v| v as usize >= self.num_vertices)
        {
            return Err(format!("neighbor id {bad} out of range"));
        }
        Ok(())
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of (directed) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.indices.len()
    }

    /// Degree of vertex `v` (its row length).
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        (self.indptr[v + 1] - self.indptr[v]) as usize
    }

    /// Neighbor slice of vertex `v`.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.indices[self.indptr[v] as usize..self.indptr[v + 1] as usize]
    }

    /// The offsets array (`n + 1` entries).
    #[inline]
    pub fn indptr(&self) -> &[u32] {
        &self.indptr
    }

    /// The neighbor id array (`m` entries).
    #[inline]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Average degree `m / n`.
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_vertices as f64
        }
    }

    /// Maximum degree over all vertices.
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Iterate `(src, dst)` pairs, where `dst` is the row vertex.
    pub fn edge_iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.num_vertices)
            .flat_map(move |v| self.neighbors(v).iter().map(move |&u| (u, v as u32)))
    }

    /// The reverse graph: row `v` lists the vertices whose rows contain `v`.
    /// Converts a pull (in-neighbor) representation into the push
    /// (out-neighbor) representation used by push-style baselines.
    pub fn reverse(&self) -> Csr {
        let n = self.num_vertices;
        let mut counts = vec![0u32; n + 1];
        for &u in &self.indices {
            counts[u as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let indptr = counts.clone();
        let mut cursor = counts;
        let mut indices = vec![0u32; self.indices.len()];
        for v in 0..n {
            for &u in self.neighbors(v) {
                let slot = cursor[u as usize];
                indices[slot as usize] = v as u32;
                cursor[u as usize] += 1;
            }
        }
        Csr::new_unchecked(n, indptr, indices)
    }

    /// Apply a vertex permutation: `perm[old] = new`. Rows are moved and
    /// neighbor ids relabelled; neighbor lists are re-sorted.
    pub fn permute(&self, perm: &[u32]) -> Csr {
        assert_eq!(perm.len(), self.num_vertices);
        let n = self.num_vertices;
        let mut inv = vec![0u32; n];
        for (old, &new) in perm.iter().enumerate() {
            inv[new as usize] = old as u32;
        }
        let mut indptr = Vec::with_capacity(n + 1);
        indptr.push(0u32);
        let mut indices = Vec::with_capacity(self.indices.len());
        for new_v in 0..n {
            let old_v = inv[new_v] as usize;
            let start = indices.len();
            indices.extend(self.neighbors(old_v).iter().map(|&u| perm[u as usize]));
            indices[start..].sort_unstable();
            indptr.push(indices.len() as u32);
        }
        Csr::new_unchecked(n, indptr, indices)
    }

    /// Whether edge `src -> dst` exists (binary search on the sorted row).
    pub(crate) fn has_edge(&self, src: u32, dst: u32) -> bool {
        (dst as usize) < self.num_vertices
            && self.neighbors(dst as usize).binary_search(&src).is_ok()
    }

    /// Sum of degrees squared — a cheap skew indicator used in tests.
    #[cfg(test)]
    pub(crate) fn degree_second_moment(&self) -> f64 {
        (0..self.num_vertices)
            .map(|v| {
                let d = self.degree(v) as f64;
                d * d
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Triangle plus a pendant: 0->1->2->0, 3->0.
    fn small() -> Csr {
        // Rows are destinations; row v holds in-neighbors.
        // in(0) = {2, 3}, in(1) = {0}, in(2) = {1}, in(3) = {}.
        Csr::new(4, vec![0, 2, 3, 4, 4], vec![2, 3, 0, 1])
    }

    #[test]
    fn basic_accessors() {
        let g = small();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(0), &[2, 3]);
        assert_eq!(g.degree(3), 0);
        assert!((g.avg_degree() - 1.0).abs() < 1e-12);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn has_edge_queries() {
        let g = small();
        assert!(g.has_edge(2, 0));
        assert!(g.has_edge(3, 0));
        assert!(!g.has_edge(0, 3));
        assert!(!g.has_edge(0, 99));
    }

    #[test]
    fn reverse_roundtrip() {
        let g = small();
        let rr = g.reverse().reverse();
        assert_eq!(g.num_edges(), rr.num_edges());
        // Same edge multiset.
        let mut a: Vec<_> = g.edge_iter().collect();
        let mut b: Vec<_> = rr.edge_iter().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn reverse_degrees_are_out_degrees() {
        let g = small();
        let r = g.reverse();
        // Vertex 0 appears in one row (row 1), so out-degree 1.
        assert_eq!(r.degree(0), 1);
        assert_eq!(r.neighbors(0), &[1]);
    }

    #[test]
    fn permutation_preserves_structure() {
        let g = small();
        let perm = vec![3, 2, 1, 0];
        let p = g.permute(&perm);
        assert_eq!(p.num_edges(), g.num_edges());
        // Old vertex 0 (now 3) had in-neighbors {2,3} -> now {1,0}.
        let mut nbrs = p.neighbors(3).to_vec();
        nbrs.sort_unstable();
        assert_eq!(nbrs, vec![0, 1]);
    }

    #[test]
    fn identity_permutation_is_noop() {
        let g = small();
        let perm: Vec<u32> = (0..4).collect();
        assert_eq!(g.permute(&perm), g);
    }

    #[test]
    #[should_panic(expected = "invalid CSR")]
    fn invalid_indptr_rejected() {
        let _ = Csr::new(2, vec![0, 2, 1], vec![0]);
    }

    #[test]
    #[should_panic(expected = "invalid CSR")]
    fn out_of_range_neighbor_rejected() {
        let _ = Csr::new(2, vec![0, 1, 1], vec![5]);
    }
}
