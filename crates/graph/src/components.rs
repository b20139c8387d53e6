//! Weakly-connected components via union–find.
//!
//! Used for dataset reporting (a synthesized graph with thousands of
//! crumbs behaves differently from one giant component under vertex
//! parallelism) and by tests that need a connectivity ground truth.

use crate::csr::Csr;

/// Union–find over `0..n` with path halving and union by size.
#[derive(Debug, Clone)]
pub(crate) struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    components: usize,
}

impl UnionFind {
    /// `n` singleton sets.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            components: n,
        }
    }

    /// Representative of `x`'s set (with path halving).
    pub(crate) fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    /// Merge the sets of `a` and `b`; returns whether a merge happened.
    fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        self.components -= 1;
        true
    }

    /// Number of disjoint sets.
    pub(crate) fn components(&self) -> usize {
        self.components
    }

    /// Size of `x`'s set.
    fn component_size(&mut self, x: u32) -> usize {
        let r = self.find(x);
        self.size[r as usize] as usize
    }
}

/// Summary of a graph's weakly-connected components.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Components {
    /// Number of components (isolated vertices count as components).
    pub count: usize,
    /// Vertices in the largest component.
    pub largest: usize,
}

/// Compute weakly-connected components (edge direction ignored).
///
/// ```
/// use tlpgnn_graph::{components, generators};
/// let c = components::weakly_connected(&generators::path(10));
/// assert_eq!((c.count, c.largest), (1, 10));
/// ```
pub fn weakly_connected(g: &Csr) -> Components {
    let n = g.num_vertices();
    let mut uf = UnionFind::new(n);
    for v in 0..n {
        for &u in g.neighbors(v) {
            uf.union(v as u32, u);
        }
    }
    let largest = (0..n as u32)
        .map(|v| uf.component_size(v))
        .max()
        .unwrap_or(0);
    Components {
        count: uf.components(),
        largest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn path_is_one_component() {
        let c = weakly_connected(&generators::path(10));
        assert_eq!(c.count, 1);
        assert_eq!(c.largest, 10);
    }

    #[test]
    fn isolated_vertices_are_components() {
        let c = weakly_connected(&generators::star(10));
        // Star: hub + 9 leaves all connected (direction ignored).
        assert_eq!(c.count, 1);
        // Two disjoint stars:
        let mut b = crate::GraphBuilder::new(10);
        for v in 1..5u32 {
            b.add_edge(v, 0);
        }
        for v in 6..10u32 {
            b.add_edge(v, 5);
        }
        let c = weakly_connected(&b.build());
        assert_eq!(c.count, 2);
        assert_eq!(c.largest, 5);
    }

    #[test]
    fn empty_graph_all_singletons() {
        let mut b = crate::GraphBuilder::new(7);
        b.add_edge(0, 1);
        let c = weakly_connected(&b.build());
        assert_eq!(c.count, 6);
        assert_eq!(c.largest, 2);
    }

    #[test]
    fn union_find_invariants() {
        let mut uf = UnionFind::new(6);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert!(uf.union(2, 3));
        assert!(uf.union(0, 3));
        assert_eq!(uf.components(), 3); // {0,1,2,3}, {4}, {5}
        assert_eq!(uf.component_size(2), 4);
        assert_eq!(uf.find(1), uf.find(3));
        assert_ne!(uf.find(4), uf.find(5));
    }

    #[test]
    fn dense_random_graph_is_mostly_connected() {
        let g = generators::erdos_renyi(500, 5000, 51);
        let c = weakly_connected(&g);
        assert!(c.largest > 480, "largest component {}", c.largest);
    }
}
