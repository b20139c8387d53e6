//! Vertex reordering — the preprocessing step of GNNAdvisor-style systems.
//!
//! The paper (Section 1) criticizes baselines for "heavy pre-processing":
//! reordering vertices so that vertices sharing neighbors sit close
//! together. We implement two standard reorderings so the GNNAdvisor-like
//! baseline can pay this cost (and occasionally profit from the locality),
//! while TLPGNN runs on the raw graph.

use crate::csr::Csr;
use std::collections::VecDeque;

/// A vertex permutation: `perm[old_id] = new_id`.
pub(crate) type Permutation = Vec<u32>;

/// Order vertices by descending degree. Cheap, clusters the hubs, and a
/// common component of GNN preprocessing pipelines.
pub fn degree_descending(g: &Csr) -> Permutation {
    let n = g.num_vertices();
    let mut order: Vec<u32> = (0..n as u32).collect();
    // Stable sort keeps ties in id order for determinism.
    order.sort_by_key(|&v| std::cmp::Reverse(g.degree(v as usize)));
    let mut perm = vec![0u32; n];
    for (new, &old) in order.iter().enumerate() {
        perm[old as usize] = new as u32;
    }
    perm
}

/// BFS (Cuthill–McKee-flavoured) reordering: label vertices in breadth-
/// first discovery order from the lowest-degree unvisited vertex, which
/// places topologically close vertices at close ids (locality for the
/// feature cache).
pub fn bfs_locality(g: &Csr) -> Permutation {
    let n = g.num_vertices();
    let mut perm = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut by_degree: Vec<u32> = (0..n as u32).collect();
    by_degree.sort_by_key(|&v| g.degree(v as usize));
    let mut queue = VecDeque::new();
    for &root in &by_degree {
        if perm[root as usize] != u32::MAX {
            continue;
        }
        perm[root as usize] = next;
        next += 1;
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            for &u in g.neighbors(v as usize) {
                if perm[u as usize] == u32::MAX {
                    perm[u as usize] = next;
                    next += 1;
                    queue.push_back(u);
                }
            }
        }
    }
    debug_assert_eq!(next as usize, n);
    perm
}

/// Estimated preprocessing cost of computing a reordering plus rebuilding
/// the graph, in milliseconds, on the paper's CPU. Modelled as a sort over
/// vertices plus a linear pass over edges — the real cost GNNAdvisor pays
/// before its first kernel.
pub fn reorder_cost_ms(g: &Csr) -> f64 {
    let n = g.num_vertices() as f64;
    let m = g.num_edges() as f64;
    // ~25M sorted keys/s and ~120M edge moves/s for the host rebuild.
    (n * n.log2().max(1.0)) / 25e6 * 1e3 + m / 120e6 * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn is_permutation(p: &[u32]) -> bool {
        let mut seen = vec![false; p.len()];
        for &v in p {
            if (v as usize) >= p.len() || seen[v as usize] {
                return false;
            }
            seen[v as usize] = true;
        }
        true
    }

    #[test]
    fn degree_descending_is_permutation() {
        let g = generators::rmat_default(500, 3000, 11);
        let p = degree_descending(&g);
        assert!(is_permutation(&p));
    }

    #[test]
    fn degree_descending_puts_hub_first() {
        let g = generators::star(20);
        let p = degree_descending(&g);
        assert_eq!(p[0], 0, "hub keeps id 0 (it has the top degree)");
    }

    #[test]
    fn bfs_is_permutation() {
        let g = generators::rmat_default(500, 3000, 13);
        let p = bfs_locality(&g);
        assert!(is_permutation(&p));
    }

    #[test]
    fn bfs_labels_neighbors_contiguously_on_path() {
        let g = generators::path(10);
        let p = bfs_locality(&g);
        // On a path the BFS order from the sole zero-in-degree vertex is
        // the path order itself (up to where components start).
        assert!(is_permutation(&p));
    }

    #[test]
    fn permuted_graph_equivalent() {
        let g = generators::erdos_renyi(200, 1000, 5);
        let p = degree_descending(&g);
        let pg = g.permute(&p);
        assert_eq!(pg.num_edges(), g.num_edges());
        // Degree multiset preserved.
        let mut d1: Vec<_> = (0..200).map(|v| g.degree(v)).collect();
        let mut d2: Vec<_> = (0..200).map(|v| pg.degree(v)).collect();
        d1.sort_unstable();
        d2.sort_unstable();
        assert_eq!(d1, d2);
    }

    #[test]
    fn reorder_cost_positive_and_monotone() {
        let small = generators::erdos_renyi(100, 500, 1);
        let large = generators::erdos_renyi(10_000, 50_000, 1);
        assert!(reorder_cost_ms(&small) > 0.0);
        assert!(reorder_cost_ms(&large) > reorder_cost_ms(&small));
    }
}
