//! Property-based tests of the graph substrate.

use proptest::prelude::*;
use tlpgnn_graph::{generators, io, partition, reorder, subgraph, Csr, GraphBuilder, GraphStats};

fn arb_edges(max_n: usize, max_m: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..max_m).prop_map(move |e| (n, e))
    })
}

fn build(n: usize, edges: &[(u32, u32)]) -> Csr {
    let mut b = GraphBuilder::new(n);
    b.extend(edges.iter().copied());
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The builder produces a valid CSR whose edge set equals the
    /// deduplicated, self-loop-free input.
    #[test]
    fn builder_invariants((n, edges) in arb_edges(100, 400)) {
        let g = build(n, &edges);
        prop_assert!(g.validate().is_ok());
        let mut want: Vec<(u32, u32)> = edges
            .iter()
            .copied()
            .filter(|(s, d)| s != d)
            .collect();
        want.sort_unstable();
        want.dedup();
        let mut got: Vec<(u32, u32)> = g.edge_iter().collect();
        got.sort_unstable();
        prop_assert_eq!(got, want);
        // Rows are sorted (binary-searchable neighbor lists).
        for v in 0..n {
            prop_assert!(g.neighbors(v).windows(2).all(|w| w[0] < w[1]));
        }
    }

    /// Double reversal is the identity on the edge multiset, and degrees
    /// swap roles exactly.
    #[test]
    fn reverse_involution((n, edges) in arb_edges(80, 300)) {
        let g = build(n, &edges);
        let r = g.reverse();
        prop_assert_eq!(g.num_edges(), r.num_edges());
        let total_in: usize = (0..n).map(|v| g.degree(v)).sum();
        let total_out: usize = (0..n).map(|v| r.degree(v)).sum();
        prop_assert_eq!(total_in, total_out);
        let mut a: Vec<_> = g.edge_iter().collect();
        let mut b: Vec<_> = r.reverse().edge_iter().collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    /// Permuting and permuting back with the inverse gives the original.
    #[test]
    fn permute_roundtrip((n, edges) in arb_edges(60, 250), rot in 1usize..50) {
        let g = build(n, &edges);
        let mut perm: Vec<u32> = (0..n as u32).collect();
        perm.rotate_left(rot % n);
        let mut inv = vec![0u32; n];
        for (old, &new) in perm.iter().enumerate() {
            inv[new as usize] = old as u32;
        }
        prop_assert_eq!(g.permute(&perm).permute(&inv), g);
    }

    /// Edge-list IO round-trips the graph (up to id compaction, which is
    /// the identity for dense 0..n ids present in edges).
    #[test]
    fn io_roundtrip((n, edges) in arb_edges(60, 250)) {
        let g = build(n, &edges);
        let mut buf = Vec::new();
        io::write_edge_list(&g, &mut buf).unwrap();
        let g2 = io::read_edge_list(&buf[..]).unwrap();
        prop_assert_eq!(g.num_edges(), g2.num_edges());
        // Degrees as a multiset are preserved.
        let mut d1: Vec<usize> = (0..g.num_vertices()).map(|v| g.degree(v)).collect();
        let mut d2: Vec<usize> = (0..g2.num_vertices()).map(|v| g2.degree(v)).collect();
        d1.retain(|&d| d > 0);
        d2.retain(|&d| d > 0);
        d1.sort_unstable();
        d2.sort_unstable();
        prop_assert_eq!(d1, d2);
    }

    /// Partitions cover every vertex exactly once.
    #[test]
    fn partition_covers((n, edges) in arb_edges(100, 400), parts in 1usize..6) {
        let g = build(n, &edges);
        let p = partition::edge_balanced_partition(&g, parts);
        prop_assert_eq!(p.parts(), parts);
        let covered: usize = (0..parts).map(|i| p.range(i).len()).sum();
        prop_assert_eq!(covered, n);
    }

    /// Neighbor groups tile the edge set exactly, regardless of size.
    #[test]
    fn groups_tile_edges((n, edges) in arb_edges(80, 300), size in 1usize..40) {
        let g = build(n, &edges);
        let groups = partition::neighbor_groups(&g, size);
        let covered: usize = groups.iter().map(|gr| gr.len()).sum();
        prop_assert_eq!(covered, g.num_edges());
        // Every vertex appears in at least one group.
        let mut seen = vec![false; n];
        for gr in &groups {
            seen[gr.vertex as usize] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// Reorderings are permutations and preserve the degree multiset.
    #[test]
    fn reorders_preserve_structure((n, edges) in arb_edges(80, 300)) {
        let g = build(n, &edges);
        for perm in [reorder::degree_descending(&g), reorder::bfs_locality(&g)] {
            let mut seen = vec![false; n];
            for &v in &perm {
                prop_assert!(!seen[v as usize]);
                seen[v as usize] = true;
            }
            let pg = g.permute(&perm);
            let mut d1: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
            let mut d2: Vec<usize> = (0..n).map(|v| pg.degree(v)).collect();
            d1.sort_unstable();
            d2.sort_unstable();
            prop_assert_eq!(d1, d2);
        }
    }

    /// On power-law (R-MAT) graphs, the edge-balanced partition covers
    /// every vertex exactly once with contiguous ranges, and no part
    /// carries more than twice the mean edge load.
    #[test]
    fn edge_balanced_partition_is_balanced(
        n in 200usize..800,
        edges_per_vertex in 15usize..25,
        parts in 2usize..5,
        seed in any::<u64>(),
    ) {
        let g = generators::rmat_default(n, n * edges_per_vertex, seed);
        let p = partition::edge_balanced_partition(&g, parts);
        prop_assert_eq!(p.parts(), parts);
        // Contiguous ranges tile 0..n: every vertex in exactly one part.
        let mut covered = 0usize;
        for i in 0..parts {
            let r = p.range(i);
            prop_assert_eq!(r.start, covered);
            covered = r.end;
        }
        prop_assert_eq!(covered, n);
        // Per-part edge load stays within 2x the mean.
        let mean = g.num_edges() as f64 / parts as f64;
        for i in 0..parts {
            let load: usize = p.range(i).map(|v| g.degree(v)).sum();
            prop_assert!(
                (load as f64) <= 2.0 * mean,
                "part {} holds {} of {} edges (mean {:.0})",
                i, load, g.num_edges(), mean
            );
        }
    }

    /// Ego-graph extraction agrees with a naive reference on membership
    /// and edges, and interior vertices keep their exact degrees.
    #[test]
    fn ego_graph_matches_naive_reference(
        n in 50usize..300,
        edges_per_vertex in 2usize..10,
        hops in 1usize..4,
        seed in any::<u64>(),
        t0 in any::<u32>(),
        t1 in any::<u32>(),
    ) {
        let g = generators::rmat_default(n, n * edges_per_vertex, seed);
        let targets = [t0 % n as u32, t1 % n as u32];
        let ego = subgraph::ego_graph(&g, &targets, hops);
        let (members, mut want_edges) = subgraph::ego_reference(&g, &targets, hops);
        // Same vertex set at the same minimum distances.
        let mut got: Vec<(u32, usize)> = ego
            .vertices
            .iter()
            .zip(&ego.hop)
            .map(|(&v, &h)| (v, h as usize))
            .collect();
        let mut want = members;
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
        // Same edge set (in original ids): rows of expanded vertices.
        let mut got_edges: Vec<(u32, u32)> = ego
            .csr
            .edge_iter()
            .map(|(s, d)| (ego.vertices[s as usize], ego.vertices[d as usize]))
            .collect();
        got_edges.sort_unstable();
        want_edges.sort_unstable();
        prop_assert_eq!(got_edges, want_edges);
        // Interior vertices (strictly inside the extraction radius) keep
        // their complete in-neighbor rows, hence exact degrees; frontier
        // rows are empty.
        prop_assert_eq!(ego.hops(), hops);
        for (local, &orig) in ego.vertices.iter().enumerate() {
            let want = if ego.row_is_complete(local) { g.degree(orig as usize) } else { 0 };
            prop_assert_eq!(ego.csr.degree(local), want);
        }
    }

    /// Statistics are internally consistent.
    #[test]
    fn stats_consistent((n, edges) in arb_edges(80, 300)) {
        let g = build(n, &edges);
        let s = GraphStats::of(&g);
        prop_assert_eq!(s.vertices, n);
        prop_assert_eq!(s.edges, g.num_edges());
        prop_assert!((0.0..=1.0).contains(&s.degree_gini) || s.edges == 0);
        prop_assert!(s.max_degree <= s.edges);
        prop_assert!((s.avg_degree - s.edges as f64 / n as f64).abs() < 1e-9);
    }
}

/// Generator sanity at a fixed seed (kept out of proptest: generators are
/// already deterministic).
#[test]
fn generators_match_requested_shapes() {
    for (n, m) in [(100usize, 300usize), (1000, 8000)] {
        let er = generators::erdos_renyi(n, m, 9);
        assert!(er.num_edges() <= m && er.num_edges() > m / 2);
        let rm = generators::rmat_default(n, m, 9);
        assert!(rm.num_edges() <= m);
        assert!(rm.max_degree() >= er.max_degree());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Edge-balanced partitioning covers every *edge* exactly once: each
    /// edge belongs to the part owning its row (destination) vertex,
    /// `part_of` agrees with the contiguous ranges, and per-part edge
    /// counts sum to `m`.
    #[test]
    fn edge_balanced_partition_tiles_edges_exactly_once(
        (n, edges) in arb_edges(120, 500),
        parts in 1usize..7,
    ) {
        let g = build(n, &edges);
        let p = partition::edge_balanced_partition(&g, parts);
        let mut per_part = vec![0usize; p.parts()];
        for (_, row) in g.edge_iter() {
            per_part[p.part_of(row)] += 1;
        }
        prop_assert_eq!(per_part.iter().sum::<usize>(), g.num_edges());
        for (i, &owned) in per_part.iter().enumerate() {
            // `part_of` and `range` describe the same tiling, so counting
            // by owner matches counting by range.
            let by_range: usize = p.range(i).map(|v| g.degree(v)).sum();
            prop_assert_eq!(owned, by_range, "part {} edge count mismatch", i);
            for v in p.range(i) {
                prop_assert_eq!(p.part_of(v as u32), i);
            }
        }
    }

    /// Reorder permutations are bijections in the strong sense: composing
    /// with the inverse permutation restores the original graph exactly.
    #[test]
    fn reorder_permutations_invert((n, edges) in arb_edges(100, 400)) {
        let g = build(n, &edges);
        for perm in [reorder::degree_descending(&g), reorder::bfs_locality(&g)] {
            prop_assert_eq!(perm.len(), n);
            let mut inverse = vec![0u32; n];
            for (old, &new) in perm.iter().enumerate() {
                inverse[new as usize] = old as u32;
            }
            let roundtrip = g.permute(&perm).permute(&inverse);
            prop_assert_eq!(roundtrip.indptr(), g.indptr());
            prop_assert_eq!(roundtrip.indices(), g.indices());
        }
    }
}
