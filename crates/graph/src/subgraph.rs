//! k-hop ego-graph extraction for online inference serving.
//!
//! An inference request names a handful of target vertices; computing
//! their outputs does not need the full graph, only the targets'
//! receptive field. [`ego_graph`] collects every vertex within `hops`
//! in-edge hops of the targets (multi-source BFS over the pull CSR),
//! relabels them densely, and keeps the rows of the vertices it expanded
//! — the small graph a serving batch actually runs
//! `conv`/`classify_forward` on.
//!
//! **One extraction.** [`ego_graph_on`] is the only traversal: it is
//! generic over a [`Neighborhoods`] row source, and every other
//! extraction is that function over a view — a frozen [`Csr`], a
//! [`crate::delta::GraphEpoch`] snapshot, the fanout-capped sample of
//! [`sampled_ego_graph`], the shard crate's store-backed
//! `distributed_ego`. Bitwise equality between them is therefore a
//! property of the rows a view serves, not of transcribed code; local
//! ids are in BFS order, so `hop` is non-decreasing in local id for all
//! of them.
//!
//! **Exactness.** A row is present iff its vertex was expanded: every
//! vertex at hop distance `< hops` carries its complete in-neighbor row,
//! and the last level discovered (hop `== hops`, the frontier) carries an
//! empty one. A hop-`h` row's layer value reads only rows at hop
//! `≤ h + 1`, and the targets' outputs need aggregation only at hop
//! `< L` for an `L`-layer network, so a model whose convolution reads
//! only destination-side structure (GIN, Sage-mean, GAT) is exact at the
//! targets with `hops = L`. GCN's symmetric normalization additionally
//! reads *source-vertex* degrees, which are complete only for expanded
//! vertices, so GCN needs `hops = L + 1` (see
//! `GnnNetwork::receptive_hops` in the `tlpgnn` crate). A shallower
//! extraction is an approximation: its frontier vertices contribute
//! their features but aggregate nothing.

use crate::csr::Csr;
use crate::generators::mix64;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Read-only neighborhood access, the minimal surface k-hop extraction
/// needs. Implemented by [`Csr`] (a frozen graph), by
/// [`crate::delta::GraphEpoch`] (an epoch snapshot of a mutating graph)
/// and by the sampled and sharded views, so the same traversal — and
/// therefore bitwise-identical extraction — runs over all of them.
///
/// Implementations must visit `v`'s in-neighbors in the row order the
/// materialized CSR would store them (ascending ids; duplicates, where
/// legal, in row order). Extraction order, and thus the relabelling and
/// the float-summation order downstream, follows visit order exactly.
pub trait Neighborhoods {
    /// Number of vertices.
    fn num_vertices(&self) -> usize;
    /// Visit `v`'s in-neighbors in row order.
    fn visit_neighbors(&self, v: usize, f: &mut dyn FnMut(u32));
    /// The rows of `vs` are about to be visited: [`ego_graph_on`] calls
    /// this once per BFS level, with that level, before expanding it.
    /// Levels are disjoint and every row the extraction reads is
    /// announced exactly once; the last level is never announced, since
    /// its rows are not read. A view whose rows live elsewhere batches
    /// its fetches here; in-memory graphs keep the no-op default.
    fn will_visit(&self, _vs: &[u32]) {}
}

impl Neighborhoods for Csr {
    fn num_vertices(&self) -> usize {
        Csr::num_vertices(self)
    }

    fn visit_neighbors(&self, v: usize, f: &mut dyn FnMut(u32)) {
        for &u in self.neighbors(v) {
            f(u);
        }
    }
}

/// A relabelled k-hop ego graph around a set of target vertices.
///
/// Local ids are assigned in BFS discovery order: the (deduplicated)
/// targets occupy locals `0..num_targets` in the order given, followed by
/// hop-1 vertices, then hop-2, and so on. Every vertex at hop `< hops()`
/// has its complete in-neighbor row (in local ids, sorted); vertices at
/// hop `== hops()` — the frontier, present only when the BFS did not
/// close early — have empty rows.
#[derive(Debug, Clone)]
pub struct EgoGraph {
    /// The extracted vertices in local ids: expanded rows, empty
    /// frontier rows.
    pub csr: Csr,
    /// `vertices[local]` is the original id of local vertex `local`.
    pub vertices: Vec<u32>,
    /// `hop[local]` is the BFS distance from the nearest target.
    pub hop: Vec<u8>,
    /// The first `num_targets` locals are the deduplicated targets.
    pub num_targets: usize,
    /// The extraction depth (capped at `u8::MAX`, the widest `hop`).
    hops: usize,
}

impl EgoGraph {
    /// Original ids of the target vertices (locals `0..num_targets`).
    pub fn targets(&self) -> &[u32] {
        &self.vertices[..self.num_targets]
    }

    /// The extraction depth this ego graph was built with — not the
    /// deepest hop reached, which is smaller when the BFS closed early.
    pub fn hops(&self) -> usize {
        self.hops
    }

    /// Whether local vertex `v` has its complete in-neighbor row: true
    /// for every expanded vertex (hop `< hops()`); frontier rows are
    /// empty.
    pub fn row_is_complete(&self, v: usize) -> bool {
        (self.hop[v] as usize) < self.hops
    }
}

/// Extract the `hops`-hop ego graph of `targets` from `g`.
///
/// Multi-source BFS over the pull CSR (each step follows in-edges, i.e.
/// expands the receptive field by one GNN layer) with dense relabelling;
/// each expanded vertex's row is emitted as it is expanded, and the
/// frontier's rows are empty. Duplicate targets are deduplicated; order
/// of first occurrence is preserved. `hops = 0` keeps only the targets,
/// with empty rows.
///
/// # Panics
/// Panics if a target id is out of range for `g`.
pub fn ego_graph(g: &Csr, targets: &[u32], hops: usize) -> EgoGraph {
    ego_graph_on(g, targets, hops)
}

/// [`ego_graph`] generalised over any [`Neighborhoods`] view — the one
/// place targets are deduplicated, the BFS runs, locals and `hop` are
/// assigned and rows are built. Running it over a
/// [`crate::delta::GraphEpoch`] produces the bitwise-identical
/// extraction the compacted/materialized CSR would: traversal order,
/// relabelling, and rows depend only on the visit order the trait
/// contract fixes. [`sampled_ego_graph`] and the shard crate's
/// `distributed_ego` are this function over their own views.
pub fn ego_graph_on<G: Neighborhoods + ?Sized>(g: &G, targets: &[u32], hops: usize) -> EgoGraph {
    let n = g.num_vertices();
    let hops = hops.min(u8::MAX as usize);
    let mut local: HashMap<u32, u32> = HashMap::with_capacity(targets.len() * 4);
    let mut vertices: Vec<u32> = Vec::with_capacity(targets.len() * 4);
    let mut hop: Vec<u8> = Vec::with_capacity(targets.len() * 4);
    for &t in targets {
        assert!((t as usize) < n, "target {t} out of range (n = {n})");
        if let Entry::Vacant(e) = local.entry(t) {
            e.insert(vertices.len() as u32);
            vertices.push(t);
            hop.push(0);
        }
    }
    let num_targets = vertices.len();
    // Level-synchronous expansion: vertices[frontier..level_end] is the
    // level being expanded; anything first seen from it belongs to the
    // next level (all targets start at level 0, so discovery depth is the
    // min distance). Levels are expanded in local-id order, so each
    // expanded vertex's row — every in-neighbor, relabelled, sorted — is
    // the next row of the CSR.
    let mut indptr = Vec::with_capacity(targets.len() * 4);
    indptr.push(0u32);
    let mut indices = Vec::new();
    let mut frontier = 0;
    for depth in 1..=hops {
        let level_end = vertices.len();
        g.will_visit(&vertices[frontier..level_end]);
        for i in frontier..level_end {
            let start = indices.len();
            g.visit_neighbors(vertices[i] as usize, &mut |u| {
                let l = match local.entry(u) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(e) => {
                        let l = vertices.len() as u32;
                        e.insert(l);
                        vertices.push(u);
                        hop.push(depth as u8);
                        l
                    }
                };
                indices.push(l);
            });
            indices[start..].sort_unstable();
            indptr.push(indices.len() as u32);
        }
        frontier = level_end;
        if vertices.len() == level_end {
            break; // closed under in-edges: every vertex was expanded
        }
    }
    // vertices[frontier..] were discovered at the last level and never
    // expanded: their rows are empty.
    indptr.resize(vertices.len() + 1, indices.len() as u32);
    EgoGraph {
        csr: Csr::new(vertices.len(), indptr, indices),
        vertices,
        hop,
        num_targets,
        hops,
    }
}

/// Deterministic fanout-capped row sample: at most `fanout` of `v`'s
/// in-neighbors, chosen by a partial Fisher-Yates shuffle seeded from
/// `(seed, v)` alone, returned **sorted**. Rows at or under the cap are
/// returned whole. Same `(g, v, fanout, seed)` → same sample, always.
fn sampled_row<G: Neighborhoods + ?Sized>(g: &G, v: usize, fanout: usize, seed: u64) -> Vec<u32> {
    let mut row = Vec::new();
    g.visit_neighbors(v, &mut |u| row.push(u));
    if row.len() <= fanout {
        return row;
    }
    let mut state = mix64(seed ^ ((v as u64).wrapping_mul(0xa076_1d64_78bd_642f)));
    for i in 0..fanout {
        state = mix64(state);
        let j = i + (state as usize) % (row.len() - i);
        row.swap(i, j);
    }
    row.truncate(fanout);
    row.sort_unstable();
    row
}

/// `g` with every row capped by [`sampled_row`]. [`ego_graph_on`] reads
/// each row once, so a draw is made once per expanded vertex.
struct Sampled<'a, G: ?Sized> {
    g: &'a G,
    fanout: usize,
    seed: u64,
}

impl<G: Neighborhoods + ?Sized> Neighborhoods for Sampled<'_, G> {
    fn num_vertices(&self) -> usize {
        self.g.num_vertices()
    }

    fn visit_neighbors(&self, v: usize, f: &mut dyn FnMut(u32)) {
        sampled_row(self.g, v, self.fanout, self.seed)
            .into_iter()
            .for_each(f);
    }
}

/// GraphSAGE-style seeded, fanout-capped ego extraction: the `Sampled`
/// degradation rung's cheap stand-in for [`ego_graph`].
///
/// This is [`ego_graph_on`] over a view of `g` whose every row is first
/// capped to at most `fanout` in-neighbors by `sampled_row`'s
/// per-vertex seeded draw. The sample is a function of `(seed, vertex)`
/// only, so the extraction is deterministic for a given
/// `(graph, targets, hops, fanout, seed)` and the extracted vertex set
/// is always a subset of the exact ego graph's.
/// Rows are *incomplete* by construction — callers must flag results as
/// degraded and must not cache them as exact.
pub fn sampled_ego_graph<G: Neighborhoods + ?Sized>(
    g: &G,
    targets: &[u32],
    hops: usize,
    fanout: usize,
    seed: u64,
) -> EgoGraph {
    ego_graph_on(&Sampled { g, fanout, seed }, targets, hops)
}

/// `(vertex, hop)` assignment produced by [`ego_reference`].
pub(crate) type RefHops = Vec<(u32, usize)>;
/// `(src, dst)` edge list (original ids) from [`ego_reference`].
pub(crate) type RefEdges = Vec<(u32, u32)>;

/// Naive reference extraction: per-vertex distances by repeated
/// relaxation, then, by `has_edge` probes, every edge between members
/// whose destination lies at distance `< hops` (frontier rows are
/// empty). Quadratic — used to cross-check [`ego_graph`] in tests.
pub fn ego_reference(g: &Csr, targets: &[u32], hops: usize) -> (RefHops, RefEdges) {
    let n = g.num_vertices();
    let mut dist = vec![usize::MAX; n];
    for &t in targets {
        dist[t as usize] = 0;
    }
    // Bellman-Ford-style relaxation over in-edges, `hops` rounds.
    for _ in 0..hops {
        let snapshot = dist.clone();
        for v in 0..n {
            if snapshot[v] == usize::MAX {
                continue;
            }
            for &u in g.neighbors(v) {
                dist[u as usize] = dist[u as usize].min(snapshot[v] + 1);
            }
        }
    }
    let members: Vec<(u32, usize)> = (0..n as u32)
        .filter(|&v| dist[v as usize] <= hops)
        .map(|v| (v, dist[v as usize]))
        .collect();
    let mut edges = Vec::new();
    for &(src, _) in &members {
        for &(dst, _) in members.iter().filter(|&&(_, d)| d < hops) {
            if g.has_edge(src, dst) {
                edges.push((src, dst));
            }
        }
    }
    (members, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn check_against_reference(g: &Csr, targets: &[u32], hops: usize) {
        let ego = ego_graph(g, targets, hops);
        let (want_members, want_edges) = ego_reference(g, targets, hops);
        // Same vertex set, each exactly once, with the same distances.
        let mut got: Vec<(u32, usize)> = ego
            .vertices
            .iter()
            .zip(&ego.hop)
            .map(|(&v, &h)| (v, h as usize))
            .collect();
        got.sort_unstable();
        assert_eq!(got, want_members, "vertex set / distances differ");
        // Same edge set, in original ids.
        let mut got_edges: Vec<(u32, u32)> = ego
            .csr
            .edge_iter()
            .map(|(s, d)| (ego.vertices[s as usize], ego.vertices[d as usize]))
            .collect();
        got_edges.sort_unstable();
        let mut want_edges = want_edges;
        want_edges.sort_unstable();
        assert_eq!(got_edges, want_edges, "edge set differs");
        // The requested depth, even where the BFS closed before it.
        assert_eq!(ego.hops(), hops);
    }

    #[test]
    fn matches_reference_on_generator_graphs() {
        let g = generators::rmat_default(300, 2400, 11);
        check_against_reference(&g, &[0, 17, 255], 2);
        check_against_reference(&g, &[42], 3);
        check_against_reference(&g, &[1, 1, 1], 1); // duplicate targets
        let ws = generators::watts_strogatz(200, 4, 0.1, 5);
        check_against_reference(&ws, &[0, 100], 2);
        // The BFS closes at vertex 0 after four levels: no frontier, so
        // every edge is kept and `hops()` is still the 6 asked for.
        check_against_reference(&generators::path(5), &[4], 6);
    }

    #[test]
    fn inner_vertices_preserve_degrees() {
        let g = generators::rmat_default(500, 5000, 13);
        let ego = ego_graph(&g, &[3, 77, 200], 2);
        assert!(ego.hop.contains(&2), "the extraction must have a frontier");
        for v in 0..ego.csr.num_vertices() {
            let want = if ego.row_is_complete(v) {
                g.degree(ego.vertices[v] as usize)
            } else {
                0
            };
            assert_eq!(
                ego.csr.degree(v),
                want,
                "vertex {v} (orig {}, hop {})",
                ego.vertices[v],
                ego.hop[v]
            );
        }
    }

    #[test]
    fn targets_keep_submission_order() {
        let g = generators::ring_lattice(50, 3);
        let ego = ego_graph(&g, &[9, 4, 9, 30], 1);
        assert_eq!(ego.targets(), &[9, 4, 30]);
        assert_eq!(ego.num_targets, 3);
        assert_eq!(&ego.hop[..3], &[0, 0, 0]);
    }

    #[test]
    fn zero_hops_keeps_only_targets() {
        // Ring lattice 0 -> 1 -> 2 ... : in(v) = {v-1, v-2}.
        let g = generators::ring_lattice(10, 2);
        let ego = ego_graph(&g, &[3, 4], 0);
        assert_eq!(ego.csr.num_vertices(), 2);
        // Nothing is expanded, so both targets are frontier rows: edge
        // 3 -> 4 is not kept although both ends were extracted.
        assert_eq!(ego.csr.num_edges(), 0);
        assert!(!ego.row_is_complete(0) && !ego.row_is_complete(1));
    }

    #[test]
    fn saturates_to_whole_component() {
        let g = generators::complete(20);
        // One hop reaches every vertex, but only the target is expanded.
        let ego = ego_graph(&g, &[0], 1);
        assert_eq!(ego.csr.num_vertices(), 20);
        assert_eq!(ego.csr.num_edges(), g.degree(0));
        // The second level discovers nothing: the BFS closes with every
        // vertex expanded, so the whole graph is kept, and extra hops add
        // nothing.
        for hops in [2, 5] {
            let closed = ego_graph(&g, &[0], hops);
            assert_eq!(closed.csr.num_vertices(), 20);
            assert_eq!(closed.csr.num_edges(), g.num_edges());
        }
    }

    #[test]
    fn empty_targets_give_empty_graph() {
        let g = generators::path(5);
        let ego = ego_graph(&g, &[], 3);
        assert_eq!(ego.csr.num_vertices(), 0);
        assert_eq!(ego.num_targets, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_target_panics() {
        let g = generators::path(5);
        let _ = ego_graph(&g, &[99], 1);
    }

    #[test]
    fn generic_traversal_is_bitwise_identical_to_csr_path() {
        let g = generators::rmat_default(400, 3600, 7);
        for (targets, hops) in [(vec![0u32, 13, 377], 2usize), (vec![5], 3), (vec![9, 9], 1)] {
            let a = ego_graph(&g, &targets, hops);
            let b = ego_graph_on(&g, &targets, hops);
            assert_eq!(a.csr, b.csr);
            assert_eq!(a.vertices, b.vertices);
            assert_eq!(a.hop, b.hop);
            assert_eq!(a.num_targets, b.num_targets);
        }
    }

    #[test]
    fn sampled_extraction_is_same_seed_deterministic() {
        let g = generators::rmat_default(300, 4800, 21);
        let a = sampled_ego_graph(&g, &[1, 40, 200], 2, 4, 0xfeed);
        let b = sampled_ego_graph(&g, &[1, 40, 200], 2, 4, 0xfeed);
        assert_eq!(a.csr, b.csr);
        assert_eq!(a.vertices, b.vertices);
        assert_eq!(a.hop, b.hop);
    }

    #[test]
    fn sampled_extraction_is_a_capped_subset_of_exact() {
        let g = generators::rmat_default(300, 4800, 22);
        let targets = [2u32, 77, 131];
        let exact = ego_graph(&g, &targets, 2);
        let sampled = sampled_ego_graph(&g, &targets, 2, 3, 99);
        let exact_set: std::collections::HashSet<u32> = exact.vertices.iter().copied().collect();
        for &v in &sampled.vertices {
            assert!(
                exact_set.contains(&v),
                "sampled vertex {v} not in exact ego"
            );
        }
        for v in 0..sampled.csr.num_vertices() {
            assert!(sampled.csr.degree(v) <= 3, "row {v} exceeds fanout cap");
        }
        assert_eq!(sampled.targets(), &targets);
    }

    #[test]
    fn sampled_extraction_with_large_fanout_equals_exact() {
        // A fanout no row exceeds makes sampling the identity.
        let g = generators::watts_strogatz(120, 4, 0.1, 9);
        let exact = ego_graph(&g, &[3, 60], 2);
        let sampled = sampled_ego_graph(&g, &[3, 60], 2, usize::MAX, 1);
        assert_eq!(exact.csr, sampled.csr);
        assert_eq!(exact.vertices, sampled.vertices);
        assert_eq!(exact.hop, sampled.hop);
    }
}
