//! k-hop ego-graph extraction for online inference serving.
//!
//! An inference request names a handful of target vertices; computing
//! their outputs does not need the full graph, only the targets'
//! receptive field. [`ego_graph`] collects every vertex within `hops`
//! in-edge hops of the targets (multi-source BFS over the pull CSR),
//! relabels them densely, and builds the induced CSR — the small graph a
//! serving batch actually runs `conv`/`layer_forward` on.
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
//! **Exactness.** Rows of the induced CSR are complete for every vertex
//! at hop distance `< hops` (all its in-neighbors are inside the
//! extraction), so an `L`-layer model whose convolution reads only
//! destination-side structure (GIN, Sage-mean, GAT) is exact at the
//! targets with `hops = L`. GCN's symmetric normalization additionally
//! reads *source-vertex* degrees, which are truncated on the frontier, so
//! GCN needs `hops = L + 1` (see `GnnNetwork::receptive_hops` in the
//! `tlpgnn` crate).

use crate::csr::Csr;
use std::cell::RefCell;
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
    /// this with each BFS frontier before expanding it, and once more
    /// with every extracted vertex before the induced-row pass. A view
    /// whose rows live elsewhere batches its fetches here; in-memory
    /// graphs keep the no-op default.
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
/// hop-1 vertices, then hop-2, and so on.
#[derive(Debug, Clone)]
pub struct EgoGraph {
    /// The induced subgraph over the extracted vertices, in local ids.
    pub csr: Csr,
    /// `vertices[local]` is the original id of local vertex `local`.
    pub vertices: Vec<u32>,
    /// `hop[local]` is the BFS distance from the nearest target.
    pub hop: Vec<u8>,
    /// The first `num_targets` locals are the deduplicated targets.
    pub num_targets: usize,
}

impl EgoGraph {
    /// Original ids of the target vertices (locals `0..num_targets`).
    pub fn targets(&self) -> &[u32] {
        &self.vertices[..self.num_targets]
    }

    /// The extraction depth this ego graph was built with.
    pub fn hops(&self) -> usize {
        self.hop.iter().copied().max().unwrap_or(0) as usize
    }

    /// Whether local vertex `v` has its complete in-neighbor row (true
    /// for every vertex strictly inside the extraction radius; frontier
    /// rows may be truncated).
    pub fn row_is_complete(&self, v: usize, hops: usize) -> bool {
        (self.hop[v] as usize) < hops
    }
}

/// Extract the `hops`-hop ego graph of `targets` from `g`.
///
/// Multi-source BFS over the pull CSR (each step follows in-edges, i.e.
/// expands the receptive field by one GNN layer), then an induced-CSR
/// build with dense relabelling. Duplicate targets are deduplicated;
/// order of first occurrence is preserved. `hops = 0` keeps only the
/// targets and any edges among them.
///
/// # Panics
/// Panics if a target id is out of range for `g`.
pub fn ego_graph(g: &Csr, targets: &[u32], hops: usize) -> EgoGraph {
    ego_graph_on(g, targets, hops)
}

/// [`ego_graph`] generalised over any [`Neighborhoods`] view — the one
/// place targets are deduplicated, the BFS runs, locals and `hop` are
/// assigned and induced rows are built. Running it over a
/// [`crate::delta::GraphEpoch`] produces the bitwise-identical
/// extraction the compacted/materialized CSR would: traversal order,
/// relabelling, and induced rows depend only on the visit order the trait
/// contract fixes. [`sampled_ego_graph`] and the shard crate's
/// `distributed_ego` are this function over their own views.
pub fn ego_graph_on<G: Neighborhoods + ?Sized>(g: &G, targets: &[u32], hops: usize) -> EgoGraph {
    let n = g.num_vertices();
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
    // Level-synchronous expansion: vertices[frontier..] is the previous
    // level; anything first seen from it belongs to the next level (all
    // targets start at level 0, so discovery depth is the min distance).
    let mut frontier = 0;
    for depth in 1..=hops.min(u8::MAX as usize) {
        let level_end = vertices.len();
        g.will_visit(&vertices[frontier..level_end]);
        for i in frontier..level_end {
            let v = vertices[i] as usize;
            g.visit_neighbors(v, &mut |u| {
                if let Entry::Vacant(e) = local.entry(u) {
                    e.insert(vertices.len() as u32);
                    vertices.push(u);
                    hop.push(depth as u8);
                }
            });
        }
        if vertices.len() == level_end {
            break; // closed under in-edges already
        }
        frontier = level_end;
    }
    // Induced CSR: keep each extracted vertex's in-edges whose source was
    // also extracted, relabelled to local ids. Rows stay sorted.
    g.will_visit(&vertices);
    let mut indptr = Vec::with_capacity(vertices.len() + 1);
    indptr.push(0u32);
    let mut indices = Vec::new();
    for &orig in &vertices {
        let start = indices.len();
        g.visit_neighbors(orig as usize, &mut |u| {
            if let Some(&l) = local.get(&u) {
                indices.push(l);
            }
        });
        indices[start..].sort_unstable();
        indptr.push(indices.len() as u32);
    }
    EgoGraph {
        csr: Csr::new(vertices.len(), indptr, indices),
        vertices,
        hop,
        num_targets,
    }
}

/// splitmix64 — the statelessly seeded mixer the generators use; local
/// copy so sampling stays self-contained.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
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

/// `g` with every row capped by [`sampled_row`]. Draws are memoised per
/// vertex: the expansion pass and the induced-row pass of
/// [`ego_graph_on`] must see the same sample.
struct Sampled<'a, G: ?Sized> {
    g: &'a G,
    fanout: usize,
    seed: u64,
    chosen: RefCell<HashMap<u32, Vec<u32>>>,
}

impl<G: Neighborhoods + ?Sized> Neighborhoods for Sampled<'_, G> {
    fn num_vertices(&self) -> usize {
        self.g.num_vertices()
    }

    fn visit_neighbors(&self, v: usize, f: &mut dyn FnMut(u32)) {
        let mut chosen = self.chosen.borrow_mut();
        let row = chosen
            .entry(v as u32)
            .or_insert_with(|| sampled_row(self.g, v, self.fanout, self.seed));
        row.iter().copied().for_each(f);
    }
}

/// GraphSAGE-style seeded, fanout-capped ego extraction: the `Sampled`
/// degradation rung's cheap stand-in for [`ego_graph`].
///
/// This is [`ego_graph_on`] over a view of `g` whose every row is first
/// capped to at most `fanout` in-neighbors by [`sampled_row`]'s
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
    let view = Sampled {
        g,
        fanout,
        seed,
        chosen: RefCell::new(HashMap::new()),
    };
    ego_graph_on(&view, targets, hops)
}

/// `(vertex, hop)` assignment produced by [`ego_reference`].
pub type RefHops = Vec<(u32, usize)>;
/// `(dst, src)` induced edge list (original ids) from [`ego_reference`].
pub type RefEdges = Vec<(u32, u32)>;

/// Naive reference extraction: per-vertex distances by repeated
/// relaxation, induced edges by `has_edge` probes. Quadratic — used to
/// cross-check [`ego_graph`] in tests.
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
        for &(dst, _) in &members {
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
        // Same induced edge set, in original ids.
        let mut got_edges: Vec<(u32, u32)> = ego
            .csr
            .edge_iter()
            .map(|(s, d)| (ego.vertices[s as usize], ego.vertices[d as usize]))
            .collect();
        got_edges.sort_unstable();
        let mut want_edges = want_edges;
        want_edges.sort_unstable();
        assert_eq!(got_edges, want_edges, "induced edge set differs");
    }

    #[test]
    fn matches_reference_on_generator_graphs() {
        let g = generators::rmat_default(300, 2400, 11);
        check_against_reference(&g, &[0, 17, 255], 2);
        check_against_reference(&g, &[42], 3);
        check_against_reference(&g, &[1, 1, 1], 1); // duplicate targets
        let ws = generators::watts_strogatz(200, 4, 0.1, 5);
        check_against_reference(&ws, &[0, 100], 2);
    }

    #[test]
    fn inner_vertices_preserve_degrees() {
        let g = generators::rmat_default(500, 5000, 13);
        let hops = 2;
        let ego = ego_graph(&g, &[3, 77, 200], hops);
        for v in 0..ego.csr.num_vertices() {
            if ego.row_is_complete(v, hops) {
                assert_eq!(
                    ego.csr.degree(v),
                    g.degree(ego.vertices[v] as usize),
                    "inner vertex {v} (orig {}) lost in-edges",
                    ego.vertices[v]
                );
            } else {
                assert!(ego.csr.degree(v) <= g.degree(ego.vertices[v] as usize));
            }
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
        // Edge 3 -> 4 survives (3 is an in-neighbor of 4), nothing else.
        assert_eq!(ego.csr.num_edges(), 1);
        assert!(ego.csr.has_edge(0, 1)); // local 0 = vertex 3, local 1 = 4
    }

    #[test]
    fn saturates_to_whole_component() {
        let g = generators::complete(20);
        let ego = ego_graph(&g, &[0], 1);
        assert_eq!(ego.csr.num_vertices(), 20);
        assert_eq!(ego.csr.num_edges(), g.num_edges());
        // Extra hops add nothing once closed.
        let ego5 = ego_graph(&g, &[0], 5);
        assert_eq!(ego5.csr.num_vertices(), 20);
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
