//! Streaming graph mutations: a delta overlay over a frozen base [`Csr`]
//! with epoch-versioned immutable snapshots and deterministic compaction.
//!
//! The serving tiers so far assume a frozen graph. [`DeltaGraph`] lifts
//! that: a writer appends edge/vertex insertions and feature-row updates
//! into a small **delta** held beside the immutable base CSR, and every
//! mutation bumps a monotone **epoch** counter. [`DeltaGraph::snapshot`]
//! captures the current `(base, delta, epoch)` triple as a [`GraphEpoch`]
//! — two `Arc` clones, no copying — so in-flight extractions keep reading
//! a consistent view while the writer keeps appending (the delta is
//! copy-on-write: the first mutation after a snapshot clones it, leaving
//! every outstanding snapshot untouched).
//!
//! ## Bitwise equivalence
//!
//! A snapshot's neighbor rows are the two-pointer merge of the (sorted)
//! base row and the (sorted, disjoint) delta row — exactly the row a
//! from-scratch CSR rebuild of the same edge multiset would store. Since
//! k-hop extraction is generic over [`Neighborhoods`] and depends only on
//! row visit order, `ego_graph_on(&snapshot, ..)` is **bitwise equal** to
//! `ego_graph(&materialized, ..)`, and so is everything downstream
//! (relabelling, float summation order, engine output). The same argument
//! makes [`DeltaGraph::compact`] — the in-place merge-fold of the delta
//! into a new base — equal to [`DeltaGraph::materialize`], the
//! from-scratch rebuild; `compact` asserts that equality in debug builds
//! and the property tests check it on randomized schedules.
//!
//! ## What the overlay stores
//!
//! * `extra[dst]` — new in-neighbors of `dst`, sorted, deduplicated
//!   against the merged view at insert time (the base may hold legal
//!   duplicate edges; the delta never adds more).
//! * reverse adjacency for the same edges (`rextra[src]`), kept so
//!   [`DeltaGraph::affected_within`] can walk *out*-edges forward and
//!   find every vertex whose receptive field touches a dirty vertex —
//!   the serve tier's cache-invalidation frontier.
//! * appended vertices (ids `base_n..`) and a sparse feature-row overlay.
//!   The graph crate stores feature rows as plain `Vec<f32>` keyed by
//!   vertex; dimension agreement is the embedding layer's contract (the
//!   serve tier validates it at its API boundary).

use crate::csr::Csr;
use crate::subgraph::Neighborhoods;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// The copy-on-write overlay: everything appended since the base CSR.
#[derive(Debug, Clone, Default)]
struct Delta {
    /// `dst -> sorted new in-neighbors` (disjoint from the base row).
    extra: BTreeMap<u32, Vec<u32>>,
    /// `src -> sorted new out-neighbors` (reverse of `extra`).
    rextra: BTreeMap<u32, Vec<u32>>,
    /// Total edges in `extra`.
    extra_edges: usize,
    /// Vertices appended beyond the base (ids `base_n..base_n + new`).
    new_vertices: u32,
    /// Sparse feature-row overlay (new vertices and updated rows).
    features: BTreeMap<u32, Vec<f32>>,
}

/// Two-pointer merge of a sorted base row and a sorted, disjoint delta
/// row, visiting ids in the exact order the compacted CSR row would
/// store them (base duplicates stay adjacent).
fn visit_merged(base_row: &[u32], extra_row: &[u32], f: &mut dyn FnMut(u32)) {
    let (mut i, mut j) = (0, 0);
    while i < base_row.len() && j < extra_row.len() {
        if base_row[i] <= extra_row[j] {
            f(base_row[i]);
            i += 1;
        } else {
            f(extra_row[j]);
            j += 1;
        }
    }
    for &u in &base_row[i..] {
        f(u);
    }
    for &u in &extra_row[j..] {
        f(u);
    }
}

fn merged_row_contains(base_row: &[u32], extra_row: &[u32], src: u32) -> bool {
    base_row.binary_search(&src).is_ok() || extra_row.binary_search(&src).is_ok()
}

/// A mutable graph: frozen base [`Csr`] plus a copy-on-write delta
/// overlay, with monotone epoch versioning. See the module docs.
#[derive(Debug, Clone)]
pub struct DeltaGraph {
    base: Arc<Csr>,
    /// Out-edge adjacency of `base`, built once per base so
    /// [`Self::affected_within`] never rebuilds it per mutation.
    reverse_base: Arc<Csr>,
    delta: Arc<Delta>,
    epoch: u64,
}

impl DeltaGraph {
    /// Wrap a frozen base graph; epoch starts at 0 with an empty delta.
    pub fn new(base: Csr) -> Self {
        let reverse_base = Arc::new(base.reverse());
        Self {
            base: Arc::new(base),
            reverse_base,
            delta: Arc::new(Delta::default()),
            epoch: 0,
        }
    }

    /// Current epoch: bumped by one on every successful mutation; left
    /// unchanged by [`Self::compact`] (same logical graph).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Vertices in the current view (base plus appended).
    pub fn num_vertices(&self) -> usize {
        self.base.num_vertices() + self.delta.new_vertices as usize
    }

    /// Edges in the current view (base plus delta).
    pub fn num_edges(&self) -> usize {
        self.base.num_edges() + self.delta.extra_edges
    }

    /// Edges currently held in the overlay (0 right after compaction).
    pub fn delta_edges(&self) -> usize {
        self.delta.extra_edges
    }

    /// Vertices appended since the last compaction.
    pub fn delta_vertices(&self) -> usize {
        self.delta.new_vertices as usize
    }

    /// The frozen base CSR (the whole graph right after a compaction).
    pub fn base(&self) -> &Csr {
        &self.base
    }

    /// Insert edge `src -> dst`. Returns `false` (and burns no epoch) if
    /// the merged view already holds it — the overlay never introduces
    /// duplicates beyond the base's.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    pub fn insert_edge(&mut self, src: u32, dst: u32) -> bool {
        let n = self.num_vertices();
        assert!((src as usize) < n, "edge src {src} out of range (n = {n})");
        assert!((dst as usize) < n, "edge dst {dst} out of range (n = {n})");
        let base_row = self.base_row(dst);
        let extra_row = self.delta.extra.get(&dst).map_or(&[][..], Vec::as_slice);
        if merged_row_contains(base_row, extra_row, src) {
            return false;
        }
        let delta = Arc::make_mut(&mut self.delta);
        let row = delta.extra.entry(dst).or_default();
        let at = row.binary_search(&src).unwrap_err();
        row.insert(at, src);
        let rrow = delta.rextra.entry(src).or_default();
        let rat = rrow.binary_search(&dst).unwrap_err();
        rrow.insert(rat, dst);
        delta.extra_edges += 1;
        self.epoch += 1;
        true
    }

    /// Append an isolated vertex with the given feature row; returns its
    /// id. Edges to and from it arrive via [`Self::insert_edge`].
    pub fn insert_vertex(&mut self, features: Vec<f32>) -> u32 {
        let id = self.num_vertices() as u32;
        let delta = Arc::make_mut(&mut self.delta);
        delta.new_vertices += 1;
        delta.features.insert(id, features);
        self.epoch += 1;
        id
    }

    /// Overwrite `v`'s feature row in the overlay.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn set_features(&mut self, v: u32, features: Vec<f32>) {
        let n = self.num_vertices();
        assert!((v as usize) < n, "vertex {v} out of range (n = {n})");
        Arc::make_mut(&mut self.delta).features.insert(v, features);
        self.epoch += 1;
    }

    /// Immutable snapshot of the current view — two `Arc` clones. Later
    /// mutations copy the delta on first write and leave this untouched.
    pub fn snapshot(&self) -> GraphEpoch {
        GraphEpoch {
            base: Arc::clone(&self.base),
            delta: Arc::clone(&self.delta),
            epoch: self.epoch,
            num_vertices: self.num_vertices(),
        }
    }

    /// From-scratch rebuild of the current view as a plain CSR: the full
    /// edge multiset (base duplicates preserved) re-sorted and re-packed.
    /// The oracle [`Self::compact`] must match bitwise.
    pub fn materialize(&self) -> Csr {
        self.snapshot().materialize()
    }

    /// Fold the delta into a new frozen base, in place. Deterministic
    /// merge per row; **bitwise-equivalent** to [`Self::materialize`]
    /// (asserted in debug builds). The epoch does not change: the logical
    /// graph is identical, and every result computed against it — cached
    /// rows included — remains exact. Outstanding snapshots keep their
    /// pre-compaction `(base, delta)` pair and stay consistent.
    ///
    /// The feature overlay is *not* folded (the graph crate owns no
    /// feature matrix); callers fold it with [`Self::take_feature_overlay`].
    pub fn compact(&mut self) {
        if self.delta.extra_edges == 0 && self.delta.new_vertices == 0 {
            return;
        }
        #[cfg(debug_assertions)]
        let oracle = self.materialize();
        let n = self.num_vertices();
        let base_n = self.base.num_vertices();
        let mut indptr = Vec::with_capacity(n + 1);
        indptr.push(0u32);
        let mut indices = Vec::with_capacity(self.num_edges());
        for dst in 0..n as u32 {
            let base_row = if (dst as usize) < base_n {
                self.base.neighbors(dst as usize)
            } else {
                &[]
            };
            let extra_row = self.delta.extra.get(&dst).map_or(&[][..], Vec::as_slice);
            visit_merged(base_row, extra_row, &mut |u| indices.push(u));
            indptr.push(indices.len() as u32);
        }
        let merged = Csr::new_unchecked(n, indptr, indices);
        #[cfg(debug_assertions)]
        assert_eq!(
            merged, oracle,
            "compaction diverged from from-scratch rebuild"
        );
        self.reverse_base = Arc::new(merged.reverse());
        self.base = Arc::new(merged);
        let delta = Arc::make_mut(&mut self.delta);
        delta.extra.clear();
        delta.rextra.clear();
        delta.extra_edges = 0;
        delta.new_vertices = 0;
        // Feature overlay survives compaction; the embedding owner folds
        // it via take_feature_overlay at its own pace.
    }

    /// Drain the sparse feature-row overlay (vertex id, row) so the owner
    /// of the dense feature matrix can fold it in.
    pub fn take_feature_overlay(&mut self) -> BTreeMap<u32, Vec<f32>> {
        std::mem::take(&mut Arc::make_mut(&mut self.delta).features)
    }

    /// Every vertex whose `k`-hop receptive field (following in-edges
    /// backwards, i.e. walking **out**-edges forward from the dirty set)
    /// contains a dirty vertex — the exact set whose extraction results a
    /// mutation can change. Returned sorted and deduplicated; includes
    /// the dirty vertices themselves. Computed on the *current* (post-
    /// mutation) view.
    pub fn affected_within(&self, dirty: &[u32], k: usize) -> Vec<u32> {
        let n = self.num_vertices();
        let rbase_n = self.reverse_base.num_vertices();
        let mut seen: HashSet<u32> = HashSet::new();
        let mut frontier: Vec<u32> = Vec::new();
        for &v in dirty {
            if (v as usize) < n && seen.insert(v) {
                frontier.push(v);
            }
        }
        for _ in 0..k {
            let mut next = Vec::new();
            for &v in &frontier {
                let out_base = if (v as usize) < rbase_n {
                    self.reverse_base.neighbors(v as usize)
                } else {
                    &[]
                };
                let out_extra = self.delta.rextra.get(&v).map_or(&[][..], Vec::as_slice);
                for &w in out_base.iter().chain(out_extra) {
                    if seen.insert(w) {
                        next.push(w);
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
        let mut out: Vec<u32> = seen.into_iter().collect();
        out.sort_unstable();
        out
    }

    fn base_row(&self, dst: u32) -> &[u32] {
        if (dst as usize) < self.base.num_vertices() {
            self.base.neighbors(dst as usize)
        } else {
            &[]
        }
    }
}

/// An immutable epoch-versioned snapshot of a [`DeltaGraph`]: consistent
/// neighbor rows and feature overlay for extraction while the writer
/// keeps mutating. Cheap to clone (two `Arc`s).
#[derive(Debug, Clone)]
pub struct GraphEpoch {
    base: Arc<Csr>,
    delta: Arc<Delta>,
    epoch: u64,
    num_vertices: usize,
}

impl GraphEpoch {
    /// The epoch this snapshot pinned.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Vertices in this snapshot.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Edges in this snapshot.
    pub fn num_edges(&self) -> usize {
        self.base.num_edges() + self.delta.extra_edges
    }

    /// In-degree of `v` under the merged view.
    pub fn degree(&self, v: usize) -> usize {
        assert!(v < self.num_vertices, "vertex {v} out of range");
        self.base_row(v as u32).len() + self.delta.extra.get(&(v as u32)).map_or(0, |r| r.len())
    }

    /// `v`'s merged in-neighbor row, materialized into a `Vec` (row
    /// order, same as the compacted CSR would store).
    pub fn neighbors_vec(&self, v: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.degree(v));
        self.visit_neighbors(v, &mut |u| out.push(u));
        out
    }

    /// The overlay feature row for `v`, if one was written this delta
    /// generation (new vertices always have one until folded).
    pub fn feature_row(&self, v: u32) -> Option<&[f32]> {
        self.delta.features.get(&v).map(Vec::as_slice)
    }

    /// k-hop ego extraction over this snapshot — bitwise-identical to
    /// extracting from the materialized CSR (see module docs).
    pub fn ego_graph(&self, targets: &[u32], hops: usize) -> crate::subgraph::EgoGraph {
        crate::subgraph::ego_graph_on(self, targets, hops)
    }

    /// Seeded fanout-capped extraction over this snapshot (the `Sampled`
    /// degradation rung).
    pub fn sampled_ego_graph(
        &self,
        targets: &[u32],
        hops: usize,
        fanout: usize,
        seed: u64,
    ) -> crate::subgraph::EgoGraph {
        crate::subgraph::sampled_ego_graph(self, targets, hops, fanout, seed)
    }

    /// From-scratch CSR rebuild of this snapshot's edge multiset.
    pub fn materialize(&self) -> Csr {
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(self.num_edges());
        // (dst, src) so the sort groups pull rows directly.
        edges.extend(self.base.edge_iter().map(|(src, dst)| (dst, src)));
        for (&dst, row) in &self.delta.extra {
            edges.extend(row.iter().map(|&src| (dst, src)));
        }
        edges.sort_unstable();
        let n = self.num_vertices;
        let mut counts = vec![0u32; n + 1];
        for &(dst, _) in &edges {
            counts[dst as usize + 1] += 1;
        }
        for i in 1..=n {
            counts[i] += counts[i - 1];
        }
        let indices: Vec<u32> = edges.into_iter().map(|(_, src)| src).collect();
        Csr::new_unchecked(n, counts, indices)
    }

    fn base_row(&self, dst: u32) -> &[u32] {
        if (dst as usize) < self.base.num_vertices() {
            self.base.neighbors(dst as usize)
        } else {
            &[]
        }
    }
}

impl Neighborhoods for GraphEpoch {
    fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    fn visit_neighbors(&self, v: usize, f: &mut dyn FnMut(u32)) {
        assert!(v < self.num_vertices, "vertex {v} out of range");
        visit_merged(
            self.base_row(v as u32),
            self.delta
                .extra
                .get(&(v as u32))
                .map_or(&[][..], Vec::as_slice),
            f,
        );
    }
}
