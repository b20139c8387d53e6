//! Edge-list (COO) accumulation and conversion to CSR.
//!
//! Every CSR the crate builds from edges is a counting sort by
//! destination (count each row, then place each source in its row),
//! then a sort and deduplication of each row on `tlpgnn_tensor::pool`.
//! [`csr_from_edges`] also generates its edges on the pool, in chunks,
//! from a function of the edge index; chunks and threads never change
//! which edges there are, so they never change the graph.

use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

use tlpgnn_tensor::pool;

use crate::csr::Csr;

/// Edges per chunk handed to the pool, for a fill and for a row sort:
/// such a chunk runs far longer than the hand-off to a helper costs, and
/// a graph with fewer edges is built on the calling thread alone.
pub(crate) const CHUNK_EDGES: usize = 1 << 16;

/// Most edges [`csr_from_edges`] holds as pairs at once (32 MiB). A
/// graph with more is generated twice, a window at a time, so that its
/// pairs never sit in memory beside its CSR.
const WINDOW_EDGES: usize = 1 << 22;

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
    pub(crate) fn reserve(&mut self, n: usize) {
        self.edges.reserve(n);
    }

    /// Sort, deduplicate, and build the pull-oriented CSR (rows are
    /// destinations, entries are sorted source ids).
    pub fn build(self) -> Csr {
        self.build_chunked(CHUNK_EDGES)
    }

    fn build_chunked(self, chunk: usize) -> Csr {
        let Self {
            num_vertices,
            edges,
        } = self;
        let (indptr, indices) = counting_sort(num_vertices, |place| place(&edges));
        // The pairs are dead once every source sits in its row: free them
        // before the rows are sorted.
        drop(edges);
        finish(indptr, indices, chunk)
    }
}

/// The pull-oriented CSR over `n` vertices of the `m` directed edges
/// `edge(0) .. edge(m - 1)`: self loops dropped, duplicates merged, rows
/// sorted — what a [`GraphBuilder`] fed the same edges builds. `edge` is
/// called from any thread of the pool, and must answer the same in-range
/// pair each time it is asked.
pub(crate) fn csr_from_edges(n: usize, m: usize, edge: impl Fn(usize) -> (u32, u32) + Sync) -> Csr {
    csr_from_edges_chunked(n, m, CHUNK_EDGES, WINDOW_EDGES, edge)
}

pub(crate) fn csr_from_edges_chunked(
    n: usize,
    m: usize,
    chunk: usize,
    window: usize,
    edge: impl Fn(usize) -> (u32, u32) + Sync,
) -> Csr {
    assert!(n <= u32::MAX as usize);
    let mut pairs = vec![(0, 0); m.min(window)];
    let (indptr, indices) = if m <= window {
        fill(&mut pairs, 0, chunk, &edge);
        counting_sort(n, |place| place(&pairs))
    } else {
        counting_sort(n, |place| {
            for first in (0..m).step_by(window) {
                let pairs = &mut pairs[..window.min(m - first)];
                fill(pairs, first, chunk, &edge);
                place(pairs);
            }
        })
    };
    drop(pairs);
    finish(indptr, indices, chunk)
}

/// `pairs[k] = edge(first + k)`, in chunks on the pool.
fn fill(
    pairs: &mut [(u32, u32)],
    first: usize,
    chunk: usize,
    edge: &(impl Fn(usize) -> (u32, u32) + Sync),
) {
    let blocks: Vec<_> = pairs.chunks_mut(chunk).map(Mutex::new).collect();
    pool::for_each_chunk(blocks.len(), 1, 0, |r| {
        for b in r {
            let mut block = blocks[b].lock().expect("a block is locked only once");
            let base = first + b * chunk;
            for (k, pair) in block.iter_mut().enumerate() {
                *pair = edge(base + k);
            }
        }
    });
}

/// Counting sort by destination. `sweep(place)` hands `place` every edge
/// as consecutive slices of pairs, the same edges in the same order each
/// of the two times it is called: once to size the rows, once to drop
/// each non-loop edge's source into its destination's row. Returns the
/// row offsets and the rows, each in edge order.
fn counting_sort(
    n: usize,
    mut sweep: impl FnMut(&mut dyn FnMut(&[(u32, u32)])),
) -> (Vec<u32>, Vec<u32>) {
    let mut indptr = vec![0u32; n + 1];
    sweep(&mut |pairs| {
        for &(s, d) in pairs {
            if s != d {
                indptr[d as usize + 1] += 1;
            }
        }
    });
    for v in 0..n {
        indptr[v + 1] = indptr[v]
            .checked_add(indptr[v + 1])
            .expect("more than u32::MAX edges");
    }
    let mut cursor = indptr[..n].to_vec();
    let mut indices = vec![0u32; indptr[n] as usize];
    sweep(&mut |pairs| {
        for &(s, d) in pairs {
            if s != d {
                let slot = &mut cursor[d as usize];
                indices[*slot as usize] = s;
                *slot += 1;
            }
        }
    });
    (indptr, indices)
}

/// Sort and deduplicate every row of a scattered CSR on the pool, then
/// close the gaps the duplicates leave.
fn finish(mut indptr: Vec<u32>, mut indices: Vec<u32>, chunk: usize) -> Csr {
    let n = indptr.len() - 1;
    let kept: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    for_each_row_chunk(&indptr, &mut indices, chunk, |rows, block| {
        let base = indptr[rows.start];
        for v in rows {
            let row = &mut block[(indptr[v] - base) as usize..(indptr[v + 1] - base) as usize];
            row.sort_unstable();
            // Relaxed: read only after `for_each_row_chunk` returns, and
            // the pool hands a finished job back under a mutex, which
            // orders every chunk's stores before that return.
            kept[v].store(dedup_sorted(row) as u32, Ordering::Relaxed);
        }
    });
    let mut end = 0u32;
    for (v, kept) in kept.into_iter().enumerate() {
        let (start, len) = (indptr[v], kept.into_inner());
        indices.copy_within(start as usize..(start + len) as usize, end as usize);
        indptr[v] = end;
        end += len;
    }
    indptr[n] = end;
    // The duplicates' slots stay behind as spare capacity: shrinking the
    // buffer would reallocate it to save four bytes per duplicate.
    indices.truncate(end as usize);
    Csr::new_unchecked(n, indptr, indices)
}

/// Move the distinct values of a sorted slice to its front; their count.
fn dedup_sorted(row: &mut [u32]) -> usize {
    let mut len = 0;
    for i in 0..row.len() {
        if len == 0 || row[i] != row[len - 1] {
            row[len] = row[i];
            len += 1;
        }
    }
    len
}

/// Run `body(rows, block)` on the pool over consecutive row ranges of
/// about `chunk` entries each, where `block` is exactly the rows'
/// entries `indices[indptr[rows.start] .. indptr[rows.end]]`, held
/// exclusively.
pub(crate) fn for_each_row_chunk(
    indptr: &[u32],
    indices: &mut [u32],
    chunk: usize,
    body: impl Fn(Range<usize>, &mut [u32]) + Sync,
) {
    let n = indptr.len() - 1;
    let mut blocks = Vec::new();
    let (mut first, mut rest) = (0, indices);
    for v in 0..n {
        let len = (indptr[v + 1] - indptr[first]) as usize;
        if len >= chunk || v + 1 == n {
            let (block, tail) = rest.split_at_mut(len);
            blocks.push(Mutex::new((first..v + 1, block)));
            (first, rest) = (v + 1, tail);
        }
    }
    pool::for_each_chunk(blocks.len(), 1, 0, |r| {
        for block in &blocks[r] {
            let mut block = block.lock().expect("a block is locked only once");
            let (rows, entries) = &mut *block;
            body(rows.clone(), entries);
        }
    });
}

/// The builder this module replaced, kept as the oracle the counting
/// sort is held to: one global `(dst, src)` sort, then dedup.
#[cfg(test)]
pub(crate) mod reference {
    use crate::csr::Csr;

    pub(crate) fn build(n: usize, mut edges: Vec<(u32, u32)>) -> Csr {
        edges.retain(|&(s, d)| s != d);
        edges.sort_unstable_by_key(|&(s, d)| ((d as u64) << 32) | s as u64);
        edges.dedup();
        let mut indptr = vec![0u32; n + 1];
        for &(_, d) in &edges {
            indptr[d as usize + 1] += 1;
        }
        for i in 0..n {
            indptr[i + 1] += indptr[i];
        }
        let indices: Vec<u32> = edges.iter().map(|&(s, _)| s).collect();
        Csr::new(n, indptr, indices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    #[test]
    fn empty_graphs_build() {
        assert_eq!(GraphBuilder::new(0).build().num_vertices(), 0);
        assert_eq!(
            GraphBuilder::new(5).build(),
            Csr::new(5, vec![0; 6], vec![])
        );
    }

    /// Chunk sizes from one edge per chunk to one chunk for everything.
    const CHUNKS: [usize; 4] = [1, 7, 256, CHUNK_EDGES];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The counting sort equals the global sort on edge lists heavy
        /// in duplicates and self loops (ids drawn from a few values), fed
        /// through `add_undirected` and `extend`, at every chunk size; and
        /// the union of two halves' graphs is the whole list's graph.
        #[test]
        fn build_matches_reference(
            n in 1usize..40,
            pairs in proptest::collection::vec((0u32..40, 0u32..40), 0..300),
            undirected in proptest::collection::vec((0u32..40, 0u32..40), 0..60),
            fold in 1u32..8,
        ) {
            // `fold` shrinks the id range below `n`: few distinct values,
            // many repeats.
            let id = |v: u32| v % (n as u32).min(fold + 1);
            let directed: Vec<(u32, u32)> = pairs.iter().map(|&(s, d)| (id(s), id(d))).collect();
            let mut all = directed.clone();
            let mut b = GraphBuilder::new(n);
            b.extend(directed);
            for &(a, c) in &undirected {
                let (a, c) = (id(a), id(c));
                b.add_undirected(a, c);
                all.extend([(a, c), (c, a)]);
            }
            let (front, back) = all.split_at(all.len() / 2);
            let union = reference::build(n, front.to_vec()).union(&reference::build(n, back.to_vec()));
            let want = reference::build(n, all);
            prop_assert_eq!(union, want.clone());
            for chunk in CHUNKS {
                prop_assert_eq!(b.clone().build_chunked(chunk), want.clone(), "chunk {}", chunk);
            }
        }
    }
}
