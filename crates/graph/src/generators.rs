//! Synthetic graph generators.
//!
//! All generators are deterministic in their seed and emit pull-oriented
//! CSR graphs via [`GraphBuilder`]. They are the stand-in for the paper's
//! real datasets: the evaluation's behaviour is driven by vertex count,
//! edge count, and degree skew, all of which these generators control.
//!
//! The two that synthesize the registry's graphs, [`erdos_renyi`] and
//! R-MAT, draw from a counter-indexed stream: edge `i`'s draws are the
//! draws `StdRng::seed_from_u64(seed)` would make at its own positions
//! in the sequence, computed directly from the counter ([`draw`]), so
//! edges are generated in chunks on `tlpgnn_tensor::pool` and the graph
//! is the same bits whatever the thread count.

use crate::builder::{self, GraphBuilder};
use crate::csr::Csr;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// splitmix64's increment: the state `StdRng` adds before every draw.
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// One splitmix64 step from state `z`: advance by [`GAMMA`], then mix.
/// The crate's one splitmix — the generators' counter-indexed stream and
/// the fanout sampler's per-vertex shuffles (`subgraph`) both draw from
/// it.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// The `j`-th `next_u64` (from 0) of `StdRng::seed_from_u64(seed)`,
/// without the `j` draws before it: the generator's state before that
/// draw is `seed + (j + 1)·γ`.
pub(crate) fn draw(seed: u64, j: u64) -> u64 {
    mix64(seed.wrapping_add(j.wrapping_add(1).wrapping_mul(GAMMA)))
}

/// A draw as `random::<f64>()` makes it: 53 mantissa bits in `[0, 1)`.
fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Edge `i` of [`erdos_renyi`]: source and destination are draws `2i`
/// and `2i + 1`, each reduced modulo `n` as `random_range(0..n)` does.
fn erdos_renyi_edge(n: usize, seed: u64) -> impl Fn(usize) -> (u32, u32) + Sync {
    move |i| {
        let j = 2 * i as u64;
        let s = draw(seed, j) % n as u64;
        let d = draw(seed, j + 1) % n as u64;
        (s as u32, d as u32)
    }
}

/// Uniform random directed graph with ~`m` edges (G(n, m) flavour).
/// Duplicate samples are deduplicated, so the realized edge count can be
/// slightly below the requested one on dense graphs.
pub fn erdos_renyi(n: usize, m: usize, seed: u64) -> Csr {
    assert!(n >= 2, "need at least two vertices");
    builder::csr_from_edges(n, m, erdos_renyi_edge(n, seed))
}

/// Edge `i` of [`rmat`]: one draw per level of the recursion, draws
/// `i·levels ..`, each picking a quadrant by the same `f64` comparisons
/// against the running sums `a`, `a + b`, `a + b + c`. The quadrant's
/// two bits are the next bits of the source and destination ids.
fn rmat_edge(
    n: usize,
    probs: (f64, f64, f64, f64),
    seed: u64,
) -> impl Fn(usize) -> (u32, u32) + Sync {
    let (a, b, c, d) = probs;
    assert!(
        (a + b + c + d - 1.0).abs() < 1e-9 && a > 0.0 && b >= 0.0 && c >= 0.0 && d > 0.0,
        "R-MAT probabilities must be positive and sum to 1"
    );
    let levels = usize::BITS - (n - 1).leading_zeros();
    let (ab, abc) = (a + b, a + b + c);
    move |i| {
        let first = i as u64 * levels as u64;
        let (mut x, mut y) = (0usize, 0usize);
        for level in 0..levels as u64 {
            let r = unit_f64(draw(seed, first + level));
            // 0..=3: the quadrant `r` falls in (b or c may be empty).
            let q = (r >= a) as usize + (r >= ab) as usize + (r >= abc) as usize;
            x = (x << 1) | (q & 1);
            y = (y << 1) | (q >> 1);
        }
        // Fold the 2^levels id space, narrower than 2n, onto [0, n):
        // `x % n` without the division.
        let fold = |v: usize| (if v >= n { v - n } else { v }) as u32;
        (fold(x), fold(y))
    }
}

/// Recursive-matrix (R-MAT) generator: power-law degree distribution,
/// the shape of social/web graphs like Reddit or Collab.
///
/// `(a, b, c, d)` are the standard quadrant probabilities; defaults in
/// [`rmat_default`] are the Graph500 values.
pub(crate) fn rmat(n: usize, m: usize, probs: (f64, f64, f64, f64), seed: u64) -> Csr {
    assert!(n >= 2);
    builder::csr_from_edges(n, m, rmat_edge(n, probs, seed))
}

/// Graph500 R-MAT quadrant probabilities.
pub fn rmat_default(n: usize, m: usize, seed: u64) -> Csr {
    rmat(n, m, (0.57, 0.19, 0.19, 0.05), seed)
}

/// Ring lattice: each vertex connects to its `k` clockwise successors.
/// Perfectly regular degree — useful as a no-imbalance control.
pub fn ring_lattice(n: usize, k: usize) -> Csr {
    assert!(n > k, "k must be below n");
    let mut b = GraphBuilder::new(n);
    b.reserve(n * k);
    for v in 0..n {
        for j in 1..=k {
            b.add_edge(v as u32, ((v + j) % n) as u32);
        }
    }
    b.build()
}

/// Watts–Strogatz small world: ring lattice with each edge rewired to a
/// random target with probability `beta`.
pub fn watts_strogatz(n: usize, k: usize, beta: f64, seed: u64) -> Csr {
    assert!(n > k && (0.0..=1.0).contains(&beta));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    b.reserve(n * k);
    for v in 0..n {
        for j in 1..=k {
            let d = if rng.random::<f64>() < beta {
                rng.random_range(0..n as u32)
            } else {
                ((v + j) % n) as u32
            };
            b.add_edge(v as u32, d);
        }
    }
    b.build()
}

/// Star graph: every leaf points at the hub (vertex 0). Maximal degree
/// skew — the worst case for vertex-parallel load balance.
pub fn star(n: usize) -> Csr {
    assert!(n >= 2);
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.add_edge(v as u32, 0);
    }
    b.build()
}

/// Directed path `0 -> 1 -> ... -> n-1`.
pub fn path(n: usize) -> Csr {
    assert!(n >= 1);
    let mut b = GraphBuilder::new(n);
    for v in 0..n.saturating_sub(1) {
        b.add_edge(v as u32, v as u32 + 1);
    }
    b.build()
}

/// Complete directed graph (no self loops). Quadratic — tests only.
pub fn complete(n: usize) -> Csr {
    let mut b = GraphBuilder::new(n);
    for s in 0..n as u32 {
        for d in 0..n as u32 {
            b.add_edge(s, d);
        }
    }
    b.build()
}

/// The sequential generators the counter-indexed ones replaced, kept as
/// their oracle: one `StdRng` stream, one edge after another, into the
/// global-sort builder.
#[cfg(test)]
mod reference {
    use crate::builder::reference::build;
    use crate::csr::Csr;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    pub(crate) fn erdos_renyi(n: usize, m: usize, seed: u64) -> Csr {
        let mut rng = StdRng::seed_from_u64(seed);
        let edges = (0..m)
            .map(|_| {
                let s = rng.random_range(0..n as u32);
                let d = rng.random_range(0..n as u32);
                (s, d)
            })
            .collect();
        build(n, edges)
    }

    pub(crate) fn rmat(n: usize, m: usize, probs: (f64, f64, f64, f64), seed: u64) -> Csr {
        let (a, b, c, _) = probs;
        let levels = (usize::BITS - (n - 1).leading_zeros()) as usize;
        let side = 1usize << levels;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = Vec::with_capacity(m);
        for _ in 0..m {
            let (mut x0, mut x1, mut y0, mut y1) = (0usize, side, 0usize, side);
            for _ in 0..levels {
                let r: f64 = rng.random();
                let (mx, my) = ((x0 + x1) / 2, (y0 + y1) / 2);
                if r < a {
                    x1 = mx;
                    y1 = my;
                } else if r < a + b {
                    x0 = mx;
                    y1 = my;
                } else if r < a + b + c {
                    x1 = mx;
                    y0 = my;
                } else {
                    x0 = mx;
                    y0 = my;
                }
            }
            edges.push(((x0 % n) as u32, (y0 % n) as u32));
        }
        build(n, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{csr_from_edges_chunked, CHUNK_EDGES};
    use proptest::prelude::*;
    use rand::RngCore;

    #[test]
    fn counter_draw_is_the_streams_jth_draw() {
        for seed in [0, 42, u64::MAX, 0x9e37_79b9_7f4a_7c15] {
            let (mut u64s, mut u32s, mut f64s) = (
                StdRng::seed_from_u64(seed),
                StdRng::seed_from_u64(seed),
                StdRng::seed_from_u64(seed),
            );
            for j in 0..10_000u64 {
                let x = draw(seed, j);
                assert_eq!(x, u64s.next_u64(), "seed {seed} draw {j}");
                assert_eq!((x >> 32) as u32, u32s.next_u32(), "seed {seed} draw {j}");
                assert_eq!(unit_f64(x), f64s.random::<f64>(), "seed {seed} draw {j}");
            }
        }
    }

    /// `(chunk, window)`: chunks from one edge to one for everything,
    /// windows from every edge generated twice (a window of 100) to
    /// every edge held at once.
    const SPLITS: [(usize, usize); 4] = [
        (1, usize::MAX),
        (13, 100),
        (1000, 4096),
        (CHUNK_EDGES, 1 << 22),
    ];

    /// Skewed, Graph500, and with empty b and c quadrants.
    const PROBS: [(f64, f64, f64, f64); 3] = [
        (0.57, 0.19, 0.19, 0.05),
        (0.25, 0.25, 0.25, 0.25),
        (0.7, 0.0, 0.0, 0.3),
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The counter-indexed generators emit exactly the sequential
        /// ones' graphs: `n` from 2 (every other edge a self loop) through
        /// non-powers of two, `m` from a handful (heavy in duplicates on
        /// small `n`) to past one pool chunk, at every chunk size.
        #[test]
        fn generators_match_reference(
            n in 2usize..3000,
            m in 0usize..(CHUNK_EDGES + 5000),
            seed in any::<u64>(),
            probs in 0usize..PROBS.len(),
        ) {
            let (n, m) = if seed % 3 == 0 { (n % 9 + 2, m % 500) } else { (n, m) };
            let probs = PROBS[probs];
            let er = reference::erdos_renyi(n, m, seed);
            let rm = reference::rmat(n, m, probs, seed);
            prop_assert_eq!(erdos_renyi(n, m, seed), er.clone());
            prop_assert_eq!(rmat(n, m, probs, seed), rm.clone());
            for (chunk, window) in SPLITS {
                let er_now = csr_from_edges_chunked(n, m, chunk, window, erdos_renyi_edge(n, seed));
                let rm_now = csr_from_edges_chunked(n, m, chunk, window, rmat_edge(n, probs, seed));
                prop_assert_eq!(er_now, er.clone(), "chunk {} window {}", chunk, window);
                prop_assert_eq!(rm_now, rm.clone(), "chunk {} window {}", chunk, window);
            }
        }
    }

    #[test]
    fn registry_sizes_match_reference() {
        // One R-MAT and one uniform graph at the size the benchmarks load.
        assert_eq!(
            rmat_default(50_000, 1_000_000, 42),
            reference::rmat(50_000, 1_000_000, (0.57, 0.19, 0.19, 0.05), 42)
        );
        assert_eq!(
            erdos_renyi(50_000, 1_000_000, 43),
            reference::erdos_renyi(50_000, 1_000_000, 43)
        );
    }

    #[test]
    fn erdos_renyi_deterministic() {
        let a = erdos_renyi(100, 500, 7);
        let b = erdos_renyi(100, 500, 7);
        assert_eq!(a, b);
        let c = erdos_renyi(100, 500, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn erdos_renyi_edge_count_close() {
        let g = erdos_renyi(1000, 5000, 1);
        assert!(g.num_edges() > 4800 && g.num_edges() <= 5000);
    }

    #[test]
    fn rmat_is_skewed() {
        let er = erdos_renyi(2000, 20_000, 3);
        let rm = rmat_default(2000, 20_000, 3);
        // Power-law graphs have a much larger max degree and second moment.
        assert!(rm.max_degree() > 2 * er.max_degree());
        assert!(rm.degree_second_moment() > 2.0 * er.degree_second_moment());
    }

    #[test]
    fn ring_lattice_regular() {
        let g = ring_lattice(50, 4);
        assert_eq!(g.num_edges(), 200);
        for v in 0..50 {
            assert_eq!(g.degree(v), 4);
        }
    }

    #[test]
    fn watts_strogatz_beta_zero_is_lattice() {
        assert_eq!(watts_strogatz(40, 3, 0.0, 9), ring_lattice(40, 3));
    }

    #[test]
    fn star_hub_has_all_edges() {
        let g = star(10);
        assert_eq!(g.degree(0), 9);
        assert_eq!((1..10).map(|v| g.degree(v)).sum::<usize>(), 0);
    }

    #[test]
    fn path_degrees() {
        let g = path(5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 0);
        assert_eq!(g.degree(4), 1);
    }

    #[test]
    fn complete_has_n_squared_minus_n() {
        let g = complete(8);
        assert_eq!(g.num_edges(), 56);
    }
}
