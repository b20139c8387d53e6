//! Synthetic graph generators.
//!
//! All generators are deterministic in their seed and emit pull-oriented
//! CSR graphs via [`GraphBuilder`]. They are the stand-in for the paper's
//! real datasets: the evaluation's behaviour is driven by vertex count,
//! edge count, and degree skew, all of which these generators control.

use crate::builder::GraphBuilder;
use crate::csr::Csr;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Uniform random directed graph with ~`m` edges (G(n, m) flavour).
/// Duplicate samples are deduplicated, so the realized edge count can be
/// slightly below the requested one on dense graphs.
pub fn erdos_renyi(n: usize, m: usize, seed: u64) -> Csr {
    assert!(n >= 2, "need at least two vertices");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    b.reserve(m);
    for _ in 0..m {
        let s = rng.random_range(0..n as u32);
        let d = rng.random_range(0..n as u32);
        b.add_edge(s, d);
    }
    b.build()
}

/// Recursive-matrix (R-MAT) generator: power-law degree distribution,
/// the shape of social/web graphs like Reddit or Collab.
///
/// `(a, b, c, d)` are the standard quadrant probabilities; defaults in
/// [`rmat_default`] are the Graph500 values.
pub(crate) fn rmat(n: usize, m: usize, probs: (f64, f64, f64, f64), seed: u64) -> Csr {
    assert!(n >= 2);
    let (a, b, c, d) = probs;
    assert!(
        (a + b + c + d - 1.0).abs() < 1e-9 && a > 0.0 && b >= 0.0 && c >= 0.0 && d > 0.0,
        "R-MAT probabilities must be positive and sum to 1"
    );
    let levels = (usize::BITS - (n - 1).leading_zeros()) as usize;
    let side = 1usize << levels;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::new(n);
    builder.reserve(m);
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
        // Fold the 2^levels id space onto [0, n).
        let s = (x0 % n) as u32;
        let t = (y0 % n) as u32;
        builder.add_edge(s, t);
    }
    builder.build()
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

#[cfg(test)]
mod tests {
    use super::*;

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
