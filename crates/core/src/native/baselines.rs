//! Native (host) reference baselines with real atomics.
//!
//! These are the CPU analogues of the paper's Table 1 contenders:
//!
//! * [`push_conv`] — every source scatters its feature into each
//!   out-neighbor's row with atomic adds (push updating policy);
//! * [`edge_centric_conv`] — the flat edge list is streamed, each edge
//!   atomically accumulating into its destination row (X-Stream style);
//! * [`pull_serial_conv`] — pull, the atomic-free lower bound.
//!
//! All three run on the calling thread: what the comparison isolates is
//! the per-update price of the policy — a compare-exchange loop per
//! scattered float against a plain add — not contention, so results are
//! deterministic. They compute plain neighbor sums (GIN with ε = 0, i.e.
//! sum aggregation *without* the self term) so the atomic-vs-atomic-free
//! comparison is isolated from model details. All are oracle-checked.

use std::sync::atomic::{AtomicU32, Ordering};
use tlpgnn_graph::Csr;
use tlpgnn_tensor::Matrix;

/// Atomic f32 add on a bit-cast `AtomicU32` cell.
#[inline]
fn atomic_add_f32(cell: &AtomicU32, val: f32) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let new = (f32::from_bits(cur) + val).to_bits();
        match cell.compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

fn atomic_output(n: usize, f: usize) -> Vec<AtomicU32> {
    (0..n * f).map(|_| AtomicU32::new(0)).collect()
}

fn into_matrix(n: usize, f: usize, cells: Vec<AtomicU32>) -> Matrix {
    Matrix::from_vec(
        n,
        f,
        cells
            .into_iter()
            .map(|c| f32::from_bits(c.into_inner()))
            .collect(),
    )
}

/// Push policy: each source scatters its feature row to all
/// out-neighbors with atomic adds.
///
/// `out_csr` must be the **push orientation** (row `u` lists the vertices
/// `u` sends to), i.e. `pull_csr.reverse()`; pass it precomputed so the
/// transpose cost is not timed.
pub fn push_conv(out_csr: &Csr, x: &Matrix) -> Matrix {
    let n = out_csr.num_vertices();
    let f = x.cols();
    assert_eq!(n, x.rows());
    let out = atomic_output(n, f);
    (0..n).for_each(|u| {
        let row = x.row(u);
        for &v in out_csr.neighbors(u) {
            let base = v as usize * f;
            for (d, &xv) in row.iter().enumerate() {
                atomic_add_f32(&out[base + d], xv);
            }
        }
    });
    into_matrix(n, f, out)
}

/// Edge-centric: over the flat edge list; each edge atomically
/// accumulates the source row into the destination row.
pub fn edge_centric_conv(pull_csr: &Csr, x: &Matrix) -> Matrix {
    let n = pull_csr.num_vertices();
    let f = x.cols();
    assert_eq!(n, x.rows());
    let out = atomic_output(n, f);
    // Materialize (dst per edge) once: edge-centric systems stream COO.
    let dsts: Vec<u32> = (0..n)
        .flat_map(|v| std::iter::repeat_n(v as u32, pull_csr.degree(v)))
        .collect();
    pull_csr
        .indices()
        .iter()
        .zip(dsts.iter())
        .for_each(|(&src, &dst)| {
            let row = x.row(src as usize);
            let base = dst as usize * f;
            for (d, &xv) in row.iter().enumerate() {
                atomic_add_f32(&out[base + d], xv);
            }
        });
    into_matrix(n, f, out)
}

/// Serial pull: the straightforward gather.
pub fn pull_serial_conv(pull_csr: &Csr, x: &Matrix) -> Matrix {
    let n = pull_csr.num_vertices();
    let f = x.cols();
    let mut out = Matrix::zeros(n, f);
    for v in 0..n {
        let row = out.row_mut(v);
        for &u in pull_csr.neighbors(v) {
            for (o, &xv) in row.iter_mut().zip(x.row(u as usize)) {
                *o += xv;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlpgnn_graph::generators;

    fn plain_sum_reference(g: &Csr, x: &Matrix) -> Matrix {
        pull_serial_conv(g, x)
    }

    #[test]
    fn push_matches_pull() {
        let g = generators::rmat_default(200, 1500, 81);
        let x = Matrix::random(200, 16, 1.0, 82);
        let want = plain_sum_reference(&g, &x);
        let got = push_conv(&g.reverse(), &x);
        assert!(got.max_abs_diff(&want) < 1e-3);
    }

    #[test]
    fn edge_centric_matches_pull() {
        let g = generators::rmat_default(200, 1500, 83);
        let x = Matrix::random(200, 16, 1.0, 84);
        let want = plain_sum_reference(&g, &x);
        let got = edge_centric_conv(&g, &x);
        assert!(got.max_abs_diff(&want) < 1e-3);
    }

    #[test]
    fn all_agree_on_star() {
        let g = generators::star(50);
        let x = Matrix::random(50, 8, 1.0, 85);
        let pull = pull_serial_conv(&g, &x);
        let push = push_conv(&g.reverse(), &x);
        let edge = edge_centric_conv(&g, &x);
        assert!(pull.max_abs_diff(&push) < 1e-3);
        assert!(pull.max_abs_diff(&edge) < 1e-3);
        // Hub row equals sum of all leaf rows.
        let mut want = vec![0.0f32; 8];
        for u in 1..50 {
            for (w, &xv) in want.iter_mut().zip(x.row(u)) {
                *w += xv;
            }
        }
        for (a, b) in pull.row(0).iter().zip(&want) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn empty_graph_all_zero() {
        let g = generators::path(1); // no edges
        let x = Matrix::random(1, 4, 1.0, 86);
        assert_eq!(pull_serial_conv(&g, &x).data(), &[0.0; 4]);
        assert_eq!(edge_centric_conv(&g, &x).data(), &[0.0; 4]);
    }
}
