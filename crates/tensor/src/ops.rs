//! Dense linear-algebra operations.
//!
//! These are the "regular neural network operations" of a GNN layer
//! (paper Section 2.1): the matmul that projects features — after the
//! graph convolution when a layer keeps or widens its width, before it
//! when the layer narrows (`GnnLayer`'s order rule in `tlpgnn`) — the
//! layer epilogue, and bias/sum/transpose helpers. They run on the host —
//! the paper, too, measures only the graph-convolution kernel on the GPU
//! and treats dense ops as standard. The ones a forward pass spends time
//! in (`matmul`, `epilogue`) are row-chunked over
//! [`crate::pool`] once the input is large enough to pay for the hand-off.

use crate::matrix::Matrix;
use crate::pool::{self, STREAMED_ELEMENT_WORK};

/// Rows per register tile.
const MR: usize = 4;

/// `acc += a[..R, ..k] · b[..k, ..NR]` for `R` rows of `a` (`k` wide) and
/// an `NR`-column panel of `b` (row stride `ldb`).
///
/// `acc` lives in registers across the k loop: each element is one serial
/// chain `(acc + a·b) + a·b …` in k order, multiply and add kept separate
/// (rustc never contracts them into an fma), so the result does not depend
/// on `R`, `NR` or the instruction set the body is compiled for.
#[inline(always)]
fn tile<const R: usize, const NR: usize>(
    acc: &mut [[f32; NR]; R],
    a: &[f32],
    k: usize,
    b: &[f32],
    ldb: usize,
) {
    let a_rows: [&[f32]; R] = std::array::from_fn(|r| &a[r * k..][..k]);
    for kk in 0..k {
        let b_row: &[f32; NR] = b[kk * ldb..][..NR].try_into().expect("slice of length NR");
        for r in 0..R {
            let av = a_rows[r][kk];
            for c in 0..NR {
                acc[r][c] += av * b_row[c];
            }
        }
    }
}

/// What one product reads: the left and the right operand.
struct Operands<'a> {
    a: &'a Matrix,
    b: &'a Matrix,
    /// Columns `m − m % 8 ..` of `b`, zero-padded to eight wide, so the
    /// last few outputs of each row go through the same tile as the rest
    /// instead of a strided scalar loop. Empty when `m % 8 == 0`.
    tail: Vec<f32>,
}

impl<'a> Operands<'a> {
    fn new(a: &'a Matrix, b: &'a Matrix) -> Self {
        let (k, m) = b.shape();
        let w = m % 8;
        let mut tail = vec![0.0; if w == 0 { 0 } else { k * 8 }];
        for (packed, row) in tail.chunks_mut(8).zip(b.data().chunks(m.max(1))) {
            packed[..w].copy_from_slice(&row[m - w..]);
        }
        Self { a, b, tail }
    }

    /// One `NR`-wide tile of `R` output rows starting at global row `i`:
    /// zero accumulators, k walked in order, then the first `w` columns
    /// stored at column `j0`.
    #[inline(always)]
    fn tile_rows<const R: usize, const NR: usize>(
        &self,
        i: usize,
        b_panel: &[f32],
        ldb: usize,
        out: &mut [f32],
        j0: usize,
        w: usize,
    ) {
        let (m, k) = (self.b.cols(), self.a.cols());
        let mut acc = [[0.0f32; NR]; R];
        tile::<R, NR>(&mut acc, &self.a.data()[i * k..], k, b_panel, ldb);
        for r in 0..R {
            out[r * m + j0..][..w].copy_from_slice(&acc[r][..w]);
        }
    }

    /// All columns of `R` output rows (`out` is those rows, `R·m` long).
    #[inline(always)]
    fn row_group<const R: usize>(&self, i: usize, out: &mut [f32]) {
        let m = self.b.cols();
        let b = self.b.data();
        let mut j0 = 0;
        while j0 + 16 <= m {
            self.tile_rows::<R, 16>(i, &b[j0..], m, out, j0, 16);
            j0 += 16;
        }
        if j0 + 8 <= m {
            self.tile_rows::<R, 8>(i, &b[j0..], m, out, j0, 8);
            j0 += 8;
        }
        if j0 < m {
            self.tile_rows::<R, 8>(i, &self.tail, 8, out, j0, m - j0);
        }
    }

    /// Rows `first..` of the product into `out` (whole rows).
    #[inline(always)]
    fn rows(&self, first: usize, out: &mut [f32]) {
        let m = self.b.cols();
        let mut groups = out.chunks_exact_mut(MR * m);
        let mut i = first;
        for group in &mut groups {
            self.row_group::<MR>(i, group);
            i += MR;
        }
        for row in groups.into_remainder().chunks_exact_mut(m) {
            self.row_group::<1>(i, row);
            i += 1;
        }
    }

    /// [`Self::rows`] compiled for 256-bit vectors: the same body, so the
    /// same bits, with eight lanes per multiply and per add.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn rows_avx2(&self, first: usize, out: &mut [f32]) {
        self.rows(first, out);
    }
}

#[cfg(target_arch = "x86_64")]
fn has_avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
fn has_avx2() -> bool {
    false
}

/// `a @ b` with `avx2` choosing the instantiation.
fn matmul_with(a: &Matrix, b: &Matrix, avx2: bool) -> Matrix {
    let (k, m) = b.shape();
    assert_eq!(a.cols(), k, "matmul inner dimension mismatch");
    let mut out = Matrix::zeros(a.rows(), m);
    if k == 0 {
        // An empty sum; `b` has no panels to slice.
        return out;
    }
    let operands = Operands::new(a, b);
    pool::for_each_row_block(out.data_mut(), m, k * m, |first, block| {
        #[cfg(target_arch = "x86_64")]
        if avx2 {
            // SAFETY: `avx2` is only ever true after
            // `is_x86_feature_detected!("avx2")` said so.
            return unsafe { operands.rows_avx2(first, block) };
        }
        #[cfg(not(target_arch = "x86_64"))]
        debug_assert!(!avx2, "only x86-64 has the AVX2 instantiation");
        operands.rows(first, block);
    });
    out
}

/// `a @ b` with shapes `(n, k) x (k, m) -> (n, m)`.
///
/// Every output is `((0 + a_i0·b_0j) + a_i1·b_1j) + …` in k order, on any
/// machine and any number of threads.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    matmul_with(a, b, has_avx2())
}

/// Matrix transpose.
pub fn transpose(m: &Matrix) -> Matrix {
    let (r, c) = m.shape();
    let mut out = Matrix::zeros(c, r);
    for i in 0..r {
        for j in 0..c {
            out.set(j, i, m.get(i, j));
        }
    }
    out
}

/// A GNN layer's epilogue in one pass over `m`:
/// `m = act((m + addend) + bias)`, the addend and the bias each optional
/// and `act` ReLU or the identity — per element the same additions, in
/// the same order, as the device's dense kernel.
pub fn epilogue(m: &mut Matrix, addend: Option<&Matrix>, bias: Option<&[f32]>, relu: bool) {
    let cols = m.cols();
    assert!(
        addend.is_none_or(|a| a.shape() == m.shape()),
        "addend shape mismatch"
    );
    assert!(bias.is_none_or(|b| b.len() == cols), "bias length mismatch");
    pool::for_each_row_block(
        m.data_mut(),
        cols,
        cols * STREAMED_ELEMENT_WORK,
        |first, block| {
            // One loop per term, so each vectorises on its own.
            for (i, row) in block.chunks_exact_mut(cols).enumerate() {
                if let Some(a) = addend {
                    row.iter_mut()
                        .zip(a.row(first + i))
                        .for_each(|(v, a)| *v += a);
                }
                if let Some(b) = bias {
                    row.iter_mut().zip(b).for_each(|(v, b)| *v += b);
                }
                if relu {
                    row.iter_mut().for_each(|v| *v = v.max(0.0));
                }
            }
        },
    );
}

/// Elementwise sum of two matrices.
pub fn add(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.shape(), b.shape(), "add shape mismatch");
    let mut out = a.clone();
    for (o, &v) in out.data_mut().iter_mut().zip(b.data()) {
        *o += v;
    }
    out
}

/// `a + alpha * b`, elementwise.
pub fn axpy(a: &Matrix, alpha: f32, b: &Matrix) -> Matrix {
    assert_eq!(a.shape(), b.shape(), "axpy shape mismatch");
    let mut out = a.clone();
    for (o, &v) in out.data_mut().iter_mut().zip(b.data()) {
        *o += alpha * v;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The loop `matmul` was before it was tiled (ikj order, zero skip and
    /// all), kept as the reference the tiles must match bit for bit.
    fn matmul_reference(a: &Matrix, b: &Matrix) -> Matrix {
        let m = b.cols();
        let mut out = Matrix::zeros(a.rows(), m);
        for i in 0..a.rows() {
            for (kk, &av) in a.row(i).iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                for (o, &bv) in out.row_mut(i).iter_mut().zip(b.row(kk)) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Random entries, about a third of them exact zeros of either sign
    /// (what a ReLU leaves behind, and what the old loop skipped).
    fn with_zeros(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut m = Matrix::random(rows, cols, 1.0, seed);
        for (i, v) in m.data_mut().iter_mut().enumerate() {
            match (i as u64 ^ seed) % 6 {
                0 => *v = 0.0,
                1 => *v = -0.0,
                _ => {}
            }
        }
        m
    }

    /// The generic instantiation, and the AVX2 one where it can run.
    fn instantiations() -> Vec<bool> {
        let mut all = vec![false];
        all.extend(has_avx2().then_some(true));
        all
    }

    #[test]
    fn matmul_is_bitwise_the_reference_loop() {
        for rows in [0, 1, 3, 4, 5, 9, 130] {
            for k in [0, 1, 37, 128] {
                for m in [1, 7, 8, 16, 29, 64] {
                    let seed = (rows * 1000 + k * 10 + m) as u64;
                    let a = with_zeros(rows, k, seed);
                    let b = with_zeros(k, m, seed + 1);
                    let want = bits(&matmul_reference(&a, &b));
                    for avx2 in instantiations() {
                        assert_eq!(
                            bits(&matmul_with(&a, &b, avx2)),
                            want,
                            "{rows}x{k}x{m} avx2={avx2}"
                        );
                    }
                    assert_eq!(bits(&matmul(&a, &b)), want, "{rows}x{k}x{m}");
                }
            }
        }
    }

    #[test]
    fn matmul_over_the_pool_is_bitwise_the_reference_loop() {
        // Past the work cutoff, rows not a multiple of the chunk or tile.
        let (rows, k, m) = (2101, 64, 64);
        assert!(rows * k * m >= pool::MIN_PARALLEL_WORK);
        let mut a = Matrix::random(rows, k, 1.0, 5);
        crate::activations::relu(&mut a);
        let b = Matrix::random(k, m, 1.0, 6);
        let want = bits(&matmul_reference(&a, &b));
        for avx2 in instantiations() {
            assert_eq!(bits(&matmul_with(&a, &b, avx2)), want, "avx2={avx2}");
        }
    }

    #[test]
    fn matmul_small_known() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::random(6, 6, 1.0, 1);
        let mut eye = Matrix::zeros(6, 6);
        for i in 0..6 {
            eye.set(i, i, 1.0);
        }
        assert!(matmul(&a, &eye).max_abs_diff(&a) < 1e-6);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::random(4, 7, 1.0, 2);
        assert_eq!(transpose(&transpose(&a)), a);
    }

    #[test]
    fn bias_added_to_every_row() {
        let mut m = Matrix::zeros(3, 2);
        epilogue(&mut m, None, Some(&[1.0, -1.0]), false);
        for r in 0..3 {
            assert_eq!(m.row(r), &[1.0, -1.0]);
        }
    }

    #[test]
    fn epilogue_is_the_separate_passes() {
        let m = Matrix::random(70, 9, 1.0, 3);
        let a = Matrix::random(70, 9, 1.0, 4);
        let b: Vec<f32> = (0..9).map(|c| c as f32 * 0.25 - 1.0).collect();
        for relu in [false, true] {
            let mut want = add(&m, &a);
            for r in 0..want.rows() {
                for (v, bv) in want.row_mut(r).iter_mut().zip(&b) {
                    *v += bv;
                }
            }
            if relu {
                crate::activations::relu(&mut want);
            }
            let mut got = m.clone();
            epilogue(&mut got, Some(&a), Some(&b), relu);
            assert_eq!(bits(&got), bits(&want), "relu={relu}");
        }
        let mut got = m.clone();
        epilogue(&mut got, None, None, false);
        assert_eq!(got, m);
    }

    #[test]
    fn axpy_matches_manual() {
        let a = Matrix::full(2, 2, 1.0);
        let b = Matrix::full(2, 2, 2.0);
        let c = axpy(&a, 0.5, &b);
        assert!(c.data().iter().all(|&v| (v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn empty_shapes_are_fine() {
        assert_eq!(
            matmul(&Matrix::zeros(3, 4), &Matrix::zeros(4, 0)).shape(),
            (3, 0)
        );
        assert_eq!(
            matmul(&Matrix::zeros(0, 4), &Matrix::zeros(4, 5)).shape(),
            (0, 5)
        );
        assert_eq!(
            matmul(&Matrix::full(2, 0, 1.0), &Matrix::zeros(0, 3)).data(),
            &[0.0; 6]
        );
        epilogue(
            &mut Matrix::zeros(3, 0),
            Some(&Matrix::zeros(3, 0)),
            Some(&[]),
            true,
        );
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_shape_check() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = matmul(&a, &b);
    }
}
