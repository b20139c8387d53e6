//! Dense linear-algebra operations.
//!
//! These are the "regular neural network operations" of a GNN layer
//! (paper Section 2.1): the matmul that projects features — before the
//! graph convolution when that saves the layer a 128-byte segment per
//! row, after it otherwise (`GnnLayer`'s order rule in `tlpgnn`) — the
//! layer's fused dense phase, and sum/transpose helpers. They run on the
//! host — the paper, too, measures only the graph-convolution kernel on
//! the GPU and treats dense ops as standard. The ones a forward pass
//! spends time in (`matmul`, `dense`) are row-chunked over
//! [`crate::pool`] once the input is large enough to pay for the hand-off,
//! write every element of a [`Matrix::for_overwrite`] buffer, and run
//! compiled for the host's widest vectors ([`Isa`], the one home of
//! instruction-set dispatch).

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

/// The right operand of a product, ready for the tiles.
struct Panels<'a> {
    b: &'a Matrix,
    /// Columns `m − m % 8 ..` of `b`, zero-padded to eight wide, so the
    /// last few outputs of each row go through the same tile as the rest
    /// instead of a strided scalar loop. Empty when `m % 8 == 0`.
    tail: Vec<f32>,
}

impl<'a> Panels<'a> {
    fn new(b: &'a Matrix) -> Self {
        let (k, m) = b.shape();
        let w = m % 8;
        let mut tail = vec![0.0; if w == 0 { 0 } else { k * 8 }];
        for (packed, row) in tail.chunks_mut(8).zip(b.data().chunks(m.max(1))) {
            packed[..w].copy_from_slice(&row[m - w..]);
        }
        Self { b, tail }
    }

    /// One `NR`-wide tile of the `R` output rows of `a`'s first `R` rows:
    /// zero accumulators, k walked in order, then the first `w` columns
    /// stored at column `j0`.
    #[inline(always)]
    fn tile_rows<const R: usize, const NR: usize>(
        &self,
        a: &[f32],
        b_panel: &[f32],
        ldb: usize,
        out: &mut [f32],
        j0: usize,
        w: usize,
    ) {
        let (k, m) = self.b.shape();
        let mut acc = [[0.0f32; NR]; R];
        tile::<R, NR>(&mut acc, a, k, b_panel, ldb);
        for r in 0..R {
            out[r * m + j0..][..w].copy_from_slice(&acc[r][..w]);
        }
    }

    /// All columns of `R` output rows (`out` is those rows, `R·m` long).
    #[inline(always)]
    fn row_group<const R: usize>(&self, a: &[f32], out: &mut [f32]) {
        let m = self.b.cols();
        let b = self.b.data();
        let mut j0 = 0;
        while j0 + 16 <= m {
            self.tile_rows::<R, 16>(a, &b[j0..], m, out, j0, 16);
            j0 += 16;
        }
        if j0 + 8 <= m {
            self.tile_rows::<R, 8>(a, &b[j0..], m, out, j0, 8);
            j0 += 8;
        }
        if j0 < m {
            self.tile_rows::<R, 8>(a, &self.tail, 8, out, j0, m - j0);
        }
    }

    /// `out = a · b` for whole rows: `a` holds the `out.len() / m` rows
    /// of the left operand that `out`'s rows come from.
    #[inline(always)]
    fn rows(&self, a: &[f32], out: &mut [f32]) {
        let (k, m) = self.b.shape();
        if k == 0 {
            // An empty sum; `b` has no panels to slice.
            out.fill(0.0);
            return;
        }
        let mut groups = out.chunks_exact_mut(MR * m);
        let mut i = 0;
        for group in &mut groups {
            self.row_group::<MR>(&a[i * k..], group);
            i += MR;
        }
        for row in groups.into_remainder().chunks_exact_mut(m) {
            self.row_group::<1>(&a[i * k..], row);
            i += 1;
        }
    }
}

/// The instruction sets the host's vector loops are compiled for: the
/// dense tile here and the native convolution's rows in `tlpgnn`. Every
/// copy runs one body, and rustc never contracts a multiply and an add
/// into an fma, so every copy gives the same bits; [`Isa::widest`] picks
/// the widest the host has, at run time. No other file names a target
/// feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// The build target's baseline.
    Generic,
    /// 256-bit vectors.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// 512-bit vectors: a 16-wide tile row, or 16 lanes of a
    /// convolution's row, in one register.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Isa {
    /// Every instruction set, narrowest first.
    const ALL: &[Isa] = &[
        Isa::Generic,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512,
    ];

    /// Whether this host has the features the set needs.
    fn runs_here(self) -> bool {
        match self {
            Isa::Generic => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
        }
    }

    /// Every instruction set this host runs, narrowest first.
    pub fn runnable() -> impl Iterator<Item = Isa> {
        Isa::ALL.iter().copied().filter(|isa| isa.runs_here())
    }

    /// The widest instruction set this host runs.
    pub fn widest() -> Isa {
        Isa::runnable().last().unwrap_or(Isa::Generic)
    }

    /// `body()` compiled for this instruction set. `body` is inlined into
    /// a function built with the set's features, and so is every
    /// `#[inline(always)]` callee of it — so `body` must itself be an
    /// `#[inline(always)]` closure, or it is left out of line and runs
    /// the baseline build, as does any other call it makes out of line.
    ///
    /// Panics if the host lacks the set's features.
    #[inline(always)]
    pub fn run<R>(self, body: impl FnOnce() -> R) -> R {
        assert!(self.runs_here(), "{self:?} is not available on this host");
        match self {
            Isa::Generic => body(),
            // SAFETY: the assert above: the host has AVX2.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => unsafe { on_avx2(body) },
            // SAFETY: the assert above: the host has AVX-512F.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => unsafe { on_avx512(body) },
        }
    }
}

/// `body()`, built for 256-bit vectors.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn on_avx2<R>(body: impl FnOnce() -> R) -> R {
    body()
}

/// `body()`, built for 512-bit vectors.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn on_avx512<R>(body: impl FnOnce() -> R) -> R {
    body()
}

/// `a @ b`, its tiles compiled for `isa`.
fn matmul_with(a: &Matrix, b: &Matrix, isa: Isa) -> Matrix {
    let (k, m) = b.shape();
    assert_eq!(a.cols(), k, "matmul inner dimension mismatch");
    let mut out = Matrix::for_overwrite(a.rows(), m);
    let panels = Panels::new(b);
    pool::for_each_row_block(out.data_mut(), m, k * m, |first, block| {
        isa.run(
            #[inline(always)]
            || panels.rows(&a.data()[first * k..], block),
        );
    });
    out
}

/// `a @ b` with shapes `(n, k) x (k, m) -> (n, m)`.
///
/// Every output is `((0 + a_i0·b_0j) + a_i1·b_1j) + …` in k order, on any
/// machine and any number of threads.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    matmul_with(a, b, Isa::widest())
}

/// Rows of [`dense`] computed per pass over a block: its scratch rows
/// stay in L1 while they are added in.
const DENSE_ROWS: usize = 32;

/// A GNN layer's dense phase in one pass over `m`'s rows — the host
/// mirror of the device's fused dense kernel:
/// `act(((m·w) + x·w_self) + bias)`, with the product by `w`, the self
/// term `(x, w_self)` and the bias each optional and `act` ReLU or the
/// identity. Each product is [`matmul`]'s chain, bit for bit, and the
/// terms are added in the order written, so the result is that of the
/// separate ops; the self term is computed a block of rows at a time and
/// never stored whole.
///
/// The result overwrites `m` when there is no `w` or a square one (each
/// block's input rows are copied aside first); otherwise it is a
/// [`Matrix::for_overwrite`] buffer and `m`'s is recycled.
pub fn dense(
    m: Matrix,
    w: Option<&Matrix>,
    self_term: Option<(&Matrix, &Matrix)>,
    bias: Option<&[f32]>,
    relu: bool,
) -> Matrix {
    dense_with(m, w, self_term, bias, relu, Isa::widest())
}

/// [`dense`], its blocks compiled for `isa`.
fn dense_with(
    m: Matrix,
    w: Option<&Matrix>,
    self_term: Option<(&Matrix, &Matrix)>,
    bias: Option<&[f32]>,
    relu: bool,
    isa: Isa,
) -> Matrix {
    let (rows, k) = m.shape();
    let cols = w.map_or(k, Matrix::cols);
    assert!(
        w.is_none_or(|w| w.rows() == k),
        "dense inner dimension mismatch"
    );
    assert!(
        self_term
            .is_none_or(|(x, ws)| x.rows() == rows && x.cols() == ws.rows() && ws.cols() == cols),
        "self term shape mismatch"
    );
    assert!(bias.is_none_or(|b| b.len() == cols), "bias length mismatch");
    let work = [w, self_term.map(|(_, ws)| ws)]
        .into_iter()
        .flatten()
        .map(|w| w.rows() * cols)
        .sum::<usize>();
    // `input` is `m` when the result needs a buffer of its own.
    let (mut out, input) = if k == cols {
        (m, None)
    } else {
        (Matrix::for_overwrite(rows, cols), Some(m))
    };
    let pass = DensePass {
        k,
        cols,
        input: input.as_ref(),
        product: w.map(Panels::new),
        self_product: self_term.map(|(x, w_self)| (x, Panels::new(w_self))),
        bias,
        relu,
    };
    pool::for_each_row_block(
        out.data_mut(),
        cols,
        work + cols * STREAMED_ELEMENT_WORK,
        |first, block| {
            isa.run(
                #[inline(always)]
                || pass.block(first, block),
            )
        },
    );
    if let Some(m) = input {
        m.recycle();
    }
    out
}

/// What every block of [`dense`] reads; a struct so that the block's
/// body can be an `#[inline(always)]` method, which [`Isa::run`] needs.
struct DensePass<'a> {
    /// Columns of `m`.
    k: usize,
    /// Columns of the result.
    cols: usize,
    /// `m`, when the result has a buffer of its own; otherwise each
    /// block's input rows are its output rows.
    input: Option<&'a Matrix>,
    product: Option<Panels<'a>>,
    self_product: Option<(&'a Matrix, Panels<'a>)>,
    bias: Option<&'a [f32]>,
    relu: bool,
}

impl DensePass<'_> {
    /// Output rows `first..`, which `block` holds, [`DENSE_ROWS`] at a
    /// time.
    #[inline(always)]
    fn block(&self, first: usize, block: &mut [f32]) {
        let (k, cols) = (self.k, self.cols);
        let mut scratch = Vec::new();
        for (i, rows_out) in block.chunks_mut(DENSE_ROWS * cols).enumerate() {
            let (first, n) = (first + i * DENSE_ROWS, rows_out.len() / cols);
            if let Some(p) = &self.product {
                let a = match self.input {
                    Some(m) => &m.data()[first * k..][..n * k],
                    None => {
                        scratch.clear();
                        scratch.extend_from_slice(rows_out);
                        &scratch[..]
                    }
                };
                p.rows(a, rows_out);
            }
            // One loop per term, so each vectorises on its own.
            if let Some((x, p)) = &self.self_product {
                let kx = x.cols();
                scratch.resize(n * cols, 0.0);
                p.rows(&x.data()[first * kx..][..n * kx], &mut scratch[..n * cols]);
                rows_out.iter_mut().zip(&scratch).for_each(|(v, s)| *v += s);
            }
            if let Some(b) = self.bias {
                for row in rows_out.chunks_exact_mut(cols) {
                    row.iter_mut().zip(b).for_each(|(v, b)| *v += b);
                }
            }
            if self.relu {
                rows_out.iter_mut().for_each(|v| *v = v.max(0.0));
            }
        }
    }
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

    /// Every instantiation this host can run.
    fn instantiations() -> Vec<Isa> {
        let all: Vec<Isa> = Isa::ALL
            .iter()
            .copied()
            .filter(|isa| isa.runs_here())
            .collect();
        assert_eq!(all.last(), Some(&Isa::widest()));
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
                    for isa in instantiations() {
                        assert_eq!(
                            bits(&matmul_with(&a, &b, isa)),
                            want,
                            "{rows}x{k}x{m} {isa:?}"
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
        for isa in instantiations() {
            assert_eq!(bits(&matmul_with(&a, &b, isa)), want, "{isa:?}");
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
        let m = dense(Matrix::zeros(3, 2), None, None, Some(&[1.0, -1.0]), false);
        for r in 0..3 {
            assert_eq!(m.row(r), &[1.0, -1.0]);
        }
    }

    /// What [`dense`] fuses, as separate ops: the product (or `m`), then
    /// `+ x·w_self`, `+ bias` and ReLU, each over the whole matrix.
    fn dense_reference(
        m: &Matrix,
        w: Option<&Matrix>,
        self_term: Option<(&Matrix, &Matrix)>,
        bias: Option<&[f32]>,
        relu: bool,
    ) -> Matrix {
        let mut want = w.map_or_else(|| m.clone(), |w| matmul(m, w));
        if let Some((x, w_self)) = self_term {
            want = add(&want, &matmul(x, w_self));
        }
        if let Some(b) = bias {
            for r in 0..want.rows() {
                want.row_mut(r).iter_mut().zip(b).for_each(|(v, b)| *v += b);
            }
        }
        if relu {
            crate::activations::relu(&mut want);
        }
        want
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The fused dense phase is bitwise `matmul` plus the explicit
        /// adds: with and without a product (square, so in place, or
        /// not), a self term and a bias, ReLU on and off, over rows that
        /// span several passes and widths with and without a tail of
        /// `m % 8` columns, down to empty inner dimensions.
        #[test]
        fn dense_is_matmul_plus_explicit_adds(
            rows in 0usize..75,
            k in 0usize..40,
            wide in 1usize..40,
            k_self in 0usize..12,
            terms in 0usize..16,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let (product, square) = (terms & 1 != 0, terms & 2 != 0);
            let (with_self, with_bias) = (terms & 4 != 0, terms & 8 != 0);
            let cols = if product && !square { wide } else { k };
            let m = with_zeros(rows, k, seed);
            let w = with_zeros(k, cols, seed ^ 1);
            let x = with_zeros(rows, k_self, seed ^ 2);
            let w_self = with_zeros(k_self, cols, seed ^ 3);
            let bias = Matrix::random(1, cols, 1.0, seed ^ 4).into_vec();
            let w = product.then_some(&w);
            let self_term = with_self.then_some((&x, &w_self));
            let bias = with_bias.then_some(&bias[..]);
            for relu in [false, true] {
                let want = dense_reference(&m, w, self_term, bias, relu);
                for isa in instantiations() {
                    let got = dense_with(m.clone(), w, self_term, bias, relu, isa);
                    proptest::prop_assert_eq!(got.shape(), want.shape());
                    proptest::prop_assert_eq!(bits(&got), bits(&want), "{:?}", isa);
                }
            }
        }
    }

    #[test]
    fn dense_over_the_pool_is_the_separate_ops() {
        // Past the work cutoff, rows not a multiple of the chunk, the
        // pass or the tile; square (in place) and narrowing products.
        let (rows, k) = (4101, 64);
        let m = with_zeros(rows, k, 7);
        let x = with_zeros(rows, k, 8);
        let bias = Matrix::random(1, 64, 1.0, 9).into_vec();
        for cols in [64, 21] {
            assert!(rows * k * cols * 2 >= pool::MIN_PARALLEL_WORK);
            let w = with_zeros(k, cols, 10);
            let w_self = with_zeros(k, cols, 11);
            let self_term = Some((&x, &w_self));
            let bias = Some(&bias[..cols]);
            let want = dense_reference(&m, Some(&w), self_term, bias, true);
            for isa in instantiations() {
                let got = dense_with(m.clone(), Some(&w), self_term, bias, true, isa);
                assert_eq!(bits(&got), bits(&want), "{k}->{cols} {isa:?}");
            }
        }
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
        let x = Matrix::zeros(3, 2);
        let out = dense(
            Matrix::zeros(3, 0),
            None,
            Some((&x, &Matrix::zeros(2, 0))),
            Some(&[]),
            true,
        );
        assert_eq!(out.shape(), (3, 0));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_shape_check() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = matmul(&a, &b);
    }
}
