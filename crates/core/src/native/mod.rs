//! Native CPU engine: TLPGNN's two-level design mapped onto host threads.
//!
//! The analogy to the GPU design is direct:
//!
//! | paper (GPU)                          | here (CPU)                       |
//! |--------------------------------------|----------------------------------|
//! | warp owns a vertex                   | thread owns a vertex (row)       |
//! | 32 lanes over feature dims           | streaming/vectorizable inner loop over the contiguous feature row |
//! | no atomics (pull, private output row)| no atomics (disjoint output rows)|
//! | software task pool (Algorithm 1)     | [`tlpgnn_tensor::pool`]: persistent parked helpers plus the caller pulling chunks of rows off one atomic cursor — the same pool the dense ops of a layer run on |
//! | kernel fusion (no materialized msgs) | one pass, no edge-length buffers |
//! | dense phase fused into one launch, device buffers kept | one host pass `ops::dense` for the layer's product, self term, bias and ReLU, in place when `W` is square; the forward's large matrices reuse last forward's buffers (`Matrix::for_overwrite`/`recycle`), so a steady-state forward maps no fresh pages |
//! | latency hidden by resident warps     | software prefetch of the feature row a few edges ahead |
//! | register caching (Section 6)         | `[f32; F]` row accumulator at F ∈ {16, 32, 64}, compiled for the host's widest vectors (`ops::Isa`): the row stays in registers across the neighbour walk and is stored once; at other widths the output row, zeroed, is the accumulator |
//!
//! Only the pull design is realised here. The push and edge-centric
//! contrasts of Observation I live on the simulated device
//! (`tlpgnn_baselines`); a host-side realisation comes back with the
//! simulator-vs-hardware correlation gate that would time it (ROADMAP
//! item 15).

use crate::model::GnnModel;
use crate::oracle;
use tlpgnn_graph::Csr;
use tlpgnn_tensor::activations::leaky_relu_scalar;
use tlpgnn_tensor::ops::Isa;
use tlpgnn_tensor::{pool, Matrix};

/// First-level scheduling of vertices onto threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NativeSchedule {
    /// Static chunking: one contiguous block of vertices per thread.
    Static,
    /// Dynamic task pool (Algorithm 1) with the given chunk size.
    TaskPool {
        /// Vertices claimed per cursor pull.
        step: usize,
    },
}

/// The native engine configuration.
///
/// ```
/// use tlpgnn::{GnnModel, NativeEngine};
/// use tlpgnn_graph::generators;
/// use tlpgnn_tensor::Matrix;
/// let g = generators::rmat_default(500, 4000, 1);
/// let x = Matrix::random(500, 32, 1.0, 2);
/// let engine = NativeEngine::default(); // Algorithm-1 task pool
/// let out = engine.conv(&GnnModel::Gcn, &g, &x);
/// assert_eq!(out.shape(), (500, 32));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct NativeEngine {
    /// Vertex scheduling strategy.
    pub schedule: NativeSchedule,
    /// Most threads of the shared pool a convolution may run on (0 = all
    /// of them, i.e. the available parallelism).
    pub threads: usize,
}

impl Default for NativeEngine {
    fn default() -> Self {
        Self {
            schedule: NativeSchedule::TaskPool { step: 64 },
            threads: 0,
        }
    }
}

/// How many edges ahead of the one being accumulated a neighbour's
/// feature row is requested. A gathered row is a dependent, effectively
/// random 64·k-byte read; eight edges of accumulation is about one trip
/// to the last-level cache. With rows accumulated in registers (50k
/// vertices, 1M edges, 2 vCPUs, interleaved in one process), distances
/// 4, 8 and 16 timed within a few per cent of one another at 64 wide and
/// 32 up to 10 % slower; at 16 wide, 16 and 32 edges ran the sum models
/// 5–12 % faster than 8, a few tenths of a millisecond per conv, and GAT
/// the same at every distance.
const PREFETCH_EDGES: usize = 8;

/// Rows of `x` scored per pool chunk in [`RowComputer::new`].
const SCORE_ROWS_PER_CHUNK: usize = 1024;

/// Ask for `row`'s cache lines; changes no architectural state.
#[inline(always)]
fn prefetch_row(row: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    for line in row.chunks(16) {
        // SAFETY: a prefetch is a hint that cannot fault, and the address
        // is inside a live slice anyway.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch::<_MM_HINT_T0>(line.as_ptr().cast());
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = row;
}

/// Precomputed per-model vertex data shared by all rows.
struct RowComputer<'a> {
    model: &'a GnnModel,
    g: &'a Csr,
    x: &'a Matrix,
    norm: Vec<f32>,
    al: Vec<f32>,
    ar: Vec<f32>,
}

impl<'a> RowComputer<'a> {
    fn new(model: &'a GnnModel, g: &'a Csr, x: &'a Matrix, threads: usize) -> Self {
        let norm = match model {
            GnnModel::Gcn => oracle::gcn_norm(g),
            _ => Vec::new(),
        };
        // The oracle's projection, row-chunked: same dot product per row,
        // so the same bits as `oracle::gat_scores`.
        let project = |a: &[f32]| {
            let mut scores = vec![0.0; x.rows()];
            pool::for_each_row_chunk(
                &mut scores,
                1,
                SCORE_ROWS_PER_CHUNK,
                threads,
                |first, out| oracle::gat_project_rows(x, a, first, out),
            );
            scores
        };
        let (al, ar) = match model {
            GnnModel::Gat { params } => (project(&params.a_src), project(&params.a_dst)),
            _ => (Vec::new(), Vec::new()),
        };
        Self {
            model,
            g,
            x,
            norm,
            al,
            ar,
        }
    }

    /// `visit(u, x[u])` for every in-neighbour `u` of `v` in CSR order,
    /// each row cut to its first `width` elements (all of them: `width`
    /// is the row's, passed so that a fixed-width caller's compiler sees
    /// it), with the feature row [`PREFETCH_EDGES`] further along the edge
    /// array requested meanwhile. The lookahead runs on into the rows of
    /// the following vertices — the ones this thread's chunk visits next —
    /// so short rows are covered as well as hubs.
    #[inline(always)]
    fn for_each_neighbor(&self, v: usize, width: usize, mut visit: impl FnMut(usize, &[f32])) {
        let indices = self.g.indices();
        let indptr = self.g.indptr();
        for e in indptr[v] as usize..indptr[v + 1] as usize {
            if let Some(&ahead) = indices.get(e + PREFETCH_EDGES) {
                prefetch_row(&self.x.row(ahead as usize)[..width]);
            }
            let u = indices[e] as usize;
            visit(u, &self.x.row(u)[..width]);
        }
    }

    /// Accumulate the aggregated feature row of vertex `v` into `acc`,
    /// which must be zeroed and `x.cols()` wide.
    ///
    /// The one body of every model, generic over the accumulator: a
    /// `[f32; F]` at the widths [`Self::rows`] fixes, whose width the
    /// compiler sees, so the row stays in registers across the whole
    /// neighbour walk (the paper's register caching, Section 6); the
    /// output row itself, as a slice, at every other width. Both run the
    /// same operations in the same order, so both give the same bits, and
    /// so does every instruction set they are compiled for.
    ///
    /// GCN, GIN and Sage accumulate neighbour by neighbour in CSR order,
    /// one multiply and one add per element — the oracle's arithmetic, so
    /// their rows are bit-for-bit the oracle's at any schedule and thread
    /// count. GAT is the one kernel whose bits are its own: it takes the
    /// row's score maximum `m` first, then in a single pass computes each
    /// `p = exp(e − m)` once, accumulates `s += p` and `out += p·x[u]`,
    /// and scales the row by `1/s` at the end (the maximum contributes
    /// `p = 1`, so `s ≥ 1`; every `p ≤ 1`). That is one `exp` and no
    /// division per edge where normalising each weight first costs an
    /// `exp` and a division, and it rounds differently — within 1e-4 of
    /// the oracle, which is what every GAT check in the workspace asks.
    #[inline(always)]
    fn compute_into<A: AsMut<[f32]> + ?Sized>(&self, v: usize, acc: &mut A) {
        let out = acc.as_mut();
        let width = out.len();
        let own = &self.x.row(v)[..width];
        match self.model {
            GnnModel::Gcn => {
                let cv = self.norm[v];
                self.for_each_neighbor(v, width, |u, xu| {
                    let w = self.norm[u] * cv;
                    for (o, &xv) in out.iter_mut().zip(xu) {
                        *o += w * xv;
                    }
                });
                let sw = cv * cv;
                for (o, &xv) in out.iter_mut().zip(own) {
                    *o += sw * xv;
                }
            }
            GnnModel::Gin { eps } => {
                self.for_each_neighbor(v, width, |_, xu| {
                    for (o, &xv) in out.iter_mut().zip(xu) {
                        *o += xv;
                    }
                });
                let sw = 1.0 + eps;
                for (o, &xv) in out.iter_mut().zip(own) {
                    *o += sw * xv;
                }
            }
            GnnModel::Sage => {
                let d = self.g.degree(v);
                if d == 0 {
                    return;
                }
                let inv = 1.0 / d as f32;
                self.for_each_neighbor(v, width, |_, xu| {
                    for (o, &xv) in out.iter_mut().zip(xu) {
                        *o += inv * xv;
                    }
                });
            }
            GnnModel::Gat { params } => {
                let nbrs = self.g.neighbors(v);
                if nbrs.is_empty() {
                    return;
                }
                let arv = self.ar[v];
                let score = |u: usize| leaky_relu_scalar(self.al[u] + arv, params.slope);
                let m = nbrs
                    .iter()
                    .map(|&u| score(u as usize))
                    .fold(f32::NEG_INFINITY, f32::max);
                let mut s = 0.0f32;
                self.for_each_neighbor(v, width, |u, xu| {
                    let p = (score(u) - m).exp();
                    s += p;
                    for (o, &xv) in out.iter_mut().zip(xu) {
                        *o += p * xv;
                    }
                });
                let inv = 1.0 / s;
                for o in out.iter_mut() {
                    *o *= inv;
                }
            }
        }
    }

    /// The rows of `block`, vertices `first..`: in registers at the
    /// widths that have an array instantiation, in place at the others.
    #[inline(always)]
    fn rows(&self, first: usize, block: &mut [f32]) {
        match self.x.cols() {
            16 => self.rows_in_registers::<16>(first, block),
            32 => self.rows_in_registers::<32>(first, block),
            64 => self.rows_in_registers::<64>(first, block),
            _ => self.rows_in_place(first, block),
        }
    }

    /// The rows of `block`, vertices `first..`, each accumulated in a
    /// `[f32; F]` and stored once.
    #[inline(always)]
    fn rows_in_registers<const F: usize>(&self, first: usize, block: &mut [f32]) {
        for (i, row) in block.chunks_exact_mut(F).enumerate() {
            let mut acc = [0.0; F];
            self.compute_into(first + i, &mut acc);
            row.copy_from_slice(&acc);
        }
    }

    /// The rows of `block`, vertices `first..`, each zeroed and then
    /// accumulated where it lies.
    #[inline(always)]
    fn rows_in_place(&self, first: usize, block: &mut [f32]) {
        for (i, row) in block.chunks_exact_mut(self.x.cols()).enumerate() {
            row.fill(0.0);
            self.compute_into(first + i, row);
        }
    }
}

impl NativeEngine {
    /// Run one graph convolution on the host, atomic-free.
    pub fn conv(&self, model: &GnnModel, g: &Csr, x: &Matrix) -> Matrix {
        let _span = telemetry::span!(
            "native.conv",
            model = model.name(),
            vertices = g.num_vertices()
        );
        assert_eq!(g.num_vertices(), x.rows(), "graph/feature mismatch");
        let n = g.num_vertices();
        let f = x.cols();
        let rc = {
            let _span = telemetry::span!("native.prepare");
            RowComputer::new(model, g, x, self.threads)
        };
        let mut out = Matrix::for_overwrite(n, f);
        let _aggregate = telemetry::span!("native.aggregate");
        let step = match self.schedule {
            NativeSchedule::Static => n.div_ceil(pool::participants(self.threads)),
            NativeSchedule::TaskPool { step } => step,
        };
        // Each chunk owns its rows of `out`: no two threads share a row.
        // Every element of a row is written before any is read — stored
        // from registers, or zeroed first — as `for_overwrite` asks:
        // touching the untouched pages of a fresh allocation with a read
        // first maps the shared zero page and then replaces it on the
        // write, and every such replacement interrupts the other threads
        // of the process to flush their TLBs — on a cold buffer that
        // costs several times the aggregation itself.
        // The widest vectors hold the most of a row: 64 floats are four
        // AVX-512 registers, and all sixteen of the baseline's SSE ones.
        let isa = Isa::widest();
        pool::for_each_row_chunk(out.data_mut(), f, step, self.threads, |first, block| {
            isa.run(
                #[inline(always)]
                || rc.rows(first, block),
            );
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::GatParams;
    use crate::oracle::conv_reference;
    use tlpgnn_graph::generators;

    #[test]
    fn static_schedule_matches_oracle_all_models() {
        let g = generators::rmat_default(300, 2400, 71);
        let x = Matrix::random(300, 24, 1.0, 72);
        let e = NativeEngine {
            schedule: NativeSchedule::Static,
            threads: 0,
        };
        for model in GnnModel::all_four(24) {
            let got = e.conv(&model, &g, &x);
            let want = conv_reference(&model, &g, &x);
            assert!(got.max_abs_diff(&want) < 1e-4, "{}", model.name());
        }
    }

    #[test]
    fn task_pool_matches_oracle_all_models() {
        let g = generators::rmat_default(300, 2400, 73);
        let x = Matrix::random(300, 24, 1.0, 74);
        let e = NativeEngine {
            schedule: NativeSchedule::TaskPool { step: 16 },
            threads: 4,
        };
        for model in GnnModel::all_four(24) {
            let got = e.conv(&model, &g, &x);
            let want = conv_reference(&model, &g, &x);
            assert!(got.max_abs_diff(&want) < 1e-4, "{}", model.name());
        }
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Rows of every length around the prefetch distance — 0, 1, d−1, d,
    /// d+1 — after a hub several times longer than it, and another hub as
    /// the last row, running to the very end of the edge array.
    fn rows_around_the_prefetch_distance() -> Csr {
        let d = PREFETCH_EDGES;
        let n = 97;
        let mut degrees = vec![5 * d, 0, 1, d - 1, d, d + 1, 0, 3 * d + 1];
        degrees.extend((degrees.len()..n - 1).map(|v| v % 3));
        degrees.push(4 * d);
        let mut indptr = vec![0u32];
        let mut indices = Vec::new();
        for (v, deg) in degrees.into_iter().enumerate() {
            indices.extend((0..deg).map(|j| ((v * 31 + j * 7 + 1) % n) as u32));
            indptr.push(indices.len() as u32);
        }
        Csr::new(n, indptr, indices)
    }

    #[test]
    fn sum_models_are_bitwise_the_oracle_at_any_schedule_and_thread_count() {
        let rmat = generators::rmat_default(600, 9000, 75);
        assert!(
            rmat.max_degree() > 4 * PREFETCH_EDGES,
            "R-MAT hub too short"
        );
        for g in [
            rmat,
            rows_around_the_prefetch_distance(),
            generators::path(1),
        ] {
            // Rows in registers at 16, 32 and 64; in place at 19.
            for width in [16, 19, 32, 64] {
                let x = Matrix::random(g.num_vertices(), width, 1.0, 76);
                assert_sum_models_bitwise_the_oracle(&g, &x);
            }
        }
    }

    fn assert_sum_models_bitwise_the_oracle(g: &Csr, x: &Matrix) {
        for model in [GnnModel::Gcn, GnnModel::Gin { eps: 0.1 }, GnnModel::Sage] {
            // Atomic-free with a fixed summation order: bitwise, not
            // approximately, the serial reference.
            let want = bits(&conv_reference(&model, g, x));
            for threads in [1, 2, 4] {
                for schedule in [
                    NativeSchedule::Static,
                    NativeSchedule::TaskPool { step: 1 },
                    NativeSchedule::TaskPool { step: 7 },
                    NativeSchedule::TaskPool { step: 64 },
                ] {
                    let got = NativeEngine { schedule, threads }.conv(&model, g, x);
                    assert_eq!(
                        bits(&got),
                        want,
                        "{} width {} {schedule:?} threads {threads}",
                        model.name(),
                        x.cols()
                    );
                }
            }
        }
    }

    fn assert_gat_close(g: &Csr, x: &Matrix, params: GatParams) {
        let model = GnnModel::Gat { params };
        let want = conv_reference(&model, g, x);
        let scale = want.data().iter().fold(1.0f32, |m, v| m.max(v.abs()));
        for threads in [1, 2] {
            let got = NativeEngine {
                threads,
                ..NativeEngine::default()
            }
            .conv(&model, g, x);
            assert!(got.all_finite());
            let diff = got.max_abs_diff(&want);
            assert!(diff < 1e-4 * scale, "diff {diff} at scale {scale}");
        }
    }

    #[test]
    fn gat_single_exp_kernel_matches_oracle() {
        for g in [
            generators::rmat_default(600, 9000, 79),
            rows_around_the_prefetch_distance(),
            generators::star(300),
        ] {
            for width in [16, 24, 32, 64] {
                let x = Matrix::random(g.num_vertices(), width, 1.0, 80);
                assert_gat_close(&g, &x, GatParams::random(width, 81));
            }
        }
    }

    /// Both instantiations of the one body, each compiled for every
    /// instruction set the host runs, over every row of `g`, all four
    /// models, each into a buffer of NaN so that an element left
    /// unwritten shows: every copy bitwise the baseline in-place rows.
    fn assert_register_rows_are_the_in_place_rows<const F: usize>(g: &Csr) {
        let x = Matrix::random(g.num_vertices(), F, 1.0, 83);
        for model in GnnModel::all_four(F) {
            let rc = RowComputer::new(&model, g, &x, 1);
            let rows = |isa: Isa, in_registers: bool| {
                let mut rows = vec![f32::NAN; g.num_vertices() * F];
                isa.run(
                    #[inline(always)]
                    || match in_registers {
                        true => rc.rows_in_registers::<F>(0, &mut rows),
                        false => rc.rows_in_place(0, &mut rows),
                    },
                );
                rows.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            let want = rows(Isa::Generic, false);
            for isa in Isa::runnable() {
                for in_registers in [true, false] {
                    assert_eq!(
                        rows(isa, in_registers),
                        want,
                        "{} at width {F}, {isa:?}, in registers: {in_registers}",
                        model.name()
                    );
                }
            }
        }
    }

    #[test]
    fn register_rows_are_bitwise_the_in_place_rows() {
        for g in [
            generators::rmat_default(600, 9000, 84),
            rows_around_the_prefetch_distance(),
            generators::star(300),
        ] {
            assert_register_rows_are_the_in_place_rows::<16>(&g);
            assert_register_rows_are_the_in_place_rows::<32>(&g);
            assert_register_rows_are_the_in_place_rows::<64>(&g);
        }
    }

    #[test]
    fn gat_scores_spanning_more_than_80_underflow_to_zero_weights() {
        // Vertex 0 pulls from 1..=40; al[u] runs from 0 to 200 in steps of
        // 5, so exp(e − m) underflows to exactly 0 for most neighbours and
        // the row is a softmax over the top few — finite, no NaN.
        let g = generators::star(41);
        let mut x = Matrix::random(41, 4, 1.0, 82);
        for u in 1..41 {
            x.set(u, 0, 5.0 * u as f32);
        }
        let params = GatParams {
            a_src: vec![1.0, 0.0, 0.0, 0.0],
            a_dst: vec![0.0; 4],
            slope: 0.2,
        };
        let (al, _) = oracle::gat_scores(&x, &params);
        assert!(al[40] - al[1] > 80.0);
        assert_eq!((al[1] - al[40]).exp(), 0.0);
        assert_gat_close(&g, &x, params);
    }

    #[test]
    fn gat_on_star_graph() {
        // Hub pulls from all leaves; leaves isolated.
        let g = generators::star(64);
        let x = Matrix::random(64, 16, 1.0, 77);
        let params = GatParams::random(16, 78);
        let model = GnnModel::Gat { params };
        let e = NativeEngine::default();
        let got = e.conv(&model, &g, &x);
        let want = conv_reference(&model, &g, &x);
        assert!(got.max_abs_diff(&want) < 1e-4);
    }

    #[test]
    fn empty_feature_dim_is_fine() {
        let g = generators::path(10);
        let x = Matrix::zeros(10, 0);
        let e = NativeEngine::default();
        let out = e.conv(&GnnModel::Gin { eps: 0.0 }, &g, &x);
        assert_eq!(out.shape(), (10, 0));
    }
}
