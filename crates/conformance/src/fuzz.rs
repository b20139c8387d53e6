//! The seeded metamorphic fuzzer.
//!
//! Each iteration samples one point of the cross-product
//! `graph generator × model × backend × device shape`, materializes it as
//! a [`TestCase`], and runs the full invariant battery from
//! [`crate::metamorphic`]. Failures are shrunk before being reported, so
//! what lands in the corpus is already minimal.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tlpgnn_graph::{generators, Csr, DeltaGraph};

use crate::backends::Backend;
use crate::case::{ModelSpec, TestCase};
use crate::metamorphic::check_case;
use crate::shrink::shrink;
use crate::ulp::Tolerance;

/// Outcome of a fuzz run.
#[derive(Debug, Default)]
pub struct FuzzReport {
    /// Iterations executed.
    pub iterations: usize,
    /// Cases whose backend supported the sampled model (checks ran).
    pub cases_run: usize,
    /// Shrunk failing cases, with `failure` describing the broken
    /// invariant of the *original* (pre-shrink) failure.
    pub failures: Vec<TestCase>,
}

/// Deterministically sample the `i`-th case of a fuzz run. Exposed so a
/// reported case can be regenerated from `(seed, index)` alone.
fn sample_case(seed: u64, i: usize) -> TestCase {
    let mut rng = StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9e3779b97f4a7c15));
    let backends = Backend::all();
    let backend = backends[rng.random_range(0..backends.len())]
        .label()
        .to_string();
    let n = rng.random_range(2usize..=48);
    let gseed = rng.random_range(0u64..=u64::MAX / 2);
    let graph = match rng.random_range(0u32..6) {
        0 => generators::erdos_renyi(n, rng.random_range(0..=4 * n), gseed),
        1 => generators::rmat_default(n, rng.random_range(0..=4 * n), gseed),
        2 => generators::star(n),
        3 => generators::path(n),
        4 => generators::complete(n.min(24)),
        _ => mutated_graph(&mut rng, n, gseed),
    };
    let model = match rng.random_range(0u32..3) {
        0 => ModelSpec::Gcn,
        1 => ModelSpec::Gin {
            eps: rng.random_range(-0.5f32..1.5),
        },
        _ => ModelSpec::Sage,
    };
    let sms = [2usize, 4, 7][rng.random_range(0..3usize)];
    TestCase {
        name: format!("fuzz-{seed}-{i}-{backend}"),
        n: graph.num_vertices(),
        edges: graph.edge_iter().map(|(src, row)| (row, src)).collect(),
        feat_dim: rng.random_range(1usize..=40),
        feature_seed: rng.random_range(0u64..=u64::MAX / 2),
        model,
        backend,
        sms,
        failure: None,
    }
}

/// A *post-compaction* dynamic graph: a generated base plus a seeded
/// schedule of edge/vertex insertions folded back into CSR form. Every
/// backend thereby also fuzzes against graphs the streaming-mutation
/// layer produced, and each sample doubles as a compaction check (the
/// compacted base must be bitwise the from-scratch rebuild).
fn mutated_graph(rng: &mut StdRng, n: usize, gseed: u64) -> Csr {
    let base = generators::erdos_renyi(n, rng.random_range(0..=3 * n), gseed);
    let mut dg = DeltaGraph::new(base);
    for _ in 0..rng.random_range(1..=2 * n) {
        let nv = dg.num_vertices() as u32;
        match rng.random_range(0u32..4) {
            0..=2 => {
                let (src, dst) = (rng.random_range(0..nv), rng.random_range(0..nv));
                dg.insert_edge(src, dst);
            }
            _ => {
                dg.insert_vertex(Vec::new());
            }
        }
    }
    let oracle = dg.materialize();
    dg.compact();
    assert_eq!(
        dg.base(),
        &oracle,
        "compaction must be bitwise the from-scratch rebuild"
    );
    dg.base().clone()
}

/// Run `iters` seeded iterations, shrinking every failure. `progress` is
/// called after each iteration with `(index, failed_so_far)`.
pub fn fuzz_with(
    seed: u64,
    iters: usize,
    tol: &Tolerance,
    mut progress: impl FnMut(usize, usize),
) -> FuzzReport {
    let mut report = FuzzReport::default();
    for i in 0..iters {
        let mut case = sample_case(seed, i);
        report.iterations += 1;
        let supported =
            Backend::by_label(&case.backend).is_some_and(|b| b.supports(&case.model.model()));
        if supported {
            report.cases_run += 1;
        }
        if let Err(why) = check_case(&case, tol) {
            case.failure = Some(why);
            let (mut min, _) = shrink(&case, |c| check_case(c, tol).is_err());
            min.failure = case.failure.clone();
            report.failures.push(min);
        }
        progress(i, report.failures.len());
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic() {
        let a = sample_case(42, 7);
        let b = sample_case(42, 7);
        assert_eq!(a.edges, b.edges);
        assert_eq!(a.backend, b.backend);
        assert_eq!(a.feature_seed, b.feature_seed);
        assert_eq!(a.model, b.model);
    }

    #[test]
    fn different_indices_differ() {
        let a = sample_case(42, 0);
        let b = sample_case(42, 1);
        assert!(a.backend != b.backend || a.edges != b.edges || a.feature_seed != b.feature_seed);
    }

    #[test]
    fn smoke_iterations_pass() {
        let report = fuzz_with(42, 6, &Tolerance::default(), |_, _| {});
        assert_eq!(report.iterations, 6);
        assert!(
            report.failures.is_empty(),
            "conformance failures: {:?}",
            report
                .failures
                .iter()
                .map(|c| (&c.name, &c.failure))
                .collect::<Vec<_>>()
        );
    }
}
