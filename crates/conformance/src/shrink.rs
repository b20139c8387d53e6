//! Greedy shrinking of failing cases.
//!
//! A fuzz failure is only useful once it is small enough to read. The
//! shrinker repeatedly tries structure-preserving reductions — drop a
//! chunk of edges, drop the highest-numbered vertex, halve or decrement
//! the feature dimension — and keeps any reduction under which the case
//! *still fails*, until no single reduction applies. Classic
//! delta-debugging, specialized to the graph/feature shape of a case.

use crate::case::TestCase;

/// Statistics of one shrink run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShrinkStats {
    /// Reductions attempted.
    pub(crate) attempts: usize,
    /// Reductions that kept the failure and were accepted.
    pub accepted: usize,
}

/// Shrink `case` as far as greedy single reductions allow, under the
/// invariant that `fails(case)` stays true. `fails` must be true for the
/// input case; the returned case is the smallest found, renamed with a
/// `-min` suffix.
pub fn shrink(
    case: &TestCase,
    mut fails: impl FnMut(&TestCase) -> bool,
) -> (TestCase, ShrinkStats) {
    assert!(fails(case), "shrink called on a passing case");
    let mut best = case.clone();
    let mut stats = ShrinkStats::default();
    loop {
        let mut improved = false;
        for candidate in reductions(&best) {
            stats.attempts += 1;
            if fails(&candidate) {
                best = candidate;
                stats.accepted += 1;
                improved = true;
                break;
            }
        }
        if !improved {
            break;
        }
    }
    if !best.name.ends_with("-min") {
        best.name.push_str("-min");
    }
    (best, stats)
}

/// Candidate one-step reductions, biggest first so accepted steps make
/// maximal progress.
fn reductions(case: &TestCase) -> Vec<TestCase> {
    let mut out = Vec::new();
    let m = case.edges.len();

    // Drop a contiguous chunk of edges: halves, then quarters, then
    // single edges (bounded so tiny cases enumerate every edge).
    let mut chunks = vec![m / 2, m / 4];
    if m <= 64 {
        chunks.push(1);
    }
    for chunk in chunks {
        if chunk == 0 {
            continue;
        }
        let mut start = 0;
        while start < m {
            let mut c = case.clone();
            c.edges.drain(start..(start + chunk).min(m));
            out.push(c);
            start += chunk;
        }
    }

    // Drop the last vertex (and all edges touching it).
    if case.n > 1 {
        let last = (case.n - 1) as u32;
        let mut c = case.clone();
        c.n -= 1;
        c.edges.retain(|&(v, u)| v != last && u != last);
        out.push(c);
    }

    // Shrink the feature dimension.
    if case.feat_dim > 1 {
        let mut half = case.clone();
        half.feat_dim = case.feat_dim / 2;
        out.push(half);
        let mut dec = case.clone();
        dec.feat_dim -= 1;
        out.push(dec);
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::ModelSpec;

    fn big_case() -> TestCase {
        TestCase {
            name: "big".into(),
            n: 20,
            edges: (0..20u32)
                .flat_map(|v| (0..20u32).map(move |u| (v, u)))
                .collect(),
            feat_dim: 32,
            feature_seed: 3,
            model: ModelSpec::Gcn,
            backend: "thread_per_vertex".into(),
            sms: 4,
            failure: None,
        }
    }

    #[test]
    fn shrinks_to_the_triggering_edge() {
        // "Fails" whenever the edge (7, 3) is present: the minimum is one
        // vertex more than the endpoints, one edge, one feature dim.
        let (min, stats) = shrink(&big_case(), |c| c.edges.contains(&(7, 3)));
        assert_eq!(min.edges, vec![(7, 3)]);
        assert_eq!(min.n, 8);
        assert_eq!(min.feat_dim, 1);
        assert!(stats.accepted > 0);
        assert!(min.name.ends_with("-min"));
    }

    #[test]
    fn shrinks_a_vertex_count_trigger() {
        let (min, _) = shrink(&big_case(), |c| c.n >= 13);
        assert_eq!(min.n, 13);
        assert!(min.edges.is_empty());
    }

    #[test]
    #[should_panic(expected = "passing case")]
    fn rejects_passing_input() {
        shrink(&big_case(), |_| false);
    }
}
