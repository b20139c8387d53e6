//! The conformance checks: one differential oracle check plus the
//! metamorphic invariants that need no oracle at all.
//!
//! * **Oracle** — output matches `tlpgnn::oracle::conv_reference` within a
//!   ULP-bounded tolerance.
//! * **Permutation equivariance** — relabeling vertices permutes the
//!   output rows and changes nothing else (within tolerance: neighbor
//!   lists are re-sorted, which reorders the float sums).
//! * **Repeat determinism** — re-running the same launch on the same
//!   device shape is bitwise identical and reports identical cycle counts.
//! * **Device determinism** — for atomic-free backends, changing the SM
//!   count (which reshuffles block placement) must not change a single
//!   output bit.
//! * **Linearity** — the sum-family models are linear in the features, and
//!   scaling by a power of two is exact in IEEE-754, so `conv(g, 2x)` must
//!   equal `2 · conv(g, x)` bitwise.
//! * **Accounting conservation** — the simulator's launch ledger must obey
//!   the laws documented on [`gpu_sim::Accounting`] (sectors ≥ requests,
//!   per-SM schedule sums match the kernel's blocks and warp totals).
//! * **Sampled extraction** — the serving tier's seeded fanout-capped
//!   neighbor sampler is same-seed deterministic, and its draw is a
//!   capped sub-multiset of the exact ego graph.

use gpu_sim::KernelProfile;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tlpgnn::oracle::conv_reference;
use tlpgnn_tensor::Matrix;

use crate::backends::Backend;
use crate::case::TestCase;
use crate::ulp::Tolerance;

/// Run every applicable check for a case. `Ok(())` means conformant (or
/// that the backend does not support the model, which is vacuously
/// conformant). The error string names the failed invariant.
pub fn check_case(case: &TestCase, tol: &Tolerance) -> Result<(), String> {
    let backend = Backend::by_label(&case.backend)
        .ok_or_else(|| format!("unknown backend `{}`", case.backend))?;
    let model = case.model.model();
    let g = case.graph();
    let x = case.features();
    let cfg = case.device_config();
    let Some(run) = backend.run(&cfg, &model, &g, &x) else {
        return Ok(());
    };

    // Oracle.
    let want = conv_reference(&model, &g, &x);
    if let Some(m) = tol.compare(run.output.data(), want.data()) {
        return Err(format!("oracle: {m}"));
    }

    // Permutation equivariance.
    {
        let perm = permutation(case.n, case.feature_seed ^ 0x9e3779b97f4a7c15);
        let pg = g.permute(&perm);
        let mut px = Matrix::zeros(case.n, case.feat_dim);
        for (v, &pv) in perm.iter().enumerate() {
            px.row_mut(pv as usize).copy_from_slice(x.row(v));
        }
        let pr = backend
            .run(&cfg, &model, &pg, &px)
            .ok_or("permutation: backend refused permuted case")?;
        let mut unpermuted = Matrix::zeros(case.n, case.feat_dim);
        for (v, &pv) in perm.iter().enumerate() {
            unpermuted
                .row_mut(v)
                .copy_from_slice(pr.output.row(pv as usize));
        }
        if let Some(m) = tol.compare(unpermuted.data(), run.output.data()) {
            return Err(format!("permutation equivariance: {m}"));
        }
    }

    // Repeat determinism (same device shape).
    {
        let again = backend
            .run(&cfg, &model, &g, &x)
            .ok_or("repeat: backend refused rerun")?;
        if let Some(i) = first_bit_diff(run.output.data(), again.output.data()) {
            return Err(format!(
                "repeat determinism: element {i} changed between identical runs ({:e} vs {:e})",
                run.output.data()[i],
                again.output.data()[i]
            ));
        }
        if let (Some(a), Some(b)) = (&run.kernel_profile, &again.kernel_profile) {
            if a.gpu_cycles != b.gpu_cycles {
                return Err(format!(
                    "repeat determinism: cycle count changed between identical runs ({} vs {})",
                    a.gpu_cycles, b.gpu_cycles
                ));
            }
        }
    }

    // Device-shape determinism (atomic-free backends only).
    if backend.deterministic_across_devices {
        let mut wide = cfg.clone();
        wide.num_sms = cfg.num_sms * 2 + 1;
        let other = backend
            .run(&wide, &model, &g, &x)
            .ok_or("device: backend refused wide device")?;
        if let Some(i) = first_bit_diff(run.output.data(), other.output.data()) {
            return Err(format!(
                "device determinism: element {i} depends on SM count ({:e} on {} SMs vs {:e} on {} SMs)",
                run.output.data()[i],
                cfg.num_sms,
                other.output.data()[i],
                wide.num_sms
            ));
        }
    }

    // Linearity: scaling features by 2 is exact, so the output must scale
    // exactly too.
    {
        let mut x2 = x.clone();
        for v in x2.data_mut() {
            *v *= 2.0;
        }
        let doubled = backend
            .run(&cfg, &model, &g, &x2)
            .ok_or("linearity: backend refused")?;
        let scaled: Vec<f32> = run.output.data().iter().map(|v| v * 2.0).collect();
        if let Some(i) = first_bit_diff(doubled.output.data(), &scaled) {
            return Err(format!(
                "linearity: conv(2x) != 2 conv(x) at element {i} ({:e} vs {:e})",
                doubled.output.data()[i],
                scaled[i]
            ));
        }
    }

    // gpu-sim accounting conservation.
    if let Some(profile) = &run.kernel_profile {
        check_accounting(profile).map_err(|e| format!("accounting: {e}"))?;
    }

    // Sampled extraction (graph-level, backend-independent): the seeded
    // sampler behind the serving tier's `Sampled` degradation rung.
    check_sampled_extraction(&g, case.feature_seed).map_err(|e| format!("sampled: {e}"))?;

    Ok(())
}

/// Same-seed determinism and capped-subset invariants of
/// `subgraph::sampled_ego_graph`, for a handful of targets on `g`.
fn check_sampled_extraction(g: &tlpgnn_graph::Csr, seed: u64) -> Result<(), String> {
    use tlpgnn_graph::subgraph;
    let n = g.num_vertices();
    if n == 0 {
        return Ok(());
    }
    let targets: Vec<u32> = (0..n as u32).step_by(1 + n / 4).collect();
    let (hops, fanout) = (2usize, 3usize);
    let a = subgraph::sampled_ego_graph(g, &targets, hops, fanout, seed);
    let b = subgraph::sampled_ego_graph(g, &targets, hops, fanout, seed);
    if a.vertices != b.vertices || a.csr != b.csr {
        return Err("same-seed draws diverged".to_string());
    }
    // A different seed is allowed to differ; it must still satisfy the
    // structural invariants below.
    for s in [
        a,
        subgraph::sampled_ego_graph(g, &targets, hops, fanout, seed ^ 0xdead_beef),
    ] {
        let exact = subgraph::ego_graph(g, &targets, hops);
        for &v in &s.vertices {
            if !exact.vertices.contains(&v) {
                return Err(format!("sampled vertex {v} outside the exact ego graph"));
            }
        }
        for (local, &orig) in s.vertices.iter().enumerate() {
            let row = s.csr.neighbors(local);
            if row.len() > fanout {
                return Err(format!(
                    "vertex {orig}: sampled row has {} entries, fanout cap is {fanout}",
                    row.len()
                ));
            }
            // Every sampled in-neighbor is a sub-multiset of the full row.
            let full = g.neighbors(orig as usize);
            let mut remaining: Vec<u32> = full.to_vec();
            for &local_nb in row {
                let nb = s.vertices[local_nb as usize];
                match remaining.iter().position(|&x| x == nb) {
                    Some(i) => {
                        remaining.swap_remove(i);
                    }
                    None => {
                        return Err(format!(
                            "vertex {orig}: sampled neighbor {nb} not an in-neighbor \
                             (or drawn more often than it occurs)"
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Verify the conservation laws over a kernel profile's launch ledger.
fn check_accounting(p: &KernelProfile) -> Result<(), String> {
    let a = &p.accounting;
    let w = &a.warps;
    for (what, sectors, requests) in [
        ("load", w.mem_sectors(), w.mem_requests),
        ("store", w.store_sectors, w.store_requests),
        ("atomic", w.atomic_sectors, w.atomic_requests),
    ] {
        if sectors < requests {
            return Err(format!("{what} sectors {sectors} < requests {requests}"));
        }
    }
    if w.active_lane_steps > w.total_lane_steps {
        return Err(format!(
            "active lane-steps {} exceed total {}",
            w.active_lane_steps, w.total_lane_steps
        ));
    }
    let sm_blocks: u64 = a.sm.iter().map(|s| s.blocks).sum();
    if sm_blocks != p.blocks_run {
        return Err(format!(
            "per-SM blocks sum to {sm_blocks}, kernel ran {}",
            p.blocks_run
        ));
    }
    let sm_issue: u64 = a.sm.iter().map(|s| s.issue_cycles).sum();
    if sm_issue != w.issue_cycles {
        return Err(format!(
            "per-SM issue cycles sum to {sm_issue}, warp totals say {}",
            w.issue_cycles
        ));
    }
    Ok(())
}

/// Deterministic Fisher–Yates permutation of `0..n`.
fn permutation(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        perm.swap(i, j);
    }
    perm
}

fn first_bit_diff(a: &[f32], b: &[f32]) -> Option<usize> {
    debug_assert_eq!(a.len(), b.len());
    (0..a.len()).find(|&i| a[i].to_bits() != b[i].to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::ModelSpec;

    #[test]
    fn permutation_is_a_bijection() {
        let p = permutation(97, 5);
        let mut seen = [false; 97];
        for &v in &p {
            assert!(!std::mem::replace(&mut seen[v as usize], true));
        }
    }

    #[test]
    fn a_healthy_case_passes_every_invariant() {
        let case = TestCase {
            name: "healthy".into(),
            n: 24,
            edges: (0..24u32)
                .flat_map(|v| [(v, (v + 1) % 24), (v, (v + 7) % 24)])
                .collect(),
            feat_dim: 9,
            feature_seed: 11,
            model: ModelSpec::Gcn,
            backend: "thread_per_vertex".into(),
            sms: 4,
            failure: None,
        };
        check_case(&case, &Tolerance::default()).unwrap();
    }

    #[test]
    fn unknown_backend_is_an_error() {
        let case = TestCase {
            name: "nope".into(),
            n: 2,
            edges: vec![(0, 1)],
            feat_dim: 2,
            feature_seed: 1,
            model: ModelSpec::Sage,
            backend: "warp_speed".into(),
            sms: 4,
            failure: None,
        };
        assert!(check_case(&case, &Tolerance::default()).is_err());
    }
}
