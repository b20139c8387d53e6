//! Integration tests for the extensions that stay behind a gate:
//! heterogeneous graphs, multi-head GAT, and the autotuner — everything
//! cross-checked against serial references. (Multi-device execution is
//! the sharded serving tier, tested in `tlpgnn-serve` and
//! `tlpgnn-shard`.)

use gpu_sim::DeviceConfig;
use tlpgnn::hetero::{HeteroEngine, HeteroGraph};
use tlpgnn::kernels::gat::MultiHeadGatParams;
use tlpgnn::{GnnModel, TlpgnnEngine};
use tlpgnn_graph::{datasets, generators};
use tlpgnn_tensor::Matrix;

#[test]
fn hetero_engine_on_registry_shapes() {
    // Build a heterograph out of two registry-shaped relations.
    let n = 3000;
    let mut hg = HeteroGraph::new(n);
    hg.add_relation("social", generators::rmat_default(n, 20_000, 304));
    hg.add_relation("geo", generators::watts_strogatz(n, 4, 0.05, 305));
    let x = Matrix::random(n, 32, 1.0, 306);
    let want = hg.conv_reference(&x);
    let mut e = HeteroEngine::new(DeviceConfig::test_small());
    let (fused, p_f) = e.conv_fused(&hg, &x);
    let (unfused, p_u) = e.conv_per_relation(&hg, &x);
    assert!(fused.max_abs_diff(&want) < 1e-3);
    assert!(unfused.max_abs_diff(&want) < 1e-3);
    assert!(p_f.kernel_launches < p_u.kernel_launches);
}

#[test]
fn multihead_gat_heads_are_independent() {
    // Concatenated multi-head output equals running each head alone.
    let g = generators::rmat_default(120, 900, 307);
    let x = Matrix::random(120, 16, 1.0, 308);
    let params = MultiHeadGatParams::random(16, 3, 309);
    let all = params.conv_reference(&g, &x);
    for (h, head) in params.heads.iter().enumerate() {
        let alone = tlpgnn::oracle::conv_reference(
            &GnnModel::Gat {
                params: head.clone(),
            },
            &g,
            &x,
        );
        for v in 0..120 {
            let slice = &all.row(v)[h * 16..(h + 1) * 16];
            for (a, b) in slice.iter().zip(alone.row(v)) {
                assert!((a - b).abs() < 1e-5);
            }
        }
    }
}

#[test]
fn autotuner_best_never_loses_to_defaults() {
    let g = datasets::by_abbr("PI").unwrap().synthesize(16);
    let x = Matrix::random(g.num_vertices(), 32, 1.0, 315);
    let mut e = TlpgnnEngine::new(DeviceConfig::test_small(), Default::default());
    let report = tlpgnn::tune::autotune(&mut e, &GnnModel::Gcn, &g, &x);
    let best = report.points[report.best].gpu_ms;
    // Default hardware(8) and software(8) are both in the sweep, so the
    // tuned best is at least as good as either default.
    for p in &report.points {
        assert!(best <= p.gpu_ms + 1e-12);
    }
}
