//! End-to-end serving tests: exactness against full-graph reference
//! inference, cache behavior, and bounded-queue backpressure.

use std::sync::Arc;
use std::time::Duration;

use tlpgnn::oracle::conv_reference;
use tlpgnn::{GnnModel, GnnNetwork};
use tlpgnn_graph::generators;
use tlpgnn_serve::{GnnServer, Request, ServeConfig, ServeError};
use tlpgnn_tensor::Matrix;

fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f32, f32::max)
}

/// Serving on an extracted ego graph must reproduce full-graph inference
/// at the targets, for every model family (GCN needs the extra
/// source-degree hop — `receptive_hops` covers that).
fn assert_serving_matches_full_graph(model: GnnModel) {
    let n = 300;
    let g = generators::rmat_default(n, 2400, 11);
    let x = Matrix::random(n, 12, 1.0, 13);
    let net = GnnNetwork::two_layer(|_| model.clone(), 12, 10, 5, 17);
    let full = net.forward_with(&x, |m, h| conv_reference(m, &g, h));

    let cfg = ServeConfig {
        workers: 2,
        max_batch: 8,
        max_wait: Duration::from_millis(1),
        metrics_prefix: format!("serve.test.exact.{}", model.name()),
        ..ServeConfig::default()
    };
    let server = GnnServer::start(cfg, g, x, net);

    let targets: Vec<u32> = (0..n as u32).step_by(7).collect();
    let resp = server
        .submit(Request::new(targets.clone()))
        .unwrap()
        .wait()
        .unwrap();
    for (i, &t) in targets.iter().enumerate() {
        let diff = max_abs_diff(resp.outputs.row(i), full.row(t as usize));
        assert!(
            diff < 1e-4,
            "{:?}: target {t} diverges from full-graph inference by {diff}",
            model
        );
    }
}

#[test]
fn gcn_serving_is_exact() {
    assert_serving_matches_full_graph(GnnModel::Gcn);
}

#[test]
fn gin_serving_is_exact() {
    assert_serving_matches_full_graph(GnnModel::Gin { eps: 0.1 });
}

#[test]
fn sage_serving_is_exact() {
    assert_serving_matches_full_graph(GnnModel::Sage);
}

#[test]
fn gcn_receptive_field_needs_the_extra_hop() {
    // Sanity check on the serving contract itself: a 2-layer GCN claims 3
    // extraction hops (layer count + 1 for source-side degrees).
    let net = GnnNetwork::two_layer(|_| GnnModel::Gcn, 8, 8, 4, 1);
    assert_eq!(net.receptive_hops(), 3);
    let net = GnnNetwork::two_layer(|_| GnnModel::Gin { eps: 0.1 }, 8, 8, 4, 1);
    assert_eq!(net.receptive_hops(), 2);
}

#[test]
fn hot_vertices_are_served_from_cache_with_identical_outputs() {
    let g = generators::rmat_default(400, 3000, 5);
    let x = Matrix::random(400, 8, 1.0, 6);
    let net = GnnNetwork::two_layer(|_| GnnModel::Gcn, 8, 8, 4, 7);
    let cfg = ServeConfig {
        workers: 1,
        max_batch: 4,
        max_wait: Duration::from_millis(1),
        cache_capacity: 1024,
        metrics_prefix: "serve.test.cache".to_string(),
        ..ServeConfig::default()
    };
    let server = GnnServer::start(cfg, g, x, net);

    let first = server
        .submit(Request::new(vec![10, 20, 30]))
        .unwrap()
        .wait()
        .unwrap();
    let second = server
        .submit(Request::new(vec![10, 20, 30]))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(first.outputs.data(), second.outputs.data());
    assert_eq!(second.timing.cache_hits, 3, "repeat is a pure cache hit");
    assert_eq!(second.timing.extract_ms, 0.0);
    assert_eq!(second.timing.compute_ms, 0.0);

    let stats = server.shutdown();
    assert_eq!(stats.completed, 2);
    assert!(stats.cache_hits >= 3);
    assert_eq!(stats.computed_targets, 3, "each vertex computed once");
}

#[test]
fn overload_rejects_with_bounded_queue_and_loses_nothing() {
    let g = generators::rmat_default(500, 4000, 21);
    let x = Matrix::random(500, 8, 1.0, 22);
    let net = GnnNetwork::two_layer(|_| GnnModel::Gin { eps: 0.1 }, 8, 8, 4, 23);
    let cfg = ServeConfig {
        workers: 1,
        max_batch: 1,
        max_wait: Duration::from_millis(0),
        queue_capacity: 4,
        cache_capacity: 0, // every request pays full compute
        metrics_prefix: "serve.test.overload".to_string(),
        ..ServeConfig::default()
    };
    let server = Arc::new(GnnServer::start(cfg, g, x, net));

    let offered = 64u64;
    let mut handles = Vec::new();
    let mut rejected = 0u64;
    for i in 0..offered {
        match server.submit(Request::new(vec![(i % 500) as u32])) {
            Ok(h) => handles.push(h),
            Err(ServeError::Overloaded) => rejected += 1,
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(rejected > 0, "a burst past capacity must see Overloaded");

    let accepted = handles.len() as u64;
    for h in handles {
        let resp = h.wait().expect("accepted requests are always served");
        assert_eq!(resp.outputs.rows(), 1);
    }
    // A rejection is an unflagged failure and burns error budget: with at
    // most 64 outcomes in the window, one rejection is an error rate of at
    // least 1/64, past the 1 % budget.
    let slo = server.slo_report();
    assert!(slo.burn_alert, "rejections must fire the burn alert");
    assert_eq!(slo.total_errors, rejected, "every rejection is one error");
    let server = Arc::try_unwrap(server).ok().expect("all clones dropped");
    let stats = server.shutdown();
    assert_eq!(stats.completed, accepted, "no accepted request was lost");
    assert_eq!(stats.rejected, rejected);
    assert_eq!(stats.completed + stats.rejected, offered);
}

#[test]
fn concurrent_clients_coalesce_into_batches() {
    let g = generators::rmat_default(300, 2000, 31);
    let x = Matrix::random(300, 8, 1.0, 32);
    let net = GnnNetwork::two_layer(|_| GnnModel::Sage, 8, 8, 4, 33);
    let cfg = ServeConfig {
        workers: 1,
        max_batch: 16,
        max_wait: Duration::from_millis(20),
        metrics_prefix: "serve.test.coalesce".to_string(),
        ..ServeConfig::default()
    };
    let server = Arc::new(GnnServer::start(cfg, g, x, net));

    let mut clients = Vec::new();
    for c in 0..4u32 {
        let server = Arc::clone(&server);
        clients.push(std::thread::spawn(move || {
            let mut max_batch_seen = 0;
            for r in 0..6u32 {
                let resp = server
                    .submit(Request::new(vec![(c * 50 + r) % 300]))
                    .unwrap()
                    .wait()
                    .unwrap();
                max_batch_seen = max_batch_seen.max(resp.timing.batch_size);
            }
            max_batch_seen
        }));
    }
    let max_batch = clients
        .into_iter()
        .map(|c| c.join().unwrap())
        .max()
        .unwrap();
    assert!(max_batch >= 1);

    let server = Arc::try_unwrap(server).ok().expect("all clones dropped");
    let stats = server.shutdown();
    assert_eq!(stats.completed, 24);
    assert!(
        stats.batches <= 24,
        "batches ({}) never exceed requests",
        stats.batches
    );
}
