//! The metric names dashboards read. Both servers publish under their
//! `metrics_prefix`; a rename of any name below breaks every consumer
//! that reads the exported `metrics.json`, so the names are pinned here
//! against a scripted run of each server with telemetry on.
//!
//! One test only: it reads the process-wide metrics registry.

use std::time::Duration;

use tlpgnn::{GnnModel, GnnNetwork};
use tlpgnn_graph::{generators, Csr};
use tlpgnn_serve::{
    GnnServer, Request, ResponseHandle, ServeConfig, ServeError, ShardedConfig, ShardedServer,
};
use tlpgnn_tensor::Matrix;

fn fixture() -> (Csr, Matrix, GnnNetwork) {
    let g = generators::rmat_default(300, 2000, 7);
    let x = Matrix::random(300, 8, 1.0, 9);
    let net = GnnNetwork::two_layer(|_| GnnModel::Gin { eps: 0.1 }, 8, 8, 4, 3);
    (g, x, net)
}

/// Sequential single-target requests on both ends of the id space, with
/// one repeat.
fn serve_script(submit: impl Fn(Request) -> Result<ResponseHandle, ServeError>) {
    for t in [3u32, 299, 3, 150, 298, 0] {
        submit(Request::new(vec![t])).unwrap().wait().unwrap();
    }
}

#[test]
fn both_servers_publish_the_names_dashboards_read() {
    telemetry::set_enabled(true);
    telemetry::reset();
    let (g, x, net) = fixture();

    // One device: sequential requests with a repeat (a cache hit), then
    // a burst past the 4-slot queue of a single one-request-per-batch
    // worker, so some submissions are rejected.
    let single = GnnServer::start(
        ServeConfig {
            workers: 1,
            max_batch: 1,
            max_wait: Duration::ZERO,
            queue_capacity: 4,
            cache_capacity: 64,
            metrics_prefix: "names.serve".to_string(),
            ..ServeConfig::default()
        },
        g.clone(),
        x.clone(),
        net.clone(),
    );
    serve_script(|r| single.submit(r));
    let mut accepted = Vec::new();
    for t in 0..64u32 {
        match single.submit(Request::new(vec![t + 100])) {
            Ok(h) => accepted.push(h),
            Err(ServeError::Overloaded) => {}
            Err(e) => panic!("unexpected serve error: {e}"),
        }
    }
    for h in accepted {
        h.wait().expect("accepted requests are served");
    }
    let stats = single.shutdown();
    assert!(stats.rejected > 0, "the burst must be rejected in part");

    // Two shards: requests on both sides of the split, so both lanes
    // publish and extraction fetches halo rows.
    let shards = 2;
    let sharded = ShardedServer::start(
        ShardedConfig {
            shards,
            replicate_hot: 0,
            max_batch: 4,
            max_wait: Duration::from_millis(1),
            metrics_prefix: "names.shard".to_string(),
            ..ShardedConfig::default()
        },
        g,
        x,
        net,
    );
    serve_script(|r| sharded.submit(r));
    let stats = sharded.shutdown();
    assert!(stats.per_shard_completed.iter().all(|&c| c > 0));
    telemetry::set_enabled(false);

    let snap = telemetry::collector().metrics().snapshot();
    let counter = |name: &str| {
        let v = snap.counters.get(name).copied().unwrap_or(0);
        assert!(v > 0, "counter {name} missing or zero");
    };
    let gauge = |name: &str| assert!(snap.gauges.contains_key(name), "gauge {name} missing");
    let histogram = |name: &str| {
        let n = snap.histograms.get(name).map_or(0, |h| h.count);
        assert!(n > 0, "histogram {name} missing or empty");
    };

    counter("names.serve.completed");
    counter("names.serve.rejected");
    gauge("names.serve.cache.hit_rate");
    histogram("names.serve.e2e_latency_ms");

    counter("names.shard.completed");
    histogram("names.shard.e2e_latency_ms");
    histogram("names.shard.halo_ms");
    counter("names.shard.halo.fetch_batches");
    counter("names.shard.halo.fetched_bytes");
    for i in 0..shards {
        counter(&format!("names.shard.shard.{i}.completed"));
        gauge(&format!("names.shard.shard.{i}.load"));
        histogram(&format!("names.shard.shard.{i}.e2e_latency_ms"));
        gauge(&format!("names.shard.slo.shard.{i}.p99_ms"));
    }
}
