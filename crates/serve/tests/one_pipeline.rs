//! The one-pipeline property, stated as a test: `GnnServer` and
//! `ShardedServer` are façades over the same request path, so a 1-shard
//! `ShardedServer` and a 1-worker `GnnServer` driven through the same
//! sequential script must agree on everything the pipeline decides —
//! output bits, degradation flags, the counters, and the causal chain of
//! every request. Only the events their graph sources add at admission
//! and extraction (`epoch`; `shard_route`, `halo_fetch`) may differ. An
//! edit that re-forks behaviour between the two servers fails here.
//!
//! One test only: it reads the process-wide trace collector.

use std::time::Duration;

use tlpgnn::{GnnModel, GnnNetwork};
use tlpgnn_graph::{generators, Csr};
use tlpgnn_serve::{
    GnnServer, Request, Response, ResponseHandle, ServeConfig, ServeError, ServeStats,
    ShardedConfig, ShardedServer,
};
use tlpgnn_tensor::Matrix;

fn fixture() -> (Csr, Matrix, GnnNetwork) {
    let g = generators::rmat_default(300, 2000, 7);
    let x = Matrix::random(300, 8, 1.0, 9);
    let net = GnnNetwork::two_layer(|_| GnnModel::Gin { eps: 0.1 }, 8, 8, 4, 3);
    (g, x, net)
}

/// Misses, repeats (cache hits), a multi-target request mixing both, a
/// depth override, and an already-expired deadline.
fn script() -> Vec<Request> {
    vec![
        Request::new(vec![3]),
        Request::new(vec![200]),
        Request::new(vec![3]),
        Request::new(vec![17, 3, 250, 17]),
        Request::new(vec![5]).with_deadline(Duration::ZERO),
        Request::with_hops(vec![200], 1),
        Request::new(vec![250]).with_deadline(Duration::from_secs(60)),
    ]
}

/// Everything one server did with the script.
struct Run {
    outcomes: Vec<Result<Response, ServeError>>,
    stats: ServeStats,
    /// Canonical chains by trace id, source-specific events removed.
    chains: Vec<String>,
}

fn run(
    submit: impl Fn(Request) -> Result<ResponseHandle, ServeError>,
    stats: impl FnOnce() -> ServeStats,
) -> Run {
    let _ = telemetry::collector().take_traces();
    let outcomes = script()
        .into_iter()
        .map(|r| submit(r).and_then(ResponseHandle::wait))
        .collect();
    let stats = stats();
    let mut chains = telemetry::collector().take_traces();
    chains.sort_by_key(|c| c.id);
    let chains = chains
        .iter()
        .map(|c| {
            c.validate().expect("well-formed chain");
            c.events
                .iter()
                .filter(|e| !["epoch", "shard_route", "halo_fetch"].contains(&e.kind))
                .map(|e| format!("{}({})", e.kind, e.detail))
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect();
    Run {
        outcomes,
        stats,
        chains,
    }
}

#[test]
fn one_shard_and_one_worker_are_the_same_pipeline() {
    telemetry::set_enabled(true);
    let (g, x, net) = fixture();
    let single = GnnServer::start(
        ServeConfig {
            workers: 1,
            max_batch: 4,
            max_wait: Duration::from_millis(1),
            metrics_prefix: "one_pipeline.single".to_string(),
            ..ServeConfig::default()
        },
        g,
        x,
        net,
    );
    let a = run(|r| single.submit(r), || single.stats());
    drop(single);

    let (g, x, net) = fixture();
    let sharded = ShardedServer::start(
        ShardedConfig {
            shards: 1,
            max_batch: 4,
            max_wait: Duration::from_millis(1),
            metrics_prefix: "one_pipeline.sharded".to_string(),
            ..ShardedConfig::default()
        },
        g,
        x,
        net,
    );
    let b = run(|r| sharded.submit(r), || sharded.stats());
    drop(sharded);
    telemetry::set_enabled(false);

    assert_eq!(a.outcomes.len(), b.outcomes.len());
    for (i, (ra, rb)) in a.outcomes.iter().zip(&b.outcomes).enumerate() {
        match (ra, rb) {
            (Ok(ra), Ok(rb)) => {
                assert_eq!(ra.outputs.shape(), rb.outputs.shape(), "request {i}");
                let bits = |r: &Response| -> Vec<u32> {
                    r.outputs.data().iter().map(|v| v.to_bits()).collect()
                };
                assert_eq!(bits(ra), bits(rb), "request {i}: output bits");
                assert_eq!(ra.degraded, rb.degraded, "request {i}: flags");
                assert_eq!(ra.timing.cache_hits, rb.timing.cache_hits, "request {i}");
                assert_eq!(ra.epoch, rb.epoch, "request {i}");
            }
            (Err(ea), Err(eb)) => assert_eq!(ea, eb, "request {i}"),
            _ => panic!("request {i}: one server answered, the other failed"),
        }
    }
    assert_eq!(
        a.outcomes[4].as_ref().unwrap_err(),
        &ServeError::DeadlineExceeded
    );

    let decided = |s: &ServeStats| {
        [
            s.completed,
            s.batches,
            s.computed_targets,
            s.cache_hits,
            s.cache_misses,
            s.deadline_exceeded,
            s.degraded,
        ]
    };
    assert_eq!(decided(&a.stats), decided(&b.stats));
    assert_eq!(a.stats.completed, 6);
    assert_eq!(a.stats.per_shard_completed, b.stats.per_shard_completed);
    assert_eq!(b.stats.halo.fetch_batches, 0, "one shard fetches nothing");

    assert_eq!(a.chains.len(), script().len(), "one chain per request");
    assert_eq!(a.chains, b.chains, "the pipeline's causal chains differ");
}
