//! Property tests of the sharded tier's failover layer.
//!
//! Two safety contracts, tested against randomized graphs, victims, and
//! request streams:
//!
//! 1. **Covered failover is invisible.** With standby mirrors on, a
//!    shard death (salvage to the buddy, then permanent retirement)
//!    must never change an answer: every response is bitwise equal to
//!    a fault-free single-device oracle and carries no degradation
//!    flag.
//! 2. **Uncovered loss is flagged, never silently wrong.** Without
//!    mirrors, a response whose receptive field touches the dead
//!    shard's unreachable rows must carry the `partial` flag — and a
//!    response *without* the flag must be bitwise equal to the oracle.
//!    There is no third outcome: zero unflagged wrong answers.

use std::time::{Duration, Instant};

use gpu_sim::FaultPlan;
use proptest::prelude::*;
use tlpgnn::{GnnModel, GnnNetwork};
use tlpgnn_graph::{generators, subgraph, Csr};
use tlpgnn_serve::{
    GnnServer, Request, ServeConfig, ServeError, ShardedConfig, ShardedServer, SupervisorConfig,
};
use tlpgnn_tensor::Matrix;

const N: usize = 200;
const SHARDS: usize = 4;

fn fixture(seed: u64) -> (Csr, Matrix, GnnNetwork) {
    let g = generators::rmat_default(N, 1200, seed);
    let x = Matrix::random(N, 8, 1.0, seed ^ 0x9e37_79b9);
    let net = GnnNetwork::two_layer(|_| GnnModel::Gin { eps: 0.1 }, 8, 8, 4, 3);
    (g, x, net)
}

/// A sharded config that kills `victim` at its first launch and retires
/// it immediately (no respawn budget, breaker threshold 1), with the
/// cache off so every response is computed through the extraction path
/// under test.
fn chaos_config(standby: bool, victim: usize, prefix: &str) -> ShardedConfig {
    let mut per_shard = vec![FaultPlan::none(); SHARDS];
    per_shard[victim] = FaultPlan::device_lost_at(0);
    ShardedConfig {
        shards: SHARDS,
        replicate_hot: 8,
        standby,
        max_batch: 4,
        max_wait: Duration::from_millis(1),
        cache_capacity: 0,
        per_shard_fault: Some(per_shard),
        supervisor: SupervisorConfig {
            max_respawns: 0,
            monitor_interval: Duration::from_millis(2),
            slot_breaker_threshold: 1,
        },
        metrics_prefix: prefix.to_string(),
        ..ShardedConfig::default()
    }
}

fn oracle(seed: u64, prefix: &str) -> GnnServer {
    let (g, x, net) = fixture(seed);
    GnnServer::start(
        ServeConfig {
            workers: 1,
            max_batch: 4,
            max_wait: Duration::from_millis(1),
            metrics_prefix: prefix.to_string(),
            ..ServeConfig::default()
        },
        g,
        x,
        net,
    )
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Standby-covered failover: kill a random shard, retire it, and
    /// replay a random request stream — every answer (salvaged, buddy-
    /// mirrored, or untouched) is bitwise equal to the fault-free
    /// oracle and unflagged.
    #[test]
    fn covered_failover_is_bitwise_equal_and_unflagged(
        seed in 1u64..500,
        victim in 0usize..SHARDS,
        targets in proptest::collection::vec(0u32..N as u32, 3..8),
    ) {
        let (g, x, net) = fixture(seed);
        let sharded = ShardedServer::start(
            chaos_config(true, victim, "prop.failover.covered"),
            g, x, net,
        );
        let single = oracle(seed, "prop.failover.covered.oracle");

        // Trip the fault: the first request seeded in the victim's
        // range rides the dying worker and is salvaged to the buddy.
        let tripwire = sharded.plan().owned_range(victim).start as u32;
        let a = sharded
            .submit(Request::new(vec![tripwire]))
            .unwrap()
            .wait()
            .expect("salvaged request must be answered");
        let b = single
            .submit(Request::new(vec![tripwire]))
            .unwrap()
            .wait()
            .unwrap();
        prop_assert_eq!(a.outputs.data(), b.outputs.data(), "salvaged answer diverged");
        prop_assert!(!a.degraded.any());
        wait_until("victim retirement", || sharded.shard_retired(victim));

        for &t in &targets {
            let got = sharded.submit(Request::new(vec![t])).unwrap().wait();
            let got = got.expect("covered failover must keep serving");
            let want = single
                .submit(Request::new(vec![t]))
                .unwrap()
                .wait()
                .unwrap();
            prop_assert_eq!(
                got.outputs.data(),
                want.outputs.data(),
                "mirror-covered answer for {} diverged from the oracle", t
            );
            prop_assert!(!got.degraded.any(), "covered failover must not be flagged");
        }
        let stats = sharded.shutdown();
        prop_assert_eq!(stats.worker_deaths, 1);
        prop_assert_eq!(stats.requeued, 1, "salvaged exactly once");
        prop_assert_eq!(stats.partial, 0);
        prop_assert_eq!(stats.worker_lost, 0);
    }

    /// Un-mirrored loss: a response is flagged `partial` exactly when
    /// its receptive field touches the dead shard's unreachable rows,
    /// and every unflagged response is bitwise equal to the oracle.
    #[test]
    fn uncovered_loss_is_flagged_never_silently_wrong(
        seed in 1u64..500,
        victim in 0usize..SHARDS,
        targets in proptest::collection::vec(0u32..N as u32, 3..8),
    ) {
        let (g, x, net) = fixture(seed);
        let graph = g.clone();
        let sharded = ShardedServer::start(
            chaos_config(false, victim, "prop.failover.uncovered"),
            g, x, net,
        );
        let single = oracle(seed, "prop.failover.uncovered.oracle");
        let hops = sharded.exact_hops();

        // No buddy to salvage to: the tripwire request fails loudly.
        let tripwire = sharded.plan().owned_range(victim).start as u32;
        let h = sharded.submit(Request::new(vec![tripwire])).unwrap();
        prop_assert_eq!(h.wait().unwrap_err(), ServeError::WorkerLost);
        wait_until("victim retirement", || sharded.shard_retired(victim));

        for &t in &targets {
            let got = sharded
                .submit(Request::new(vec![t]))
                .unwrap()
                .wait()
                .expect("partial service, not hard errors");
            // Ground truth from the full graph: does the request's
            // receptive field contain a vertex only the dead shard
            // hosted (owned by it, not hot-replicated)?
            let ego = subgraph::ego_graph(&graph, &[t], hops);
            let touched = ego.vertices.iter().any(|&v| {
                sharded.plan().owner_of(v) == victim && !sharded.plan().is_replicated(v)
            });
            prop_assert_eq!(
                got.degraded.partial,
                touched,
                "partial flag must track dead-shard reach for {}", t
            );
            if !touched {
                let want = single
                    .submit(Request::new(vec![t]))
                    .unwrap()
                    .wait()
                    .unwrap();
                prop_assert_eq!(
                    got.outputs.data(),
                    want.outputs.data(),
                    "unflagged answer for {} must be bitwise exact", t
                );
            }
        }
        let stats = sharded.shutdown();
        prop_assert_eq!(stats.worker_lost, 1, "only the tripwire fails hard");
    }
}
