//! Property test for the causal-tracing contract: whatever faults the
//! simulated device throws at the server, every chain it publishes for a
//! terminally-resolved request is well-formed — starts at `submit`,
//! sequence numbers are dense and monotonic, exactly one terminal event
//! (and it is last), `salvage` appears at most once, and the chain
//! explains its outcome (a `device_fault` error has a `fault` event, a
//! `worker_lost` error a `salvage`, …). The checks live in
//! [`telemetry::TraceChain::validate`]; this test's job
//! is to drive them against the real server under randomized fault
//! plans rather than hand-built chains.

use std::collections::HashSet;
use std::time::Duration;

use gpu_sim::FaultPlan;
use proptest::prelude::*;
use tlpgnn::{GnnModel, GnnNetwork};
use tlpgnn_graph::generators;
use tlpgnn_serve::{GnnServer, Request, RetryPolicy, ServeConfig};
use tlpgnn_tensor::Matrix;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Randomized transient-fault rates, optional cache-poison chaos,
    /// and randomized request shapes: every published chain validates,
    /// chain ids are unique, and every submitted request that resolved
    /// produced exactly one chain.
    #[test]
    fn published_chains_are_well_formed(
        (seed, fault_pct, requests, poison) in
            (0u64..1_000, 0u32..40, 1usize..8, any::<bool>())
    ) {
        telemetry::set_enabled(true);
        let _ = telemetry::collector().take_traces();
        // Worker deaths trigger flight-recorder dumps; keep them out of
        // the source tree.
        telemetry::flight::recorder().set_dump_dir(env!("CARGO_TARGET_TMPDIR"));

        let n = 200u32;
        let g = generators::rmat_default(n as usize, 1200, seed ^ 0x11);
        let x = Matrix::random(n as usize, 8, 1.0, seed ^ 0x22);
        let net = GnnNetwork::two_layer(|_| GnnModel::Gcn, 8, 8, 4, seed ^ 0x33);
        let mut cfg = ServeConfig {
            workers: 1,
            max_batch: 4,
            max_wait: Duration::from_millis(1),
            queue_capacity: 64,
            retry: RetryPolicy {
                max_retries: 6,
                base_backoff: Duration::from_micros(50),
                max_backoff: Duration::from_micros(400),
                ..RetryPolicy::default()
            },
            metrics_prefix: "serve.test.chains".to_string(),
            ..ServeConfig::default()
        };
        cfg.device.fault = FaultPlan::transient(seed ^ 0x44, f64::from(fault_pct) / 100.0);
        if poison {
            // One worker death mid-insert: exercises salvage + requeue.
            cfg.chaos_panic_on_vertex = Some(seed as u32 % n);
        }
        let server = GnnServer::start(cfg, g, x, net);

        let mut resolved = 0usize;
        for i in 0..requests {
            let t = ((seed * 31 + i as u64 * 7) % u64::from(n)) as u32;
            let req = if i % 2 == 0 {
                Request::new(vec![t])
            } else {
                Request::with_hops(vec![t, (t + 1) % n], 1)
            };
            let outcome = match server.submit(req) {
                Ok(h) => h.wait().map(|_| ()),
                Err(e) => Err(e),
            };
            // Ok and Err are both terminal resolutions; either way the
            // request must have published exactly one chain.
            let _ = outcome;
            resolved += 1;
        }
        server.shutdown();

        let chains = telemetry::collector().take_traces();
        telemetry::set_enabled(false);

        prop_assert_eq!(
            chains.len(),
            resolved,
            "every terminally-resolved request publishes exactly one chain"
        );
        let mut ids = HashSet::new();
        for c in &chains {
            if let Err(e) = c.validate() {
                prop_assert!(false, "malformed chain: {} ({})", e, c.canonical());
            }
            prop_assert!(ids.insert(c.id), "duplicate trace id {}", c.id);
        }
    }
}
