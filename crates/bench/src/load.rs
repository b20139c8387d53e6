//! The closed-loop load generator `serve_bench` and `shard_bench` share:
//! both servers expose the same `submit`, so the client side is written
//! once and takes the server as a closure.

use std::time::Instant;

use telemetry::Histogram;
use tlpgnn_serve::{Request, ResponseHandle, ServeError, ZipfSampler};

/// Shape of one closed-loop phase.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    /// Client threads.
    pub clients: usize,
    /// Submit-then-wait round trips per client.
    pub requests: usize,
    /// Zipf ranks are drawn from `0..vertices`.
    pub vertices: usize,
    /// Zipf exponent of the popularity distribution.
    pub zipf: f64,
    /// Extraction hops of every request.
    pub hops: usize,
    /// Stream seed (already salted per bench); client `c` draws from
    /// `seed ^ c << 32`.
    pub seed: u64,
}

/// What the clients saw.
pub struct LoadOutcome {
    /// End-to-end latency (ms) of every served request, all clients.
    pub latencies: Histogram,
    /// Requests turned away with [`ServeError::Overloaded`].
    pub rejected: u64,
    /// `clients * requests`; every one was either served or rejected.
    pub offered: u64,
    /// Wall-clock of the whole phase, spawn to last join.
    pub elapsed_s: f64,
}

/// Run one closed-loop phase: `load.clients` threads, each issuing
/// `load.requests` single-vertex requests back to back (submit, wait,
/// repeat). A request's target is `target_of(rank)` for a Zipf-drawn
/// rank. Panics if an accepted request is not served or `submit` fails
/// with anything but `Overloaded`.
pub fn closed_loop(
    load: &Load,
    target_of: impl Fn(u32) -> u32 + Sync,
    submit: impl Fn(Request) -> Result<ResponseHandle, ServeError> + Sync,
) -> LoadOutcome {
    let t0 = Instant::now();
    let per_client: Vec<(Histogram, u64)> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..load.clients)
            .map(|c| {
                let (target_of, submit) = (&target_of, &submit);
                s.spawn(move || {
                    let seed = load.seed ^ (c as u64) << 32;
                    let mut sampler = ZipfSampler::new(load.vertices, load.zipf, seed);
                    let mut latencies = Histogram::default();
                    let mut rejected = 0u64;
                    for _ in 0..load.requests {
                        let target = target_of(sampler.sample());
                        let t = Instant::now();
                        match submit(Request::with_hops(vec![target], load.hops)) {
                            Ok(handle) => {
                                handle.wait().expect("accepted request must be served");
                                latencies.observe(t.elapsed().as_secs_f64() * 1e3);
                            }
                            Err(ServeError::Overloaded) => rejected += 1,
                            Err(e) => panic!("unexpected serve error: {e}"),
                        }
                    }
                    (latencies, rejected)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect()
    });
    let elapsed_s = t0.elapsed().as_secs_f64();
    let mut latencies = Histogram::default();
    let mut rejected = 0u64;
    for (h, r) in per_client {
        for &v in h.samples() {
            latencies.observe(v);
        }
        rejected += r;
    }
    LoadOutcome {
        latencies,
        rejected,
        offered: (load.clients * load.requests) as u64,
        elapsed_s,
    }
}
