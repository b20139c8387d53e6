//! **Native engine thread scaling** — real wall-clock strong scaling of
//! the CPU two-level engine (thread ≈ warp, task-pool chunks ≈ Algorithm 1)
//! on this machine. The host-side counterpart of Figure 11: the same
//! design scales with whatever parallel substrate carries it.

use std::time::Instant;

use crate::{self as bench, Env};
use tlpgnn::{GnnModel, NativeEngine, NativeSchedule};
use tlpgnn_graph::generators;
use tlpgnn_tensor::Matrix;

const FEAT: usize = 32;

pub fn run(env: &Env, _args: &[String]) {
    env.print_header("Native CPU engine: wall-clock thread scaling (GCN)");
    // The engine's thread count is a cap on the shared pool, which is as
    // large as the machine's available parallelism.
    let cores = tlpgnn_tensor::pool::participants(0);
    let g = generators::rmat_default(100_000, 2_000_000, 7);
    let x = Matrix::random(g.num_vertices(), FEAT, 1.0, 8);
    println!(
        "machine: {cores} hardware threads | graph: {}",
        tlpgnn_graph::GraphStats::of(&g)
    );

    let time_of = |threads: usize| {
        let e = NativeEngine {
            schedule: NativeSchedule::TaskPool { step: 64 },
            threads,
        };
        // Warm once, then take the best of 3 (reduces allocator noise).
        let _ = e.conv(&GnnModel::Gcn, &g, &x);
        (0..3)
            .map(|_| {
                let t = Instant::now();
                let out = e.conv(&GnnModel::Gcn, &g, &x);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                std::hint::black_box(out);
                ms
            })
            .fold(f64::INFINITY, f64::min)
    };

    let mut t = bench::Table::new(
        "task-pool engine, best of 3 runs",
        &["threads", "ms", "speedup", "efficiency"],
    );
    let base = time_of(1);
    let mut threads = 1usize;
    while threads <= cores {
        let ms = if threads == 1 { base } else { time_of(threads) };
        t.row(vec![
            threads.to_string(),
            format!("{ms:.1}"),
            format!("{:.2}x", base / ms),
            format!("{:.0}%", base / ms / threads as f64 * 100.0),
        ]);
        threads *= 2;
    }
    t.print();
    println!("\nthe engine is atomic-free on the output (disjoint rows), so scaling");
    println!("is bounded only by memory bandwidth and the task-pool cursor.");
}
