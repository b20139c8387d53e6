//! Telemetry walkthrough: trace one TLPGNN run and export a
//! Perfetto-loadable timeline plus a metrics snapshot.
//!
//! ```text
//! cargo run --release --example telemetry_trace
//! ```
//!
//! Open the written `results/example.trace.json` at
//! <https://ui.perfetto.dev> (or `chrome://tracing`): the host track
//! shows the nested `tlpgnn.conv` → upload/kernel/readback spans, and
//! each simulated GPU gets a process with a launches track plus one
//! track per SM showing the list-scheduled blocks.

use tlpgnn::{GnnModel, TlpgnnEngine};
use tlpgnn_graph::generators;
use tlpgnn_tensor::Matrix;

fn main() {
    // 1. Turn collection on. Every span, kernel launch, and simulator
    //    schedule from here on is recorded by the global collector.
    telemetry::reset();
    telemetry::set_enabled(true);

    let graph = generators::rmat_default(20_000, 200_000, 42);
    let feats = Matrix::random(graph.num_vertices(), 32, 1.0, 43);
    let mut engine = TlpgnnEngine::v100();
    for model in GnnModel::all_four(32) {
        let (_, profile) = engine.conv(&model, &graph, &feats);
        println!("{:>4}: gpu {:.3} ms", model.name(), profile.gpu_time_ms);
    }

    // 2. Turn it off and export.
    telemetry::set_enabled(false);
    let c = telemetry::collector();
    std::fs::create_dir_all("results").expect("create results dir");
    telemetry::export::write_chrome_trace(c, "results/example.trace.json").unwrap();
    telemetry::export::write_metrics_json(c, "results/example.metrics.json").unwrap();

    // 3. Peek at what was collected.
    println!("\nspans: {}", c.spans_snapshot().len());
    println!("kernel launches: {}", c.kernel_samples_snapshot().len());
    let snap = c.metrics().snapshot();
    for (name, h) in &snap.histograms {
        if name.ends_with(".gpu_time_ms") {
            println!("{name}: n={} p50={:.4} p99={:.4}", h.count, h.p50, h.p99);
        }
    }
    println!("\nwrote results/example.trace.json — open it in https://ui.perfetto.dev");
}
