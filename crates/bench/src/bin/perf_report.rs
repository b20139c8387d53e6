//! **perf_report** — one-stop performance attribution report.
//!
//! Runs the pinned perfgate suite through the deterministic simulator
//! and aggregates every observability layer into one report:
//!
//! ```text
//! perf_report [--smoke] [--baseline-dir DIR] [--top K]
//! ```
//!
//! * **Roofline attribution** — every workload placed on the device's
//!   roofline (arithmetic intensity, achieved vs. peak throughput) and
//!   classified compute/bandwidth/latency-bound, with the classification
//!   recomputed from raw per-SM accounting and cross-checked against the
//!   cost model's `LimiterBreakdown`. Any disagreement is a gated error
//!   (non-zero exit). Written to `results/roofline.json`.
//! * **Hotspots** — top-K workloads by GPU time with their hardware
//!   counters (cache hit rates, DRAM row locality, stall split).
//! * **Regressions** — the current run diffed against the latest
//!   committed `BENCH_<seq>.json`, top-K attributed regressions.
//! * **Heap** — the main thread's allocation totals, from the counting
//!   allocator this binary installs.
//!
//! Host time is not measured here (that is `benchmark/`'s job); the
//! telemetry bundle's span-based folded stacks
//! (`results/perf_report.folded{,_total}.txt`) attribute it.

use std::path::PathBuf;

use tlpgnn_bench::{fmt_ms, Table};
use tlpgnn_perfgate::gate::{self, GateConfig};
use tlpgnn_perfgate::roofline;
use tlpgnn_perfgate::snapshot::{self, Snapshot};
use tlpgnn_perfgate::suite::{self, Suite};

// Heap attribution: count every allocation. Only this binary installs
// it; every other binary keeps the system allocator.
#[global_allocator]
static ALLOC: telemetry::alloc::CountingAlloc = telemetry::alloc::CountingAlloc;

fn usage() -> ! {
    eprintln!("usage: perf_report [--smoke] [--baseline-dir DIR] [--top K]");
    std::process::exit(2);
}

fn main() {
    let _telemetry = tlpgnn_bench::telemetry_scope("perf_report");

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut baseline_dir = PathBuf::from(".");
    let mut top_k = 5usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--baseline-dir" => {
                i += 1;
                baseline_dir = args.get(i).map(PathBuf::from).unwrap_or_else(|| usage());
            }
            "--top" => {
                i += 1;
                top_k = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
        i += 1;
    }

    let s = if smoke { Suite::smoke() } else { Suite::full() };
    println!(
        "perf_report: suite `{}` ({} workloads) on {}",
        s.name,
        s.workloads.len(),
        s.device.name,
    );

    let runs = suite::run_profiled(&s);

    let results_dir = tlpgnn_bench::results_dir();
    let _ = std::fs::create_dir_all(&results_dir);

    // ---- roofline attribution --------------------------------------
    let points = roofline::classify_all(&runs, &s.device);
    let roofline_path = results_dir.join("roofline.json");
    if let Err(e) = std::fs::write(
        &roofline_path,
        roofline::report_pretty_string(&s.device.name, &points),
    ) {
        eprintln!("perf_report: cannot write {}: {e}", roofline_path.display());
    } else {
        println!("perf_report: wrote {}", roofline_path.display());
    }
    let mut t = Table::new(
        "Roofline placement (per workload)",
        &[
            "workload", "class", "limiter", "AI", "ops/cyc", "B/cyc", "roof%",
        ],
    );
    for pt in &points {
        t.row(vec![
            pt.id.clone(),
            pt.class.label().to_string(),
            pt.recomputed_limiter.to_string(),
            format!("{:.3}", pt.arithmetic_intensity),
            format!("{:.1}", pt.achieved_ops_per_cycle),
            format!("{:.1}", pt.achieved_bytes_per_cycle),
            format!("{:.1}", pt.roof_fraction() * 100.0),
        ]);
    }
    t.print();
    let disagreements = roofline::check_agreement(&points);
    println!(
        "\nroofline agreement: {}/{}",
        points.len() - disagreements.len(),
        points.len()
    );
    for d in &disagreements {
        eprintln!("perf_report: LIMITER DISAGREEMENT {d}");
    }

    // ---- hotspots ---------------------------------------------------
    let mut by_time: Vec<&(String, gpu_sim::KernelProfile)> = runs.iter().collect();
    by_time.sort_by(|a, b| b.1.gpu_time_ms.total_cmp(&a.1.gpu_time_ms));
    let mut t = Table::new(
        format!("Hotspots (top {top_k} by GPU time)"),
        &[
            "workload",
            "gpu ms",
            "limiter",
            "L1%",
            "L2%",
            "row-loc%",
            "stall mem/sync/atomic cyc",
        ],
    );
    for (id, p) in by_time.iter().take(top_k) {
        let hw = p.accounting.hw(&s.device);
        t.row(vec![
            id.clone(),
            fmt_ms(p.gpu_time_ms),
            p.limiter.name().to_string(),
            format!("{:.1}", p.l1_hit_rate * 100.0),
            format!("{:.1}", p.l2_hit_rate * 100.0),
            format!("{:.1}", hw.row_locality() * 100.0),
            format!(
                "{}/{}/{}",
                hw.stall_mem_cycles, hw.stall_sync_cycles, hw.stall_atomic_cycles
            ),
        ]);
    }
    t.print();

    // ---- regressions vs committed baseline --------------------------
    let current = suite::snapshot_from(&s, &runs);
    match snapshot::latest(&baseline_dir) {
        Some((seq, path)) => match Snapshot::load(&path) {
            Ok(baseline) => {
                let report = gate::compare(&baseline, &current, &GateConfig::default());
                let mut regressions = report.regressions.clone();
                regressions.sort_by(|a, b| b.rel.abs().total_cmp(&a.rel.abs()));
                regressions.truncate(top_k);
                println!(
                    "\nvs baseline BENCH_{seq}.json: {} regression(s), {} improvement(s)",
                    report.regressions.len(),
                    report.improvements.len()
                );
                for e in &report.errors {
                    println!("  note: {e}");
                }
                for r in &regressions {
                    println!(
                        "  {}: {} {:+.2}% ({} -> {}) limiter {} -> {}",
                        r.id,
                        r.metric,
                        r.rel * 100.0,
                        r.old,
                        r.new,
                        r.limiter_old,
                        r.limiter_new
                    );
                    for m in r.attribution.iter().take(3) {
                        println!("      {} {:+.1}%", m.metric, m.rel * 100.0);
                    }
                }
            }
            Err(e) => eprintln!("perf_report: {e}"),
        },
        None => println!(
            "\nno BENCH_*.json baseline in {} (skipping regression attribution)",
            baseline_dir.display()
        ),
    }

    let a = telemetry::alloc::thread_alloc_stats();
    println!(
        "alloc (main thread): {} allocations, {:.2} MB requested",
        a.allocs,
        a.bytes as f64 / 1e6
    );

    if !disagreements.is_empty() {
        eprintln!(
            "perf_report: FAIL — {} workload(s) where the roofline classification \
             disagrees with the cost model's limiter",
            disagreements.len()
        );
        std::process::exit(1);
    }
    println!("perf_report: OK");
}
