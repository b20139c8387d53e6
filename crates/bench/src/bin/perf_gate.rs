//! **perf_gate** — the continuous performance-regression gate.
//!
//! Runs the pinned perfgate suite (see `tlpgnn-perfgate`) through the
//! deterministic simulator and compares the result against the latest
//! committed `BENCH_<seq>.json` baseline:
//!
//! ```text
//! perf_gate [--bless] [--smoke] [--baseline-dir DIR] [--threshold REL]
//! ```
//!
//! * no flags — gate mode: exit non-zero (with a limiter-attribution
//!   report) if any workload's cycles or peak memory regressed beyond
//!   the threshold, or if no baseline exists.
//! * `--bless` — re-baseline: write `BENCH_<seq+1>.json` capturing the
//!   current numbers (no-op if the latest baseline already matches).
//! * `--smoke` — run the small suite instead of the full matrix (quick
//!   local runs; its fingerprint differs, so it gates against its own
//!   baselines, not the committed full ones).
//! * `--threshold` — relative gate threshold (default 0.005 = 0.5%).
//!
//! The run also writes the usual telemetry bundle (including the folded
//! flamegraph) plus `results/perf_gate.current.json` with the snapshot
//! that was compared, for offline diffing via `telemetry-diff`.

use std::path::{Path, PathBuf};

use tlpgnn_perfgate::gate::{self, GateConfig};
use tlpgnn_perfgate::snapshot::{self, Snapshot};
use tlpgnn_perfgate::suite::{self, Suite};

fn usage() -> ! {
    eprintln!("usage: perf_gate [--bless] [--smoke] [--baseline-dir DIR] [--threshold REL]");
    std::process::exit(2);
}

fn main() {
    let _telemetry = tlpgnn_bench::telemetry_scope("perf_gate");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut bless = false;
    let mut smoke = false;
    let mut baseline_dir = PathBuf::from(".");
    let mut cfg = GateConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--bless" => bless = true,
            "--smoke" => smoke = true,
            "--baseline-dir" => {
                i += 1;
                baseline_dir = args.get(i).map(PathBuf::from).unwrap_or_else(|| usage());
            }
            "--threshold" | "-t" => {
                i += 1;
                cfg.threshold = args
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
        "perf_gate: suite `{}` ({} workloads) on {} | fingerprint {} | threshold {:.2}%",
        s.name,
        s.workloads.len(),
        s.device.name,
        s.fingerprint(),
        cfg.threshold * 100.0
    );
    let mut current = suite::run(&s);
    current.git_sha = snapshot::git_sha(Path::new("."));

    // Keep the run inspectable regardless of the gate's verdict.
    let results_dir = tlpgnn_bench::results_dir();
    let _ = std::fs::create_dir_all(&results_dir);
    let current_path = results_dir.join("perf_gate.current.json");

    let Some((seq, path)) = snapshot::latest(&baseline_dir) else {
        current.seq = 1;
        let _ = current.save(&current_path);
        if bless {
            let p = snapshot::bench_path(&baseline_dir, 1);
            if let Err(e) = current.save(&p) {
                eprintln!("perf_gate: cannot write {}: {e}", p.display());
                std::process::exit(2);
            }
            println!("perf_gate: blessed initial baseline {}", p.display());
            return;
        }
        eprintln!(
            "perf_gate: no BENCH_*.json baseline in {}; create one with --bless",
            baseline_dir.display()
        );
        std::process::exit(1);
    };

    let baseline = Snapshot::load(&path).unwrap_or_else(|e| {
        eprintln!("perf_gate: {e}");
        std::process::exit(2);
    });
    current.seq = seq + 1;
    let _ = current.save(&current_path);

    println!(
        "perf_gate: baseline {} (seq {seq}, git {})",
        path.display(),
        baseline.git_sha
    );
    let report = gate::compare(&baseline, &current, &cfg);
    print!("{}", report.render());

    if bless {
        if baseline.config_fingerprint == current.config_fingerprint
            && baseline.workloads == current.workloads
        {
            println!("perf_gate: baseline {} already up to date", path.display());
            return;
        }
        let p = snapshot::bench_path(&baseline_dir, seq + 1);
        if let Err(e) = current.save(&p) {
            eprintln!("perf_gate: cannot write {}: {e}", p.display());
            std::process::exit(2);
        }
        println!("perf_gate: blessed {}", p.display());
        return;
    }
    if !report.passed() {
        std::process::exit(1);
    }
}
