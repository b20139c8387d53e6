//! **perf_gate** — the continuous performance-regression gate and the
//! roofline record, from one run of the pinned suite.
//!
//! Runs the pinned full perfgate suite (see `tlpgnn-perfgate`) through
//! the deterministic simulator once, compares the result against the
//! latest committed `BENCH_<seq>.json` baseline in the working directory,
//! and classifies the same runs on the device's roofline:
//!
//! ```text
//! perf_gate [--bless]
//! ```
//!
//! * no flags — gate mode: exit non-zero (with a limiter-attribution
//!   report) if any workload's cycles or peak memory regressed by more
//!   than 0.5%, if no baseline exists, or if any workload's roofline
//!   classification disagrees with the limiter the cost model stored.
//! * `--bless` — re-baseline: write `BENCH_<seq+1>.json` capturing the
//!   current numbers (no-op if the latest baseline already matches).
//!
//! Every run writes `results/roofline.json`, the committed record of
//! every workload's roofline placement (the smoke suite's is pinned in
//! `crates/bench/tests/golden/pins.txt`), the usual telemetry bundle,
//! and `results/perf_gate.current.json` with the snapshot that was
//! compared, for offline diffing via `telemetry-diff`.

use std::path::Path;

use tlpgnn_perfgate::gate::{self, GateConfig};
use tlpgnn_perfgate::roofline;
use tlpgnn_perfgate::snapshot::{self, Snapshot};
use tlpgnn_perfgate::suite::{self, Suite};

fn main() {
    let _telemetry = tlpgnn_bench::telemetry_scope("perf_gate");
    let bless = match std::env::args().skip(1).collect::<Vec<_>>().as_slice() {
        [] => false,
        [flag] if flag == "--bless" => true,
        _ => {
            eprintln!("usage: perf_gate [--bless]");
            std::process::exit(2);
        }
    };
    let cfg = GateConfig::default();
    let baseline_dir = Path::new(".");

    let s = Suite::full();
    println!(
        "perf_gate: suite `{}` ({} workloads) on {} | fingerprint {} | threshold {:.2}%",
        s.name,
        s.workloads.len(),
        s.device.name,
        s.fingerprint(),
        cfg.threshold * 100.0
    );
    let runs = suite::run_profiled(&s);
    let mut current = suite::snapshot_from(&s, &runs);
    current.git_sha = snapshot::git_sha(Path::new("."));

    // Keep the run inspectable regardless of the gate's verdict.
    let results_dir = tlpgnn_bench::results_dir();
    let _ = std::fs::create_dir_all(&results_dir);
    let current_path = results_dir.join("perf_gate.current.json");

    // Roofline attribution of the same runs: each workload's class is
    // recomputed from its launch ledger and must agree with the limiter
    // the launcher stored.
    let points = roofline::classify_all(&runs, &s.device);
    let roofline_path = results_dir.join("roofline.json");
    let report = roofline::report_pretty_string(&s.device.name, &points);
    if let Err(e) = std::fs::write(&roofline_path, report) {
        eprintln!("perf_gate: cannot write {}: {e}", roofline_path.display());
        std::process::exit(2);
    }
    let disagreements = roofline::check_agreement(&points);
    println!(
        "roofline agreement: {}/{}",
        points.len() - disagreements.len(),
        points.len()
    );
    for d in &disagreements {
        eprintln!("perf_gate: LIMITER DISAGREEMENT {d}");
    }

    let Some((seq, path)) = snapshot::latest(baseline_dir) else {
        current.seq = 1;
        let _ = current.save(&current_path);
        if bless {
            let p = snapshot::bench_path(baseline_dir, 1);
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
        let p = snapshot::bench_path(baseline_dir, seq + 1);
        if let Err(e) = current.save(&p) {
            eprintln!("perf_gate: cannot write {}: {e}", p.display());
            std::process::exit(2);
        }
        println!("perf_gate: blessed {}", p.display());
        return;
    }
    if !disagreements.is_empty() {
        eprintln!(
            "perf_gate: FAIL — {} roofline/limiter disagreement(s)",
            disagreements.len()
        );
        std::process::exit(1);
    }
    if !report.passed() {
        std::process::exit(1);
    }
}
