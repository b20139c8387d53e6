//! The repo's benchmark: six workloads, two clocks.
//!
//! `benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload in this process and prints its metrics, one per
//! line, then one JSON object as the last line of standard output. See
//! `benchmark/README.md` for the other subcommands.

mod gen;
mod names;
mod report;
mod spans;
mod stats;
mod window;
mod workloads;

use std::path::Path;
use std::process::ExitCode;

use telemetry::json::Value;

use names::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use spans::Tracer;
use workloads::RunCfg;

/// Spans the traced pass may record before counting drops: room for a
/// few spans per request at the fastest workload's rate.
const SPAN_CAPACITY: usize = 1 << 20;

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n\
         \x20      benchmark run|trace|selfcheck [--seed <n>] [--seconds <s>]\n\
         \x20      benchmark compare <parent.json[,...]> <change.json[,...]>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

/// Run one workload in this process (the contract's command line).
fn run_workload(args: &[String]) -> ExitCode {
    let mut workload = None;
    let mut cfg = RunCfg {
        seed: 42,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            eprintln!("flag {flag} needs a value");
            return usage();
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|v| cfg.seed = v).is_ok(),
            "--seconds" => value
                .parse()
                .map(|v: f64| cfg.seconds = v)
                .is_ok_and(|()| cfg.seconds > 0.0 && cfg.seconds <= 60.0),
            "--trace" => match value.as_str() {
                "0" => true,
                "1" => {
                    cfg.trace = true;
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            eprintln!("bad argument: {flag} {value}");
            return usage();
        }
    }
    let Some(workload) = workload else {
        return usage();
    };
    let mut tracer = Tracer::new(cfg.trace, SPAN_CAPACITY);
    let Some(outcome) = workloads::run(&workload, &cfg, &mut tracer) else {
        eprintln!("unknown workload {workload}");
        return usage();
    };
    if cfg.trace {
        if let Err(e) = tracer.write(Path::new(report::OUT_DIR), &workload) {
            eprintln!("cannot write {}: {e}", report::OUT_DIR);
            return ExitCode::FAILURE;
        }
    }

    for note in &outcome.notes {
        println!("# {workload} {note}");
    }
    let defs: &[MetricDef] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    for name in outcome.metrics.keys() {
        assert!(
            defs.iter().any(|d| d.name == *name),
            "{workload} reports {name}, which BENCHMARK.json does not declare for this pass"
        );
    }
    let mut metrics = Value::object();
    for def in defs {
        // A layer this workload does not exercise did no work: 0.
        let value = outcome.metrics.get(def.name).copied().unwrap_or(0.0);
        println!("{workload} {} {value} {}", def.name, def.unit);
        let mut m = Value::object();
        m.set("value", value).set("unit", def.unit);
        metrics.set(def.name, m);
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    let mut result = Value::object();
    result
        .set("correct", correct)
        .set("attempted", outcome.attempted)
        .set("failed", outcome.failed)
        .set("metrics", metrics);
    // The result line carries the verdict; `run`, `trace` and `selfcheck`
    // turn a failed operation into a non-zero exit.
    println!("{result}");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some(flag) if flag.starts_with("--") => run_workload(&args),
        Some("run") => report::suite(&args[1..], false),
        Some("trace") => report::suite(&args[1..], true),
        Some("selfcheck") => report::selfcheck(&args[1..]),
        Some("compare") => report::compare(&args[1..]),
        _ => usage(),
    }
}
