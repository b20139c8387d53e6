//! The suite-level subcommands: `run` and `trace` (every workload, each
//! in its own child process), `selfcheck` (the benchmark's own noise
//! bounds) and `compare` (parent against change, per workload and
//! metric).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use telemetry::json::{self, Value};

use crate::names::{self, Better, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats;

/// Where the suite writes its files, relative to the working directory
/// (the repo root).
pub const OUT_DIR: &str = "benchmark/out";

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One workload's result as its child process printed it.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Whether every checked operation was correct.
    pub correct: bool,
    /// Operations checked.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// One pass over all six workloads.
pub type Suite = BTreeMap<String, WorkloadResult>;

fn parse_result(v: &Value) -> Option<WorkloadResult> {
    let mut metrics = BTreeMap::new();
    for (name, m) in v.get("metrics")?.as_obj()? {
        metrics.insert(name.clone(), m.get("value")?.as_f64()?);
    }
    Some(WorkloadResult {
        correct: v.get("correct")?.as_bool()?,
        attempted: v.get("attempted")?.as_f64()? as u64,
        failed: v.get("failed")?.as_f64()? as u64,
        metrics,
    })
}

fn result_to_json(r: &WorkloadResult) -> Value {
    let mut metrics = Value::object();
    for (name, value) in &r.metrics {
        let mut m = Value::object();
        m.set("value", *value)
            .set("unit", names::lookup(name).map_or("", |d| d.unit));
        metrics.set(name.as_str(), m);
    }
    let mut v = Value::object();
    v.set("correct", r.correct)
        .set("attempted", r.attempted)
        .set("failed", r.failed)
        .set("metrics", metrics);
    v
}

/// Run one workload in a child process of this same executable, so peak
/// memory and allocator state do not leak from one workload to the next.
/// The child's lines are passed through; its last line is the result.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: u32,
    trace: bool,
) -> Result<WorkloadResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for line in lines {
        println!("{line}");
    }
    json::parse(last)
        .ok()
        .and_then(|v| parse_result(&v))
        .ok_or_else(|| format!("{workload} printed no result (exit {})", output.status))
}

/// Run every workload once and write the suite to `file` under
/// [`OUT_DIR`].
fn run_suite(seed: u64, seconds: u32, trace: bool, file: &str) -> Result<Suite, String> {
    let mut suite = Suite::new();
    for workload in WORKLOADS {
        suite.insert(
            workload.to_string(),
            run_child(workload, seed, seconds, trace)?,
        );
    }
    let mut workloads = Value::object();
    for (name, r) in &suite {
        workloads.set(name.as_str(), result_to_json(r));
    }
    let mut doc = Value::object();
    doc.set("seed", seed)
        .set("seconds", seconds)
        .set("trace", trace)
        .set(
            "threads",
            std::thread::available_parallelism().map_or(1, usize::from),
        )
        .set("workloads", workloads);
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let path = Path::new(OUT_DIR).join(file);
    std::fs::write(&path, format!("{doc}\n"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("# wrote {}", path.display());
    Ok(suite)
}

fn load_suite(path: &Path) -> Result<Suite, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut suite = Suite::new();
    let workloads = doc
        .get("workloads")
        .and_then(Value::as_obj)
        .ok_or_else(|| format!("{}: no workloads object", path.display()))?;
    for (name, v) in workloads {
        let r =
            parse_result(v).ok_or_else(|| format!("{}: bad result for {name}", path.display()))?;
        suite.insert(name.clone(), r);
    }
    Ok(suite)
}

fn all_correct(suite: &Suite) -> bool {
    suite.values().all(|r| r.correct && r.failed == 0)
}

/// Regression bound of every end-to-end metric, from `BENCHMARK.json`.
fn bounds() -> BTreeMap<String, f64> {
    let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    doc.get("end_to_end")
        .and_then(Value::as_arr)
        .expect("BENCHMARK.json lists end_to_end")
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

/// The length of a run, from `BENCHMARK.json`, unless overridden.
fn default_seconds() -> u32 {
    json::parse(BENCHMARK_JSON)
        .ok()
        .and_then(|d| d.get("run_seconds")?.as_f64())
        .map_or(10, |s| s as u32)
}

struct SuiteArgs {
    seed: u64,
    seconds: u32,
}

fn suite_args(args: &[String]) -> Result<SuiteArgs, String> {
    let mut parsed = SuiteArgs {
        seed: 42,
        seconds: default_seconds(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--seed" => parsed.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(parsed)
}

fn fail(message: String) -> ExitCode {
    eprintln!("{message}");
    ExitCode::FAILURE
}

/// `run` (the untraced pass over every workload) and `trace` (the traced
/// pass; end-to-end numbers are never taken from it).
pub fn suite(args: &[String], trace: bool) -> ExitCode {
    let file = if trace { "per_layer.json" } else { "run.json" };
    match suite_args(args).and_then(|a| run_suite(a.seed, a.seconds, trace, file)) {
        Ok(suite) if all_correct(&suite) => ExitCode::SUCCESS,
        Ok(_) => fail("a workload reported failed operations".into()),
        Err(e) => fail(e),
    }
}

/// How a metric changed, as a share of its base, counted positive when
/// it got worse.
fn worsening(def: &MetricDef, base: f64, value: f64) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    let change = (value - base) / base.abs();
    match def.better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// `selfcheck`: the suite twice with one seed and once with another.
/// Exact metrics must repeat exactly for the same seed, timed end-to-end
/// metrics must agree within their bounds, and no operation may fail
/// (each run checks that its generator conserved requests).
pub fn selfcheck(args: &[String]) -> ExitCode {
    let a = match suite_args(args) {
        Ok(a) => a,
        Err(e) => return fail(e),
    };
    let mut problems = Vec::new();
    let mut passes = Vec::new();
    for (label, seed) in [("a", a.seed), ("b", a.seed), ("c", a.seed + 1)] {
        let e2e = run_suite(
            seed,
            a.seconds,
            false,
            &format!("selfcheck.{label}.run.json"),
        );
        let layers = run_suite(
            seed,
            a.seconds,
            true,
            &format!("selfcheck.{label}.per_layer.json"),
        );
        match (e2e, layers) {
            (Ok(e2e), Ok(layers)) => {
                if !all_correct(&e2e) || !all_correct(&layers) {
                    problems.push(format!(
                        "pass {label}: a workload reported failed operations"
                    ));
                }
                passes.push((e2e, layers));
            }
            (Err(e), _) | (_, Err(e)) => return fail(e),
        }
    }

    let bounds = bounds();
    for workload in WORKLOADS {
        for def in PER_LAYER.iter().filter(|d| d.exact) {
            let (x, y) = (
                passes[0].1[workload].metrics.get(def.name),
                passes[1].1[workload].metrics.get(def.name),
            );
            if x.map(|v| v.to_bits()) != y.map(|v| v.to_bits()) {
                problems.push(format!(
                    "{workload} {}: {x:?} then {y:?} for the same seed (must repeat exactly)",
                    def.name
                ));
            }
        }
        for def in &END_TO_END {
            let (x, y) = (
                passes[0].0[workload].metrics[def.name],
                passes[1].0[workload].metrics[def.name],
            );
            let off = worsening(def, x, y).abs();
            if off > bounds[def.name] {
                problems.push(format!(
                    "{workload} {}: {x} then {y}, {:.1}% apart (bound {:.0}%)",
                    def.name,
                    off * 100.0,
                    bounds[def.name] * 100.0
                ));
            }
        }
    }

    println!();
    println!(
        "{:<14} {:<16} {:>12} {:>12} {:>12} {:>8} {:>3}  unit",
        "workload", "metric", "q1", "median", "q3", "spread", "n"
    );
    for workload in WORKLOADS {
        for def in &END_TO_END {
            let values: Vec<f64> = passes
                .iter()
                .map(|p| p.0[workload].metrics[def.name])
                .collect();
            let (q1, q2, q3) = stats::quartiles(&values);
            println!(
                "{workload:<14} {:<16} {q1:>12.4} {q2:>12.4} {q3:>12.4} {:>7.1}% {:>3}  {}",
                def.name,
                stats::spread(&values) * 100.0,
                values.len(),
                def.unit
            );
        }
    }
    if problems.is_empty() {
        println!("selfcheck passed: exact metrics repeat, timed metrics within bounds, no failed operations");
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            println!("selfcheck: {p}");
        }
        ExitCode::FAILURE
    }
}

/// What `compare` concludes for one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins at least nine tenths of at least ten pairs and the
    /// medians differ by more than the parent's own spread.
    Improved,
    /// No worse than the parent by more than the bound.
    Unchanged,
    /// The parent's run-to-run spread is wider than the bound (or, from a
    /// single parent run, unknown), and the change's runs are not all
    /// better than all of the parent's.
    Unresolved,
    /// Worse than the parent by more than the bound.
    Regressed,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved (spread > bound or unknown)",
            Verdict::Regressed => "regressed",
        }
    }
}

/// Judge one metric on one workload from the runs of both sides
/// (choosing-metrics §6–§8). Runs are paired in order.
pub fn judge(def: &MetricDef, bound: f64, parent: &[f64], change: &[f64]) -> Verdict {
    let (p, c) = (stats::median(parent), stats::median(change));
    let better = |a: f64, b: f64| match def.better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    };
    let (q1, _, q3) = stats::quartiles(parent);
    let iqr = q3 - q1;
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    let gain = pairs >= 10 && wins * 10 >= pairs * 9 && better(c, p) && (c - p).abs() > iqr;
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let worse = worsening(def, p, c) > bound;
    // Too noisy to tell, or (from one parent run) no idea how noisy.
    let noisy = p != 0.0 && iqr / p.abs() > bound && !all_better;
    if noisy || (worse && parent.len() < 2) {
        Verdict::Unresolved
    } else if worse {
        Verdict::Regressed
    } else if gain {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// `compare <parent runs> <change runs>`: each side a comma-separated
/// list of `run.json` files, paired in order. One row per workload and
/// end-to-end metric.
pub fn compare(args: &[String]) -> ExitCode {
    let [parent, change] = args else {
        return fail("usage: benchmark compare <a.json[,a2.json...]> <b.json[,b2.json...]>".into());
    };
    let load = |list: &str| -> Result<Vec<Suite>, String> {
        list.split(',')
            .map(|p| load_suite(&PathBuf::from(p)))
            .collect()
    };
    let (parents, changes) = match (load(parent), load(change)) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => return fail(e),
    };
    let bounds = bounds();
    println!(
        "{:<14} {:<16} {:>14} {:>14}  {:<34} {:>6}  verdict",
        "workload", "metric", "parent median", "change median", "ratio (of base)", "bound"
    );
    let mut regressed = false;
    for workload in WORKLOADS {
        for def in &END_TO_END {
            let side = |suites: &[Suite]| -> Vec<f64> {
                suites
                    .iter()
                    .filter_map(|s| s.get(workload)?.metrics.get(def.name).copied())
                    .collect()
            };
            let (p, c) = (side(&parents), side(&changes));
            if p.is_empty() || c.is_empty() {
                println!("{workload:<14} {:<16} missing on one side", def.name);
                regressed = true;
                continue;
            }
            let (pm, cm) = (stats::median(&p), stats::median(&c));
            let verdict = judge(def, bounds[def.name], &p, &c);
            regressed |= verdict == Verdict::Regressed;
            println!(
                "{workload:<14} {:<16} {pm:>14.4} {cm:>14.4}  {:<34} {:>5.0}%  {}",
                def.name,
                format!(
                    "{:.3}x of {pm:.4} {} (n={}+{})",
                    cm / pm,
                    def.unit,
                    p.len(),
                    c.len()
                ),
                bounds[def.name] * 100.0,
                verdict.word()
            );
        }
        let failed = |suites: &[Suite]| -> u64 {
            suites
                .iter()
                .filter_map(|s| s.get(workload))
                .map(|r| r.failed)
                .sum()
        };
        if failed(&changes) > failed(&parents) {
            println!("{workload:<14} more operations failed than at the parent: no gain counts");
            regressed = true;
        }
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LATENCY: MetricDef = END_TO_END[2];
    const THROUGHPUT: MetricDef = END_TO_END[1];

    #[test]
    fn metric_positions() {
        assert_eq!(LATENCY.name, "latency_p50_ms");
        assert_eq!(THROUGHPUT.name, "throughput_rps");
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(&LATENCY, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(&THROUGHPUT, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!(worsening(&THROUGHPUT, 100.0, 120.0) < 0.0);
    }

    #[test]
    fn verdicts() {
        let steady: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i) * 0.1).collect();
        // Every pair wins, by far more than the parent's spread.
        let faster: Vec<f64> = steady.iter().map(|v| v * 0.8).collect();
        assert_eq!(judge(&LATENCY, 0.1, &steady, &faster), Verdict::Improved);
        // The same gain from too few pairs is not claimed.
        assert_eq!(
            judge(&LATENCY, 0.1, &steady[..5], &faster[..5]),
            Verdict::Unchanged
        );
        // Within the bound.
        let slightly: Vec<f64> = steady.iter().map(|v| v * 1.05).collect();
        assert_eq!(judge(&LATENCY, 0.1, &steady, &slightly), Verdict::Unchanged);
        // Beyond it.
        let slower: Vec<f64> = steady.iter().map(|v| v * 1.2).collect();
        assert_eq!(judge(&LATENCY, 0.1, &steady, &slower), Verdict::Regressed);
        assert_eq!(
            judge(&THROUGHPUT, 0.1, &steady, &faster),
            Verdict::Regressed
        );
        // A single run per side cannot tell a regression from noise.
        assert_eq!(
            judge(&LATENCY, 0.1, &[100.0], &[150.0]),
            Verdict::Unresolved
        );
        assert_eq!(judge(&LATENCY, 0.1, &[100.0], &[101.0]), Verdict::Unchanged);
        // A parent noisier than the bound resolves nothing ...
        let noisy: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 5) * 10.0).collect();
        assert_eq!(judge(&LATENCY, 0.1, &noisy, &slower), Verdict::Unresolved);
        // ... unless every run of the change beats every run of the parent.
        let far: Vec<f64> = noisy.iter().map(|v| v * 0.5).collect();
        assert_eq!(judge(&LATENCY, 0.1, &noisy, &far), Verdict::Improved);
    }

    #[test]
    fn result_round_trips_through_json() {
        let mut metrics = BTreeMap::new();
        metrics.insert("setup_s".to_string(), 0.512676854);
        let r = WorkloadResult {
            correct: true,
            attempted: 5074,
            failed: 0,
            metrics,
        };
        let back = parse_result(&json::parse(&result_to_json(&r).to_string()).unwrap()).unwrap();
        assert_eq!(back.attempted, 5074);
        assert!(back.correct);
        assert_eq!(back.metrics["setup_s"].to_bits(), 0.512676854f64.to_bits());
    }

    #[test]
    fn bounds_cover_every_end_to_end_metric() {
        let b = bounds();
        for def in &END_TO_END {
            assert!(b.contains_key(def.name), "{}", def.name);
        }
        assert!((1..=60).contains(&default_seconds()));
    }
}
