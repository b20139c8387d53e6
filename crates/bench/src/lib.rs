//! # tlpgnn-bench — experiment harness
//!
//! Every table, figure, extension and ablation of the reproduction is a
//! function in [`experiments`] behind one registry, run as
//! `repro <name>`; `repro list` prints the names. This library also holds
//! the pieces the experiments and the gate programs share: run sizing
//! ([`Env`]), feature generation, table formatting and telemetry export.
//! The serving stack's checks are `tlpgnn-serve`'s tests, and its
//! wall-clock is measured by the standalone `benchmark/` package, not
//! here.
//!
//! Environment knobs:
//! * `TLPGNN_SCALE=<k>` — extra scale divisor on top of each dataset's
//!   default (e.g. `TLPGNN_SCALE=4` quarters every graph). Use for quick
//!   runs on small machines.
//! * `TLPGNN_QUICK=1` — shorthand for `TLPGNN_SCALE=8`.
//! * `TLPGNN_TELEMETRY=0` — disable telemetry collection/export (on by
//!   default in the bench binaries; see [`telemetry_scope`]).
//! * `TLPGNN_RESULTS_DIR=<dir>` — where telemetry exports land
//!   (default `results/`).

#![warn(missing_docs)]

use gpu_sim::DeviceConfig;
use tlpgnn::{EngineOptions, HybridHeuristic, TlpgnnEngine};
use tlpgnn_baselines::TlpgnnSystem;
use tlpgnn_graph::{datasets::DatasetSpec, Csr};
use tlpgnn_tensor::Matrix;

pub mod experiments;

/// How a run is sized: the extra scale divisor applied on top of every
/// dataset's default, and everything that must shrink with it — the
/// graph, the device (SM count and L2) and the hybrid heuristic's vertex
/// threshold. The experiments read it from the environment once
/// ([`Env::from_env`]); the repro gate pins it to a constant, so the two
/// cannot size a device differently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Env {
    /// Extra scale divisor (≥ 1) on top of each dataset's default.
    pub extra_scale: usize,
}

impl Env {
    /// `TLPGNN_QUICK` / `TLPGNN_SCALE` (see crate docs); 1 when unset.
    pub fn from_env() -> Self {
        let quick = std::env::var("TLPGNN_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
        let extra_scale = if quick {
            8
        } else {
            std::env::var("TLPGNN_SCALE")
                .ok()
                .and_then(|v| v.parse().ok())
                .filter(|&v| v >= 1)
                .unwrap_or(1)
        };
        Self { extra_scale }
    }

    /// Effective total scale divisor of a dataset.
    pub(crate) fn effective_scale(&self, spec: &DatasetSpec) -> usize {
        spec.default_scale * self.extra_scale
    }

    /// Load a dataset at its default scale × the extra scale.
    pub fn load(&self, spec: &DatasetSpec) -> Csr {
        spec.load_scaled(self.extra_scale)
    }

    /// `base` shrunk to match a dataset's scale divisor.
    ///
    /// When a graph is shrunk 1/k, running it on the full device changes
    /// the regime: a graph that filled the paper's device for dozens of
    /// waves would fit in a single wave, and block-scheduling/critical-path
    /// floors dominate instead of bandwidth. Shrinking the device by the
    /// same factor (SM count and L2, with a floor of 8 SMs) preserves
    /// waves-per-SM and the bytes-per-L2 ratio, so limiters and crossovers
    /// land where they do at full scale.
    pub fn shrink(&self, mut base: DeviceConfig, spec: &DatasetSpec) -> DeviceConfig {
        let sms = (base.num_sms / self.effective_scale(spec)).clamp(8, base.num_sms);
        base.l2_bytes = (base.l2_bytes * sms / base.num_sms).max(768 * 1024);
        base.num_sms = sms;
        base
    }

    /// The simulated V100 scaled to a dataset (see [`Env::shrink`]).
    pub fn device_for(&self, spec: &DatasetSpec) -> DeviceConfig {
        let mut cfg = self.shrink(DeviceConfig::v100(), spec);
        cfg.name = format!("SimV100/{}", cfg.num_sms);
        cfg
    }

    /// Hybrid heuristic with its vertex threshold scaled to a dataset.
    pub fn heuristic_for(&self, spec: &DatasetSpec) -> HybridHeuristic {
        HybridHeuristic::scaled(self.effective_scale(spec))
    }

    /// TLPGNN engine on `cfg` with the heuristic scaled to a dataset.
    pub(crate) fn engine_on(&self, cfg: DeviceConfig, spec: &DatasetSpec) -> TlpgnnEngine {
        TlpgnnEngine::new(
            cfg,
            EngineOptions {
                heuristic: self.heuristic_for(spec),
                ..Default::default()
            },
        )
    }

    /// TLPGNN engine with device and heuristic scaled to a dataset.
    pub fn engine_for(&self, spec: &DatasetSpec) -> TlpgnnEngine {
        self.engine_on(self.device_for(spec), spec)
    }

    /// [`Env::engine_for`] behind the `GnnSystem` interface the
    /// baselines share.
    pub(crate) fn system_for(&self, spec: &DatasetSpec) -> TlpgnnSystem {
        TlpgnnSystem::with_scaled_heuristic(self.device_for(spec), self.effective_scale(spec))
    }

    /// Print the standard run header (device, scale) so logs are
    /// self-describing.
    pub(crate) fn print_header(&self, experiment: &str) {
        println!("=== {experiment} ===");
        println!(
            "device: SimV100 scaled per dataset (see device_for) | extra scale: {} | see EXPERIMENTS.md",
            self.extra_scale
        );
    }
}

/// Where run artifacts land: `TLPGNN_RESULTS_DIR`, default `results/`.
pub fn results_dir() -> std::path::PathBuf {
    std::env::var("TLPGNN_RESULTS_DIR")
        .unwrap_or_else(|_| "results".into())
        .into()
}

/// Random features for a graph, seeded per dataset (paper §7.1: random
/// 32-bit floats).
pub fn features(g: &Csr, feat_dim: usize, seed: u64) -> Matrix {
    Matrix::random(g.num_vertices(), feat_dim, 1.0, seed)
}

/// Format milliseconds the way the paper's tables do (2–3 significant
/// digits).
pub fn fmt_ms(ms: f64) -> String {
    if ms < 0.095 {
        format!("{ms:.3}")
    } else if ms < 9.95 {
        format!("{ms:.2}")
    } else {
        format!("{ms:.1}")
    }
}

/// A printable results table (markdown-flavoured, also readable as plain
/// text).
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row/header mismatch");
        self.rows.push(cells);
    }

    /// Render to stdout.
    pub fn print(&self) {
        println!("\n## {}\n", self.title);
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            println!("| {} |", padded.join(" | "));
        };
        line(&self.headers);
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        println!("|-{}-|", sep.join("-|-"));
        for row in &self.rows {
            line(row);
        }
    }
}

/// RAII guard that scopes telemetry collection to one experiment run and
/// exports the results on drop.
///
/// Created by [`telemetry_scope`] at the top of every bench binary's
/// `main` (by `repro` around each subcommand). On creation it resets the
/// global collector and turns collection on (unless
/// `TLPGNN_TELEMETRY=0`); on drop it turns collection off and writes
/// these files under the results directory (`TLPGNN_RESULTS_DIR`,
/// default `results/`):
///
/// * `<name>.trace.json` — Chrome `trace_event` timeline; open in
///   Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
/// * `<name>.metrics.json` — counters, gauges, and per-kernel histogram
///   summaries (p50/p90/p99), diffable with the `telemetry-diff` tool.
/// * `<name>.events.jsonl` — flat span/kernel event log, one JSON per
///   line, for ad-hoc scripting.
/// * `<name>.folded.txt` — folded stacks over the recorded spans (self
///   time); feed to `flamegraph.pl` or drop into speedscope for a flame
///   graph.
/// * `<name>.folded_total.txt` — the cumulative (inclusive-time) variant
///   of the folded stacks, for "how expensive is this subtree" reading.
pub struct TelemetryScope {
    name: String,
    dir: std::path::PathBuf,
    active: bool,
}

/// Start a telemetry scope named after the experiment (see
/// [`TelemetryScope`] for the files it writes on drop).
pub fn telemetry_scope(name: &str) -> TelemetryScope {
    let active = !std::env::var("TLPGNN_TELEMETRY").is_ok_and(|v| v == "0");
    if active {
        telemetry::reset();
        telemetry::set_enabled(true);
    }
    TelemetryScope {
        name: name.to_string(),
        dir: results_dir(),
        active,
    }
}

impl Drop for TelemetryScope {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        telemetry::set_enabled(false);
        let c = telemetry::collector();
        let trace = self.dir.join(format!("{}.trace.json", self.name));
        let metrics = self.dir.join(format!("{}.metrics.json", self.name));
        let events = self.dir.join(format!("{}.events.jsonl", self.name));
        let folded = self.dir.join(format!("{}.folded.txt", self.name));
        let folded_total = self.dir.join(format!("{}.folded_total.txt", self.name));
        let r = telemetry::export::write_chrome_trace(c, &trace)
            .and_then(|()| telemetry::export::write_metrics_json(c, &metrics))
            .and_then(|()| telemetry::export::write_events_jsonl(c, &events))
            .and_then(|()| telemetry::export::write_folded_stacks(c, &folded))
            .and_then(|()| telemetry::export::write_folded_stacks_cumulative(c, &folded_total));
        match r {
            Ok(()) => eprintln!(
                "telemetry: wrote {}, {}, {}, {}, {}",
                trace.display(),
                metrics.display(),
                events.display(),
                folded.display(),
                folded_total.display()
            ),
            Err(e) => eprintln!("telemetry: export failed: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ms_digits() {
        assert_eq!(fmt_ms(0.0264), "0.026");
        assert_eq!(fmt_ms(1.234), "1.23");
        assert_eq!(fmt_ms(41.26), "41.3");
    }

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.print(); // must not panic
    }

    #[test]
    #[should_panic(expected = "row/header mismatch")]
    fn table_checks_width() {
        let mut t = Table::new("t", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }
}
