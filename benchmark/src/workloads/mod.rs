//! The six workloads. Each is one process: it sets up from the seed,
//! warms up, measures for the given time, checks its outputs outside
//! the timed sections, and returns either the end-to-end metrics
//! (untraced pass) or the per-layer metrics (traced pass).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use tlpgnn::GnnModel;
use tlpgnn_tensor::Matrix;

use crate::spans::Tracer;
use crate::stats;

pub mod native_conv;
pub mod serve;
pub mod sim_conv;

/// The untraced pass sets up at least this many times; `setup_s` is the
/// median, so one slow set-up does not decide it.
pub const MIN_SETUPS: usize = 3;
/// ... and keeps setting up until this much time went into it (short
/// set-ups are the noisiest), up to [`MAX_SETUPS`] rounds.
pub const MIN_SETUP_SECONDS: f64 = 3.0;
/// Most set-up rounds of one run.
pub const MAX_SETUPS: usize = 7;

/// What one invocation was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed section.
    pub seconds: f64,
    /// Traced pass (spans on, per-layer metrics) or untraced (end-to-end).
    pub trace: bool,
}

/// What one invocation measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose outcome was checked.
    pub attempted: u64,
    /// Of those, how many were refused, errored, came back flagged
    /// degraded or failed verification.
    pub failed: u64,
    /// Metric values by name. The untraced pass fills every end-to-end
    /// metric; the traced pass fills the per-layer metrics of the layers
    /// this workload exercises (the rest print as 0).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Lines for the reader: sample counts, layer shares, sizes.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Set one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Add a line for the reader.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Count one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Run the workload called `name`.
pub fn run(name: &str, cfg: &RunCfg, tracer: &mut Tracer) -> Option<Outcome> {
    Some(match name {
        "native_conv" => native_conv::run(cfg, tracer),
        "sim_conv" => sim_conv::run(cfg, tracer),
        "serve_cold" => serve::run(serve::Kind::Cold, cfg, tracer),
        "serve_hot" => serve::run(serve::Kind::Hot, cfg, tracer),
        "serve_churn" => serve::run(serve::Kind::Churn, cfg, tracer),
        "serve_sharded" => serve::run(serve::Kind::Sharded, cfg, tracer),
        _ => return None,
    })
}

/// Check one convolution's output against the serial oracle's and count
/// it. Allowed `|got - want|` is relative to the reference's largest
/// magnitude (at least 1): `1e-4` for the sum family, whose engines add
/// each row in CSR order like the oracle, `1e-3` for GAT, whose softmax
/// normalisation reorders a division.
pub fn check_conv(out: &mut Outcome, what: &str, model: &GnnModel, got: &Matrix, want: &Matrix) {
    let tolerance = match model {
        GnnModel::Gat { .. } => 1e-3,
        _ => 1e-4,
    };
    let scale = want.data().iter().fold(1.0f32, |m, v| m.max(v.abs()));
    let diff = got.max_abs_diff(want);
    let ok = got.all_finite() && diff <= tolerance * scale;
    if !ok {
        out.note(format!(
            "MISMATCH {what}: max |diff| {diff} (scale {scale})"
        ));
    }
    out.check(ok);
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Set up several times (once in the traced pass, which does not report
/// set-up time), keep the last state, and return it with the median
/// set-up time in seconds. Earlier states are dropped before the next
/// set-up starts, so only one is alive at a time.
pub fn repeat_setup<S>(cfg: &RunCfg, mut setup: impl FnMut() -> S) -> (S, f64) {
    let mut times = Vec::with_capacity(MAX_SETUPS);
    let mut state = None;
    loop {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
        let enough = times.len() >= MIN_SETUPS && times.iter().sum::<f64>() >= MIN_SETUP_SECONDS;
        if cfg.trace || enough || times.len() == MAX_SETUPS {
            break;
        }
    }
    (
        state.expect("at least one set-up round"),
        stats::median(&times),
    )
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics every workload reports from its untraced pass.
pub struct EndToEnd {
    /// Median set-up time, s.
    pub setup_s: f64,
    /// Operations per second of each repetition.
    pub rep_ops_per_s: Vec<f64>,
    /// Latency of every timed operation, ms, one sample set per kind of
    /// operation the workload mixes (model × graph cases; one for a
    /// request stream).
    pub latencies_ms: Vec<Vec<f64>>,
    /// `VmHWM` when the timed section ended, MB: the workload's memory,
    /// before verification adds its reference engine and mirrors.
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    /// Write the five end-to-end metrics into `out`.
    ///
    /// `latency_p50_ms` is the median over the kinds of operation of each
    /// kind's median: a workload that cycles through cases of different
    /// cost has a gap in the middle of its pooled sample, and the pooled
    /// median jumps across it from run to run. `latency_p99_ms` is the
    /// tail of the pooled sample.
    pub fn report(&self, out: &mut Outcome) {
        let case_p50: Vec<f64> = self.latencies_ms.iter().map(|c| stats::median(c)).collect();
        let pooled = stats::sorted(self.latencies_ms.concat());
        let (tail_q, tail_ms) = stats::tail(&pooled);
        out.set("setup_s", self.setup_s);
        out.set("throughput_rps", stats::median(&self.rep_ops_per_s));
        let p50 = stats::median(&case_p50);
        out.set("latency_p50_ms", p50);
        // With few samples the pooled tail falls back towards the pooled
        // median, which can lie below the median of medians.
        out.set("latency_p99_ms", tail_ms.max(p50));
        out.set("peak_rss_mb", self.peak_rss_mb);
        out.note(format!(
            "samples: {} timed operations of {} kind(s) in {} repetitions; latency tail taken at p{:.1}",
            pooled.len(),
            self.latencies_ms.len(),
            self.rep_ops_per_s.len(),
            tail_q * 100.0
        ));
    }
}

/// Print each layer's share of the traced time, the unattributed
/// remainder on its own line.
pub fn note_layer_shares(out: &mut Outcome, tracer: &Tracer, remainder: &str) {
    let layers = tracer.layer_self_ns();
    let total: u64 = layers.iter().map(|l| l.1).sum();
    for (layer, ns) in layers {
        out.note(format!(
            "layer {layer}: {:.1} ms self time, {:.1}% of traced time",
            ns as f64 / 1e6,
            100.0 * ns as f64 / total.max(1) as f64
        ));
    }
    out.note(remainder.to_string());
}
