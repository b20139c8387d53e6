//! Versioned `BENCH_<seq>.json` snapshots: serialization, the on-disk
//! baseline store, and git-SHA stamping.
//!
//! A snapshot records, per workload, every [`gpu_sim::KernelProfile::gate_metrics`]
//! value plus the named limiter. Serialization goes through the
//! telemetry JSON layer, whose number formatting round-trips `f64`
//! exactly — so "the simulator is deterministic" becomes "the snapshot
//! file is byte-identical".

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use telemetry::json::{self, Value};

/// Snapshot schema identifier; bump on any layout change.
pub const SCHEMA: &str = "tlpgnn.bench.v1";

/// Metrics and limiter for one workload of the suite.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// `kernel/model/dataset` id.
    pub id: String,
    /// Dominant cost-model term name at the critical SM.
    pub limiter: String,
    /// Every gate metric by name (see `KernelProfile::gate_metrics`).
    pub metrics: BTreeMap<String, f64>,
}

/// One versioned bench snapshot (`BENCH_<seq>.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Schema identifier ([`SCHEMA`]).
    pub schema: String,
    /// Baseline sequence number (the `<seq>` in the filename).
    pub seq: u64,
    /// Git commit the snapshot was taken at ("unknown" outside a repo).
    pub git_sha: String,
    /// Suite name ("full" / "smoke").
    pub suite: String,
    /// Fingerprint of the suite configuration (see `Suite::fingerprint`).
    pub config_fingerprint: String,
    /// Simulated device name.
    pub device: String,
    /// Per-workload results, in suite order.
    pub workloads: Vec<WorkloadResult>,
}

impl Snapshot {
    /// Serialize to the snapshot JSON layout.
    pub fn to_json(&self) -> Value {
        let mut workloads = Value::array();
        for w in &self.workloads {
            let mut metrics = Value::object();
            for (k, v) in &w.metrics {
                metrics.set(k.clone(), *v);
            }
            let mut o = Value::object();
            o.set("id", w.id.clone())
                .set("limiter", w.limiter.clone())
                .set("metrics", metrics);
            workloads.push(o);
        }
        let mut o = Value::object();
        o.set("schema", self.schema.clone())
            .set("seq", self.seq)
            .set("git_sha", self.git_sha.clone())
            .set("suite", self.suite.clone())
            .set("config_fingerprint", self.config_fingerprint.clone())
            .set("device", self.device.clone())
            .set("workloads", workloads);
        o
    }

    /// Serialize with indentation, one metric per line — the form that
    /// gets committed, so baseline changes produce reviewable diffs.
    pub fn to_pretty_string(&self) -> String {
        json::pretty(&self.to_json())
    }

    /// Parse a document produced by [`Self::to_json`] /
    /// [`Self::to_pretty_string`].
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        let v = json::parse(text)?;
        let schema = req_str(&v, "schema")?;
        if schema != SCHEMA {
            return Err(format!(
                "unsupported snapshot schema {schema:?} (this build reads {SCHEMA:?})"
            ));
        }
        let mut workloads = Vec::new();
        for (i, w) in v
            .get("workloads")
            .and_then(Value::as_arr)
            .ok_or("missing workloads array")?
            .iter()
            .enumerate()
        {
            let mut metrics = BTreeMap::new();
            for (k, m) in w
                .get("metrics")
                .and_then(Value::as_obj)
                .ok_or_else(|| format!("workload {i}: missing metrics object"))?
            {
                let n = m
                    .as_f64()
                    .ok_or_else(|| format!("workload {i}: metric {k:?} is not a number"))?;
                metrics.insert(k.clone(), n);
            }
            workloads.push(WorkloadResult {
                id: req_str(w, "id").map_err(|e| format!("workload {i}: {e}"))?,
                limiter: req_str(w, "limiter").map_err(|e| format!("workload {i}: {e}"))?,
                metrics,
            });
        }
        Ok(Snapshot {
            schema,
            seq: v
                .get("seq")
                .and_then(Value::as_f64)
                .ok_or("missing numeric seq")? as u64,
            git_sha: req_str(&v, "git_sha")?,
            suite: req_str(&v, "suite")?,
            config_fingerprint: req_str(&v, "config_fingerprint")?,
            device: req_str(&v, "device")?,
            workloads,
        })
    }

    /// Write the pretty form to `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_pretty_string())
    }

    /// Load and parse a snapshot file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_json_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

fn req_str(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

/// `BENCH_<seq>.json` inside `dir`.
pub fn bench_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("BENCH_{seq}.json"))
}

/// Every `BENCH_<seq>.json` in `dir`, ascending by sequence number.
fn scan(dir: &Path) -> Vec<(u64, PathBuf)> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = name
            .strip_prefix("BENCH_")
            .and_then(|rest| rest.strip_suffix(".json"))
            .and_then(|num| num.parse::<u64>().ok())
        {
            out.push((seq, entry.path()));
        }
    }
    out.sort();
    out
}

/// The highest-sequence baseline in `dir`, if any.
pub fn latest(dir: &Path) -> Option<(u64, PathBuf)> {
    scan(dir).into_iter().next_back()
}

/// Resolve the current git commit SHA by reading `.git` directly (no
/// subprocess): follows `HEAD` through loose refs and `packed-refs`.
/// Returns `"unknown"` when anything is missing — the SHA is provenance
/// metadata, never part of a diff.
pub fn git_sha(repo_root: &Path) -> String {
    let git = repo_root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        // Detached HEAD: the file holds the SHA itself.
        return head.to_string();
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(refname)) {
        return sha.trim().to_string();
    }
    if let Ok(packed) = std::fs::read_to_string(git.join("packed-refs")) {
        for line in packed.lines() {
            if let Some((sha, name)) = line.split_once(' ') {
                if name.trim() == refname {
                    return sha.trim().to_string();
                }
            }
        }
    }
    "unknown".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut metrics = BTreeMap::new();
        metrics.insert("gpu_cycles".to_string(), 1234.5);
        metrics.insert("limiter.bandwidth".to_string(), 900.25);
        Snapshot {
            schema: SCHEMA.to_string(),
            seq: 3,
            git_sha: "abc123".to_string(),
            suite: "smoke".to_string(),
            config_fingerprint: "deadbeef".to_string(),
            device: "SimV100-gate8".to_string(),
            workloads: vec![WorkloadResult {
                id: "fused/gcn/power_law".to_string(),
                limiter: "bandwidth".to_string(),
                metrics,
            }],
        }
    }

    #[test]
    fn pretty_roundtrip() {
        let s = sample();
        let text = s.to_pretty_string();
        let back = Snapshot::from_json_str(&text).unwrap();
        assert_eq!(back, s);
        // The compact form parses too.
        let back2 = Snapshot::from_json_str(&s.to_json().to_string()).unwrap();
        assert_eq!(back2, s);
    }

    #[test]
    fn wrong_schema_rejected() {
        let text = s_with_schema("tlpgnn.bench.v0");
        let err = Snapshot::from_json_str(&text).unwrap_err();
        assert!(err.contains("unsupported snapshot schema"), "{err}");
    }

    fn s_with_schema(schema: &str) -> String {
        let mut s = sample();
        s.schema = schema.to_string();
        // Serialize without the schema check by patching the JSON text.
        s.to_json().to_string()
    }

    #[test]
    fn scan_orders_and_filters() {
        let dir = std::env::temp_dir().join(format!("tlpgnn-bench-scan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["BENCH_2.json", "BENCH_10.json", "BENCH_x.json", "notes.txt"] {
            std::fs::write(dir.join(name), "{}").unwrap();
        }
        let seqs: Vec<u64> = scan(&dir).into_iter().map(|(s, _)| s).collect();
        assert_eq!(seqs, vec![2, 10]);
        assert_eq!(latest(&dir).unwrap().0, 10);
        std::fs::remove_dir_all(&dir).ok();
    }
}
