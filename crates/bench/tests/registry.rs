//! The registry is the one list of experiments, and it agrees with the
//! `repro` binary, with the committed record in `results/`, and — for the
//! sizing every experiment and the gate now share — with what the
//! deleted `repro_gate` helpers computed.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

use tlpgnn_bench::experiments::{gate::GATE, REGISTRY};
use tlpgnn_bench::Env;
use tlpgnn_graph::datasets;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn names_are_unique_and_equal_repro_list() {
    let names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
    let unique: BTreeSet<&str> = names.iter().copied().collect();
    assert_eq!(unique.len(), names.len(), "duplicate experiment name");
    assert!(!unique.contains("list") && !unique.contains("gate"));

    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("list")
        .output()
        .expect("run repro list");
    assert!(out.status.success());
    let listed = String::from_utf8(out.stdout).expect("utf-8");
    assert_eq!(listed.lines().collect::<Vec<_>>(), names);
}

/// Every experiment has a committed record and every record an
/// experiment. The two records that are not experiment tables are named.
#[test]
fn experiments_are_exactly_the_committed_records() {
    const OTHER_RECORDS: [&str; 2] = ["repro_gate", "device_clock_seed42"];
    let root = repo_root();
    let experiments: BTreeSet<String> = REGISTRY.iter().map(|e| e.name.to_string()).collect();
    for name in &experiments {
        let record = root.join(format!("results/{name}.txt"));
        assert!(record.is_file(), "no record {}", record.display());
    }

    // results/ also collects untracked per-run scratch, so "committed"
    // is asked of git; a source tree without git checks only the
    // direction above.
    let tracked = Command::new("git")
        .args(["ls-files", "--", "results"])
        .current_dir(&root)
        .output();
    let Some(tracked) = tracked.ok().filter(|o| o.status.success()) else {
        eprintln!("not a git checkout: record -> experiment direction not checked");
        return;
    };
    let mut records: BTreeSet<String> = String::from_utf8(tracked.stdout)
        .expect("utf-8")
        .lines()
        .filter_map(|l| l.strip_prefix("results/")?.strip_suffix(".txt"))
        .map(str::to_string)
        .collect();
    for other in OTHER_RECORDS {
        assert!(records.remove(other), "results/{other}.txt is not tracked");
    }
    assert_eq!(records, experiments);
}

#[test]
fn bad_subcommands_and_flags_exit_2_naming_the_choices() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("nope")
        .output()
        .expect("run repro nope");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let err = String::from_utf8(out.stderr).expect("utf-8");
    assert!(err.contains("unknown experiment nope"));
    for e in REGISTRY {
        assert!(err.contains(e.name), "usage does not name {}", e.name);
    }
    assert!(err.contains("gate") && err.contains("list"));

    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["profile_kernels", "ZZ"])
        .env("TLPGNN_TELEMETRY", "0")
        .output()
        .expect("run repro profile_kernels ZZ");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());

    let out = Command::new(env!("CARGO_BIN_EXE_gnnconv"))
        .args(["--feat", "abc"])
        .env("TLPGNN_TELEMETRY", "0")
        .output()
        .expect("run gnnconv --feat abc");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let err = String::from_utf8(out.stderr).expect("utf-8");
    assert!(err.contains("--feat"), "stderr does not name --feat: {err}");
}

/// `repro_gate` had private `dev_for` / `engine_for` at `GATE_SCALE = 8`;
/// these are their values for the three datasets the gate sizes engines
/// for on their own, recorded from the parent build before deletion.
#[test]
fn gate_env_sizes_as_the_deleted_gate_helpers_did() {
    assert_eq!(GATE, Env { extra_scale: 8 });
    for (abbr, vertex_threshold) in [("OH", 31_250), ("RD", 3_906), ("CL", 7_812)] {
        let spec = datasets::by_abbr(abbr).unwrap();
        let dev = GATE.device_for(spec);
        assert_eq!((dev.num_sms, dev.l2_bytes), (8, 786_432), "{abbr}");
        let engine = GATE.engine_for(spec);
        for h in [&GATE.heuristic_for(spec), &engine.options.heuristic] {
            assert_eq!(h.vertex_threshold, vertex_threshold, "{abbr}");
            assert_eq!(h.degree_threshold, 50.0);
            assert_eq!((h.software_step, h.warps_per_block), (8, 8));
        }
        let cfg = engine.device().cfg();
        assert_eq!((cfg.num_sms, cfg.l2_bytes), (8, 786_432), "{abbr}");
    }
    // Above the floor the device shrinks in proportion: OH (default
    // scale 1/4) at extra scale 1 is a quarter V100.
    let oh = datasets::by_abbr("OH").unwrap();
    let dev = Env { extra_scale: 1 }.device_for(oh);
    assert_eq!((dev.num_sms, dev.l2_bytes), (20, 1_572_864));
    assert_eq!(dev.name, "SimV100/20");
}
