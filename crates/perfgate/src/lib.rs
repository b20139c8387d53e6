//! Continuous performance tracking for the TLPGNN reproduction.
//!
//! The simulator is deterministic (one launch loop on one thread),
//! so performance is a *testable property*: any cycle delta between two
//! runs of the same pinned workload matrix is a real change, not noise.
//! This crate closes the loop the paper's Section 3 methodology implies:
//!
//! 1. [`suite`] — a pinned matrix of {kernel variant × model ×
//!    dataset-generator} workloads run through gpu-sim on a fixed device.
//! 2. [`snapshot`] — per-workload cycle counts, profiler metrics, and
//!    peak memory serialized into versioned `BENCH_<seq>.json` files with
//!    schema version, git SHA, and config fingerprint.
//! 3. [`gate`] — a diff engine that compares a run against the committed
//!    baseline and *attributes* each regression to the limiter metrics
//!    that moved (atomic transactions, sectors/request, occupancy,
//!    cost-model terms), in the spirit of Nsight Compute's limiter
//!    analysis.
//! 4. [`roofline`] — arithmetic-intensity/roofline placement per
//!    workload, cross-checked against the cost model's limiter.
//!
//! The `perf_gate` bin in `tlpgnn-bench` drives all three from `ci.sh`;
//! `--bless` re-baselines after an intentional change.

pub mod gate;
pub mod roofline;
pub mod snapshot;
pub mod suite;

pub use gate::{compare, GateConfig, GateReport};
pub use roofline::{BoundClass, RooflinePoint, ROOFLINE_SCHEMA};
pub use snapshot::{Snapshot, WorkloadResult, SCHEMA};
pub use suite::{run, run_profiled, snapshot_from, Suite, Workload};
