//! The pinned modelled numbers of everything outside `perf_gate`'s
//! matrix, as one readable record: `tests/golden/pins.txt`, one line per
//! counter, `<fixture> <key> <value>`.
//!
//! The fixtures are the kernels the matrix does not launch (GAT single-
//! and multi-head, the dense layer, log-softmax, the edge-weighted
//! aggregation, the design-space variants, the heterogeneous ops), three
//! launches of the memory-hierarchy model (the coalesced and the
//! uncoalesced load path, the atomic path), every baseline system × model,
//! the smoke suite's roofline placement, and the shape of every Table 4
//! dataset as the registry synthesizes it. A kernel fixture prints
//! every `KernelProfile::metrics()` entry as `value unit`, its atomic
//! sectors and its 13 hardware counters by name, so the record also pins
//! the metric schema and the counter names. How the simulator *executes*
//! a request may change for host speed; what it *models* may not. A
//! deliberate cost-model change re-records every pin with one command:
//!
//! `TLPGNN_BLESS=1 cargo test -p tlpgnn-bench --test pins`

use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

use gpu_sim::{
    Device, DeviceBuffer, DeviceConfig, Kernel, KernelProfile, LaunchConfig, OpProfile, WarpCtx,
};
use telemetry::json::Value;
use tlpgnn::hetero::{HeteroEngine, HeteroGraph};
use tlpgnn::kernels::dense::{dense_forward_on_device, log_softmax_on_device};
use tlpgnn::kernels::gat::{
    FusedGatKernel, FusedMultiHeadGatKernel, MultiHeadGatParams, MultiHeadScoresOnDevice,
};
use tlpgnn::kernels::weighted::WeightedAggKernel;
use tlpgnn::{
    Aggregator, Assignment, GatParams, GatScoresOnDevice, GnnModel, GraphOnDevice, KernelVariant,
    WorkSource,
};
use tlpgnn_baselines::all_systems;
use tlpgnn_graph::{datasets::DATASETS, generators, Csr};
use tlpgnn_perfgate::roofline;
use tlpgnn_perfgate::suite::{self, Suite};
use tlpgnn_tensor::{Linear, Matrix};

const RECORD: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/pins.txt");

/// A fixture's `(key, value)` lines.
type Lines = Vec<(String, String)>;

/// A fixture's name and its lines.
type Fixture = (String, Lines);

/// The registry: each entry runs its fixtures in sequence and names them.
/// Fixtures that share an entry share a device, whose memory and L2
/// carry over from one to the next.
const REGISTRY: &[fn() -> Vec<Fixture>] = &[
    gat,
    multi_head_gat,
    dense_and_log_softmax,
    weighted,
    design_space_variants,
    hetero,
    launches,
    systems,
    smoke_roofline,
    datasets,
];

/// Every launch runs on the test device, whose barrier cost prices
/// `stall_sync_cycles`.
fn device() -> Device {
    Device::new(DeviceConfig::test_small())
}

fn kernel_lines(p: &KernelProfile) -> Lines {
    let mut lines: Lines = p
        .metrics()
        .into_iter()
        .map(|(name, unit, value)| (name.to_string(), format!("{value} {unit}")))
        .collect();
    lines.push((
        "atomic_sectors".to_string(),
        p.accounting.warps.atomic_sectors.to_string(),
    ));
    let hw = p.accounting.hw(&DeviceConfig::test_small());
    lines.extend(
        hw.scalar_counters()
            .map(|(counter, value)| (format!("hw.{counter}"), value.to_string())),
    );
    lines
}

fn op_lines(op: &OpProfile) -> Lines {
    [
        ("kernel_launches", op.kernel_launches.to_string()),
        ("gpu_time_ms", op.gpu_time_ms.to_string()),
        ("runtime_ms", op.runtime_ms.to_string()),
        (
            "framework_overhead_ms",
            op.framework_overhead_ms.to_string(),
        ),
        ("preprocess_ms", op.preprocess_ms.to_string()),
        ("insts", op.insts.to_string()),
        ("blocks_run", op.blocks_run.to_string()),
        ("load_bytes", op.load_bytes.to_string()),
        ("store_bytes", op.store_bytes.to_string()),
        ("atomic_bytes", op.atomic_bytes.to_string()),
        ("peak_mem_bytes", op.peak_mem_bytes.to_string()),
        ("sm_utilization", op.sm_utilization.to_string()),
        ("achieved_occupancy", op.achieved_occupancy.to_string()),
        (
            "stall_long_scoreboard",
            op.stall_long_scoreboard.to_string(),
        ),
        ("sectors_per_request", op.sectors_per_request.to_string()),
    ]
    .map(|(k, v)| (k.to_string(), v))
    .into()
}

// ---- kernels outside the matrix: 160 vertices, 40 features (a full lane
// tile plus a partial one) ----

const N: usize = 160;
const F: usize = 40;

fn fixture() -> (Csr, Matrix) {
    (
        generators::rmat_default(N, 1200, 901),
        Matrix::random(N, F, 1.0, 902),
    )
}

fn gat() -> Vec<Fixture> {
    [true, false]
        .map(|reg_cache| {
            let (g, x) = fixture();
            let mut dev = device();
            let gd = GraphOnDevice::upload(&mut dev, &g, &x);
            let scores = GatScoresOnDevice::upload(&mut dev, &x, &GatParams::random(F, 903));
            let k = FusedGatKernel::new(gd, scores, WorkSource::Hardware, reg_cache);
            let lc = Assignment::hardware().launch_config(
                gd.n,
                dev.cfg(),
                FusedGatKernel::regs(reg_cache),
            );
            let name = if reg_cache {
                "reg_cache"
            } else {
                "no_reg_cache"
            };
            (format!("gat.{name}"), kernel_lines(&dev.launch(&k, lc)))
        })
        .into()
}

fn multi_head_gat() -> Vec<Fixture> {
    let (g, x) = fixture();
    // Isolated vertices take the zero-fill store path.
    assert!((0..N).any(|v| g.degree(v) == 0));
    let heads = 2;
    let mut dev = device();
    let gd = GraphOnDevice::upload(&mut dev, &g, &x);
    let output = dev.mem_mut().alloc::<f32>(N * heads * F);
    let scores =
        MultiHeadScoresOnDevice::upload(&mut dev, &x, &MultiHeadGatParams::random(F, heads, 904));
    let k = FusedMultiHeadGatKernel { gd, output, scores };
    let lc = Assignment::hardware().launch_config(gd.n, dev.cfg(), 64);
    vec![("gat.multi_head".into(), kernel_lines(&dev.launch(&k, lc)))]
}

fn dense_and_log_softmax() -> Vec<Fixture> {
    let x = Matrix::random(N, 24, 1.0, 905);
    let mut dev = device();
    let (y, dense) = dense_forward_on_device(&mut dev, &Linear::new(24, F, true, 906), &x, true);
    let (_, log_softmax) = log_softmax_on_device(&mut dev, &y);
    vec![
        ("dense".into(), kernel_lines(&dense)),
        ("log_softmax".into(), kernel_lines(&log_softmax)),
    ]
}

fn weighted() -> Vec<Fixture> {
    [true, false]
        .map(|reg_cache| {
            let (g, x) = fixture();
            let weights = Matrix::random(1, g.num_edges(), 1.0, 907).into_vec();
            let mut dev = device();
            let mem = dev.mem_mut();
            let k = WeightedAggKernel {
                indptr: mem.alloc_from(g.indptr()),
                indices: mem.alloc_from(g.indices()),
                values: mem.alloc_from(&weights),
                x: mem.alloc_from(x.data()),
                out: mem.alloc::<f32>(N * F),
                n: N,
                f: F,
                work: WorkSource::Hardware,
                reg_cache,
            };
            let lc = Assignment::hardware().launch_config(
                N,
                dev.cfg(),
                WeightedAggKernel::regs(reg_cache),
            );
            let name = if reg_cache {
                "reg_cache"
            } else {
                "no_reg_cache"
            };
            (
                format!("weighted.{name}"),
                kernel_lines(&dev.launch(&k, lc)),
            )
        })
        .into()
}

fn design_space_variants() -> Vec<Fixture> {
    let (g, x) = fixture();
    KernelVariant::all()
        .into_iter()
        .map(|variant| {
            let (_, p) = variant.run(&mut device(), &g, &x, Aggregator::GcnSum);
            (format!("variant.{}", variant.label()), kernel_lines(&p))
        })
        .collect()
}

fn hetero() -> Vec<Fixture> {
    let x = Matrix::random(N, F, 1.0, 908);
    let mut hg = HeteroGraph::new(N);
    hg.add_relation("cites", generators::rmat_default(N, 900, 909));
    hg.add_relation("writes", generators::erdos_renyi(N, 500, 910));
    let mut engine = HeteroEngine::new(DeviceConfig::test_small());
    let fused = op_lines(&engine.conv_fused(&hg, &x).1);
    let per_relation = op_lines(&engine.conv_per_relation(&hg, &x).1);
    vec![
        ("hetero.fused".into(), fused),
        ("hetero.per_relation".into(), per_relation),
    ]
}

// ---- the memory-hierarchy model: the coalesced load path, the
// uncoalesced one under real L1/L2 eviction pressure, and the atomic path
// (`invalidate` + L2 probe, the one the baseline systems lean on) ----

/// `dst[i] = src[index(i)]`, `passes` times over, one warp per 32 outputs.
struct Gather {
    src: DeviceBuffer<f32>,
    dst: DeviceBuffer<f32>,
    n: usize,
    stride: usize,
    passes: usize,
}

impl Kernel for Gather {
    fn name(&self) -> &str {
        "pin_gather"
    }
    fn run_warp(&self, w: &mut WarpCtx<'_>) {
        let base = w.global_warp() * 32;
        let (n, stride, len) = (self.n, self.stride, self.src.len());
        for pass in 0..self.passes {
            let vals = w.ld(self.src, |l| {
                (base + l < n).then(|| ((base + l) * stride + pass * 8) % len)
            });
            w.issue(1);
            w.st(self.dst, |l| (base + l < n).then(|| (base + l, vals[l])));
        }
    }
}

fn run_gather(stride: usize) -> KernelProfile {
    let mut dev = device();
    // 256 KiB of source: four times the test device's L2.
    let src_len = 64 * 1024;
    let n = 16 * 1024;
    let data: Vec<f32> = (0..src_len).map(|i| i as f32).collect();
    let src = dev.mem_mut().alloc_from(&data);
    let dst = dev.mem_mut().alloc::<f32>(n);
    let k = Gather {
        src,
        dst,
        n,
        stride,
        passes: 3,
    };
    let lc = LaunchConfig::warp_per_item(n / 32, 128);
    dev.launch(&k, lc);
    // The second launch starts from the first one's L2 contents.
    let p = dev.launch(&k, lc);
    let out = dev.mem().read_vec(dst);
    assert!(out
        .iter()
        .enumerate()
        .all(|(i, &v)| v == ((i * stride + 2 * 8) % src_len) as f32));
    p
}

/// Every warp reads a window of `acc`, scatters atomic adds over it and
/// reads it back: loads fill the L1, atomics invalidate it.
struct AtomicScatter {
    acc: DeviceBuffer<f32>,
}

impl Kernel for AtomicScatter {
    fn name(&self) -> &str {
        "pin_atomic_scatter"
    }
    fn run_warp(&self, w: &mut WarpCtx<'_>) {
        let wid = w.global_warp();
        let slots = self.acc.len();
        let _ = w.ld(self.acc, |l| Some((wid * 8 + l) % slots));
        w.atomic_add_f32(self.acc, |l| Some(((wid * 8 + l * 5) % slots, 1.0)));
        w.atomic_add_f32(self.acc, |l| Some(((wid + l / 4) % slots, 0.5)));
        let _ = w.ld(self.acc, |l| Some((wid * 8 + l * 5) % slots));
    }
}

fn run_atomic_scatter() -> KernelProfile {
    let mut dev = device();
    let slots = 24 * 1024;
    let acc = dev.mem_mut().alloc::<f32>(slots);
    let warps = 2048;
    let p = dev.launch(
        &AtomicScatter { acc },
        LaunchConfig::warp_per_item(warps, 256),
    );
    let total: f32 = dev.mem().read_vec(acc).iter().sum();
    assert_eq!(total, (warps * 32) as f32 * 1.5);
    p
}

fn launches() -> Vec<Fixture> {
    vec![
        (
            "launch.gather_coalesced".into(),
            kernel_lines(&run_gather(1)),
        ),
        ("launch.gather_strided".into(), kernel_lines(&run_gather(9))),
        (
            "launch.atomic_scatter".into(),
            kernel_lines(&run_atomic_scatter()),
        ),
    ]
}

// ---- every baseline system × {GCN, SAGE, GAT}: their multi-kernel
// pipelines (DGL's GAT chain, FeatGraph's edge softmax, the elementwise
// primitives) sit outside the matrix ----

fn systems() -> Vec<Fixture> {
    let g = generators::rmat_default(N, 1200, 921);
    let x = Matrix::random(N, F, 1.0, 922);
    let models = [
        GnnModel::Gcn,
        GnnModel::Sage,
        GnnModel::Gat {
            params: GatParams::random(F, 923),
        },
    ];
    let mut fixtures = Vec::new();
    for system in &mut all_systems(DeviceConfig::test_small()) {
        for model in &models {
            if let Some(run) = system.run(model, &g, &x) {
                let name = format!("system.{}.{}", system.name(), model.name());
                fixtures.push((name, op_lines(&run.profile)));
            }
        }
    }
    fixtures
}

// ---- the smoke suite's roofline report, `results/roofline.json`'s layout,
// every field of every workload ----

fn smoke_roofline() -> Vec<Fixture> {
    let s = Suite::smoke();
    let runs = suite::run_profiled(&s);
    let points = roofline::classify_all(&runs, &s.device);
    // The verdict `perf_gate` exits on.
    assert_eq!(roofline::check_agreement(&points), Vec::<String>::new());
    let report = roofline::report_pretty_string(&s.device.name, &points);
    let report = telemetry::json::parse(&report).expect("roofline.json parses");
    let scalar = |v: &Value| match v {
        Value::Num(n) => n.to_string(),
        Value::Str(s) => s.clone(),
        Value::Bool(b) => b.to_string(),
        other => panic!("roofline.json: unexpected nested value {other:?}"),
    };
    let mut lines = Lines::new();
    for (field, value) in report.as_obj().expect("roofline.json is an object") {
        let Some(workloads) = value.as_arr() else {
            lines.push((field.clone(), scalar(value)));
            continue;
        };
        for w in workloads {
            let id = w.get("id").and_then(Value::as_str).expect("workload id");
            for (k, v) in w.as_obj().expect("workload object") {
                if k != "id" {
                    lines.push((format!("{field}.{id}.{k}"), scalar(v)));
                }
            }
        }
    }
    vec![("roofline.smoke".into(), lines)]
}

// ---- Table 4's synthesized shapes: every registry dataset at its
// default scale, as the experiments load it ----

fn datasets() -> Vec<Fixture> {
    DATASETS
        .iter()
        .map(|spec| {
            let g = spec.load();
            let second_moment: f64 = (0..g.num_vertices())
                .map(|v| (g.degree(v) as f64).powi(2))
                .sum();
            let lines = [
                ("vertices", g.num_vertices().to_string()),
                ("edges", g.num_edges().to_string()),
                ("avg_degree", g.avg_degree().to_string()),
                ("max_degree", g.max_degree().to_string()),
                ("degree_second_moment", second_moment.to_string()),
            ];
            let lines = lines.map(|(k, v)| (k.to_string(), v)).into();
            (format!("datasets.{}", spec.abbr), lines)
        })
        .collect()
}

// ---- the record ----

/// The record as the code prints it now (computed once per test binary).
fn rendered() -> &'static str {
    static RENDERED: OnceLock<String> = OnceLock::new();
    RENDERED.get_or_init(|| {
        let mut out = String::new();
        for fixture in REGISTRY {
            for (name, lines) in fixture() {
                for (key, value) in lines {
                    out += &format!("{name} {key} {value}\n");
                }
            }
        }
        out
    })
}

/// `((fixture, key), value)` per line, in record order.
fn parse(record: &str) -> Vec<((&str, &str), &str)> {
    record
        .lines()
        .map(|line| {
            let mut parts = line.splitn(3, ' ');
            let mut next = || parts.next().unwrap_or("");
            ((next(), next()), next())
        })
        .collect()
}

/// The first line on which `now` departs from `recorded`, naming its
/// fixture and key: a changed value, then a missing line, in record
/// order, then an extra one.
fn first_difference(recorded: &str, now: &str) -> Option<String> {
    let (was, is) = (parse(recorded), parse(now));
    let was_keys: HashSet<_> = was.iter().map(|&(fk, _)| fk).collect();
    let is_values: HashMap<_, _> = is.iter().copied().collect();
    for &((fixture, key), value) in &was {
        match is_values.get(&(fixture, key)) {
            None => return Some(format!("{fixture} {key}: recorded {value}, now missing")),
            Some(&now) if now != value => {
                return Some(format!("{fixture} {key}: recorded {value}, now {now}"))
            }
            Some(_) => {}
        }
    }
    if let Some(((fixture, key), value)) = is.iter().find(|(fk, _)| !was_keys.contains(fk)) {
        return Some(format!("{fixture} {key}: not recorded, now {value}"));
    }
    (recorded != now).then(|| "same lines as the record, in a different order".into())
}

#[test]
fn record_matches_the_code() {
    if std::env::var_os("TLPGNN_BLESS").is_some() {
        std::fs::write(RECORD, rendered()).expect("write the record");
        return;
    }
    let recorded = std::fs::read_to_string(RECORD).expect("tests/golden/pins.txt present");
    if let Some(difference) = first_difference(&recorded, rendered()) {
        panic!(
            "tests/golden/pins.txt: {difference}\n\
             re-record a deliberate change with TLPGNN_BLESS=1 cargo test -p tlpgnn-bench --test pins"
        );
    }
}

#[test]
fn every_key_is_unique_in_its_fixture_and_every_number_finite() {
    let mut seen = HashSet::new();
    for ((fixture, key), value) in parse(rendered()) {
        assert!(
            !fixture.is_empty() && !key.is_empty() && !value.is_empty(),
            "malformed line `{fixture} {key} {value}`"
        );
        assert!(
            seen.insert((fixture, key)),
            "{fixture} {key}: printed twice"
        );
        let number = value.split(' ').next().and_then(|v| v.parse::<f64>().ok());
        assert!(
            number.is_none_or(f64::is_finite),
            "{fixture} {key}: not finite: {value}"
        );
    }
}

#[test]
fn a_difference_names_its_fixture_and_key() {
    let record = rendered();
    let line = record.lines().nth(record.lines().count() / 2).unwrap();
    let ((fixture, key), _) = parse(line)[0];
    let names = |edited: String, key: &str| {
        let message = first_difference(record, &edited).expect("a difference");
        let want = format!("{fixture} {key}: ");
        assert!(message.starts_with(&want), "{message}");
    };
    let edit = |with: &str| record.replacen(&format!("\n{line}\n"), with, 1);
    names(edit(&format!("\n{line}0\n")), key);
    names(edit("\n"), key);
    names(
        format!("{record}{fixture} {key}.added 1\n"),
        &format!("{key}.added"),
    );
    assert_eq!(first_difference(record, record), None);
}
