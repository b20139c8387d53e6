//! Every name the benchmark prints: workloads, end-to-end metrics and
//! per-layer metrics, with units and directions. `BENCHMARK.json` states
//! the same lists with their bounds; a test holds the two together.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    #[cfg(test)]
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// A count (or a simulated, device-clock quantity) that must repeat
    /// exactly for a fixed seed.
    pub exact: bool,
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        exact: false,
    }
}

/// A lower-is-better metric that repeats exactly for a seed.
const fn lo_exact(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        exact: true,
        ..lo(name, unit)
    }
}

/// A higher-is-better metric that repeats exactly for a seed.
const fn hi_exact(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        exact: true,
        ..hi(name, unit)
    }
}

/// The six workloads, in the order `run` executes them.
pub const WORKLOADS: [&str; 6] = [
    "native_conv",
    "sim_conv",
    "serve_cold",
    "serve_hot",
    "serve_churn",
    "serve_sharded",
];

/// End-to-end metrics: what a user of the system sees. Every workload
/// reports every one of them from the untraced pass.
pub const END_TO_END: [MetricDef; 5] = [
    lo("setup_s", "s"),
    hi("throughput_rps", "req/s"),
    lo("latency_p50_ms", "ms"),
    lo("latency_p99_ms", "ms"),
    lo("peak_rss_mb", "MB"),
];

/// Per-layer metrics, from the traced pass. A layer that does no work on
/// a workload reports 0 there.
pub const PER_LAYER: [MetricDef; 102] = [
    // graph
    lo("graph.generators.rmat_ms", "ms"),
    lo("graph.generators.erdos_renyi_ms", "ms"),
    lo("graph.subgraph.ego_graph_ms_p50", "ms"),
    lo_exact("graph.subgraph.ego_vertices_mean", "count"),
    lo_exact("graph.subgraph.ego_edges_mean", "count"),
    lo("graph.delta.insert_edge_us_p50", "us"),
    lo("graph.delta.set_features_us_p50", "us"),
    lo("graph.delta.snapshot_us_p50", "us"),
    lo("graph.delta.affected_within_us_p50", "us"),
    lo("graph.delta.ego_graph_ms_p50", "ms"),
    lo("graph.delta.compact_ms", "ms"),
    lo_exact("graph.delta.overlay_edges", "count"),
    // tensor
    lo("tensor.ops.matmul_ms_p50", "ms"),
    lo("tensor.dense_share", "ratio"),
    // core: native engine (host clock)
    lo("core.native.conv_ms_p50.gcn.rmat", "ms"),
    lo("core.native.conv_ms_p50.gin.rmat", "ms"),
    lo("core.native.conv_ms_p50.sage.rmat", "ms"),
    lo("core.native.conv_ms_p50.gat.rmat", "ms"),
    lo("core.native.conv_ms_p50.gcn.er", "ms"),
    lo("core.native.conv_ms_p50.gin.er", "ms"),
    lo("core.native.conv_ms_p50.sage.er", "ms"),
    lo("core.native.conv_ms_p50.gat.er", "ms"),
    lo("core.native.conv_ms_p50.gcn.rmat.t1", "ms"),
    lo("core.native.conv_ms_p50.gcn.rmat.static", "ms"),
    hi("core.native.parallel_efficiency", "ratio"),
    lo_exact("core.native.flops_computed", "flop"),
    lo_exact("core.native.bytes_computed", "bytes"),
    hi_exact("core.native.ops_per_byte_computed", "flop/byte"),
    hi("core.native.edges_per_s", "edges/s"),
    // core: simulated engine (host clock unless named sim)
    lo("core.engine.conv_host_ms_p50.gcn_rmat", "ms"),
    lo("core.engine.conv_host_ms_p50.gat_rmat", "ms"),
    lo("core.engine.conv_host_ms_p50.gcn_er", "ms"),
    lo("core.engine.classify_forward_host_ms_p50", "ms"),
    lo_exact("core.engine.classify_forward_sim_ms", "ms"),
    lo_exact("core.engine.kernel_launches", "count"),
    lo_exact("core.engine.sim_device_ms", "ms"),
    hi("core.engine.edges_per_host_s", "edges/s"),
    // gpu-sim, host clock
    hi("gpu_sim.host_warps_per_s", "1/s"),
    hi("gpu_sim.host_insts_per_s", "1/s"),
    lo("gpu_sim.host_ns_per_mem_request", "ns"),
    // gpu-sim, device clock: counts that repeat exactly for a seed
    lo_exact("gpu_sim.gpu_cycles", "cycles"),
    lo_exact("gpu_sim.insts", "count"),
    lo_exact("gpu_sim.warps_run", "count"),
    lo_exact("gpu_sim.blocks_run", "count"),
    lo_exact("gpu_sim.mem_requests", "count"),
    lo_exact("gpu_sim.atomic_requests", "count"),
    lo_exact("gpu_sim.load_bytes", "bytes"),
    lo_exact("gpu_sim.dram_load_bytes", "bytes"),
    lo_exact("gpu_sim.store_bytes", "bytes"),
    lo_exact("gpu_sim.atomic_bytes", "bytes"),
    lo_exact("gpu_sim.peak_mem_bytes", "bytes"),
    hi_exact("gpu_sim.l1_hit_rate", "ratio"),
    hi_exact("gpu_sim.l2_hit_rate", "ratio"),
    hi_exact("gpu_sim.achieved_occupancy", "ratio"),
    hi_exact("gpu_sim.sm_utilization", "ratio"),
    hi_exact("gpu_sim.simd_efficiency", "ratio"),
    lo_exact("gpu_sim.sectors_per_request", "ratio"),
    lo_exact("gpu_sim.stall_long_scoreboard", "cycles"),
    // baselines, device clock
    lo_exact("baselines.dgl.sim_device_ms", "ms"),
    lo_exact("baselines.advisor.sim_device_ms", "ms"),
    lo_exact("baselines.featgraph.sim_device_ms", "ms"),
    hi_exact("baselines.speedup_vs_dgl", "ratio"),
    hi_exact("baselines.speedup_vs_advisor", "ratio"),
    hi_exact("baselines.speedup_vs_featgraph", "ratio"),
    // serve, from Response.timing and the server's counters
    lo("serve.queue_ms_p50", "ms"),
    lo("serve.queue_ms_p99", "ms"),
    lo("serve.extract_ms_p50", "ms"),
    lo("serve.compute_ms_p50", "ms"),
    lo("serve.residual_ms_p50", "ms"),
    hi("serve.batch_size_mean", "count"),
    lo("serve.batches", "count"),
    lo("serve.computed_targets", "count"),
    hi("serve.cache.hit_rate", "ratio"),
    lo("serve.cache.evictions", "count"),
    lo("serve.cache.mutation_evictions", "count"),
    lo("serve.rejected", "count"),
    lo("serve.retries", "count"),
    lo("serve.degraded", "count"),
    hi("serve.epoch", "count"),
    // serve, direct calls
    lo("serve.server.start_ms", "ms"),
    lo("serve.server.submit_us_p50", "us"),
    lo("serve.server.mutate_us_p50", "us"),
    lo("serve.server.compact_graph_ms", "ms"),
    lo("serve.server.shutdown_ms", "ms"),
    lo("serve.cache.get_ns_p50", "ns"),
    lo("serve.cache.insert_ns_p50", "ns"),
    lo("serve.cache.invalidate_mutated_us_p50", "us"),
    lo("serve.batcher.push_pop_ns_p50", "ns"),
    lo("serve.workload.zipf_sample_ns_p50", "ns"),
    // shard
    lo("shard.plan.build_ms", "ms"),
    lo("shard.store.build_all_ms", "ms"),
    lo_exact("shard.store.max_bytes", "bytes"),
    lo("shard.extract.distributed_ego_ms_p50", "ms"),
    lo("shard.halo.fetch_batches", "count"),
    lo("shard.halo.fetched_rows", "count"),
    lo("shard.halo.fetched_bytes", "bytes"),
    hi("shard.halo.replica_hits", "count"),
    hi("shard.halo.local_hits", "count"),
    lo("shard.load_imbalance", "ratio"),
    lo("shard.tax_ratio", "ratio"),
    // cost of observing
    hi("telemetry.enabled_rps_ratio", "ratio"),
    lo("bench.trace_overhead_share", "ratio"),
];

/// Whether `name` fits the contract's name grammar: starts with a letter
/// or digit, then letters, digits, `_`, `.` and `-`, at most 64 in all.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` fits the contract's unit grammar.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The declaration of `name`, end-to-end or per-layer.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use telemetry::json::{self, Value};

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn name_and_unit_grammar() {
        assert!(valid_name("serve.cache.hit_rate"));
        assert!(valid_name("core.native.conv_ms_p50.gcn.rmat.t1"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("req/s"));
        assert!(valid_unit("flop/byte"));
        assert!(!valid_unit("edges per s"));
        assert!(!valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn every_declared_name_is_valid_and_unique() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS {
            assert!(valid_name(name) && seen.insert(name), "{name}");
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} has unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} declared twice", m.name);
        }
    }

    fn listed(doc: &Value, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn declared(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.word().to_string(),
                )
            })
            .collect()
    }

    /// Every name `BENCHMARK.json` lists is emitted and the other way
    /// round: the emitters iterate the tables above, so matching the
    /// tables against the file is matching the output against it.
    #[test]
    fn benchmark_json_and_the_tables_agree() {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        assert_eq!(listed(&doc, "end_to_end"), declared(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), declared(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads list")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for m in doc.get("end_to_end").and_then(Value::as_arr).unwrap() {
            let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
        }
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    }
}
