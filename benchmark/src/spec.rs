//! What the benchmark declares: its workloads and metrics. `BENCHMARK.json`
//! at the root of the checkout repeats these lists for the driver; the test
//! below fails when the two disagree, so a copy of this package laid over
//! another checkout cannot silently take that checkout's lists.

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Larger values are better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which it may get worse (end-to-end
    /// metrics only; 0 for per-layer metrics, which have no bound).
    pub bound: f64,
}

impl MetricSpec {
    /// Counted by the program, not timed by the host: two sets of runs of
    /// the same code must agree on it exactly.
    pub fn exact(&self) -> bool {
        self.name.starts_with("sim_") || self.name == "peak_heap_mib"
    }
}

/// How long one driver-mode run measures, seconds.
pub const RUN_SECONDS: f64 = 22.0;

/// Workload names, in the order the gate run interleaves them.
pub const WORKLOADS: [&str; 5] = [
    "dense_star",
    "sparse_star",
    "dense_scale",
    "traffic_lossy",
    "pspin_switch",
];

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    e2e(name, unit, false, 0.0)
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    e2e(name, unit, true, 0.0)
}

/// End-to-end metrics. The host times carry the driver's bound for one
/// workload per process; the exact ones carry 0.1 % because the file needs
/// a number, and `compare` and `expected.json` hold them to equality.
pub const END_TO_END: [MetricSpec; 8] = [
    e2e("wall_s", "s", false, 0.25),
    e2e("setup_s", "s", false, 0.25),
    e2e("peak_heap_mib", "MiB", false, 0.02),
    e2e("sim_makespan_ns", "sim_ns", false, 0.001),
    e2e("sim_link_bytes", "B", false, 0.001),
    e2e("sim_goodput_gbps", "Gbit/s", true, 0.001),
    e2e("sim_iter_p50_ns", "sim_ns", false, 0.001),
    e2e("sim_iter_p95_ns", "sim_ns", false, 0.001),
];

/// Per-layer metrics, in the order the traced run prints them.
pub const PER_LAYER: [MetricSpec; 65] = [
    lower("des.events", "count"),
    lower("des.host_ns_per_event", "ns"),
    lower("des.queue.probe_ns_per_event", "ns"),
    lower("des.partition.par2_wall_s", "s"),
    higher("des.partition.par2_speedup", "ratio"),
    lower("net.topology.build_s", "s"),
    lower("net.routing.build_s", "s"),
    lower("net.sim.new_s", "s"),
    lower("net.link_packets", "count"),
    lower("net.drops", "count"),
    lower("net.max_link_bytes", "B"),
    lower("net.forward.host_ns_per_packet", "ns"),
    lower("baselines.ring.wall_s", "s"),
    lower("baselines.ring.makespan_ns", "sim_ns"),
    lower("baselines.ring.link_bytes", "B"),
    lower("net.hpu.execute_ns", "ns"),
    lower("net.telemetry.on_wall_s", "s"),
    lower("net.telemetry.overhead_pct", "%"),
    lower("net.telemetry.trace_events", "count"),
    lower("net.telemetry.trace_bytes", "B"),
    higher("core.wire.dense_encode_gbps", "Gbit/s"),
    higher("core.wire.dense_fold_gbps", "Gbit/s"),
    higher("core.dense.insert_gbps", "Gbit/s"),
    higher("core.wire.sparse_encode_gbps", "Gbit/s"),
    lower("core.sparse.hash_insert_ns_per_pair", "ns"),
    lower("core.sparse.array_insert_ns_per_pair", "ns"),
    lower("core.sparse.spill_ratio", "ratio"),
    lower("core.pool.get_put_ns", "ns"),
    lower("core.pool.slab_lookup_ns", "ns"),
    higher("core.pool.hit_ratio", "ratio"),
    lower("alloc.count_per_rep", "count"),
    lower("alloc.bytes_per_rep", "B"),
    lower("alloc.count_per_event", "ratio"),
    lower("core.session.build_s", "s"),
    lower("core.session.admit_s", "s"),
    lower("core.session.run_s", "s"),
    lower("core.session.release_s", "s"),
    lower("workloads.traffic.admit_s", "s"),
    lower("workloads.traffic.run_s", "s"),
    lower("workloads.traffic.release_s", "s"),
    lower("pspin.trace_generate_s", "s"),
    lower("pspin.engine.run_s", "s"),
    lower("core.retransmits", "count"),
    lower("core.retransmit_ratio", "ratio"),
    higher("workloads.traffic.iterations", "count"),
    higher("workloads.traffic.jain_fairness", "ratio"),
    lower("workloads.traffic.queue_delay_p50_ns", "sim_ns"),
    lower("pspin.host_ns_per_packet", "ns"),
    lower("pspin.queue_peak", "count"),
    lower("pspin.lock_wait_cycles", "count"),
    lower("pspin.input_buffer_peak_bytes", "B"),
    lower("pspin.working_mem_peak_bytes", "B"),
    higher("model.dense_tbps", "Tbit/s"),
    lower("model.err_pct", "%"),
    lower("host.wall_min_s", "s"),
    lower("host.wall_p75_s", "s"),
    lower("host.cold_wall_s", "s"),
    lower("host.default_malloc_wall_s", "s"),
    lower("host.malloc_return_cost_pct", "%"),
    lower("host.default_malloc_faults_per_rep", "count"),
    lower("host.faults_per_rep", "count"),
    lower("host.peak_rss_mib", "MiB"),
    lower("bench.inputs_s", "s"),
    lower("bench.verify_s", "s"),
    lower("bench.trace_overhead_pct", "%"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    /// `key` of `BENCHMARK.json` as `MetricSpec`-shaped tuples.
    fn listed(doc: &Value, key: &str) -> Vec<(String, String, bool, f64)> {
        let text = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                (
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better") == "higher",
                    m.get("bound").and_then(Value::as_f64).unwrap_or(0.0),
                )
            })
            .collect()
    }

    fn declared(specs: &[MetricSpec]) -> Vec<(String, String, bool, f64)> {
        specs
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.higher_is_better, m.bound))
            .collect()
    }

    #[test]
    fn benchmark_json_repeats_the_declared_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json above the package");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(RUN_SECONDS)
        );
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(listed(&doc, "end_to_end"), declared(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), declared(&PER_LAYER));
    }

    #[test]
    fn declared_lists_fit_the_driver_contract() {
        for w in WORKLOADS {
            assert!(crate::workloads::build(w, 1, 16).is_some(), "{w} builds");
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }
}
