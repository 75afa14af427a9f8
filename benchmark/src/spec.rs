//! The benchmark's contract: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repository
//! root is this table rendered by `benchmark spec`; a unit test keeps the
//! two equal, and [`MetricSet`] refuses to emit a result that misses or
//! invents a name.

use crate::json::quote;
use std::collections::BTreeMap;

/// How long one run measures (`--seconds` default, `run_seconds`).
pub const RUN_SECONDS: u64 = 20;

/// `(name, why)` of each workload.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "solve_cold_10k",
        "Cold DiBA solves on a 10 000-node ring with one thread: rounds-to-cap on the worst spectral gap times the serial kernel, working set in L2; bypasses the worker pool, wire and reactor.",
    ),
    (
        "solve_scale_100k",
        "Cold solves on a 100 000-node chord ring with auto threads: ~25 MB touched per round, memory-bound kernel plus a pool dispatch and barrier every round; bypasses wire and reactor.",
    ),
    (
        "cluster_torus_1k",
        "run_cluster on the one-shard epoll reactor over a 32x32 torus to convergence quorum: agent, wire batch encode/decode and event loop, where the kernel is about a tenth of a round.",
    ),
    (
        "replay_events_1k",
        "One warm DibaRun on a 1 000-node ring re-capped after each of 24 seeded budget and VM events: the same solver used warm, so cost moved into set_budget/replace_utilities shows.",
    ),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn key(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// end-to-end metrics only.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees; measured with tracing off.
pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", 0.25),
    e2e("time_to_cap_ms", "ms", 0.25),
    e2e("rounds_to_cap", "rounds", 0.25),
    e2e("round_us", "us", 0.25),
    e2e("cap_gap_pct", "%", 0.20),
    e2e("peak_rss_mb", "MB", 0.25),
];

use Better::{Higher, Lower};

/// Single-layer numbers from the traced pass; layer = product module.
pub const PER_LAYER: [Metric; 56] = [
    layer("models.build_ms", "ms", Lower),
    layer("topology.build_ms", "ms", Lower),
    layer("topology.spectral_gap", "ratio", Higher),
    layer("alg_centralized.solve_ms", "ms", Lower),
    layer("alg_diba.new_ms", "ms", Lower),
    layer("alg_diba.step_us_p50", "us", Lower),
    layer("alg_diba.step_us_p99", "us", Lower),
    layer("alg_diba.ns_per_node_round", "ns", Lower),
    layer("alg_diba.criterion_us", "us", Lower),
    layer("alg_diba.criterion_share_pct", "%", Lower),
    layer("alg_diba.node_action_ns_d2", "ns", Lower),
    layer("alg_diba.node_action_ns_d4", "ns", Lower),
    layer("alg_diba.set_budget_us", "us", Lower),
    layer("alg_diba.replace_utilities_us", "us", Lower),
    layer("alg_diba.warm_rounds_p50", "rounds", Lower),
    layer("alg_diba.warm_rounds_p95", "rounds", Lower),
    layer("alg_diba.cold_rounds_p50", "rounds", Lower),
    layer("alg_fast.ns_per_node_round", "ns", Lower),
    layer("alg_fast.speedup_vs_reference", "ratio", Higher),
    layer("alg_fast.max_dev_w", "W", Lower),
    layer("alg_fast.rounds_to_cap", "rounds", Lower),
    layer("alg_exec.workers", "count", Higher),
    layer("alg_exec.serial_round_us", "us", Lower),
    layer("alg_exec.pooled_round_us", "us", Lower),
    layer("alg_exec.scoped_round_us", "us", Lower),
    layer("alg_exec.pooled_speedup", "ratio", Higher),
    layer("alg_exec.dispatch_us", "us", Lower),
    layer("runtime_cluster.node_specs_ms", "ms", Lower),
    layer("runtime_wire.encode_ns_per_entry_128", "ns", Lower),
    layer("runtime_wire.encode_ns_per_entry_2048", "ns", Lower),
    layer("runtime_wire.decode_ns_per_entry_128", "ns", Lower),
    layer("runtime_wire.decode_ns_per_entry_2048", "ns", Lower),
    layer("runtime_wire.bytes_per_entry_128", "B", Lower),
    layer("runtime_wire.bytes_per_entry_2048", "B", Lower),
    layer("runtime_wire.bytes_per_round", "B", Lower),
    layer("runtime_lockstep.round_us", "us", Lower),
    layer("runtime_reactor.round_us", "us", Lower),
    layer("runtime_reactor.msgs_per_round", "count", Lower),
    layer("runtime_reactor.msgs_per_s", "1/s", Higher),
    layer("runtime_reactor.heartbeats", "count", Lower),
    layer("runtime_reactor.ns_per_agent_round", "ns", Lower),
    layer("runtime_reactor.peak_threads", "count", Lower),
    layer("runtime_reactor.bringup_ms", "ms", Lower),
    layer("runtime_reactor.xshard_round_us", "us", Lower),
    layer("runtime_reactor.xshard_penalty", "ratio", Lower),
    layer("runtime_reactor.per_message_round_us", "us", Lower),
    layer("runtime_reactor.coalesce_speedup", "ratio", Higher),
    layer("runtime_reactor.unattributed_pct", "%", Lower),
    layer("sim_replay.timeline_ms", "ms", Lower),
    layer("sim_replay.driver_overhead_pct", "%", Lower),
    layer("net.modeled_comm_ms", "ms", Lower),
    layer("harness.trace_overhead_pct", "%", Lower),
    layer("harness.timer_ns", "ns", Lower),
    layer("harness.noise_floor_pct", "%", Lower),
    layer("harness.host_slowdown", "ratio", Lower),
    layer("host.nproc", "count", Higher),
];

/// The end-to-end metric called `name`.
#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// One pass's metrics, checked against the table it reports.
#[derive(Debug)]
pub struct MetricSet {
    table: &'static [Metric],
    values: BTreeMap<&'static str, f64>,
}

impl MetricSet {
    pub fn new(table: &'static [Metric]) -> MetricSet {
        MetricSet {
            table,
            values: BTreeMap::new(),
        }
    }

    /// Records `name`.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not in the table, is set twice, or `value` is
    /// not finite — each is a bug in the harness, not a measurement.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.table.iter().any(|m| m.name == name),
            "metric `{name}` is not in the benchmark's table"
        );
        assert!(value.is_finite(), "metric `{name}` = {value} is not finite");
        assert!(
            self.values.insert(name, value).is_none(),
            "metric `{name}` set twice"
        );
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// `(metric, value)` in table order.
    ///
    /// # Panics
    ///
    /// Panics when a metric of the table was never set.
    pub fn finish(&self) -> Vec<(&'static Metric, f64)> {
        self.table
            .iter()
            .map(|m| {
                let v = self
                    .values
                    .get(m.name)
                    .unwrap_or_else(|| panic!("metric `{}` was never measured", m.name));
                (m, *v)
            })
            .collect()
    }
}

/// `BENCHMARK.json` as the contract wants it: exactly these keys.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (k, (name, why)) in WORKLOADS.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{}\n",
            quote(name),
            quote(why),
            if k + 1 < WORKLOADS.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (k, m) in END_TO_END.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{}\n",
            quote(m.name),
            quote(m.unit),
            quote(m.better.key()),
            m.bound.expect("end-to-end metrics carry a bound"),
            if k + 1 < END_TO_END.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (k, m) in PER_LAYER.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{}\n",
            quote(m.name),
            quote(m.unit),
            quote(m.better.key()),
            if k + 1 < PER_LAYER.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn name_ok(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract_charset() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(name_ok(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why too long"
            );
            assert!(seen.insert(name), "{name} used twice");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "{}: unit {:?}",
                m.name,
                m.unit
            );
        }
        for m in &END_TO_END {
            let bound = m.bound.unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.unwrap() <= setup.bound.unwrap()));
        assert!(!name_ok("") && !name_ok("-x") && !name_ok("a b") && !name_ok("a/b"));
    }

    #[test]
    fn benchmark_json_at_the_root_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(text, benchmark_json(), "regenerate with `benchmark spec`");
        let doc = json::parse(&text).unwrap();
        let keys: Vec<&str> = doc
            .members()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(text.len() <= 64 * 1024);
    }

    #[test]
    fn metric_set_rejects_unknown_and_missing_names() {
        let mut set = MetricSet::new(&END_TO_END);
        set.set("setup_s", 1.0);
        assert!(std::panic::catch_unwind(|| {
            let mut s = MetricSet::new(&END_TO_END);
            s.set("not_a_metric", 1.0);
        })
        .is_err());
        assert!(std::panic::catch_unwind(move || set.finish()).is_err());
    }
}
