//! The metric names the benchmark emits, their units, and the result
//! line it prints. `BENCHMARK.json` declares the same names;
//! a test keeps the two in step.

use crate::json::{number, quote};

/// One declared metric. Its direction and bound live in
/// `BENCHMARK.json`, which `--compare` reads.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, unique across both lists.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn metric(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics, emitted by every workload's untraced run.
pub const END_TO_END: [Metric; 4] = [
    metric("setup_s", "s"),
    metric("in_deadline_rate", "ratio"),
    metric("store_mb", "MB"),
    metric("peak_rss_mb", "MB"),
];

/// Per-layer metrics, emitted by every workload's traced run (0 where a
/// layer does no work on that workload). The first three are end-to-end
/// wall times too noisy on the reference host to hold a bound.
pub const PER_LAYER: [Metric; 46] = [
    metric("respond_p50_ms", "ms"),
    metric("respond_p95_ms", "ms"),
    metric("refresh_s", "s"),
    metric("frontend.queue_wait_p50_us", "us"),
    metric("frontend.queue_wait_p95_us", "us"),
    metric("frontend.shed", "count"),
    metric("frontend.peak_queued", "count"),
    metric("service.respond_p50_us", "us"),
    metric("service.respond_p95_us", "us"),
    metric("service.live_share", "ratio"),
    metric("service.fail_rate", "ratio"),
    metric("nlq.classify_p50_us", "us"),
    metric("nlq.classify_p99_us", "us"),
    metric("store.lookup_p50_ns", "ns"),
    metric("store.lookup_p99_ns", "ns"),
    metric("store.probes_per_lookup", "count"),
    metric("store.exact_hit_ratio", "ratio"),
    metric("store.wide_lookup_ns_n4", "ns"),
    metric("store.wide_lookup_ns_n8", "ns"),
    metric("store.wide_lookup_ns_n12", "ns"),
    metric("store.wide_lookup_ns_n16", "ns"),
    metric("store.wide_lookup_ns_n20", "ns"),
    metric("pipeline.live_self_p50_us", "us"),
    metric("pipeline.live_self_p90_us", "us"),
    metric("pool.bulk_queued_max", "count"),
    metric("pool.interactive_queued_max", "count"),
    metric("generator.enumerate_ms", "ms"),
    metric("generator.solver_ms", "ms"),
    metric("generator.other_ms", "ms"),
    metric("generator.queries", "count"),
    metric("core.index_row_touches", "count"),
    metric("core.nodes_expanded", "count"),
    metric("core.speeches_evaluated", "count"),
    metric("core.groups_pruned", "count"),
    metric("ingest.flush_ms_p50", "ms"),
    metric("ingest.flush_ms_max", "ms"),
    metric("ingest.flushes", "count"),
    metric("ingest.resummarized_per_delta", "count"),
    metric("ingest.accept_p90_us", "us"),
    metric("ingest.fresh_p50_ms", "ms"),
    metric("ingest.fresh_p90_ms", "ms"),
    metric("ingest.drain_ms", "ms"),
    metric("loadgen.send_lag_max_us", "us"),
    metric("loadgen.send_lag_p95_us", "us"),
    metric("trace.overhead_p50", "ratio"),
    metric("trace.reconcile_ratio", "ratio"),
];

/// Whether `name` is a legal metric or workload name: starts with a
/// letter or digit, then at most 63 more letters, digits, `_`, `.`, `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The outcome of one run: the last line of standard output.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (shed, expired, internal, control errors).
    pub failed: u64,
    /// `(metric, value)` in declaration order.
    pub metrics: Vec<(Metric, f64)>,
}

impl RunResult {
    /// The result as one JSON object on one line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(metric, value)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(metric.name),
                    number(*value),
                    quote(metric.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::HashSet;

    #[test]
    fn names_are_legal_and_unique() {
        let mut seen = HashSet::new();
        for metric in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(metric.name), "{}", metric.name);
            assert!(seen.insert(metric.name), "duplicate {}", metric.name);
            assert!(metric.unit.len() <= 16);
        }
        assert!(!valid_name("_x"));
        assert!(!valid_name("a b"));
    }

    /// `BENCHMARK.json` declares exactly what the program emits.
    #[test]
    fn benchmark_json_declares_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let json = Json::parse(&text).expect("valid JSON");
        for (key, declared) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = json.get(key).and_then(Json::as_array).expect(key);
            assert_eq!(listed.len(), declared.len(), "{key} count");
            for (entry, metric) in listed.iter().zip(declared) {
                assert_eq!(entry.get("name").and_then(Json::as_str), Some(metric.name));
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(metric.unit));
            }
        }
        let workloads: Vec<&str> = json
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let names: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, names);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let result = RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![(END_TO_END[0], 0.8127)],
        };
        let json = Json::parse(&result.to_json()).unwrap();
        let keys: Vec<&str> = json
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = json.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }
}
