//! The names and units of every metric the benchmark prints. The
//! `BENCHMARK.json` at the repository root must list exactly these; a
//! unit test holds the two together.

use crate::measure::{DROP_REASONS, HOPS};

/// End-to-end metrics, printed by untraced runs.
pub const END_TO_END: [(&str, &str); 7] = [
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_p50_ms", "ms"),
    ("sim_p99_ms", "ms"),
    ("failed_share", "ratio"),
];

/// Per-layer metrics whose names are fixed, printed by traced runs.
const LAYER_FIXED: [(&str, &str); 41] = [
    ("bladerunner.events_total", "count"),
    ("bladerunner.ns_per_event", "ns"),
    ("bladerunner.chunk_ms_p50", "ms"),
    ("bladerunner.chunk_ms_max", "ms"),
    ("bladerunner.fault_events", "count"),
    ("bladerunner.audit_s", "s"),
    ("bladerunner.speedup_w2", "ratio"),
    ("bladerunner.trace_overhead", "ratio"),
    ("workload.setup_fleet_s", "s"),
    ("workload.inject_s", "s"),
    ("workload.events", "count"),
    ("simkit.snapshot_s", "s"),
    ("simkit.snapshot_mib", "MiB"),
    ("simkit.trace_records", "count"),
    ("simkit.queue_ns_per_op", "ns"),
    ("tao.events", "count"),
    ("tao.mutations", "count"),
    ("was.backfill_polls", "count"),
    ("was.backfills", "count"),
    ("pylon.events", "count"),
    ("pylon.publications", "count"),
    ("pylon.fanout_peak", "count"),
    ("pylon.publish_us_hot", "us"),
    ("pylon.publish_us_spread", "us"),
    ("brass.events", "count"),
    ("brass.useful_ratio", "ratio"),
    ("brass.mailbox_peak", "count"),
    ("brass.mailbox_sheds", "count"),
    ("brass.policy_drops", "count"),
    ("burst.heartbeat_events", "count"),
    ("burst.flow_sheds", "count"),
    ("burst.flow_window_peak", "bytes"),
    ("edge.events_up", "count"),
    ("edge.events_down", "count"),
    ("edge.churn_events", "count"),
    ("edge.proxy_reconnects", "count"),
    ("edge.parked_devices", "count"),
    ("edge.pop_egress_peak", "count"),
    ("edge.teardown_us", "us"),
    ("edge.teardown_growth", "ratio"),
    ("edge.downstream_ns", "ns"),
];

/// Every per-layer metric: the fixed ones, then `hop.<hop>.p99_ms` in
/// pipeline order, then `drop.<reason>` for every drop reason.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    all.extend(
        HOPS.iter()
            .map(|h| (format!("hop.{}.p99_ms", h.name()), "ms")),
    );
    all.extend(
        DROP_REASONS
            .iter()
            .map(|r| (format!("drop.{}", r.name()), "count")),
    );
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use burst::json::Json;

    /// Whether `name` is a valid metric or workload name: a letter or digit
    /// first, then at most 64 letters, digits, `_`, `.` and `-` in all.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Whether `unit` is a valid unit: at most 16 letters, digits, `_`, `/`,
    /// `%`, `.` and `-`.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(spec: &Json, key: &str) -> Vec<(String, String)> {
        match spec.get(key) {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect(),
            _ => panic!("BENCHMARK.json has no {key} list"),
        }
    }

    #[test]
    fn printed_names_match_benchmark_json() {
        let spec = benchmark_json();
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed(&spec, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed(&spec, "per_layer"), layers);
        let workloads: Vec<String> = listed(&spec, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn names_and_units_use_the_allowed_charset_once_each() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        names.extend(Workload::ALL.iter().map(|w| w.name().to_string()));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        for (_, u) in END_TO_END.iter().copied().chain(LAYER_FIXED) {
            assert!(valid_unit(u), "{u}");
        }
        assert!(per_layer().len() <= 128);
        assert!(!valid_name("_leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_unit("µs"));
    }
}
