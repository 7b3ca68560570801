//! The metric vocabulary: names and units. `BENCHMARK.json` at the
//! repository root lists the same metrics with their direction and bound;
//! a test keeps the two in step, and `compare` reads the bounds from there.

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// How long one run measures, in seconds, unless told otherwise.
pub const RUN_SECONDS: u64 = 20;

/// What a user of the daemon sees, with tracing off.
pub const END_TO_END: [Metric; 5] = [
    m("latency_p50_ms", "ms"),
    m("latency_p90_ms", "ms"),
    m("throughput_ops_s", "ops/s"),
    m("setup_s", "s"),
    m("server_peak_rss_mb", "MiB"),
];

/// From the traced in-process replay: a median per op unless the unit is
/// a count. A layer a workload never reaches reads 0 on it.
pub const PER_LAYER: [Metric; 35] = [
    m("serve.server.wire_ms", "ms"),
    m("serve.rpc.read_frame_us", "us"),
    m("serve.rpc.write_frame_us", "us"),
    m("serve.rpc.request_bytes", "bytes"),
    m("serve.rpc.response_bytes", "bytes"),
    m("core.api.json_parse_us", "us"),
    m("core.api.json_encode_us", "us"),
    m("core.api.response_build_us", "us"),
    m("serve.service.admit_us", "us"),
    m("serve.service.dispatch_us", "us"),
    m("serve.service.other_us", "us"),
    m("core.textfd.parse_fd_us", "us"),
    m("core.api.parse_update_json_us", "us"),
    m("core.analyzer.independence_us", "us"),
    m("core.lazy_ic.states_interned", "count"),
    m("core.lazy_ic.guard_intersections", "count"),
    m("core.lazy_ic.frontier_pushes", "count"),
    m("core.analyzer.pattern_cache_misses", "count"),
    m("core.matrix.pruned_us", "us"),
    m("core.matrix.unpruned_us", "us"),
    m("core.fdset.minimize_us", "us"),
    m("core.matrix.cells_computed", "count"),
    m("core.matrix.rows_implied", "count"),
    m("core.matrix.verdicts_reused", "count"),
    m("core.incremental.apply_and_recheck_us", "us"),
    m("core.incremental.rechecks_localized", "count"),
    m("core.incremental.rechecks_full", "count"),
    m("core.incremental.verdicts_reused", "count"),
    m("core.incremental.seed_ms", "ms"),
    m("xml.parse.parse_document_us", "us"),
    m("xml.parse.nodes", "count"),
    m("hedge.schema.parse_us", "us"),
    m("core.analyzer.validate_us", "us"),
    m("core.analyzer.check_fds_us", "us"),
    m("bench.trace_overhead_pct", "%"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Kind;
    use regtree_core::api::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        Json::parse(&text).expect("BENCHMARK.json is JSON")
    }

    fn list<'a>(b: &'a Json, key: &str) -> &'a [Json] {
        b.get(key).and_then(Json::as_array).expect(key)
    }

    fn field<'a>(j: &'a Json, key: &str) -> &'a str {
        j.get(key).and_then(Json::as_str).expect(key)
    }

    #[test]
    fn benchmark_json_lists_the_same_workloads_and_metrics() {
        let b = benchmark_json();
        assert_eq!(
            b.get("run_seconds").and_then(Json::as_u64),
            Some(RUN_SECONDS)
        );
        let names: Vec<&str> = list(&b, "workloads")
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(names, Kind::ALL.map(Kind::name));
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(&str, &str)> = list(&b, key)
                .iter()
                .map(|j| (field(j, "name"), field(j, "unit")))
                .collect();
            let want: Vec<(&str, &str)> = table.iter().map(|t| (t.name, t.unit)).collect();
            assert_eq!(listed, want, "{key}");
        }
    }

    #[test]
    fn setup_time_has_the_widest_bound() {
        let b = benchmark_json();
        let bound = |j: &Json| j.get("bound").and_then(Json::as_f64).expect("bound");
        let e2e = list(&b, "end_to_end");
        let widest = e2e.iter().map(bound).fold(0.0, f64::max);
        let setup = e2e
            .iter()
            .find(|j| field(j, "name") == "setup_s")
            .expect("setup_s");
        assert_eq!(bound(setup), widest);
        assert!(e2e.iter().all(|j| bound(j) > 0.0 && bound(j) <= 0.25));
    }
}
