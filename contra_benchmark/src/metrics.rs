//! The metric tables: the one place in the binary where a metric's
//! name, unit, bound and headline rule are written down.
//! `BENCHMARK.json` repeats them for the acceptance driver; the
//! `benchmark_json_is_in_sync` test keeps the two identical.

/// How repeated samples of one metric reduce to its headline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stat {
    /// Host time of deterministic work: noise only ever slows a rep.
    Min,
    /// Set-up time, as the driver's contract asks for it.
    Median,
    /// A pure function of the seed; every sample must be identical.
    Exact,
}

/// One row of either table. Lower is better unless `higher_is_better`.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub stat: Stat,
    /// Share of the baseline by which the headline may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
    pub higher_is_better: bool,
}

const fn e2e(name: &'static str, unit: &'static str, stat: Stat, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        stat,
        bound: Some(bound),
        higher_is_better: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, stat: Stat) -> Metric {
    Metric {
        name,
        unit,
        stat,
        bound: None,
        higher_is_better: false,
    }
}

const fn higher(mut m: Metric) -> Metric {
    m.higher_is_better = true;
    m
}

use Stat::{Exact, Median, Min};

/// What a user of the system sees, on every workload.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Median, 0.25),
    e2e("run_s", "s", Min, 0.25),
    e2e("allocs_per_run", "count", Exact, 0.15),
    e2e("switch_state_kb", "kB", Exact, 0.02),
];

/// One layer each, from the traced pass. Metrics a workload does not
/// exercise read 0 there.
pub const PER_LAYER: &[Metric] = &[
    // What a user sees on some workloads only, or what follows the seed
    // too closely to carry a bound: the driver's contract (every
    // end-to-end metric on every workload, never 0, steady across seeds)
    // keeps these out of the table above.
    layer("compile_s", "s", Min),
    layer("verify_s", "s", Min),
    layer("peak_heap_mb", "MB", Exact),
    layer("fct_mean_ms", "ms", Exact),
    layer("fct_p99_ms", "ms", Exact),
    layer("flows_unfinished_pct", "%", Exact),
    layer("probe_overhead_pct", "%", Exact),
    layer("recovery_ms", "ms", Exact),
    layer("lost_pkts", "count", Exact),
    layer("topology.build_ms", "ms", Min),
    layer("topology.rtt_scan_ms", "ms", Min),
    layer("core.parse_ms", "ms", Min),
    layer("core.normalize_ms", "ms", Min),
    layer("core.analyze_ms", "ms", Min),
    layer("core.resolve_ms", "ms", Min),
    layer("automata.determinize_ms", "ms", Min),
    layer("core.product_ms", "ms", Min),
    layer("core.tablegen_ms", "ms", Min),
    layer("core.other_ms", "ms", Min),
    layer("core.compile_allocs", "count", Exact),
    layer("core.pg_vnodes", "count", Exact),
    layer("core.tags_total", "count", Exact),
    layer("automata.dfa_states", "count", Exact),
    layer("core.verify_ms", "ms", Min),
    layer("core.verify_diags", "count", Exact),
    layer("p4gen.emit_ms", "ms", Min),
    layer("p4gen.validate_ms", "ms", Min),
    layer("p4gen.p4_bytes", "bytes", Exact),
    layer("p4gen.state_kb_max", "kB", Exact),
    layer("dataplane.install_ms", "ms", Min),
    layer("dataplane.probe_ns.mu", "ns", Min),
    layer("dataplane.probe_ns.wp", "ns", Min),
    layer("dataplane.probe_ns.ca", "ns", Min),
    layer("dataplane.probe_allocs", "count", Exact),
    layer("dataplane.probes_per_round", "count", Exact),
    layer("dataplane.probes_sent", "count", Exact),
    layer("dataplane.table_updates", "count", Exact),
    higher(layer("dataplane.update_ratio", "ratio", Exact)),
    layer("dataplane.register_collisions", "count", Exact),
    layer("baselines.floor_ns_per_event", "ns", Min),
    layer("baselines.ecmp_install_ms", "ms", Min),
    layer("sim.events", "count", Exact),
    higher(layer("sim.events_per_s", "1/s", Min)),
    layer("sim.ns_per_event", "ns", Min),
    layer("sim.sched.hold_ns.8k", "ns", Min),
    layer("sim.sched.hold_ns.64k", "ns", Min),
    layer("sim.link.pkt_ns", "ns", Min),
    layer("sim.recorder.overhead_pct", "%", Min),
    layer("sim.audit.overhead_pct", "%", Min),
    layer("sim.trace.overhead_pct", "%", Min),
    layer("sim.drops.queue_full", "count", Exact),
    layer("sim.drops.link_down", "count", Exact),
    layer("sim.drops.no_route", "count", Exact),
    layer("sim.retransmits", "count", Exact),
    layer("sim.wire.data_bytes", "bytes", Exact),
    layer("sim.wire.probe_bytes", "bytes", Exact),
    layer("workloads.flowgen_ms", "ms", Min),
    layer("workloads.flows", "count", Exact),
    layer("experiments.derive_ms", "ms", Min),
    layer("experiments.setup_other_ms", "ms", Min),
    layer("telemetry.export_ms", "ms", Min),
    layer("telemetry.events", "count", Exact),
    layer("telemetry.evicted", "count", Exact),
    layer("bench.trace_overhead_pct", "%", Min),
    layer("bench.rep_iqr_pct", "%", Min),
    layer("bench.runq_wait_pct", "%", Min),
];

/// Looks a metric up in either table.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// The driver's rule for a name: starts with a letter or digit, then
    /// at most 63 more of letters, digits, `_`, `.` and `-`.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{:?}", m.name);
            assert!(seen.insert(m.name), "{} is listed twice", m.name);
            assert!(
                m.unit.len() <= 16 && !m.unit.is_empty(),
                "{} unit {:?}",
                m.name,
                m.unit
            );
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(!valid_name("") && !valid_name(".hidden") && !valid_name("a b"));
    }

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// workloads and metrics this binary emits, under the same units,
    /// directions and bounds.
    #[test]
    fn benchmark_json_is_in_sync() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let field = |v: &Json, key: &str| v.get(key).and_then(Json::str).unwrap().to_string();

        let listed: Vec<String> = doc
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        let emitted: Vec<&str> = crate::workloads::all().iter().map(|w| w.name()).collect();
        assert_eq!(listed, emitted, "workloads");
        assert!(listed.iter().all(|n| valid_name(n)));

        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let rows = doc.get(key).unwrap().items();
            let listed: Vec<String> = rows.iter().map(|r| field(r, "name")).collect();
            let emitted: Vec<&str> = table.iter().map(|m| m.name).collect();
            assert_eq!(listed, emitted, "{key}");
            for (row, m) in rows.iter().zip(table) {
                assert_eq!(field(row, "unit"), m.unit, "{}", m.name);
                let better = if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(field(row, "better"), better, "{}", m.name);
                assert_eq!(row.get("bound").and_then(Json::num), m.bound, "{}", m.name);
            }
        }

        let setup = find("setup_s").expect("the driver requires setup_s");
        assert_eq!((setup.unit, setup.higher_is_better), ("s", false));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );
        assert!(widest <= 0.25);

        let paths: Vec<&str> = doc
            .get("paths")
            .unwrap()
            .items()
            .iter()
            .filter_map(Json::str)
            .collect();
        assert_eq!(paths, ["contra_benchmark"]);
        let command: Vec<&str> = doc
            .get("command")
            .unwrap()
            .items()
            .iter()
            .filter_map(Json::str)
            .collect();
        assert!(
            command.contains(&"contra_benchmark/Cargo.toml"),
            "{command:?}"
        );
    }
}
