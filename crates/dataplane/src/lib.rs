//! # contra-dataplane — the synthesized Contra protocol at runtime
//!
//! The runtime half of the paper: per-switch programs that originate and
//! process versioned probes over the product graph, populate `FwdT`/`BestT`,
//! and forward traffic with policy-aware flowlet switching, failure
//! expiry and lazy loop breaking (Fig 7 and all of §5).
//!
//! * [`ContraSwitch`] implements `contra_sim::SwitchLogic`, so it plugs
//!   into the packet-level simulator exactly like the baselines.
//! * [`Contra`] is the `contra_sim::RoutingSystem` that wires one switch
//!   program onto every switch of a simulator.
//! * [`harness::ProtocolHarness`] runs any `SwitchLogic` (Contra's by
//!   default) under pinned metrics, the §4 "stable metrics" setting. Its
//!   `traffic_path` forwards a data packet through the switches: it pins a
//!   flowlet and touches the loop table on its way, and stops where the
//!   engine drops (no route, a down cable, TTL 0).

pub mod harness;
pub mod switch;
pub mod system;
pub mod tables;

pub use harness::ProtocolHarness;
pub use switch::{ContraSwitch, DataplaneConfig};
pub use system::Contra;
pub use tables::{
    BestTable, FlowletEntry, FlowletKey, FlowletTable, FwdEntry, FwdKey, FwdTable, LoopTable,
};

#[cfg(test)]
mod tests {
    use super::*;
    use contra_core::Compiler;
    use contra_sim::{FlowSpec, SimConfig, Simulator, Time};
    use contra_topology::{generators, Topology};
    use std::sync::Arc;

    /// S, A, B, D with S–A, S–B, A–B, A–D (B reaches D only via A).
    fn square() -> Topology {
        let mut t = Topology::builder();
        let s = t.switch("S");
        let a = t.switch("A");
        let b = t.switch("B");
        let d = t.switch("D");
        t.biline(s, a, 10e9, 1_000);
        t.biline(s, b, 10e9, 1_000);
        t.biline(a, b, 10e9, 1_000);
        t.biline(a, d, 10e9, 1_000);
        t.build()
    }

    fn diamond() -> Topology {
        let mut t = Topology::builder();
        let s = t.switch("S");
        let a = t.switch("A");
        let b = t.switch("B");
        let d = t.switch("D");
        t.biline(s, a, 10e9, 1_000);
        t.biline(s, b, 10e9, 1_000);
        t.biline(a, d, 10e9, 1_000);
        t.biline(b, d, 10e9, 1_000);
        t.build()
    }

    fn harness_for(topo: &Topology, policy: &str) -> ProtocolHarness {
        let cp = Arc::new(Compiler::new(topo).compile_str(policy).unwrap());
        ProtocolHarness::new(topo, cp, DataplaneConfig::default())
    }

    /// The compiler writes a program for every switch of its topology; a
    /// node it never saw has none, and asking for one is a caller bug that
    /// names the node.
    #[test]
    #[should_panic(expected = "no compiled program for n99")]
    fn switch_without_a_program_is_refused() {
        let topo = square();
        let cp = Arc::new(
            Compiler::new(&topo)
                .compile_str("minimize(path.util)")
                .unwrap(),
        );
        ContraSwitch::new(cp, contra_topology::NodeId(99), DataplaneConfig::default());
    }

    #[test]
    fn min_util_prefers_least_utilized_path() {
        let topo = diamond();
        let (s, a, b, d) = (
            topo.find("S").unwrap(),
            topo.find("A").unwrap(),
            topo.find("B").unwrap(),
            topo.find("D").unwrap(),
        );
        let mut h = harness_for(&topo, "minimize(path.util)");
        h.set_util_bidir(s, a, 0.4);
        h.set_util_bidir(a, d, 0.1);
        h.set_util_bidir(s, b, 0.1);
        h.set_util_bidir(b, d, 0.3);
        h.run_rounds(3);
        // S-B-D bottleneck 0.3 < S-A-D bottleneck 0.4.
        assert_eq!(h.traffic_path(s, d), Some(vec![s, b, d]));
        // And the protocol's choice matches the brute-force optimum.
        let chosen = h.traffic_path(s, d).unwrap();
        assert_eq!(h.oracle_rank(&chosen), h.oracle_best_rank(s, d, 4));
    }

    #[test]
    fn preference_flips_when_metrics_change() {
        let topo = diamond();
        let (s, a, b, d) = (
            topo.find("S").unwrap(),
            topo.find("A").unwrap(),
            topo.find("B").unwrap(),
            topo.find("D").unwrap(),
        );
        let mut h = harness_for(&topo, "minimize(path.util)");
        h.set_util_bidir(s, a, 0.1);
        h.set_util_bidir(a, d, 0.1);
        h.set_util_bidir(s, b, 0.5);
        h.set_util_bidir(b, d, 0.5);
        h.run_rounds(3);
        assert_eq!(h.traffic_path(s, d), Some(vec![s, a, d]));
        // Load shifts: A-side becomes congested.
        h.set_util_bidir(s, a, 0.9);
        h.set_util_bidir(a, d, 0.9);
        h.run_rounds(3);
        assert_eq!(h.traffic_path(s, d), Some(vec![s, b, d]));
    }

    #[test]
    fn waypoint_policy_routes_through_waypoint() {
        let topo = square();
        let (s, a, b, d) = (
            topo.find("S").unwrap(),
            topo.find("A").unwrap(),
            topo.find("B").unwrap(),
            topo.find("D").unwrap(),
        );
        // All traffic to D must pass through B, even though S-A-D is
        // shorter; the only simple compliant path from S is S-B-A-D.
        let mut h = harness_for(&topo, "minimize(if .* B .* then path.util else inf)");
        h.run_rounds(3);
        let p = h.traffic_path(s, d).expect("a compliant path exists");
        assert!(p.contains(&b), "path {p:?} avoids the waypoint");
        assert_eq!(p, vec![s, b, a, d]);
    }

    #[test]
    fn failover_policy_static_preferences() {
        let topo = diamond();
        let (s, a, b, d) = (
            topo.find("S").unwrap(),
            topo.find("A").unwrap(),
            topo.find("B").unwrap(),
            topo.find("D").unwrap(),
        );
        let mut h = harness_for(
            &topo,
            "minimize(if S A D then 0 else if S B D then 1 else inf)",
        );
        h.run_rounds(3);
        assert_eq!(h.traffic_path(s, d), Some(vec![s, a, d]));
        // Primary dies → failover to S-B-D after detection (3 periods) +
        // a refresh round.
        h.fail_link(a, d);
        h.run_rounds(5);
        assert_eq!(h.traffic_path(s, d), Some(vec![s, b, d]));
    }

    #[test]
    fn failure_detection_then_recovery() {
        let topo = diamond();
        let (s, a, b, d) = (
            topo.find("S").unwrap(),
            topo.find("A").unwrap(),
            topo.find("B").unwrap(),
            topo.find("D").unwrap(),
        );
        let mut h = harness_for(&topo, "minimize(path.util)");
        h.set_util_bidir(s, a, 0.0);
        h.set_util_bidir(a, d, 0.0);
        h.set_util_bidir(s, b, 0.5);
        h.set_util_bidir(b, d, 0.5);
        h.run_rounds(3);
        assert_eq!(h.traffic_path(s, d), Some(vec![s, a, d]));
        h.fail_link(a, d);
        // A (adjacent to the failure) detects within `FAILURE_PERIODS`;
        // S's row through A only yields once the metric-expiration window
        // (`EXPIRY_PERIODS` = 8) passes, since the S–A cable itself stays
        // alive. Run past both windows.
        h.run_rounds(10);
        let p = h.traffic_path(s, d).expect("reroute must exist");
        assert!(
            !p.windows(2).any(|w| w == [a, d]),
            "path {p:?} uses dead link"
        );
    }

    #[test]
    fn ca_policy_switches_branch_under_load() {
        // P9: light load → min-util; heavy load (≥0.8 everywhere) →
        // shortest path.
        let mut t = Topology::builder();
        let s = t.switch("S");
        let a = t.switch("A");
        let b = t.switch("B");
        let d = t.switch("D");
        // Short path S-D directly; long detour S-A-B-D.
        t.biline(s, d, 10e9, 1_000);
        t.biline(s, a, 10e9, 1_000);
        t.biline(a, b, 10e9, 1_000);
        t.biline(b, d, 10e9, 1_000);
        let topo = t.build();
        let mut h = harness_for(
            &topo,
            "minimize(if path.util < .8 then (1, 0, path.util) else (2, path.len, path.util))",
        );
        assert_eq!(h.cp().num_pids(), 2, "CA decomposes into two pids");
        // Light load: direct link busy (0.5), detour idle (0.1) → detour
        // wins on utilization despite being 3 hops.
        h.set_util_bidir(s, d, 0.5);
        h.set_util_bidir(s, a, 0.1);
        h.set_util_bidir(a, b, 0.1);
        h.set_util_bidir(b, d, 0.1);
        h.run_rounds(3);
        assert_eq!(h.traffic_path(s, d), Some(vec![s, a, b, d]));
        // Heavy load everywhere (≥ 0.8): shortest path wins.
        for (x, y) in [(s, d), (s, a), (a, b), (b, d)] {
            h.set_util_bidir(x, y, 0.85);
        }
        h.run_rounds(3);
        assert_eq!(h.traffic_path(s, d), Some(vec![s, d]));
    }

    #[test]
    fn source_local_p8_uses_two_pids_and_differs_per_source() {
        // P8: A routes on utilization; everyone else on latency.
        let mut t = Topology::builder();
        let a = t.switch("A");
        let s = t.switch("S");
        let d = t.switch("D");
        let c = t.switch("C");
        // Two ways from A to D: via C (low util, high lat), direct (high
        // util, low lat).
        t.biline(a, d, 10e9, 1_000);
        t.biline(a, c, 10e9, 50_000);
        t.biline(c, d, 10e9, 50_000);
        t.biline(s, a, 10e9, 1_000);
        let topo = t.build();
        let mut h = harness_for(&topo, "minimize(if A .* then path.util else path.lat)");
        assert_eq!(h.cp().num_pids(), 2);
        h.set_util_bidir(a, d, 0.9); // direct is congested
        h.set_util_bidir(a, c, 0.1);
        h.set_util_bidir(c, d, 0.1);
        h.set_util_bidir(s, a, 0.1);
        h.run_rounds(3);
        // A prefers min-util: the C detour.
        assert_eq!(h.traffic_path(a, d), Some(vec![a, c, d]));
        // S prefers min-latency: straight through A-D despite congestion.
        assert_eq!(h.traffic_path(s, d), Some(vec![s, a, d]));
    }

    #[test]
    fn end_to_end_simulation_with_flows() {
        // Full engine: leaf-spine, MU policy, a handful of TCP flows.
        let topo = generators::leaf_spine(
            2,
            2,
            2,
            generators::LinkSpec::default(),
            generators::LinkSpec::default(),
        );
        let mut sim = Simulator::new(
            topo.clone(),
            SimConfig {
                stop_at: Time::ms(30),
                trace_paths: true,
                ..SimConfig::default()
            },
        );
        let cache = contra_sim::CompileCache::new();
        contra_sim::RoutingSystem::install(
            &Contra::mu().with_config(DataplaneConfig::default()),
            &mut sim,
            &contra_sim::InstallCtx::new(&topo, &[], &cache),
        )
        .unwrap();
        let hosts = topo.hosts();
        // Cross-leaf flows, started after two probe periods of warm-up.
        for i in 0..4 {
            sim.add_flow(FlowSpec::Tcp {
                src: hosts[i % 2],
                dst: hosts[2 + (i % 2)],
                bytes: 300_000,
                start: Time::us(600 + 40 * i as u64),
            });
        }
        let (stats, traces) = sim.run_traced();
        assert_eq!(stats.completion_rate(), 1.0, "flows must finish");
        assert!(stats.wire_bytes[&contra_sim::TrafficKind::Probe] > 0);
        // Transient loops are permitted (§5: "a packet may experience a
        // transient yet policy-compliant loop") but must be rare and
        // non-persistent: the vast majority of packets take the direct
        // leaf-spine-leaf path, and no packet bounces until TTL death.
        let long = traces.iter().filter(|(_, t)| t.len() > 3).count();
        assert!(
            (long as f64) < 0.05 * traces.len() as f64,
            "{long}/{} packets took detours",
            traces.len()
        );
        assert!(
            stats.looped_packets as f64 <= 0.05 * stats.delivered_packets as f64,
            "too many transient loops: {} of {}",
            stats.looped_packets,
            stats.delivered_packets
        );
        assert_eq!(
            *stats
                .drops
                .get(&contra_sim::DropReason::TtlExpired)
                .unwrap_or(&0),
            0,
            "no packet may loop to TTL death"
        );
    }

    #[test]
    fn probe_overhead_is_bounded_per_round() {
        // MU on a diamond: each round every destination floods its probe
        // once per PG edge at most (monotone retention ⇒ no re-circulation).
        let topo = diamond();
        let mut h = harness_for(&topo, "minimize(path.util)");
        h.run_rounds(1);
        let first = h.probes_delivered;
        h.run_rounds(4);
        let per_round = (h.probes_delivered - first) / 4;
        // 4 destinations × 8 directed PG edges = at most 32, plus a few
        // improvement re-broadcasts.
        assert!(per_round <= 64, "probe storm: {per_round}/round");
        assert!(per_round >= 8, "probes must flow: {per_round}/round");
    }

    #[test]
    fn fresh_rounds_override_stale_better_metrics() {
        // §5.1: newer versions replace entries even when their metrics look
        // worse — stale good news must not pin traffic.
        let topo = diamond();
        let (s, a, b, d) = (
            topo.find("S").unwrap(),
            topo.find("A").unwrap(),
            topo.find("B").unwrap(),
            topo.find("D").unwrap(),
        );
        let mut h = harness_for(&topo, "minimize(path.util)");
        h.set_util_bidir(s, a, 0.1);
        h.set_util_bidir(a, d, 0.1);
        h.set_util_bidir(s, b, 0.3);
        h.set_util_bidir(b, d, 0.3);
        h.run_rounds(2);
        assert_eq!(h.traffic_path(s, d), Some(vec![s, a, d]));
        // Metrics worsen on the A side; fresh rounds must override the
        // older, better-looking entries.
        h.set_util_bidir(s, a, 0.8);
        h.set_util_bidir(a, d, 0.8);
        h.run_rounds(2);
        assert_eq!(h.traffic_path(s, d), Some(vec![s, b, d]));
    }

    /// The rows Fig 10 charges for, on the `fabric_probe` fabric after 20
    /// rounds of MU, WP and CA (the compiler policy suite), summed over
    /// the switches, and the probes it took: pinned, so a table layout
    /// that loses or adds a row fails here.
    #[test]
    fn fabric_probe_table_rows_are_pinned() {
        use contra_core::policies;
        let topo = generators::fat_tree(8, 1, generators::LinkSpec::default());
        let s = topo.switches();
        let (f1, f2) = (&topo.node(s[0]).name, &topo.node(s[1]).name);
        for (name, policy, pinned) in [
            ("MU", policies::min_util(), (2528, 2528, 327_680)),
            ("WP", policies::waypoint(f1, f2), (4992, 2528, 642_560)),
            ("CA", policies::congestion_aware(), (5056, 2528, 655_360)),
        ] {
            let cp = Arc::new(Compiler::new(&topo).compile_str(&policy).unwrap());
            let cfg = DataplaneConfig::for_policy(&cp);
            let mut h = ProtocolHarness::new(&topo, cp.clone(), cfg);
            h.run_rounds(20);
            let (mut fwdt, mut best) = (0, 0);
            for &sw in cp.programs.keys() {
                let (f, b) = h.switch(sw).table_rows();
                (fwdt, best) = (fwdt + f, best + b);
            }
            assert_eq!((fwdt, best, h.probes_delivered), pinned, "{name}");
        }
    }

    #[test]
    fn wan_config_respects_probe_period_floor() {
        let topo = generators::abilene(40e9);
        let cp = Compiler::new(&topo)
            .compile_str("minimize(path.util)")
            .unwrap();
        let cfg = DataplaneConfig::for_policy(&cp);
        assert!(cfg.probe_period.0 >= cp.min_probe_period_ns);
        assert!(
            cfg.probe_period > Time::us(256),
            "Abilene RTTs are ms-scale"
        );
    }
}
