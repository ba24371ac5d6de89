//! Integration: policy compliance of *actual forwarded traffic* in the
//! packet-level simulator — the paper's "packets only use allowed paths"
//! guarantee (Fig 1), checked against delivered packet traces from
//! `Scenario` runs.

use contra::dataplane::{Contra, DataplaneConfig};
use contra::experiments::{InstallError, Scenario, ScenarioError, Traffic};
use contra::sim::{CompileCache, FlowSpec, Time};

/// Two leaves, two spines, hosts — with a policy that forbids one spine.
#[test]
fn waypoint_traffic_always_crosses_the_waypoint() {
    // All traffic must go through spine0 — spine1 is, say, out of
    // compliance for this tenant.
    let policy = "minimize(if .* spine0 .* then path.util else inf)";
    let mut scenario = Scenario::leaf_spine(2, 2, 2)
        .traffic(Traffic::None)
        .duration(Time::ms(30))
        .warmup(Time::ZERO)
        .drain(Time::ZERO)
        .trace_paths(true);
    let hosts = scenario.topology().hosts();
    for i in 0..8u64 {
        scenario = scenario.flow(FlowSpec::Tcp {
            src: hosts[(i % 2) as usize],
            dst: hosts[2 + (i % 2) as usize],
            bytes: 120_000,
            start: Time::us(600 + 40 * i),
        });
    }
    // One cache serves both the run and the compliance oracle below, so
    // the policy compiles exactly once.
    let cache = CompileCache::new();
    let r = scenario.run_cached(&Contra::new(policy), &cache);
    let cp = cache.get_or_compile(scenario.topology(), policy).unwrap();
    assert_eq!(cache.compiles(), 1, "run and oracle share one compilation");
    assert_eq!(r.figures.completion_rate, 1.0);
    let traces = r.traces.as_ref().expect("tracing was enabled");
    assert!(!traces.is_empty());
    let spine0 = scenario.topology().find("spine0").unwrap();
    for (flow, tr) in traces {
        let syms: Vec<u32> = tr.iter().map(|n| n.0).collect();
        assert!(
            tr.contains(&spine0),
            "flow {flow:?} packet avoided the waypoint: {tr:?}"
        );
        // And the full regex agrees (path = switch sequence).
        assert!(
            cp.traffic_regexes[0].matches(&syms),
            "trace {tr:?} does not match the policy regex"
        );
    }
}

/// Link-preference policy on a WAN: traffic must use the named link.
#[test]
fn link_preference_respected_on_abilene() {
    // Both directions of the preferred link are allowed — a one-direction
    // preference would force ACKs onto a 9-hop detour whose RTT stalls TCP
    // (the reverse path must satisfy the policy too!).
    let policy = "minimize(if .* (Denver KansasCity + KansasCity Denver) .* \
                  then path.util else inf)";
    let base = Scenario::abilene();
    let cache = CompileCache::new();
    let cp = cache.get_or_compile(base.topology(), policy).unwrap();
    let cfg = DataplaneConfig::for_policy(&cp);
    let warmup_ns = cfg.probe_period().0 * 6;
    let sea = base.topology().find("Seattle_h0").unwrap();
    let ny = base.topology().find("NewYork_h0").unwrap();
    let scenario = base
        .traffic(Traffic::None)
        .duration(Time(warmup_ns * 8))
        .warmup(Time(warmup_ns))
        .drain(Time::ZERO)
        .trace_paths(true)
        .flow(FlowSpec::Tcp {
            src: sea,
            dst: ny,
            bytes: 60_000,
            start: Time(warmup_ns),
        });
    let r = scenario.run_cached(&Contra::new(policy), &cache);
    assert_eq!(
        cache.compiles(),
        1,
        "the run reused the oracle's compilation"
    );
    assert_eq!(r.figures.completion_rate, 1.0, "flow must finish");
    let den = scenario.topology().find("Denver").unwrap();
    let kc = scenario.topology().find("KansasCity").unwrap();
    for (_, tr) in r.traces.as_ref().expect("tracing was enabled") {
        let adjacent = tr.windows(2).any(|w| w == [den, kc] || w == [kc, den]);
        assert!(adjacent, "trace {tr:?} missed the Denver–KansasCity link");
    }
}

/// With an all-∞ policy nothing is ever routable — the compiler rejects
/// it upfront, and the scenario surfaces that as an install error.
#[test]
fn impossible_policy_is_rejected_at_install_time() {
    let err = Scenario::abilene()
        .try_run(&Contra::new("minimize(inf)"))
        .unwrap_err();
    match err {
        ScenarioError::Install(InstallError::Compile { policy, .. }) => {
            assert_eq!(policy, "minimize(inf)")
        }
        other => panic!("expected a compile error, got: {other}"),
    }
}

/// Deterministic end-to-end run: identical stats on repeat.
#[test]
fn full_simulation_is_deterministic() {
    let run = || {
        let mut scenario = Scenario::leaf_spine(2, 2, 2)
            .traffic(Traffic::None)
            .duration(Time::ms(20))
            .warmup(Time::ZERO)
            .drain(Time::ZERO);
        let hosts = scenario.topology().hosts();
        for i in 0..6u64 {
            scenario = scenario.flow(FlowSpec::Tcp {
                src: hosts[(i % 2) as usize],
                dst: hosts[2 + (i % 2) as usize],
                bytes: 100_000 + 7_000 * i,
                start: Time::us(600 + 30 * i),
            });
        }
        let r = scenario.run(&Contra::dc());
        (
            r.stats.flows.iter().map(|f| f.finish).collect::<Vec<_>>(),
            r.figures.total_wire_bytes,
            r.figures.delivered_packets,
        )
    };
    assert_eq!(run(), run());
}
