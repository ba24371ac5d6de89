//! Propane-style failover preferences: pin a primary path, fail it, watch
//! traffic move to the backup, and confirm the policy's strict priorities
//! are respected throughout — first under pinned metrics in the protocol
//! harness, then live in the packet simulator via the `Scenario` API.
//!
//! ```sh
//! cargo run --example failover_policy
//! ```

use contra::core::{policies, Compiler};
use contra::dataplane::{Contra, DataplaneConfig, ProtocolHarness};
use contra::experiments::{Scenario, Traffic};
use contra::sim::{FlowSpec, Time};
use contra::topology::Topology;
use std::sync::Arc;

/// The classic A→D diamond with primary A-B-D and backup A-C-D.
fn diamond() -> Topology {
    let mut t = Topology::builder();
    let a = t.switch("A");
    let b = t.switch("B");
    let c = t.switch("C");
    let d = t.switch("D");
    t.biline(a, b, 10e9, 1_000);
    t.biline(b, d, 10e9, 1_000);
    t.biline(a, c, 10e9, 1_000);
    t.biline(c, d, 10e9, 1_000);
    t.build()
}

fn main() {
    let topo = diamond();
    let (a, b, c, d) = (
        topo.find("A").unwrap(),
        topo.find("B").unwrap(),
        topo.find("C").unwrap(),
        topo.find("D").unwrap(),
    );
    let src = policies::failover(&["A", "B", "D"], &["A", "C", "D"]);
    println!("policy: {src}");
    let cp = Arc::new(Compiler::new(&topo).compile_str(&src).expect("compiles"));
    // Static preferences need no dynamic metrics at all.
    assert!(cp.basis.is_empty(), "failover carries no metrics in probes");

    // Part 1 — protocol harness (pinned metrics): primary, failover, and
    // strict-preference return.
    let cfg = DataplaneConfig::for_policy(&cp);
    let mut h = ProtocolHarness::new(&topo, cp, cfg);
    h.run_rounds(3);
    let p = h.traffic_path(a, d).unwrap();
    println!("primary in use: {:?}", name_path(&topo, &p));
    assert_eq!(p, vec![a, b, d]);

    h.fail_link(b, d);
    h.run_rounds(12);
    let p = h.traffic_path(a, d).unwrap();
    println!("after B–D failure: {:?}", name_path(&topo, &p));
    assert_eq!(p, vec![a, c, d], "must fail over to the backup, not drop");

    // Bring the primary back: strict preference means traffic returns.
    h.recover_link(b, d);
    h.run_rounds(3);
    let p = h.traffic_path(a, d).unwrap();
    println!("after B–D recovery: {:?}", name_path(&topo, &p));
    assert_eq!(p, vec![a, b, d], "strict preference pulls traffic back");

    // Part 2 — live packet simulation: a transfer straddles the failure;
    // packets delivered after the reroute must use the backup path. Live
    // TCP needs the *reverse* paths compliant too (ACKs flow D→A), so the
    // live policy states each preference in both directions.
    let live_src = "minimize(if (A B D + D B A) then 0 else if (A C D + D C A) then 1 else inf)";
    println!("live policy: {live_src}");
    let hosted = contra::topology::generators::with_hosts(
        &topo,
        1,
        contra::topology::generators::LinkSpec::default(),
    );
    let (ha, hd) = (hosted.find("A_h0").unwrap(), hosted.find("D_h0").unwrap());
    // 5 MB at 10 Gbps needs ≥ 4 ms on the wire: the 1 ms failure lands
    // mid-transfer.
    let fail_at = Time::ms(1);
    let scenario = Scenario::custom("failover-diamond", hosted)
        .traffic(Traffic::None)
        .duration(Time::ms(40))
        .warmup(Time::ZERO)
        .drain(Time::ZERO)
        .trace_paths(true)
        .fail_link("B", "D", fail_at)
        .flow(FlowSpec::Tcp {
            src: ha,
            dst: hd,
            bytes: 5_000_000,
            start: Time::us(600),
        });
    let r = scenario.run(&Contra::new(live_src));
    println!(
        "live run: completion {:.3}, {} delivered packets",
        r.figures.completion_rate, r.figures.delivered_packets
    );
    assert_eq!(
        r.figures.completion_rate, 1.0,
        "transfer survives the failure"
    );
    let traces = r.traces.as_ref().unwrap();
    let via_backup = traces
        .iter()
        .filter(|(_, tr)| tr.windows(2).any(|w| w == [c, d]))
        .count();
    let via_primary = traces
        .iter()
        .filter(|(_, tr)| tr.windows(2).any(|w| w == [b, d]))
        .count();
    println!("packets via primary B-D: {via_primary}, via backup C-D: {via_backup}");
    assert!(via_primary > 0, "the transfer must start on the primary");
    assert!(via_backup > 0, "post-failure packets must use the backup");
}

fn name_path(topo: &Topology, p: &[contra::topology::NodeId]) -> Vec<String> {
    p.iter().map(|&n| topo.node(n).name.clone()).collect()
}
