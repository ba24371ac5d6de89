//! Differential validation of the static policy verifier against the two
//! dynamic execution layers:
//!
//! * the **protocol harness** (table-level dataplane): after probe
//!   convergence, `traffic_path(s, d)` must exist exactly where the
//!   verifier found no black hole — checked for the full P1–P9 catalogue
//!   on the leaf-spine, fat-tree and Abilene corpus topologies;
//! * the **packet simulator**: a policy the verifier calls clean must
//!   produce zero `NoRoute` drops under full-mesh UDP, a predicted black
//!   hole must drop exactly the predicted pairs' traffic, and a predicted
//!   fragile cable must reproduce the black hole when that cable fails
//!   mid-run.

use contra_core::{diag::codes, traffic_endpoints, verify, Compiler, Severity};
use contra_dataplane::{Contra, DataplaneConfig, ProtocolHarness};
use contra_experiments::{Scenario, Traffic};
use contra_sim::{DropReason, FlowSpec, Time};
use contra_topology::{generators, NodeId, Topology};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Figure 6's diamond with hosts on A, B and D — so A, B, D are traffic
/// sources *and* probe destinations while C stays transit-only.
fn fig6_with_hosts() -> Topology {
    let mut t = Topology::builder();
    let a = t.switch("A");
    let b = t.switch("B");
    let c = t.switch("C");
    let d = t.switch("D");
    for (x, name) in [(a, "hA"), (b, "hB"), (d, "hD")] {
        let h = t.host(name);
        t.biline(x, h, 10e9, 1_000);
    }
    t.biline(a, b, 10e9, 1_000);
    t.biline(a, c, 10e9, 1_000);
    t.biline(b, c, 10e9, 1_000);
    t.biline(b, d, 10e9, 1_000);
    t.biline(c, d, 10e9, 1_000);
    t.build()
}

fn harness(topo: &Topology, policy: &str) -> ProtocolHarness {
    let cp = Arc::new(Compiler::new(topo).compile_str(policy).expect("compiles"));
    let cfg = DataplaneConfig::for_policy(&cp);
    ProtocolHarness::new(topo, cp, cfg)
}

/// The tentpole matrix: for every catalogue policy on every corpus
/// topology, the verifier's black-hole set equals the set of (src, dst)
/// pairs the converged protocol tables cannot route.
#[test]
fn verifier_black_holes_match_converged_tables_on_catalogue() {
    let spec = generators::LinkSpec::default();
    let corpus: Vec<(&str, Topology, [&str; 4])> = vec![
        (
            "leaf-spine",
            generators::leaf_spine(4, 2, 2, spec, spec),
            ["spine0", "spine1", "leaf0", "spine0"],
        ),
        (
            "fat-tree",
            generators::fat_tree(4, 1, spec),
            ["core0", "core1", "edge0_0", "agg0_0"],
        ),
        (
            "abilene",
            generators::with_hosts(&generators::abilene(40e9), 1, spec),
            ["Denver", "KansasCity", "Denver", "KansasCity"],
        ),
    ];
    for (topo_label, topo, [f1, f2, x, y]) in corpus {
        for (policy_label, policy) in contra_core::policies::catalogue(f1, f2, x, y) {
            let cp = Arc::new(
                Compiler::new(&topo)
                    .compile_str(&policy)
                    .unwrap_or_else(|e| panic!("{topo_label}/{policy_label}: {e}")),
            );
            let report = verify(&cp, &topo);
            let holes: BTreeSet<(NodeId, NodeId)> = report
                .verdicts
                .black_holes
                .iter()
                .map(|b| (b.src, b.dst))
                .collect();

            let cfg = DataplaneConfig::for_policy(&cp);
            let mut h = ProtocolHarness::new(&topo, cp.clone(), cfg);
            // Probe information travels one hop per round; the longest
            // compliant walk is bounded by the product graph.
            h.run_rounds(cp.pg.len() + 2);
            for &d in &cp.destinations {
                for &s in &traffic_endpoints(&topo) {
                    if s == d {
                        continue;
                    }
                    let routed = h.traffic_path(s, d).is_some();
                    assert_eq!(
                        routed,
                        !holes.contains(&(s, d)),
                        "{topo_label}/{policy_label}: verifier and tables disagree on \
                         {}→{} (verifier black-hole: {})",
                        topo.node(s).name,
                        topo.node(d).name,
                        holes.contains(&(s, d)),
                    );
                }
            }
        }
    }
}

/// "No black hole" ⇒ zero `NoRoute` drops: full-mesh UDP between every
/// host pair on the leaf-spine fabric, under a policy the verifier calls
/// clean, must deliver without a single routing drop.
#[test]
fn clean_verdict_means_no_noroute_drops_under_full_mesh_udp() {
    let mut scenario = Scenario::leaf_spine(2, 2, 2)
        .traffic(Traffic::None)
        .warmup(Time::ms(2))
        .duration(Time::ms(8))
        .drain(Time::ms(2));
    let contra = Contra::dc();
    let topo = scenario.topology();
    let cp = Compiler::new(topo)
        .compile_str(&contra.policy)
        .expect("compiles");
    let report = verify(&cp, topo);
    assert!(
        !report.has_errors(),
        "verifier flagged the DC policy: {:?}",
        report.diagnostics
    );
    let hosts = topo.hosts();
    for &src in &hosts {
        for &dst in &hosts {
            if src != dst {
                scenario = scenario.flow(FlowSpec::Udp {
                    src,
                    dst,
                    rate_bps: 2e6,
                    start: Time::ms(2),
                    stop: Time::ms(8),
                });
            }
        }
    }
    let r = scenario.run(&contra);
    assert_eq!(
        r.stats
            .drops
            .get(&DropReason::NoRoute)
            .copied()
            .unwrap_or(0),
        0,
        "clean verdict but the simulator dropped packets for lack of a route"
    );
    assert!(r.figures.delivered_packets > 0, "no traffic delivered");
}

/// "Black hole at S→D" ⇒ the simulator drops S→D traffic with `NoRoute`
/// while a routable pair under the same policy delivers. Figure 6 with the
/// exact-path policy `A B D`: only A can reach D.
#[test]
fn black_hole_verdict_reproduces_as_noroute_drops() {
    let topo = fig6_with_hosts();
    let policy = "minimize(if A B D then 0 else inf)";

    // Static verdict first: B→D is a black hole, A→D is not.
    let cp = Compiler::new(&topo).compile_str(policy).expect("compiles");
    let report = verify(&cp, &topo);
    assert!(report.has_errors(), "exact-path policy must raise errors");
    let holes: BTreeSet<(String, String)> = report
        .verdicts
        .black_holes
        .iter()
        .map(|b| (topo.node(b.src).name.clone(), topo.node(b.dst).name.clone()))
        .collect();
    assert!(holes.contains(&("B".into(), "D".into())));
    assert!(!holes.contains(&("A".into(), "D".into())));

    let host = |name: &str| {
        *topo
            .hosts()
            .iter()
            .find(|&&h| topo.node(h).name == name)
            .expect("host exists")
    };
    let run_pair = |src: &str, dst: &str| {
        Scenario::custom(format!("fig6:{src}->{dst}"), topo.clone())
            .traffic(Traffic::None)
            .warmup(Time::ms(2))
            .duration(Time::ms(8))
            .drain(Time::ms(2))
            .flow(FlowSpec::Udp {
                src: host(src),
                dst: host(dst),
                rate_bps: 2e6,
                start: Time::ms(2),
                stop: Time::ms(8),
            })
            .run(&Contra::new(policy))
    };

    // The predicted black hole drops every packet as NoRoute…
    let r = run_pair("hB", "hD");
    assert!(
        r.stats
            .drops
            .get(&DropReason::NoRoute)
            .copied()
            .unwrap_or(0)
            > 0,
        "verifier predicted a B→D black hole but the simulator routed it"
    );
    assert_eq!(r.figures.delivered_packets, 0);

    // …while the compliant pair delivers without routing drops.
    let r = run_pair("hA", "hD");
    assert_eq!(
        r.stats
            .drops
            .get(&DropReason::NoRoute)
            .copied()
            .unwrap_or(0),
        0,
        "A→D is policy-compliant but the simulator dropped it"
    );
    assert!(r.figures.delivered_packets > 0);
}

/// "Fragile under cable L" ⇒ failing L reproduces the black hole, both at
/// the table level (harness) and in the packet simulator mid-run.
#[test]
fn fragility_verdict_reproduces_under_link_failure() {
    let topo = fig6_with_hosts();
    let policy = "minimize(if A B D then 0 else inf)";
    let cp = Compiler::new(&topo).compile_str(policy).expect("compiles");
    let report = verify(&cp, &topo);

    // The verifier names the A–B cable as fragile for the A→D route.
    let name = |n: NodeId| topo.node(n).name.clone();
    let frag = report
        .verdicts
        .fragile
        .iter()
        .find(|f| {
            let (u, v) = f.cable;
            let mut ends = [name(u), name(v)];
            ends.sort();
            ends == ["A".to_string(), "B".to_string()] && name(f.src) == "A" && name(f.dst) == "D"
        })
        .expect("A–B must be reported fragile for A→D");
    assert!(!frag.partitions, "fig6 stays connected without A–B");

    // Table level: converge, fail A–B, reconverge — A loses its D route.
    let a = topo
        .switches()
        .into_iter()
        .find(|&s| name(s) == "A")
        .unwrap();
    let b = topo
        .switches()
        .into_iter()
        .find(|&s| name(s) == "B")
        .unwrap();
    let d = topo
        .switches()
        .into_iter()
        .find(|&s| name(s) == "D")
        .unwrap();
    let mut h = harness(&topo, policy);
    h.run_rounds(6);
    assert!(
        h.traffic_path(a, d).is_some(),
        "A routes to D before failure"
    );
    h.fail_link(a, b);
    h.run_rounds(6);
    assert!(
        h.traffic_path(a, d).is_none(),
        "verifier predicted fragility under A–B but the tables kept a route"
    );

    // Packet level: the same failure mid-run turns a delivering flow into
    // NoRoute drops.
    let host = |n: &str| {
        *topo
            .hosts()
            .iter()
            .find(|&&h| topo.node(h).name == n)
            .expect("host exists")
    };
    let run = |fail: bool| {
        let mut s = Scenario::custom("fig6-fragility", topo.clone())
            .traffic(Traffic::None)
            .warmup(Time::ms(2))
            .duration(Time::ms(10))
            .drain(Time::ms(2))
            .flow(FlowSpec::Udp {
                src: host("hA"),
                dst: host("hD"),
                rate_bps: 2e6,
                start: Time::ms(2),
                stop: Time::ms(10),
            });
        if fail {
            s = s.fail_link("A", "B", Time::ms(5));
        }
        s.run(&Contra::new(policy))
    };
    let baseline = run(false);
    assert_eq!(
        baseline
            .stats
            .drops
            .get(&DropReason::NoRoute)
            .copied()
            .unwrap_or(0),
        0,
        "healthy network must route A→D"
    );
    let failed = run(true);
    assert!(
        failed
            .stats
            .drops
            .get(&DropReason::NoRoute)
            .copied()
            .unwrap_or(0)
            > 0,
        "verifier predicted the A–B failure black-holes A→D, but the \
         simulator kept delivering"
    );
}

/// The verifier re-homes the compiler's analysis warnings: the
/// non-isotonic P3 policy surfaces `NON_ISOTONIC`. MU on a healthy
/// leaf-spine(2,2,2) verifies error-free, with the informational verdict
/// that util-dependent policies carry transient-loop risk.
#[test]
fn verifier_reports_p3_non_isotonic_and_mu_clean() {
    let scenario = Scenario::leaf_spine(2, 2, 2);
    let topo = scenario.topology();
    let report = |policy: &str| {
        let cp = Compiler::new(topo).compile_str(policy).expect("compiles");
        verify(&cp, topo).diagnostics
    };

    let p3 = report("minimize((path.util, path.len))");
    assert!(
        p3.iter().any(|d| d.code == codes::NON_ISOTONIC),
        "expected the non-isotonic warning, got {p3:?}"
    );

    let mu = report(&Contra::mu().policy);
    assert!(
        mu.iter().any(|d| d.code == codes::TRANSIENT_LOOP_RISK),
        "expected the transient-loop info diagnostic, got {mu:?}"
    );
    assert!(
        !mu.iter().any(|d| d.severity == Severity::Error),
        "MU on a healthy fabric must verify clean: {mu:?}"
    );
}
