//! The paper's optimality property (Fig 1: "converges to best paths under
//! stable metrics"), checked against brute force on random topologies.
//!
//! For every (source, destination) pair of a random connected graph with
//! random pinned link utilizations, the converged protocol's chosen path
//! must have exactly the minimum policy rank over *all* simple paths —
//! for monotone, isotonic policies. For regex-constrained policies the
//! chosen path must at least be policy-compliant and no worse than the
//! best simple compliant path.

use contra_core::{Compiler, Rank};
use contra_dataplane::{DataplaneConfig, ProtocolHarness};
use contra_topology::{generators, NodeId, Topology};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn random_topo(n: usize, extra: usize, seed: u64) -> Topology {
    generators::random_connected(n, extra, generators::LinkSpec::default(), seed)
}

/// Pins quantized random utilizations on every cable (both directions
/// equal, which keeps oracle and protocol views identical).
fn pin_random_utils(h: &mut ProtocolHarness, topo: &Topology, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = std::collections::BTreeSet::new();
    for l in topo.links() {
        let key = (l.src.min(l.dst), l.src.max(l.dst));
        if seen.insert(key) {
            let u = (rng.gen_range(0..=20) as f64) / 20.0;
            h.set_util_bidir(key.0, key.1, u);
        }
    }
}

fn harness(topo: &Topology, policy: &str) -> ProtocolHarness {
    let cp = Arc::new(Compiler::new(topo).compile_str(policy).unwrap());
    let cfg = DataplaneConfig::for_policy(&cp);
    ProtocolHarness::new(topo, cp, cfg)
}

/// Enumerates **all** simple switch paths from `src` to `dst`, up to
/// `max_hops` hops. Exponential: the ground truth for the optimality
/// property.
fn all_simple_paths(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    max_hops: usize,
) -> Vec<Vec<NodeId>> {
    let mut out = Vec::new();
    let mut stack = vec![src];
    let mut on_path = vec![false; topo.num_nodes()];
    on_path[src.0 as usize] = true;
    fn rec(
        topo: &Topology,
        dst: NodeId,
        max_hops: usize,
        stack: &mut Vec<NodeId>,
        on_path: &mut Vec<bool>,
        out: &mut Vec<Vec<NodeId>>,
    ) {
        let cur = *stack.last().unwrap();
        if cur == dst {
            out.push(stack.clone());
            return;
        }
        if stack.len() > max_hops {
            return;
        }
        let mut nbrs = topo.switch_neighbors(cur);
        nbrs.sort_unstable();
        nbrs.dedup();
        for m in nbrs {
            if on_path[m.0 as usize] {
                continue;
            }
            on_path[m.0 as usize] = true;
            stack.push(m);
            rec(topo, dst, max_hops, stack, on_path, out);
            stack.pop();
            on_path[m.0 as usize] = false;
        }
    }
    rec(topo, dst, max_hops, &mut stack, &mut on_path, &mut out);
    out
}

/// Brute force: the minimum rank over all simple paths from `src` to
/// `dst` (up to `max_hops`).
fn oracle_best_rank(
    h: &ProtocolHarness,
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    max_hops: usize,
) -> Rank {
    all_simple_paths(topo, src, dst, max_hops)
        .into_iter()
        .map(|p| h.oracle_rank(&p))
        .min()
        .unwrap_or(Rank::Inf)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn min_util_converges_to_optimum(
        n in 4usize..8,
        extra in 1usize..6,
        topo_seed in 0u64..1_000,
        util_seed in 0u64..1_000,
    ) {
        let topo = random_topo(n, extra, topo_seed);
        let mut h = harness(&topo, "minimize(path.util)");
        pin_random_utils(&mut h, &topo, util_seed);
        h.run_rounds(3);
        for src in topo.switches() {
            for dst in topo.switches() {
                if src == dst { continue; }
                let best = oracle_best_rank(&h, &topo, src, dst, n + 1);
                let path = h.traffic_path(src, dst);
                prop_assert!(path.is_some(), "{src}→{dst}: no route on a connected graph");
                let got = h.oracle_rank(path.as_ref().unwrap());
                prop_assert_eq!(
                    got.clone(), best.clone(),
                    "{}→{}: protocol chose {:?} (rank {}) but optimum is {}",
                    src, dst, path, got, best
                );
            }
        }
    }

    #[test]
    fn shortest_widest_converges_to_optimum(
        n in 4usize..7,
        extra in 1usize..5,
        topo_seed in 0u64..1_000,
        util_seed in 0u64..1_000,
    ) {
        // P4 (len, util) — isotonic lexicographic policy.
        let topo = random_topo(n, extra, topo_seed);
        let mut h = harness(&topo, "minimize((path.len, path.util))");
        pin_random_utils(&mut h, &topo, util_seed);
        h.run_rounds(3);
        for src in topo.switches() {
            for dst in topo.switches() {
                if src == dst { continue; }
                let best = oracle_best_rank(&h, &topo, src, dst, n + 1);
                let path = h.traffic_path(src, dst).expect("connected");
                prop_assert_eq!(h.oracle_rank(&path), best);
            }
        }
    }

    #[test]
    fn congestion_aware_converges_to_optimum(
        n in 4usize..7,
        extra in 1usize..5,
        topo_seed in 0u64..500,
        util_seed in 0u64..500,
    ) {
        // P9, decomposed into two pids; recombination at the source must
        // still find the true optimum.
        let topo = random_topo(n, extra, topo_seed);
        let mut h = harness(
            &topo,
            "minimize(if path.util < .8 then (1, 0, path.util) else (2, path.len, path.util))",
        );
        pin_random_utils(&mut h, &topo, util_seed);
        h.run_rounds(3);
        for src in topo.switches() {
            for dst in topo.switches() {
                if src == dst { continue; }
                let best = oracle_best_rank(&h, &topo, src, dst, n + 1);
                let path = h.traffic_path(src, dst).expect("connected");
                prop_assert_eq!(h.oracle_rank(&path), best);
            }
        }
    }

    #[test]
    fn waypoint_paths_are_always_compliant(
        n in 4usize..7,
        extra in 1usize..5,
        topo_seed in 0u64..500,
        util_seed in 0u64..500,
        wp_pick in 0usize..100,
    ) {
        let topo = random_topo(n, extra, topo_seed);
        let switches = topo.switches();
        let wp = switches[wp_pick % switches.len()];
        let wp_name = &topo.node(wp).name;
        let mut h = harness(
            &topo,
            &format!("minimize(if .* {wp_name} .* then path.util else inf)"),
        );
        pin_random_utils(&mut h, &topo, util_seed);
        h.run_rounds(3);
        for src in topo.switches() {
            for dst in topo.switches() {
                if src == dst { continue; }
                if let Some(path) = h.traffic_path(src, dst) {
                    // Chosen path must satisfy the policy…
                    let r = h.oracle_rank(&path);
                    prop_assert!(!r.is_inf(), "{src}→{dst} non-compliant path {path:?}");
                    prop_assert!(path.contains(&wp));
                    // …and be no worse than the best simple compliant path.
                    let best = oracle_best_rank(&h, &topo, src, dst, n + 1);
                    prop_assert!(r <= best, "{src}→{dst}: {r} worse than {best}");
                } else {
                    // No route ⇒ no *simple* compliant path may exist
                    // either (the converse can fail: PG paths may revisit
                    // switches, which the walker rejects).
                    let best = oracle_best_rank(&h, &topo, src, dst, n + 1);
                    if !best.is_inf() {
                        // Accept only when the best simple path requires a
                        // revisit pattern the flowlet walker cannot follow;
                        // this does not occur for waypoint policies on the
                        // graphs generated here, so flag it.
                        prop_assert!(
                            false,
                            "{src}→{dst}: protocol found nothing, oracle found rank {best}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn protocol_is_deterministic(
        n in 4usize..7,
        extra in 1usize..5,
        topo_seed in 0u64..500,
        util_seed in 0u64..500,
    ) {
        let topo = random_topo(n, extra, topo_seed);
        let run = || {
            let mut h = harness(&topo, "minimize(path.util)");
            pin_random_utils(&mut h, &topo, util_seed);
            h.run_rounds(3);
            let mut out = Vec::new();
            for src in topo.switches() {
                for dst in topo.switches() {
                    if src != dst {
                        out.push(h.traffic_path(src, dst));
                    }
                }
            }
            (out, h.probes_delivered)
        };
        prop_assert_eq!(run(), run());
    }
}

/// Deterministic regression: the exact Figure 5 scenario — B must carry
/// A's traffic on A-B-D while sending its own via C.
#[test]
fn figure5_scenario() {
    let mut t = Topology::builder();
    let a = t.switch("A");
    let b = t.switch("B");
    let c = t.switch("C");
    let d = t.switch("D");
    t.biline(a, b, 10e9, 1_000);
    t.biline(b, d, 10e9, 1_000);
    t.biline(b, c, 10e9, 1_000);
    t.biline(c, d, 10e9, 1_000);
    let topo = t.build();
    let mut h = harness(&topo, "minimize(if A B D then 0 else path.util)");
    // B-D is congested; B-C-D is idle.
    h.set_util_bidir(b, d, 0.9);
    h.set_util_bidir(b, c, 0.05);
    h.set_util_bidir(c, d, 0.05);
    h.set_util_bidir(a, b, 0.05);
    h.run_rounds(3);
    // A's preferred path is A-B-D regardless of utilization.
    assert_eq!(h.traffic_path(a, d), Some(vec![a, b, d]));
    // B's own traffic takes the least-utilized B-C-D.
    assert_eq!(h.traffic_path(b, d), Some(vec![b, c, d]));
}

/// NodeId sanity for the harness helpers.
#[test]
fn oracle_rank_matches_manual_computation() {
    let mut t = Topology::builder();
    let a = t.switch("A");
    let b = t.switch("B");
    t.biline(a, b, 10e9, 1_000);
    let topo = t.build();
    let mut h = harness(&topo, "minimize(path.util)");
    h.set_util(a, b, 0.25);
    assert_eq!(h.oracle_rank(&[a, b]), Rank::scalar(0.25));
    assert_eq!(oracle_best_rank(&h, &topo, a, b, 3), Rank::scalar(0.25));
    // The reverse direction was never utilized.
    assert_eq!(oracle_best_rank(&h, &topo, b, a, 3), Rank::scalar(0.0));
}

/// On the harness's diamond (S-A-D and S-B-D) the protocol's choice is
/// the brute-force optimum.
#[test]
fn diamond_choice_is_the_brute_force_optimum() {
    let mut t = Topology::builder();
    let [s, a, b, d] = ["S", "A", "B", "D"].map(|name| t.switch(name));
    for (x, y) in [(s, a), (s, b), (a, d), (b, d)] {
        t.biline(x, y, 10e9, 1_000);
    }
    let topo = t.build();
    let mut h = harness(&topo, "minimize(path.util)");
    for (x, y, u) in [(s, a, 0.4), (a, d, 0.1), (s, b, 0.1), (b, d, 0.3)] {
        h.set_util_bidir(x, y, u);
    }
    h.run_rounds(3);
    let chosen = h.traffic_path(s, d).unwrap();
    assert_eq!(h.oracle_rank(&chosen), oracle_best_rank(&h, &topo, s, d, 4));
}

/// The enumerator finds every simple path and no more: on the diamond
/// A-B-D, A-C-D plus the direct A-D link, exactly A-D, A-B-D and A-C-D.
#[test]
fn all_simple_paths_finds_exactly_the_simple_paths() {
    let mut t = Topology::builder();
    let [a, b, c, d] = ["A", "B", "C", "D"].map(|name| t.switch(name));
    for (x, y) in [(a, b), (a, c), (b, d), (c, d), (a, d)] {
        t.biline(x, y, 10e9, 1_000);
    }
    let topo = t.build();
    let mut paths = all_simple_paths(&topo, a, d, 8);
    paths.sort();
    assert_eq!(paths, vec![vec![a, b, d], vec![a, c, d], vec![a, d]]);
}
