//! The reference model for the shortest-path kernel of
//! `contra_topology::paths`.
//!
//! `hop_distances_to`, `dijkstra_delay`, `ecmp_next_hops` and
//! `Topology::max_switch_rtt_ns` all run on one flat-graph search that
//! settles the frontier a distance value at a time. The functions below are
//! the implementations it replaced, verbatim: a queue that rescans every
//! link per popped node, a binary-heap Dijkstra per source, a `neighbors()`
//! vector per node. They share nothing with the kernel, so equality of
//! every distance and every next-hop set — on the ladder's generators,
//! Abilene and generated topologies re-built with uneven delays, zero-delay
//! links, one-way links and multi-homed hosts — is the evidence that the
//! kernel is the same function.

use contra_fuzz::{case_seed, gen_case};
use contra_topology::{generators, paths, NodeId, Topology};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

fn hop_distances_to(topo: &Topology, dst: NodeId) -> Vec<Option<u32>> {
    let mut dist = vec![None; topo.num_nodes()];
    dist[dst.0 as usize] = Some(0);
    let mut q = VecDeque::new();
    q.push_back(dst);
    while let Some(n) = q.pop_front() {
        let d = dist[n.0 as usize].unwrap();
        for l in topo.links() {
            if l.dst == n && dist[l.src.0 as usize].is_none() {
                if n != dst && !topo.is_switch(n) {
                    continue;
                }
                dist[l.src.0 as usize] = Some(d + 1);
                q.push_back(l.src);
            }
        }
    }
    dist
}

fn dijkstra_delay(topo: &Topology, src: NodeId) -> Vec<Option<u64>> {
    let mut dist: Vec<Option<u64>> = vec![None; topo.num_nodes()];
    let mut heap = BinaryHeap::new();
    dist[src.0 as usize] = Some(0);
    heap.push(Reverse((0u64, src)));
    while let Some(Reverse((d, n))) = heap.pop() {
        if dist[n.0 as usize] != Some(d) {
            continue;
        }
        if n != src && !topo.is_switch(n) {
            continue; // hosts do not forward
        }
        for &lid in topo.out_links(n) {
            let l = topo.link(lid);
            let nd = d + l.delay_ns;
            if dist[l.dst.0 as usize].is_none_or(|old| nd < old) {
                dist[l.dst.0 as usize] = Some(nd);
                heap.push(Reverse((nd, l.dst)));
            }
        }
    }
    dist
}

fn ecmp_next_hops(topo: &Topology, dst: NodeId) -> Vec<Vec<NodeId>> {
    let dist = hop_distances_to(topo, dst);
    let mut next = vec![Vec::new(); topo.num_nodes()];
    for (i, d) in dist.iter().enumerate() {
        let Some(d) = *d else { continue };
        if d == 0 {
            continue;
        }
        let n = NodeId(i as u32);
        for m in topo.neighbors(n) {
            if dist[m.0 as usize] == Some(d - 1) {
                next[i].push(m);
            }
        }
        next[i].sort_unstable();
    }
    next
}

fn max_switch_rtt_ns(topo: &Topology) -> u64 {
    let switches = topo.switches();
    let mut max = 0u64;
    for &s in &switches {
        let dist = dijkstra_delay(topo, s);
        for &t in &switches {
            if let Some(d) = dist[t.0 as usize] {
                max = max.max(2 * d);
            }
        }
    }
    max
}

/// Every function, from every node: hosts are legitimate sources and
/// destinations even though they never relay.
fn assert_same(label: &str, topo: &Topology) {
    for n in (0..topo.num_nodes() as u32).map(NodeId) {
        assert_eq!(
            paths::hop_distances_to(topo, n),
            hop_distances_to(topo, n),
            "{label}: hop distances to {n}"
        );
        assert_eq!(
            paths::dijkstra_delay(topo, n),
            dijkstra_delay(topo, n),
            "{label}: delays from {n}"
        );
        assert_eq!(
            paths::ecmp_next_hops(topo, n),
            ecmp_next_hops(topo, n),
            "{label}: ECMP DAG to {n}"
        );
    }
    assert_eq!(
        topo.max_switch_rtt_ns(),
        max_switch_rtt_ns(topo),
        "{label}: max switch RTT"
    );
}

/// `topo` with every directed link's delay redrawn from a few values that
/// collide often (ties between distinct paths) and include zero, one link
/// in eight removed in one direction only, and — sometimes — a host given
/// a second access switch, the one shape on which a host sits between two
/// switches.
fn rough_copy(topo: &Topology, seed: u64) -> Topology {
    const DELAYS: [u64; 6] = [0, 1_000, 1_000, 2_000, 3_500, 40_000];
    let mut draws = (0..).map(|i| case_seed(seed, i));
    let mut tb = Topology::builder();
    for n in topo.nodes() {
        if n.kind == contra_topology::NodeKind::Switch {
            tb.switch(&n.name);
        } else {
            tb.host(&n.name);
        }
    }
    for l in topo.links() {
        let r = draws.next().unwrap();
        if !r.is_multiple_of(8) {
            let delay = DELAYS[(r >> 8) as usize % DELAYS.len()];
            tb.line(l.src, l.dst, l.bandwidth_bps, delay);
        }
    }
    let (hosts, switches) = (topo.hosts(), topo.switches());
    if let Some(&h) = hosts.first() {
        let sw = switches[draws.next().unwrap() as usize % switches.len()];
        if topo.link_between(h, sw).is_none() && topo.link_between(sw, h).is_none() {
            tb.biline(h, sw, 10e9, 1_000);
        }
    }
    tb.build()
}

#[test]
fn ladder_generators_and_abilene_equal_the_reference() {
    let spec = generators::LinkSpec::default();
    for k in [4, 8, 10] {
        assert_same(&format!("fat-tree({k})"), &generators::fat_tree(k, 0, spec));
    }
    assert_same("fat-tree(4)+hosts", &generators::fat_tree(4, 2, spec));
    for n in [100, 300] {
        assert_same(
            &format!("random({n})"),
            &generators::random_connected(n, 2 * n, spec, 42),
        );
    }
    assert_same("leaf-spine", &generators::leaf_spine(4, 2, 8, spec, spec));
    let abilene = generators::abilene(40e9);
    assert_same("abilene", &abilene);
    assert_same("abilene+hosts", &generators::with_hosts(&abilene, 2, spec));
}

/// The two largest rungs, where a full per-node sweep of the quadratic
/// reference would take minutes in a debug build: the RTT scan in full, the
/// per-node functions from a sample of nodes.
#[test]
fn largest_rungs_equal_the_reference() {
    let spec = generators::LinkSpec::default();
    for (label, topo) in [
        ("fat-tree(20)", generators::fat_tree(20, 0, spec)),
        (
            "random(500)",
            generators::random_connected(500, 1000, spec, 42),
        ),
    ] {
        assert_eq!(
            topo.max_switch_rtt_ns(),
            max_switch_rtt_ns(&topo),
            "{label}"
        );
        for n in (0..topo.num_nodes() as u32).step_by(61).map(NodeId) {
            assert_eq!(
                paths::ecmp_next_hops(&topo, n),
                ecmp_next_hops(&topo, n),
                "{label}: ECMP DAG to {n}"
            );
            assert_eq!(
                paths::dijkstra_delay(&topo, n),
                dijkstra_delay(&topo, n),
                "{label}: delays from {n}"
            );
        }
    }
}

#[test]
fn generated_topologies_with_rough_links_equal_the_reference() {
    let mut checked = 0;
    for i in 0..400 {
        let case = gen_case(case_seed(15, i));
        let Ok(topo) = case.topo.build() else {
            continue;
        };
        if topo.num_switches() == 0 {
            continue;
        }
        let label = format!("case {i} (seed {:#x})", case.seed);
        assert_same(&label, &topo);
        assert_same(&format!("{label}, rough"), &rough_copy(&topo, case.seed));
        checked += 1;
    }
    assert!(checked >= 300, "only {checked} generated topologies built");
}
