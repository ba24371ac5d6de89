//! Topology generators used throughout the evaluation.
//!
//! * [`leaf_spine`] — the §6.3 data-center testbed (32 hosts, 10 Gbps,
//!   4:1 oversubscription is `leaf_spine(4, 2, 8, …)`).
//! * [`fat_tree`] — k-ary fat-trees with 5k²/4 switches; the Fig 9/10
//!   x-axis sizes {20, 125, 245, 405, 500} are k ∈ {4, 10, 14, 18, 20}.
//! * [`random_connected`] — connected G(n, m)-style random graphs for the
//!   Fig 9b/10b scalability sweeps.
//! * [`abilene`] — the 11-node, 14-link Internet2 Abilene backbone (§6.4).

use crate::{NodeId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Link parameters shared by a generated fabric.
#[derive(Debug, Clone, Copy)]
pub struct LinkSpec {
    /// Capacity in bits per second.
    pub bandwidth_bps: f64,
    /// One-way propagation delay in nanoseconds.
    pub delay_ns: u64,
}

impl Default for LinkSpec {
    /// 10 Gbps, 1 µs — the paper's data-center defaults.
    fn default() -> Self {
        LinkSpec {
            bandwidth_bps: 10e9,
            delay_ns: 1_000,
        }
    }
}

/// Builds a two-tier leaf-spine fabric.
///
/// Every leaf connects to every spine with a `fabric` link; every leaf hosts
/// `hosts_per_leaf` end hosts over `edge` links. The paper's §6.3 testbed
/// (32 hosts, 10 Gbps links, 40 Gbps bisection, 4:1 oversubscription) is
/// `leaf_spine(4, 2, 8, default, default)`.
pub fn leaf_spine(
    leaves: usize,
    spines: usize,
    hosts_per_leaf: usize,
    fabric: LinkSpec,
    edge: LinkSpec,
) -> Topology {
    let mut tb = Topology::builder();
    let leaf_ids: Vec<NodeId> = (0..leaves).map(|i| tb.switch(format!("leaf{i}"))).collect();
    let spine_ids: Vec<NodeId> = (0..spines)
        .map(|i| tb.switch(format!("spine{i}")))
        .collect();
    for &l in &leaf_ids {
        for &s in &spine_ids {
            tb.biline(l, s, fabric.bandwidth_bps, fabric.delay_ns);
        }
    }
    for (i, &l) in leaf_ids.iter().enumerate() {
        for h in 0..hosts_per_leaf {
            let host = tb.host(format!("h{}_{}", i, h));
            tb.biline(l, host, edge.bandwidth_bps, edge.delay_ns);
        }
    }
    tb.build()
}

/// Builds a k-ary fat-tree (k even): k pods of k/2 edge and k/2 aggregation
/// switches plus (k/2)² cores — 5k²/4 switches total. `hosts_per_edge`
/// hosts hang off each edge switch (pass 0 for pure-fabric scalability
/// sweeps).
pub fn fat_tree(k: usize, hosts_per_edge: usize, spec: LinkSpec) -> Topology {
    assert!(
        k >= 2 && k.is_multiple_of(2),
        "fat-tree arity must be even, got {k}"
    );
    let half = k / 2;
    let mut tb = Topology::builder();

    let cores: Vec<NodeId> = (0..half * half)
        .map(|i| tb.switch(format!("core{i}")))
        .collect();
    let mut edges: Vec<NodeId> = Vec::with_capacity(k * half);
    for p in 0..k {
        let aggs: Vec<NodeId> = (0..half)
            .map(|a| tb.switch(format!("agg{p}_{a}")))
            .collect();
        let pod_edges: Vec<NodeId> = (0..half)
            .map(|e| tb.switch(format!("edge{p}_{e}")))
            .collect();
        // Edge ↔ agg full mesh inside the pod.
        for &e in &pod_edges {
            for &a in &aggs {
                tb.biline(e, a, spec.bandwidth_bps, spec.delay_ns);
            }
        }
        // Agg j ↔ core group j.
        for (j, &a) in aggs.iter().enumerate() {
            for c in 0..half {
                tb.biline(a, cores[j * half + c], spec.bandwidth_bps, spec.delay_ns);
            }
        }
        edges.extend(pod_edges);
    }
    for (i, &e) in edges.iter().enumerate() {
        for h in 0..hosts_per_edge {
            let host = tb.host(format!("h{}_{}", i, h));
            tb.biline(e, host, spec.bandwidth_bps, spec.delay_ns);
        }
    }
    tb.build()
}

/// Builds a connected random graph with `n` switches and approximately
/// `extra_edges` links beyond a random spanning tree. Deterministic in
/// `seed`.
pub fn random_connected(n: usize, extra_edges: usize, spec: LinkSpec, seed: u64) -> Topology {
    assert!(n >= 2, "need at least two switches");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tb = Topology::builder();
    let ids: Vec<NodeId> = (0..n).map(|i| tb.switch(format!("r{i}"))).collect();

    // Random spanning tree: attach node i to a uniformly random predecessor.
    // `present` holds every cable placed, as its (lower, higher) end pair.
    let mut present: HashSet<(NodeId, NodeId)> = HashSet::with_capacity(n - 1 + extra_edges);
    for i in 1..n {
        let j = rng.gen_range(0..i);
        tb.biline(ids[i], ids[j], spec.bandwidth_bps, spec.delay_ns);
        present.insert((ids[j], ids[i]));
    }
    // Extra random edges, skipping duplicates.
    let mut added = 0;
    let mut attempts = 0;
    while added < extra_edges && attempts < extra_edges * 20 {
        attempts += 1;
        let i = rng.gen_range(0..n);
        let j = rng.gen_range(0..n);
        if i == j {
            continue;
        }
        if !present.insert((ids[i.min(j)], ids[i.max(j)])) {
            continue;
        }
        tb.biline(ids[i], ids[j], spec.bandwidth_bps, spec.delay_ns);
        added += 1;
    }
    tb.build()
}

/// The Internet2 Abilene backbone: 11 PoPs, 14 bidirectional links.
/// Per §6.4 all links are configured at 40 Gbps; delays approximate
/// fiber distance between the cities.
pub fn abilene(bandwidth_bps: f64) -> Topology {
    let mut tb = Topology::builder();
    let names = [
        "Seattle",
        "Sunnyvale",
        "LosAngeles",
        "Denver",
        "KansasCity",
        "Houston",
        "Chicago",
        "Indianapolis",
        "Atlanta",
        "Washington",
        "NewYork",
    ];
    let ids: Vec<NodeId> = names.iter().map(|&n| tb.switch(n)).collect();
    let idx = |name: &str| ids[names.iter().position(|&n| n == name).unwrap()];
    // (a, b, one-way delay in microseconds).
    let links = [
        ("Seattle", "Sunnyvale", 4_100u64),
        ("Seattle", "Denver", 5_100),
        ("Sunnyvale", "LosAngeles", 1_700),
        ("Sunnyvale", "Denver", 5_100),
        ("LosAngeles", "Houston", 7_000),
        ("Denver", "KansasCity", 3_100),
        ("KansasCity", "Houston", 3_700),
        ("KansasCity", "Indianapolis", 2_400),
        ("Houston", "Atlanta", 3_900),
        ("Indianapolis", "Chicago", 900),
        ("Indianapolis", "Atlanta", 2_400),
        ("Chicago", "NewYork", 3_600),
        ("Atlanta", "Washington", 2_700),
        ("NewYork", "Washington", 1_100),
    ];
    for (a, b, us) in links {
        tb.biline(idx(a), idx(b), bandwidth_bps, us * 1_000);
    }
    tb.build()
}

/// Attaches `per_switch` hosts to every switch of an existing switch-only
/// topology (used to put senders/receivers on WAN graphs).
pub fn with_hosts(topo: &Topology, per_switch: usize, edge: LinkSpec) -> Topology {
    let mut tb = Topology::builder();
    let mut map = Vec::with_capacity(topo.num_nodes());
    for node in topo.nodes() {
        map.push(match node.kind {
            crate::NodeKind::Switch => tb.switch(&node.name),
            crate::NodeKind::Host => tb.host(&node.name),
        });
    }
    for l in topo.links() {
        tb.line(
            map[l.src.0 as usize],
            map[l.dst.0 as usize],
            l.bandwidth_bps,
            l.delay_ns,
        );
    }
    for sw in topo.switches() {
        for h in 0..per_switch {
            let host = tb.host(format!("{}_h{}", topo.node(sw).name, h));
            tb.biline(map[sw.0 as usize], host, edge.bandwidth_bps, edge.delay_ns);
        }
    }
    tb.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::switch_graph_connected;

    #[test]
    fn leaf_spine_shape() {
        let t = leaf_spine(4, 2, 8, LinkSpec::default(), LinkSpec::default());
        assert_eq!(t.num_switches(), 6);
        assert_eq!(t.hosts().len(), 32);
        // 4*2 fabric cables + 32 host cables, ×2 directions.
        assert_eq!(t.num_links(), (8 + 32) * 2);
        assert!(switch_graph_connected(&t));
        let leaf0 = t.find("leaf0").unwrap();
        assert_eq!(t.hosts_of(leaf0).len(), 8);
        assert_eq!(t.switch_neighbors(leaf0).len(), 2);
    }

    #[test]
    fn fat_tree_switch_counts_match_fig9_axis() {
        for (k, expect) in [(4, 20), (10, 125), (14, 245), (18, 405), (20, 500)] {
            let t = fat_tree(k, 0, LinkSpec::default());
            assert_eq!(t.num_switches(), expect, "k={k}");
            assert!(switch_graph_connected(&t), "k={k}");
        }
    }

    #[test]
    fn fat_tree_structure_k4() {
        let t = fat_tree(4, 2, LinkSpec::default());
        // 4 cores, 8 agg, 8 edge.
        assert_eq!(t.num_switches(), 20);
        assert_eq!(t.hosts().len(), 16);
        let edge = t.find("edge0_0").unwrap();
        assert_eq!(t.switch_neighbors(edge).len(), 2); // its two aggs
        let agg = t.find("agg0_0").unwrap();
        assert_eq!(t.switch_neighbors(agg).len(), 4); // 2 edges + 2 cores
        let core = t.find("core0").unwrap();
        assert_eq!(t.switch_neighbors(core).len(), 4); // one agg per pod
    }

    #[test]
    fn random_graphs_are_connected_and_deterministic() {
        for n in [10, 50, 100] {
            let a = random_connected(n, 2 * n, LinkSpec::default(), 7);
            let b = random_connected(n, 2 * n, LinkSpec::default(), 7);
            assert!(switch_graph_connected(&a));
            assert_eq!(a.num_links(), b.num_links());
            assert_eq!(a.num_switches(), n);
        }
    }

    #[test]
    fn abilene_shape() {
        let t = abilene(40e9);
        assert_eq!(t.num_switches(), 11);
        assert_eq!(t.num_links(), 28); // 14 cables
        assert!(switch_graph_connected(&t));
        assert!(t.find("Denver").is_some());
    }

    #[test]
    fn with_hosts_attaches_everywhere() {
        let t = with_hosts(&abilene(40e9), 1, LinkSpec::default());
        assert_eq!(t.hosts().len(), 11);
        assert_eq!(t.num_switches(), 11);
        for h in t.hosts() {
            let _ = t.host_switch(h); // must not panic
        }
    }
}
