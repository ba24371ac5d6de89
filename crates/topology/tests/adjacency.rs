//! The adjacency accessors must agree with a naive model recomputed from
//! `links()`.
//!
//! A `Topology` keeps its adjacency as one compressed sparse row (an
//! offsets array, out-links in link order, neighbors sorted by id) and
//! answers `link_between` from a dense pair matrix up to
//! `DENSE_PAIR_LIMIT` nodes, by binary search beyond. These properties
//! rebuild every answer by scanning the link list — per node and over
//! every node pair, present or absent — and require exact agreement, on
//! the generators' graphs and on builders that add switches, hosts and
//! links in random order.

use contra_topology::{generators, LinkId, NodeId, Topology, DENSE_PAIR_LIMIT};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The out-links of `n` found by scanning every link, in link order.
fn naive_out(topo: &Topology, n: NodeId) -> Vec<LinkId> {
    (0..topo.num_links() as u32)
        .map(LinkId)
        .filter(|&l| topo.link(l).src == n)
        .collect()
}

/// `(src, dst)` → link, from the link list.
fn pair_map(topo: &Topology) -> BTreeMap<(NodeId, NodeId), LinkId> {
    topo.links()
        .iter()
        .enumerate()
        .map(|(i, l)| ((l.src, l.dst), LinkId(i as u32)))
        .collect()
}

fn assert_agrees(topo: &Topology) {
    let nodes = topo.num_nodes() as u32;
    for n in (0..nodes).map(NodeId) {
        let out = naive_out(topo, n);
        assert_eq!(topo.out_links(n), out, "out_links({n})");
        let neighbors: Vec<NodeId> = out.iter().map(|&l| topo.link(l).dst).collect();
        assert_eq!(topo.neighbors(n), neighbors, "neighbors({n})");
        let mut adjacency: Vec<(NodeId, LinkId)> =
            out.iter().map(|&l| (topo.link(l).dst, l)).collect();
        adjacency.sort();
        assert_eq!(topo.adjacency(n), adjacency, "adjacency({n})");
        if topo.is_switch(n) {
            let hosts: Vec<NodeId> = neighbors
                .iter()
                .copied()
                .filter(|&m| !topo.is_switch(m))
                .collect();
            assert_eq!(topo.hosts_of(n), hosts, "hosts_of({n})");
        } else {
            let access: Vec<NodeId> = neighbors
                .iter()
                .copied()
                .filter(|&m| topo.is_switch(m))
                .collect();
            assert_eq!(vec![topo.host_switch(n)], access, "host_switch({n})");
        }
    }
    let map = pair_map(topo);
    for a in (0..nodes + 2).map(NodeId) {
        for b in (0..nodes + 2).map(NodeId) {
            assert_eq!(
                topo.link_between(a, b),
                map.get(&(a, b)).copied(),
                "link_between({a}, {b})"
            );
        }
    }
}

/// A splitmix64 stream, so that one drawn seed describes a whole builder.
struct Mix(u64);

impl Mix {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// Switches and hosts added interleaved, then random switch cables and one
/// access cable per host, their directed links added in shuffled order.
fn random_builder(switches: usize, hosts: usize, cables: usize, seed: u64) -> Topology {
    let mut rng = Mix(seed);
    let mut tb = Topology::builder();
    let (mut sw, mut hs) = (Vec::new(), Vec::new());
    while sw.len() < switches || hs.len() < hosts {
        if hs.len() == hosts || (sw.len() < switches && rng.below(2) == 0) {
            sw.push(tb.switch(format!("s{}", sw.len())));
        } else {
            hs.push(tb.host(format!("h{}", hs.len())));
        }
    }
    let mut lines = BTreeMap::new();
    for _ in 0..cables {
        let (a, b) = (sw[rng.below(switches)], sw[rng.below(switches)]);
        if a != b {
            lines.insert((a.min(b), a.max(b)), 1 + rng.below(9) as u64);
        }
    }
    for &h in &hs {
        lines.insert((sw[rng.below(switches)], h), 1);
    }
    let mut links: Vec<(NodeId, NodeId, u64)> = lines
        .into_iter()
        .flat_map(|((a, b), delay)| [(a, b, delay), (b, a, delay)])
        .collect();
    for i in (1..links.len()).rev() {
        links.swap(i, rng.below(i + 1));
    }
    for (a, b, delay) in links {
        tb.line(a, b, 10e9, delay * 100);
    }
    tb.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn accessors_agree_on_random_builders(
        switches in 1usize..30,
        hosts in 0usize..20,
        cables in 0usize..80,
        seed in 0u64..1_000_000,
    ) {
        assert_agrees(&random_builder(switches, hosts, cables, seed));
    }

    #[test]
    fn accessors_agree_on_random_graphs(n in 2usize..40, extra in 0usize..60, seed in 0u64..1000) {
        assert_agrees(&generators::random_connected(
            n,
            extra,
            generators::LinkSpec::default(),
            seed,
        ));
    }

    #[test]
    fn accessors_agree_on_fabrics(leaves in 2usize..6, spines in 1usize..4, hosts in 1usize..4) {
        assert_agrees(&generators::leaf_spine(
            leaves,
            spines,
            hosts,
            generators::LinkSpec::default(),
            generators::LinkSpec::default(),
        ));
    }
}

#[test]
fn accessors_agree_on_named_topologies() {
    assert_agrees(&generators::with_hosts(
        &generators::abilene(40e9),
        1,
        generators::LinkSpec::default(),
    ));
    assert_agrees(&generators::fat_tree(4, 2, generators::LinkSpec::default()));
}

/// Beyond `DENSE_PAIR_LIMIT` nodes `link_between` searches the sorted
/// rows; every pair is still checked against the link list.
#[test]
fn accessors_agree_beyond_the_dense_pair_limit() {
    let topo = generators::random_connected(1100, 2200, generators::LinkSpec::default(), 7);
    assert!(topo.num_nodes() > DENSE_PAIR_LIMIT);
    assert_agrees(&topo);
}

/// A doubled cable is found where a row holds the same neighbor twice,
/// however long the row.
#[test]
#[should_panic(expected = "parallel links between n0 and n8 are not supported")]
fn doubled_cable_at_a_high_degree_node_is_rejected() {
    let mut tb = Topology::builder();
    let hub = tb.switch("hub");
    let leaves: Vec<NodeId> = (0..24).map(|i| tb.switch(format!("leaf{i}"))).collect();
    for (i, &leaf) in leaves.iter().enumerate() {
        tb.biline(hub, leaf, 10e9, 1_000);
        if i == 15 {
            tb.biline(leaves[7], hub, 10e9, 1_000);
        }
    }
    tb.build();
}
