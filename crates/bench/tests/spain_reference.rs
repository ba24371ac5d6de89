//! The reference model for SPAIN's per-VLAN path system.
//!
//! `SpainPaths::precompute` asks the topology's one search
//! (`paths::next_hops_toward`) for each (VLAN, destination) tree on the
//! VLAN's perturbed link weights and keeps the lowest-numbered switch of
//! each row. The model below is what it replaced, verbatim in behaviour: a
//! binary-heap Dijkstra toward the destination that rescans every link per
//! popped node, then per switch a scan of its out-links for the
//! lowest-numbered switch on a shortest path. It shares nothing with the
//! kernel, so equality of every table row — on the named topologies and
//! on generated ones with hosts attached, across eight VLANs — is the
//! evidence that the two build the same tables.

use contra_baselines::SpainPaths;
use contra_topology::{generators, NodeId, Topology};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// The VLAN's weight of link `link`, as `SpainPaths` draws it: 1000 on
/// VLAN 0, 1000 plus a hash of (VLAN, link) below 997 on the others.
fn link_weight(vlan: u8, link: u32) -> u64 {
    if vlan == 0 {
        return 1000;
    }
    let mut z = ((vlan as u64) << 32 | link as u64).wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    1000 + (z % 997)
}

/// Distances from every switch to `dst` on the VLAN's weights; hosts do
/// not forward.
fn dijkstra_to(topo: &Topology, dst: NodeId, vlan: u8) -> Vec<Option<u64>> {
    let mut dist: Vec<Option<u64>> = vec![None; topo.num_nodes()];
    let mut heap = BinaryHeap::new();
    dist[dst.0 as usize] = Some(0);
    heap.push(Reverse((0u64, dst)));
    while let Some(Reverse((d, n))) = heap.pop() {
        if dist[n.0 as usize] != Some(d) {
            continue;
        }
        for (i, l) in topo.links().iter().enumerate() {
            if l.dst != n || !topo.is_switch(l.src) {
                continue;
            }
            let nd = d + link_weight(vlan, i as u32);
            if dist[l.src.0 as usize].is_none_or(|old| nd < old) {
                dist[l.src.0 as usize] = Some(nd);
                heap.push(Reverse((nd, l.src)));
            }
        }
    }
    dist
}

/// `(switch, dst, vlan) → next hop` for VLANs `0..k`.
fn tables(topo: &Topology, k: u8) -> BTreeMap<(NodeId, NodeId, u8), NodeId> {
    let mut tables = BTreeMap::new();
    for vlan in 0..k {
        for dst in topo.switches() {
            let dist = dijkstra_to(topo, dst, vlan);
            for sw in topo.switches() {
                if sw == dst {
                    continue;
                }
                let Some(my) = dist[sw.0 as usize] else {
                    continue;
                };
                // Minimize weight + dist, tie-break on node id.
                let mut best: Option<NodeId> = None;
                for &lid in topo.out_links(sw) {
                    let l = topo.link(lid);
                    if !topo.is_switch(l.dst) {
                        continue;
                    }
                    if let Some(d) = dist[l.dst.0 as usize] {
                        if d + link_weight(vlan, lid.0) == my && best.is_none_or(|b| l.dst < b) {
                            best = Some(l.dst);
                        }
                    }
                }
                if let Some(nh) = best {
                    tables.insert((sw, dst, vlan), nh);
                }
            }
        }
    }
    tables
}

#[test]
fn spain_tables_equal_the_reference() {
    let spec = generators::LinkSpec::default();
    let abilene = generators::abilene(40e9);
    let mut topos = vec![
        ("abilene", abilene.clone()),
        (
            "abilene with hosts",
            generators::with_hosts(&abilene, 1, spec),
        ),
        ("fat-tree(4)", generators::fat_tree(4, 1, spec)),
        ("leaf-spine", generators::leaf_spine(4, 2, 2, spec, spec)),
    ];
    for seed in [7, 42, 1234] {
        let core = generators::random_connected(24, 30, spec, seed);
        topos.push(("random(24)", generators::with_hosts(&core, 1, spec)));
    }
    for (what, topo) in &topos {
        let want = tables(topo, 8);
        let paths = SpainPaths::precompute(topo, 8);
        assert_eq!(paths.table_rows(), want.len(), "{what}: rows");
        for (&(sw, dst, vlan), &nh) in &want {
            let got = paths.next_hop(sw, dst, vlan);
            assert_eq!(got, Some(nh), "{what}: {sw} toward {dst} on vlan {vlan}");
        }
    }
}
