//! A Contra switch's protocol state is one plain value. Cloning a
//! harness snapshots every switch, and the clone runs on exactly as the
//! original does: equal states, equal hashes, equal paths. The row store
//! under the tables compares and hashes only the rows written, so a
//! table written and emptied again equals a fresh one.

use contra_core::{policies, Compiler, VNodeId, FLOWLET_ENTRIES, LOOP_ENTRIES};
use contra_dataplane::{
    BestTable, DataplaneConfig, FlowletEntry, FlowletKey, FlowletTable, FwdKey, LoopTable,
    ProtocolHarness,
};
use contra_sim::{FxHasher64, Time};
use contra_topology::{generators, NodeId, Topology};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

fn digest(v: &impl Hash) -> u64 {
    let mut h = FxHasher64::default();
    v.hash(&mut h);
    h.finish()
}

/// fat-tree(4) with a host per edge switch.
fn fabric() -> Topology {
    generators::fat_tree(4, 1, generators::LinkSpec::default())
}

/// The harness of each of MU, WP and CA on `topo`, with the utilisation
/// of every cable pinned to a different value.
fn harnesses(topo: &Topology) -> Vec<(&'static str, ProtocolHarness)> {
    let s = topo.switches();
    let (f1, f2) = (&topo.node(s[0]).name, &topo.node(s[1]).name);
    let suite = [
        ("MU", policies::min_util()),
        ("WP", policies::waypoint(f1, f2)),
        ("CA", policies::congestion_aware()),
    ];
    let cables: Vec<_> = (topo.links().iter())
        .filter(|l| l.src < l.dst && topo.is_switch(l.src) && topo.is_switch(l.dst))
        .map(|l| (l.src, l.dst))
        .collect();
    let harness = |policy: &str| {
        let cp = Arc::new(Compiler::new(topo).compile_str(policy).unwrap());
        let mut h = ProtocolHarness::new(topo, cp.clone(), DataplaneConfig::for_policy(&cp));
        for (i, &(a, b)) in cables.iter().enumerate() {
            h.set_util_bidir(a, b, (i % 7) as f64 / 10.0);
        }
        h
    };
    suite.map(|(name, policy)| (name, harness(&policy))).into()
}

/// Every ordered pair of edge switches.
fn pairs(topo: &Topology) -> Vec<(NodeId, NodeId)> {
    let edges: Vec<NodeId> = (topo.switches().into_iter())
        .filter(|&s| topo.node(s).name.starts_with("edge"))
        .collect();
    let pairs = edges
        .iter()
        .flat_map(|&s| edges.iter().map(move |&d| (s, d)));
    pairs.filter(|(s, d)| s != d).collect()
}

/// The switches whose states differ between `a` and `b`; asserts that
/// equal states hash alike.
fn differing(topo: &Topology, a: &ProtocolHarness, b: &ProtocolHarness) -> Vec<NodeId> {
    let differ = |&s: &NodeId| {
        let (x, y) = (a.switch(s).state(), b.switch(s).state());
        assert!(
            x != y || digest(x) == digest(y),
            "{s}: equal states hash apart"
        );
        x != y
    };
    topo.switches().into_iter().filter(differ).collect()
}

/// Three rounds, data on every pair, a cable down, a clone, five more
/// rounds on both copies: every switch's state is equal on both, and
/// both forward every pair alike. Re-pinning one cable on one copy
/// then shows in the state of some switch.
#[test]
fn a_cloned_harness_runs_on_as_the_original() {
    let topo = fabric();
    let pairs = pairs(&topo);
    let cable = (topo.find("agg0_0").unwrap(), topo.find("core0").unwrap());
    let repinned = (topo.find("edge1_0").unwrap(), topo.find("agg1_0").unwrap());
    for (name, mut a) in harnesses(&topo) {
        a.run_rounds(3);
        for &(s, d) in &pairs {
            a.traffic_path(s, d);
        }
        a.fail_link(cable.0, cable.1);
        let mut b = a.clone();
        for h in [&mut a, &mut b] {
            h.run_rounds(5);
        }
        assert_eq!(differing(&topo, &a, &b), [], "{name}");
        let routed = (pairs.iter())
            .filter(|&&(s, d)| {
                let path = a.traffic_path(s, d);
                assert_eq!(path, b.traffic_path(s, d), "{name}: {s}→{d}");
                path.is_some()
            })
            .count();
        assert_eq!(routed, pairs.len(), "{name}: every pair has a route");
        assert_eq!(differing(&topo, &a, &b), [], "{name} after the paths");

        b.set_util_bidir(repinned.0, repinned.1, 0.95);
        for h in [&mut a, &mut b] {
            h.run_round();
        }
        assert_ne!(
            differing(&topo, &a, &b),
            [],
            "{name}: a re-pin left no trace"
        );
    }
}

/// A flowlet table pinned and flushed, a loop table observed and reset,
/// and a BestT set and cleared equal and hash like fresh ones, although
/// each now holds its rows in host memory; while written, they differ.
#[test]
fn emptied_tables_equal_fresh_ones() {
    let timeout = Time::us(200);
    let key = FlowletKey {
        tag: VNodeId(3),
        pid: 0,
        fid: 42,
    };
    let pin = FlowletEntry {
        nhop: NodeId(5),
        ntag: VNodeId(7),
        last: Time::ZERO,
    };
    let fresh = FlowletTable::with_slots(FLOWLET_ENTRIES);
    let mut t = fresh.clone();
    t.pin(key, pin.clone(), timeout);
    assert_ne!(t, fresh);
    t.flush_fid(key.fid);
    assert_eq!((&t, digest(&t)), (&fresh, digest(&fresh)));
    t.pin(key, pin, timeout);
    t.flush_nhop(NodeId(5));
    assert_eq!((&t, digest(&t)), (&fresh, digest(&fresh)));

    let fresh = LoopTable::with_slots(LOOP_ENTRIES);
    let mut l = fresh.clone();
    l.observe(9, 60, Time::us(1), Time::ms(1));
    assert_ne!(l, fresh);
    l.reset(9);
    assert_eq!((&l, digest(&l)), (&fresh, digest(&fresh)));

    let fresh = BestTable::with_rows(8);
    let mut b = fresh.clone();
    let dst = 6;
    let row = FwdKey {
        dst,
        tag: VNodeId(3),
        pid: 0,
    };
    b.set(dst, row);
    assert_ne!(b, fresh);
    b.clear(dst);
    assert_eq!((&b, digest(&b)), (&fresh, digest(&fresh)));
}
