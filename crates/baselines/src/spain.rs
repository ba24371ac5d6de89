//! SPAIN (NSDI'10): static multipath over arbitrary topologies — the
//! paper's baseline for general graphs (§6.4).
//!
//! SPAIN precomputes a small set of path systems offline, maps each onto a
//! VLAN, and spreads flows across VLANs by hash at the ingress switch. It
//! is *load-oblivious*: path choice never reacts to utilization, which is
//! exactly why Contra beats it on Abilene. We reuse the packet `tag` field
//! as the VLAN id; every switch holds a `(destination, vlan) → next hop`
//! table.
//!
//! Construction: VLAN 0 routes on uniform link weights (plain shortest
//! paths); each further VLAN deterministically perturbs every link weight
//! and routes on the perturbed metric. Per (VLAN, destination) the next
//! hops form a shortest-path tree, so forwarding inside one VLAN is
//! consistent and loop-free — the property SPAIN gets from per-VLAN
//! spanning subgraphs — while different VLANs spread over different links.
//! The trees come from the topology's own search
//! ([`paths::next_hops_toward`]) run on the VLAN's weights; each switch
//! keeps the lowest-numbered switch among its shortest next hops.

use contra_sim::{Packet, SwitchCtx, SwitchLogic, Verdict};
use contra_topology::{paths, NodeId, Topology};
use std::collections::BTreeMap;

/// The precomputed SPAIN path system for a whole topology.
#[derive(Debug, Clone)]
pub struct SpainPaths {
    /// Number of VLANs.
    vlans: u8,
    /// `(switch, dst, vlan) → next hop`.
    tables: BTreeMap<(NodeId, NodeId, u8), NodeId>,
}

/// Deterministic per-(vlan, link) weight: 1000 ± a small perturbation.
/// VLAN 0 is unperturbed — plain shortest paths.
fn link_weight(vlan: u8, link: u32) -> u64 {
    if vlan == 0 {
        return 1000;
    }
    let mut z = ((vlan as u64) << 32 | link as u64).wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    1000 + (z % 997)
}

impl SpainPaths {
    /// Builds `k` VLANs (1 to 255) of destination-consistent routing
    /// tables.
    pub fn precompute(topo: &Topology, k: usize) -> SpainPaths {
        assert!((1..=u8::MAX as usize).contains(&k));
        let mut tables = BTreeMap::new();
        for vlan in 0..k as u8 {
            for dst in topo.switches() {
                let next = paths::next_hops_toward(topo, dst, |l, _| Some(link_weight(vlan, l.0)));
                for sw in topo.switches() {
                    let row = &next[sw.0 as usize];
                    if let Some(&nh) = row.iter().find(|&&m| topo.is_switch(m)) {
                        tables.insert((sw, dst, vlan), nh);
                    }
                }
            }
        }
        SpainPaths {
            vlans: k as u8,
            tables,
        }
    }

    /// Number of VLANs serving `dst` (uniform across destinations).
    pub fn vlans_for(&self, _dst: NodeId) -> u8 {
        self.vlans
    }

    /// Next hop at `switch` for `(dst, vlan)`.
    pub fn next_hop(&self, switch: NodeId, dst: NodeId, vlan: u8) -> Option<NodeId> {
        self.tables.get(&(switch, dst, vlan)).copied()
    }

    /// Total installed table rows (state accounting).
    pub fn table_rows(&self) -> usize {
        self.tables.len()
    }
}

/// One switch running SPAIN forwarding.
pub struct SpainSwitch {
    paths: std::rc::Rc<SpainPaths>,
}

impl SpainSwitch {
    /// A switch sharing the precomputed path system.
    pub fn new(paths: std::rc::Rc<SpainPaths>) -> SpainSwitch {
        SpainSwitch { paths }
    }
}

impl SwitchLogic for SpainSwitch {
    fn on_packet(&mut self, ctx: &mut SwitchCtx<'_>, pkt: &mut Packet, from: NodeId) -> Verdict {
        if pkt.dst_switch == ctx.switch {
            return Verdict::Forward(pkt.dst_host);
        }
        // Ingress (Fig 7's `fromHost`: only a packet's source host
        // injects it) stamps the VLAN by flow hash; core switches follow.
        if from == pkt.src_host {
            let n = self.paths.vlans_for(pkt.dst_switch);
            if n == 0 {
                return Verdict::NoRoute;
            }
            pkt.tag = (pkt.flow_hash % n as u64) as u32;
        }
        let vlan = pkt.tag as u8;
        match self.paths.next_hop(ctx.switch, pkt.dst_switch, vlan) {
            Some(nh) => Verdict::Forward(nh),
            None => Verdict::NoRoute,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contra_sim::{FlowSpec, SimConfig, Simulator, Time};
    use contra_topology::generators;

    impl SpainPaths {
        /// The full VLAN path from `src` to `dst`.
        fn path(&self, src: NodeId, dst: NodeId, vlan: u8) -> Option<Vec<NodeId>> {
            let mut path = vec![src];
            let mut cur = src;
            for _ in 0..self.tables.len() + 2 {
                if cur == dst {
                    return Some(path);
                }
                cur = self.next_hop(cur, dst, vlan)?;
                path.push(cur);
            }
            None
        }
    }

    #[test]
    fn precompute_covers_all_pairs_on_abilene() {
        let topo = generators::abilene(40e9);
        let paths = SpainPaths::precompute(&topo, 3);
        for src in topo.switches() {
            for dst in topo.switches() {
                if src == dst {
                    continue;
                }
                for vlan in 0..3 {
                    let p = paths
                        .path(src, dst, vlan)
                        .unwrap_or_else(|| panic!("{src}→{dst} vlan{vlan} has no path"));
                    assert_eq!(p[0], src);
                    assert_eq!(*p.last().unwrap(), dst);
                    // Loop-free by construction.
                    let mut q = p.clone();
                    q.sort_unstable();
                    q.dedup();
                    assert_eq!(q.len(), p.len(), "loop in {p:?}");
                }
            }
        }
        assert!(paths.table_rows() > 0);
    }

    #[test]
    fn vlans_provide_distinct_paths_somewhere() {
        let topo = generators::abilene(40e9);
        let paths = SpainPaths::precompute(&topo, 3);
        let mut distinct_pairs = 0;
        for src in topo.switches() {
            for dst in topo.switches() {
                if src == dst {
                    continue;
                }
                let p0 = paths.path(src, dst, 0);
                if (1..3).any(|v| paths.path(src, dst, v) != p0) {
                    distinct_pairs += 1;
                }
            }
        }
        assert!(
            distinct_pairs > 10,
            "perturbed VLANs must diversify paths; got {distinct_pairs} pairs"
        );
    }

    #[test]
    fn vlan0_is_plain_shortest_path() {
        let topo = generators::abilene(40e9);
        let paths = SpainPaths::precompute(&topo, 2);
        for src in topo.switches() {
            for dst in topo.switches() {
                if src == dst {
                    continue;
                }
                let p = paths.path(src, dst, 0).unwrap();
                let sp = contra_topology::paths::shortest_path(&topo, src, dst);
                assert_eq!(Some(p), sp, "{src}→{dst}: vlan0 must be the shortest path");
            }
        }
    }

    #[test]
    fn flows_spread_across_vlans_on_wan() {
        let topo = generators::with_hosts(
            &generators::abilene(10e9),
            1,
            generators::LinkSpec {
                bandwidth_bps: 10e9,
                delay_ns: 1_000,
            },
        );
        let mut sim = Simulator::new(
            topo.clone(),
            SimConfig {
                stop_at: Time::ms(200),
                trace_paths: true,
                ..SimConfig::default()
            },
        );
        // Installed by hand (not via the `Spain` RoutingSystem) to keep a
        // handle on the precomputed VLAN paths for the diversity check.
        let paths = std::rc::Rc::new(SpainPaths::precompute(&topo, 4));
        for sw in topo.switches() {
            sim.install(sw, Box::new(SpainSwitch::new(paths.clone())));
        }
        // Pick a host pair whose switches actually have VLAN-diverse paths
        // (for some city pairs geography dominates and all VLANs agree).
        let (src_sw, dst_sw) = topo
            .switches()
            .iter()
            .flat_map(|&a| topo.switches().into_iter().map(move |b| (a, b)))
            .find(|&(a, b)| {
                a != b && {
                    let p0 = paths.path(a, b, 0);
                    (1..4).any(|v| paths.path(a, b, v) != p0)
                }
            })
            .expect("some pair must be VLAN-diverse");
        let src = topo.hosts_of(src_sw)[0];
        let dst = topo.hosts_of(dst_sw)[0];
        for i in 0..12 {
            sim.add_flow(FlowSpec::Tcp {
                src,
                dst,
                bytes: 40_000,
                start: Time::us(100 * i),
            });
        }
        let out = sim.run();
        let (stats, traces) = (out.stats, out.traces.expect("paths traced"));
        assert_eq!(stats.completion_rate(), 1.0);
        // At least two distinct paths must be exercised across the flows.
        let unique: std::collections::BTreeSet<&Vec<NodeId>> =
            traces.iter().map(|(_, t)| t).collect();
        assert!(unique.len() >= 2, "SPAIN must multipath: {unique:?}");
        assert_eq!(stats.looped_packets, 0);
    }
}
