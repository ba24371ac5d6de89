//! ECMP and static shortest-path forwarding.
//!
//! ECMP hashes each flow onto one of the equal-cost shortest-path next
//! hops, oblivious to load — the paper's primary datacenter baseline. Our
//! ECMP is granted an idealized local repair: next hops whose link is down
//! are skipped (the paper's asymmetric experiment has ECMP functional but
//! congested, so it must survive the failure). Shortest-path routing (SP,
//! used on Abilene in §6.4) always uses one deterministic lowest-cost next
//! hop and adapts to nothing.

use contra_sim::{Packet, SwitchCtx, SwitchLogic, Verdict};
use contra_topology::{paths, NodeId, Topology};

/// One switch's shortest-path next hops toward every destination, dense
/// by node id and flat: destination `d`'s are `hops[first[d]..first[d + 1]]`
/// (empty toward itself, hosts and switches it cannot reach).
#[derive(Debug, PartialEq)]
struct NextHops {
    first: Vec<u32>,
    hops: Vec<NodeId>,
}

impl NextHops {
    /// The next hops toward `dst`.
    #[inline]
    fn to(&self, dst: NodeId) -> &[NodeId] {
        let d = dst.0 as usize;
        &self.hops[self.first[d] as usize..self.first[d + 1] as usize]
    }
}

/// For each of `switches`, in order, its shortest-path next hops toward
/// every destination switch. A destination's DAG
/// ([`paths::ecmp_next_hops`]) holds every switch's row, so it is computed
/// once however many switches ask: a fabric of S switches costs S searches,
/// not S². Destinations come in ascending id, so each switch's table is
/// built by appending its row of every DAG.
fn next_hop_sets(topo: &Topology, switches: &[NodeId]) -> Vec<NextHops> {
    let n = topo.num_nodes();
    let mut tables: Vec<NextHops> = (switches.iter())
        .map(|_| NextHops {
            first: Vec::with_capacity(n + 1),
            hops: Vec::new(),
        })
        .collect();
    for dst in topo.switches() {
        let dag = paths::ecmp_next_hops(topo, dst);
        for (t, &sw) in tables.iter_mut().zip(switches) {
            t.first.resize(dst.0 as usize + 1, t.hops.len() as u32);
            t.hops.extend_from_slice(&dag[sw.0 as usize]);
        }
    }
    for t in &mut tables {
        t.first.resize(n + 1, t.hops.len() as u32);
    }
    tables
}

/// Load-oblivious hash-based multipath over shortest paths.
pub struct EcmpSwitch {
    /// All shortest-path next hops per destination switch. Consulted once
    /// per packet per hop.
    next_hops: NextHops,
}

impl EcmpSwitch {
    /// The logic of each of `switches`, in order — what installing ECMP on
    /// a whole fabric asks for.
    pub fn for_switches(topo: &Topology, switches: &[NodeId]) -> Vec<EcmpSwitch> {
        let tables = next_hop_sets(topo, switches).into_iter();
        tables.map(|next_hops| EcmpSwitch { next_hops }).collect()
    }

    /// Next-hop sets computed on the topology with the given cables
    /// removed — modelling a control plane that has already reconverged
    /// around known failures. The paper's asymmetric experiment (Fig 12)
    /// assumes exactly this: ECMP still delivers, just congested.
    pub fn new_reconverged(
        topo: &Topology,
        switch: NodeId,
        failed: &[(NodeId, NodeId)],
    ) -> EcmpSwitch {
        let mut one = Self::for_switches(&topo.without_cables(failed), &[switch]);
        one.pop().expect("one switch asked, one table built")
    }
}

impl SwitchLogic for EcmpSwitch {
    fn on_packet(&mut self, ctx: &mut SwitchCtx<'_>, pkt: &mut Packet, _: NodeId) -> Verdict {
        if pkt.dst_switch == ctx.switch {
            return Verdict::Forward(pkt.dst_host);
        }
        let hops = self.next_hops.to(pkt.dst_switch);
        // Idealized repair: hash over the *live* subset — selected by
        // counting, without materializing the subset.
        let n_live = hops.iter().filter(|&&h| ctx.link_up(h)).count();
        if n_live == 0 {
            return Verdict::NoRoute;
        }
        let k = (pkt.flow_hash % n_live as u64) as usize;
        let pick = hops
            .iter()
            .copied()
            .filter(|&h| ctx.link_up(h))
            .nth(k)
            .expect("k < n_live");
        Verdict::Forward(pick)
    }
}

/// Single static shortest path; no load awareness, no failure awareness.
pub struct SpSwitch {
    /// Dense next-hop array indexed by destination node id.
    next_hop: Vec<Option<NodeId>>,
}

impl SpSwitch {
    /// The logic of each of `switches`, in order: the deterministic
    /// shortest-path next hop per destination. The path
    /// [`paths::shortest_path`] walks takes the lowest-numbered ECMP next
    /// hop at every step, so its first step is the first of the set.
    pub fn for_switches(topo: &Topology, switches: &[NodeId]) -> Vec<SpSwitch> {
        let nodes = (0..topo.num_nodes() as u32).map(NodeId);
        let tables = next_hop_sets(topo, switches).into_iter();
        tables
            .map(|t| SpSwitch {
                next_hop: nodes.clone().map(|d| t.to(d).first().copied()).collect(),
            })
            .collect()
    }
}

impl SwitchLogic for SpSwitch {
    fn on_packet(&mut self, ctx: &mut SwitchCtx<'_>, pkt: &mut Packet, _: NodeId) -> Verdict {
        if pkt.dst_switch == ctx.switch {
            return Verdict::Forward(pkt.dst_host);
        }
        match self.next_hop[pkt.dst_switch.0 as usize] {
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

    fn leaf_spine() -> contra_topology::Topology {
        generators::leaf_spine(
            2,
            2,
            2,
            generators::LinkSpec::default(),
            generators::LinkSpec::default(),
        )
    }

    /// A whole fabric's tables, built from one DAG per destination, are
    /// the tables a search per switch gives: a row of the DAG per
    /// (switch, destination), the second node of `shortest_path`.
    #[test]
    fn fabric_tables_equal_the_per_switch_searches() {
        let spec = generators::LinkSpec::default();
        let mut barbell = contra_topology::Topology::builder();
        let [a, b, c, d] = ["a", "b", "c", "d"].map(|n| barbell.switch(n));
        let h = barbell.host("h");
        barbell.biline(a, b, 10e9, 1_000);
        barbell.biline(c, d, 10e9, 1_000);
        barbell.biline(a, h, 10e9, 1_000);
        // The bar carries traffic one way only: c and d reach nobody on
        // the far side, and no table may say otherwise.
        barbell.line(b, c, 10e9, 1_000);
        for (label, topo) in [
            ("leaf-spine", leaf_spine()),
            ("fat-tree(4)", generators::fat_tree(4, 1, spec)),
            ("abilene", generators::abilene(40e9)),
            ("barbell", barbell.build()),
        ] {
            let switches = topo.switches();
            let ecmp = EcmpSwitch::for_switches(&topo, &switches);
            let sp = SpSwitch::for_switches(&topo, &switches);
            assert_eq!((ecmp.len(), sp.len()), (switches.len(), switches.len()));
            for (i, &sw) in switches.iter().enumerate() {
                for dst in (0..topo.num_nodes() as u32).map(NodeId) {
                    let routed = topo.is_switch(dst) && dst != sw;
                    let (hops, hop) = if routed {
                        (
                            paths::ecmp_next_hops(&topo, dst)[sw.0 as usize].clone(),
                            paths::shortest_path(&topo, sw, dst).map(|p| p[1]),
                        )
                    } else {
                        (Vec::new(), None)
                    };
                    assert_eq!(ecmp[i].next_hops.to(dst), hops, "{label}: ECMP {sw}→{dst}");
                    assert_eq!(
                        sp[i].next_hop[dst.0 as usize], hop,
                        "{label}: SP {sw}→{dst}"
                    );
                }
            }
        }
    }

    #[test]
    fn ecmp_spreads_flows_across_spines() {
        let topo = leaf_spine();
        let mut sim = Simulator::new(
            topo.clone(),
            SimConfig {
                stop_at: Time::ms(20),
                trace_paths: true,
                ..SimConfig::default()
            },
        );
        let switches = topo.switches();
        for (sw, ecmp) in switches
            .iter()
            .zip(EcmpSwitch::for_switches(&topo, &switches))
        {
            sim.install(*sw, Box::new(ecmp));
        }
        let hosts = topo.hosts();
        for i in 0..16 {
            sim.add_flow(FlowSpec::Tcp {
                src: hosts[i % 2],
                dst: hosts[2 + (i % 2)],
                bytes: 30_000,
                start: Time::us(10 * i as u64),
            });
        }
        let out = sim.run();
        let (stats, traces) = (out.stats, out.traces.expect("paths traced"));
        assert_eq!(stats.completion_rate(), 1.0);
        // With 16 flows both spines must be exercised.
        let spines_used: std::collections::BTreeSet<NodeId> =
            traces.iter().map(|(_, t)| t[1]).collect();
        assert_eq!(spines_used.len(), 2, "ECMP must use both spines");
        assert_eq!(stats.looped_packets, 0);
    }

    #[test]
    fn ecmp_skips_failed_links() {
        let topo = leaf_spine();
        let leaf0 = topo.find("leaf0").unwrap();
        let spine0 = topo.find("spine0").unwrap();
        let spine1 = topo.find("spine1").unwrap();
        let mut sim = Simulator::new(
            topo.clone(),
            SimConfig {
                stop_at: Time::ms(20),
                trace_paths: true,
                ..SimConfig::default()
            },
        );
        // Reconverged tables: remote switches also avoid paths through the
        // dead cable (plain local filtering cannot save traffic that a
        // spine would have to deliver over it).
        for sw in topo.switches() {
            sim.install(
                sw,
                Box::new(EcmpSwitch::new_reconverged(&topo, sw, &[(leaf0, spine0)])),
            );
        }
        sim.try_fail_link_at(leaf0, spine0, Time::ZERO).unwrap();
        let hosts = topo.hosts();
        for i in 0..8 {
            sim.add_flow(FlowSpec::Tcp {
                src: hosts[0],
                dst: hosts[2],
                bytes: 30_000,
                start: Time::us(100 + 10 * i),
            });
        }
        let out = sim.run();
        let (stats, traces) = (out.stats, out.traces.expect("paths traced"));
        assert_eq!(stats.completion_rate(), 1.0);
        for (_, t) in &traces {
            assert_eq!(t[1], spine1, "all traffic must avoid the dead spine: {t:?}");
        }
    }

    #[test]
    fn sp_uses_one_path_only() {
        let topo = leaf_spine();
        let mut sim = Simulator::new(
            topo.clone(),
            SimConfig {
                stop_at: Time::ms(20),
                trace_paths: true,
                ..SimConfig::default()
            },
        );
        let switches = topo.switches();
        for (sw, sp) in switches
            .iter()
            .zip(SpSwitch::for_switches(&topo, &switches))
        {
            sim.install(*sw, Box::new(sp));
        }
        let hosts = topo.hosts();
        for i in 0..8 {
            sim.add_flow(FlowSpec::Tcp {
                src: hosts[i % 2],
                dst: hosts[2 + (i % 2)],
                bytes: 30_000,
                start: Time::us(10 * i as u64),
            });
        }
        let out = sim.run();
        let (stats, traces) = (out.stats, out.traces.expect("paths traced"));
        assert_eq!(stats.completion_rate(), 1.0);
        let spines_used: std::collections::BTreeSet<NodeId> =
            traces.iter().map(|(_, t)| t[1]).collect();
        assert_eq!(spines_used.len(), 1, "SP must pin everything to one spine");
    }
}
