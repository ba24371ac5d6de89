//! Hula (SOSR'16): utilization-aware load balancing specialized to
//! two-tier leaf-spine fabrics — the hand-crafted system Contra is
//! benchmarked against in §6.3.
//!
//! Each ToR (leaf) originates a probe per period. Probes flow "up" from
//! the origin leaf to every spine, and each spine replicates them "down"
//! to every other leaf — the topology's tree-ness is what makes this
//! hard-coded scheme loop-free, and exactly what Contra generalizes away.
//! Every switch keeps, per destination ToR, the best path utilization and
//! the next hop that provided it; flowlets pin forwarding decisions
//! between updates.
//!
//! Faithfulness notes: the "probe from the current best next hop always
//! refreshes" rule (so a worsening best path is re-learned), aging of best
//! entries, and flowlet expiry through next hops that stopped advertising
//! the destination all follow the Hula paper; the probe period, flowlet
//! timeout, failure window and entry expiry are the constants Contra's
//! dataplane reads ([`PROBE_PERIOD`], [`FLOWLET_TIMEOUT`],
//! [`contra_sim::FAILURE_PERIODS`], [`EXPIRY_PERIODS`]), and failures are
//! detected by the same §5.4 clock ([`ProbeClock`]), for an
//! apples-to-apples comparison.

use contra_sim::{
    silent, FxHashMap, Packet, PacketKind, Probe, ProbeClock, SwitchCtx, SwitchLogic, Time,
    Verdict, EXPIRY_PERIODS, FLOWLET_TIMEOUT, PROBE_BASE_BYTES, PROBE_PERIOD,
};
use contra_topology::{NodeId, Topology};

/// Position of a switch in the two-tier fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HulaRole {
    /// Top-of-rack switch (has hosts; originates probes).
    Leaf,
    /// Spine switch (replicates probes downward).
    Spine,
}

/// The role of switch `s`, decided from its own links: a switch with an
/// attached host is a leaf.
pub(crate) fn role_of(topo: &Topology, s: NodeId) -> HulaRole {
    if topo.adjacency(s).iter().any(|&(n, _)| !topo.is_switch(n)) {
        HulaRole::Leaf
    } else {
        HulaRole::Spine
    }
}

#[derive(Debug, Clone)]
struct BestEntry {
    util: f64,
    nhop: NodeId,
    updated: Time,
}

#[derive(Debug, Clone)]
struct FlowletEntry {
    nhop: NodeId,
    last: Time,
}

/// One switch running Hula.
pub struct HulaSwitch {
    switch: NodeId,
    role: HulaRole,
    /// Best known path per destination ToR, for the ToRs whose probes
    /// reached this switch: sorted by origin and searched per packet, as
    /// the §5.4 clock is, so its size is the fabric's leaves at most.
    best: Vec<(NodeId, BestEntry)>,
    /// Flowlet pins keyed by fid (Hula keys on fid only). Deterministic
    /// Fx hashing — SipHash is both slower and per-process seeded.
    flowlets: FxHashMap<u64, FlowletEntry>,
    /// When each neighbour was last heard (§5.4).
    heard: ProbeClock,
    /// Last probe of each origin ToR heard from each neighbor, keyed
    /// `(origin, from)`: while fresh, `from` still advertises a path to
    /// `origin`.
    advertised: FxHashMap<(NodeId, NodeId), Time>,
    /// Leaf neighbors (down-links) and spine neighbors (up-links).
    up_neighbors: Vec<NodeId>,
    down_neighbors: Vec<NodeId>,
}

impl HulaSwitch {
    /// Builds the Hula program for `switch`. Panics if the topology is not
    /// two-tier (a leaf adjacent to a leaf, say) — Hula simply does not
    /// support such networks, which is the paper's point.
    pub fn new(topo: &Topology, switch: NodeId) -> HulaSwitch {
        let role = role_of(topo, switch);
        let mut up = Vec::new();
        let mut down = Vec::new();
        for n in topo.switch_neighbors(switch) {
            match (role, role_of(topo, n)) {
                (HulaRole::Leaf, HulaRole::Spine) => up.push(n),
                (HulaRole::Spine, HulaRole::Leaf) => down.push(n),
                (a, b) => panic!(
                    "Hula requires a two-tier leaf-spine fabric; {switch} ({a:?}) is adjacent to {n} ({b:?})"
                ),
            }
        }
        HulaSwitch {
            switch,
            role,
            best: Vec::new(),
            flowlets: FxHashMap::default(),
            heard: ProbeClock::new(topo, switch),
            advertised: FxHashMap::default(),
            up_neighbors: up,
            down_neighbors: down,
        }
    }

    /// Whether `nhop` still advertises `dst`: a probe that `dst` originated
    /// arrived from it within the failure window. A live next hop that lost
    /// its own path to `dst` falls silent for that destination only, which
    /// the per-neighbour clock cannot see.
    fn advertises(&self, nhop: NodeId, dst: NodeId, now: Time) -> bool {
        self.advertised
            .get(&(dst, nhop))
            .is_some_and(|&last| !silent(last, now, PROBE_PERIOD))
    }

    /// Where `origin`'s best entry is, or would be inserted.
    fn best_slot(&self, origin: NodeId) -> Result<usize, usize> {
        self.best.binary_search_by_key(&origin, |&(o, _)| o)
    }

    fn entry_valid(&self, e: &BestEntry, now: Time) -> bool {
        now.saturating_sub(e.updated) <= Time(PROBE_PERIOD.0 * EXPIRY_PERIODS)
            && !self.heard.failed(e.nhop, now, PROBE_PERIOD)
    }

    fn mk_probe(&self, origin: NodeId, util: f64, to: NodeId, now: Time) -> Packet {
        let probe = Probe {
            origin,
            pid: 0,
            version: 0,
            tag: 0,
            mv: [util, 0.0, 0.0],
        };
        Packet::probe(self.switch, to, probe, PROBE_BASE_BYTES + 4, now)
    }

    fn process_probe(&mut self, ctx: &mut SwitchCtx<'_>, p: &Probe, from: NodeId) {
        let now = ctx.now;
        self.heard.heard(from, now);
        if p.origin == self.switch {
            return;
        }
        self.advertised.insert((p.origin, from), now);
        let util = p.mv[0].max(ctx.util_lat_to(from).0);
        let slot = self.best_slot(p.origin);
        let accept = match slot {
            Err(_) => true,
            Ok(i) => {
                let e = &self.best[i].1;
                // Better path, refresh from the incumbent next hop, or
                // stale incumbent.
                util < e.util || e.nhop == from || !self.entry_valid(e, now)
            }
        };
        if !accept {
            return;
        }
        let entry = BestEntry {
            util,
            nhop: from,
            updated: now,
        };
        match slot {
            Ok(i) => self.best[i].1 = entry,
            Err(i) => self.best.insert(i, (p.origin, entry)),
        }
        // Replication discipline: spines received from a leaf replicate to
        // every *other* leaf; leaves do not propagate further (two tiers).
        if self.role == HulaRole::Spine {
            for &t in &self.down_neighbors {
                if t != from && t != p.origin {
                    ctx.send(t, self.mk_probe(p.origin, util, t, now));
                }
            }
        }
    }

    fn forward(&mut self, ctx: &mut SwitchCtx<'_>, pkt: &mut Packet) -> Verdict {
        let now = ctx.now;
        if pkt.dst_switch == ctx.switch {
            return Verdict::Forward(pkt.dst_host);
        }
        // Flowlet fast path: a pin is honoured while its next hop still
        // advertises the destination. Constant-rate traffic never leaves
        // the idle gap that would expire a pin through a live next hop
        // whose own link to the destination was cut.
        if let Some(e) = self.flowlets.get(&pkt.flow_hash) {
            let (nhop, last) = (e.nhop, e.last);
            if now.saturating_sub(last) <= FLOWLET_TIMEOUT
                && self.advertises(nhop, pkt.dst_switch, now)
            {
                if let Some(e) = self.flowlets.get_mut(&pkt.flow_hash) {
                    e.last = now;
                }
                pkt.tag = 0;
                return Verdict::Forward(nhop);
            }
            self.flowlets.remove(&pkt.flow_hash);
        }
        match self.best_slot(pkt.dst_switch).map(|i| &self.best[i].1) {
            Ok(e) if self.entry_valid(e, now) => {
                let nhop = e.nhop;
                self.flowlets
                    .insert(pkt.flow_hash, FlowletEntry { nhop, last: now });
                Verdict::Forward(nhop)
            }
            _ => Verdict::NoRoute,
        }
    }
}

impl SwitchLogic for HulaSwitch {
    fn on_packet(&mut self, ctx: &mut SwitchCtx<'_>, pkt: &mut Packet, from: NodeId) -> Verdict {
        if let PacketKind::Probe(p) = &pkt.kind {
            self.process_probe(ctx, p, from);
            return Verdict::Consume;
        }
        self.forward(ctx, pkt)
    }

    fn on_tick(&mut self, ctx: &mut SwitchCtx<'_>) {
        if self.role != HulaRole::Leaf {
            return;
        }
        let now = ctx.now;
        for &up in &self.up_neighbors {
            ctx.send(up, self.mk_probe(self.switch, 0.0, up, now));
        }
    }

    fn tick_interval(&self) -> Option<Time> {
        Some(PROBE_PERIOD)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contra_sim::{CompileCache, FlowSpec, InstallCtx, RoutingSystem, SimConfig, Simulator};
    use contra_topology::generators;

    fn install_hula(sim: &mut Simulator) {
        let topo = sim.topology().clone();
        let cache = CompileCache::new();
        crate::systems::Hula
            .install(sim, &InstallCtx::new(&topo, &[], &cache))
            .unwrap();
    }

    fn leaf_spine() -> Topology {
        generators::leaf_spine(
            2,
            2,
            2,
            generators::LinkSpec::default(),
            generators::LinkSpec::default(),
        )
    }

    #[test]
    fn roles_inferred_from_hosts() {
        let topo = leaf_spine();
        let role = |name| role_of(&topo, topo.find(name).unwrap());
        assert_eq!(role("leaf0"), HulaRole::Leaf);
        assert_eq!(role("spine1"), HulaRole::Spine);
    }

    #[test]
    #[should_panic(expected = "two-tier")]
    fn rejects_non_leaf_spine_topologies() {
        // Abilene has no hosts → all switches are "spines" adjacent to
        // each other: not a two-tier fabric.
        let topo = generators::with_hosts(
            &generators::abilene(40e9),
            1,
            generators::LinkSpec::default(),
        );
        let any = topo.find("Denver").unwrap();
        let _ = HulaSwitch::new(&topo, any);
    }

    /// A switch's best-path table holds the leaves whose probes reached
    /// it, in origin order, and nothing for the rest of the network.
    #[test]
    fn best_paths_hold_only_origins_that_probed() {
        let topo = generators::leaf_spine(
            4,
            2,
            16,
            generators::LinkSpec::default(),
            generators::LinkSpec::default(),
        );
        let node = |name| topo.find(name).unwrap();
        let links: Vec<contra_sim::LinkState> = topo
            .links()
            .iter()
            .map(|l| {
                contra_sim::LinkState::new(l.bandwidth_bps, Time(l.delay_ns), 0, Time::us(100))
            })
            .collect();
        let spine = node("spine0");
        let mut hula = HulaSwitch::new(&topo, spine);
        assert_eq!(hula.best.capacity(), 0);
        for (leaf, at) in [("leaf2", 10), ("leaf0", 20), ("leaf2", 30)] {
            let mut ctx = SwitchCtx::new(spine, Time::us(at), &topo, &links, Vec::new());
            let mut probe = hula.mk_probe(node(leaf), 0.0, spine, Time::us(at));
            let verdict = hula.on_packet(&mut ctx, &mut probe, node(leaf));
            assert_eq!(verdict, Verdict::Consume);
        }
        let origins: Vec<NodeId> = hula.best.iter().map(|&(o, _)| o).collect();
        assert_eq!(origins, [node("leaf0"), node("leaf2")]);
        assert_eq!(hula.best[1].1.updated, Time::us(30));
    }

    #[test]
    fn flows_complete_and_probes_flow() {
        let topo = leaf_spine();
        let mut sim = Simulator::new(
            topo.clone(),
            SimConfig {
                stop_at: Time::ms(30),
                trace_paths: true,
                ..SimConfig::default()
            },
        );
        install_hula(&mut sim);
        let hosts = topo.hosts();
        for i in 0..6 {
            sim.add_flow(FlowSpec::Tcp {
                src: hosts[i % 2],
                dst: hosts[2 + (i % 2)],
                bytes: 200_000,
                start: Time::us(600 + 30 * i as u64),
            });
        }
        let out = sim.run();
        let (stats, traces) = (out.stats, out.traces.expect("paths traced"));
        assert_eq!(stats.completion_rate(), 1.0);
        assert!(stats.wire_bytes.get(contra_sim::TrafficKind::Probe) > 0);
        for (_, t) in &traces {
            assert_eq!(t.len(), 3, "leaf-spine-leaf only: {t:?}");
        }
        assert_eq!(stats.looped_packets, 0);
    }

    #[test]
    fn hula_avoids_congested_spine() {
        let topo = leaf_spine();
        let spine0 = topo.find("spine0").unwrap();
        let mut sim = Simulator::new(
            topo.clone(),
            SimConfig {
                stop_at: Time::ms(40),
                trace_paths: true,
                ..SimConfig::default()
            },
        );
        install_hula(&mut sim);
        let hosts = topo.hosts();
        // Elephant UDP flow pinned by steady transmission through one
        // spine; then short flows should prefer the other spine.
        sim.add_flow(FlowSpec::Udp {
            src: hosts[0],
            dst: hosts[2],
            rate_bps: 8e9,
            start: Time::ZERO,
            stop: Time::ms(40),
        });
        for i in 0..8 {
            sim.add_flow(FlowSpec::Tcp {
                src: hosts[1],
                dst: hosts[3],
                bytes: 100_000,
                start: Time::ms(5) + Time::us(200 * i),
            });
        }
        let out = sim.run();
        let (stats, traces) = (out.stats, out.traces.expect("paths traced"));
        assert!(stats.completion_rate() > 0.99);
        // The elephant grabs one spine; count how much of the mice traffic
        // shares it. With utilization-aware routing the mice should
        // overwhelmingly use the other spine.
        let elephant = contra_sim::FlowId(0);
        let elephant_spine = traces
            .iter()
            .find(|(f, _)| *f == elephant)
            .expect("elephant delivers")
            .1[1];
        let mice_on_elephant = traces
            .iter()
            .filter(|(f, t)| *f != elephant && t.len() > 1 && t[1] == elephant_spine)
            .count();
        let mice_total = traces.iter().filter(|(f, _)| *f != elephant).count();
        assert!(
            (mice_on_elephant as f64) < 0.5 * mice_total as f64,
            "{mice_on_elephant}/{mice_total} mice packets shared spine {spine0}"
        );
    }

    #[test]
    fn hula_reroutes_after_link_failure() {
        let topo = leaf_spine();
        let leaf0 = topo.find("leaf0").unwrap();
        let spine0 = topo.find("spine0").unwrap();
        let spine1 = topo.find("spine1").unwrap();
        let mut sim = Simulator::new(
            topo.clone(),
            SimConfig {
                stop_at: Time::ms(40),
                trace_paths: true,
                ..SimConfig::default()
            },
        );
        install_hula(&mut sim);
        let hosts = topo.hosts();
        sim.try_fail_link_at(leaf0, spine0, Time::ms(1)).unwrap();
        for i in 0..10 {
            sim.add_flow(FlowSpec::Tcp {
                src: hosts[0],
                dst: hosts[2],
                bytes: 50_000,
                // Flows start well after detection (3 periods ≈ 0.77 ms
                // past the failure).
                start: Time::ms(4) + Time::us(300 * i),
            });
        }
        let out = sim.run();
        let (stats, traces) = (out.stats, out.traces.expect("paths traced"));
        assert_eq!(stats.completion_rate(), 1.0);
        for (_, t) in &traces {
            assert_eq!(t[1], spine1, "traffic must avoid the dead uplink: {t:?}");
        }
    }
}
