//! Protocol-level test harness: runs any [`SwitchLogic`] — [`ContraSwitch`]
//! by default — to convergence on a topology with *pinned* link metrics,
//! without the packet-level engine.
//!
//! This implements the §4 setting ("compilation: stable metrics"): probes
//! propagate instantaneously and links have externally fixed utilizations.
//! It exists so tests and benches can check the protocol's **optimality**
//! property — after convergence every source uses the best
//! policy-compliant path — against brute-force path enumeration, compare
//! systems under the same metrics, and count probes. `traffic_path`
//! forwards a data packet through the switches' own `on_packet`, so it
//! pins a flowlet and touches the loop table on its way, and stops where
//! the engine drops (no route, a down cable, TTL 0).

use crate::switch::{ContraSwitch, DataplaneConfig};
use contra_core::CompiledPolicy;
use contra_sim::{
    flow_hash, FlowId, LinkState, Packet, PacketKind, SwitchCtx, SwitchLogic, Time, Verdict,
    HDR_BYTES, INITIAL_TTL, PROBE_PERIOD,
};
use contra_topology::{Link, NodeId, Topology};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Both end hosts of [`ProtocolHarness::traffic_path`], no node of the
/// topology: the packet arrives from `src_host` and is delivered by a
/// forward to `dst_host`.
const HOST: NodeId = NodeId(u32::MAX);

/// The harness: switches + pinned link state + a virtual clock that only
/// advances between probe rounds.
pub struct ProtocolHarness<S: SwitchLogic = ContraSwitch> {
    /// The topology under test.
    pub topo: Topology,
    links: Vec<LinkState>,
    switches: BTreeMap<NodeId, S>,
    /// One round: the switches' tick interval.
    round: Time,
    now: Time,
    /// Pinned utilization per directed link (estimators decay; the pin is
    /// re-forced at every round so values hold exactly).
    pinned: BTreeMap<u32, f64>,
    /// Total probe messages delivered (probe-complexity assertions).
    pub probes_delivered: u64,
}

impl<S: SwitchLogic> ProtocolHarness<S> {
    /// Builds the harness over one program per switch. A round lasts the
    /// switches' [`SwitchLogic::tick_interval`] ([`PROBE_PERIOD`] when none
    /// ticks), and every switch ticks once per round.
    pub fn from_switches(
        topo: &Topology,
        switches: impl IntoIterator<Item = (NodeId, S)>,
    ) -> ProtocolHarness<S> {
        let switches: BTreeMap<NodeId, S> = switches.into_iter().collect();
        let round = (switches.values())
            .find_map(|s| s.tick_interval())
            .unwrap_or(PROBE_PERIOD);
        let window = Time(round.0 * 2);
        let link = |l: &Link| LinkState::new(l.bandwidth_bps, Time(l.delay_ns), u32::MAX, window);
        ProtocolHarness {
            topo: topo.clone(),
            links: topo.links().iter().map(link).collect(),
            switches,
            round,
            now: Time::ZERO,
            pinned: BTreeMap::new(),
            probes_delivered: 0,
        }
    }

    /// Current harness time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Pins the utilization of the directed link `a → b`. The value holds
    /// exactly across rounds until re-pinned.
    pub fn set_util(&mut self, a: NodeId, b: NodeId, util: f64) {
        let l = self
            .topo
            .link_between(a, b)
            .unwrap_or_else(|| panic!("no link {a}→{b}"));
        let bw = self.topo.link(l).bandwidth_bps;
        self.pinned.insert(l.0, util);
        self.links[l.0 as usize]
            .estimator
            .force_utilization(bw, util, self.now);
    }

    /// Pins the utilization of both directions of the cable `a – b`.
    pub fn set_util_bidir(&mut self, a: NodeId, b: NodeId, util: f64) {
        self.set_util(a, b, util);
        self.set_util(b, a, util);
    }

    /// Takes the cable `a – b` down (probes and traffic stop crossing it).
    pub fn fail_link(&mut self, a: NodeId, b: NodeId) {
        for (x, y) in [(a, b), (b, a)] {
            if let Some(l) = self.topo.link_between(x, y) {
                self.links[l.0 as usize].set_down();
            }
        }
    }

    /// Brings the cable `a – b` back up; probes resume next round.
    pub fn recover_link(&mut self, a: NodeId, b: NodeId) {
        for (x, y) in [(a, b), (b, a)] {
            if let Some(l) = self.topo.link_between(x, y) {
                self.links[l.0 as usize].set_up();
            }
        }
    }

    /// Runs one probe round: every switch originates its probes, and all
    /// probe traffic is delivered (instantly, breadth-first) until
    /// quiescent; then the clock advances by one round. Pinned
    /// utilizations are re-applied so they persist across rounds.
    pub fn run_round(&mut self) {
        // Re-force the pinned utilizations at the new timestamp (estimators
        // decay between rounds; reading-then-writing would halve them).
        for (&l, &u) in &self.pinned {
            let bw = self.links[l as usize].bandwidth_bps;
            self.links[l as usize]
                .estimator
                .force_utilization(bw, u, self.now);
        }

        let mut queue: VecDeque<(NodeId, NodeId, Packet)> = VecDeque::new();
        for (&s, sw) in &mut self.switches {
            let mut ctx = SwitchCtx::detached(s, self.now, &self.topo, &self.links);
            sw.on_tick(&mut ctx);
            for (to, pkt) in ctx.take_outputs() {
                queue.push_back((s, to, pkt));
            }
        }
        let mut guard = 0u64;
        while let Some((from, to, mut pkt)) = queue.pop_front() {
            guard += 1;
            assert!(
                guard < 10_000_000,
                "probe propagation did not quiesce — monotonicity violated?"
            );
            // Down links swallow probes.
            let Some(l) = self.topo.link_between(from, to) else {
                continue;
            };
            if !self.links[l.0 as usize].up {
                continue;
            }
            self.probes_delivered += 1;
            let sw = self.switches.get_mut(&to).expect("probe sent to a switch");
            let mut ctx = SwitchCtx::detached(to, self.now, &self.topo, &self.links);
            let verdict = sw.on_packet(&mut ctx, &mut pkt, from);
            debug_assert_eq!(verdict, Verdict::Consume, "only probes circulate here");
            for (nxt, p) in ctx.take_outputs() {
                queue.push_back((to, nxt, p));
            }
        }
        self.now += self.round;
    }

    /// Runs `k` rounds.
    pub fn run_rounds(&mut self, k: usize) {
        for _ in 0..k {
            self.run_round();
        }
    }

    /// The switches a data packet from a host at `src` to one at `dst`
    /// crosses now, each forwarding it by its `on_packet`; `None` where the
    /// engine drops it (no route, a down cable, TTL 0). The flow hash is
    /// one per `(src, dst)`, as flowlet pins are keyed without `dst`.
    pub fn traffic_path(&mut self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        let mut pkt = Packet {
            id: 0,
            kind: PacketKind::Data,
            src_host: HOST,
            dst_host: HOST,
            dst_switch: dst,
            flow: FlowId(0),
            seq: 0,
            size_bytes: HDR_BYTES,
            sent_at: self.now,
            tag: 0,
            pid: 0,
            ttl: INITIAL_TTL,
            flow_hash: flow_hash(FlowId(src.0), u64::from(dst.0)),
        };
        let mut path = vec![src];
        let (mut from, mut cur) = (HOST, src);
        loop {
            let sw = self.switches.get_mut(&cur)?;
            let mut ctx = SwitchCtx::detached(cur, self.now, &self.topo, &self.links);
            let Verdict::Forward(next) = sw.on_packet(&mut ctx, &mut pkt, from) else {
                return None;
            };
            if next == pkt.dst_host {
                return (cur == dst).then_some(path);
            }
            let l = self.topo.link_between(cur, next)?;
            if !self.links[l.0 as usize].up || pkt.ttl == 0 {
                return None;
            }
            pkt.ttl -= 1;
            path.push(next);
            (from, cur) = (cur, next);
        }
    }

    /// Direct access to one switch's state (debugging, tests).
    pub fn switch(&self, s: NodeId) -> &S {
        &self.switches[&s]
    }

    /// Reads the pinned utilization of the directed link `a → b` — the
    /// value the protocol saw during the last round (the raw estimator
    /// decays between rounds, which would skew oracle comparisons).
    pub fn util(&self, a: NodeId, b: NodeId) -> f64 {
        match self.topo.link_between(a, b) {
            Some(l) => (self.pinned.get(&l.0).copied())
                .unwrap_or_else(|| self.links[l.0 as usize].estimator.utilization(self.now)),
            None => 0.0,
        }
    }
}

impl ProtocolHarness {
    /// Builds the harness with every switch running the compiled program.
    pub fn new(topo: &Topology, cp: Arc<CompiledPolicy>, cfg: DataplaneConfig) -> ProtocolHarness {
        let switches = (topo.switches().into_iter())
            .map(|s| (s, ContraSwitch::new(cp.clone(), s, cfg.clone())));
        Self::from_switches(topo, switches)
    }

    /// The compiled policy the switches run.
    pub fn cp(&self) -> &Arc<CompiledPolicy> {
        let any = self.switches.values().next();
        &any.expect("a compiled policy has a switch").cp
    }

    /// The rank the full policy assigns to a concrete path under the
    /// currently pinned metrics (brute-force oracle helper).
    pub fn oracle_rank(&self, path: &[NodeId]) -> contra_core::Rank {
        self.cp().rank_of_path(path, |x, y| {
            let util = self.util(x, y);
            let lat = self
                .topo
                .link_between(x, y)
                .map(|l| Time(self.topo.link(l).delay_ns).as_secs_f64())
                .unwrap_or(0.0);
            (util, lat)
        })
    }

    /// Brute force: the minimum rank over all simple paths from `src` to
    /// `dst` (up to `max_hops`).
    pub fn oracle_best_rank(&self, src: NodeId, dst: NodeId, max_hops: usize) -> contra_core::Rank {
        contra_topology::paths::all_simple_paths(&self.topo, src, dst, max_hops)
            .into_iter()
            .map(|p| self.oracle_rank(&p))
            .min()
            .unwrap_or(contra_core::Rank::Inf)
    }
}
