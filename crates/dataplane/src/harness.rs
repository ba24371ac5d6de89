//! Protocol-level test harness: runs the Contra protocol to convergence on
//! a topology with *pinned* link metrics, without the packet-level engine.
//!
//! This implements the §4 setting ("compilation: stable metrics"): probes
//! propagate instantaneously and links have externally fixed utilizations.
//! It exists so tests and benches can check the protocol's **optimality**
//! property — after convergence every source uses the best
//! policy-compliant path — against brute-force path enumeration, and probe
//! complexity, without simulating traffic.

use crate::switch::{ContraSwitch, DataplaneConfig};
use crate::tables::FwdKey;
use contra_core::CompiledPolicy;
use contra_sim::{LinkState, Packet, SwitchCtx, Time, Verdict};
use contra_topology::{NodeId, Topology};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// The harness: switches + pinned link state + a virtual clock that only
/// advances between probe rounds.
pub struct ProtocolHarness {
    /// The topology under test.
    pub topo: Topology,
    /// The compiled policy.
    pub cp: Arc<CompiledPolicy>,
    cfg: DataplaneConfig,
    links: Vec<LinkState>,
    switches: BTreeMap<NodeId, ContraSwitch>,
    now: Time,
    /// Pinned utilization per directed link (estimators decay; the pin is
    /// re-forced at every round so values hold exactly).
    pinned: BTreeMap<u32, f64>,
    /// Total probe messages delivered (probe-complexity assertions).
    pub probes_delivered: u64,
}

impl ProtocolHarness {
    /// Builds the harness with every switch running the compiled program.
    pub fn new(topo: &Topology, cp: Arc<CompiledPolicy>, cfg: DataplaneConfig) -> ProtocolHarness {
        let links: Vec<LinkState> = topo
            .links()
            .iter()
            .map(|l| {
                LinkState::new(
                    l.bandwidth_bps,
                    Time(l.delay_ns),
                    u32::MAX,
                    Time(cfg.probe_period.0 * 2),
                )
            })
            .collect();
        let switches = topo
            .switches()
            .into_iter()
            .map(|s| (s, ContraSwitch::new(cp.clone(), s, cfg.clone())))
            .collect();
        ProtocolHarness {
            topo: topo.clone(),
            cp,
            cfg,
            links,
            switches,
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

    /// Takes the cable `a – b` down (probes stop crossing it).
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
    /// quiescent; then the clock advances by one probe period. Pinned
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
        let order: Vec<NodeId> = self.switches.keys().copied().collect();
        for s in &order {
            let sw = self.switches.get_mut(s).unwrap();
            let mut ctx = SwitchCtx::detached(*s, self.now, &self.topo, &self.links);
            contra_sim::SwitchLogic::on_tick(sw, &mut ctx);
            for (to, pkt) in ctx.take_outputs() {
                queue.push_back((*s, to, pkt));
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
            let verdict = contra_sim::SwitchLogic::on_packet(sw, &mut ctx, &mut pkt, from);
            debug_assert_eq!(verdict, Verdict::Consume, "only probes circulate here");
            for (nxt, p) in ctx.take_outputs() {
                queue.push_back((to, nxt, p));
            }
        }
        self.now += self.cfg.probe_period;
    }

    /// Runs `k` rounds.
    pub fn run_rounds(&mut self, k: usize) {
        for _ in 0..k {
            self.run_round();
        }
    }

    /// The path traffic sourced at switch `src` would take to reach
    /// `dst`, by walking BestT/FwdT exactly as `SWIFORWARDPKT` does.
    /// Returns `None` when the source has no usable entry.
    pub fn traffic_path(&mut self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        let now = self.now;
        let key = self.switches.get_mut(&src)?.best_key(dst, now)?;
        let mut path = vec![src];
        let mut cur = src;
        let mut tag = key.tag;
        let pid = key.pid;
        // Policy-compliant paths may revisit physical switches at different
        // virtual nodes (e.g. out-and-back through a waypoint), so the walk
        // is bounded by the product-graph size, not the switch count.
        for _ in 0..self.cp.pg.len() + 2 {
            let sw = self.switches.get(&cur)?;
            let entry = sw.fwd_lookup(&FwdKey { dst, tag, pid })?.clone();
            path.push(entry.nhop);
            cur = entry.nhop;
            if cur == dst {
                return Some(path);
            }
            tag = entry.ntag;
        }
        None // walked too far: a loop (tests treat this as failure)
    }

    /// Direct access to one switch's state (debugging, tests).
    pub fn switch(&self, s: NodeId) -> &ContraSwitch {
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

    /// The rank the full policy assigns to a concrete path under the
    /// currently pinned metrics (brute-force oracle helper).
    pub fn oracle_rank(&self, path: &[NodeId]) -> contra_core::Rank {
        self.cp.rank_of_path(path, |x, y| {
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
