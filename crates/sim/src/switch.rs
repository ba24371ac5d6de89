//! The switch programming surface: what a routing system implements to run
//! inside the simulator.
//!
//! A [`SwitchLogic`] is the software analogue of one switch's P4 program:
//! it sees packets with their ingress neighbor, reads local egress-port
//! utilizations (the hardware counters a Tofino exposes), and emits packets
//! on chosen ports. It deliberately has *no* global view — exactly the
//! constraint the paper's protocol designs around.

use crate::link::LinkState;
use crate::packet::Packet;
use crate::time::Time;
use contra_topology::{NodeId, Topology};

/// Per-switch dataplane logic. The engine owns each installed program
/// as a `Box<dyn SwitchLogic>`, so implementations own their tables.
pub trait SwitchLogic {
    /// Handles a packet arriving from neighbor `from` (a switch or an
    /// attached host). Forwarding decisions are made by calling
    /// [`SwitchCtx::send`].
    fn on_packet(&mut self, ctx: &mut SwitchCtx<'_>, pkt: Packet, from: NodeId);

    /// Periodic timer (probe generation). Called every
    /// [`SwitchLogic::tick_interval`] if one is declared.
    fn on_tick(&mut self, _ctx: &mut SwitchCtx<'_>) {}

    /// Timer period, or `None` for purely reactive logic.
    fn tick_interval(&self) -> Option<Time> {
        None
    }

    /// Modeled register-array collision counts of this switch, as
    /// `(flowlet_table, loop_table)` — entries that displaced a live
    /// foreign entry because the hash window was exhausted (a hardware
    /// artifact the dataplane counts, not an error). The engine sums
    /// these into `SimStats` at the end of a run. Logic without bounded
    /// register state reports zero.
    fn register_collisions(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Cumulative control-plane churn of this switch, as
    /// `(probes_sent, table_updates)`. Sampled on a fixed cadence by the
    /// telemetry recorder to expose probe/table-update rates per switch;
    /// logic without a control plane reports zero.
    fn control_churn(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Whether this logic may ever call [`SwitchCtx::util_to`]. When no
    /// installed logic does (and no telemetry recorder is sampling link
    /// utilization), the engine skips the per-transmission utilization
    /// estimator fold entirely — the estimator is then write-only state
    /// nobody reads, and skipping it changes no observable output.
    ///
    /// Contract: return `true` (the default) unless the logic is certain
    /// never to read utilization; a `false` here with a `util_to` call
    /// would read a stale estimate.
    fn reads_link_util(&self) -> bool {
        true
    }
}

/// The environment a switch sees while handling one event.
pub struct SwitchCtx<'a> {
    /// This switch.
    pub switch: NodeId,
    /// Current simulated time.
    pub now: Time,
    pub(crate) topo: &'a Topology,
    pub(crate) links: &'a [LinkState],
    /// Collected sends, applied by the engine after the handler returns.
    pub(crate) out: Vec<(NodeId, Packet)>,
    /// Loop-break events reported by the logic (§5.5 statistics).
    pub(crate) loop_breaks: u64,
    /// Packets the logic declined to forward (no usable entry) — the id
    /// (not just a count, so the engine can release side-table traces)
    /// plus whether the packet was a probe (probe losses are routine
    /// during failures and excluded from convergence telemetry). Empty
    /// in steady state, so it never allocates there.
    pub(crate) no_route: Vec<(u64, bool)>,
}

impl<'a> SwitchCtx<'a> {
    /// Builds a context around a (possibly recycled) output buffer — the
    /// engine lends its scratch buffer so per-event dispatch does not
    /// allocate.
    pub(crate) fn new(
        switch: NodeId,
        now: Time,
        topo: &'a Topology,
        links: &'a [LinkState],
        out: Vec<(NodeId, Packet)>,
    ) -> SwitchCtx<'a> {
        debug_assert!(out.is_empty());
        SwitchCtx {
            switch,
            now,
            topo,
            links,
            out,
            loop_breaks: 0,
            no_route: Vec::new(),
        }
    }

    /// Builds a context outside the engine, against explicit link state —
    /// for protocol-level test harnesses that step switch logic by hand
    /// (e.g. the convergence/optimality property tests). `links` must be
    /// indexed like `topo.links()`.
    pub fn detached(
        switch: NodeId,
        now: Time,
        topo: &'a Topology,
        links: &'a [LinkState],
    ) -> SwitchCtx<'a> {
        Self::new(switch, now, topo, links, Vec::new())
    }

    /// Drains the packets emitted so far as `(next_hop, packet)` pairs.
    /// Used by detached harnesses; the engine reads the field directly.
    pub fn take_outputs(&mut self) -> Vec<(NodeId, Packet)> {
        std::mem::take(&mut self.out)
    }

    /// Emits `pkt` toward the directly connected `next` (switch or host).
    /// The packet is queued on the egress link after the handler returns.
    pub fn send(&mut self, next: NodeId, pkt: Packet) {
        debug_assert!(
            self.topo.link_between(self.switch, next).is_some(),
            "switch {} has no link to {}",
            self.switch,
            next
        );
        self.out.push((next, pkt));
    }

    /// Declares that no usable route existed for a packet (it is dropped
    /// and counted).
    pub fn drop_no_route(&mut self, pkt: Packet) {
        self.no_route.push((
            pkt.id,
            matches!(pkt.kind, crate::packet::PacketKind::Probe(_)),
        ));
    }

    /// Records a flowlet loop-break event (§5.5).
    pub fn note_loop_break(&mut self) {
        self.loop_breaks += 1;
    }

    /// Estimated utilization of this switch's egress link toward `next`
    /// (the decayed byte counter normalized by capacity — what the paper's
    /// `UPDATEMVEC` reads for `path.util`).
    pub fn util_to(&self, next: NodeId) -> f64 {
        match self.topo.link_between(self.switch, next) {
            Some(l) => self.links[l.0 as usize].utilization(self.now),
            None => 0.0,
        }
    }

    /// One-way propagation delay toward `next`, in seconds (for
    /// `path.lat`).
    pub fn lat_to(&self, next: NodeId) -> f64 {
        match self.topo.link_between(self.switch, next) {
            Some(l) => self.links[l.0 as usize].delay.as_secs_f64(),
            None => 0.0,
        }
    }

    /// Whether the egress link toward `next` is up.
    ///
    /// NOTE: the Contra dataplane must *not* use this for failure
    /// detection — it detects failures by probe silence (§5.4). It exists
    /// for baselines granted idealized reconvergence (ECMP/SP) and for
    /// assertions in tests.
    pub fn link_up(&self, next: NodeId) -> bool {
        self.topo
            .link_between(self.switch, next)
            .map(|l| self.links[l.0 as usize].up)
            .unwrap_or(false)
    }

    /// Whether a node id refers to a switch (e.g. to test if a packet came
    /// from an attached host — Fig 7's `fromHost`).
    pub fn is_switch(&self, n: NodeId) -> bool {
        self.topo.is_switch(n)
    }
}
