//! The switch programming surface: what a routing system implements to run
//! inside the simulator.
//!
//! A [`SwitchLogic`] is the software analogue of one switch's P4 program:
//! it sees packets with their ingress neighbor, reads local egress-port
//! utilizations (the hardware counters a Tofino exposes), and picks a
//! port. It deliberately has *no* global view — exactly the constraint
//! the paper's protocol designs around.
//!
//! Like `SWIFORWARDPKT` (Fig 7), a handler never copies a packet to
//! forward it: the engine lends the packet where it sits, the handler
//! rewrites header fields in place and returns a [`Verdict`]. Only
//! packets a switch *originates* (probes) are built and handed over, by
//! [`SwitchCtx::send`].

use crate::link::LinkState;
use crate::packet::Packet;
use crate::time::Time;
use contra_topology::{NodeId, Topology};

/// What a switch decided for the packet it was lent. Returned, not
/// enacted through the context, so the packet never leaves its slot and
/// the engine holds every system's forwarding decision at one site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "the engine enacts the verdict; dropping it strands the packet"]
pub enum Verdict {
    /// Transmit the packet, as the handler left it, to this directly
    /// connected neighbor (switch or host).
    Forward(NodeId),
    /// The packet ends here, absorbed by the switch (a probe).
    Consume,
    /// No usable route existed: the packet is dropped and counted.
    NoRoute,
}

/// Per-switch dataplane logic. The engine owns each installed program
/// as a `Box<dyn SwitchLogic>`, so implementations own their tables.
pub trait SwitchLogic {
    /// Handles a packet arriving from neighbor `from` (a switch or an
    /// attached host): rewrites its header in place (`tag`, `pid`) and
    /// says what becomes of it. Packets originated along the way go out
    /// through [`SwitchCtx::send`], after the lent one.
    fn on_packet(&mut self, ctx: &mut SwitchCtx<'_>, pkt: &mut Packet, from: NodeId) -> Verdict;

    /// Periodic timer (probe generation). Called every
    /// [`SwitchLogic::tick_interval`] if one is declared.
    fn on_tick(&mut self, _ctx: &mut SwitchCtx<'_>) {}

    /// Timer period, or `None` for purely reactive logic.
    fn tick_interval(&self) -> Option<Time> {
        None
    }

    /// What this switch has counted since install: the one way its
    /// counts leave it, read off it as registers are read off a switch.
    /// The engine sums every switch's into [`SimStats::switches`] at the
    /// end of a run, and the telemetry recorder samples it on its
    /// cadence. Logic that counts nothing reports zeros.
    ///
    /// [`SimStats::switches`]: crate::SimStats::switches
    fn counters(&self) -> SwitchCounters {
        SwitchCounters::default()
    }
}

/// A switch program's cumulative counts (see [`SwitchLogic::counters`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchCounters {
    /// Probes originated and forwarded.
    pub probes_sent: u64,
    /// Forwarding-table writes (accepted probe updates): control-plane
    /// churn.
    pub table_updates: u64,
    /// Flowlet-register writes over another flowlet's pin that was still
    /// live: modelled register pressure, not an error.
    pub flowlets_displaced: u64,
    /// Loop-register observations over another hash's row that had not
    /// yet aged out.
    pub loops_displaced: u64,
    /// Flowlet flushes on TTL drift (§5.5).
    pub loop_breaks: u64,
}

impl std::ops::AddAssign for SwitchCounters {
    fn add_assign(&mut self, c: SwitchCounters) {
        self.probes_sent += c.probes_sent;
        self.table_updates += c.table_updates;
        self.flowlets_displaced += c.flowlets_displaced;
        self.loops_displaced += c.loops_displaced;
        self.loop_breaks += c.loop_breaks;
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
    /// Originated packets, transmitted by the engine after the handler
    /// returns.
    pub(crate) out: Vec<(NodeId, Packet)>,
}

impl<'a> SwitchCtx<'a> {
    /// Builds a context around the empty output buffer `out`, which
    /// [`SwitchCtx::take_outputs`] hands back: the engine lends its scratch
    /// buffer so per-event dispatch does not allocate, and a protocol-level
    /// harness that steps switch logic by hand, against explicit link
    /// state, lends its own. `links` must be indexed like `topo.links()`.
    pub fn new(
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
        }
    }

    /// Hands back the output buffer, holding the packets emitted so far
    /// as `(next_hop, packet)` pairs. Used by harnesses; the engine reads
    /// the field directly.
    pub fn take_outputs(&mut self) -> Vec<(NodeId, Packet)> {
        std::mem::take(&mut self.out)
    }

    /// Originates `pkt` toward the directly connected `next` (switch or
    /// host). It is queued on the egress link after the handler returns.
    /// A packet being forwarded is not sent: see [`Verdict::Forward`].
    pub fn send(&mut self, next: NodeId, pkt: Packet) {
        debug_assert!(
            self.topo.link_between(self.switch, next).is_some(),
            "switch {} has no link to {}",
            self.switch,
            next
        );
        self.out.push((next, pkt));
    }

    /// The estimated utilization of this switch's egress link toward
    /// `next` (the decayed byte counter normalized by capacity, for
    /// `path.util`) and its one-way propagation delay in seconds (for
    /// `path.lat`), from one link lookup: the two fields `UPDATEMVEC`
    /// folds into a probe. `(0.0, 0.0)` where there is no such link.
    pub fn util_lat_to(&self, next: NodeId) -> (f64, f64) {
        match self.topo.link_between(self.switch, next) {
            Some(l) => {
                let link = &self.links[l.0 as usize];
                (link.utilization(self.now), link.delay.as_secs_f64())
            }
            None => (0.0, 0.0),
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
}
