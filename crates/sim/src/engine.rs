//! The discrete-event engine: the dispatcher that composes the layers.
//!
//! `engine.rs` owns the clock, the event queue and the wiring; the
//! domain logic lives in the layer modules it composes:
//!
//! * [`crate::sched`] — the event queue (a timing wheel).
//! * [`crate::link`] — serializers and drop-tail queues.
//! * [`crate::transport`] — the TCP/UDP host endpoints.
//! * [`crate::switch`] — pluggable per-switch dataplane logic.
//! * [`crate::observe`] — the one seam everything that watches a run
//!   (statistics, auditor, recorder, path table) hangs off: the engine
//!   emits an [`Obs`] where something happens and measures nothing
//!   itself.
//!
//! Deterministic by construction: the event queue breaks time ties by a
//! class-encoded key (arrivals by directed link, timers in push order,
//! serializer completions last — see [`crate::sched`]), all randomness
//! comes from seeded generators in the workload layer, and switch logic
//! runs strictly one event at a time. The same inputs always produce
//! byte-identical statistics.

use crate::config::{SimConfig, QUEUE_CAPACITY_BYTES};
use crate::fault::FaultError;
use crate::link::{DropReason, LinkState};
use crate::observe::{Obs, Observers};
use crate::packet::{FlowId, Packet, PacketKind, PacketPool, HDR_BYTES};
use crate::sched::TimingWheel;
use crate::stats::SimStats;
use crate::switch::{SwitchCtx, SwitchLogic};
use crate::time::Time;
use crate::transport::{FlowSpec, Transport, TransportEffect, TransportFx, TransportTimer};
use contra_telemetry::TelemetryReport;
use contra_topology::{LinkId, NodeId, Topology};

mod linkops;

/// Everything one run produced; see [`Simulator::run_full`].
#[derive(Debug)]
pub struct RunOutput {
    /// Aggregated run statistics — byte-identical whether or not traces
    /// or telemetry were enabled.
    pub stats: SimStats,
    /// Delivered packet traces (`Some` iff `cfg.trace_paths`).
    pub traces: Option<Vec<(FlowId, Vec<NodeId>)>>,
    /// The telemetry recorder's report (`Some` iff `cfg.telemetry`).
    pub telemetry: Option<TelemetryReport>,
}

#[derive(Debug)]
enum Event {
    /// Packet fully received at `node`, having traversed the link from
    /// `from`. The packet itself sits in the engine's slab
    /// ([`PacketPool`], slot `pkt`) so queue entries stay a few words
    /// wide — the scheduler copies every entry it sorts.
    Arrive {
        node: NodeId,
        from: NodeId,
        pkt: u32,
    },
    /// Link serializer finished a packet.
    TxDone { link: LinkId, epoch: u64 },
    /// Periodic switch timer.
    Tick { node: NodeId },
    /// A TCP flow becomes active.
    FlowStart { flow: u32 },
    /// RTO deadline check.
    RtoCheck { flow: u32, epoch: u64 },
    /// Next UDP datagram.
    UdpSend { flow: u32 },
    /// Take both directions of a cable down, or bring them back up.
    CableFault { a: NodeId, b: NodeId, down: bool },
    /// Fail a node — atomically take down every incident link (both
    /// directions), flushing their queues — or bring them back up.
    NodeFault { node: NodeId, down: bool },
    /// Periodic queue sampling.
    QueueSample,
}

/// The simulator: topology + links + switch logic + transports + clock.
pub struct Simulator {
    /// Shared, immutable during a run. `Arc` so parallel sweeps hand the
    /// same topology to every cell's simulator instead of deep-cloning
    /// node/link tables once per cell.
    topo: std::sync::Arc<Topology>,
    cfg: SimConfig,
    links: Vec<LinkState>,
    logics: Vec<Option<Box<dyn SwitchLogic>>>,
    tick_of: Vec<Option<Time>>,
    /// The host endpoints (TCP/UDP state machines).
    transport: Transport,
    queue: TimingWheel<Event>,
    now: Time,
    /// In-flight packets referenced by `Event::Arrive`.
    pool: PacketPool,
    /// Recycled output buffer lent to [`SwitchCtx`] for each dispatch, so
    /// switch handlers never allocate in steady state.
    out_buf: Vec<(NodeId, Packet)>,
    /// Recycled transport-effects buffer (sends + timers), applied in
    /// append order after each transport handler returns.
    tfx: TransportFx,
    /// Directed link indices whose endpoints are both switches —
    /// precomputed so periodic queue sampling does not rescan (and
    /// re-classify) every link.
    fabric_links: Vec<u32>,
    /// Per-link "both endpoints are switches" flag (TTL accounting).
    fabric_link: Vec<bool>,
    /// Events popped off the queue so far.
    events: u64,
    /// Everything that watches the run, statistics included.
    obs: Observers,
}

impl Simulator {
    /// Creates a simulator over a topology. Accepts an owned [`Topology`]
    /// or an `Arc<Topology>`; sweeps pass the latter so every cell shares
    /// one allocation. The `CONTRA_SIM_AUDIT` and `CONTRA_TELEM` env
    /// vars, when set, override `cfg.audit` and `cfg.telemetry` here
    /// ([`SimConfig::apply_env`]).
    pub fn new(topo: impl Into<std::sync::Arc<Topology>>, mut cfg: SimConfig) -> Simulator {
        let topo = topo.into();
        cfg.apply_env();
        let links = topo
            .links()
            .iter()
            .map(|l| {
                LinkState::new(
                    l.bandwidth_bps,
                    crate::time::Time(l.delay_ns),
                    QUEUE_CAPACITY_BYTES,
                    cfg.util_tau,
                )
            })
            .collect();
        let n = topo.num_nodes();
        let fabric_link: Vec<bool> = topo
            .links()
            .iter()
            .map(|l| topo.is_switch(l.src) && topo.is_switch(l.dst))
            .collect();
        let fabric_links: Vec<u32> = fabric_link
            .iter()
            .enumerate()
            .filter(|&(_, &f)| f)
            .map(|(i, _)| i as u32)
            .collect();
        let transport = Transport::new(cfg.min_rto);
        let obs = Observers::new(&cfg, &topo);
        let mut sim = Simulator {
            topo,
            cfg,
            links,
            logics: (0..n).map(|_| None).collect(),
            tick_of: vec![None; n],
            transport,
            queue: TimingWheel::new(),
            now: Time::ZERO,
            pool: PacketPool::default(),
            out_buf: Vec::new(),
            tfx: TransportFx::new(),
            fabric_links,
            fabric_link,
            events: 0,
            obs,
        };
        if let Some(every) = sim.cfg.queue_sample_every {
            sim.push(every, Event::QueueSample);
        }
        sim
    }

    /// Access to the topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Installs dataplane logic on a switch. Ticks are staggered
    /// deterministically per switch so probe rounds do not synchronize.
    pub fn install(&mut self, node: NodeId, logic: Box<dyn SwitchLogic>) {
        assert!(self.topo.is_switch(node), "{node} is not a switch");
        if let Some(t) = logic.tick_interval() {
            assert!(t.0 > 0, "tick interval must be positive");
            let offset = Time((node.0 as u64).wrapping_mul(7919) % t.0);
            self.tick_of[node.0 as usize] = Some(t);
            self.push(offset, Event::Tick { node });
        }
        self.logics[node.0 as usize] = Some(logic);
    }

    /// Registers a flow; returns its id.
    pub fn add_flow(&mut self, spec: FlowSpec) -> FlowId {
        let (id, start, is_tcp) = self
            .transport
            .add_flow(spec, &self.topo, &mut self.obs.stats);
        let ev = if is_tcp {
            Event::FlowStart { flow: id.0 }
        } else {
            Event::UdpSend { flow: id.0 }
        };
        self.push(start, ev);
        id
    }

    /// The shared validation behind every cable-fault call: the cable
    /// must exist in at least one direction. Fail and recover validate
    /// identically, so a typo'd recovery cannot no-op while its paired
    /// failure sticks.
    fn check_cable(&self, a: NodeId, b: NodeId) -> Result<(), FaultError> {
        if self.topo.link_between(a, b).is_some() || self.topo.link_between(b, a).is_some() {
            Ok(())
        } else {
            Err(FaultError::UnknownCable { a, b })
        }
    }

    fn check_node(&self, node: NodeId) -> Result<(), FaultError> {
        if (node.0 as usize) < self.topo.num_nodes() {
            Ok(())
        } else {
            Err(FaultError::UnknownNode { node })
        }
    }

    /// Schedules both directions of the cable between `a` and `b` to
    /// fail; rejects unknown cables.
    pub fn try_fail_link_at(&mut self, a: NodeId, b: NodeId, at: Time) -> Result<(), FaultError> {
        self.check_cable(a, b)?;
        self.push(at, Event::CableFault { a, b, down: true });
        Ok(())
    }

    /// Schedules both directions of the cable to come back; rejects
    /// unknown cables (same validation as [`Simulator::try_fail_link_at`]).
    pub fn try_recover_link_at(
        &mut self,
        a: NodeId,
        b: NodeId,
        at: Time,
    ) -> Result<(), FaultError> {
        self.check_cable(a, b)?;
        self.push(at, Event::CableFault { a, b, down: false });
        Ok(())
    }

    /// Schedules a node failure: every incident link (both directions)
    /// goes down atomically at `at`, flushing queues.
    pub fn try_fail_node_at(&mut self, node: NodeId, at: Time) -> Result<(), FaultError> {
        self.check_node(node)?;
        self.push(at, Event::NodeFault { node, down: true });
        Ok(())
    }

    /// Schedules a node recovery: every incident link comes back up.
    pub fn try_recover_node_at(&mut self, node: NodeId, at: Time) -> Result<(), FaultError> {
        self.check_node(node)?;
        self.push(at, Event::NodeFault { node, down: false });
        Ok(())
    }

    /// The stop condition lives here, in exactly one place: the queue
    /// pops in `(at, key)` order, so an event past `stop_at` could never
    /// be processed — it is simply never enqueued. An event at exactly
    /// `stop_at` still runs (inclusive boundary, as the old loop check
    /// `at > stop_at → break` implemented it).
    fn push(&mut self, at: Time, ev: Event) {
        if at > self.cfg.stop_at {
            return;
        }
        self.queue.push(at, ev);
    }

    /// Schedules an arrival, keyed by the directed link it traverses:
    /// same-instant arrivals on different links pop in link order — a
    /// property of the schedule itself, regardless of when the events
    /// were pushed. Within one busy period same-link arrivals can never
    /// tie (serialization separates them), but across a down/up flap a
    /// pre-failure in-flight arrival can land at the same instant as a
    /// post-recovery one; the scheduler breaks that tie by push order,
    /// which on one link is serialization order.
    fn push_arrival(&mut self, at: Time, lid: LinkId, ev: Event) {
        if at > self.cfg.stop_at {
            return;
        }
        self.queue.push_at_key(at, lid.0 as u64, ev);
    }

    /// Schedules a serializer completion, sorting after every other
    /// event at its instant: observers at a packet boundary see the
    /// boundary as not yet crossed.
    fn push_completion(&mut self, at: Time, ev: Event) {
        if at > self.cfg.stop_at {
            return;
        }
        self.queue.push_last(at, ev);
    }

    /// The shared event loop behind [`Simulator::run`] and
    /// [`Simulator::run_traced`].
    fn run_loop(&mut self) {
        // Feed the per-link utilization estimators only when something
        // can observe them: an installed logic that reads utilization,
        // or a telemetry recorder sampling links. Otherwise the decay
        // fold on every transmission is dead weight (ECMP/SP/SPAIN).
        let track_util = self.cfg.telemetry.is_some()
            || self
                .logics
                .iter()
                .flatten()
                .any(|logic| logic.reads_link_util());
        for link in &mut self.links {
            link.track_util = track_util;
        }
        while let Some(entry) = self.queue.pop() {
            self.now = entry.at;
            self.events += 1;
            self.dispatch(entry.ev);
            // Lazy telemetry cadence: sample at the first event at or
            // past each boundary. Piggybacking on dispatched events —
            // instead of scheduling sampling events — keeps the event
            // count telemetry-invariant.
            if self.obs.wants_sample(self.now) {
                self.emit_sample();
            }
        }
        // Consistency check and a final sample at the end-of-run
        // instant, then the engine-side totals: the event count,
        // scheduler occupancy and the dataplane's modeled register
        // collisions.
        self.emit_checkpoint(true);
        self.emit_sample();
        let mut collisions = (0, 0);
        for logic in self.logics.iter().flatten() {
            let (flowlet, hloop) = logic.register_collisions();
            collisions.0 += flowlet;
            collisions.1 += hloop;
        }
        let end = Obs::End {
            events: self.events,
            sched: self.queue.counters(),
            collisions,
        };
        self.obs.emit(self.now, end);
    }

    /// Tells the observers that engine state is consistent right now.
    fn emit_checkpoint(&mut self, end_of_run: bool) {
        let checkpoint = Obs::Checkpoint {
            end_of_run,
            links: &self.links,
            pool: &self.pool,
        };
        self.obs.emit(self.now, checkpoint);
    }

    /// One metric sample at the current instant (taken by the telemetry
    /// recorder): what it reads is lent, not copied.
    fn emit_sample(&mut self) {
        let sample = Obs::Sample {
            links: &self.links,
            fabric: &self.fabric_links,
            logics: &self.logics,
            events: self.events,
        };
        self.obs.emit(self.now, sample);
    }

    /// Runs to completion (queue empty, which includes the stop time
    /// being reached — see `Simulator::push`) and returns the
    /// statistics.
    pub fn run(self) -> SimStats {
        self.run_full().stats
    }

    /// Runs and also returns delivered packet traces (requires
    /// `trace_paths`).
    pub fn run_traced(self) -> (SimStats, Vec<(FlowId, Vec<NodeId>)>) {
        assert!(self.cfg.trace_paths, "enable cfg.trace_paths first");
        let out = self.run_full();
        (out.stats, out.traces.expect("trace_paths checked above"))
    }

    /// Runs to completion and returns everything the run produced:
    /// statistics, packet traces (when `cfg.trace_paths`), and the
    /// telemetry report (when `cfg.telemetry`).
    pub fn run_full(mut self) -> RunOutput {
        self.run_loop();
        self.obs.into_output()
    }

    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::Arrive { node, from, pkt } => self.on_arrive(node, from, pkt),
            Event::TxDone { link, epoch } => self.on_tx_done(link, epoch),
            Event::Tick { node } => self.on_tick(node),
            Event::FlowStart { flow } => {
                self.obs.emit(self.now, Obs::FlowStart { flow });
                self.transport.start_flow(flow, self.now, &mut self.tfx);
                self.apply_transport_fx();
                self.emit_cwnd(flow);
            }
            Event::RtoCheck { flow, epoch } => {
                self.transport.on_rto(flow, epoch, self.now, &mut self.tfx);
                self.apply_transport_fx();
                self.emit_cwnd(flow);
            }
            Event::UdpSend { flow } => {
                self.transport.on_udp_send(flow, self.now, &mut self.tfx);
                self.apply_transport_fx();
            }
            Event::CableFault { a, b, down } => {
                let links = [(a, b), (b, a)]
                    .into_iter()
                    .filter_map(|(x, y)| self.topo.link_between(x, y))
                    .collect();
                let what = format!("{}~{}", self.topo.node(a).name, self.topo.node(b).name);
                self.apply_fault(&what, links, down);
            }
            Event::NodeFault { node, down } => {
                let incident = (0..self.links.len() as u32)
                    .map(LinkId)
                    .filter(|&l| {
                        let link = self.topo.link(l);
                        link.src == node || link.dst == node
                    })
                    .collect();
                let what = format!("node {}", self.topo.node(node).name);
                self.apply_fault(&what, incident, down);
            }
            Event::QueueSample => {
                // Fabric links only (switch → switch), precomputed once.
                for &link in &self.fabric_links {
                    let sample = Obs::QueueDepth {
                        link,
                        bytes: self.links[link as usize].queued_bytes(),
                        cap: self.cfg.queue_sample_cap,
                    };
                    self.obs.emit(self.now, sample);
                }
                if let Some(every) = self.cfg.queue_sample_every {
                    let at = self.now + every;
                    self.push(at, Event::QueueSample);
                }
            }
        }
    }

    // ---- fault events ---------------------------------------------------

    /// A fault event fires on `links` (a cable's two directions, or a
    /// node's incident links in link-index order, for determinism):
    /// each directed link transitions if, and only if, it is not
    /// already in the target state. Overlapping flap schedules make
    /// double-fails routine; re-failing a down link must not
    /// double-flush (the first flush already accounted every packet,
    /// and `set_down` would bump the epoch under the feet of the
    /// legitimate recovery), and recovering an up link is a no-op. When
    /// any link actually changes state a fault epoch opens *first* — so
    /// the flush's `LinkDown` drops attribute to this fault, not a
    /// previous one — and the observers get a consistency checkpoint
    /// afterwards.
    fn apply_fault(&mut self, what: &str, mut links: Vec<LinkId>, down: bool) {
        links.retain(|l| self.links[l.0 as usize].up == down);
        if links.is_empty() {
            return;
        }
        let label = format!("{} {what}", if down { "down" } else { "up" });
        self.obs.emit(
            self.now,
            Obs::FaultEpoch {
                label: &label,
                down,
            },
        );
        for l in links {
            if down {
                self.take_link_down(l);
            } else {
                self.links[l.0 as usize].set_up();
                self.obs.emit(self.now, Obs::LinkUp { link: l.0 });
            }
        }
        self.emit_checkpoint(false);
    }

    /// Applies buffered transport effects strictly in append order —
    /// sends become link transmissions, timers become events. Order is
    /// load-bearing: it fixes the event-queue sequence numbers that break
    /// same-instant ties.
    fn apply_transport_fx(&mut self) {
        let mut fx = std::mem::take(&mut self.tfx);
        for effect in fx.drain(..) {
            match effect {
                TransportEffect::Send { src, via, pkt } => self.transmit(src, via, pkt),
                TransportEffect::Timer { at, timer } => {
                    let ev = match timer {
                        TransportTimer::Rto { flow, epoch } => Event::RtoCheck { flow, epoch },
                        TransportTimer::UdpSend { flow } => Event::UdpSend { flow },
                    };
                    self.push(at, ev);
                }
            }
        }
        self.tfx = fx;
    }

    // ---- switch dispatch ----------------------------------------------

    fn on_arrive(&mut self, node: NodeId, from: NodeId, slot: u32) {
        let pkt = self.pool.take(slot);
        self.obs.emit(self.now, Obs::Taken);
        if !self.topo.is_switch(node) {
            return self.host_receive(node, pkt);
        }
        let who = (pkt.id, pkt.is_probe());
        // Path and loop accounting covers routed traffic: payload, ACKs.
        if !pkt.is_probe() {
            self.obs.emit(self.now, Obs::Visit { pkt: pkt.id, node });
        }
        if !self.run_logic(node, |logic, ctx| logic.on_packet(ctx, pkt, from)) {
            // No logic installed (test harness omission): drop.
            self.emit_drop(DropReason::NoRoute, who, None, false);
        }
    }

    fn on_tick(&mut self, node: NodeId) {
        if !self.run_logic(node, |logic, ctx| logic.on_tick(ctx)) {
            return;
        }
        if let Some(t) = self.tick_of[node.0 as usize] {
            let at = self.now + t;
            self.push(at, Event::Tick { node });
        }
    }

    /// Runs one handler of the logic installed on `node` (`false` when
    /// there is none) and applies what it produced: loop-break counts,
    /// no-route drops, and the emitted packets, transmitted in emission
    /// order. The output buffer is lent to the handler and recycled.
    fn run_logic(
        &mut self,
        node: NodeId,
        handler: impl FnOnce(&mut dyn SwitchLogic, &mut SwitchCtx<'_>),
    ) -> bool {
        let Some(logic) = self.logics[node.0 as usize].as_deref_mut() else {
            return false;
        };
        let out_buf = std::mem::take(&mut self.out_buf);
        let mut ctx = SwitchCtx::new(node, self.now, &self.topo, &self.links, out_buf);
        handler(logic, &mut ctx);
        let SwitchCtx {
            mut out,
            loop_breaks,
            no_route,
            ..
        } = ctx;
        self.obs.emit(self.now, Obs::LoopBreaks(loop_breaks));
        for who in no_route {
            self.emit_drop(DropReason::NoRoute, who, None, false);
        }
        for (next, p) in out.drain(..) {
            self.transmit(node, next, p);
        }
        self.out_buf = out;
        true
    }

    /// Packet `pkt` dies: on a link leg (between being offered to `link`
    /// and being taken off it) or, with no link, inside a switch that
    /// had no route for it.
    pub(super) fn emit_drop(
        &mut self,
        reason: DropReason,
        (pkt, is_probe): (u64, bool),
        link: Option<LinkId>,
        on_link_leg: bool,
    ) {
        let drop = Obs::Drop {
            reason,
            is_probe,
            link: link.map(|l| l.0),
            pkt,
            on_link_leg,
        };
        self.obs.emit(self.now, drop);
    }

    // ---- host delivery --------------------------------------------------

    fn host_receive(&mut self, host: NodeId, pkt: Packet) {
        let deliver = |udp_payload| Obs::Deliver {
            flow: pkt.flow,
            seq: pkt.seq,
            pkt: pkt.id,
            udp_payload,
        };
        match pkt.kind {
            PacketKind::Data => {
                debug_assert_eq!(pkt.dst_host, host);
                self.obs.emit(self.now, deliver(None));
                self.transport.on_data(&pkt, self.now, &mut self.tfx);
                self.apply_transport_fx();
            }
            PacketKind::Ack { ack_seq, echo_ts } => {
                let flow = pkt.flow.0;
                self.obs.emit(self.now, Obs::AckConsumed { pkt: pkt.id });
                self.transport.on_ack(
                    flow,
                    ack_seq,
                    echo_ts,
                    self.now,
                    &mut self.tfx,
                    &mut self.obs.stats,
                );
                self.apply_transport_fx();
                self.emit_cwnd(flow);
            }
            PacketKind::Udp => {
                debug_assert_eq!(pkt.dst_host, host);
                let payload = pkt.size_bytes.saturating_sub(HDR_BYTES);
                self.obs.emit(self.now, deliver(Some(payload)));
            }
            PacketKind::Probe(_) => {
                debug_assert!(false, "probes must never reach hosts");
            }
        }
    }

    /// Reports `flow`'s congestion window after a transport action.
    fn emit_cwnd(&mut self, flow: u32) {
        if let Some(cwnd) = self.transport.cwnd_of(flow) {
            self.obs.emit(self.now, Obs::Cwnd { flow, cwnd });
        }
    }
}
