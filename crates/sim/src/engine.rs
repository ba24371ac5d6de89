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
//! class-encoded key (arrivals by directed link, then timers in push
//! order — see [`crate::sched`]), all randomness comes from seeded
//! generators in the workload layer, and switch logic runs strictly one
//! event at a time. The same inputs always produce byte-identical
//! statistics.
//!
//! ## Links without completion events
//!
//! A serializer finishing a packet is no event: the link computes every
//! arrival when it accepts the packet ([`crate::link`]). A packet that
//! finds nothing of the link's outstanding is scheduled as an ordinary
//! `Arrive`; any other joins the link's train, of which only the head is
//! a scheduled event (`TrainHead`) — popping it schedules the next. Link
//! state is settled lazily, at the next touch of the link, and before
//! anything reads all links at once (a checkpoint, a telemetry sample,
//! the end of the run).
//!
//! **Ordering across a flap.** Within one up period a link's arrivals
//! strictly increase in serialization order, so the train can feed them
//! one at a time. A failure ends that: a 1,500 B packet on the wire can be
//! overtaken by a 64 B probe sent after recovery, or tie with it. So the
//! failure settles the link, flushes what had not started, and detaches
//! what is on the wire into ordinary arrivals, pushed then and there in
//! serialization order. Everything accepted after recovery is pushed
//! later, and same-instant arrivals on one link pop in push order — which
//! is, as before, serialization order. The epoch bump makes the train
//! head scheduled before the failure stale.

use crate::config::{SimConfig, QUEUE_CAPACITY_BYTES};
use crate::fault::FaultError;
use crate::link::{DropReason, LinkState};
use crate::observe::{Obs, Observers};
use crate::packet::{FlowId, Packet, PacketKind, PacketPool, HDR_BYTES};
use crate::sched::TimingWheel;
use crate::stats::SimStats;
use crate::switch::{SwitchCounters, SwitchCtx, SwitchLogic, Verdict};
use crate::time::Time;
use crate::transport::{FlowSpec, Transport, TransportEffect, TransportFx, TransportTimer};
use contra_telemetry::TelemetryReport;
use contra_topology::{LinkId, NodeId, Topology};

mod linkops;

/// Everything one run produced; see [`Simulator::run`].
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
    /// `from`. The packet itself stays in its [`PacketPool`] slot `pkt`,
    /// so queue entries stay a few words wide — the scheduler copies
    /// every entry it sorts.
    Arrive {
        node: NodeId,
        from: NodeId,
        pkt: u32,
    },
    /// The head of `link`'s train arrives; stale unless `epoch` is still
    /// the link's.
    TrainHead { link: LinkId, epoch: u64 },
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
    /// Every packet in the network, from mint to its end: link queues
    /// and `Event::Arrive` name a packet by its slot here.
    pool: PacketPool,
    /// Recycled buffer for the packets a handler originates, lent to
    /// [`SwitchCtx`] for each dispatch, so switch handlers never
    /// allocate in steady state.
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
    /// one allocation.
    pub fn new(topo: impl Into<std::sync::Arc<Topology>>, cfg: SimConfig) -> Simulator {
        let topo = topo.into();
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

    /// The event loop behind [`Simulator::run`].
    fn run_loop(&mut self) {
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
        // The last settle is inclusive of `stop_at`, as the last
        // completions were. Whatever a train still holds arrives past
        // `stop_at` (its head was never scheduled); the part of it that
        // has been handed over is on the wire for good.
        self.settle_links(Time(self.cfg.stop_at.0.saturating_add(1)));
        for link in &self.links {
            debug_assert!(link.audit_train().all(|(at, _)| at > self.cfg.stop_at));
            for _ in 0..link.train_on_wire() {
                self.obs.emit(self.now, Obs::StopCut);
            }
        }
        // Consistency check and a final sample at the end-of-run
        // instant, then the totals: the event count, scheduler occupancy
        // and what the switches counted.
        self.emit_checkpoint(true);
        self.emit_sample();
        let mut switches = SwitchCounters::default();
        for logic in self.logics.iter().flatten() {
            switches += logic.counters();
        }
        let end = Obs::End {
            events: self.events,
            sched: self.queue.counters(),
            switches,
        };
        self.obs.emit(self.now, end);
    }

    /// Settles every link, for a reader of all of them: performs the
    /// hand-overs strictly before `before`.
    fn settle_links(&mut self, before: Time) {
        for link in &mut self.links {
            link.settle(before);
        }
    }

    /// Tells the observers that engine state is consistent right now.
    fn emit_checkpoint(&mut self, end_of_run: bool) {
        self.settle_links(self.now);
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
        self.settle_links(self.now);
        let sample = Obs::Sample {
            links: &self.links,
            fabric: &self.fabric_links,
            logics: &self.logics,
            events: self.events,
        };
        self.obs.emit(self.now, sample);
    }

    /// Runs to completion (queue empty, which includes the stop time
    /// being reached — see `Simulator::push`) and returns everything the
    /// run produced: statistics, packet traces (when `cfg.trace_paths`),
    /// and the telemetry report (when `cfg.telemetry`).
    pub fn run(mut self) -> RunOutput {
        self.run_loop();
        self.obs.into_output()
    }

    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::Arrive { node, from, pkt } => self.on_arrive(node, from, pkt),
            Event::TrainHead { link, epoch } => self.on_train_head(link, epoch),
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
            Event::CableFault { a, b, down } => self.apply_fault(a, b, down),
            Event::QueueSample => {
                // Fabric links only (switch → switch), precomputed once.
                for &link in &self.fabric_links {
                    let state = &mut self.links[link as usize];
                    state.settle(self.now);
                    let sample = Obs::QueueDepth {
                        link,
                        bytes: state.queued_bytes(),
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

    /// A fault event fires on the cable between `a` and `b`: each of its
    /// directed links transitions if, and only if, it is not already in
    /// the target state. Overlapping flap schedules make double-fails
    /// routine; re-failing a down link must not double-flush (the first
    /// flush already accounted every packet, and `set_down` would bump
    /// the epoch under the feet of the legitimate recovery), and
    /// recovering an up link is a no-op. When any link actually changes
    /// state a fault epoch opens *first* — so the flush's `LinkDown`
    /// drops attribute to this fault, not a previous one — and the
    /// observers get a consistency checkpoint afterwards.
    ///
    /// Out of line: a fault is rare, and inlined into the event loop at
    /// its one call site this body slowed the loop 4 % on the ledger's
    /// `dc_tcp` (2-core host, 10 alternating pairs).
    #[inline(never)]
    fn apply_fault(&mut self, a: NodeId, b: NodeId, down: bool) {
        let mut links: Vec<LinkId> = [(a, b), (b, a)]
            .into_iter()
            .filter_map(|(x, y)| self.topo.link_between(x, y))
            .collect();
        links.retain(|l| self.links[l.0 as usize].up == down);
        if links.is_empty() {
            return;
        }
        let dir = if down { "down" } else { "up" };
        let (a, b) = (&self.topo.node(a).name, &self.topo.node(b).name);
        let label = format!("{dir} {a}~{b}");
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
                TransportEffect::Send { src, via, pkt } => {
                    let slot = self.pool.insert(pkt);
                    self.transmit(src, via, slot);
                }
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

    /// An arrival is realized. At a switch the packet is lent to the
    /// installed logic where it sits and the returned [`Verdict`] is
    /// enacted on its slot — the lent packet first, then whatever the
    /// handler originated, in emission order.
    fn on_arrive(&mut self, node: NodeId, from: NodeId, slot: u32) {
        self.obs.emit(self.now, Obs::Taken);
        if !self.topo.is_switch(node) {
            return self.host_receive(node, slot);
        }
        let pkt = self.pool.get_mut(slot);
        // Path and loop accounting covers routed traffic: payload, ACKs.
        if !pkt.is_probe() {
            self.obs.emit(self.now, Obs::Visit { pkt: pkt.id, node });
        }
        let Some(logic) = self.logics[node.0 as usize].as_deref_mut() else {
            // No logic installed (test harness omission): drop.
            return self.drop_slot(slot, DropReason::NoRoute, None, false);
        };
        let out_buf = std::mem::take(&mut self.out_buf);
        let mut ctx = SwitchCtx::new(node, self.now, &self.topo, &self.links, out_buf);
        let verdict = logic.on_packet(&mut ctx, pkt, from);
        let out = ctx.out;
        match verdict {
            Verdict::Forward(next) => self.transmit(node, next, slot),
            Verdict::Consume => self.pool.free(slot),
            Verdict::NoRoute => self.drop_slot(slot, DropReason::NoRoute, None, false),
        }
        self.send_originated(node, out);
    }

    fn on_tick(&mut self, node: NodeId) {
        let Some(logic) = self.logics[node.0 as usize].as_deref_mut() else {
            return;
        };
        let out_buf = std::mem::take(&mut self.out_buf);
        let mut ctx = SwitchCtx::new(node, self.now, &self.topo, &self.links, out_buf);
        logic.on_tick(&mut ctx);
        let out = ctx.out;
        self.send_originated(node, out);
        if let Some(t) = self.tick_of[node.0 as usize] {
            let at = self.now + t;
            self.push(at, Event::Tick { node });
        }
    }

    /// Mints the packets a handler at `node` originated and transmits
    /// them in emission order; the buffer they came in is recycled.
    fn send_originated(&mut self, node: NodeId, mut out: Vec<(NodeId, Packet)>) {
        for (next, pkt) in out.drain(..) {
            let slot = self.pool.insert(pkt);
            self.transmit(node, next, slot);
        }
        self.out_buf = out;
    }

    /// The packet in `slot` dies, and the slot with it: on a link leg
    /// (between being offered to `link` and being taken off it) or,
    /// with no link, inside a switch that had no route for it.
    pub(super) fn drop_slot(
        &mut self,
        slot: u32,
        reason: DropReason,
        link: Option<LinkId>,
        on_link_leg: bool,
    ) {
        let pkt = self.pool.get(slot);
        let drop = Obs::Drop {
            reason,
            is_probe: pkt.is_probe(),
            link: link.map(|l| l.0),
            pkt: pkt.id,
            on_link_leg,
        };
        self.pool.free(slot);
        self.obs.emit(self.now, drop);
    }

    // ---- host delivery --------------------------------------------------

    /// The packet in `slot` reached `host`: it is read where it sits and
    /// its slot freed before the transport's answer goes out.
    fn host_receive(&mut self, host: NodeId, slot: u32) {
        let pkt = self.pool.get(slot);
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
                self.transport.on_data(pkt, self.now, &mut self.tfx);
                self.pool.free(slot);
                self.apply_transport_fx();
            }
            PacketKind::Ack { ack_seq, echo_ts } => {
                let flow = pkt.flow.0;
                self.obs.emit(self.now, Obs::AckConsumed { pkt: pkt.id });
                self.pool.free(slot);
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
                self.pool.free(slot);
            }
            PacketKind::Probe(_) => {
                debug_assert!(false, "probes must never reach hosts");
                self.pool.free(slot);
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

/// The size guard of the per-event types, then the slot lifecycle, one
/// test per exit: a packet's pool slot is freed exactly where the packet
/// ends. Every run is audited, none is cut by `stop_at`, so no slot may
/// outlive it.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Probe, INITIAL_TTL, PROBE_BASE_BYTES};
    use crate::sched::SchedEntry;
    use crate::stats::TrafficKind;

    /// Growth of a per-event type is a failing test, not a silent
    /// slowdown: the scheduler copies every entry it sorts.
    #[test]
    fn per_event_types_stay_small() {
        assert!(std::mem::size_of::<Event>() <= 16);
        assert!(std::mem::size_of::<SchedEntry<Event>>() <= 32);
    }

    /// A switch doing what it was told: traffic for an attached host is
    /// delivered (unless `deliver` is off), the rest goes `toward` its
    /// next hop (or has no route), probes are absorbed, and the first
    /// `probes` ticks originate one probe toward `toward`.
    struct Scripted {
        toward: Option<NodeId>,
        deliver: bool,
        probes: u32,
    }

    impl SwitchLogic for Scripted {
        fn on_packet(&mut self, ctx: &mut SwitchCtx<'_>, pkt: &mut Packet, _: NodeId) -> Verdict {
            if pkt.is_probe() {
                Verdict::Consume
            } else if self.deliver && pkt.dst_switch == ctx.switch {
                Verdict::Forward(pkt.dst_host)
            } else {
                self.toward.map_or(Verdict::NoRoute, Verdict::Forward)
            }
        }

        fn on_tick(&mut self, ctx: &mut SwitchCtx<'_>) {
            let Some(to) = self.toward.filter(|_| self.probes > 0) else {
                return;
            };
            self.probes -= 1;
            let probe = Probe {
                origin: ctx.switch,
                pid: 0,
                version: 1,
                tag: 0,
                mv: [0.0; 3],
            };
            ctx.send(
                to,
                Packet::probe(ctx.switch, to, probe, PROBE_BASE_BYTES, ctx.now),
            );
        }

        fn tick_interval(&self) -> Option<Time> {
            Some(Time::us(10))
        }
    }

    /// h0 – s0 – s1 – h1 with 10 Gbps access links, an audited simulator
    /// over it that stops at 30 ms, and a 1 ms UDP stream h0 → h1.
    fn line(fabric_bps: f64, udp_bps: f64) -> (Simulator, NodeId, NodeId) {
        let mut t = Topology::builder();
        let (s0, s1) = (t.switch("s0"), t.switch("s1"));
        let (h0, h1) = (t.host("h0"), t.host("h1"));
        t.biline(s0, s1, fabric_bps, 1_000);
        t.biline(h0, s0, 10e9, 500);
        t.biline(h1, s1, 10e9, 500);
        let cfg = SimConfig {
            stop_at: Time::ms(30),
            audit: true,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(t.build(), cfg);
        sim.add_flow(FlowSpec::Udp {
            src: h0,
            dst: h1,
            rate_bps: udp_bps,
            start: Time::ZERO,
            stop: Time::ms(1),
        });
        (sim, s0, s1)
    }

    fn routed(toward: NodeId) -> Box<Scripted> {
        Box::new(Scripted {
            toward: Some(toward),
            deliver: true,
            probes: 0,
        })
    }

    /// Runs to the end and returns the statistics with the number of
    /// slots still live.
    fn run(mut sim: Simulator) -> (SimStats, u64) {
        sim.run_loop();
        let live = sim.pool.live();
        (sim.obs.into_output().stats, live)
    }

    fn drops(stats: &SimStats, reason: DropReason) -> u64 {
        stats.drops.get(&reason).copied().unwrap_or(0)
    }

    #[test]
    fn delivery_frees_the_slot() {
        let (mut sim, s0, s1) = line(10e9, 1e9);
        sim.install(s0, routed(s1));
        sim.install(s1, routed(s0));
        let (stats, live) = run(sim);
        assert!(stats.delivered_packets > 80, "{}", stats.delivered_packets);
        assert!(stats.drops.is_empty(), "{:?}", stats.drops);
        assert_eq!(live, 0);
    }

    #[test]
    fn an_absorbed_probe_frees_the_slot() {
        let (mut sim, s0, s1) = line(10e9, 1e9);
        let prober = Scripted {
            toward: Some(s1),
            deliver: true,
            probes: 5,
        };
        sim.install(s0, Box::new(prober));
        sim.install(s1, routed(s0));
        let (stats, live) = run(sim);
        let probe_bytes = stats.wire_bytes.get(TrafficKind::Probe);
        assert_eq!(probe_bytes, 5 * PROBE_BASE_BYTES as u64);
        assert!(stats.drops.is_empty(), "{:?}", stats.drops);
        assert_eq!(live, 0);
    }

    #[test]
    fn no_route_frees_the_slot() {
        let (mut sim, s0, s1) = line(10e9, 1e9);
        let lost = Scripted {
            toward: None,
            deliver: true,
            probes: 0,
        };
        sim.install(s0, Box::new(lost));
        sim.install(s1, routed(s0));
        let (stats, live) = run(sim);
        assert!(drops(&stats, DropReason::NoRoute) > 80);
        assert_eq!((stats.delivered_packets, live), (0, 0));
    }

    #[test]
    fn a_switch_without_logic_frees_the_slot() {
        let (mut sim, s0, s1) = line(10e9, 1e9);
        sim.install(s0, routed(s1));
        let (stats, live) = run(sim);
        assert!(drops(&stats, DropReason::NoRoute) > 80);
        assert_eq!((stats.delivered_packets, live), (0, 0));
    }

    /// Two switches that hand every datagram back to each other: each
    /// dies of TTL after `INITIAL_TTL` fabric hops.
    #[test]
    fn ttl_expiry_frees_the_slot() {
        let (mut sim, s0, s1) = line(10e9, 0.1e9);
        for (sw, peer) in [(s0, s1), (s1, s0)] {
            let bounce = Scripted {
                toward: Some(peer),
                deliver: false,
                probes: 0,
            };
            sim.install(sw, Box::new(bounce));
        }
        let (stats, live) = run(sim);
        let expired = drops(&stats, DropReason::TtlExpired);
        assert!(expired > 5, "{expired}");
        let fabric_hops = stats.wire_bytes.get(TrafficKind::Udp) / 1_500 - expired;
        assert_eq!(fabric_hops, expired * INITIAL_TTL as u64);
        assert_eq!((stats.delivered_packets, live), (0, 0));
    }

    /// 2 Gbps offered to a 1 Gbps cable that queues ten datagrams.
    #[test]
    fn a_full_queue_frees_the_slot() {
        let (mut sim, s0, s1) = line(1e9, 2e9);
        sim.install(s0, routed(s1));
        sim.install(s1, routed(s0));
        let cable = sim.topo.link_between(s0, s1).unwrap();
        sim.links[cable.0 as usize].qcap_bytes = 15_000;
        let (stats, live) = run(sim);
        assert!(drops(&stats, DropReason::QueueFull) > 50);
        assert!(stats.delivered_packets > 80);
        assert_eq!(live, 0);
    }

    #[test]
    fn a_down_link_frees_the_slot_at_enqueue() {
        let (mut sim, s0, s1) = line(10e9, 1e9);
        sim.install(s0, routed(s1));
        sim.install(s1, routed(s0));
        sim.try_fail_link_at(s0, s1, Time::ZERO).unwrap();
        let (stats, live) = run(sim);
        assert!(drops(&stats, DropReason::LinkDown) > 80);
        assert_eq!((stats.delivered_packets, live), (0, 0));
    }

    /// The cable fails with datagrams queued behind the one on the
    /// wire: the flush frees the queued slots, the one in flight still
    /// arrives and is freed by its delivery. 167 datagrams reach s0 6 µs
    /// apart until 1 ms and the cable takes one every 12 µs from
    /// 1.7 µs, so at 1.1 ms it has started 92 of them.
    #[test]
    fn a_failure_flush_frees_queued_slots_and_spares_the_wire() {
        let (mut sim, s0, s1) = line(1e9, 2e9);
        sim.install(s0, routed(s1));
        sim.install(s1, routed(s0));
        sim.try_fail_link_at(s0, s1, Time::us(1_100)).unwrap();
        let (stats, live) = run(sim);
        assert_eq!(drops(&stats, DropReason::LinkDown), 167 - 92);
        assert_eq!((stats.delivered_packets, live), (92, 0));
    }

    /// The work counter of the saturated cell above, without the fault:
    /// 167 datagram sends and the one that finds the stream over; a tick
    /// every 10 µs of the 30 ms at s0 (3,001) and at s1, whose first is
    /// 7.919 µs in (3,000); and one arrival per hop — 167 at s0, then the
    /// 93 the ten-deep queue let through at s1 and at h1. Not one event
    /// per serialized packet besides: an event class that comes back
    /// fails here, not in a profile.
    #[test]
    fn events_are_sends_ticks_and_arrivals() {
        let (mut sim, s0, s1) = line(1e9, 2e9);
        sim.install(s0, routed(s1));
        sim.install(s1, routed(s0));
        let cable = sim.topo.link_between(s0, s1).unwrap();
        sim.links[cable.0 as usize].qcap_bytes = 15_000;
        let (stats, _) = run(sim);
        assert_eq!(stats.delivered_packets, 93);
        assert_eq!(stats.events_processed, 168 + 3_001 + 3_000 + 167 + 2 * 93);
    }

    /// s0 –1 Gbps, 1 µs– s1 and nothing else: no hosts, no logic (an
    /// arrival ends as a `NoRoute` drop, freeing its slot), audited. The
    /// tests below offer packets to the cable by hand and dispatch the
    /// events themselves, logging them.
    fn bare_cable() -> (Simulator, LinkId) {
        let mut t = Topology::builder();
        let (s0, s1) = (t.switch("s0"), t.switch("s1"));
        t.biline(s0, s1, 1e9, 1_000);
        let cfg = SimConfig {
            stop_at: Time::ms(1),
            audit: true,
            ..SimConfig::default()
        };
        let sim = Simulator::new(t.build(), cfg);
        let cable = sim.topo.link_between(s0, s1).unwrap();
        (sim, cable)
    }

    /// Offers a datagram of `size` bytes to `cable` at `at`; its slot.
    fn offer(sim: &mut Simulator, cable: LinkId, at: Time, size: u32) -> u32 {
        let l = sim.topo.link(cable);
        let (from, to) = (l.src, l.dst);
        let pkt = Packet {
            id: 0,
            kind: PacketKind::Udp,
            src_host: from,
            dst_host: to,
            dst_switch: to,
            flow: FlowId(0),
            seq: 0,
            size_bytes: size,
            sent_at: at,
            tag: 0,
            pid: 0,
            ttl: INITIAL_TTL,
            flow_hash: 0,
        };
        sim.now = at;
        let slot = sim.pool.insert(pkt);
        sim.transmit(from, to, slot);
        slot
    }

    /// Takes `cable` down and up again at `at`, as a fault event would.
    fn flap(sim: &mut Simulator, cable: LinkId, at: Time) {
        let l = sim.topo.link(cable);
        let (a, b) = (l.src, l.dst);
        sim.now = at;
        sim.apply_fault(a, b, true);
        sim.apply_fault(a, b, false);
    }

    /// Pops and dispatches everything pending, then ends the run (the
    /// audited end-of-run checkpoint). Returns what popped, in order:
    /// the instant in ns, and the slot that arrived — `None` for a stale
    /// train head, which brings none.
    fn drain(mut sim: Simulator) -> (Vec<(u64, Option<u32>)>, SimStats, u64) {
        let mut log = Vec::new();
        while let Some(entry) = sim.queue.pop() {
            sim.now = entry.at;
            log.push(match entry.ev {
                Event::Arrive { pkt, .. } => (entry.at.0, Some(pkt)),
                Event::TrainHead { link, epoch } => {
                    let link = &sim.links[link.0 as usize];
                    let head = link.audit_train().next().filter(|_| link.epoch == epoch);
                    (entry.at.0, head.map(|(_, slot)| slot))
                }
                ref other => panic!("{other:?} on a bare cable"),
            });
            sim.dispatch(entry.ev);
        }
        let (stats, live) = run(sim);
        (log, stats, live)
    }

    /// Three 1,500 B datagrams offered at once take the cable 12 µs each:
    /// `a` alone on the wire until 12 µs, `b` and `c` on the train. The
    /// flap at 14 µs finds `b` in service (arriving at 25 µs) and `c`
    /// not started: `c` is flushed, never arrives, and its slot is freed
    /// by the flush alone. A 64 B probe sent at 20 µs on the recovered
    /// cable takes 512 ns and arrives at 21.512 µs: it overtakes `b`, so
    /// `b` cannot have stayed on a train, and the head scheduled for it
    /// at 25 µs pops stale and moves nothing.
    #[test]
    fn a_probe_sent_after_a_flap_overtakes_the_packet_in_service() {
        let (mut sim, cable) = bare_cable();
        let [a, b, c] = [0; 3].map(|_| offer(&mut sim, cable, Time::ZERO, 1_500));
        flap(&mut sim, cable, Time::us(14));
        assert!(!sim.pool.is_live(c), "the flush frees what it drops");
        let probe = offer(&mut sim, cable, Time::us(20), 64);
        assert_eq!(probe, c, "the freed slot is the next one minted");
        let (log, stats, live) = drain(sim);
        let expected = [
            (13_000, Some(a)),
            (21_512, Some(probe)),
            (25_000, None),
            (25_000, Some(b)),
        ];
        assert_eq!(log, expected);
        assert_eq!(drops(&stats, DropReason::LinkDown), 1);
        assert_eq!((drops(&stats, DropReason::NoRoute), live), (3, 0));
    }

    /// The same flap at 13 µs, and the probe sent at 23.488 µs: it
    /// arrives at 25 µs exactly, with `b`. Arrivals on one link at one
    /// instant pop in push order, and the failure pushed `b`'s: `b`
    /// first, as serialized. A second train, behind the probe, is fed in
    /// order after both.
    #[test]
    fn a_tie_across_a_flap_keeps_serialization_order() {
        let (mut sim, cable) = bare_cable();
        let [a, b] = [0; 2].map(|_| offer(&mut sim, cable, Time::ZERO, 1_500));
        flap(&mut sim, cable, Time::us(13));
        let [probe, d, e] = [64, 1_500, 1_500].map(|size| {
            let at = Time::ns(23_488);
            offer(&mut sim, cable, at, size)
        });
        let (log, stats, live) = drain(sim);
        let expected = [
            (13_000, Some(a)),
            (25_000, None), // the head scheduled at time 0, stale
            (25_000, Some(b)),
            (25_000, Some(probe)),
            (37_000, Some(d)),
            (49_000, Some(e)),
        ];
        assert_eq!(log, expected);
        assert!(stats.drops.keys().all(|&r| r == DropReason::NoRoute));
        assert_eq!((drops(&stats, DropReason::NoRoute), live), (5, 0));
    }
}
