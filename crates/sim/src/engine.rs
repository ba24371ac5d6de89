//! The discrete-event engine: the dispatcher that composes the layers.
//!
//! `engine.rs` owns the clock, the event queue and the wiring; the
//! domain logic lives in the layer modules it composes:
//!
//! * [`crate::sched`] — the event queue (a timing wheel).
//! * [`crate::link`] — serializers and drop-tail queues.
//! * [`crate::transport`] — the TCP/UDP host endpoints.
//! * [`crate::switch`] — pluggable per-switch dataplane logic.
//! * [`crate::trace`] — the opt-in per-packet path side table.
//! * [`crate::stats`] — everything a run measures.
//!
//! Deterministic by construction: the event queue breaks time ties by a
//! class-encoded key (arrivals by directed link, timers in push order,
//! serializer completions last — see [`crate::sched`]), all randomness
//! comes from seeded generators in the workload layer, and switch logic
//! runs strictly one event at a time. The same inputs always produce
//! byte-identical statistics.

use crate::config::SimConfig;
use crate::fault::{Auditor, FaultError};
use crate::link::{DropReason, LinkState};
use crate::packet::{FlowId, Packet, PacketKind, PacketPool, HDR_BYTES};
use crate::recorder::Recorder;
use crate::sched::TimingWheel;
use crate::stats::{QueueSample, SimStats};
use crate::switch::{SwitchCtx, SwitchLogic};
use crate::time::Time;
use crate::trace::TraceTable;
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
    /// Take both directions of a cable down.
    LinkDown { a: NodeId, b: NodeId },
    /// Bring both directions back up.
    LinkUp { a: NodeId, b: NodeId },
    /// Fail a node: atomically take down every incident link (both
    /// directions), flushing their queues.
    NodeDown { node: NodeId },
    /// Recover a node: bring every incident link back up.
    NodeUp { node: NodeId },
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
    /// `CONTRA_SIM_DEBUG_TTL`, read once at construction — `env::var_os`
    /// takes a process-global lock and must stay off the drop path.
    debug_ttl: bool,
    /// Switch paths of in-flight traced packets (`cfg.trace_paths`).
    traces: TraceTable,
    /// The runtime invariant auditor (`cfg.audit`), `None` when off.
    /// Boxed so the disabled case costs one null check per hop.
    audit: Option<Box<Auditor>>,
    /// The telemetry recorder (`cfg.telemetry`), `None` when off. Like
    /// the auditor: pure observation, boxed, one null check when off.
    telem: Option<Box<Recorder>>,
    /// Run statistics (read after [`Simulator::run`]).
    pub stats: SimStats,
}

impl Simulator {
    /// Creates a simulator over a topology. Accepts an owned [`Topology`]
    /// or an `Arc<Topology>`; sweeps pass the latter so every cell shares
    /// one allocation. The `CONTRA_SIM_AUDIT` and `CONTRA_TELEM` env
    /// vars, when set, override `cfg.audit` and `cfg.telemetry` here.
    pub fn new(topo: impl Into<std::sync::Arc<Topology>>, cfg: SimConfig) -> Simulator {
        let topo = topo.into();
        let mut cfg = cfg;
        if let Some(audit) = crate::config::audit_from_env() {
            cfg.audit = audit;
        }
        match crate::recorder::telemetry_from_env() {
            Some(true) if cfg.telemetry.is_none() => {
                cfg.telemetry = Some(crate::recorder::TelemetryConfig::default());
            }
            Some(false) => cfg.telemetry = None,
            _ => {}
        }
        let links = topo
            .links()
            .iter()
            .map(|l| {
                LinkState::new(
                    l.bandwidth_bps,
                    crate::time::Time(l.delay_ns),
                    cfg.queue_capacity_bytes,
                    cfg.util_tau,
                )
            })
            .collect();
        let n = topo.num_nodes();
        let stats = SimStats::new(cfg.udp_bucket);
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
        let transport = Transport::new(cfg.min_rto, cfg.init_cwnd);
        let traces = TraceTable::new(cfg.trace_paths);
        let audit = cfg.audit.then(|| Box::new(Auditor::default()));
        let telem = cfg
            .telemetry
            .as_ref()
            .map(|t| Box::new(Recorder::new(t, &topo)));
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
            debug_ttl: std::env::var_os("CONTRA_SIM_DEBUG_TTL").is_some(),
            traces,
            audit,
            telem,
            stats,
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
        let (id, start, is_tcp) = self.transport.add_flow(spec, &self.topo, &mut self.stats);
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
    /// identically — `recover_link_at` used to accept unknown cables
    /// silently, which let a typo'd recovery no-op while its paired
    /// failure stuck.
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
        self.push(at, Event::LinkDown { a, b });
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
        self.push(at, Event::LinkUp { a, b });
        Ok(())
    }

    /// Schedules a node failure: every incident link (both directions)
    /// goes down atomically at `at`, flushing queues.
    pub fn try_fail_node_at(&mut self, node: NodeId, at: Time) -> Result<(), FaultError> {
        self.check_node(node)?;
        self.push(at, Event::NodeDown { node });
        Ok(())
    }

    /// Schedules a node recovery: every incident link comes back up.
    pub fn try_recover_node_at(&mut self, node: NodeId, at: Time) -> Result<(), FaultError> {
        self.check_node(node)?;
        self.push(at, Event::NodeUp { node });
        Ok(())
    }

    /// Panicking convenience over [`Simulator::try_fail_link_at`].
    pub fn fail_link_at(&mut self, a: NodeId, b: NodeId, at: Time) {
        self.try_fail_link_at(a, b, at)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Panicking convenience over [`Simulator::try_recover_link_at`].
    pub fn recover_link_at(&mut self, a: NodeId, b: NodeId, at: Time) {
        self.try_recover_link_at(a, b, at)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Panicking convenience over [`Simulator::try_fail_node_at`].
    pub fn fail_node_at(&mut self, node: NodeId, at: Time) {
        self.try_fail_node_at(node, at)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Panicking convenience over [`Simulator::try_recover_node_at`].
    pub fn recover_node_at(&mut self, node: NodeId, at: Time) {
        self.try_recover_node_at(node, at)
            .unwrap_or_else(|e| panic!("{e}"));
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
        let track_util = self.telem.is_some()
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
            self.stats.events_processed += 1;
            self.dispatch(entry.ev);
            // Lazy telemetry cadence: sample at the first event at or
            // past each boundary. Piggybacking on dispatched events —
            // instead of scheduling sampling events — keeps
            // `events_processed` telemetry-invariant.
            if let Some(rec) = self.telem.as_deref() {
                if self.now >= rec.next_sample() {
                    self.telem_sample();
                }
            }
        }
        // Fold end-of-run telemetry into the stats: the open UDP
        // delivery bucket, scheduler occupancy and the dataplane's
        // modeled register collisions.
        self.stats.flush_udp();
        let sched = self.queue.counters();
        self.stats.sched_peak_pending = sched.peak_pending;
        self.stats.sched_cascades = sched.cascades;
        self.stats.sched_overflow = sched.overflow_pushes;
        for logic in self.logics.iter().flatten() {
            let (flowlet, hloop) = logic.register_collisions();
            self.stats.flowlet_collisions += flowlet;
            self.stats.loop_collisions += hloop;
        }
        self.audit_check("end of run");
        if self.telem.is_some() {
            // Final sample at the end-of-run instant, then close any
            // open spans so the exported trace is well-formed.
            self.telem_sample();
            let now = self.now;
            if let Some(rec) = self.telem.as_deref_mut() {
                rec.finish(now);
            }
        }
    }

    /// Runs to completion (queue empty, which includes the stop time
    /// being reached — see [`Simulator::push`]) and returns the
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
        let telemetry = self.telem.take().map(|r| r.into_report());
        let traces = self.cfg.trace_paths.then(|| self.traces.into_delivered());
        RunOutput {
            stats: self.stats,
            traces,
            telemetry,
        }
    }

    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::Arrive { node, from, pkt } => self.on_arrive(node, from, pkt),
            Event::TxDone { link, epoch } => self.on_tx_done(link, epoch),
            Event::Tick { node } => self.on_tick(node),
            Event::FlowStart { flow } => {
                if let Some(rec) = self.telem.as_deref_mut() {
                    rec.flow_start(self.now, flow);
                }
                self.transport.start_flow(flow, self.now, &mut self.tfx);
                self.apply_transport_fx();
                self.telem_cwnd(flow);
            }
            Event::RtoCheck { flow, epoch } => {
                self.transport.on_rto(flow, epoch, self.now, &mut self.tfx);
                self.apply_transport_fx();
                self.telem_cwnd(flow);
            }
            Event::UdpSend { flow } => {
                self.transport.on_udp_send(flow, self.now, &mut self.tfx);
                self.apply_transport_fx();
            }
            Event::LinkDown { a, b } => self.on_cable_fault(a, b, true),
            Event::LinkUp { a, b } => self.on_cable_fault(a, b, false),
            Event::NodeDown { node } => self.on_node_fault(node, true),
            Event::NodeUp { node } => self.on_node_fault(node, false),
            Event::QueueSample => {
                // Fabric links only (switch → switch), precomputed once.
                for &i in &self.fabric_links {
                    let link = &self.links[i as usize];
                    // Bounded retention: sampling (and the event
                    // schedule) continues past the cap, overflow is
                    // counted instead of stored.
                    if self.stats.queue_samples.len() < self.cfg.queue_sample_cap {
                        self.stats.queue_samples.push(QueueSample {
                            at: self.now,
                            link: i,
                            bytes: link.queued_bytes(),
                        });
                    } else {
                        self.stats.queue_samples_capped += 1;
                    }
                }
                if let Some(every) = self.cfg.queue_sample_every {
                    let at = self.now + every;
                    self.push(at, Event::QueueSample);
                }
            }
        }
    }

    // ---- fault events ---------------------------------------------------

    /// Takes one directed link down if (and only if) it is up. Overlapping
    /// flap schedules make double-fails routine; re-failing a down link
    /// must not double-flush (the first flush already accounted every
    /// packet, and `set_down` would bump the epoch under the feet of the
    /// legitimate recovery).
    fn link_down_idem(&mut self, lid: LinkId) -> bool {
        if !self.links[lid.0 as usize].up {
            return false;
        }
        self.take_link_down(lid);
        if let Some(rec) = self.telem.as_deref_mut() {
            rec.link_down(self.now, lid.0);
        }
        true
    }

    /// Brings one directed link up if it is down; recovering an up link
    /// is an explicit no-op.
    fn link_up_idem(&mut self, lid: LinkId) -> bool {
        let link = &mut self.links[lid.0 as usize];
        if link.up {
            return false;
        }
        link.set_up();
        if let Some(rec) = self.telem.as_deref_mut() {
            rec.link_up(self.now, lid.0);
        }
        true
    }

    /// A cable fault event fires: applies the transition to both
    /// directions idempotently. When any direction actually changes
    /// state a fault epoch opens *first* — so the flush's `LinkDown`
    /// drops attribute to this fault, not a previous one — and the
    /// invariant auditor (if on) re-proves conservation afterwards.
    fn on_cable_fault(&mut self, a: NodeId, b: NodeId, down: bool) {
        let dirs = [(a, b), (b, a)];
        let will_change = dirs.iter().any(|&(x, y)| {
            self.topo
                .link_between(x, y)
                .is_some_and(|l| self.links[l.0 as usize].up == down)
        });
        if will_change {
            let label = format!(
                "{} {}~{}",
                if down { "down" } else { "up" },
                self.topo.node(a).name,
                self.topo.node(b).name
            );
            self.stats.open_fault_epoch(self.now, label, down);
            if let Some(rec) = self.telem.as_deref_mut() {
                rec.fault(self.now, self.stats.fault_epochs.len() as u64 - 1, down);
            }
        }
        for (x, y) in dirs {
            if let Some(l) = self.topo.link_between(x, y) {
                if down {
                    self.link_down_idem(l);
                } else {
                    self.link_up_idem(l);
                }
            }
        }
        if will_change {
            self.audit_check("fault epoch");
        }
    }

    /// A node fault event fires: every incident directed link (in link
    /// index order, for determinism) transitions idempotently — a node
    /// failure atomically downs all incident links, flushing queues
    /// exactly as the per-cable path does.
    fn on_node_fault(&mut self, node: NodeId, down: bool) {
        let incident: Vec<LinkId> = (0..self.links.len() as u32)
            .map(LinkId)
            .filter(|&l| {
                let link = self.topo.link(l);
                link.src == node || link.dst == node
            })
            .collect();
        let will_change = incident
            .iter()
            .any(|&l| self.links[l.0 as usize].up == down);
        if will_change {
            let label = format!(
                "{} node {}",
                if down { "down" } else { "up" },
                self.topo.node(node).name
            );
            self.stats.open_fault_epoch(self.now, label, down);
            if let Some(rec) = self.telem.as_deref_mut() {
                rec.fault(self.now, self.stats.fault_epochs.len() as u64 - 1, down);
            }
        }
        for l in incident {
            if down {
                self.link_down_idem(l);
            } else {
                self.link_up_idem(l);
            }
        }
        if will_change {
            self.audit_check("fault epoch");
        }
    }

    /// Runs the invariant auditor, when enabled: checks conservation,
    /// occupancy and leak freedom.
    fn audit_check(&self, phase: &str) {
        let Some(aud) = self.audit.as_deref() else {
            return;
        };
        aud.verify(
            phase,
            self.now,
            &self.links,
            &self.pool,
            &self.traces,
            phase == "end of run",
        );
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
        if let Some(aud) = self.audit.as_deref_mut() {
            aud.taken += 1;
        }
        if !self.topo.is_switch(node) {
            self.host_receive(node, pkt);
            return;
        }
        // Loop accounting on traced routed traffic (payload and ACKs).
        if self.traces.enabled()
            && (pkt.carries_payload() || matches!(pkt.kind, PacketKind::Ack { .. }))
            && self.traces.visit(&pkt, node)
        {
            self.stats.looped_packets += 1;
        }
        if self.logics[node.0 as usize].is_none() {
            // No logic installed (test harness omission): drop.
            let probe = matches!(pkt.kind, PacketKind::Probe(_));
            self.stats.on_drop_at(DropReason::NoRoute, self.now, probe);
            if let Some(rec) = self.telem.as_deref_mut() {
                rec.drop_event(self.now, DropReason::NoRoute, None);
            }
            self.traces.forget(pkt.id);
            return;
        }
        let mut ctx = SwitchCtx::new(
            node,
            self.now,
            &self.topo,
            &self.links,
            std::mem::take(&mut self.out_buf),
        );
        let logic = self.logics[node.0 as usize]
            .as_mut()
            .expect("presence checked above");
        logic.on_packet(&mut ctx, pkt, from);
        let SwitchCtx {
            out,
            loop_breaks,
            no_route,
            ..
        } = ctx;
        self.apply_switch_output(node, out, loop_breaks, no_route);
    }

    fn on_tick(&mut self, node: NodeId) {
        if self.logics[node.0 as usize].is_none() {
            return;
        }
        let mut ctx = SwitchCtx::new(
            node,
            self.now,
            &self.topo,
            &self.links,
            std::mem::take(&mut self.out_buf),
        );
        let logic = self.logics[node.0 as usize]
            .as_mut()
            .expect("presence checked above");
        logic.on_tick(&mut ctx);
        let SwitchCtx {
            out,
            loop_breaks,
            no_route,
            ..
        } = ctx;
        self.apply_switch_output(node, out, loop_breaks, no_route);
        if let Some(t) = self.tick_of[node.0 as usize] {
            let at = self.now + t;
            self.push(at, Event::Tick { node });
        }
    }

    /// Applies what one switch handler produced: loop-break counts,
    /// no-route drops, and the emitted packets (transmitted in emission
    /// order). Recycles the output buffer.
    fn apply_switch_output(
        &mut self,
        node: NodeId,
        mut outs: Vec<(NodeId, Packet)>,
        loop_breaks: u64,
        no_route: Vec<(u64, bool)>,
    ) {
        self.stats.loop_breaks += loop_breaks;
        for (id, probe) in no_route {
            self.stats.on_drop_at(DropReason::NoRoute, self.now, probe);
            if let Some(rec) = self.telem.as_deref_mut() {
                rec.drop_event(self.now, DropReason::NoRoute, None);
            }
            self.traces.forget(id);
        }
        for (next, p) in outs.drain(..) {
            self.transmit(node, next, p);
        }
        self.out_buf = outs;
    }

    // ---- host delivery --------------------------------------------------

    fn host_receive(&mut self, host: NodeId, pkt: Packet) {
        match &pkt.kind {
            PacketKind::Data => {
                debug_assert_eq!(pkt.dst_host, host);
                self.stats.delivered_packets += 1;
                self.traces.deliver(&pkt);
                if let Some(rec) = self.telem.as_deref_mut() {
                    rec.deliver(self.now, pkt.flow.0, pkt.seq);
                }
                self.transport.on_data(&pkt, self.now, &mut self.tfx);
                self.apply_transport_fx();
            }
            PacketKind::Ack { ack_seq, echo_ts } => {
                let (ack_seq, echo_ts) = (*ack_seq, *echo_ts);
                let flow = pkt.flow.0;
                self.traces.forget(pkt.id);
                self.transport.on_ack(
                    flow,
                    ack_seq,
                    echo_ts,
                    self.now,
                    &mut self.tfx,
                    &mut self.stats,
                );
                self.apply_transport_fx();
                self.telem_cwnd(flow);
            }
            PacketKind::Udp => {
                debug_assert_eq!(pkt.dst_host, host);
                self.stats.delivered_packets += 1;
                self.traces.deliver(&pkt);
                if let Some(rec) = self.telem.as_deref_mut() {
                    rec.deliver(self.now, pkt.flow.0, pkt.seq);
                }
                let payload = pkt.size_bytes.saturating_sub(HDR_BYTES);
                self.stats.on_udp_delivered(self.now, payload);
            }
            PacketKind::Probe(_) => {
                debug_assert!(false, "probes must never reach hosts");
            }
        }
    }

    // ---- telemetry ------------------------------------------------------

    /// Records `flow`'s congestion window after a transport action (the
    /// recorder drops unchanged values).
    fn telem_cwnd(&mut self, flow: u32) {
        let Some(rec) = self.telem.as_deref_mut() else {
            return;
        };
        if let Some(cwnd) = self.transport.cwnd_of(flow) {
            rec.cwnd(self.now, flow, cwnd);
        }
    }

    /// Takes one metric sample at the current instant: fabric-link
    /// utilization and queue depth, cumulative drops by reason,
    /// per-switch control-plane churn, and engine counters.
    fn telem_sample(&mut self) {
        let now = self.now;
        let Some(rec) = self.telem.as_deref_mut() else {
            return;
        };
        for &i in &self.fabric_links {
            let link = &self.links[i as usize];
            rec.sample_link(now, i, link.utilization(now), link.queued_bytes());
        }
        rec.sample_drops(now, &self.stats);
        for (n, logic) in self.logics.iter().enumerate() {
            if let Some(logic) = logic {
                let (probes, updates) = logic.control_churn();
                rec.sample_churn(now, n as u32, probes, updates);
            }
        }
        rec.sample_engine(now, self.stats.events_processed);
        rec.bump_next(now);
    }
}
