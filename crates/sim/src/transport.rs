//! Host transport: the TCP NewReno and constant-rate UDP machines.
//!
//! [`Transport`] owns all per-flow state and implements the endpoint
//! protocols; the engine owns links, switches and the clock. The seam
//! between them is deliberately narrow:
//!
//! * The engine forwards host-level events into the `on_*` handlers
//!   ([`Transport::start_flow`], [`Transport::on_data`],
//!   [`Transport::on_ack`], [`Transport::on_rto`],
//!   [`Transport::on_udp_send`]).
//! * Handlers never touch the network directly — they append
//!   [`TransportEffect`]s (packets to transmit, timers to arm) to a
//!   caller-owned buffer, **in the exact order the actions must happen**,
//!   and the engine applies them after the handler returns. Order matters
//!   down to event-queue sequence numbers: a timer armed before a send
//!   must be pushed before the send's link events, or same-instant ties
//!   would break differently.
//! * Flow lifecycle results (completion time, retransmit counts) are
//!   written straight into [`SimStats::flows`], the measurement layer.
//!
//! Flow state lives in a dense append-only table: a [`FlowId`] indexes
//! both the flow's state here and its record in [`SimStats::flows`].
//!
//! The transport also mints packet ids: it is the only packet creator
//! that needs global uniqueness (probes are switch-local and carry id 0).

use crate::packet::{flow_hash, FlowId, Packet, PacketKind, HDR_BYTES, INITIAL_TTL, MSS};
use crate::stats::{FlowRecord, SimStats};
use crate::time::Time;
use contra_topology::{NodeId, Topology};

/// A traffic source to inject.
#[derive(Debug, Clone)]
pub enum FlowSpec {
    /// Finite TCP-like transfer of `bytes` from `src` to `dst`.
    Tcp {
        /// Sending host.
        src: NodeId,
        /// Receiving host.
        dst: NodeId,
        /// Transfer size in bytes.
        bytes: u64,
        /// Arrival time.
        start: Time,
    },
    /// Constant-rate UDP stream (used by the failure-recovery experiment).
    Udp {
        /// Sending host.
        src: NodeId,
        /// Receiving host.
        dst: NodeId,
        /// Offered rate in bits/second.
        rate_bps: f64,
        /// First packet time.
        start: Time,
        /// Last packet time.
        stop: Time,
    },
}

/// A transport-armed timer, delivered back by the engine at its deadline.
#[derive(Debug, Clone, Copy)]
pub enum TransportTimer {
    /// RTO deadline check.
    Rto {
        /// Flow index.
        flow: u32,
        /// Generation of the check; one superseded by an earlier check
        /// is ignored.
        epoch: u64,
    },
    /// Next UDP datagram.
    UdpSend {
        /// Flow index.
        flow: u32,
    },
}

/// One deferred transport action. Effects apply strictly in append order.
#[derive(Debug)]
pub enum TransportEffect {
    /// Transmit `pkt` from host `src` onto its access link toward `via`.
    Send {
        /// Originating host.
        src: NodeId,
        /// First-hop switch (the host's access switch).
        via: NodeId,
        /// The packet.
        pkt: Packet,
    },
    /// Arm a timer at `at`.
    Timer {
        /// Deadline.
        at: Time,
        /// What fires.
        timer: TransportTimer,
    },
}

/// The effects buffer handlers append to. Owned by the engine and
/// recycled across dispatches so steady-state handling never allocates.
pub type TransportFx = Vec<TransportEffect>;

#[derive(Debug, Clone, Copy, PartialEq)]
enum FlowKind {
    Tcp,
    Udp { rate_bps: f64, stop: Time },
}

/// TCP sender/receiver state for one flow (NewReno-flavored: slow start,
/// AIMD, triple-dup-ACK fast retransmit, go-back-N timeout).
struct FlowState {
    kind: FlowKind,
    src: NodeId,
    dst: NodeId,
    src_switch: NodeId,
    dst_switch: NodeId,
    size_bytes: u64,
    total_pkts: u32,
    // Sender.
    next_seq: u32,
    cum_acked: u32,
    dup_acks: u32,
    cwnd: f64,
    ssthresh: f64,
    in_recovery: bool,
    recovery_point: u32,
    srtt: Option<f64>,
    rttvar: f64,
    rto: Time,
    /// When the flow times out unless re-armed: the last arm's instant
    /// plus the RTO of that instant.
    rto_deadline: Time,
    /// When the one pending deadline check fires (never past
    /// `rto_deadline`), if one is pending.
    rto_check_at: Option<Time>,
    /// Generation of the pending check.
    rto_epoch: u64,
    finished: bool,
    retransmits: u64,
    // Receiver.
    rcv_next: u32,
    /// Segments received above `rcv_next`, ascending and distinct; the
    /// vector keeps its capacity across reordering episodes.
    rcv_ooo: Vec<u32>,
    hash_fwd: u64,
    hash_rev: u64,
}

impl FlowState {
    fn inflight(&self) -> u32 {
        self.next_seq.saturating_sub(self.cum_acked)
    }

    /// Pushes the deadline check, at the deadline; a new epoch retires
    /// the later check it may take over from.
    fn push_rto_check(&mut self, flow: u32, fx: &mut TransportFx) {
        self.rto_epoch += 1;
        self.rto_check_at = Some(self.rto_deadline);
        fx.push(TransportEffect::Timer {
            at: self.rto_deadline,
            timer: TransportTimer::Rto {
                flow,
                epoch: self.rto_epoch,
            },
        });
    }
}

/// TCP initial congestion window in packets.
pub const INIT_CWND: f64 = 10.0;

/// All host endpoints of a simulation: flow table plus the minimum RTO
/// lifted from `SimConfig`.
pub struct Transport {
    flows: Vec<FlowState>,
    min_rto: Time,
    next_pkt_id: u64,
}

impl Transport {
    /// A transport with no flows.
    pub fn new(min_rto: Time) -> Transport {
        Transport {
            flows: Vec::new(),
            min_rto,
            next_pkt_id: 0,
        }
    }

    /// The current congestion window (in packets) of a TCP flow —
    /// `None` for UDP flows and unknown ids. Read by the telemetry
    /// recorder after transport actions; never consulted by forwarding
    /// or transport logic itself.
    pub fn cwnd_of(&self, flow: u32) -> Option<f64> {
        let f = self.flows.get(flow as usize)?;
        matches!(f.kind, FlowKind::Tcp).then_some(f.cwnd)
    }

    /// Registers a flow and its [`FlowRecord`]; returns the id, the
    /// start instant, and whether the flow is TCP (the engine schedules
    /// a flow-start or first-datagram event accordingly).
    pub fn add_flow(
        &mut self,
        spec: FlowSpec,
        topo: &Topology,
        stats: &mut SimStats,
    ) -> (FlowId, Time, bool) {
        let (src, dst, start) = match &spec {
            FlowSpec::Tcp {
                src, dst, start, ..
            } => (*src, *dst, *start),
            FlowSpec::Udp {
                src, dst, start, ..
            } => (*src, *dst, *start),
        };
        assert!(
            !topo.is_switch(src) && !topo.is_switch(dst),
            "flows run host-to-host"
        );
        assert_ne!(src, dst, "flow to self");
        let (kind, size_bytes, total_pkts) = match spec {
            FlowSpec::Tcp { bytes, .. } => {
                let pkts = bytes.div_ceil(MSS as u64).max(1) as u32;
                (FlowKind::Tcp, bytes, pkts)
            }
            FlowSpec::Udp { rate_bps, stop, .. } => (FlowKind::Udp { rate_bps, stop }, 0, u32::MAX),
        };
        debug_assert_eq!(stats.flows.len(), self.flows.len(), "one record per flow");
        let id = FlowId(self.flows.len() as u32);
        self.flows.push(FlowState {
            kind,
            src,
            dst,
            src_switch: topo.host_switch(src),
            dst_switch: topo.host_switch(dst),
            size_bytes,
            total_pkts,
            next_seq: 0,
            cum_acked: 0,
            dup_acks: 0,
            cwnd: INIT_CWND,
            ssthresh: f64::INFINITY,
            in_recovery: false,
            recovery_point: 0,
            srtt: None,
            rttvar: 0.0,
            rto: Time(self.min_rto.0 * 3),
            rto_deadline: Time::ZERO,
            rto_check_at: None,
            rto_epoch: 0,
            finished: false,
            retransmits: 0,
            rcv_next: 0,
            rcv_ooo: Vec::new(),
            hash_fwd: flow_hash(id, 0),
            hash_rev: flow_hash(id, 1),
        });
        stats.flows.push(FlowRecord {
            id,
            size_bytes,
            start,
            finish: None,
            retransmits: 0,
            unbounded: matches!(kind, FlowKind::Udp { .. }),
        });
        (id, start, matches!(kind, FlowKind::Tcp))
    }

    /// A TCP flow becomes active: opens the window and arms the first
    /// RTO.
    pub fn start_flow(&mut self, flow: u32, now: Time, fx: &mut TransportFx) {
        self.tcp_try_send(flow, now, fx);
        self.arm_rto(flow, now, fx);
    }

    /// Receiver side of a data segment: advances `rcv_next` (with an
    /// in-order fast path) and emits the cumulative ACK. Data for an
    /// unknown flow is swallowed.
    pub fn on_data(&mut self, pkt: &Packet, now: Time, fx: &mut TransportFx) {
        let flow = pkt.flow.0;
        let Some(f) = self.flows.get_mut(flow as usize) else {
            return;
        };
        let seq = pkt.seq;
        if seq == f.rcv_next {
            // In-order fast path (the overwhelmingly common case): advance
            // without touching the out-of-order set, then drain any
            // segments it unblocks.
            f.rcv_next += 1;
            if !f.rcv_ooo.is_empty() {
                let k = (f.rcv_ooo.iter().zip(f.rcv_next..))
                    .take_while(|(&s, n)| s == *n)
                    .count();
                f.rcv_ooo.drain(..k);
                f.rcv_next += k as u32;
            }
        } else if seq > f.rcv_next {
            // Reordered arrivals mostly come in ascending order: append,
            // else insert in place; a duplicate is already held.
            match f.rcv_ooo.last() {
                Some(&last) if last >= seq => {
                    if let Err(i) = f.rcv_ooo.binary_search(&seq) {
                        f.rcv_ooo.insert(i, seq);
                    }
                }
                _ => f.rcv_ooo.push(seq),
            }
        }
        let ack_seq = f.rcv_next;
        let (src, dst, dst_sw, via, hash) = (f.dst, f.src, f.src_switch, f.dst_switch, f.hash_rev);
        let echo_ts = pkt.sent_at;
        // ACK travels from the receiver host back to the sender host.
        let ack = mk_packet(
            &mut self.next_pkt_id,
            PacketKind::Ack { ack_seq, echo_ts },
            flow,
            ack_seq,
            HDR_BYTES,
            src,
            dst,
            dst_sw,
            hash,
            now,
        );
        fx.push(TransportEffect::Send { src, via, pkt: ack });
    }

    /// Sender side of a cumulative ACK: RTT sampling, window update,
    /// fast retransmit, completion. ACKs for an unknown flow are
    /// swallowed.
    pub fn on_ack(
        &mut self,
        flow: u32,
        ack_seq: u32,
        echo_ts: Time,
        now: Time,
        fx: &mut TransportFx,
        stats: &mut SimStats,
    ) {
        let Some(f) = self.flows.get_mut(flow as usize) else {
            return;
        };
        if f.finished {
            return;
        }
        // RTT sample (Karn's rule approximated: echo timestamps are exact).
        let sample = now.saturating_sub(echo_ts).as_secs_f64();
        match f.srtt {
            None => {
                f.srtt = Some(sample);
                f.rttvar = sample / 2.0;
            }
            Some(s) => {
                f.rttvar = 0.75 * f.rttvar + 0.25 * (s - sample).abs();
                f.srtt = Some(0.875 * s + 0.125 * sample);
            }
        }
        let rto_s = f.srtt.unwrap() + 4.0 * f.rttvar;
        f.rto = Time::secs_f64(rto_s).max(self.min_rto);

        if ack_seq > f.cum_acked {
            let newly = (ack_seq - f.cum_acked) as f64;
            f.cum_acked = ack_seq;
            // After a go-back-N timeout, late ACKs for pre-timeout segments
            // can overtake the rewound send pointer.
            f.next_seq = f.next_seq.max(f.cum_acked);
            f.dup_acks = 0;
            if f.in_recovery && ack_seq >= f.recovery_point {
                f.in_recovery = false;
            }
            if f.cwnd < f.ssthresh {
                f.cwnd += newly; // slow start
            } else {
                f.cwnd += newly / f.cwnd; // congestion avoidance
            }
            if f.cum_acked >= f.total_pkts {
                f.finished = true;
                let record = &mut stats.flows[flow as usize];
                record.finish = Some(now);
                record.retransmits = f.retransmits;
                return;
            }
            self.arm_rto(flow, now, fx);
            self.tcp_try_send(flow, now, fx);
        } else {
            f.dup_acks += 1;
            if f.dup_acks == 3 && !f.in_recovery {
                f.ssthresh = (f.cwnd / 2.0).max(2.0);
                f.cwnd = f.ssthresh;
                f.in_recovery = true;
                f.recovery_point = f.next_seq;
                f.retransmits += 1;
                let seq = f.cum_acked;
                let (src, dst, dst_sw, via, hash) =
                    (f.src, f.dst, f.dst_switch, f.src_switch, f.hash_fwd);
                let size = data_size(f, seq);
                let pkt = mk_packet(
                    &mut self.next_pkt_id,
                    PacketKind::Data,
                    flow,
                    seq,
                    size,
                    src,
                    dst,
                    dst_sw,
                    hash,
                    now,
                );
                fx.push(TransportEffect::Send { src, via, pkt });
                self.arm_rto(flow, now, fx);
            }
        }
    }

    /// RTO deadline check of a live epoch. One that fires before the
    /// deadline (ACKs re-armed the flow since it was pushed) re-arms
    /// itself at the deadline; one at the deadline is the timeout:
    /// multiplicative back-off and go-back-N from the hole.
    pub fn on_rto(&mut self, flow: u32, epoch: u64, now: Time, fx: &mut TransportFx) {
        let Some(f) = self.flows.get_mut(flow as usize) else {
            return;
        };
        if f.finished || f.rto_epoch != epoch {
            return;
        }
        f.rto_check_at = None;
        if now < f.rto_deadline {
            return f.push_rto_check(flow, fx);
        }
        f.ssthresh = (f.cwnd / 2.0).max(2.0);
        f.cwnd = INIT_CWND.min(2.0);
        f.in_recovery = false;
        f.dup_acks = 0;
        f.next_seq = f.cum_acked;
        f.retransmits += 1;
        f.rto = Time((f.rto.0 * 2).min(Time::ms(100).0));
        self.arm_rto(flow, now, fx);
        self.tcp_try_send(flow, now, fx);
    }

    /// Emits the next constant-rate datagram and re-arms the send timer.
    pub fn on_udp_send(&mut self, flow: u32, now: Time, fx: &mut TransportFx) {
        let Some(f) = self.flows.get_mut(flow as usize) else {
            return;
        };
        let FlowKind::Udp { rate_bps, stop } = f.kind else {
            return;
        };
        if now > stop {
            return;
        }
        let size = MSS + HDR_BYTES;
        let seq = f.next_seq;
        f.next_seq += 1;
        let (src, dst, dst_sw, via, hash) = (f.src, f.dst, f.dst_switch, f.src_switch, f.hash_fwd);
        let pkt = mk_packet(
            &mut self.next_pkt_id,
            PacketKind::Udp,
            flow,
            seq,
            size,
            src,
            dst,
            dst_sw,
            hash,
            now,
        );
        fx.push(TransportEffect::Send { src, via, pkt });
        let gap = Time::secs_f64(size as f64 * 8.0 / rate_bps);
        fx.push(TransportEffect::Timer {
            at: now + gap,
            timer: TransportTimer::UdpSend { flow },
        });
    }

    /// Sends as much as the window allows: `count = min(total - next_seq,
    /// floor(cwnd).max(1) - inflight)` segments, one `Send` each.
    fn tcp_try_send(&mut self, flow: u32, now: Time, fx: &mut TransportFx) {
        let Some(f) = self.flows.get_mut(flow as usize) else {
            return;
        };
        if f.finished {
            return;
        }
        let win = f.cwnd.floor().max(1.0);
        let inflight = f.inflight() as f64;
        if f.next_seq >= f.total_pkts || inflight >= win {
            return;
        }
        let count = (win - inflight).min((f.total_pkts - f.next_seq) as f64) as u32;
        let first_seq = f.next_seq;
        f.next_seq = first_seq + count;
        let (src, dst, dst_sw, via, hash) = (f.src, f.dst, f.dst_switch, f.src_switch, f.hash_fwd);
        for seq in first_seq..first_seq + count {
            let size = data_size(f, seq);
            let pkt = mk_packet(
                &mut self.next_pkt_id,
                PacketKind::Data,
                flow,
                seq,
                size,
                src,
                dst,
                dst_sw,
                hash,
                now,
            );
            fx.push(TransportEffect::Send { src, via, pkt });
        }
    }

    /// Restarts the retransmission timer: the flow now times out at
    /// `now + rto`. At most one deadline check is pending per flow, so a
    /// timer is pushed only when none is, or when the new deadline is
    /// earlier than the pending check (the initial `3 × min_rto` shrinks
    /// after the first RTT sample) — the pending check re-arms itself
    /// when it fires early ([`Transport::on_rto`]).
    fn arm_rto(&mut self, flow: u32, now: Time, fx: &mut TransportFx) {
        let Some(f) = self.flows.get_mut(flow as usize) else {
            return;
        };
        if f.finished || !matches!(f.kind, FlowKind::Tcp) {
            return;
        }
        f.rto_deadline = now + f.rto;
        if f.rto_check_at.is_none_or(|at| f.rto_deadline < at) {
            f.push_rto_check(flow, fx);
        }
    }
}

fn data_size(f: &FlowState, seq: u32) -> u32 {
    let sent_before = seq as u64 * MSS as u64;
    let remaining = f.size_bytes.saturating_sub(sent_before);
    (remaining.min(MSS as u64) as u32).max(1) + HDR_BYTES
}

/// Builds a transport packet. `dst_switch` comes from the flow state —
/// `Topology::host_switch` walks (and allocates) the host's neighbor
/// list, far too slow for once-per-packet use. Free function (not a
/// `&mut self` method) so handlers can mint while holding a mutable
/// borrow of the flow state instead of re-indexing the table per packet.
#[allow(clippy::too_many_arguments)]
fn mk_packet(
    next_pkt_id: &mut u64,
    kind: PacketKind,
    flow: u32,
    seq: u32,
    size: u32,
    src: NodeId,
    dst: NodeId,
    dst_switch: NodeId,
    hash: u64,
    now: Time,
) -> Packet {
    *next_pkt_id += 1;
    Packet {
        id: *next_pkt_id,
        kind,
        src_host: src,
        dst_host: dst,
        dst_switch,
        flow: FlowId(flow),
        seq,
        size_bytes: size,
        sent_at: now,
        tag: 0,
        pid: 0,
        ttl: INITIAL_TTL,
        flow_hash: hash,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIN_RTO: Time = Time::ms(1);

    /// One TCP flow driven by hand: the caller plays the network and the
    /// event queue, keeping the deadline checks the transport pushes.
    struct Rig {
        transport: Transport,
        stats: SimStats,
        /// Pushed deadline checks that have not fired, as `(at, epoch)`.
        checks: Vec<(Time, u64)>,
    }

    impl Rig {
        /// Starts a 100-segment flow at time zero.
        fn start() -> Rig {
            let mut t = Topology::builder();
            let (s, a, b) = (t.switch("s"), t.host("a"), t.host("b"));
            t.biline(a, s, 10e9, 500);
            t.biline(b, s, 10e9, 500);
            let mut rig = Rig {
                transport: Transport::new(MIN_RTO),
                stats: SimStats::new(Time::ms(1)),
                checks: Vec::new(),
            };
            let spec = FlowSpec::Tcp {
                src: a,
                dst: b,
                bytes: 100 * MSS as u64,
                start: Time::ZERO,
            };
            rig.transport.add_flow(spec, &t.build(), &mut rig.stats);
            rig.step(|tr, fx, _| tr.start_flow(0, Time::ZERO, fx));
            rig
        }

        /// One transport action; keeps the checks it pushed and holds
        /// the flow to at most one live check.
        fn step(&mut self, act: impl FnOnce(&mut Transport, &mut TransportFx, &mut SimStats)) {
            let mut fx = TransportFx::new();
            act(&mut self.transport, &mut fx, &mut self.stats);
            for effect in fx {
                if let TransportEffect::Timer { at, timer } = effect {
                    let TransportTimer::Rto { epoch, .. } = timer else {
                        panic!("a TCP flow arms no other timer");
                    };
                    self.checks.push((at, epoch));
                }
            }
            let live_epoch = self.transport.flows[0].rto_epoch;
            let live = self.checks.iter().filter(|c| c.1 == live_epoch);
            assert!(live.count() <= 1, "{:?}", self.checks);
        }

        /// A cumulative ACK of `ack_seq` arriving at `now`, its segment
        /// sent `rtt` earlier.
        fn ack(&mut self, ack_seq: u32, now: Time, rtt: Time) {
            let sent = now.saturating_sub(rtt);
            self.step(|tr, fx, stats| tr.on_ack(0, ack_seq, sent, now, fx, stats));
        }

        /// Fires pending checks in time order until one is the timeout;
        /// returns its instant.
        fn run_to_timeout(&mut self) -> Time {
            loop {
                self.checks.sort();
                assert!(!self.checks.is_empty(), "a live flow always has a check");
                let (at, epoch) = self.checks.remove(0);
                self.step(|tr, fx, _| tr.on_rto(0, epoch, at, fx));
                if self.transport.flows[0].retransmits > 0 {
                    return at;
                }
            }
        }
    }

    /// A train of ACKs re-arms the flow forty times and pushes no timer
    /// after the first RTT sample; the flow times out at the instant the
    /// last ACK's arm set, not at any earlier check.
    #[test]
    fn ack_train_times_out_at_last_arm_plus_rto() {
        let mut rig = Rig::start();
        for k in 1..=40u32 {
            rig.ack(k, Time::us(100 * k as u64), Time::us(100));
        }
        // 3 × min_rto at the start, then 0.1 ms + min_rto after the
        // first sample shrank the RTO to its floor.
        assert_eq!(rig.checks, [(Time::ms(3), 1), (Time::us(1_100), 2)]);
        assert_eq!(rig.run_to_timeout(), Time::us(4_000) + MIN_RTO);
        // Four checks pushed in all, where every ACK used to push one:
        // those two, the early one's re-arm, and the timeout's own.
        assert_eq!(rig.transport.flows[0].rto_epoch, 4);
    }

    /// The receiver's reorder set against a `BTreeSet` model of it: 400
    /// random arrival orders of up to 48 segments, each with duplicates
    /// and missing segments, produce the same cumulative ACKs, and the
    /// set ends holding exactly the model's segments, ascending.
    #[test]
    fn reorder_set_acks_like_a_btreeset() {
        let mut draw = {
            let mut state = 0u64;
            move |bound: u64| {
                state += 1;
                crate::fx_mix64(state) % bound
            }
        };
        for trial in 0..400 {
            let mut rig = Rig::start();
            let n = 1 + draw(48) as u32;
            let mut arrivals: Vec<u32> = (0..n).filter(|_| draw(8) != 0).collect();
            for i in (1..arrivals.len()).rev() {
                arrivals.swap(i, draw(i as u64 + 1) as usize);
            }
            let dups = if arrivals.is_empty() {
                0
            } else {
                draw(n as u64)
            };
            for _ in 0..dups {
                let dup = arrivals[draw(arrivals.len() as u64) as usize];
                arrivals.insert(draw(arrivals.len() as u64 + 1) as usize, dup);
            }
            let (mut next, mut model) = (0u32, std::collections::BTreeSet::new());
            let mut id = 0;
            for &seq in &arrivals {
                if seq == next {
                    next += 1;
                    while model.remove(&next) {
                        next += 1;
                    }
                } else if seq > next {
                    model.insert(seq);
                }
                let (a, b, sw) = (NodeId(1), NodeId(2), NodeId(0));
                let pkt = mk_packet(
                    &mut id,
                    PacketKind::Data,
                    0,
                    seq,
                    MSS,
                    a,
                    b,
                    sw,
                    0,
                    Time::ZERO,
                );
                let mut fx = TransportFx::new();
                rig.transport.on_data(&pkt, Time::ZERO, &mut fx);
                let acks: Vec<u32> = (fx.into_iter())
                    .filter_map(|e| match e {
                        TransportEffect::Send { pkt, .. } => match pkt.kind {
                            PacketKind::Ack { ack_seq, .. } => Some(ack_seq),
                            _ => None,
                        },
                        _ => None,
                    })
                    .collect();
                assert_eq!(acks, [next], "trial {trial}: {arrivals:?} at {seq}");
            }
            let held: Vec<u32> = model.into_iter().collect();
            assert_eq!(rig.transport.flows[0].rcv_ooo, held, "trial {trial}");
        }
    }

    /// The first RTT sample shrinks the RTO below the initial
    /// `3 × min_rto`: the earlier deadline gets its own check and fires
    /// first.
    #[test]
    fn a_shrinking_rto_fires_at_the_earlier_deadline() {
        let mut rig = Rig::start();
        assert_eq!(rig.checks, [(Time::ms(3), 1)]);
        rig.ack(1, Time::us(100), Time::us(100));
        assert_eq!(rig.run_to_timeout(), Time::us(100) + MIN_RTO);
    }
}
