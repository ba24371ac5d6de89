//! The engine's link-layer driver: how packets enter serializers and
//! how a link's train feeds the event loop.
//!
//! Split out of `engine.rs` so the dispatcher stays a readable core; the
//! methods here are the only code that schedules link events.

use super::{Event, Simulator};
use crate::link::{Arrival, DropReason};
use crate::observe::Obs;
use crate::packet::{Packet, PacketKind, PktRef};
use crate::stats::TrafficKind;
use crate::time::Time;
use contra_topology::{LinkId, NodeId};

impl Simulator {
    /// Offers the packet in `slot` to the link `from → to`, which knows
    /// at once when it will arrive. Decrements its TTL, where it sits, on
    /// switch-to-switch hops. A packet the link does not take ends here.
    pub(super) fn transmit(&mut self, from: NodeId, to: NodeId, slot: u32) {
        self.obs.emit(self.now, Obs::Offered);
        let Some(lid) = self.topo.link_between(from, to) else {
            debug_assert!(false, "no link {from}→{to}");
            return self.drop_slot(slot, DropReason::NoRoute, None, true);
        };
        let pkt = self.pool.get_mut(slot);
        if self.fabric_link[lid.0 as usize] && !pkt.is_probe() {
            if pkt.ttl == 0 {
                return self.drop_slot(slot, DropReason::TtlExpired, Some(lid), true);
            }
            pkt.ttl -= 1;
        }
        let kind = traffic_kind(pkt);
        let bytes = pkt.size_bytes;
        let queued = PktRef {
            slot,
            size_bytes: bytes,
        };
        let link = &mut self.links[lid.0 as usize];
        let (busy_start, arrival) = match link.accept(queued, self.now) {
            Ok(accepted) => accepted,
            Err(reason) => return self.drop_slot(slot, reason, Some(lid), true),
        };
        let epoch = link.epoch;
        let on_wire = Obs::OnWire {
            kind,
            bytes,
            link: lid.0,
            busy_start,
        };
        self.obs.emit(self.now, on_wire);
        match arrival {
            Arrival::Alone(at) => self.push_wire_arrival(at, lid, to, from, slot),
            Arrival::Head(at) => self.push_arrival(at, lid, Event::TrainHead { link: lid, epoch }),
            Arrival::Behind => {}
        }
    }

    /// Schedules the arrival of a packet that is on the wire and on no
    /// train. One that would arrive past `stop_at` never does: it keeps
    /// its slot at end of run by design, not as a leak.
    fn push_wire_arrival(&mut self, at: Time, lid: LinkId, node: NodeId, from: NodeId, pkt: u32) {
        if at > self.cfg.stop_at {
            self.obs.emit(self.now, Obs::StopCut);
        }
        self.push_arrival(at, lid, Event::Arrive { node, from, pkt });
    }

    /// The head of `lid`'s train arrives, and the next entry becomes the
    /// scheduled one. A head scheduled before a failure (epoch mismatch)
    /// is ignored: the failure re-scheduled or flushed its packet.
    pub(super) fn on_train_head(&mut self, lid: LinkId, epoch: u64) {
        let link = &mut self.links[lid.0 as usize];
        if link.epoch != epoch {
            return;
        }
        let (slot, next) = link.pop_train(self.now);
        if let Some(at) = next {
            self.push_arrival(at, lid, Event::TrainHead { link: lid, epoch });
        }
        let l = self.topo.link(lid);
        self.on_arrive(l.dst, l.src, slot);
    }

    /// A cable direction fails. Packets whose serialization had not
    /// started — a hand-over at this very instant included — are lost and
    /// counted ([`DropReason::LinkDown`]). What is on the wire becomes
    /// ordinary arrivals, pushed now and in serialization order: after
    /// the flap a later, shorter packet may arrive before one of these,
    /// or with it, so they can no longer wait on a train whose arrivals
    /// must increase, and a tie must find them pushed first. The flushed
    /// follow, in queue order. The train is read where it lies and then
    /// emptied in place, keeping its storage. The epoch advances, so the
    /// head scheduled before the failure is recognized as stale.
    pub(super) fn take_link_down(&mut self, lid: LinkId) {
        let l = self.topo.link(lid);
        let (from, to) = (l.src, l.dst);
        let link = &mut self.links[lid.0 as usize];
        link.settle(self.now);
        let (on_wire, len) = (link.train_on_wire(), link.audit_train().len());
        for k in 0..len {
            let (at, slot) = self.links[lid.0 as usize].train_entry(k);
            if k < on_wire {
                self.push_wire_arrival(at, lid, to, from, slot);
            } else {
                self.drop_slot(slot, DropReason::LinkDown, Some(lid), true);
            }
        }
        self.links[lid.0 as usize].set_down();
        self.obs.emit(self.now, Obs::LinkDown { link: lid.0 });
    }
}

fn traffic_kind(pkt: &Packet) -> TrafficKind {
    match pkt.kind {
        PacketKind::Data => TrafficKind::Data,
        PacketKind::Ack { .. } => TrafficKind::Ack,
        PacketKind::Udp => TrafficKind::Udp,
        PacketKind::Probe(_) => TrafficKind::Probe,
    }
}
