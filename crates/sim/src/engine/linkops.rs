//! The engine's link-layer driver: how packets enter serializers and
//! how completions fan back into the event loop.
//!
//! Split out of `engine.rs` so the dispatcher stays a readable core; the
//! methods here are the only code that schedules link events.

use super::{Event, Simulator};
use crate::link::{DropReason, EnqueueOutcome};
use crate::observe::Obs;
use crate::packet::{Packet, PacketKind, PktRef};
use crate::stats::TrafficKind;
use contra_topology::{LinkId, NodeId};

impl Simulator {
    /// Queues the packet in `slot` on the link `from → to`, starting the
    /// serializer if idle. Decrements its TTL, where it sits, on
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
        let outcome = self.links[lid.0 as usize].enqueue(queued, self.now);
        if let EnqueueOutcome::Dropped(reason) = outcome {
            return self.drop_slot(slot, reason, Some(lid), true);
        }
        // Idle→busy starts a fresh serializer busy period.
        let busy_start = outcome == EnqueueOutcome::StartTx;
        let on_wire = Obs::OnWire {
            kind,
            bytes,
            link: lid.0,
            busy_start,
        };
        self.obs.emit(self.now, on_wire);
        if busy_start {
            self.start_tx(lid);
        } else {
            self.arm_completion(lid);
        }
    }

    /// Starts serializing a link's head packet: schedules its arrival
    /// and, if a packet waits behind it, the serializer's completion.
    fn start_tx(&mut self, lid: LinkId) {
        let link = &mut self.links[lid.0 as usize];
        let Some((pkt, tx)) = link.start_tx(self.now) else {
            return;
        };
        let delay = link.delay;
        let l = self.topo.link(lid);
        let (from, to) = (l.src, l.dst);
        let arrive_at = self.now + tx + delay;
        if arrive_at > self.cfg.stop_at {
            // The arrival below is never enqueued: the packet keeps its
            // slot at end of run by design, not as a leak.
            self.obs.emit(self.now, Obs::StopCut);
        }
        self.push_arrival(
            arrive_at,
            lid,
            Event::Arrive {
                node: to,
                from,
                pkt: pkt.slot,
            },
        );
        self.arm_completion(lid);
    }

    /// Schedules the completion of the packet in service on `lid` once a
    /// packet is queued behind it. A completion that would find the queue
    /// empty models nothing — it only marks the serializer idle, which
    /// [`crate::link::LinkState::enqueue`] reads off the clock — so it is no
    /// event.
    fn arm_completion(&mut self, lid: LinkId) {
        let link = &mut self.links[lid.0 as usize];
        if let Some(done_at) = link.arm_completion() {
            let epoch = link.epoch;
            self.push_completion(done_at, Event::TxDone { link: lid, epoch });
        }
    }

    /// Serializer completion: starts the next queued packet, if any.
    /// Stale completions from before a failure (epoch mismatch) are
    /// ignored — were they honored, a flap could double-start the
    /// serializer.
    pub(super) fn on_tx_done(&mut self, lid: LinkId, epoch: u64) {
        let link = &mut self.links[lid.0 as usize];
        let done = Obs::TxDone {
            link: lid.0,
            epoch,
            state: link,
        };
        self.obs.emit(self.now, done);
        if !link.up || link.epoch != epoch {
            return; // stale completion from before a failure
        }
        if link.tx_done() {
            self.start_tx(lid);
        }
    }

    /// A cable direction fails: packets whose serialization had not
    /// started are lost and counted ([`DropReason::LinkDown`]), and the
    /// link epoch advances so in-flight completions are recognized as
    /// stale.
    pub(super) fn take_link_down(&mut self, lid: LinkId) {
        for pkt in self.links[lid.0 as usize].set_down() {
            self.drop_slot(pkt.slot, DropReason::LinkDown, Some(lid), true);
        }
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
