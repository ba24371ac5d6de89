//! The engine's link-layer driver: how packets enter serializers and
//! how completions fan back into the event loop.
//!
//! Split out of `engine.rs` so the dispatcher stays a readable core; the
//! methods here are the only code that schedules link events.

use super::{Event, Simulator};
use crate::link::{DropReason, EnqueueOutcome};
use crate::packet::{Packet, PacketKind};
use crate::stats::TrafficKind;
use contra_topology::{LinkId, NodeId};

impl Simulator {
    /// Queues `pkt` on the link `from → to`, starting the serializer if
    /// idle. Handles TTL decrement on switch-to-switch hops.
    pub(super) fn transmit(&mut self, from: NodeId, to: NodeId, mut pkt: Packet) {
        if let Some(aud) = self.audit.as_deref_mut() {
            aud.offered += 1;
        }
        let Some(lid) = self.topo.link_between(from, to) else {
            debug_assert!(false, "no link {from}→{to}");
            if let Some(aud) = self.audit.as_deref_mut() {
                aud.lost += 1;
            }
            let probe = matches!(pkt.kind, PacketKind::Probe(_));
            self.stats.on_drop_at(DropReason::NoRoute, self.now, probe);
            self.traces.forget(pkt.id);
            return;
        };
        if self.fabric_link[lid.0 as usize]
            && (pkt.carries_payload() || matches!(pkt.kind, PacketKind::Ack { .. }))
        {
            if pkt.ttl == 0 {
                if self.debug_ttl {
                    eprintln!(
                        "TTL death: {:?} flow={:?} seq={} dst_sw={} trace_tail={:?}",
                        pkt.kind,
                        pkt.flow,
                        pkt.seq,
                        pkt.dst_switch,
                        self.traces.tail(pkt.id),
                    );
                }
                if let Some(aud) = self.audit.as_deref_mut() {
                    aud.lost += 1;
                }
                self.stats
                    .on_drop_at(DropReason::TtlExpired, self.now, false);
                self.traces.forget(pkt.id);
                if let Some(rec) = self.telem.as_deref_mut() {
                    rec.drop_event(self.now, DropReason::TtlExpired, Some(lid.0));
                }
                return;
            }
            pkt.ttl -= 1;
        }
        let kind = traffic_kind(&pkt);
        let size = pkt.size_bytes;
        let id = pkt.id;
        let link = &mut self.links[lid.0 as usize];
        match link.enqueue(pkt, self.now) {
            EnqueueOutcome::StartTx => {
                self.stats.on_wire(kind, size);
                if let Some(rec) = self.telem.as_deref_mut() {
                    // Idle→busy transition: a fresh serializer busy period.
                    rec.tx_start(self.now, lid.0);
                }
                self.start_tx(lid);
            }
            EnqueueOutcome::Queued => {
                self.stats.on_wire(kind, size);
                self.arm_completion(lid);
            }
            EnqueueOutcome::Dropped(reason) => {
                if let Some(aud) = self.audit.as_deref_mut() {
                    aud.lost += 1;
                }
                self.stats
                    .on_drop_at(reason, self.now, kind == TrafficKind::Probe);
                self.traces.forget(id);
                if let Some(rec) = self.telem.as_deref_mut() {
                    rec.drop_event(self.now, reason, Some(lid.0));
                }
            }
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
            // The arrival below is never enqueued: the packet stays in
            // the pool at end of run by design, not as a leak.
            if let Some(aud) = self.audit.as_deref_mut() {
                aud.stop_cut += 1;
            }
        }
        let slot = self.pool.insert(pkt);
        self.push_arrival(
            arrive_at,
            lid,
            Event::Arrive {
                node: to,
                from,
                pkt: slot,
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
        // Audit: an event addressed to the *current* epoch of a down
        // link would mean `set_down` failed to bump the epoch — every
        // legitimately stale completion carries an older epoch.
        if self.audit.is_some() && !link.up && link.epoch == epoch {
            panic!(
                "audit: TxDone addressed to live epoch {epoch} of down link {} at {}",
                lid.0, self.now
            );
        }
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
        let flushed = self.links[lid.0 as usize].set_down();
        if let Some(aud) = self.audit.as_deref_mut() {
            aud.lost += flushed.len() as u64;
        }
        for pkt in &flushed {
            let probe = matches!(pkt.kind, PacketKind::Probe(_));
            self.stats.on_drop_at(DropReason::LinkDown, self.now, probe);
            self.traces.forget(pkt.id);
            if let Some(rec) = self.telem.as_deref_mut() {
                rec.drop_event(self.now, DropReason::LinkDown, Some(lid.0));
            }
        }
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
