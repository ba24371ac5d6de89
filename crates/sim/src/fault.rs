//! Fault injection: typed validation errors and the runtime invariant
//! auditor.
//!
//! A fault is a cable whose two directions go down, or come back up
//! (§5.4: a failure is a link whose probes go silent). The engine's
//! fault API (`Simulator::{try_fail_link_at, try_recover_link_at}`)
//! rejects a cable the topology does not have with a [`FaultError`],
//! for a failure and a recovery alike.
//!
//! The `Auditor` turns the engine's implicit conservation laws into
//! hard failures. It is pure observation: it never touches `SimStats`
//! or engine behavior, so golden fingerprints are byte-identical with
//! auditing on or off. It is an [`Observer`] of the engine's seam: it
//! keeps four counters from the packet observations and checks, at
//! every [`Obs::Checkpoint`] (each fault epoch and end of run, the engine
//! having settled every link first):
//!
//! * **Packet conservation** — every packet offered to a link is either
//!   taken at its arrival, lost to an accounted drop, or still holds its
//!   pool slot, sitting in a link queue or on the wire:
//!   `offered = taken + lost + queued + on_wire`, where
//!   `on_wire = pool.live() − queued`, at every instant.
//! * **Queue occupancy** — per link, `queued_bytes` both matches the
//!   sum of queued packet sizes and stays within `qcap_bytes`; every
//!   queued reference addresses a live slot of that size.
//! * **Trains** — per link, every train entry addresses a live slot,
//!   arrivals strictly increase from the head, and the entries that have
//!   not been handed over are the link's queue, in order: a flush that
//!   forgot the train, or a train that outlived a flap, fails here.
//! * **Pool leak freedom** (end of run) — the only packets left on the
//!   wire are those whose arrival lies past `stop_at` (the engine never
//!   enqueues such events, so they are stranded by design, and their
//!   count is tracked exactly as `stop_cut`: reported where a packet
//!   goes on the wire outside a train, and for a train entry once it has
//!   been handed over — never while it only waits in the queue).
//! * **Trace-table leak freedom** — every live trace belongs to a
//!   packet that still holds a pool slot; packets that died in flight
//!   must have been forgotten.

use crate::link::LinkState;
use crate::observe::{Obs, Observer};
use crate::packet::PacketPool;
use crate::time::Time;
use crate::trace::TraceTable;
use contra_topology::NodeId;

/// Why a fault-injection call was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultError {
    /// No cable connects the two nodes, in either direction.
    UnknownCable {
        /// One endpoint as given.
        a: NodeId,
        /// The other endpoint as given.
        b: NodeId,
    },
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::UnknownCable { a, b } => write!(f, "no cable {a}–{b}"),
        }
    }
}

impl std::error::Error for FaultError {}

/// The runtime invariant auditor (`SimConfig::audit`).
#[derive(Debug, Default)]
pub(crate) struct Auditor {
    /// Packets offered to a link (every hop attempt).
    offered: u64,
    /// Arrivals realized.
    taken: u64,
    /// Packets lost on a link leg: TTL death, missing link, enqueue
    /// rejection, failure flush.
    lost: u64,
    /// Packets whose scheduled arrival lies past `stop_at` — the engine
    /// never enqueues those events, so the packets legitimately keep
    /// their slots at end of run.
    stop_cut: u64,
}

impl Observer for Auditor {
    #[inline(always)]
    fn on(&mut self, now: Time, obs: &Obs<'_>) {
        match *obs {
            Obs::Offered => self.offered += 1,
            Obs::Taken => self.taken += 1,
            Obs::Drop { on_link_leg, .. } => self.lost += on_link_leg as u64,
            Obs::StopCut => self.stop_cut += 1,
            Obs::Checkpoint {
                end_of_run,
                links,
                pool,
            } => self.verify(now, links, pool, end_of_run),
            _ => {}
        }
    }
}

impl Auditor {
    /// Checks conservation, occupancy and (at end of run) pool leak
    /// freedom. Panics with a diagnostic on any violation.
    fn verify(&self, now: Time, links: &[LinkState], pool: &PacketPool, end_of_run: bool) {
        let phase = if end_of_run {
            "end of run"
        } else {
            "fault epoch"
        };
        let mut queued = 0u64;
        for (i, link) in links.iter().enumerate() {
            let mut bytes = 0u64;
            for entry in link.audit_queue() {
                assert!(
                    pool.get(entry.slot).size_bytes == entry.size_bytes,
                    "audit[{phase}] at {now}: link {i} queues slot {} as {} bytes",
                    entry.slot,
                    entry.size_bytes,
                );
                bytes += entry.size_bytes as u64;
                queued += 1;
            }
            assert!(
                bytes == link.queued_bytes() as u64,
                "audit[{phase}] at {now}: link {i} queued_bytes={} but packets sum to {bytes}",
                link.queued_bytes(),
            );
            assert!(
                link.queued_bytes() <= link.qcap_bytes,
                "audit[{phase}] at {now}: link {i} occupancy {} exceeds capacity {}",
                link.queued_bytes(),
                link.qcap_bytes,
            );
            let mut last = None;
            for (arrival, slot) in link.audit_train() {
                assert!(
                    pool.is_live(slot),
                    "audit[{phase}] at {now}: link {i} train holds dead slot {slot}"
                );
                assert!(
                    last < Some(arrival),
                    "audit[{phase}] at {now}: link {i} train arrivals {last:?}, {arrival} do not increase"
                );
                last = Some(arrival);
            }
        }
        let live = pool.live();
        let on_wire = live.checked_sub(queued);
        assert!(
            on_wire.is_some_and(|w| self.offered == self.taken + self.lost + queued + w),
            "audit[{phase}] at {now}: packet conservation violated: offered={} \
             != taken={} + lost={} + pool={live} (queued={queued})",
            self.offered,
            self.taken,
            self.lost,
        );
        if end_of_run {
            assert!(
                on_wire == Some(self.stop_cut),
                "audit[{phase}] at {now}: packet pool leaks: {on_wire:?} slots \
                 on the wire, {} stranded past stop_at",
                self.stop_cut,
            );
        }
    }
}

/// Trace-table leak freedom, checked beside every audited checkpoint of
/// a traced run: every live trace must belong to a packet that is still
/// in flight, which is to say in the pool.
pub(crate) fn audit_traces(now: Time, pool: &PacketPool, traces: &TraceTable) {
    let in_flight: std::collections::BTreeSet<u64> = pool.live_ids().collect();
    for id in traces.live_ids() {
        assert!(
            in_flight.contains(&id),
            "audit at {now}: trace table leaks packet {id} (traced but not in flight)"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_error_display() {
        let e = FaultError::UnknownCable {
            a: NodeId(3),
            b: NodeId(9),
        };
        assert_eq!(e.to_string(), "no cable n3–n9");
    }

    fn packet(id: u64) -> crate::packet::Packet {
        crate::packet::Packet {
            id,
            kind: crate::packet::PacketKind::Udp,
            src_host: NodeId(0),
            dst_host: NodeId(1),
            dst_switch: NodeId(1),
            flow: crate::packet::FlowId(0),
            seq: 0,
            size_bytes: 100,
            sent_at: Time::ZERO,
            tag: 0,
            pid: 0,
            ttl: crate::packet::INITIAL_TTL,
            flow_hash: 0,
        }
    }

    /// An auditor fed `offered`/`taken` counts and one drop on and one
    /// off a link leg, then checkpointed against `pool`.
    fn audited(offered: u32, taken: u32, pool: &PacketPool, end_of_run: bool) -> Auditor {
        let mut aud = Auditor::default();
        let feed = |aud: &mut Auditor, n: u32, obs: Obs<'_>| {
            (0..n).for_each(|_| aud.on(Time::ZERO, &obs));
        };
        feed(&mut aud, offered, Obs::Offered);
        feed(&mut aud, taken, Obs::Taken);
        for on_link_leg in [true, false] {
            let obs = Obs::Drop {
                reason: crate::link::DropReason::NoRoute,
                is_probe: false,
                link: None,
                pkt: 0,
                on_link_leg,
            };
            aud.on(Time::ZERO, &obs);
        }
        let obs = Obs::Checkpoint {
            end_of_run,
            links: &[],
            pool,
        };
        aud.on(Time::ZERO, &obs);
        aud
    }

    /// `offered = taken + lost + pool` from observations alone, and only
    /// a drop on a link leg counts as lost: a packet a switch declined
    /// to forward had already been taken.
    #[test]
    fn conservation_holds_from_observations_alone() {
        let mut pool = PacketPool::default();
        audited(2, 1, &pool, true);
        pool.insert(packet(7));
        let aud = audited(3, 1, &pool, false);
        assert_eq!((aud.offered, aud.taken, aud.lost), (3, 1, 1));
    }

    #[test]
    #[should_panic(expected = "packet conservation violated")]
    fn conservation_violation_panics() {
        audited(3, 1, &PacketPool::default(), false);
    }

    #[test]
    #[should_panic(expected = "packet pool leaks")]
    fn pool_leak_panics_at_end_of_run() {
        let mut pool = PacketPool::default();
        pool.insert(packet(7));
        audited(3, 1, &pool, true);
    }

    /// A packet whose arrival lies past `stop_at` is in the pool at end
    /// of run by design.
    #[test]
    fn stop_cut_packets_are_no_leak() {
        let mut pool = PacketPool::default();
        pool.insert(packet(7));
        let mut aud = audited(3, 1, &pool, false);
        aud.on(Time::ZERO, &Obs::StopCut);
        let obs = Obs::Checkpoint {
            end_of_run: true,
            links: &[],
            pool: &pool,
        };
        aud.on(Time::ZERO, &obs);
    }

    /// A slot a link queue refers to is queued, not on the wire: it is
    /// no leak at end of run, and the reference must describe it.
    #[test]
    #[should_panic(expected = "link 0 queues slot 1 as 60 bytes")]
    fn queued_slots_are_accounted_to_their_queue() {
        use crate::packet::PktRef;
        let mut pool = PacketPool::default();
        let (wire, slot) = (pool.insert(packet(6)), pool.insert(packet(7)));
        let mut link = LinkState::new(1e9, Time::us(1), 1_000, Time::us(1));
        let checkpoint = |size_bytes, link: &mut LinkState| {
            // The first takes the serializer (and is cut by `stop_at`),
            // the second queues behind it.
            let on_wire = PktRef {
                slot: wire,
                size_bytes: 100,
            };
            let mut aud = Auditor::default();
            for pkt in [on_wire, PktRef { slot, size_bytes }] {
                link.accept(pkt, Time::ZERO).expect("room for two");
                aud.on(Time::ZERO, &Obs::Offered);
            }
            aud.on(Time::ZERO, &Obs::StopCut);
            let obs = Obs::Checkpoint {
                end_of_run: true,
                links: std::slice::from_ref(link),
                pool: &pool,
            };
            aud.on(Time::ZERO, &obs);
            link.set_down();
            link.set_up();
        };
        checkpoint(100, &mut link);
        checkpoint(60, &mut link);
    }

    /// Three packets accepted at once — one on the wire, two on the
    /// train — then the link fails and the flushed slots are freed. The
    /// flush takes them off the train too; a flush that leaves the
    /// train's tail in place (`mutants/set_down_keeps_train_tail.patch`)
    /// is caught at the next checkpoint.
    #[test]
    fn a_flush_takes_the_tail_off_the_train() {
        let mut pool = PacketPool::default();
        let mut link = LinkState::new(1e9, Time::us(1), 1_000, Time::us(1));
        let mut aud = Auditor::default();
        let slots = [0, 1, 2].map(|id| pool.insert(packet(id)));
        for slot in slots {
            let pkt = crate::packet::PktRef {
                slot,
                size_bytes: 100,
            };
            link.accept(pkt, Time::ZERO).expect("room for three");
            aud.on(Time::ZERO, &Obs::Offered);
        }
        let checkpoint = |aud: &mut Auditor, link: &LinkState, pool: &PacketPool| {
            let obs = Obs::Checkpoint {
                end_of_run: false,
                links: std::slice::from_ref(link),
                pool,
            };
            aud.on(Time::ZERO, &obs);
        };
        checkpoint(&mut aud, &link, &pool);
        let lost: Vec<u32> = link.set_down().map(|(_, pkt)| pkt.slot).collect();
        for &slot in &slots[1..] {
            pool.free(slot);
            let obs = Obs::Drop {
                reason: crate::link::DropReason::LinkDown,
                is_probe: false,
                link: Some(0),
                pkt: 0,
                on_link_leg: true,
            };
            aud.on(Time::ZERO, &obs);
        }
        checkpoint(&mut aud, &link, &pool);
        assert_eq!(lost, slots[1..]);
    }

    #[test]
    #[should_panic(expected = "trace table leaks packet 8")]
    fn trace_of_a_dead_packet_panics() {
        let mut pool = PacketPool::default();
        pool.insert(packet(7));
        let mut traces = TraceTable::default();
        for pkt in [7, 8] {
            let node = NodeId(0);
            traces.on(Time::ZERO, &Obs::Visit { pkt, node });
        }
        audit_traces(Time::ZERO, &pool, &traces);
    }
}
