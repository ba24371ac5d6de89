//! Per-packet path tracing: the opt-in side table behind
//! `SimConfig::trace_paths`.
//!
//! When tracing is enabled the engine records, for every routed payload
//! packet and ACK, the sequence of switches it visits — the ground truth
//! for exact loop accounting (§6.5) and for policy-compliance checks in
//! tests. The table lives *beside* the packets (keyed by packet id) so
//! the hot path carries no per-packet `Vec` when tracing is off.
//!
//! The table is an [`Observer`] of the engine's seam:
//!
//! * [`Obs::Visit`] appends a switch to a packet's path; the visit that
//!   closes a packet's *first* loop counts it once
//!   (`SimStats::looped_packets`).
//! * [`Obs::Deliver`] retires a live trace into the delivered list
//!   returned in `RunOutput::traces`.
//! * [`Obs::Drop`] and [`Obs::AckConsumed`] drop the trace of a packet
//!   that died in flight (TTL, queue drop, no-route, link failure) or
//!   was consumed, so the table only ever holds in-flight packets.
//!
//! Tracing off means the engine holds no table at all.

use crate::fx::FxHashMap;
use crate::observe::{Obs, Observer};
use crate::packet::FlowId;
use crate::time::Time;
use contra_topology::NodeId;

/// Side-table record of one traced packet's switch path.
#[derive(Debug, Default)]
struct TraceRec {
    path: Vec<NodeId>,
    /// Set once the packet has revisited a switch (counted once per
    /// packet).
    looped: bool,
}

/// The tracing side table: switch paths of in-flight traced packets plus
/// the retired traces of delivered ones.
#[derive(Debug, Default)]
pub struct TraceTable {
    /// In-flight packets, keyed by packet id.
    live: FxHashMap<u64, TraceRec>,
    /// Delivered payload packet traces: for each delivered data/UDP
    /// packet, its flow and the switch sequence it took.
    delivered: Vec<(FlowId, Vec<NodeId>)>,
    /// Packets that revisited a switch.
    looped_packets: u64,
}

impl Observer for TraceTable {
    #[inline(always)]
    fn on(&mut self, _now: Time, obs: &Obs<'_>) {
        match *obs {
            Obs::Visit { pkt, node } => {
                let rec = self.live.entry(pkt).or_default();
                if rec.path.contains(&node) && !rec.looped {
                    rec.looped = true;
                    self.looped_packets += 1;
                }
                rec.path.push(node);
            }
            Obs::Drop { pkt, .. } | Obs::AckConsumed { pkt } => {
                self.live.remove(&pkt);
            }
            // No re-allocation: the recorded path is reused.
            Obs::Deliver { pkt, flow, .. } => {
                let path = self.live.remove(&pkt).map(|r| r.path).unwrap_or_default();
                self.delivered.push((flow, path));
            }
            _ => {}
        }
    }
}

impl TraceTable {
    /// Packets that visited some switch twice (each counted once).
    pub fn looped_packets(&self) -> u64 {
        self.looped_packets
    }

    /// Consumes the table, returning the delivered traces.
    pub fn into_delivered(self) -> Vec<(FlowId, Vec<NodeId>)> {
        self.delivered
    }

    /// Ids of in-flight traced packets (auditor leak check).
    pub(crate) fn live_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.live.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn visit(t: &mut TraceTable, pkt: u64, node: u32) {
        let node = NodeId(node);
        t.on(Time::ZERO, &Obs::Visit { pkt, node });
    }

    fn deliver(t: &mut TraceTable, pkt: u64) {
        let obs = Obs::Deliver {
            flow: FlowId(3),
            seq: 0,
            pkt,
            udp_payload: None,
        };
        t.on(Time::ZERO, &obs);
    }

    #[test]
    fn loop_is_counted_once_per_packet() {
        let mut t = TraceTable::default();
        for (node, loops) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
            visit(&mut t, 7, node);
            assert_eq!(t.looped_packets(), loops, "at switch {node}");
        }
        deliver(&mut t, 7);
        assert_eq!(t.live_ids().count(), 0);
        let d = t.into_delivered();
        assert_eq!(
            d,
            vec![(FlowId(3), vec![NodeId(0), NodeId(1), NodeId(0), NodeId(1)])]
        );
    }

    #[test]
    fn forget_drops_only_the_named_packet() {
        let mut t = TraceTable::default();
        for pkt in [1, 2, 3] {
            visit(&mut t, pkt, 5);
        }
        let obs = Obs::Drop {
            reason: crate::link::DropReason::QueueFull,
            is_probe: false,
            link: Some(0),
            pkt: 1,
            on_link_leg: true,
        };
        t.on(Time::ZERO, &obs);
        t.on(Time::ZERO, &Obs::AckConsumed { pkt: 3 });
        t.on(Time::ZERO, &Obs::Taken);
        assert_eq!(t.live_ids().collect::<Vec<_>>(), vec![2]);
        // Dead packets left no path behind; the survivor kept its own.
        for pkt in [1, 2] {
            deliver(&mut t, pkt);
        }
        let d = t.into_delivered();
        assert_eq!(d, vec![(FlowId(3), vec![]), (FlowId(3), vec![NodeId(5)])]);
    }
}
