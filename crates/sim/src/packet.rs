//! Packets: the unit of everything the simulator moves.
//!
//! One struct covers data, ACKs, UDP and probes; routing systems read and
//! write the Contra header fields (`tag`, `pid`) which double as the path
//! selector for SPAIN's static multipath. Sizes are explicit so byte
//! accounting (Fig 16, traffic overhead) is exact.

use crate::time::Time;
use contra_topology::{NodeId, Topology};

/// Flow identifier (index into the simulator's flow table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u32);

/// Ethernet+IP+transport header bytes accounted per data/ACK packet.
pub const HDR_BYTES: u32 = 40;
/// Maximum segment size for data packets (bytes of payload).
pub const MSS: u32 = 1460;
/// Base size of a Contra/Hula probe before per-metric fields (origin,
/// pid, version, tag and framing).
pub const PROBE_BASE_BYTES: u32 = 24;

/// Probe origination period of the §6.3 deployment, Contra's and Hula's
/// alike (Contra raises it to a policy's §5.2 floor on WAN topologies).
pub const PROBE_PERIOD: Time = Time::us(256);
/// Flowlet idle timeout (§6.3).
pub const FLOWLET_TIMEOUT: Time = Time::us(200);
/// A next hop is considered failed after this many probe periods of
/// silence (§5.4; the failure experiment uses 3).
pub const FAILURE_PERIODS: u64 = 3;

/// §5.4's failure test, the one Contra and Hula both apply: a neighbour
/// last heard from at `last` is silent at `now` once more than
/// [`FAILURE_PERIODS`] probe periods have passed.
pub fn silent(last: Time, now: Time, probe_period: Time) -> bool {
    now.saturating_sub(last) > Time(probe_period.0 * FAILURE_PERIODS)
}

/// One switch's §5.4 clock: when a probe last arrived from each
/// neighbouring switch, as `(neighbour, last heard)` pairs in neighbour id
/// order (`Time::ZERO` = never); hosts send no probes. One allocation of
/// the switch's degree, built at install and searched by neighbour id.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProbeClock {
    heard: Vec<(NodeId, Time)>,
}

impl ProbeClock {
    /// A clock that has heard none of `switch`'s neighbours.
    pub fn new(topo: &Topology, switch: NodeId) -> ProbeClock {
        let row = topo.adjacency(switch);
        let switches = || row.iter().filter(|l| topo.is_switch(l.0));
        let mut heard = Vec::with_capacity(switches().count());
        heard.extend(switches().map(|&(n, _)| (n, Time::ZERO)));
        ProbeClock { heard }
    }

    /// Records a probe from `from` at `now`: any probe proves the cable
    /// alive. A node that is no neighbouring switch is ignored.
    pub fn heard(&mut self, from: NodeId, now: Time) {
        if let Ok(i) = self.heard.binary_search_by_key(&from, |&(n, _)| n) {
            self.heard[i].1 = now;
        }
    }

    /// Whether `nhop` is [`silent`] at `now` under `probe_period`; a node
    /// never heard, or no neighbouring switch, was last heard at time zero.
    pub fn failed(&self, nhop: NodeId, now: Time, probe_period: Time) -> bool {
        let i = self.heard.binary_search_by_key(&nhop, |&(n, _)| n);
        silent(i.map_or(Time::ZERO, |i| self.heard[i].1), now, probe_period)
    }
}
/// Forwarding entries not refreshed for this many probe periods are
/// ignored (metric expiration).
pub const EXPIRY_PERIODS: u64 = 8;

/// What a packet is.
#[derive(Debug, Clone, PartialEq)]
pub enum PacketKind {
    /// TCP-like data segment.
    Data,
    /// Cumulative acknowledgement.
    Ack {
        /// Next expected sequence number at the receiver.
        ack_seq: u32,
        /// Echo of the triggering segment's send timestamp (RTT sampling).
        echo_ts: Time,
    },
    /// Constant-rate datagram (failure-recovery experiment, Fig 14).
    Udp,
    /// A routing probe (Contra or Hula).
    Probe(Probe),
}

/// The probe header of the synthesized protocol (Fig 7: `origin`, `pid`,
/// `mv`, `tag`, plus the §5.1 version number).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    /// Topology location of the originating (destination) switch.
    pub origin: NodeId,
    /// Probe id — which decomposed subpolicy this probe serves.
    pub pid: u8,
    /// Per-origin round number; stale probes are recognizable (§5.1).
    pub version: u32,
    /// Product-graph virtual node the probe currently sits at.
    pub tag: u32,
    /// Metric vector `[util, lat_seconds, len_hops]`.
    pub mv: [f64; 3],
}

/// A simulated packet.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    /// Globally unique id (assigned by the engine).
    pub id: u64,
    /// Payload class.
    pub kind: PacketKind,
    /// Sending host (or switch, for probes).
    pub src_host: NodeId,
    /// Destination host (meaningless for probes).
    pub dst_host: NodeId,
    /// Access switch of the destination host — the routing key.
    pub dst_switch: NodeId,
    /// Flow this packet belongs to.
    pub flow: FlowId,
    /// Sequence number within the flow (data/ACK).
    pub seq: u32,
    /// Wire size in bytes (headers included).
    pub size_bytes: u32,
    /// Send timestamp at the source host (echoed by ACKs for RTT).
    pub sent_at: Time,
    /// Contra packet tag: the product-graph virtual node the packet is
    /// *arriving at*; also reused as SPAIN's path index.
    pub tag: u32,
    /// Contra probe-id the forwarding entry was selected from.
    pub pid: u8,
    /// Hop budget; packets are dropped at zero (loop safety net).
    pub ttl: u8,
    /// Hash of the flow five-tuple — flowlet tables key on this.
    pub flow_hash: u64,
}

/// Initial TTL for data traffic.
pub const INITIAL_TTL: u8 = 64;

impl Packet {
    /// A probe a switch originates or re-multicasts: `from` → its neighbor
    /// `to`, stamped with the probe's own `tag`/`pid`. The engine assigns
    /// the id when the packet is sent.
    #[inline]
    pub fn probe(from: NodeId, to: NodeId, probe: Probe, size_bytes: u32, now: Time) -> Packet {
        Packet {
            id: 0,
            src_host: from,
            dst_host: to,
            dst_switch: to,
            flow: FlowId(u32::MAX),
            seq: 0,
            size_bytes,
            sent_at: now,
            tag: probe.tag,
            pid: probe.pid,
            ttl: INITIAL_TTL,
            flow_hash: 0,
            kind: PacketKind::Probe(probe),
        }
    }

    /// True for probe packets.
    pub fn is_probe(&self) -> bool {
        matches!(self.kind, PacketKind::Probe(_))
    }
}

/// What measures a queued item for a link: its size on the wire. The
/// link layer needs nothing else of what it queues, so it is generic
/// over this one method — the engine queues [`PktRef`]s, while unit
/// tests and micro-benchmarks drive a link with whole [`Packet`]s.
pub trait WireSize {
    /// Wire size in bytes (headers included).
    fn wire_bytes(&self) -> u32;
}

impl WireSize for Packet {
    #[inline]
    fn wire_bytes(&self) -> u32 {
        self.size_bytes
    }
}

/// A packet as the engine's link queues hold it: its [`PacketPool`]
/// slot, plus the one field a serializer reads, so queueing and
/// serializing never touch the packet itself. Exists because a link
/// moves what it queues twice per hop — 8 bytes instead of a 104-byte
/// [`Packet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PktRef {
    pub(crate) slot: u32,
    pub(crate) size_bytes: u32,
}

impl WireSize for PktRef {
    #[inline]
    fn wire_bytes(&self) -> u32 {
        self.size_bytes
    }
}

/// The single home of every packet in the network: a slot is written
/// once, when the packet is minted, and freed once, where the packet
/// ends; link queues, arrival events and switch handlers pass the slot.
/// Slots are recycled LIFO, so the working set stays cache-resident.
#[derive(Debug, Default)]
pub struct PacketPool {
    slots: Vec<Option<Packet>>,
    free: Vec<u32>,
}

impl PacketPool {
    /// Stores a packet, returning its slot.
    #[inline]
    pub(crate) fn insert(&mut self, pkt: Packet) -> u32 {
        match self.free.pop() {
            Some(i) => {
                let slot = &mut self.slots[i as usize];
                debug_assert!(slot.is_none());
                *slot = Some(pkt);
                i
            }
            None => {
                self.slots.push(Some(pkt));
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// The packet in `slot`.
    #[inline]
    pub(crate) fn get(&self, slot: u32) -> &Packet {
        self.slots[slot as usize]
            .as_ref()
            .expect("a slot is read only between its mint and its free")
    }

    /// The packet in `slot`, for the in-place rewrites of a hop (TTL,
    /// `tag`/`pid`).
    #[inline]
    pub(crate) fn get_mut(&mut self, slot: u32) -> &mut Packet {
        self.slots[slot as usize]
            .as_mut()
            .expect("a slot is written only between its mint and its free")
    }

    /// Ends the packet in `slot`; the slot is recycled.
    #[inline]
    pub(crate) fn free(&mut self, slot: u32) {
        let ended = self.slots[slot as usize].take();
        assert!(ended.is_some(), "a slot is freed exactly once");
        self.free.push(slot);
    }

    /// Whether `slot` holds a packet (auditor view).
    pub(crate) fn is_live(&self, slot: u32) -> bool {
        matches!(self.slots.get(slot as usize), Some(Some(_)))
    }

    /// Number of live packets (auditor view; off the hot path, so a scan
    /// beats carrying a counter every insert/free).
    pub(crate) fn live(&self) -> u64 {
        self.slots.iter().flatten().count() as u64
    }

    /// Ids of live packets (auditor view).
    pub(crate) fn live_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots.iter().flatten().map(|p| p.id)
    }
}

/// Deterministic 64-bit mix of a flow id (stand-in for a five-tuple hash).
/// SplitMix64 finalizer: well distributed, stable across runs.
///
/// The salt is spread by a large odd multiplier before mixing so that
/// `(flow=n, salt=1)` can never alias `(flow=n+1, salt=0)` — real
/// five-tuple hashes of a flow and its reverse are independent, and the
/// forward/reverse hashes of *different* flows must be too (an early
/// version added the salt directly, and ACKs of one flow hit the flowlet
/// pins of the next flow's data, ping-ponging packets to TTL death).
pub fn flow_hash(flow: FlowId, salt: u64) -> u64 {
    let mut z = (flow.0 as u64)
        .wrapping_add(salt.wrapping_mul(0xD1B54A32D192ED03))
        .wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_hash_is_deterministic_and_spread() {
        let a = flow_hash(FlowId(1), 0);
        let b = flow_hash(FlowId(1), 0);
        let c = flow_hash(FlowId(2), 0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Different salt decorrelates.
        assert_ne!(flow_hash(FlowId(1), 7), a);
    }

    #[test]
    fn forward_and_reverse_hashes_never_alias_across_flows() {
        // Regression: (flow n, salt 1) must differ from (flow m, salt 0)
        // for all nearby n, m — otherwise one flow's ACKs ride another
        // flow's flowlet pins.
        for n in 0..512u32 {
            for m in 0..512u32 {
                assert_ne!(
                    flow_hash(FlowId(n), 1),
                    flow_hash(FlowId(m), 0),
                    "rev({n}) == fwd({m})"
                );
            }
        }
    }

    /// A queued packet costs a link 8 bytes per move; a `Packet` that
    /// grows is paid for at every mint and in every pool slot.
    #[test]
    fn per_packet_types_stay_small() {
        assert_eq!(std::mem::size_of::<PktRef>(), 8);
        assert!(std::mem::size_of::<Packet>() <= 104);
        assert!(std::mem::size_of::<Option<Packet>>() <= 104);
    }

    #[test]
    fn kind_predicates() {
        let p = Packet {
            id: 0,
            kind: PacketKind::Probe(Probe {
                origin: NodeId(0),
                pid: 0,
                version: 1,
                tag: 0,
                mv: [0.0; 3],
            }),
            src_host: NodeId(0),
            dst_host: NodeId(0),
            dst_switch: NodeId(0),
            flow: FlowId(0),
            seq: 0,
            size_bytes: 32,
            sent_at: Time::ZERO,
            tag: 0,
            pid: 0,
            ttl: INITIAL_TTL,
            flow_hash: 0,
        };
        assert!(p.is_probe());
    }
}
