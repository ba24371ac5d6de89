//! Failure-path regression tests for the link layer.
//!
//! * Packets discarded by `LinkState::set_down` are counted as
//!   [`DropReason::LinkDown`] in `SimStats` (they used to be invisible to
//!   per-reason accounting when the flush happened mid-burst).
//! * A train head whose epoch predates a `set_down`/`set_up` flap is
//!   ignored: it can neither deliver a flushed packet nor feed the new
//!   train out of turn.

use contra_sim::{
    DropReason, FaultError, FlowSpec, Packet, SimConfig, Simulator, SwitchCtx, SwitchLogic, Time,
    Verdict,
};
use contra_topology::{paths, NodeId, Topology};

/// Minimal static routing: precomputed next hop per destination switch,
/// plus host delivery.
struct StaticLogic {
    next_hop: std::collections::BTreeMap<NodeId, NodeId>,
}

impl SwitchLogic for StaticLogic {
    fn on_packet(&mut self, ctx: &mut SwitchCtx<'_>, pkt: &mut Packet, _: NodeId) -> Verdict {
        if pkt.dst_switch == ctx.switch {
            Verdict::Forward(pkt.dst_host)
        } else if let Some(&nh) = self.next_hop.get(&pkt.dst_switch) {
            Verdict::Forward(nh)
        } else {
            Verdict::NoRoute
        }
    }
}

fn install_static(sim: &mut Simulator) {
    let topo = sim.topology().clone();
    for sw in topo.switches() {
        let mut next_hop = std::collections::BTreeMap::new();
        for other in topo.switches() {
            if other != sw {
                if let Some(p) = paths::shortest_path(&topo, sw, other) {
                    next_hop.insert(other, p[1]);
                }
            }
        }
        sim.install(sw, Box::new(StaticLogic { next_hop }));
    }
}

/// h0 –10G– s0 –1G– s1 –10G– h1: the s0→s1 cable is a 10× bottleneck, so
/// bursts pile up in its queue.
fn bottleneck() -> Topology {
    let mut t = Topology::builder();
    let s0 = t.switch("s0");
    let s1 = t.switch("s1");
    let h0 = t.host("h0");
    let h1 = t.host("h1");
    t.biline(s0, s1, 1e9, 1_000);
    t.biline(h0, s0, 10e9, 500);
    t.biline(h1, s1, 10e9, 500);
    t.build()
}

/// A 10-packet TCP burst piles up behind the 1 Gbps bottleneck; the cable
/// fails mid-burst with the queue full. Every packet whose serialization
/// had not started must surface as a `LinkDown` drop.
///
/// Timeline (all figures exact): the burst serializes onto h0→s0 at
/// 1.2 µs/packet, arriving at s0 from 1.7 µs. The bottleneck serializes
/// 12 µs/packet, so starts happen at 1.7/13.7/25.7 µs — at the 30 µs
/// failure exactly 3 packets have started (the third still on the wire)
/// and **7 are unstarted**. After the failure, ACKs of the surviving
/// deliveries clock out 3 more transmissions that die at the down
/// cable's `enqueue`, for 10 `LinkDown` drops in total — the run stopped
/// at the failure instant shows the flush alone is 7. Both runs are
/// audited: at the fault the seven flushed slots are free again while the
/// packet on the wire keeps its own, and at the end nothing holds a slot
/// but what `stop_at` cut.
#[test]
fn mid_burst_failure_counts_linkdown_drops() {
    let run = |stop_at: Time| {
        let topo = bottleneck();
        let h0 = topo.find("h0").unwrap();
        let h1 = topo.find("h1").unwrap();
        let s0 = topo.find("s0").unwrap();
        let s1 = topo.find("s1").unwrap();
        let mut sim = Simulator::new(
            topo,
            SimConfig {
                stop_at,
                audit: true,
                ..SimConfig::default()
            },
        );
        install_static(&mut sim);
        sim.add_flow(FlowSpec::Tcp {
            src: h0,
            dst: h1,
            bytes: 10 * 1460,
            start: Time::ZERO,
        });
        sim.try_fail_link_at(s0, s1, Time::us(30)).unwrap();
        sim.run().stats
    };
    let stats = run(Time::ms(2));
    assert_eq!(
        stats.drops.get(&DropReason::LinkDown),
        Some(&10),
        "unstarted mid-burst packets must be accounted"
    );
    // The packet on the wire at failure time still arrives: 3 of 10
    // data packets are delivered.
    assert_eq!(stats.delivered_packets, 3);
    // Same scenario stopped at the failure instant (the stop bound is
    // inclusive, so the flush runs and nothing after it): the flush
    // alone accounts exactly the 7 unstarted packets.
    let flush_only = run(Time::us(30));
    assert_eq!(
        flush_only.drops.get(&DropReason::LinkDown),
        Some(&7),
        "set_down flush alone"
    );
}

/// A down/up flap while the serializer is busy: the train head scheduled
/// before the failure carries the pre-failure epoch and must be ignored
/// after recovery — honoring it would pop the new train early and
/// deliver packets faster than the cable can carry them. The UDP stream
/// keeps the link backlogged across the flap, so a train fed out of turn
/// would push the delivered count past the line-rate bound.
#[test]
fn stale_train_head_across_flap_is_ignored() {
    let topo = bottleneck();
    let h0 = topo.find("h0").unwrap();
    let h1 = topo.find("h1").unwrap();
    let s0 = topo.find("s0").unwrap();
    let s1 = topo.find("s1").unwrap();
    let mut sim = Simulator::new(
        topo,
        SimConfig {
            stop_at: Time::ms(1),
            ..SimConfig::default()
        },
    );
    install_static(&mut sim);
    // 2 Gbps offered into a 1 Gbps bottleneck: the queue never drains,
    // so a train head is always scheduled when the cable flaps.
    sim.add_flow(FlowSpec::Udp {
        src: h0,
        dst: h1,
        rate_bps: 2e9,
        start: Time::ZERO,
        stop: Time::us(900),
    });
    // Fail inside a serialization window and recover before the packet
    // in service would have arrived, so the stale head fires at a moment
    // the link is up and has a train again.
    sim.try_fail_link_at(s0, s1, Time::us(100)).unwrap();
    sim.try_recover_link_at(s0, s1, Time::us(103)).unwrap();
    let stats = sim.run().stats;
    assert!(
        *stats.drops.get(&DropReason::LinkDown).unwrap_or(&0) > 0,
        "the flap must flush something"
    );
    // 1500-byte datagrams take 12 µs each on the 1 Gbps cable: one
    // serializer cannot complete more than 1 ms / 12 µs of them.
    assert!(
        stats.delivered_packets <= 1_000 / 12,
        "{} deliveries exceed the bottleneck's line rate",
        stats.delivered_packets
    );
    // Nor may the flap leave the new train waiting for the head it
    // disowned: the cable is up and backlogged for all but 3 µs.
    assert!(
        stats.delivered_packets >= 70,
        "{} deliveries: the serializer stalled after the flap",
        stats.delivered_packets
    );
}

/// The same flap across a busy period nobody queued behind, which has no
/// train at all: a 0.5 Gbps stream leaves the bottleneck
/// idle between datagrams, the cable flaps while one is in service, and a
/// 2 Gbps burst follows. The serializer must neither stay taken by the
/// packet the failure cut short nor lose track of the backlog: once the
/// run has drained, every datagram sent has been delivered — under the
/// auditor, which checks conservation at both faults and at the end.
#[test]
fn flap_across_an_unqueued_busy_period_neither_stalls_nor_leaks() {
    let run = |flap: bool| {
        let topo = bottleneck();
        let [h0, h1, s0, s1] = ["h0", "h1", "s0", "s1"].map(|n| topo.find(n).unwrap());
        let mut sim = Simulator::new(
            topo,
            SimConfig {
                stop_at: Time::ms(2),
                audit: true,
                ..SimConfig::default()
            },
        );
        install_static(&mut sim);
        for (rate_bps, start, stop) in [
            (0.5e9, Time::ZERO, Time::us(200)),
            (2e9, Time::us(104), Time::us(500)),
        ] {
            sim.add_flow(FlowSpec::Udp {
                src: h0,
                dst: h1,
                rate_bps,
                start,
                stop,
            });
        }
        if flap {
            // Datagrams of the slow stream reach s0 every 24 µs from
            // 1.7 µs and take 12 µs: 100 µs is inside the fifth.
            sim.try_fail_link_at(s0, s1, Time::us(100)).unwrap();
            sim.try_recover_link_at(s0, s1, Time::us(103)).unwrap();
        }
        sim.run().stats
    };
    // Nothing is queued at 100 µs and nothing arrives before 103 µs: the
    // flap costs no packet, so it must not change the count at all.
    let (calm, flapped) = (run(false), run(true));
    assert!(calm.drops.is_empty(), "{:?}", calm.drops);
    assert!(flapped.drops.is_empty(), "{:?}", flapped.drops);
    assert_eq!(flapped.delivered_packets, calm.delivered_packets);
    assert!(calm.delivered_packets > 70, "{}", calm.delivered_packets);
}

/// Scheduling a fault on a cable that does not exist is a typed error —
/// and, critically, `try_fail_link_at` and `try_recover_link_at` apply
/// the *same* validation. Recovery used to accept unknown cables
/// silently, so a typo'd recovery no-opped while its paired failure
/// stuck forever.
#[test]
fn fault_scheduling_validates_symmetrically() {
    let topo = bottleneck();
    let s0 = topo.find("s0").unwrap();
    let s1 = topo.find("s1").unwrap();
    let h0 = topo.find("h0").unwrap();
    let h1 = topo.find("h1").unwrap();
    let mut sim = Simulator::new(topo, SimConfig::default());

    // h0 and h1 hang off different switches: no cable in either
    // direction. Failure and recovery must reject it identically.
    assert_eq!(
        sim.try_fail_link_at(h0, h1, Time::us(1)),
        Err(FaultError::UnknownCable { a: h0, b: h1 })
    );
    assert_eq!(
        sim.try_recover_link_at(h0, h1, Time::us(1)),
        Err(FaultError::UnknownCable { a: h0, b: h1 })
    );
    // Existing cables pass in both orientations.
    assert_eq!(sim.try_fail_link_at(s0, s1, Time::us(1)), Ok(()));
    assert_eq!(sim.try_recover_link_at(s1, s0, Time::us(2)), Ok(()));
}

/// `LinkDown` on an already-down link and `LinkUp` on an already-up link
/// are explicit no-ops: a doubled failure (or doubled recovery) produces
/// byte-identical statistics to the single one. This idempotence is what
/// lets chaos plans overlap failures without any bookkeeping.
#[test]
fn doubled_fault_events_are_noops() {
    let run = |doubled: bool| {
        let topo = bottleneck();
        let h0 = topo.find("h0").unwrap();
        let h1 = topo.find("h1").unwrap();
        let s0 = topo.find("s0").unwrap();
        let s1 = topo.find("s1").unwrap();
        let mut sim = Simulator::new(
            topo,
            SimConfig {
                stop_at: Time::ms(1),
                ..SimConfig::default()
            },
        );
        install_static(&mut sim);
        sim.add_flow(FlowSpec::Udp {
            src: h0,
            dst: h1,
            rate_bps: 2e9,
            start: Time::ZERO,
            stop: Time::us(900),
        });
        sim.try_fail_link_at(s0, s1, Time::us(100)).unwrap();
        sim.try_recover_link_at(s0, s1, Time::us(150)).unwrap();
        if doubled {
            // Second failure while already down, second recovery while
            // already up — both must change nothing, not even a fault
            // epoch (no state transition, no epoch).
            sim.try_fail_link_at(s0, s1, Time::us(120)).unwrap();
            sim.try_recover_link_at(s0, s1, Time::us(180)).unwrap();
        }
        let stats = sim.run().stats;
        assert_eq!(
            stats.fault_epochs.len(),
            2,
            "exactly one down + one up epoch regardless of doubling"
        );
        let traffic = format!(
            "delivered={} drops={:?} wire={}",
            stats.delivered_packets,
            stats.drops,
            stats.total_wire_bytes(),
        );
        (traffic, stats.events_processed)
    };
    let (single, single_events) = run(false);
    let (doubled, doubled_events) = run(true);
    assert_eq!(single, doubled, "doubled fault events must be invisible");
    // The two redundant events are popped and discarded — the only
    // trace they leave is the event count itself.
    assert_eq!(doubled_events, single_events + 2);
}
