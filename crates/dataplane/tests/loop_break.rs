//! §5.5 at one switch, driven by hand through `SwitchCtx::new`: TTL drift
//! on a flow flushes its pins and is counted as a loop break.

use contra_core::Compiler;
use contra_dataplane::switch::LOOP_DELTA_THRESHOLD;
use contra_dataplane::{ContraSwitch, DataplaneConfig, ProtocolHarness};
use contra_sim::{
    FlowId, LinkState, Packet, PacketKind, SwitchCtx, SwitchLogic, Time, Verdict, HDR_BYTES,
    INITIAL_TTL,
};
use contra_topology::{NodeId, Topology};
use std::sync::Arc;

/// S pins a packet of a flow toward A; when the same packet comes back
/// from A `LOOP_DELTA_THRESHOLD` hops later, S flushes the flow's pin
/// and counts one loop break.
#[test]
fn ttl_drift_flushes_the_pin_and_counts_a_loop_break() {
    let mut t = Topology::builder();
    let (s, a, d) = (t.switch("S"), t.switch("A"), t.switch("D"));
    t.biline(s, a, 10e9, 1_000);
    t.biline(a, d, 10e9, 1_000);
    let topo = t.build();
    let cp = Compiler::new(&topo).compile_str("minimize(path.util)");
    let cp = Arc::new(cp.unwrap());
    let mut h = ProtocolHarness::new(&topo, cp.clone(), DataplaneConfig::for_policy(&cp));
    h.run_rounds(3);
    let mut sw = h.switch(s).clone();
    let links: Vec<LinkState> = (topo.links().iter())
        .map(|l| LinkState::new(l.bandwidth_bps, Time(l.delay_ns), 0, Time::us(100)))
        .collect();
    let host = NodeId(u32::MAX);
    let mut pkt = Packet {
        id: 0,
        kind: PacketKind::Data,
        src_host: host,
        dst_host: host,
        dst_switch: d,
        flow: FlowId(0),
        seq: 0,
        size_bytes: HDR_BYTES,
        sent_at: h.now(),
        tag: 0,
        pid: 0,
        ttl: INITIAL_TTL,
        flow_hash: 7,
    };
    let step = |sw: &mut ContraSwitch, pkt: &mut Packet, from| {
        let mut ctx = SwitchCtx::new(s, h.now(), &topo, &links, Vec::new());
        sw.on_packet(&mut ctx, pkt, from)
    };
    assert_eq!(step(&mut sw, &mut pkt, host), Verdict::Forward(a));
    assert_eq!(sw.state().flowlets.len(), 1);
    // Back from A, stamped with A's tag, which S has no row for.
    pkt.ttl -= LOOP_DELTA_THRESHOLD;
    assert_eq!(step(&mut sw, &mut pkt, a), Verdict::NoRoute);
    assert_eq!(sw.state().flowlets.len(), 0, "the flow's pin is flushed");
    let c = sw.counters();
    assert_eq!((c.loop_breaks, c.loops_displaced), (1, 0));
}
