//! `ProtocolHarness::traffic_path` forwards a packet through the
//! switches, so it ends where the engine would drop the packet.

use contra_core::Compiler;
use contra_dataplane::{DataplaneConfig, ProtocolHarness};
use contra_topology::generators;
use std::sync::Arc;

/// Traffic never crosses a down cable. Right after the r1–r0 cable
/// fails, before any switch has noticed (r0's tables still point at r1),
/// r0's packet to r1 is dropped where the engine drops it (`LinkDown`).
/// In the rounds after, no pair's path crosses the cable.
#[test]
fn traffic_path_never_crosses_a_down_cable() {
    let topo = generators::random_connected(6, 4, generators::LinkSpec::default(), 0);
    let (r1, r0) = (topo.links()[0].src, topo.links()[0].dst);
    let cp = Compiler::new(&topo)
        .compile_str("minimize(path.util)")
        .unwrap();
    let mut h = ProtocolHarness::new(&topo, Arc::new(cp), DataplaneConfig::default());
    h.run_rounds(3);
    h.fail_link(r1, r0);
    assert_eq!(h.traffic_path(r0, r1), None);
    let switches = topo.switches();
    for round in 0..12 {
        h.run_round();
        for &s in &switches {
            for &d in switches.iter().filter(|&&d| d != s) {
                let Some(p) = h.traffic_path(s, d) else {
                    continue;
                };
                assert!(
                    !p.windows(2).any(|w| w == [r0, r1] || w == [r1, r0]),
                    "round {round}: {s}→{d} crosses the down cable: {p:?}"
                );
            }
        }
    }
}
