//! A switch program's counts leave it one way: at the end of a run the
//! engine reads every switch's `SwitchLogic::counters` and sums them into
//! `SimStats::switches`.

use contra_sim::{
    Packet, SimConfig, Simulator, SwitchCounters, SwitchCtx, SwitchLogic, Time, Verdict,
};
use contra_topology::{NodeId, Topology};

/// A switch that routes nothing and reports fixed counters.
struct Counting(SwitchCounters);

impl SwitchLogic for Counting {
    fn on_packet(&mut self, _: &mut SwitchCtx<'_>, _: &mut Packet, _: NodeId) -> Verdict {
        Verdict::NoRoute
    }

    fn counters(&self) -> SwitchCounters {
        self.0
    }
}

#[test]
fn a_run_sums_every_switchs_counters() {
    let mut t = Topology::builder();
    let (s0, s1) = (t.switch("s0"), t.switch("s1"));
    t.biline(s0, s1, 1e9, 1_000);
    let cfg = SimConfig {
        stop_at: Time::ms(1),
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(t.build(), cfg);
    let counters = |n: u64| SwitchCounters {
        probes_sent: n,
        table_updates: 2 * n,
        flowlets_displaced: 3 * n,
        loops_displaced: 4 * n,
        loop_breaks: 5 * n,
    };
    sim.install(s0, Box::new(Counting(counters(1))));
    sim.install(s1, Box::new(Counting(counters(10))));
    assert_eq!(sim.run().stats.switches, counters(11));
}
