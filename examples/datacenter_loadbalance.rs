//! Datacenter load balancing: the paper's §6.3 comparison — Contra
//! (least-utilized shortest paths) vs ECMP vs Hula on a leaf-spine fabric
//! with a production-like workload — as one sweep.
//!
//! ```sh
//! cargo run --release --example datacenter_loadbalance
//! ```

use contra::experiments::{Contra, Ecmp, Hula, RoutingSystem, Scenario, SweepSpec};
use contra::sim::Time;

fn main() {
    let scenario = Scenario::leaf_spine(4, 2, 8)
        .duration(Time::ms(25))
        .warmup(Time::ms(2))
        .drain(Time::ms(35))
        .seed(7);
    let contra = Contra::dc();
    let systems: [&dyn RoutingSystem; 3] = [&Ecmp, &contra, &Hula];

    println!("load  system  fct_ms  completion   (web-search workload, 32 hosts, 4:1 oversub)");
    let sweep = SweepSpec::new(scenario).systems(&systems);
    for r in sweep.loads(&[0.3, 0.6, 0.8]).run() {
        println!(
            "{:>4.0}%  {:<6}  {:>6.3}  {:>10.3}",
            r.scenario.load * 100.0,
            r.system,
            r.figures.mean_fct_ms.unwrap_or(f64::NAN),
            r.figures.completion_rate
        );
    }
    println!("expected: Contra ~ Hula, both well under ECMP at high load");
}
