//! Quickstart: write a policy, compile it against a topology, inspect the
//! result, emit the P4 program for one switch — then run the same policy
//! live in the packet simulator through the `Scenario` API.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use contra::core::{parse_policy, Compiler};
use contra::experiments::{Contra, Ecmp, RoutingSystem, Scenario, SweepSpec, Traffic, Workload};
use contra::p4gen;
use contra::sim::Time;
use contra::topology::{generators, Topology};

fn main() {
    // A small WAN-ish topology: two paths from A to D, one through a
    // scrubbing middlebox M.
    let mut t = Topology::builder();
    let a = t.switch("A");
    let b = t.switch("B");
    let m = t.switch("M");
    let d = t.switch("D");
    t.biline(a, b, 10e9, 1_000);
    t.biline(b, d, 10e9, 1_000);
    t.biline(a, m, 10e9, 2_000);
    t.biline(m, d, 10e9, 2_000);
    let topo = t.build();

    // Policy: traffic must pass the middlebox M; among compliant paths,
    // prefer the least utilized.
    let policy_src = "minimize(if .* M .* then path.util else inf)";
    let policy = parse_policy(policy_src).expect("policy parses");
    println!("policy: {policy}");

    let compiled = Compiler::new(&topo).compile(&policy).expect("compiles");
    println!(
        "compiled: {} probe subpolicies, {} product-graph virtual nodes, {} switch programs",
        compiled.num_pids(),
        compiled.total_tags(),
        compiled.programs.len()
    );
    for w in &compiled.warnings {
        println!("warning: {w}");
    }
    println!(
        "probe period floor (0.5 × max RTT): {} ns",
        compiled.min_probe_period_ns
    );

    // The rank the policy assigns to concrete paths (static check).
    let idle = |_x, _y| (0.0, 1e-6);
    println!(
        "rank(A-M-D) = {}   rank(A-B-D) = {}",
        compiled.rank_of_path(&[a, m, d], idle),
        compiled.rank_of_path(&[a, b, d], idle)
    );

    // Emit and validate the P4 program for switch A.
    let p4 = p4gen::emit_switch_program(&compiled, a);
    assert!(p4gen::validate(&p4).is_empty(), "emitted P4 must validate");
    let preview: String = p4.lines().take(12).collect::<Vec<_>>().join("\n");
    println!("--- P4 for switch A (first 12 lines) ---\n{preview}\n...");
    println!(
        "switch A needs {:.1} kB of runtime state",
        p4gen::switch_state(&compiled, a).total_kb()
    );

    // Now run the same policy live: attach one host per switch and offer
    // cache-style traffic at 40% load, Contra vs ECMP.
    let hosted = generators::with_hosts(&topo, 1, generators::LinkSpec::default());
    let scenario = Scenario::custom("middlebox-diamond", hosted)
        .traffic(Traffic::Poisson {
            workload: Workload::Cache,
            pairs: contra::experiments::Pairs::HalfSendersHalfReceivers,
        })
        // Not a leaf-spine fabric, so give the load an explicit reference
        // capacity: one 10 Gbps link's worth. (The load itself comes from
        // the sweep below.)
        .capacity_bps(10e9)
        .duration(Time::ms(10))
        .warmup(Time::ms(1))
        .drain(Time::ms(15));
    let systems: [&dyn RoutingSystem; 2] = [&Contra::new(policy_src), &Ecmp];
    for r in SweepSpec::new(scenario)
        .systems(&systems)
        .loads(&[0.4])
        .run()
    {
        println!(
            "live {}: mean FCT {:?} ms, completion {:.3}",
            r.system, r.figures.mean_fct_ms, r.figures.completion_rate
        );
    }
}
