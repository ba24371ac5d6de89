//! Integration: the full compilation pipeline — parse → analyze → product
//! graph → switch programs → P4 emission — for every catalogue policy
//! (Fig 3), followed by protocol convergence in the stable-metric harness,
//! and the two places the emitted program and the simulated switch must
//! agree: register-array sizes and the table rows Fig 10 charges for.

use contra::core::{policies, CompiledPolicy, Compiler};
use contra::dataplane::{DataplaneConfig, ProtocolHarness};
use contra::p4gen;
use contra::topology::{generators, Topology};
use std::sync::Arc;

/// The Fig 6 running-example topology plus an extra edge for diversity.
fn topo() -> Topology {
    let mut t = Topology::builder();
    let a = t.switch("A");
    let b = t.switch("B");
    let c = t.switch("C");
    let d = t.switch("D");
    let x = t.switch("X");
    let y = t.switch("Y");
    t.biline(a, b, 10e9, 1_000);
    t.biline(a, c, 10e9, 1_000);
    t.biline(b, c, 10e9, 1_000);
    t.biline(b, d, 10e9, 1_000);
    t.biline(c, d, 10e9, 1_000);
    t.biline(x, a, 10e9, 1_000);
    t.biline(x, y, 10e9, 1_000);
    t.biline(y, b, 10e9, 1_000);
    t.build()
}

#[test]
fn all_catalogue_policies_compile_emit_and_converge() {
    let topo = topo();
    let compiler = Compiler::new(&topo);
    for (name, src) in policies::catalogue("B", "C", "X", "Y") {
        let cp = match compiler.compile_str(&src) {
            Ok(cp) => Arc::new(cp),
            Err(e) => panic!("{name}: {e}"),
        };
        // Every switch program emits valid P4.
        for &sw in cp.programs.keys() {
            let p4 = p4gen::emit_switch_program(&cp, sw);
            let errs = p4gen::validate(&p4);
            assert!(errs.is_empty(), "{name} @ {sw}: {errs:?}");
        }
        // The protocol converges and produces *some* routing for at least
        // one pair (policies constrain which pairs are reachable).
        let mut h = ProtocolHarness::new(&topo, cp.clone(), DataplaneConfig::default());
        h.run_rounds(3);
        let mut routed = 0;
        for src_sw in topo.switches() {
            for dst_sw in topo.switches() {
                if src_sw == dst_sw {
                    continue;
                }
                if let Some(p) = h.traffic_path(src_sw, dst_sw) {
                    routed += 1;
                    // Paths delivered by the protocol must be compliant:
                    // their full rank is finite.
                    let r = h.oracle_rank(&p);
                    assert!(!r.is_inf(), "{name}: non-compliant path {p:?}");
                }
            }
        }
        assert!(routed > 0, "{name}: protocol routed nothing");
    }
}

/// The value of `const bit<32> NAME = value;` in an emitted program.
fn p4_const(p4: &str, name: &str) -> usize {
    let decl = format!("const bit<32> {name} = ");
    let at = p4.find(&decl).unwrap_or_else(|| panic!("no {name}")) + decl.len();
    let digits = p4[at..].split(';').next().unwrap();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("{name} = {digits:?}"))
}

/// One definition: the flowlet and loop register arrays a
/// default-configured simulated switch allocates are the ones its
/// emitted program declares.
#[test]
fn simulated_register_arrays_have_the_emitted_sizes() {
    let topo = topo();
    let compiler = Compiler::new(&topo);
    for (name, src) in policies::catalogue("B", "C", "X", "Y") {
        let cp = Arc::new(compiler.compile_str(&src).unwrap());
        let h = ProtocolHarness::new(&topo, cp.clone(), DataplaneConfig::default());
        for &sw in cp.programs.keys() {
            let p4 = p4gen::emit_switch_program(&cp, sw);
            assert_eq!(
                (p4_const(&p4, "FLOWLET_SIZE"), p4_const(&p4, "LOOP_SIZE")),
                h.switch(sw).register_slots(),
                "{name} @ {sw}: emitted (flowlet, loop) sizes vs simulated slots"
            );
        }
    }
}

/// State fit: after convergence no simulated switch stores more FwdT or
/// BestT rows than `p4gen::switch_state` sizes (and Fig 10 prices) them at.
#[test]
fn converged_tables_fit_the_fig10_state_model() {
    fn check(topo: &Topology, name: &str, cp: CompiledPolicy) {
        let cp = Arc::new(cp);
        let mut h = ProtocolHarness::new(topo, cp.clone(), DataplaneConfig::default());
        h.run_rounds(3);
        let dests = cp.destinations.len();
        let pids = cp.num_pids().max(1);
        for (&sw, prog) in &cp.programs {
            let (fwdt, best) = h.switch(sw).table_rows();
            let fwdt_cap = dests * prog.tags.len().max(1) * pids;
            assert!(fwdt > 0, "{name} @ {sw}: nothing converged");
            assert!(
                fwdt <= fwdt_cap,
                "{name} @ {sw}: {fwdt} FwdT rows > {fwdt_cap}"
            );
            assert!(best <= dests, "{name} @ {sw}: {best} BestT rows > {dests}");
        }
    }
    let fig6 = topo();
    for (name, src) in policies::catalogue("B", "C", "X", "Y") {
        check(&fig6, name, Compiler::new(&fig6).compile_str(&src).unwrap());
    }
    let fat_tree = generators::fat_tree(4, 0, generators::LinkSpec::default());
    for (name, src) in [
        ("MU", "minimize(path.util)"),
        (
            "WP",
            "minimize(if .*(core0+core1).* then path.util else inf)",
        ),
        (
            "CA",
            "minimize(if path.util < .8 then (1, 0, path.util) else (2, path.len, path.util))",
        ),
    ] {
        let cp = Compiler::new(&fat_tree).compile_str(src).unwrap();
        check(&fat_tree, name, cp);
    }
}

#[test]
fn fig9_style_sweep_compiles_fast() {
    // A miniature Fig 9 check: the paper compiles 500-switch networks in
    // seconds; a 125-switch fat-tree must compile in well under one.
    let topo = generators::fat_tree(10, 0, generators::LinkSpec::default());
    let started = std::time::Instant::now();
    let cp = Compiler::new(&topo)
        .compile_str(&policies::min_util())
        .unwrap();
    let secs = started.elapsed().as_secs_f64();
    assert_eq!(cp.programs.len(), 125);
    assert!(secs < 5.0, "compilation took {secs}s");
}

#[test]
fn non_isotonic_policy_warns_but_compiles() {
    let topo = topo();
    let cp = Compiler::new(&topo)
        .compile_str(&policies::widest_shortest())
        .unwrap();
    assert!(
        !cp.warnings.is_empty(),
        "P3 (util, len) must trigger the isotonicity warning"
    );
}

#[test]
fn compile_scales_across_topology_families() {
    for topo in [
        generators::fat_tree(4, 0, generators::LinkSpec::default()),
        generators::random_connected(60, 120, generators::LinkSpec::default(), 5),
        generators::abilene(40e9),
    ] {
        let cp = Compiler::new(&topo)
            .compile_str(&policies::congestion_aware())
            .unwrap();
        assert_eq!(cp.num_pids(), 2);
        assert_eq!(cp.programs.len(), topo.num_switches());
        assert!(p4gen::max_switch_state_kb(&cp) < 150.0);
    }
}
