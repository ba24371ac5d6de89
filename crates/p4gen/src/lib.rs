//! # contra-p4gen — the P4₁₆ backend
//!
//! Renders each compiled `SwitchProgram` as a P4₁₆ (v1model) program
//! ([`emit_switch_program`]), checks the output's structural consistency
//! ([`validate()`]) and models per-switch SRAM use ([`state`]) — the numbers
//! behind Figure 10.
//!
//! The simulator (`contra-dataplane`) and this backend consume the same
//! IR, but the emitted programs encode only part of what the simulated
//! switch does: the product-graph tables, the multicast groups and the
//! register layout, with no version check and no rank comparison (see
//! [`emit`]). Making them encode the protocol is ROADMAP item 2.

pub mod emit;
pub mod state;
pub mod validate;

pub use contra_core::{FLOWLET_ENTRIES, LOOP_ENTRIES};
pub use emit::{emit_all, emit_switch_program};
pub use state::{max_switch_state_kb, switch_state, StateModel};
pub use validate::{validate, ValidationError};

#[cfg(test)]
mod tests {
    use super::*;
    use contra_core::Compiler;
    use contra_topology::{generators, Topology};

    fn fig6_topo() -> Topology {
        let mut t = Topology::builder();
        let a = t.switch("A");
        let b = t.switch("B");
        let c = t.switch("C");
        let d = t.switch("D");
        t.biline(a, b, 10e9, 1_000);
        t.biline(a, c, 10e9, 1_000);
        t.biline(b, c, 10e9, 1_000);
        t.biline(b, d, 10e9, 1_000);
        t.biline(c, d, 10e9, 1_000);
        t.build()
    }

    #[test]
    fn emitted_programs_validate_for_catalogue_policies() {
        let topo = fig6_topo();
        let compiler = Compiler::new(&topo);
        for (name, src) in contra_core::policies::catalogue("A", "B", "B", "D") {
            let Ok(cp) = compiler.compile_str(&src) else {
                continue; // some catalogue policies may forbid all paths here
            };
            for &sw in cp.programs.keys() {
                let p4 = emit_switch_program(&cp, sw);
                let errs = validate(&p4);
                assert!(errs.is_empty(), "{name} @ {sw}: {errs:?}\n{p4}");
            }
        }
    }

    #[test]
    fn program_structure_reflects_policy() {
        let topo = fig6_topo();
        let cp = Compiler::new(&topo)
            .compile_str(
                "minimize(if path.util < .8 then (1, 0, path.util) else (2, path.len, path.util))",
            )
            .unwrap();
        let a = topo.find("A").unwrap();
        let p4 = emit_switch_program(&cp, a);
        // CA carries util and len but not lat.
        assert!(p4.contains("m_util"));
        assert!(p4.contains("m_len"));
        assert!(!p4.contains("m_lat"));
        // Both runtime tables and the §5 structures are present.
        for needle in [
            "fwdt_version",
            "best_tag",
            "flowlet_ts",
            "loop_max_ttl",
            "next_pg_node",
            "probe_multicast",
            "V1Switch",
        ] {
            assert!(p4.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn const_entries_match_compiled_maps() {
        let topo = fig6_topo();
        let cp = Compiler::new(&topo)
            .compile_str("minimize(path.util)")
            .unwrap();
        let b = topo.find("B").unwrap();
        let p4 = emit_switch_program(&cp, b);
        let prog = &cp.programs[&b];
        for (from, to) in cp.next_pg_node(b) {
            assert!(
                p4.contains(&format!("{}: set_next_pg_node({});", from.0, to.0)),
                "missing NEXTPGNODE entry {} -> {}",
                from.0,
                to.0
            );
        }
        // One multicast group per local vnode with successors.
        let groups = p4.matches("mcast-group").count();
        let fanouts = prog.tags.iter().filter(|&v| !cp.pg.succs(v).is_empty());
        assert_eq!(groups, fanouts.count());
    }

    /// The validator takes every static block of an emitted program by
    /// comparison: an emitter edit that moves one off a line start fails
    /// here instead of making validation read it again.
    #[test]
    fn validation_skips_every_static_block() {
        let fig6 = fig6_topo();
        let fat_tree = generators::fat_tree(4, 0, generators::LinkSpec::default());
        let mut programs = 0;
        for topo in [&fig6, &fat_tree] {
            let compiler = Compiler::new(topo);
            let s = topo.switches();
            let (w1, w2) = (&topo.node(s[0]).name, &topo.node(s[1]).name);
            let suite = [
                ("MU", contra_core::policies::min_util()),
                ("WP", contra_core::policies::waypoint(w1, w2)),
                ("CA", contra_core::policies::congestion_aware()),
            ];
            let catalogue = contra_core::policies::catalogue("A", "B", "B", "D");
            for (name, src) in suite.into_iter().chain(catalogue) {
                let Ok(cp) = compiler.compile_str(&src) else {
                    continue;
                };
                for (sw, p4) in emit_all(&cp, topo) {
                    let written: usize = emit::STATIC_TEXT
                        .iter()
                        .map(|text| p4.matches(text).count() * text.len())
                        .sum();
                    assert!(written * 4 > p4.len() * 3, "{name} @ {sw}");
                    assert_eq!(validate::skipped_bytes(&p4), written, "{name} @ {sw}");
                    programs += 1;
                }
            }
        }
        assert!(programs > 20, "{programs} programs");
    }

    #[test]
    fn emit_all_covers_every_switch() {
        let topo = generators::fat_tree(4, 0, generators::LinkSpec::default());
        let cp = Compiler::new(&topo)
            .compile_str("minimize(path.util)")
            .unwrap();
        let all = emit_all(&cp, &topo);
        assert_eq!(all.len(), 20);
        for (name, p4) in &all {
            assert!(validate(p4).is_empty(), "{name} invalid");
        }
    }
}
