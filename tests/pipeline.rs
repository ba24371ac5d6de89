//! Integration: the full compilation pipeline — parse → analyze → product
//! graph → switch programs → P4 emission — for every catalogue policy
//! (Fig 3), followed by protocol convergence in the stable-metric harness,
//! and the two places the emitted program and the simulated switch must
//! agree: register-array sizes and the table rows Fig 10 charges for.
//! `compile_fingerprint` pins what the compiler and the emitter hand on,
//! `verify_fingerprint` what the static verifier reports.

use contra::core::{policies, verify, CompiledPolicy, Compiler, Report, VNodeId};
use contra::dataplane::{DataplaneConfig, ProtocolHarness};
use contra::p4gen;
use contra::sim::FxHasher64;
use contra::topology::{generators, NodeId, NodeKind, Topology};
use std::hash::Hasher;
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
        let cfg = DataplaneConfig::for_policy(&cp);
        let mut h = ProtocolHarness::new(&topo, cp.clone(), cfg);
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

/// One definition: the flowlet and loop register arrays a simulated
/// switch configured by `DataplaneConfig::for_policy` allocates are the ones its
/// emitted program declares.
#[test]
fn simulated_register_arrays_have_the_emitted_sizes() {
    let topo = topo();
    let compiler = Compiler::new(&topo);
    for (name, src) in policies::catalogue("B", "C", "X", "Y") {
        let cp = Arc::new(compiler.compile_str(&src).unwrap());
        let h = ProtocolHarness::new(&topo, cp.clone(), DataplaneConfig::for_policy(&cp));
        for &sw in cp.programs.keys() {
            let p4 = p4gen::emit_switch_program(&cp, sw);
            let state = h.switch(sw).state();
            assert_eq!(
                (p4_const(&p4, "FLOWLET_SIZE"), p4_const(&p4, "LOOP_SIZE")),
                (state.flowlets.slots(), state.loops.slots()),
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
        let mut h = ProtocolHarness::new(topo, cp.clone(), DataplaneConfig::for_policy(&cp));
        h.run_rounds(3);
        let dests = cp.destinations.len();
        let pids = cp.num_pids().max(1);
        for (&sw, prog) in &cp.programs {
            let state = h.switch(sw).state();
            let (fwdt, best) = (state.fwdt.len(), state.best.len());
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

/// Everything the compiler hands on, item by item: the product graph
/// (every vnode with its states and acceptance bits, the successor rows,
/// the vnodes of each switch that has some, `sending`), every
/// `SwitchProgram` with its `NEXTPGNODE` rows and its fan-out per tag
/// that has one, the destinations and the probe-period floor. Lengths are
/// hashed with the items so that moving an item between two lists shows.
fn ir_digest(cp: &CompiledPolicy) -> u64 {
    let mut h = FxHasher64::default();
    let mut put = |x: usize| h.write_u64(x as u64);
    let pg = &cp.pg;
    let ids = || (0..pg.len() as u32).map(VNodeId);
    put(pg.len());
    for v in ids() {
        put(pg.vnode(v).switch.0 as usize);
        put(pg.states(v).len());
        pg.states(v).iter().for_each(|&s| put(s));
        put(pg.acc(v).len());
        pg.acc(v).iter().for_each(|&a| put(a as usize));
        put(pg.vnode(v).tag as usize);
        put(pg.vnode(v).finite as usize);
    }
    put(pg.len());
    for v in ids() {
        put(pg.succs(v).len());
        pg.succs(v).iter().for_each(|w| put(w.0 as usize));
    }
    // Vnodes live only at switches, and every switch has a program.
    let occupied = || {
        cp.programs
            .keys()
            .filter(|&&sw| !pg.vnodes_at(sw).is_empty())
    };
    put(occupied().count());
    for &sw in occupied() {
        put(sw.0 as usize);
        put(pg.vnodes_at(sw).len());
        pg.vnodes_at(sw).iter().for_each(|v| put(v.0 as usize));
    }
    put(pg.sending.len());
    for (d, v) in &pg.sending {
        put(d.0 as usize);
        put(v.0 as usize);
    }
    put(cp.programs.len());
    for (&sw, prog) in &cp.programs {
        put(sw.0 as usize);
        put(prog.switch.0 as usize);
        put(prog.tags.len());
        prog.tags.iter().for_each(|v| put(v.0 as usize));
        put(cp.next_pg_node(sw).len());
        for (from, to) in cp.next_pg_node(sw) {
            put(from.0 as usize);
            put(to.0 as usize);
        }
        let groups = || prog.tags.iter().filter(|&v| !pg.succs(v).is_empty());
        put(groups().count());
        for v in groups() {
            put(v.0 as usize);
            put(pg.succs(v).len());
            for &w in pg.succs(v) {
                put(pg.vnode(w).switch.0 as usize);
                put(w.0 as usize);
            }
        }
        put(prog.sending_vnode.map_or(usize::MAX, |v| v.0 as usize));
    }
    put(cp.destinations.len());
    cp.destinations.iter().for_each(|d| put(d.0 as usize));
    put(cp.min_probe_period_ns as usize);
    h.finish()
}

/// Every emitted program's name and text, in `emit_all`'s order.
fn p4_digest(cp: &CompiledPolicy, topo: &Topology) -> u64 {
    let mut h = FxHasher64::default();
    for (name, text) in p4gen::emit_all(cp, topo) {
        h.write(name.as_bytes());
        h.write_u64(text.len() as u64);
        h.write(text.as_bytes());
    }
    h.finish()
}

/// The MU / WP / CA texts of the scaling ladder, waypoints drawn from the
/// topology's first two switches.
fn ladder(topo: &Topology) -> Vec<(&'static str, String)> {
    let s = topo.switches();
    let (f1, f2) = (&topo.node(s[0]).name, &topo.node(s[1]).name);
    vec![
        ("MU", policies::min_util()),
        ("WP", policies::waypoint(f1, f2)),
        ("CA", policies::congestion_aware()),
    ]
}

/// The compiler's and the emitter's output, pinned per (topology, policy)
/// cell: P1–P9 on the Fig 6 topology, fat-tree(4) with hosts and Abilene,
/// and the MU / WP / CA texts of the scaling ladder on fat-tree(8) and a
/// 100-switch random network. A change to how the product graph, the
/// tables or the programs are *built* must leave every row as it is; a
/// row moves only with a deliberate change to what they *are*.
#[test]
fn compile_fingerprint() {
    let spec = generators::LinkSpec::default;
    let catalogue = policies::catalogue;
    let fat8 = generators::fat_tree(8, 0, spec());
    let random = generators::random_connected(100, 200, spec(), 42);
    let cells = [
        ("fig6", topo(), catalogue("B", "C", "X", "Y")),
        (
            "fat-tree(4)",
            generators::fat_tree(4, 1, spec()),
            catalogue("core0", "core1", "agg0_0", "edge0_0"),
        ),
        (
            "abilene",
            generators::abilene(40e9),
            catalogue("Denver", "KansasCity", "Denver", "KansasCity"),
        ),
        ("fat-tree(8)", fat8.clone(), ladder(&fat8)),
        ("random(100)", random.clone(), ladder(&random)),
    ];
    let mut got = String::new();
    for (label, topo, suite) in &cells {
        for (policy, text) in suite {
            let policy = policy.split(' ').next().unwrap();
            let cp = Compiler::new(topo)
                .compile_str(text)
                .unwrap_or_else(|e| panic!("{label}/{policy}: {e}"));
            got.push_str(&format!(
                "{label}/{policy} vnodes={} ir={:016x} p4={:016x}\n",
                cp.pg.len(),
                ir_digest(&cp),
                p4_digest(&cp, topo)
            ));
        }
    }
    assert_eq!(got, COMPILE_FINGERPRINT, "got:\n{got}");
}

/// Captured at commit 593a935, before the operator path was rebuilt over
/// flat arrays.
const COMPILE_FINGERPRINT: &str = "\
fig6/P1 vnodes=6 ir=190faa6d81fcea09 p4=c7735662260fb15d\n\
fig6/P2 vnodes=6 ir=190faa6d81fcea09 p4=a5f9a5da8e928d1d\n\
fig6/P3 vnodes=6 ir=190faa6d81fcea09 p4=3a50b04eb1c4d9d5\n\
fig6/P4 vnodes=6 ir=190faa6d81fcea09 p4=dc712a361747ba08\n\
fig6/P5 vnodes=10 ir=759c149fceaee039 p4=53b58b40017a7f92\n\
fig6/P6 vnodes=12 ir=51d00c3c872cf255 p4=fda7f5e6f24b6a90\n\
fig6/P7 vnodes=12 ir=715cb8d526caf8a2 p4=4e11453a26152c2b\n\
fig6/P8 vnodes=6 ir=86c8c85555c4c425 p4=c5b045b9eba4e2a9\n\
fig6/P9 vnodes=6 ir=190faa6d81fcea09 p4=dd672d9a0c37e11c\n\
fat-tree(4)/P1 vnodes=20 ir=765b2551274e4b3b p4=7267e4e193c4767b\n\
fat-tree(4)/P2 vnodes=20 ir=765b2551274e4b3b p4=59d16fd2db081408\n\
fat-tree(4)/P3 vnodes=20 ir=765b2551274e4b3b p4=7633a635f5d7fbda\n\
fat-tree(4)/P4 vnodes=20 ir=765b2551274e4b3b p4=5fe7e346c09eea77\n\
fat-tree(4)/P5 vnodes=38 ir=ca02c592115e03c8 p4=495229feaa72b4d8\n\
fat-tree(4)/P6 vnodes=40 ir=2621de2a4e2a9af8 p4=f1c152e23867eadf\n\
fat-tree(4)/P7 vnodes=40 ir=49700be2415723eb p4=6a95d6847f3bfe2a\n\
fat-tree(4)/P8 vnodes=20 ir=770c200030d28a7d p4=06a9b3da945726eb\n\
fat-tree(4)/P9 vnodes=20 ir=765b2551274e4b3b p4=d10f845508eed420\n\
abilene/P1 vnodes=11 ir=fe2cf09893156d41 p4=ee9038427756e584\n\
abilene/P2 vnodes=11 ir=fe2cf09893156d41 p4=37bd6fceed44b804\n\
abilene/P3 vnodes=11 ir=fe2cf09893156d41 p4=d6e31ed74c5fc01d\n\
abilene/P4 vnodes=11 ir=fe2cf09893156d41 p4=e43810500163da6a\n\
abilene/P5 vnodes=20 ir=6230f7dcae5706a3 p4=d013e5ee853c612c\n\
abilene/P6 vnodes=22 ir=eea6559af4e76e64 p4=ae22c3d48c910237\n\
abilene/P7 vnodes=22 ir=9094e73136fc1a89 p4=becbf97186b66462\n\
abilene/P8 vnodes=11 ir=f433d0ed97e8d988 p4=7f84a04654337bf3\n\
abilene/P9 vnodes=11 ir=fe2cf09893156d41 p4=81f08d40d3fc8520\n\
fat-tree(8)/MU vnodes=80 ir=2de3bcbae1a576c5 p4=5fc0f793226c8d24\n\
fat-tree(8)/WP vnodes=158 ir=332a3901e0cac4aa p4=60e97ac419abc9bf\n\
fat-tree(8)/CA vnodes=80 ir=2de3bcbae1a576c5 p4=388c9b7feadf02b4\n\
random(100)/MU vnodes=100 ir=b748bb3625f2e3c4 p4=4bd56103ab587744\n\
random(100)/WP vnodes=198 ir=bd8d3ae2c8d8a8ed p4=bc2d34e8be55ac52\n\
random(100)/CA vnodes=100 ir=b748bb3625f2e3c4 p4=9b895edb8e2a3c51\n\
";

/// Everything a topology answers from its links: every node's name and
/// kind, every link's ends, bandwidth bits and delay, and each node's
/// `out_links` and `adjacency` rows.
fn topology_digest(topo: &Topology) -> u64 {
    let mut h = FxHasher64::default();
    put(&mut h, topo.num_nodes());
    for node in topo.nodes() {
        put_str(&mut h, &node.name);
        put(&mut h, (node.kind == NodeKind::Switch) as usize);
    }
    put(&mut h, topo.num_links());
    for l in topo.links() {
        put(&mut h, l.src.0 as usize);
        put(&mut h, l.dst.0 as usize);
        h.write_u64(l.bandwidth_bps.to_bits());
        h.write_u64(l.delay_ns);
    }
    for n in 0..topo.num_nodes() as u32 {
        let out = topo.out_links(NodeId(n));
        put(&mut h, out.len());
        out.iter().for_each(|l| put(&mut h, l.0 as usize));
        let adj = topo.adjacency(NodeId(n));
        put(&mut h, adj.len());
        for (m, l) in adj {
            put(&mut h, m.0 as usize);
            put(&mut h, l.0 as usize);
        }
    }
    h.finish()
}

/// What the generators build, pinned per graph: the `policy_ladder` rungs
/// at seeds 1–5 (fat-tree k ∈ {4, 8, 10, 14, 20} and `random_connected(n,
/// 2n, default, 42..=46)` for n ∈ {100, 300, 500}), a 2,000-switch random
/// network, fat-tree(32), fat-tree(8) with hosts, the §6.3 leaf-spine,
/// Abilene and Abilene with hosts. A change to how a topology is *built*
/// must leave every row as it is.
#[test]
fn topology_fingerprint() {
    let spec = generators::LinkSpec::default;
    let mut cells: Vec<(String, Topology)> = [4, 8, 10, 14, 20]
        .into_iter()
        .map(|k| (format!("fat-tree({k})"), generators::fat_tree(k, 0, spec())))
        .collect();
    for seed in 42..=46 {
        for n in [100, 300, 500] {
            let topo = generators::random_connected(n, 2 * n, spec(), seed);
            cells.push((format!("random({n}, seed {seed})"), topo));
        }
    }
    let abilene = generators::abilene(40e9);
    cells.extend([
        (
            "random(2000, seed 42)".to_string(),
            generators::random_connected(2000, 4000, spec(), 42),
        ),
        ("fat-tree(32)".into(), generators::fat_tree(32, 0, spec())),
        ("fat-tree(8, 1)".into(), generators::fat_tree(8, 1, spec())),
        (
            "leaf-spine(4, 2, 8)".into(),
            generators::leaf_spine(4, 2, 8, spec(), spec()),
        ),
        (
            "abilene+hosts".into(),
            generators::with_hosts(&abilene, 1, spec()),
        ),
        ("abilene".into(), abilene),
    ]);
    let mut got = String::new();
    for (label, topo) in &cells {
        got.push_str(&format!(
            "{label} nodes={} links={} digest={:016x}\n",
            topo.num_nodes(),
            topo.num_links(),
            topology_digest(topo)
        ));
    }
    assert_eq!(got, TOPOLOGY_FINGERPRINT, "got:\n{got}");
}

/// Captured at commit fb630a7, before the builder and the generators were
/// made linear in the links.
const TOPOLOGY_FINGERPRINT: &str = "\
fat-tree(4) nodes=20 links=64 digest=5c1e2e82f25dcc20\n\
fat-tree(8) nodes=80 links=512 digest=ebefe5536977b956\n\
fat-tree(10) nodes=125 links=1000 digest=19cee24e8a915ca7\n\
fat-tree(14) nodes=245 links=2744 digest=2529ec4a0ba8abb2\n\
fat-tree(20) nodes=500 links=8000 digest=dc681474ee89a8cf\n\
random(100, seed 42) nodes=100 links=598 digest=8ec29621a9419ca1\n\
random(300, seed 42) nodes=300 links=1798 digest=80bff0f8f81580ef\n\
random(500, seed 42) nodes=500 links=2998 digest=f12fc3abe127b4ac\n\
random(100, seed 43) nodes=100 links=598 digest=8d471dfa338ee134\n\
random(300, seed 43) nodes=300 links=1798 digest=8698455a279ed33d\n\
random(500, seed 43) nodes=500 links=2998 digest=9a9e3b9f2511f5b9\n\
random(100, seed 44) nodes=100 links=598 digest=2ed6d1ed135e4787\n\
random(300, seed 44) nodes=300 links=1798 digest=a24ee54a3c75862a\n\
random(500, seed 44) nodes=500 links=2998 digest=1ba773fb53f47a26\n\
random(100, seed 45) nodes=100 links=598 digest=ff3acd45989b258a\n\
random(300, seed 45) nodes=300 links=1798 digest=33155920a9c27d31\n\
random(500, seed 45) nodes=500 links=2998 digest=dc29cd7fb1776e08\n\
random(100, seed 46) nodes=100 links=598 digest=3290c625686ea356\n\
random(300, seed 46) nodes=300 links=1798 digest=d58e163dd2627db0\n\
random(500, seed 46) nodes=500 links=2998 digest=cc89b7e053546118\n\
random(2000, seed 42) nodes=2000 links=11998 digest=e8c6309e20c760da\n\
fat-tree(32) nodes=1280 links=32768 digest=abd9bc59b0c94e5e\n\
fat-tree(8, 1) nodes=112 links=576 digest=a251c1297c4ee689\n\
leaf-spine(4, 2, 8) nodes=38 links=80 digest=0a6fe4f3d1a85b33\n\
abilene+hosts nodes=22 links=50 digest=8e61cafe5c9d57ee\n\
abilene nodes=11 links=28 digest=ba88796745f0ff5b\n\
";

fn put(h: &mut FxHasher64, x: usize) {
    h.write_u64(x as u64);
}

fn put_str(h: &mut FxHasher64, s: &str) {
    put(h, s.len());
    h.write(s.as_bytes());
}

/// Everything `verify` says, field by field: every verdict list, then each
/// diagnostic's code, severity, span, message and notes, in report order.
fn report_digest(r: &Report) -> u64 {
    let mut h = FxHasher64::default();
    let v = &r.verdicts;
    put(&mut h, v.black_holes.len());
    for bh in &v.black_holes {
        put(&mut h, bh.src.0 as usize);
        put(&mut h, bh.dst.0 as usize);
    }
    put(&mut h, v.fragile.len());
    for f in &v.fragile {
        for n in [f.cable.0, f.cable.1, f.src, f.dst] {
            put(&mut h, n.0 as usize);
        }
        put(&mut h, f.partitions as usize);
    }
    for list in [
        &v.dead_branches,
        &v.shadowed_branches,
        &v.unmatchable_regexes,
    ] {
        put(&mut h, list.len());
        list.iter().for_each(|&i| put(&mut h, i));
    }
    put(&mut h, v.unsat_guards.len());
    for &(b, g) in &v.unsat_guards {
        put(&mut h, b);
        put(&mut h, g);
    }
    put(&mut h, v.dead_dfa_states);
    put(&mut h, v.pruned_vnodes);
    put(&mut h, v.transient_loop_risk as usize);
    put(&mut h, r.diagnostics.len());
    for d in &r.diagnostics {
        put_str(&mut h, d.code);
        put_str(&mut h, &d.severity.to_string());
        put(&mut h, d.span.start);
        put(&mut h, d.span.end);
        put_str(&mut h, &d.message);
        put(&mut h, d.notes.len());
        d.notes.iter().for_each(|n| put_str(&mut h, n));
    }
    h.finish()
}

/// What the static verifier reports, pinned per (topology, policy) cell:
/// the seven cells the `policy_ladder` workload verifies (fat-tree(4) and
/// fat-tree(8) × MU / WP / CA, a 100-switch random network × MU), plus a
/// 500-switch random network × MU and fat-tree(16) × WP, sizes at which
/// the rebuild-per-cable reference model is too slow to run. A change to
/// how `verify` finds what it reports must leave every row as it is.
#[test]
fn verify_fingerprint() {
    let spec = generators::LinkSpec::default;
    let mu = |topo: &Topology| ladder(topo)[..1].to_vec();
    let wp = |topo: &Topology| ladder(topo)[1..2].to_vec();
    let fat4 = generators::fat_tree(4, 0, spec());
    let fat8 = generators::fat_tree(8, 0, spec());
    let fat16 = generators::fat_tree(16, 0, spec());
    let random100 = generators::random_connected(100, 200, spec(), 42);
    let random500 = generators::random_connected(500, 1000, spec(), 42);
    let cells = [
        ("fat-tree(4)", ladder(&fat4), fat4),
        ("fat-tree(8)", ladder(&fat8), fat8),
        ("random(100)", mu(&random100), random100),
        ("random(500)", mu(&random500), random500),
        ("fat-tree(16)", wp(&fat16), fat16),
    ];
    let mut got = String::new();
    for (label, suite, topo) in &cells {
        for (policy, text) in suite {
            let cp = Compiler::new(topo)
                .compile_str(text)
                .unwrap_or_else(|e| panic!("{label}/{policy}: {e}"));
            let r = verify(&cp, topo);
            got.push_str(&format!(
                "{label}/{policy} diags={} fragile={} report={:016x}\n",
                r.diagnostics.len(),
                r.verdicts.fragile.len(),
                report_digest(&r)
            ));
        }
    }
    assert_eq!(got, VERIFY_FINGERPRINT, "got:\n{got}");
}

/// Captured at commit 210fec0, before the fragility walk certified cables
/// from one predecessor.
const VERIFY_FINGERPRINT: &str = "\
fat-tree(4)/MU diags=1 fragile=0 report=d7f32e84285a31a4\n\
fat-tree(4)/WP diags=17 fragile=16 report=9799e309f450bf78\n\
fat-tree(4)/CA diags=1 fragile=0 report=309f6ee2a0aa45da\n\
fat-tree(8)/MU diags=1 fragile=0 report=d7f32e84285a31a4\n\
fat-tree(8)/WP diags=1 fragile=0 report=0fee92ec2eb8760f\n\
fat-tree(8)/CA diags=1 fragile=0 report=309f6ee2a0aa45da\n\
random(100)/MU diags=2 fragile=198 report=e2839dbcedb79b51\n\
random(500)/MU diags=10 fragile=8982 report=8ca38a41ccd25127\n\
fat-tree(16)/WP diags=1 fragile=0 report=0fee92ec2eb8760f\n\
";
