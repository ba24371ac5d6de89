//! The reference model for the verifier's single-cable fragility analysis.
//!
//! `contra_core::verify` answers "which routes does one cable failure
//! destroy" incrementally, over the already-compiled product graph. The
//! model below is the analysis it replaced, kept verbatim in behaviour: per
//! cable, rebuild the topology without it, rebuild and prune the product
//! graph, recompute every destination's routable set from scratch, and diff
//! against the base black holes. It is cubic and shares nothing with the
//! incremental walk beyond `ProductGraph::build`, so whole-`Report`
//! equality — verdicts and diagnostics, in order — on the lint corpus, a
//! fixed-seed generated campaign and hand-built cut topologies is the
//! evidence that the fast path is the same function.

use contra_bench::{compiler_policy_suite, lint_corpus};
use contra_core::diag::codes;
use contra_core::{
    policies, traffic_endpoints, verify, BlackHole, CompiledPolicy, Compiler, Diagnostic,
    Fragility, ProductGraph, Report,
};
use contra_fuzz::{case_seed, gen_case};
use contra_topology::{generators, NodeId, Topology};
use std::collections::{BTreeMap, BTreeSet};

/// Switches holding a reachable finite virtual node for destination `d`;
/// the walk never re-enters `d`.
fn routable_sources(pg: &ProductGraph, d: NodeId) -> BTreeSet<NodeId> {
    let mut routable = BTreeSet::new();
    let Some(&seed) = pg.sending.get(&d) else {
        return routable;
    };
    let mut seen = vec![false; pg.len()];
    let mut work = vec![seed];
    seen[seed.0 as usize] = true;
    while let Some(v) = work.pop() {
        let vn = pg.vnode(v);
        if vn.finite {
            routable.insert(vn.switch);
        }
        for &w in pg.succs(v) {
            if !seen[w.0 as usize] && pg.vnode(w).switch != d {
                seen[w.0 as usize] = true;
                work.push(w);
            }
        }
    }
    routable
}

fn black_holes(pg: &ProductGraph, destinations: &[NodeId], sources: &[NodeId]) -> Vec<BlackHole> {
    let mut out = Vec::new();
    for &d in destinations {
        let routable = routable_sources(pg, d);
        for &s in sources {
            if s != d && !routable.contains(&s) {
                out.push(BlackHole { src: s, dst: d });
            }
        }
    }
    out
}

/// Connected components of the switch graph (hosts ignored).
fn switch_components(topo: &Topology) -> BTreeMap<NodeId, usize> {
    let mut comp: BTreeMap<NodeId, usize> = BTreeMap::new();
    let mut next = 0usize;
    for s in topo.switches() {
        if comp.contains_key(&s) {
            continue;
        }
        let id = next;
        next += 1;
        let mut work = vec![s];
        comp.insert(s, id);
        while let Some(x) = work.pop() {
            for y in topo.switch_neighbors(x) {
                if let std::collections::btree_map::Entry::Vacant(e) = comp.entry(y) {
                    e.insert(id);
                    work.push(y);
                }
            }
        }
    }
    comp
}

/// For every switch-to-switch cable, rebuild the product graph without it
/// and report routes that disappear: the `fragile` verdicts and the
/// `FRAGILE_LINK` diagnostics, in report order.
fn reference_fragility(
    cp: &CompiledPolicy,
    topo: &Topology,
    base: &[BlackHole],
) -> (Vec<Fragility>, Vec<Diagnostic>) {
    let sources = traffic_endpoints(topo);
    let base: BTreeSet<BlackHole> = base.iter().copied().collect();
    let mut cables: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
    for l in topo.links() {
        if topo.is_switch(l.src) && topo.is_switch(l.dst) {
            cables.insert((l.src.min(l.dst), l.src.max(l.dst)));
        }
    }

    let mut fragile = Vec::new();
    let mut diagnostics = Vec::new();
    for &(a, b) in &cables {
        let cut = topo.without_cables(&[(a, b)]);
        let pg = ProductGraph::build(&cut, &cp.automata, &cp.normal, &cp.destinations, true);
        let comp = switch_components(&cut);
        let new_pairs: Vec<Fragility> = black_holes(&pg, &cp.destinations, &sources)
            .into_iter()
            .filter(|bh| !base.contains(bh))
            .map(|bh| Fragility {
                cable: (a, b),
                src: bh.src,
                dst: bh.dst,
                partitions: comp[&bh.src] != comp[&bh.dst],
            })
            .collect();
        if new_pairs.is_empty() {
            continue;
        }
        let name = |n: NodeId| topo.node(n).name.clone();
        let examples = |fs: &[&Fragility]| -> String {
            fs.iter()
                .take(3)
                .map(|f| format!("{}→{}", name(f.src), name(f.dst)))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let policy_only: Vec<&Fragility> = new_pairs.iter().filter(|f| !f.partitions).collect();
        if !policy_only.is_empty() {
            diagnostics.push(
                Diagnostic::warning(
                    codes::FRAGILE_LINK,
                    format!(
                        "failing cable {}–{} black-holes {} route(s) ({}) although the \
                         network stays connected",
                        name(a),
                        name(b),
                        policy_only.len(),
                        examples(&policy_only),
                    ),
                )
                .with_span(cp.policy.expr.span)
                .with_note("the policy admits no alternate path; consider widening its regexes"),
            );
        }
        let partition_pairs: Vec<&Fragility> = new_pairs.iter().filter(|f| f.partitions).collect();
        if !partition_pairs.is_empty() {
            diagnostics.push(
                Diagnostic::info(
                    codes::FRAGILE_LINK,
                    format!(
                        "cable {}–{} is a physical cut: its failure partitions {} route(s) ({})",
                        name(a),
                        name(b),
                        partition_pairs.len(),
                        examples(&partition_pairs),
                    ),
                )
                .with_span(cp.policy.expr.span),
            );
        }
        fragile.extend(new_pairs);
    }
    (fragile, diagnostics)
}

/// `verify`'s report with its black-hole and fragility sections replaced by
/// the reference model's. Fragility diagnostics are the only `FRAGILE_LINK`
/// ones and close the report.
fn reference_report(cp: &CompiledPolicy, topo: &Topology, fast: &Report) -> Report {
    let mut expected = fast.clone();
    expected.verdicts.black_holes = black_holes(&cp.pg, &cp.destinations, &traffic_endpoints(topo));
    let (fragile, diagnostics) = reference_fragility(cp, topo, &expected.verdicts.black_holes);
    expected.verdicts.fragile = fragile;
    expected
        .diagnostics
        .retain(|d| d.code != codes::FRAGILE_LINK);
    expected.diagnostics.extend(diagnostics);
    expected
}

/// Compiles and checks one cell; returns the number of fragile routes it
/// found (0 also when the policy does not compile on this topology).
fn check(label: &str, topo: &Topology, policy: &str) -> usize {
    let Ok(cp) = Compiler::new(topo).compile_str(policy) else {
        return 0;
    };
    let fast = verify(&cp, topo);
    let expected = reference_report(&cp, topo, &fast);
    assert_eq!(fast, expected, "{label}: `{policy}`");
    fast.verdicts.fragile.len()
}

/// The Figure 3 catalogue with waypoints and the preferred cable drawn from
/// the topology itself — the multi-tag policies, where one cable is many
/// product-graph edges.
fn catalogue_for(topo: &Topology) -> Vec<(&'static str, String)> {
    let name = |n: NodeId| topo.node(n).name.as_str();
    let s = topo.switches();
    let (f1, f2) = (name(s[0]), name(s[s.len() - 1]));
    let (x, y) = topo
        .links()
        .iter()
        .find(|l| topo.is_switch(l.src) && topo.is_switch(l.dst))
        .map_or((f1, f2), |l| (name(l.src), name(l.dst)));
    policies::catalogue(f1, f2, x, y)
}

#[test]
fn lint_corpus_reports_equal_the_reference() {
    let mut fragile = 0;
    for (topo_label, topo, [f1, f2, x, y]) in lint_corpus() {
        for (policy_label, policy) in policies::catalogue(f1, f2, x, y) {
            fragile += check(&format!("{topo_label}/{policy_label}"), &topo, &policy);
        }
    }
    assert!(fragile > 0, "the corpus has fragile cells");
}

#[test]
fn generated_campaign_reports_equal_the_reference() {
    let (mut compiled, mut fragile) = (0, 0);
    for i in 0..300 {
        let case = gen_case(case_seed(14, i));
        let Ok(topo) = case.topo.build() else {
            continue;
        };
        if topo.num_switches() < 2 {
            continue;
        }
        let label = format!("case {i} (seed {:#x})", case.seed);
        fragile += check(&label, &topo, &case.policy);
        for (policy_label, policy) in catalogue_for(&topo) {
            compiled += 1;
            fragile += check(&format!("{label}/{policy_label}"), &topo, &policy);
        }
    }
    assert!(compiled > 2000 && fragile > 1000, "{compiled} {fragile}");
}

/// The seven cells the `policy_ladder` workload verifies: fat-tree(4) and
/// fat-tree(8) × MU / WP / CA, where breadth first hands one aggregation
/// switch most of the tree, and a 100-switch random network × MU, whose
/// cuts are mostly real bridges.
#[test]
fn ladder_cells_report_equal_the_reference() {
    let spec = generators::LinkSpec::default;
    for k in [4, 8] {
        let topo = generators::fat_tree(k, 0, spec());
        for (policy_label, policy) in compiler_policy_suite(&topo) {
            check(&format!("fat-tree({k})/{policy_label}"), &topo, &policy);
        }
    }
    let random = generators::random_connected(100, 200, spec(), 42);
    let fragile = check("random(100)/MU", &random, &policies::min_util());
    assert!(fragile > 0, "random(100) has bridges");
}

/// A ring and a line of 70 switches, one cable per neighbouring pair. On
/// the ring, policies that must cross a given cable or switch route the
/// long way round, so tree paths cross more than 64 cables and the
/// verifier's 64-bit path summaries alias. On the line every cable is a
/// bridge, no certificate holds, and every decision is a cut.
#[test]
fn long_rings_and_lines_report_equal_the_reference() {
    for closed in [true, false] {
        let mut t = Topology::builder();
        let s: Vec<NodeId> = (0..70).map(|i| t.switch(format!("s{i}"))).collect();
        let cables = if closed { s.len() } else { s.len() - 1 };
        for i in 0..cables {
            t.biline(s[i], s[(i + 1) % s.len()], 10e9, 1_000);
        }
        let topo = t.build();
        let label = if closed { "ring(70)" } else { "line(70)" };
        let mut fragile = 0;
        for (policy_label, policy) in catalogue_for(&topo) {
            fragile += check(&format!("{label}/{policy_label}"), &topo, &policy);
        }
        assert!(fragile > 0, "{label}: nothing fragile");
    }
}

/// Bridges and cut vertices: where `partitions` flips between cables of one
/// topology, and between pairs of one cable.
#[test]
fn cut_topologies_report_equal_the_reference() {
    // Two triangles joined by the bridge C–D, plus a pendant E off A.
    let mut t = Topology::builder();
    let [a, b, c, d, e, f, p] = ["A", "B", "C", "D", "E", "F", "P"].map(|n| t.switch(n));
    for (x, y) in [
        (a, b),
        (b, c),
        (a, c),
        (c, d),
        (d, e),
        (e, f),
        (d, f),
        (a, p),
    ] {
        t.biline(x, y, 10e9, 1_000);
    }
    let barbell = t.build();
    // Trees: every cable is a bridge.
    let spec = generators::LinkSpec::default();
    let tree = generators::random_connected(9, 0, spec, 5);
    // A one-way link: B can reach C only through it, C answers over A.
    let mut t = Topology::builder();
    let [a, b, c] = ["A", "B", "C"].map(|n| t.switch(n));
    t.biline(a, b, 10e9, 1_000);
    t.biline(a, c, 10e9, 1_000);
    t.line(b, c, 10e9, 1_000);
    let one_way = t.build();

    let mut partitions = [0usize; 2];
    for (label, topo) in [
        ("barbell", &barbell),
        ("tree", &tree),
        ("one-way", &one_way),
    ] {
        for (policy_label, policy) in catalogue_for(topo) {
            check(&format!("{label}/{policy_label}"), topo, &policy);
        }
        let first = &topo.node(topo.switches()[0]).name;
        let cp = Compiler::new(topo)
            .compile_str(&format!(
                "minimize(if .* {first} .* then path.util else inf)"
            ))
            .unwrap();
        for fr in verify(&cp, topo).verdicts.fragile {
            partitions[fr.partitions as usize] += 1;
        }
    }
    assert!(
        partitions[0] > 0 && partitions[1] > 0,
        "both kinds of fragility occur: {partitions:?}"
    );
}
