//! Generated GraphML round trip: a topology rendered as a Topology Zoo
//! document and parsed back keeps its names and its cables.
//!
//! The reader turns every node into a switch, so the generated topology's
//! hosts come back as switches; names and cables are what must survive.
//! Each document also carries what the reader collapses or renames: a
//! cable listed twice (once reversed), a self-loop, and two more nodes
//! both labelled "None", which must come back as "None" and "None#1".

use contra_topology::{generators, zoo, NodeId, Topology};
use std::collections::BTreeSet;
use std::fmt::Write;

/// Renders `topo` as GraphML (node `n{i}` labelled with node `i`'s name,
/// one edge per cable) with the three irregularities described above.
fn render(topo: &Topology) -> String {
    let mut doc = String::from(
        "<?xml version=\"1.0\" encoding=\"utf-8\"?>\n\
         <graphml xmlns=\"http://graphml.graphdrawing.org/xmlns\">\n\
         <key attr.name=\"label\" attr.type=\"string\" for=\"node\" id=\"label\"/>\n\
         <graph edgedefault=\"undirected\">\n",
    );
    let node = |doc: &mut String, id: &str, label: &str| {
        writeln!(
            doc,
            "<node id=\"{id}\"><data key=\"label\">{label}</data></node>"
        )
        .unwrap();
    };
    let edge = |doc: &mut String, s: &str, t: &str| {
        writeln!(doc, "<edge source=\"{s}\" target=\"{t}\"/>").unwrap();
    };
    for (i, n) in topo.nodes().iter().enumerate() {
        node(&mut doc, &format!("n{i}"), &n.name);
    }
    node(&mut doc, "x0", "None");
    node(&mut doc, "x1", "None");
    let cables = cables(topo);
    for &(lo, hi) in &cables {
        edge(&mut doc, &format!("n{}", lo.0), &format!("n{}", hi.0));
    }
    // The first cable again, reversed; a self-loop at its lower end; the
    // two "None" nodes hung off that end in a line.
    let (lo, hi) = cables.first().expect("a cable");
    let (lo, hi) = (format!("n{}", lo.0), format!("n{}", hi.0));
    edge(&mut doc, &hi, &lo);
    edge(&mut doc, &lo, &lo);
    edge(&mut doc, "x0", &lo);
    edge(&mut doc, "x1", "x0");
    doc.push_str("</graph>\n</graphml>\n");
    doc
}

/// Each cable once, as its (lower, higher) end ids.
fn cables(topo: &Topology) -> BTreeSet<(NodeId, NodeId)> {
    topo.links()
        .iter()
        .map(|l| (l.src.min(l.dst), l.src.max(l.dst)))
        .collect()
}

/// A cable by the names of its ends, in name order.
fn pair(a: &str, b: &str) -> (String, String) {
    (a.min(b).to_string(), a.max(b).to_string())
}

/// Each cable once, by name.
fn named_cables(topo: &Topology) -> BTreeSet<(String, String)> {
    cables(topo)
        .into_iter()
        .map(|(a, b)| pair(&topo.node(a).name, &topo.node(b).name))
        .collect()
}

fn assert_round_trip(topo: &Topology) {
    let back = zoo::parse_graphml(&render(topo), 10e9, 1_000).unwrap();
    assert_eq!(
        back.num_switches(),
        back.num_nodes(),
        "the reader makes switches"
    );

    let mut names: Vec<&str> = topo.nodes().iter().map(|n| n.name.as_str()).collect();
    names.extend(["None", "None#1"]);
    let got: Vec<&str> = back.nodes().iter().map(|n| n.name.as_str()).collect();
    assert_eq!(got, names);

    let first = &topo.node(cables(topo).first().expect("a cable").0).name;
    let mut expected = named_cables(topo);
    expected.insert(pair(first, "None"));
    expected.insert(pair("None", "None#1"));
    assert_eq!(named_cables(&back), expected);
    assert_eq!(back.num_links(), 2 * expected.len());
}

#[test]
fn random_network_round_trips() {
    let topo = generators::random_connected(500, 1000, generators::LinkSpec::default(), 42);
    assert_round_trip(&topo);
}

#[test]
fn fat_tree_with_hosts_round_trips() {
    let topo = generators::fat_tree(8, 1, generators::LinkSpec::default());
    assert!(!topo.hosts().is_empty());
    assert_round_trip(&topo);
}
