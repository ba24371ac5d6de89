//! Minimal GraphML reader for Internet Topology Zoo files.
//!
//! The paper evaluates Contra on "real-world topologies (e.g., the Abilene
//! network and those from Topology Zoo)". Topology Zoo distributes graphs as
//! GraphML. This module parses the subset those files actually use —
//! `<node id=…>` with `<data key=…>label</data>` children and
//! `<edge source=… target=…>` elements — without pulling in an XML crate.
//! It is tolerant of unknown attributes and data keys.

use crate::{Topology, TopologyBuilder};
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// Error produced when a GraphML document cannot be understood.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZooError(pub String);

impl std::fmt::Display for ZooError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GraphML parse error: {}", self.0)
    }
}

impl std::error::Error for ZooError {}

/// Parses a Topology Zoo GraphML document into a switch-only [`Topology`].
///
/// Every edge becomes a bidirectional cable with the given default bandwidth
/// and delay (Zoo files rarely carry usable capacity data, and the paper's
/// experiments configure uniform capacities anyway). Multi-edges collapse to
/// a single cable; self-loops are dropped.
pub fn parse_graphml(text: &str, bandwidth_bps: f64, delay_ns: u64) -> Result<Topology, ZooError> {
    let mut node_order: Vec<String> = Vec::new();
    let mut labels: BTreeMap<String, String> = BTreeMap::new();
    let mut edges: Vec<(String, String)> = Vec::new();

    let mut rest = text;
    while let Some(start) = rest.find('<') {
        rest = &rest[start + 1..];
        let end = rest
            .find('>')
            .ok_or_else(|| ZooError("unterminated tag".into()))?;
        let tag = &rest[..end];
        rest = &rest[end + 1..];
        if is_element(tag, "node") {
            let id = attr(tag, "id").ok_or_else(|| ZooError("node without id".into()))?;
            // Look ahead for a label inside this node element (if any).
            if !tag.ends_with('/') {
                if let Some(close) = rest.find("</node>") {
                    let body = &rest[..close];
                    if let Some(label) = extract_label(body) {
                        labels.insert(id.clone(), label);
                    }
                }
            }
            node_order.push(id);
        } else if is_element(tag, "edge") {
            let s = attr(tag, "source").ok_or_else(|| ZooError("edge without source".into()))?;
            let t = attr(tag, "target").ok_or_else(|| ZooError("edge without target".into()))?;
            edges.push((s, t));
        }
    }
    if node_order.is_empty() {
        return Err(ZooError("no <node> elements found".into()));
    }

    let mut tb: TopologyBuilder = Topology::builder();
    let mut ids = BTreeMap::new();
    let mut used_names: BTreeSet<String> = BTreeSet::new();
    let mut suffixes: BTreeMap<&str, usize> = BTreeMap::new();
    for raw in &node_order {
        let label = labels.get(raw).unwrap_or(raw);
        // Zoo labels are not unique ("None" appears repeatedly); suffix
        // until the name is free — a later label may itself be "None#1".
        let n = suffixes.entry(label).or_insert(0);
        let mut name = label.clone();
        while !used_names.insert(name.clone()) {
            *n += 1;
            name = format!("{label}#{n}");
        }
        if ids.insert(raw.clone(), tb.switch(name)).is_some() {
            return Err(ZooError(format!("duplicate node id {raw}")));
        }
    }
    // Node ids and switches correspond one to one, so a cable is keyed by
    // its switches, lower first.
    let mut seen = HashSet::with_capacity(edges.len());
    for (s, t) in edges {
        if s == t {
            continue;
        }
        let (a, b) = (
            *ids.get(&s)
                .ok_or_else(|| ZooError(format!("edge references unknown node {s}")))?,
            *ids.get(&t)
                .ok_or_else(|| ZooError(format!("edge references unknown node {t}")))?,
        );
        if seen.insert((a.min(b), a.max(b))) {
            tb.biline(a, b, bandwidth_bps, delay_ns);
        }
    }
    Ok(tb.build())
}

/// Whether `tag` (the text between `<` and `>`) opens element `name`: the
/// name must end there, at whitespace or at `/`, so `<nodes>` is no node.
fn is_element(tag: &str, name: &str) -> bool {
    tag.strip_prefix(name).is_some_and(|rest| {
        rest.is_empty() || rest.starts_with(|c: char| c == '/' || c.is_whitespace())
    })
}

/// Extracts `key="…"`-style attributes from a tag body.
fn attr(tag: &str, name: &str) -> Option<String> {
    let pat = format!("{name}=\"");
    let start = tag.find(&pat)? + pat.len();
    let end = tag[start..].find('"')?;
    Some(tag[start..start + end].to_string())
}

/// Finds a `<data key="…">label</data>` whose content looks like a label.
fn extract_label(body: &str) -> Option<String> {
    let mut rest = body;
    while let Some(start) = rest.find("<data") {
        rest = &rest[start..];
        let open_end = rest.find('>')?;
        let tag = &rest[..open_end];
        let after = &rest[open_end + 1..];
        let close = after.find("</data>")?;
        let content = after[..close].trim();
        // Topology Zoo uses key="label" (sometimes d33 etc.); accept a data
        // element explicitly keyed "label", else fall back to the first
        // non-numeric content.
        if attr(tag, "key").as_deref() == Some("label") {
            return Some(content.to_string());
        }
        rest = &after[close..];
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::switch_graph_connected;

    const SAMPLE: &str = r#"<?xml version="1.0" encoding="utf-8"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key attr.name="label" attr.type="string" for="node" id="label"/>
  <graph edgedefault="undirected">
    <node id="0"><data key="label">Vienna</data></node>
    <node id="1"><data key="label">Graz</data></node>
    <node id="2"><data key="label">Linz</data></node>
    <node id="3"/>
    <edge source="0" target="1"/>
    <edge source="1" target="2"/>
    <edge source="2" target="0"/>
    <edge source="0" target="3"/>
    <edge source="3" target="0"/>
    <edge source="3" target="3"/>
  </graph>
</graphml>"#;

    #[test]
    fn parses_sample() {
        let t = parse_graphml(SAMPLE, 10e9, 1_000).unwrap();
        assert_eq!(t.num_switches(), 4);
        // 4 undirected edges (multi-edge and self-loop dropped) = 8 links.
        assert_eq!(t.num_links(), 8);
        assert!(t.find("Vienna").is_some());
        assert!(t.find("Graz").is_some());
        assert!(t.find("3").is_some(), "unlabeled node keeps its id");
        assert!(switch_graph_connected(&t));
    }

    #[test]
    fn duplicate_labels_are_disambiguated() {
        let doc = r#"<graph>
            <node id="a"><data key="label">None</data></node>
            <node id="b"><data key="label">None</data></node>
            <edge source="a" target="b"/>
        </graph>"#;
        let t = parse_graphml(doc, 1e9, 1).unwrap();
        assert!(t.find("None").is_some());
        assert!(t.find("None#1").is_some());
    }

    #[test]
    fn a_label_that_looks_like_a_suffixed_one_still_gets_a_free_name() {
        let doc = r#"<graph>
            <node id="0"><data key="label">A</data></node>
            <node id="1"><data key="label">A</data></node>
            <node id="2"><data key="label">A#1</data></node>
            <edge source="0" target="1"/>
            <edge source="1" target="2"/>
        </graph>"#;
        let t = parse_graphml(doc, 1e9, 1).unwrap();
        assert_eq!(t.num_switches(), 3);
        for name in ["A", "A#1", "A#1#1"] {
            assert!(t.find(name).is_some(), "{name}");
        }
    }

    #[test]
    fn rejects_a_repeated_node_id() {
        let doc = r#"<node id="0"/><node id="0"/><node id="1"/><edge source="0" target="1"/>"#;
        let err = parse_graphml(doc, 1e9, 1).unwrap_err();
        assert_eq!(err, ZooError("duplicate node id 0".into()));
    }

    #[test]
    fn element_names_match_whole() {
        let doc = r#"<nodes id="9"><node id="a"/><node id="b"/></nodes>
            <edge source="a" target="b"/><edgex source="b" target="9"/>"#;
        let t = parse_graphml(doc, 1e9, 1).unwrap();
        assert_eq!((t.num_switches(), t.num_links()), (2, 2));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_graphml("hello world", 1.0, 1).is_err());
        assert!(parse_graphml("<edge source=\"x\" target=\"y\"/>", 1.0, 1).is_err());
    }

    #[test]
    fn rejects_unknown_edge_endpoint() {
        let doc = r#"<node id="a"/><edge source="a" target="zzz"/>"#;
        assert!(parse_graphml(doc, 1.0, 1).is_err());
    }
}
