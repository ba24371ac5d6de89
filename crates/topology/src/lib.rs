//! Network topologies for Contra.
//!
//! The compiler consumes a [`Topology`] jointly with a policy (§4.1 of the
//! paper: "policy analyzed jointly with topology"); the simulator consumes
//! the same structure to instantiate links and queues. Nodes are either
//! switches (which participate in routing, probes and regular-expression
//! alphabets) or hosts (traffic endpoints hanging off an access switch).
//!
//! Submodules:
//!
//! * [`generators`] — leaf-spine and k-ary fat-tree data centers (the Fig 9
//!   x-axis sizes 20…500 are fat-trees with k = 4…20), random connected
//!   graphs, and the built-in Abilene WAN used in §6.4.
//! * [`paths`] — one weighted shortest-path search behind hop counts,
//!   delays, ECMP next-hop sets (and SPAIN's per-VLAN ones), one
//!   deterministic shortest path and the connectivity check, plus the
//!   all-simple-paths test oracle.
//! * [`zoo`] — a GraphML-subset reader for Internet Topology Zoo files.
//!
//! # Layout and cost
//!
//! A [`Topology`] keeps its adjacency as one compressed sparse row: an
//! offsets array with an entry per node, and two arrays with an entry per
//! directed link that share it — node `n`'s row is
//! `offsets[n]..offsets[n + 1]` in both. `out` holds the row's links in
//! link order ([`Topology::out_links`]), `adj` the same links as
//! `(neighbor, link)` sorted by neighbor ([`Topology::adjacency`]).
//! [`TopologyBuilder::build`] fills both with one counting sort over the
//! links and sorts each row once, so building costs O(nodes + links ·
//! log degree) and allocates a fixed number of arrays, whatever the size.
//! [`TopologyBuilder`] rejects a repeated name as the node is added, from
//! an index of name hashes: O(1) per node, with each name stored once.

pub mod generators;
pub mod paths;
pub mod zoo;

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasher;
use std::ops::Range;
use std::sync::OnceLock;

/// Identifier of a node (switch or host) inside one [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a *directed* link inside one [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

/// What role a node plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A programmable switch: runs routing logic, appears in path regexes.
    Switch,
    /// An end host: sources and sinks traffic only.
    Host,
}

/// A node with its metadata.
#[derive(Debug, Clone)]
pub struct Node {
    /// Human-readable name (e.g. `"leaf0"`, `"Denver"`).
    pub name: String,
    /// Switch or host.
    pub kind: NodeKind,
}

/// A directed link. Bidirectional cables are modelled as two directed links
/// so that the two directions have independent queues and utilizations.
#[derive(Debug, Clone)]
pub struct Link {
    /// Transmitting node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Capacity in bits per second.
    pub bandwidth_bps: f64,
    /// One-way propagation delay in nanoseconds.
    pub delay_ns: u64,
}

/// An immutable network topology: nodes, directed links and adjacency.
#[derive(Debug, Clone)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// Row starts of the adjacency, one per node plus the end: node `n`'s
    /// entries in `out` and `adj` are `offsets[n]..offsets[n + 1]`.
    offsets: Vec<u32>,
    /// Each node's out-links in link order.
    out: Vec<LinkId>,
    /// Each node's out-neighbors sorted by id, with their link. Backs
    /// [`Topology::adjacency`] iteration and the [`Topology::link_between`]
    /// fallback on very large graphs.
    adj: Vec<(NodeId, LinkId)>,
    /// Dense (src × dst) → link matrix (`u32::MAX` = no link), for
    /// topologies up to [`DENSE_PAIR_LIMIT`] nodes (`None` beyond).
    /// `link_between` runs on every simulated hop *and* on every probe's
    /// utilization read, so the common case must be one O(1) indexed load,
    /// not a binary search. At the limit the matrix costs 4 MiB; typical
    /// evaluation fabrics (≤ ~60 nodes) fit in a few cache lines per row.
    /// Built by the first `link_between`: compiling, verifying and emitting
    /// never ask, and at 500 switches the megabyte it fills was most of
    /// what building the topology cost.
    dense: OnceLock<Option<Vec<u32>>>,
    /// [`Topology::max_switch_rtt_ns`], computed on first use. A topology
    /// is immutable, so the value belongs to the instance: a `Clone`
    /// carries it, a newly built topology starts without one.
    max_rtt_ns: OnceLock<u64>,
    /// The flat graph the searches of [`paths`] run on. Built by the first
    /// search, like `dense` and for the same reason: building a topology
    /// that is only ever sized or printed should not pay for it.
    flat: OnceLock<paths::FlatGraph>,
}

/// Largest node count for which the dense pair matrix is built (memory
/// is quadratic: `limit² × 4` bytes).
pub const DENSE_PAIR_LIMIT: usize = 1024;

impl Topology {
    /// Starts building a topology.
    pub fn builder() -> TopologyBuilder {
        TopologyBuilder::default()
    }

    /// All nodes, indexable by `NodeId.0`.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All directed links, indexable by `LinkId.0`.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Number of nodes (switches + hosts).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Node metadata.
    pub fn node(&self, n: NodeId) -> &Node {
        &self.nodes[n.0 as usize]
    }

    /// Link metadata.
    pub fn link(&self, l: LinkId) -> &Link {
        &self.links[l.0 as usize]
    }

    /// Whether `n` is a switch.
    pub fn is_switch(&self, n: NodeId) -> bool {
        self.nodes[n.0 as usize].kind == NodeKind::Switch
    }

    /// All switch IDs in ascending order — the regex alphabet.
    pub fn switches(&self) -> Vec<NodeId> {
        (0..self.nodes.len() as u32)
            .map(NodeId)
            .filter(|&n| self.is_switch(n))
            .collect()
    }

    /// Number of switches.
    pub fn num_switches(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Switch)
            .count()
    }

    /// All host IDs in ascending order.
    pub fn hosts(&self) -> Vec<NodeId> {
        (0..self.nodes.len() as u32)
            .map(NodeId)
            .filter(|&n| !self.is_switch(n))
            .collect()
    }

    /// Node `n`'s entries in `out` and `adj`.
    fn row(&self, n: NodeId) -> Range<usize> {
        let n = n.0 as usize;
        self.offsets[n] as usize..self.offsets[n + 1] as usize
    }

    /// Out-links of a node.
    pub fn out_links(&self, n: NodeId) -> &[LinkId] {
        &self.out[self.row(n)]
    }

    /// Out-neighbors of a node, one per out-link, in link order. Nothing
    /// is de-duplicated and nothing needs to be: a topology holds at most
    /// one link from a node to another ([`TopologyBuilder::build`] rejects
    /// a second), so the entries are distinct. [`Topology::adjacency`]
    /// lists the same nodes sorted by id, without allocating.
    pub fn neighbors(&self, n: NodeId) -> Vec<NodeId> {
        self.neighbors_in_link_order(n).collect()
    }

    fn neighbors_in_link_order(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_links(n)
            .iter()
            .map(|&l| self.links[l.0 as usize].dst)
    }

    /// Switch out-neighbors only.
    pub fn switch_neighbors(&self, n: NodeId) -> Vec<NodeId> {
        self.neighbors_in_link_order(n)
            .filter(|&m| self.is_switch(m))
            .collect()
    }

    /// The directed link from `a` to `b`, if any. One indexed load on
    /// dense-indexed topologies (≤ [`DENSE_PAIR_LIMIT`] nodes), an
    /// O(log degree) adjacency search beyond.
    #[inline]
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        if let Some(dense) = self.dense.get_or_init(|| self.dense_pairs()) {
            let n = self.nodes.len();
            let (ai, bi) = (a.0 as usize, b.0 as usize);
            if ai >= n || bi >= n {
                return None;
            }
            let l = dense[ai * n + bi];
            return (l != u32::MAX).then_some(LinkId(l));
        }
        if a.0 as usize >= self.nodes.len() {
            return None;
        }
        let row = self.adjacency(a);
        row.binary_search_by_key(&b, |&(n, _)| n)
            .ok()
            .map(|i| row[i].1)
    }

    fn dense_pairs(&self) -> Option<Vec<u32>> {
        let n = self.nodes.len();
        (n <= DENSE_PAIR_LIMIT).then(|| {
            let mut d = vec![u32::MAX; n * n];
            for (i, l) in self.links.iter().enumerate() {
                d[l.src.0 as usize * n + l.dst.0 as usize] = i as u32;
            }
            d
        })
    }

    /// Out-neighbors with their links, sorted by neighbor id
    /// (allocation-free adjacency for hot loops).
    pub fn adjacency(&self, n: NodeId) -> &[(NodeId, LinkId)] {
        &self.adj[self.row(n)]
    }

    /// Looks a node up by name.
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|n| n.name == name)
            .map(|i| NodeId(i as u32))
    }

    /// The access switch a host is attached to. Panics if `h` is a switch or
    /// is attached to anything but exactly one switch.
    pub fn host_switch(&self, h: NodeId) -> NodeId {
        assert!(!self.is_switch(h), "{h} is not a host");
        let mut sw = self
            .adjacency(h)
            .iter()
            .map(|&(n, _)| n)
            .filter(|&n| self.is_switch(n));
        match (sw.next(), sw.next()) {
            (Some(s), None) => s,
            _ => panic!("host {h} must have exactly one access switch"),
        }
    }

    /// Hosts attached to the given switch.
    pub fn hosts_of(&self, sw: NodeId) -> Vec<NodeId> {
        self.neighbors_in_link_order(sw)
            .filter(|&n| !self.is_switch(n))
            .collect()
    }

    /// A copy of this topology with the given cables (both directions)
    /// removed. Used to model control planes that have reconverged around
    /// known failures (e.g. ECMP in the paper's asymmetric experiment).
    pub fn without_cables(&self, cables: &[(NodeId, NodeId)]) -> Topology {
        let dead = |src: NodeId, dst: NodeId| {
            cables
                .iter()
                .any(|&(a, b)| (src, dst) == (a, b) || (src, dst) == (b, a))
        };
        let mut tb = TopologyBuilder::default();
        for node in &self.nodes {
            match node.kind {
                NodeKind::Switch => tb.switch(&node.name),
                NodeKind::Host => tb.host(&node.name),
            };
        }
        for l in &self.links {
            if !dead(l.src, l.dst) {
                tb.line(l.src, l.dst, l.bandwidth_bps, l.delay_ns);
            }
        }
        tb.build()
    }

    /// Maximum propagation RTT between any pair of switches, in nanoseconds,
    /// following shortest-delay paths. This bounds the probe period from
    /// below (§5.2: period ≥ 0.5 × RTT). One search per switch on the
    /// first call; every compile against this topology asks, so the answer
    /// is kept.
    pub fn max_switch_rtt_ns(&self) -> u64 {
        *self
            .max_rtt_ns
            .get_or_init(|| self.flat().max_switch_rtt_ns())
    }

    pub(crate) fn flat(&self) -> &paths::FlatGraph {
        self.flat.get_or_init(|| paths::FlatGraph::of(self))
    }
}

/// Incremental [`Topology`] constructor.
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// Name index without a second copy of any name: a name's hash maps
    /// to the last node added with that hash, and `same_hash[i]` is the
    /// node added before `i` with the same hash ([`NO_NODE`] ends the
    /// chain). A hit is confirmed by comparing the names.
    by_hash: HashMap<u64, u32>,
    same_hash: Vec<u32>,
    hasher: RandomState,
}

/// End of a [`TopologyBuilder`] name-hash chain.
const NO_NODE: u32 = u32::MAX;

impl TopologyBuilder {
    /// Adds a switch; names must be unique. A `String` passed by value
    /// becomes the node's name without a copy.
    pub fn switch(&mut self, name: impl Into<String>) -> NodeId {
        self.add(name.into(), NodeKind::Switch)
    }

    /// Adds a host; names must be unique. A `String` passed by value
    /// becomes the node's name without a copy.
    pub fn host(&mut self, name: impl Into<String>) -> NodeId {
        self.add(name.into(), NodeKind::Host)
    }

    fn add(&mut self, name: String, kind: NodeKind) -> NodeId {
        let hash = self.hasher.hash_one(&name);
        let first = self.by_hash.get(&hash).copied().unwrap_or(NO_NODE);
        let mut at = first;
        while at != NO_NODE {
            assert!(
                self.nodes[at as usize].name != name,
                "duplicate node name {name:?}"
            );
            at = self.same_hash[at as usize];
        }
        let id = self.nodes.len() as u32;
        self.by_hash.insert(hash, id);
        self.same_hash.push(first);
        self.nodes.push(Node { name, kind });
        NodeId(id)
    }

    /// Adds one directed link. A second link between the same two nodes
    /// is accepted here and rejected by [`TopologyBuilder::build`].
    pub fn line(&mut self, src: NodeId, dst: NodeId, bandwidth_bps: f64, delay_ns: u64) {
        assert_ne!(src, dst, "self-loops are not allowed");
        self.links.push(Link {
            src,
            dst,
            bandwidth_bps,
            delay_ns,
        });
    }

    /// Adds a bidirectional cable: two directed links with the same
    /// bandwidth and delay.
    pub fn biline(&mut self, a: NodeId, b: NodeId, bandwidth_bps: f64, delay_ns: u64) {
        self.line(a, b, bandwidth_bps, delay_ns);
        self.line(b, a, bandwidth_bps, delay_ns);
    }

    /// Finalizes the topology: groups the links by source with one
    /// counting sort, then sorts each row by neighbor. Panics on a second
    /// link from one node to another (a doubled cable): links are looked
    /// up by their end points.
    pub fn build(self) -> Topology {
        let n = self.nodes.len();
        let mut offsets = vec![0u32; n + 1];
        for l in &self.links {
            offsets[l.src.0 as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut at = offsets[..n].to_vec();
        let mut out = vec![LinkId(0); self.links.len()];
        for (i, l) in self.links.iter().enumerate() {
            let e = &mut at[l.src.0 as usize];
            out[*e as usize] = LinkId(i as u32);
            *e += 1;
        }
        let mut adj: Vec<(NodeId, LinkId)> = out
            .iter()
            .map(|&l| (self.links[l.0 as usize].dst, l))
            .collect();
        for (src, ends) in offsets.windows(2).enumerate() {
            let row = &mut adj[ends[0] as usize..ends[1] as usize];
            row.sort_unstable_by_key(|&(m, _)| m);
            if let Some(w) = row.windows(2).find(|w| w[0].0 == w[1].0) {
                panic!(
                    "parallel links between {} and {} are not supported",
                    NodeId(src as u32),
                    w[0].0
                );
            }
        }
        Topology {
            nodes: self.nodes,
            links: self.links,
            offsets,
            out,
            adj,
            dense: OnceLock::new(),
            max_rtt_ns: OnceLock::new(),
            flat: OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Topology {
        let mut t = Topology::builder();
        let a = t.switch("A");
        let b = t.switch("B");
        let c = t.switch("C");
        let d = t.switch("D");
        t.biline(a, b, 10e9, 1_000);
        t.biline(a, c, 10e9, 1_000);
        t.biline(b, d, 10e9, 1_000);
        t.biline(c, d, 10e9, 1_000);
        t.build()
    }

    #[test]
    fn builder_basics() {
        let t = diamond();
        assert_eq!(t.num_nodes(), 4);
        assert_eq!(t.num_links(), 8);
        assert_eq!(t.num_switches(), 4);
        assert!(t.hosts().is_empty());
        let a = t.find("A").unwrap();
        let b = t.find("B").unwrap();
        assert!(t.link_between(a, b).is_some());
        assert_eq!(t.neighbors(a).len(), 2);
    }

    /// The dense pair matrix and the adjacency-search fallback are the
    /// same function — exhaustively, over every (src, dst) pair.
    #[test]
    fn dense_pair_index_matches_adjacency_search() {
        let t = diamond();
        assert!(t.dense_pairs().is_some(), "small graphs are dense-indexed");
        let mut fallback = t.clone();
        fallback.dense = OnceLock::from(None);
        for a in 0..t.num_nodes() as u32 {
            for b in 0..t.num_nodes() as u32 {
                assert_eq!(
                    t.link_between(NodeId(a), NodeId(b)),
                    fallback.link_between(NodeId(a), NodeId(b)),
                    "pair ({a}, {b})"
                );
            }
        }
        // Out-of-range ids answer None on both paths.
        assert_eq!(t.link_between(NodeId(99), NodeId(0)), None);
        assert_eq!(t.link_between(NodeId(0), NodeId(99)), None);
        assert_eq!(fallback.link_between(NodeId(99), NodeId(0)), None);
    }

    #[test]
    fn hosts_attach_to_switches() {
        let mut tb = Topology::builder();
        let s = tb.switch("s");
        let h = tb.host("h");
        tb.biline(s, h, 10e9, 500);
        let t = tb.build();
        assert_eq!(t.host_switch(h), s);
        assert_eq!(t.hosts_of(s), vec![h]);
        assert_eq!(t.switches(), vec![s]);
    }

    #[test]
    #[should_panic(expected = "duplicate node name")]
    fn duplicate_names_rejected() {
        let mut tb = Topology::builder();
        tb.switch("x");
        tb.switch("x");
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loops_rejected() {
        let mut tb = Topology::builder();
        let a = tb.switch("a");
        tb.line(a, a, 1.0, 1);
    }

    /// A doubled cable never reaches a `Topology`, which is what lets
    /// `neighbors` list one entry per link and still list no node twice.
    #[test]
    #[should_panic(expected = "parallel links between n0 and n1")]
    fn doubled_cable_rejected() {
        let mut tb = Topology::builder();
        let a = tb.switch("a");
        let b = tb.switch("b");
        tb.biline(a, b, 10e9, 1_000);
        tb.biline(a, b, 10e9, 400);
        tb.build();
    }

    #[test]
    fn neighbors_are_in_link_order_and_distinct() {
        let mut tb = Topology::builder();
        let [a, b, c] = ["a", "b", "c"].map(|n| tb.switch(n));
        let h = tb.host("h");
        tb.biline(a, c, 10e9, 1_000);
        tb.biline(a, h, 10e9, 1_000);
        tb.biline(a, b, 10e9, 1_000);
        let t = tb.build();
        assert_eq!(t.neighbors(a), vec![c, h, b]);
        assert_eq!(t.switch_neighbors(a), vec![c, b]);
        let sorted: Vec<NodeId> = t.adjacency(a).iter().map(|&(n, _)| n).collect();
        assert_eq!(sorted, vec![b, c, h]);
    }

    #[test]
    fn without_cables_removes_both_directions() {
        let t = diamond();
        let a = t.find("A").unwrap();
        let b = t.find("B").unwrap();
        let t2 = t.without_cables(&[(a, b)]);
        assert_eq!(t2.num_links(), t.num_links() - 2);
        assert!(t2.link_between(a, b).is_none());
        assert!(t2.link_between(b, a).is_none());
        // Node ids and names are preserved.
        assert_eq!(t2.find("A"), Some(a));
    }

    #[test]
    fn max_rtt_on_diamond() {
        let t = diamond();
        // A->B->D costs 2 µs one way; max RTT = 4 µs.
        assert_eq!(t.max_switch_rtt_ns(), 4_000);
    }

    /// The RTT memo is per instance: a clone carries the value, a topology
    /// derived with `without_cables` computes its own.
    #[test]
    fn max_rtt_memo_is_per_instance() {
        let mut tb = Topology::builder();
        let [a, b, c] = ["A", "B", "C"].map(|n| tb.switch(n));
        tb.biline(a, b, 10e9, 1_000);
        tb.biline(b, c, 10e9, 1_000);
        tb.biline(a, c, 10e9, 5_000);
        let t = tb.build();
        assert!(t.max_rtt_ns.get().is_none(), "nothing is scanned at build");
        assert_eq!(t.max_switch_rtt_ns(), 4_000);
        assert_eq!(t.max_rtt_ns.get(), Some(&4_000));
        assert_eq!(t.clone().max_rtt_ns.get(), Some(&4_000));

        // Without A–B, A reaches B over the slow cable: a different answer,
        // so the cut copy must not have inherited the memo.
        let cut = t.without_cables(&[(a, b)]);
        assert!(cut.max_rtt_ns.get().is_none());
        assert_eq!(cut.max_switch_rtt_ns(), 12_000);
        assert_eq!(t.max_switch_rtt_ns(), 4_000);
    }
}
