//! Path algorithms over the switch graph.
//!
//! These power both compilation (alphabet-wide reachability, probe-period
//! bounds) and the baseline systems: ECMP needs the shortest-path DAG and
//! static shortest-path routing needs a deterministic next hop.
//!
//! All functions treat hosts as non-transit: paths never route *through* a
//! host, matching real networks where only switches forward.
//!
//! Every shortest-path search runs on one kernel, `FlatGraph::settle`.
//! The all-pairs RTT scan behind [`Topology::max_switch_rtt_ns`] asks it
//! once per switch — O(V·E), the general path — unless every
//! switch-to-switch link has the same delay, a property read off the
//! links and true of every generator here. Then the largest delay is that
//! delay times the hop diameter, and the diameter comes from
//! breadth-first search run from 64 sources at a time, one bit per source
//! in a word per node: V/64 sweeps of the edges instead of V. A WAN
//! (Abilene, a GraphML file with per-link delays) has no such shortcut
//! and takes the per-source scan, which is also what the unit tests hold
//! the word-parallel one against.

use crate::{NodeId, Topology};
use std::collections::VecDeque;

/// Distance of a node the search did not reach.
const UNREACHED: u64 = u64::MAX;

/// One direction of the flat graph: the edges of node `n` are
/// `edges[offsets[n]..offsets[n + 1]]`, each `(other end, link delay)`.
#[derive(Debug, Clone)]
struct Half {
    offsets: Vec<u32>,
    edges: Vec<(u32, u64)>,
}

impl Half {
    /// Groups `edges` (`(from, to, delay)`) by `from`, keeping their order.
    fn group(nodes: usize, edges: impl Iterator<Item = (u32, u32, u64)> + Clone) -> Half {
        let mut offsets = vec![0u32; nodes + 1];
        for (from, _, _) in edges.clone() {
            offsets[from as usize + 1] += 1;
        }
        for n in 0..nodes {
            offsets[n + 1] += offsets[n];
        }
        let mut at = offsets.clone();
        let mut grouped = vec![(0, 0); offsets[nodes] as usize];
        for (from, to, delay) in edges {
            let e = &mut at[from as usize];
            grouped[*e as usize] = (to, delay);
            *e += 1;
        }
        Half {
            offsets,
            edges: grouped,
        }
    }

    fn edges(&self, n: usize) -> &[(u32, u64)] {
        &self.edges[self.offsets[n] as usize..self.offsets[n + 1] as usize]
    }
}

/// The flat view every shortest-path search here runs on: out-edges and
/// in-edges of each node in link order, and the one place the "hosts never
/// forward" rule lives. [`Topology`] builds it on first use.
#[derive(Debug, Clone)]
pub(crate) struct FlatGraph {
    /// Switches relay; any other node only starts or ends a path.
    forwards: Vec<bool>,
    out: Half,
    into: Half,
}

/// What a search owns between calls, so that a scan over many sources
/// allocates once: the distances of the last search and the frontier.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Distance per node after [`FlatGraph::settle`]; [`UNREACHED`] if none.
    dist: Vec<u64>,
    /// Reached nodes not yet settled, one bucket per distinct distance,
    /// farthest first (the nearest bucket pops off the end).
    pending: Vec<(u64, Vec<u32>)>,
    /// Emptied buckets, kept for their storage.
    spare: Vec<Vec<u32>>,
}

impl FlatGraph {
    pub(crate) fn of(topo: &Topology) -> FlatGraph {
        let links = topo.links();
        let n = topo.num_nodes();
        FlatGraph::new(
            (0..n as u32).map(|i| topo.is_switch(NodeId(i))).collect(),
            links.iter().map(|l| (l.src.0, l.dst.0, l.delay_ns)),
        )
    }

    /// The graph of directed `links` (`(from, to, delay)`, in link order)
    /// over `forwards.len()` nodes.
    fn new(forwards: Vec<bool>, links: impl Iterator<Item = (u32, u32, u64)> + Clone) -> FlatGraph {
        let n = forwards.len();
        FlatGraph {
            forwards,
            out: Half::group(n, links.clone()),
            into: Half::group(n, links.map(|(from, to, delay)| (to, from, delay))),
        }
    }

    /// Shortest distances from `source` along `half` into `s.dist`, by
    /// link delay or, with `UNIT`, by hop count. The frontier is settled a
    /// whole distance value at a time, nearest first: that is Dijkstra's
    /// order with one ordered insertion per distinct distance, and with
    /// equal link costs it is breadth-first search, one bucket alive.
    fn settle<const UNIT: bool>(&self, half: &Half, source: NodeId, s: &mut Scratch) {
        let Scratch {
            dist,
            pending,
            spare,
        } = s;
        let source = source.0 as usize;
        dist.clear();
        dist.resize(self.forwards.len(), UNREACHED);
        dist[source] = 0;
        let mut d = 0;
        let mut level = spare.pop().unwrap_or_default();
        level.push(source as u32);
        let mut unreached = dist.len() - 1;
        loop {
            // With every node reached and no bucket farther out, the
            // relaxations of this level could only fail: skip them.
            let last = unreached == 0 && pending.is_empty();
            // Zero-delay links grow the level while it is being settled.
            let mut i = if last { level.len() } else { 0 };
            while let Some(&n) = level.get(i) {
                i += 1;
                let n = n as usize;
                // Reached again at a smaller distance: settled there.
                if dist[n] != d || (n != source && !self.forwards[n]) {
                    continue;
                }
                for &(m, delay) in half.edges(n) {
                    let nd = d + if UNIT { 1 } else { delay };
                    let old = dist[m as usize];
                    if nd >= old {
                        continue;
                    }
                    dist[m as usize] = nd;
                    unreached -= usize::from(old == UNREACHED);
                    if nd == d {
                        level.push(m);
                        continue;
                    }
                    // Farthest first: the nearest bucket, the likeliest
                    // target, is at the end.
                    let mut at = pending.len();
                    while at > 0 && pending[at - 1].0 < nd {
                        at -= 1;
                    }
                    if at == 0 || pending[at - 1].0 != nd {
                        pending.insert(at, (nd, spare.pop().unwrap_or_default()));
                        at += 1;
                    }
                    pending[at - 1].1.push(m);
                }
            }
            level.clear();
            spare.push(level);
            match pending.pop() {
                Some((nd, nodes)) => (d, level) = (nd, nodes),
                None => return,
            }
        }
    }

    /// Twice the largest shortest-delay distance between two switches.
    /// When every switch-to-switch link has one delay, a shortest-delay
    /// path is a fewest-hops path, so the answer is that delay times the
    /// hop diameter; otherwise one search per switch.
    pub(crate) fn max_switch_rtt_ns(&self) -> u64 {
        match self.uniform_switch_delay() {
            Some(delay) => 2 * delay * self.switch_hop_diameter(),
            None => self.max_switch_rtt_per_source(),
        }
    }

    /// Nodes that forward, in id order.
    fn switches(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.forwards.len()).filter(|&n| self.forwards[n])
    }

    /// The delay every switch-to-switch link has, if they all have one
    /// (`None` also when there is no such link). Links to and from hosts
    /// do not count: no path between two switches crosses one.
    fn uniform_switch_delay(&self) -> Option<u64> {
        let from_switches = self.switches().flat_map(|n| self.out.edges(n));
        let mut delays = from_switches
            .filter(|e| self.forwards[e.0 as usize])
            .map(|e| e.1);
        let first = delays.next()?;
        delays.all(|d| d == first).then_some(first)
    }

    /// The general scan, and the oracle of the word-parallel one:
    /// [`settle`](FlatGraph::settle) by delay from every switch.
    fn max_switch_rtt_per_source(&self) -> u64 {
        let mut s = Scratch::default();
        let mut max = 0;
        for src in self.switches() {
            self.settle::<false>(&self.out, NodeId(src as u32), &mut s);
            for d in self.switches().map(|t| s.dist[t]) {
                if d != UNREACHED {
                    max = max.max(2 * d);
                }
            }
        }
        max
    }

    /// The largest hop distance from one switch to another it can reach
    /// over switch-to-switch links: breadth-first search from 64 sources
    /// at a time, one bit per source in a word per node. A level moves
    /// the bits of each frontier node to the neighbours that have not
    /// seen them; a batch is as deep as the levels that moved a bit.
    fn switch_hop_diameter(&self) -> u64 {
        let n = self.forwards.len();
        // Per node: the sources that have reached it, those that reached
        // it at this level, those reaching it at the next.
        let (mut seen, mut cur, mut next) = (vec![0u64; n], vec![0u64; n], vec![0u64; n]);
        // The nodes with a bit in `cur`, in `next`.
        let (mut frontier, mut reached) = (Vec::<u32>::new(), Vec::<u32>::new());
        let mut sources = self.switches().peekable();
        let mut diameter = 0;
        while sources.peek().is_some() {
            seen.fill(0);
            for (bit, src) in sources.by_ref().take(64).enumerate() {
                (seen[src], cur[src]) = (1 << bit, 1 << bit);
                frontier.push(src as u32);
            }
            let mut depth = 0;
            loop {
                for &v in &frontier {
                    let bits = std::mem::take(&mut cur[v as usize]);
                    for &(w, _) in self.out.edges(v as usize) {
                        let w = w as usize;
                        let new = bits & !seen[w];
                        if new != 0 && self.forwards[w] {
                            if next[w] == 0 {
                                reached.push(w as u32);
                            }
                            next[w] |= new;
                        }
                    }
                }
                frontier.clear();
                if reached.is_empty() {
                    break;
                }
                depth += 1;
                for &w in &reached {
                    seen[w as usize] |= next[w as usize];
                }
                std::mem::swap(&mut cur, &mut next);
                std::mem::swap(&mut frontier, &mut reached);
            }
            diameter = diameter.max(depth);
        }
        diameter
    }
}

/// BFS hop distances from every node **to** `dst`, forwarding only through
/// switches. `None` means unreachable.
pub fn hop_distances_to(topo: &Topology, dst: NodeId) -> Vec<Option<u32>> {
    let g = topo.flat();
    let mut s = Scratch::default();
    g.settle::<true>(&g.into, dst, &mut s);
    let reached = |&d: &u64| (d != UNREACHED).then_some(d as u32);
    s.dist.iter().map(reached).collect()
}

/// Dijkstra over propagation delay from `src` to every node, in ns.
pub fn dijkstra_delay(topo: &Topology, src: NodeId) -> Vec<Option<u64>> {
    let g = topo.flat();
    let mut s = Scratch::default();
    g.settle::<false>(&g.out, src, &mut s);
    let reached = |&d: &u64| (d != UNREACHED).then_some(d);
    s.dist.iter().map(reached).collect()
}

/// For every node, the set of next hops lying on *some* shortest hop-count
/// path toward `dst`. This is the classic ECMP DAG.
pub fn ecmp_next_hops(topo: &Topology, dst: NodeId) -> Vec<Vec<NodeId>> {
    let dist = hop_distances_to(topo, dst);
    let g = topo.flat();
    let mut next = vec![Vec::new(); dist.len()];
    for (n, hops) in next.iter_mut().enumerate() {
        let Some(d) = dist[n].filter(|&d| d > 0) else {
            continue;
        };
        let neighbors = g.out.edges(n).iter().map(|&(m, _)| m);
        hops.extend(
            neighbors
                .filter(|&m| dist[m as usize] == Some(d - 1))
                .map(NodeId),
        );
        hops.sort_unstable();
    }
    next
}

/// One deterministic shortest path from `src` to `dst` (lowest-numbered
/// next hop at every step), as a node sequence including both endpoints.
/// Returns `None` when unreachable.
pub fn shortest_path(topo: &Topology, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
    let next = ecmp_next_hops(topo, dst);
    let mut path = vec![src];
    let mut cur = src;
    while cur != dst {
        let hops = &next[cur.0 as usize];
        let &nh = hops.first()?;
        path.push(nh);
        cur = nh;
    }
    Some(path)
}

/// Whether the switch graph is connected (ignoring hosts).
pub fn switch_graph_connected(topo: &Topology) -> bool {
    let switches = topo.switches();
    let Some(&start) = switches.first() else {
        return true;
    };
    let mut seen = vec![false; topo.num_nodes()];
    seen[start.0 as usize] = true;
    let mut q = VecDeque::new();
    q.push_back(start);
    let mut count = 1;
    while let Some(n) = q.pop_front() {
        for m in topo.switch_neighbors(n) {
            if !seen[m.0 as usize] {
                seen[m.0 as usize] = true;
                count += 1;
                q.push_back(m);
            }
        }
    }
    count == switches.len()
}

/// Enumerates **all** simple switch paths from `src` to `dst`, up to
/// `max_hops` hops. Exponential — exists purely as a ground-truth oracle for
/// tests of the product graph and the protocol's optimality property.
pub fn all_simple_paths(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    max_hops: usize,
) -> Vec<Vec<NodeId>> {
    let mut out = Vec::new();
    let mut stack = vec![src];
    let mut on_path = vec![false; topo.num_nodes()];
    on_path[src.0 as usize] = true;
    fn rec(
        topo: &Topology,
        dst: NodeId,
        max_hops: usize,
        stack: &mut Vec<NodeId>,
        on_path: &mut Vec<bool>,
        out: &mut Vec<Vec<NodeId>>,
    ) {
        let cur = *stack.last().unwrap();
        if cur == dst {
            out.push(stack.clone());
            return;
        }
        if stack.len() > max_hops {
            return;
        }
        let mut nbrs = topo.switch_neighbors(cur);
        nbrs.sort_unstable();
        nbrs.dedup();
        for m in nbrs {
            if on_path[m.0 as usize] {
                continue;
            }
            on_path[m.0 as usize] = true;
            stack.push(m);
            rec(topo, dst, max_hops, stack, on_path, out);
            stack.pop();
            on_path[m.0 as usize] = false;
        }
    }
    rec(topo, dst, max_hops, &mut stack, &mut on_path, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Topology;

    /// A -- B -- D and A -- C -- D diamond plus direct A -- D link.
    fn diamond_plus() -> Topology {
        let mut t = Topology::builder();
        let a = t.switch("A");
        let b = t.switch("B");
        let c = t.switch("C");
        let d = t.switch("D");
        t.biline(a, b, 10e9, 1_000);
        t.biline(a, c, 10e9, 1_000);
        t.biline(b, d, 10e9, 1_000);
        t.biline(c, d, 10e9, 1_000);
        t.biline(a, d, 10e9, 5_000);
        t.build()
    }

    #[test]
    fn bfs_distances() {
        let t = diamond_plus();
        let d = t.find("D").unwrap();
        let dist = hop_distances_to(&t, d);
        assert_eq!(dist[t.find("A").unwrap().0 as usize], Some(1));
        assert_eq!(dist[t.find("B").unwrap().0 as usize], Some(1));
        assert_eq!(dist[d.0 as usize], Some(0));
    }

    #[test]
    fn ecmp_sets() {
        let mut tb = Topology::builder();
        let s = tb.switch("S");
        let a = tb.switch("A");
        let b = tb.switch("B");
        let d = tb.switch("D");
        tb.biline(s, a, 1.0, 1);
        tb.biline(s, b, 1.0, 1);
        tb.biline(a, d, 1.0, 1);
        tb.biline(b, d, 1.0, 1);
        let t = tb.build();
        let next = ecmp_next_hops(&t, d);
        assert_eq!(next[s.0 as usize], vec![a, b]);
        assert_eq!(next[a.0 as usize], vec![d]);
    }

    #[test]
    fn shortest_path_prefers_fewest_hops() {
        let t = diamond_plus();
        let a = t.find("A").unwrap();
        let d = t.find("D").unwrap();
        let p = shortest_path(&t, a, d).unwrap();
        assert_eq!(p, vec![a, d]);
    }

    #[test]
    fn hosts_do_not_transit() {
        let mut tb = Topology::builder();
        let a = tb.switch("A");
        let b = tb.switch("B");
        let h = tb.host("h");
        // a -- h -- b : the only "path" runs through a host, so unreachable.
        tb.biline(a, h, 1.0, 1);
        tb.biline(h, b, 1.0, 1);
        let t = tb.build();
        let dist = hop_distances_to(&t, b);
        assert_eq!(dist[a.0 as usize], None);
        assert!(shortest_path(&t, a, b).is_none());
    }

    #[test]
    fn all_simple_paths_oracle() {
        let t = diamond_plus();
        let a = t.find("A").unwrap();
        let d = t.find("D").unwrap();
        let ps = all_simple_paths(&t, a, d, 8);
        // A-D, A-B-D, A-C-D, A-B-D? no loops: exactly A-D, ABD, ACD.
        assert_eq!(ps.len(), 3);
    }

    #[test]
    fn connectivity_check() {
        let t = diamond_plus();
        assert!(switch_graph_connected(&t));
        let mut tb = Topology::builder();
        tb.switch("x");
        tb.switch("y");
        let t2 = tb.build();
        assert!(!switch_graph_connected(&t2));
    }

    /// `topo` rebuilt link by link: `delay` (link index, link) gives each
    /// directed link its delay, or `None` to leave it out.
    fn relinked(topo: &Topology, delay: impl Fn(usize, &crate::Link) -> Option<u64>) -> Topology {
        let mut tb = Topology::builder();
        for node in topo.nodes() {
            match node.kind {
                crate::NodeKind::Switch => tb.switch(&node.name),
                crate::NodeKind::Host => tb.host(&node.name),
            };
        }
        for (i, l) in topo.links().iter().enumerate() {
            if let Some(delay) = delay(i, l) {
                tb.line(l.src, l.dst, l.bandwidth_bps, delay);
            }
        }
        tb.build()
    }

    /// Twice the largest finite switch-to-switch entry of per-source
    /// [`dijkstra_delay`] — the definition, through the public function.
    fn max_rtt_by_dijkstra(topo: &Topology) -> u64 {
        let switches = topo.switches();
        let from = |&s: &NodeId| dijkstra_delay(topo, s);
        let rows = switches.iter().map(from);
        let far = rows.flat_map(|row| switches.iter().filter_map(move |t| row[t.0 as usize]));
        2 * far.max().unwrap_or(0)
    }

    /// Where every switch-to-switch link has one delay the word-parallel
    /// scan runs, and agrees with the per-source scan it stands in for.
    #[test]
    fn word_parallel_scan_matches_per_source_scan() {
        use crate::generators::{fat_tree, leaf_spine, random_connected, LinkSpec};
        let spec = LinkSpec::default();
        let slow_edge = LinkSpec {
            delay_ns: 7_000,
            ..spec
        };
        let mut cases = vec![
            ("fat-tree(4) with hosts", fat_tree(4, 2, spec)),
            ("fat-tree(8), 80 switches", fat_tree(8, 0, spec)),
            // Host links of another delay do not make the fabric uneven.
            ("leaf-spine", leaf_spine(4, 2, 2, spec, slow_edge)),
            ("two switches", random_connected(2, 0, spec, 1)),
        ];
        for seed in 1..=6 {
            cases.push(("random, 64 switches", random_connected(64, 40, spec, seed)));
            cases.push(("random, 65 switches", random_connected(65, 10, spec, seed)));
            cases.push((
                "random, 150 switches",
                random_connected(150, 60, spec, seed),
            ));
        }
        // A tree with one cable cut: two components.
        let tree = random_connected(40, 0, spec, 9);
        let bridge = &tree.links()[20];
        let cut = tree.without_cables(&[(bridge.src, bridge.dst)]);
        assert!(!switch_graph_connected(&cut));
        cases.push(("cut tree", cut));
        let flat4 = fat_tree(4, 1, spec);
        cases.push(("zero delay", relinked(&flat4, |_, _| Some(0))));
        // One direction of a cable gone: reachability is not symmetric.
        let mesh = random_connected(12, 6, spec, 3);
        let one_way = relinked(&mesh, |i, l| (i != 3).then_some(l.delay_ns));
        cases.push(("one-way link", one_way));

        for (what, topo) in &cases {
            let g = topo.flat();
            assert!(g.uniform_switch_delay().is_some(), "{what}: one delay");
            let want = g.max_switch_rtt_per_source();
            assert_eq!(g.max_switch_rtt_ns(), want, "{what}");
            assert_eq!(max_rtt_by_dijkstra(topo), want, "{what}: the oracle's own");
        }
    }

    /// A lone switch has no link to read a delay off and is its own
    /// diameter; a doubled cable, which [`Topology`] cannot hold, is two
    /// edges the scans must both take in their stride.
    #[test]
    fn scan_corner_graphs() {
        let mut tb = Topology::builder();
        tb.switch("only");
        let lone = tb.build();
        assert_eq!(lone.flat().uniform_switch_delay(), None);
        assert_eq!(lone.flat().switch_hop_diameter(), 0);
        assert_eq!(lone.max_switch_rtt_ns(), 0);

        // a = b - c, the a–b cable doubled: once with the same delay…
        let cable = |a, b, d| [(a, b, d), (b, a, d)];
        let chain = |second| {
            let links = [cable(0, 1, 1_000), cable(0, 1, second), cable(1, 2, 1_000)];
            FlatGraph::new(vec![true; 3], links.into_iter().flatten())
        };
        let same = chain(1_000);
        assert_eq!(same.uniform_switch_delay(), Some(1_000));
        assert_eq!(same.switch_hop_diameter(), 2);
        assert_eq!(same.max_switch_rtt_ns(), 4_000);
        assert_eq!(same.max_switch_rtt_per_source(), 4_000);
        // … and once faster, which the general scan must prefer.
        let faster = chain(400);
        assert_eq!(faster.uniform_switch_delay(), None);
        assert_eq!(faster.max_switch_rtt_ns(), 2 * (400 + 1_000));
    }

    /// One link of another delay and the general scan runs — the same
    /// answer per-source [`dijkstra_delay`] gives.
    #[test]
    fn uneven_delays_take_the_general_scan() {
        use crate::generators::{abilene, random_connected, LinkSpec};
        for seed in 1..=4 {
            let even = random_connected(70, 50, LinkSpec::default(), seed);
            let pick = 2 * seed as usize + 1;
            let uneven = relinked(&even, |i, l| Some(l.delay_ns + 300 * u64::from(i == pick)));
            assert_eq!(uneven.flat().uniform_switch_delay(), None);
            assert_eq!(uneven.max_switch_rtt_ns(), max_rtt_by_dijkstra(&uneven));
        }
        let wan = abilene(40e9);
        assert_eq!(wan.flat().uniform_switch_delay(), None);
        assert_eq!(wan.max_switch_rtt_ns(), max_rtt_by_dijkstra(&wan));
    }

    #[test]
    fn dijkstra_prefers_low_delay() {
        let t = diamond_plus();
        let a = t.find("A").unwrap();
        let dist = dijkstra_delay(&t, a);
        // Via B or C: 2000 ns < direct 5000 ns.
        assert_eq!(dist[t.find("D").unwrap().0 as usize], Some(2_000));
    }
}
