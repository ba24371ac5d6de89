//! Path algorithms over the switch graph.
//!
//! These power both compilation (alphabet-wide reachability, probe-period
//! bounds) and the baseline systems: ECMP needs the shortest-path DAG,
//! SPAIN needs k-shortest paths with small overlap, and static
//! shortest-path routing needs a deterministic next hop.
//!
//! All functions treat hosts as non-transit: paths never route *through* a
//! host, matching real networks where only switches forward.

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
        FlatGraph {
            forwards: (0..n as u32).map(|i| topo.is_switch(NodeId(i))).collect(),
            out: Half::group(n, links.iter().map(|l| (l.src.0, l.dst.0, l.delay_ns))),
            into: Half::group(n, links.iter().map(|l| (l.dst.0, l.src.0, l.delay_ns))),
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
    pub(crate) fn max_switch_rtt_ns(&self) -> u64 {
        let switches = || (0..self.forwards.len()).filter(|&n| self.forwards[n]);
        let mut s = Scratch::default();
        let mut max = 0;
        for src in switches() {
            self.settle::<false>(&self.out, NodeId(src as u32), &mut s);
            for d in switches().map(|t| s.dist[t]).filter(|&d| d != UNREACHED) {
                max = max.max(2 * d);
            }
        }
        max
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

/// Yen's algorithm: up to `k` loop-free shortest paths (by hop count, ties
/// broken deterministically) from `src` to `dst`, ascending in length.
pub fn k_shortest_paths(topo: &Topology, src: NodeId, dst: NodeId, k: usize) -> Vec<Vec<NodeId>> {
    let Some(first) = shortest_path(topo, src, dst) else {
        return Vec::new();
    };
    let mut found: Vec<Vec<NodeId>> = vec![first];
    let mut candidates: Vec<Vec<NodeId>> = Vec::new();

    while found.len() < k {
        let last = found.last().unwrap().clone();
        for i in 0..last.len() - 1 {
            let spur_node = last[i];
            let root: Vec<NodeId> = last[..=i].to_vec();
            // Forbid links used by previous paths sharing this root, and all
            // root nodes except the spur node (loop-freedom).
            let mut banned_links: Vec<(NodeId, NodeId)> = Vec::new();
            for p in &found {
                if p.len() > i && p[..=i] == root[..] {
                    banned_links.push((p[i], p[i + 1]));
                }
            }
            let banned_nodes: Vec<NodeId> = root[..i].to_vec();
            if let Some(spur) =
                constrained_shortest(topo, spur_node, dst, &banned_nodes, &banned_links)
            {
                let mut cand = root;
                cand.extend_from_slice(&spur[1..]);
                if !found.contains(&cand) && !candidates.contains(&cand) {
                    candidates.push(cand);
                }
            }
        }
        if candidates.is_empty() {
            break;
        }
        candidates.sort_by_key(|p| (p.len(), p.iter().map(|n| n.0).collect::<Vec<_>>()));
        found.push(candidates.remove(0));
    }
    found
}

/// BFS shortest path avoiding the given nodes and directed links.
fn constrained_shortest(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    banned_nodes: &[NodeId],
    banned_links: &[(NodeId, NodeId)],
) -> Option<Vec<NodeId>> {
    if banned_nodes.contains(&src) {
        return None;
    }
    let mut prev: Vec<Option<NodeId>> = vec![None; topo.num_nodes()];
    let mut seen = vec![false; topo.num_nodes()];
    seen[src.0 as usize] = true;
    let mut q = VecDeque::new();
    q.push_back(src);
    while let Some(n) = q.pop_front() {
        if n == dst {
            let mut path = vec![dst];
            let mut cur = dst;
            while let Some(p) = prev[cur.0 as usize] {
                path.push(p);
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        if n != src && !topo.is_switch(n) {
            continue;
        }
        let mut nbrs = topo.neighbors(n);
        nbrs.sort_unstable();
        for m in nbrs {
            if seen[m.0 as usize] || banned_nodes.contains(&m) || banned_links.contains(&(n, m)) {
                continue;
            }
            seen[m.0 as usize] = true;
            prev[m.0 as usize] = Some(n);
            q.push_back(m);
        }
    }
    None
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
    fn yen_finds_distinct_loop_free_paths() {
        let t = diamond_plus();
        let a = t.find("A").unwrap();
        let d = t.find("D").unwrap();
        let ps = k_shortest_paths(&t, a, d, 3);
        assert_eq!(ps.len(), 3);
        // Ascending length, all simple, all distinct.
        assert!(ps.windows(2).all(|w| w[0].len() <= w[1].len()));
        for p in &ps {
            let mut q = p.clone();
            q.sort_unstable();
            q.dedup();
            assert_eq!(q.len(), p.len(), "path {p:?} has a repeated node");
            assert_eq!(p[0], a);
            assert_eq!(*p.last().unwrap(), d);
        }
        assert_eq!(ps[0], vec![a, d]);
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

    #[test]
    fn dijkstra_prefers_low_delay() {
        let t = diamond_plus();
        let a = t.find("A").unwrap();
        let dist = dijkstra_delay(&t, a);
        // Via B or C: 2000 ns < direct 5000 ns.
        assert_eq!(dist[t.find("D").unwrap().0 as usize], Some(2_000));
    }
}
