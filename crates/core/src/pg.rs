//! The product graph (PG, §4.1): the joint exploration of the topology and
//! all policy automata.
//!
//! Each **virtual node** pairs a physical switch with one state per policy
//! automaton. Because probes flow from the destination toward traffic
//! sources, the automata here run over *reversed* regexes: a probe sitting
//! at virtual node `(X, s₁…sₖ)` has walked a path `dst … X` whose reverse —
//! the path traffic from `X` would take — is accepted by regex `i` exactly
//! when `sᵢ` is accepting. Edges follow probe propagation: `(X, s⃗) →
//! (Y, σ⃗(s⃗, Y))` for every physical link between `X` and `Y`.
//!
//! Construction starts from the **probe-sending states** — for each
//! destination `d`, the virtual node `(d, σ⃗(q⃗₀, d))`, the automata having
//! already consumed `d` itself — and explores breadth-first. A pruning pass
//! then removes virtual nodes that can never contribute a finite-rank path
//! to any source (the paper's tag-minimization optimization); what survives
//! is exactly the state the switches must track.
//!
//! The graph is handed on as the flat arrays it is built in, which every
//! reader slices — the compiler's tables, the P4 emitter, the state model,
//! the simulated switch and the verifier: a [`VNode`] holds no heap data,
//! the states and acceptance bits of all virtual nodes are one array
//! each, the successors are one compressed sparse row and the virtual
//! nodes of a switch are one run of ids. Apart from the `sending` map, a
//! graph of any size is a fixed number of allocations.

use crate::normal::BranchRank;
use crate::normal::NormalPolicy;
use contra_automata::Dfa;
use contra_topology::{NodeId, Topology};
use std::collections::BTreeMap;

/// Identifier of a virtual node in the product graph. Probes and packets
/// carry these as their `tag` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VNodeId(pub u32);

/// A run of consecutive virtual-node ids: one switch's virtual nodes, in
/// tag order ([`ProductGraph::vnodes_at`]). Tag `t` of the run is
/// `VNodeId(first + t)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VNodeRun {
    start: u32,
    end: u32,
}

impl VNodeRun {
    /// The ids in order.
    pub fn iter(self) -> impl ExactSizeIterator<Item = VNodeId> + Clone {
        (self.start..self.end).map(VNodeId)
    }

    /// Number of ids.
    pub fn len(self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the run holds no id.
    pub fn is_empty(self) -> bool {
        self.start == self.end
    }

    /// The first id (tag 0), if any.
    pub fn first(self) -> Option<VNodeId> {
        (!self.is_empty()).then_some(VNodeId(self.start))
    }
}

/// A virtual node: a physical switch and its place among that switch's
/// virtual nodes. Its automaton states and acceptance bits are
/// [`ProductGraph::states`] and [`ProductGraph::acc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VNode {
    /// The physical switch.
    pub switch: NodeId,
    /// Dense per-switch tag index (0-based); the number of distinct tags a
    /// switch needs bounds its header bits and table sizes.
    pub tag: u16,
    /// Whether some branch of the policy can assign a finite rank to a path
    /// with this acceptance vector (i.e. traffic sourced here may use it).
    pub finite: bool,
}

/// The product graph, in flat arrays that every reader slices.
///
/// Virtual nodes are numbered by switch, and within a switch in tag
/// order, so a switch's virtual nodes are one consecutive run of ids
/// ([`ProductGraph::vnodes_at`]). Each node's `k` automaton states and
/// `k` acceptance bits sit in one array each, and its probe-direction
/// successors are one row of a compressed sparse row (CSR) adjacency: an
/// offset array plus one flat edge array.
#[derive(Debug, Clone)]
pub struct ProductGraph {
    /// Number of automata, `k`: the states and acceptance bits per vnode.
    k: usize,
    /// All virtual nodes, indexed by [`VNodeId`].
    vnodes: Vec<VNode>,
    /// Vnode `v`'s automaton states are `states[v * k..][..k]`, and its
    /// acceptance bits — whether the traffic path from its switch to the
    /// probe's origin matches each regex — `acc[v * k..][..k]`.
    states: Vec<usize>,
    acc: Vec<bool>,
    /// The virtual nodes probes at `v` are multicast to, ascending:
    /// `succs[first_succ[v]..first_succ[v + 1]]`.
    first_succ: Vec<u32>,
    succs: Vec<VNodeId>,
    /// Topology node `s`'s virtual nodes are the ids
    /// `first_at[s]..first_at[s + 1]`.
    first_at: Vec<u32>,
    /// For each destination that can be the origin of probes, its
    /// probe-sending virtual node.
    pub sending: BTreeMap<NodeId, VNodeId>,
}

impl ProductGraph {
    /// Builds the product graph for the given reversed automata and
    /// destinations, pruning useless virtual nodes when `prune` is set.
    pub fn build(
        topo: &Topology,
        automata: &[Dfa],
        normal: &NormalPolicy,
        destinations: &[NodeId],
        prune: bool,
    ) -> ProductGraph {
        let k = automata.len();
        let nodes = topo.num_nodes();
        // Every automaton is stepped on switch `y` once per edge into `y`:
        // resolve `y`'s column in each alphabet once, `cols[i * nodes + y]`.
        let cols: Vec<Option<usize>> = automata
            .iter()
            .flat_map(|a| (0..nodes as u32).map(|y| a.sym_index(y)))
            .collect();
        let step = |i: usize, state: usize, y: NodeId| match cols[i * nodes + y.0 as usize] {
            Some(column) => automata[i].step_at(state, column),
            // Outside the alphabet: the dead state, or `Dfa::step`'s panic.
            None => automata[i].step(state, y.0),
        };

        // Explore in probe direction from the probe-sending states. Raw
        // nodes are expanded in the order they were found, so the
        // successors of node `v` are `edges[first_edge[v]..first_edge[v + 1]]`.
        let mut raw = RawNodes::new(k, nodes);
        let mut sending: Vec<(NodeId, u32)> = Vec::with_capacity(destinations.len());
        for &d in destinations {
            for (i, a) in automata.iter().enumerate() {
                raw.states.push(step(i, a.start, d));
            }
            sending.push((d, raw.intern_tail(d)));
        }
        let mut edges: Vec<u32> = Vec::new();
        let mut first_edge: Vec<u32> = Vec::new();
        let mut v = 0;
        while v < raw.len() {
            first_edge.push(edges.len() as u32);
            let neighbors = topo.adjacency(raw.switch_of[v]);
            // Distinct neighbours are distinct switches, so no successor
            // of `v` is found twice.
            debug_assert!(neighbors.windows(2).all(|n| n[0].0 < n[1].0));
            for &(y, _) in neighbors.iter().filter(|&&(y, _)| topo.is_switch(y)) {
                for i in 0..k {
                    raw.states.push(step(i, raw.states[v * k + i], y));
                }
                edges.push(raw.intern_tail(y));
            }
            v += 1;
        }
        first_edge.push(edges.len() as u32);
        let n = raw.len();
        let succs =
            |v: u32| &edges[first_edge[v as usize] as usize..first_edge[v as usize + 1] as usize];

        // Acceptance and finite-rank classification.
        let acc_of: Vec<bool> = (0..n as u32)
            .flat_map(|v| {
                automata
                    .iter()
                    .zip(raw.states_of(v))
                    .map(|(a, &s)| a.accept[s])
            })
            .collect();
        let acc = |v: u32| &acc_of[v as usize * k..][..k];
        let finite_of: Vec<bool> = (0..n as u32)
            .map(|v| finite_possible(normal, acc(v)))
            .collect();

        // Usefulness: a vnode is kept if it, or anything probes reach from
        // it, can carry a finite-rank path for some source.
        let keep = if prune && !finite_of.iter().all(|&f| f) {
            reaching(&finite_of, &first_edge, &edges)
        } else {
            vec![true; n]
        };

        // Compact, deterministic renumbering: kept vnodes in (switch,
        // states) order, so output is independent of exploration order.
        let mut kept: Vec<u32> = Vec::with_capacity(n);
        let mut first_at: Vec<u32> = Vec::with_capacity(nodes + 1);
        for switch in (0..nodes as u32).map(NodeId) {
            let from = kept.len();
            first_at.push(from as u32);
            kept.extend(raw.at(switch).filter(|&v| keep[v as usize]));
            kept[from..].sort_unstable_by_key(|&v| raw.states_of(v));
        }
        first_at.push(kept.len() as u32);
        let mut renum = vec![u32::MAX; n];
        for (new, &old) in kept.iter().enumerate() {
            renum[old as usize] = new as u32;
        }

        let mut pg = ProductGraph {
            k,
            vnodes: Vec::with_capacity(kept.len()),
            states: Vec::with_capacity(kept.len() * k),
            acc: Vec::with_capacity(kept.len() * k),
            first_succ: Vec::with_capacity(kept.len() + 1),
            succs: Vec::with_capacity(edges.len()),
            first_at,
            sending: BTreeMap::new(),
        };
        for (switch, run) in (0..nodes as u32).zip(pg.first_at.windows(2)) {
            let here = &kept[run[0] as usize..run[1] as usize];
            for (tag, &old) in here.iter().enumerate() {
                pg.vnodes.push(VNode {
                    switch: NodeId(switch),
                    tag: tag as u16,
                    finite: finite_of[old as usize],
                });
                pg.states.extend_from_slice(raw.states_of(old));
                pg.acc.extend_from_slice(acc(old));
                let row = pg.succs.len();
                pg.first_succ.push(row as u32);
                let kept_succs = succs(old).iter().filter(|&&w| keep[w as usize]);
                pg.succs
                    .extend(kept_succs.map(|&w| VNodeId(renum[w as usize])));
                // Found in neighbour order, and new ids ascend with the
                // switch: already sorted.
                debug_assert!(pg.succs[row..].windows(2).all(|w| w[0] < w[1]));
            }
        }
        pg.first_succ.push(pg.succs.len() as u32);
        pg.sending = sending
            .into_iter()
            .filter(|&(_, v)| keep[v as usize])
            .map(|(d, v)| (d, VNodeId(renum[v as usize])))
            .collect();
        pg
    }

    /// Number of virtual nodes.
    pub fn len(&self) -> usize {
        self.vnodes.len()
    }

    /// True when the graph is empty (the policy forbids every path).
    pub fn is_empty(&self) -> bool {
        self.vnodes.is_empty()
    }

    /// All virtual nodes, indexed by [`VNodeId`].
    pub fn vnodes(&self) -> &[VNode] {
        &self.vnodes
    }

    /// The virtual node record.
    pub fn vnode(&self, v: VNodeId) -> &VNode {
        &self.vnodes[v.0 as usize]
    }

    /// The state of `v` in each automaton.
    pub fn states(&self, v: VNodeId) -> &[usize] {
        &self.states[v.0 as usize * self.k..][..self.k]
    }

    /// Acceptance of each automaton at `v`'s states — i.e. whether the
    /// traffic path from `v`'s switch to the probe's origin matches each
    /// regex.
    pub fn acc(&self, v: VNodeId) -> &[bool] {
        &self.acc[v.0 as usize * self.k..][..self.k]
    }

    /// Probe-direction successors, ascending.
    pub fn succs(&self, v: VNodeId) -> &[VNodeId] {
        let v = v.0 as usize;
        &self.succs[self.first_succ[v] as usize..self.first_succ[v + 1] as usize]
    }

    /// The virtual nodes at `switch`, in tag order: consecutive ids, none
    /// for a node the graph does not hold.
    pub fn vnodes_at(&self, switch: NodeId) -> VNodeRun {
        let s = switch.0 as usize;
        match self.first_at.get(s..s + 2) {
            Some(&[start, end]) => VNodeRun { start, end },
            _ => VNodeRun::default(),
        }
    }

    /// Maximum number of tags any switch needs — determines header bits.
    pub fn max_tags_per_switch(&self) -> usize {
        let runs = self.first_at.windows(2).map(|r| (r[1] - r[0]) as usize);
        runs.max().unwrap_or(0)
    }
}

/// Whether any branch can assign a finite rank under this acceptance vector
/// (metric guards are assumed satisfiable — they depend on runtime state).
fn finite_possible(normal: &NormalPolicy, acc: &[bool]) -> bool {
    normal.branches.iter().any(|b| {
        matches!(b.rank, BranchRank::Finite(_)) && b.reqs.iter().all(|&(i, want)| acc[i] == want)
    })
}

/// The nodes [`ProductGraph::build`] has found, before pruning and
/// renumbering: `k` automaton states per node in one arena, and per switch
/// a chain through the nodes found there, which is what a lookup walks.
struct RawNodes {
    k: usize,
    switch_of: Vec<NodeId>,
    /// Node `v`'s states are `states[v * k..][..k]`; a candidate's states
    /// sit at the tail while [`RawNodes::intern_tail`] looks it up.
    states: Vec<usize>,
    /// The node found last at each topology node, and from each node the
    /// one found before it at the same switch; `u32::MAX` ends a chain.
    last_at: Vec<u32>,
    before: Vec<u32>,
}

impl RawNodes {
    fn new(k: usize, topology_nodes: usize) -> RawNodes {
        RawNodes {
            k,
            switch_of: Vec::new(),
            states: Vec::new(),
            last_at: vec![u32::MAX; topology_nodes],
            before: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.switch_of.len()
    }

    fn states_of(&self, v: u32) -> &[usize] {
        &self.states[v as usize * self.k..][..self.k]
    }

    /// The nodes at `switch`, last found first.
    fn at(&self, switch: NodeId) -> impl Iterator<Item = u32> + '_ {
        let mut next = self.last_at[switch.0 as usize];
        std::iter::from_fn(move || {
            let v = next;
            (v != u32::MAX).then(|| {
                next = self.before[v as usize];
                v
            })
        })
    }

    /// The node at `switch` whose states are the `k` words at the arena's
    /// tail: one found earlier, and the tail is dropped, or a new one,
    /// whose states the tail becomes.
    fn intern_tail(&mut self, switch: NodeId) -> u32 {
        let tail_at = self.len() * self.k;
        let tail = &self.states[tail_at..];
        debug_assert_eq!(tail.len(), self.k);
        // Element by element: `==` on slices is a call to `bcmp`, and with
        // no regex in the policy (`k` = 0) both sides are empty and point
        // nowhere, which measured 127 ns a call against 2 ns for any
        // other pair — more than everything else the exploration does.
        let found = (self.at(switch)).find(|&v| self.states_of(v).iter().eq(tail));
        if let Some(v) = found {
            self.states.truncate(tail_at);
            return v;
        }
        let v = self.len() as u32;
        self.switch_of.push(switch);
        let last = std::mem::replace(&mut self.last_at[switch.0 as usize], v);
        self.before.push(last);
        v
    }
}

/// Counting sort of `items` — `(bucket, value)` pairs — into `buckets`
/// runs that keep the items' order: bucket `b` is
/// `values[first[b] as usize..first[b + 1] as usize]`.
pub(crate) fn bucketed<T: Copy>(
    buckets: usize,
    items: impl Iterator<Item = (usize, T)> + Clone,
    fill: T,
) -> (Vec<u32>, Vec<T>) {
    let mut first = vec![0u32; buckets + 1];
    for (b, _) in items.clone() {
        first[b + 1] += 1;
    }
    for b in 0..buckets {
        first[b + 1] += first[b];
    }
    let mut at = first.clone();
    let mut values = vec![fill; first[buckets] as usize];
    for (b, value) in items {
        values[at[b] as usize] = value;
        at[b] += 1;
    }
    (first, values)
}

/// `keep[v]`: whether node `v` is marked or an edge path leads from it to a
/// marked node (node `v`'s successors are
/// `edges[first_edge[v]..first_edge[v + 1]]`) — one backward sweep over the
/// transposed graph.
fn reaching(marked: &[bool], first_edge: &[u32], edges: &[u32]) -> Vec<bool> {
    let n = marked.len();
    let transposed = (0..n).flat_map(|v| {
        let succs = &edges[first_edge[v] as usize..first_edge[v + 1] as usize];
        succs.iter().map(move |&w| (w as usize, v as u32))
    });
    let (first_pred, preds) = bucketed(n, transposed, 0);
    let mut keep = marked.to_vec();
    let mut work: Vec<u32> = (0..n as u32).filter(|&v| keep[v as usize]).collect();
    while let Some(w) = work.pop() {
        let w = w as usize;
        for &v in &preds[first_pred[w] as usize..first_pred[w + 1] as usize] {
            if !std::mem::replace(&mut keep[v as usize], true) {
                work.push(v);
            }
        }
    }
    keep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{CompiledPolicy, Compiler};
    use crate::normal::normalize;
    use crate::parser::parse_policy;
    use crate::policies::catalogue;
    use crate::resolve::resolve_regexes;
    use contra_topology::{generators, Topology};

    /// Figure 6's running example: A–B, A–C, B–C, B–D, C–D.
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

    fn build(src: &str, topo: &Topology, prune: bool) -> ProductGraph {
        let pol = parse_policy(src).unwrap();
        let normal = normalize(&pol).unwrap();
        let automata = resolve_regexes(&normal.regexes, topo)
            .unwrap()
            .into_iter()
            .map(|r| {
                let alphabet: Vec<u32> = topo.switches().iter().map(|s| s.0).collect();
                let (d, _) = Dfa::from_regex(&r.reverse(), &alphabet).minimize();
                d
            })
            .collect::<Vec<_>>();
        ProductGraph::build(topo, &automata, &normal, &topo.switches(), prune)
    }

    /// Every virtual node's id.
    fn ids(pg: &ProductGraph) -> impl Iterator<Item = VNodeId> {
        (0..pg.len() as u32).map(VNodeId)
    }

    #[test]
    fn bucketed_keeps_the_order_within_a_bucket() {
        let items = [(2, 'a'), (0, 'b'), (2, 'c'), (0, 'd')];
        let (first, values) = bucketed(3, items.into_iter(), ' ');
        assert_eq!(first, [0, 2, 2, 4]);
        assert_eq!(values, ['b', 'd', 'a', 'c']);
    }

    #[test]
    fn min_util_pg_is_topology_sized() {
        let topo = fig6_topo();
        let pg = build("minimize(path.util)", &topo, true);
        // No regexes → one vnode per switch.
        assert_eq!(pg.len(), 4);
        assert_eq!(pg.max_tags_per_switch(), 1);
        assert_eq!(pg.sending.len(), 4);
        assert!(pg.vnodes().iter().all(|v| v.finite));
    }

    #[test]
    fn fig6_policy_produces_multiple_b_vnodes() {
        // Figure 6: if (A B D) then 0 else if (B .* D) then path.util else inf
        // (destination D). B appears in two roles: on the ABD path and as a
        // source of B.*D — two virtual nodes for B.
        let topo = fig6_topo();
        let pg = build(
            "minimize(if A B D then 0 else if B .* D then path.util else inf)",
            &topo,
            true,
        );
        let b = topo.find("B").unwrap();
        let b_nodes = pg.vnodes_at(b).len();
        assert!(
            b_nodes >= 2,
            "B needs ≥2 tags (got {b_nodes}): one on ABD, one for B.*D"
        );
    }

    #[test]
    fn pruning_removes_dead_vnodes() {
        let topo = fig6_topo();
        let pruned = build("minimize(if A B D then 0 else inf)", &topo, true);
        let full = build("minimize(if A B D then 0 else inf)", &topo, false);
        assert!(pruned.len() < full.len());
        // Pruned graph retains the D→B→A chain (plus the sending states of
        // other destinations are gone since only D-rooted paths match).
        let a = topo.find("A").unwrap();
        assert!(!pruned.vnodes_at(a).is_empty());
    }

    #[test]
    fn sending_states_have_consumed_origin() {
        let topo = fig6_topo();
        let pg = build("minimize(if .* C .* then path.util else inf)", &topo, true);
        let c = topo.find("C").unwrap();
        let v = pg.sending[&c];
        // At C's own sending vnode the path "C" already matches .*C.*.
        assert_eq!(pg.acc(v), [true]);
        // The probe's successor at B keeps acceptance (.*C.* stays matched).
        let b = topo.find("B").unwrap();
        let at_b: Vec<_> = (pg.succs(v).iter())
            .filter(|&&w| pg.vnode(w).switch == b)
            .collect();
        assert_eq!(at_b.len(), 1, "{at_b:?}");
        assert_eq!(pg.acc(*at_b[0]), [true]);
    }

    #[test]
    fn edges_follow_physical_links() {
        let topo = fig6_topo();
        let pg = build("minimize(path.len)", &topo, true);
        for v in ids(&pg) {
            let x = pg.vnode(v).switch;
            for &w in pg.succs(v) {
                let y = pg.vnode(w).switch;
                assert!(
                    topo.link_between(x, y).is_some(),
                    "PG edge {x}→{y} has no physical link"
                );
            }
        }
    }

    #[test]
    fn forbidden_everything_gives_empty_pg() {
        let topo = fig6_topo();
        let pg = build("minimize(inf)", &topo, true);
        assert!(pg.is_empty());
        assert!(pg.sending.is_empty());
    }

    #[test]
    fn waypoint_pg_paths_match_policy() {
        // All D-destined probe paths in the PG correspond to traffic paths;
        // finite vnodes must be exactly those whose reverse path matches.
        let topo = fig6_topo();
        let pg = build("minimize(if .* C .* then path.util else inf)", &topo, true);
        for v in ids(&pg) {
            if pg.vnode(v).finite {
                assert_eq!(pg.acc(v), [true]);
            }
        }
    }

    /// The catalogue P1–P9 compiled on fig6 and on fat-tree(4): policies
    /// without a regex (`k` = 0) and with one or two.
    fn catalogue_corpus() -> Vec<(String, Topology, CompiledPolicy)> {
        let fat_tree = generators::fat_tree(4, 0, generators::LinkSpec::default());
        let corpus = [
            ("fig6", fig6_topo(), ["A", "B", "B", "D"]),
            (
                "fat-tree(4)",
                fat_tree,
                ["core0", "core1", "edge0_0", "agg0_0"],
            ),
        ];
        let mut compiled = Vec::new();
        for (topo_label, topo, [f1, f2, x, y]) in corpus {
            for (label, policy) in catalogue(f1, f2, x, y) {
                let cp = Compiler::new(&topo)
                    .compile_str(&policy)
                    .unwrap_or_else(|e| panic!("{topo_label}/{label}: {e}"));
                compiled.push((format!("{topo_label}/{label}"), topo.clone(), cp));
            }
        }
        let arities = compiled.iter().map(|(_, _, cp)| cp.automata.len());
        assert!(arities.clone().any(|k| k == 0) && arities.clone().any(|k| k >= 1));
        compiled
    }

    #[test]
    fn each_switch_holds_one_consecutive_run_in_tag_order() {
        for (label, topo, cp) in catalogue_corpus() {
            let pg = &cp.pg;
            let mut seen = 0;
            for n in (0..topo.num_nodes() as u32).map(NodeId) {
                for (tag, v) in pg.vnodes_at(n).iter().enumerate() {
                    assert_eq!(v, VNodeId(seen), "{label}: ids run on across switches");
                    assert_eq!(pg.vnode(v).switch, n, "{label}");
                    assert_eq!(pg.vnode(v).tag as usize, tag, "{label}");
                    seen += 1;
                }
            }
            assert_eq!(seen as usize, pg.len(), "{label}: every vnode in a run");
            let most = (0..topo.num_nodes() as u32).map(|n| pg.vnodes_at(NodeId(n)).len());
            assert_eq!(pg.max_tags_per_switch(), most.max().unwrap(), "{label}");
        }
    }

    #[test]
    fn successor_rows_are_strictly_ascending() {
        for (label, _, cp) in catalogue_corpus() {
            for v in ids(&cp.pg) {
                let succs = cp.pg.succs(v);
                assert!(succs.windows(2).all(|w| w[0] < w[1]), "{label}: {succs:?}");
            }
        }
    }

    /// Every product-graph edge `v → w` is one `NEXTPGNODE` row `(v, w)`
    /// at `w`'s switch, and every row is such an edge.
    #[test]
    fn next_pg_node_is_the_transpose_of_the_fanout() {
        for (label, topo, cp) in catalogue_corpus() {
            let pg = &cp.pg;
            let mut rows = 0;
            for &y in cp.programs.keys() {
                let here = cp.next_pg_node(y);
                assert!(
                    here.windows(2).all(|r| r[0].0 < r[1].0),
                    "{label}: {here:?}"
                );
                for &(v, w) in here {
                    assert_eq!(pg.vnode(w).switch, y, "{label}");
                    assert!(pg.succs(v).contains(&w), "{label}: row {v:?} → {w:?}");
                }
                rows += here.len();
            }
            let edges: usize = ids(pg).map(|v| pg.succs(v).len()).sum();
            assert_eq!(rows, edges, "{label}: one row per edge");
            assert!(cp.next_pg_node(NodeId(topo.num_nodes() as u32)).is_empty());
        }
    }

    /// Every edge `v → w` is the probe stepping each automaton on `w`'s
    /// switch, and a switch's virtual nodes have distinct state vectors:
    /// `NEXTPGNODE` names the one vnode a probe's states lead to.
    #[test]
    fn edges_step_every_automaton_and_state_vectors_are_distinct() {
        for (label, topo, cp) in catalogue_corpus() {
            let pg = &cp.pg;
            for v in ids(pg) {
                assert_eq!(pg.states(v).len(), cp.automata.len(), "{label}");
                assert_eq!(pg.acc(v).len(), cp.automata.len(), "{label}");
                for &w in pg.succs(v) {
                    let y = pg.vnode(w).switch;
                    for (i, a) in cp.automata.iter().enumerate() {
                        let stepped = a.step(pg.states(v)[i], y.0);
                        assert_eq!(
                            pg.states(w)[i],
                            stepped,
                            "{label}: {v:?} → {w:?}, automaton {i}"
                        );
                    }
                }
            }
            for n in (0..topo.num_nodes() as u32).map(NodeId) {
                let mut states: Vec<&[usize]> =
                    pg.vnodes_at(n).iter().map(|v| pg.states(v)).collect();
                let held = states.len();
                states.sort_unstable();
                states.dedup();
                assert_eq!(
                    states.len(),
                    held,
                    "{label}: two vnodes of {n} share a state vector"
                );
            }
        }
    }
}
