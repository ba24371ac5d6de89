//! Compile-time policy verification: black-hole, fragility and dead-code
//! diagnostics over the compiled artifacts.
//!
//! The compiler already rejects ill-typed and non-monotone policies; this
//! module answers the questions that need the *topology*: will every source
//! actually have a policy-compliant route ([`codes::BLACK_HOLE`])? Does one
//! cable failure take a route away ([`codes::FRAGILE_LINK`])? Are there
//! branches no real path can ever select ([`codes::DEAD_BRANCH`],
//! [`codes::SHADOWED_BRANCH`]), guards no reachable metric vector can
//! satisfy ([`codes::UNSAT_GUARD`]), or automaton states that are pure
//! table bloat ([`codes::DEAD_DFA_STATE`])? Everything is reported as
//! [`Diagnostic`]s with source [`diag::Span`]s, alongside a machine-readable
//! [`Verdicts`] record that the differential test-suite replays against the
//! packet-level simulator.
//!
//! All reachability arguments run over the product graph in *probe*
//! direction: a probe walk from destination `d` reaching a finite virtual
//! node at switch `s` is exactly a policy-compliant traffic path `s → d`
//! (the automata run over reversed regexes, §4.1). "No reachable finite
//! vnode at `s`" therefore *is* "no compliant route", with no separate path
//! enumeration to trust.

use crate::ast::{Attr, CmpOp};
use crate::compiler::{traffic_endpoints, CompileError, CompiledPolicy, Compiler};
use crate::diag::{self, codes, Diagnostic};
use crate::metric::{MetricBasis, MetricVec};
use crate::normal::{BranchRank, Guard, MetricExpr};
use crate::pg::{ProductGraph, VNode, VNodeId};
use contra_topology::{paths, LinkId, NodeId, Topology};

/// A source switch with no policy-compliant route to a destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct BlackHole {
    /// Traffic source (a host-bearing switch, or any switch when the
    /// topology has no hosts).
    pub src: NodeId,
    /// The destination the policy cannot route to.
    pub dst: NodeId,
}

/// A route that a single cable failure destroys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Fragility {
    /// The failing cable, as an unordered switch pair.
    pub cable: (NodeId, NodeId),
    /// Source losing its route.
    pub src: NodeId,
    /// Destination it loses the route to.
    pub dst: NodeId,
    /// Whether the failure physically disconnects `src` from `dst` (then
    /// no policy could route; otherwise the *policy* is what's fragile).
    pub partitions: bool,
}

/// Machine-readable verification results. The differential tests replay
/// these against the packet simulator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Verdicts {
    /// Source→destination pairs with no compliant route.
    pub black_holes: Vec<BlackHole>,
    /// Routes destroyed by a single cable failure.
    pub fragile: Vec<Fragility>,
    /// Indices of finite branches no product-graph walk can select.
    pub dead_branches: Vec<usize>,
    /// Dead branches whose positive regexes *are* matchable — an earlier
    /// condition subsumes them.
    pub shadowed_branches: Vec<usize>,
    /// Indices of regexes whose language is empty over this topology's
    /// switch alphabet.
    pub unmatchable_regexes: Vec<usize>,
    /// `(branch, guard)` indices of guards unsatisfiable even at the
    /// metric lower bound of any reachable path.
    pub unsat_guards: Vec<(usize, usize)>,
    /// Automaton states that are reachable but can never accept, beyond
    /// the canonical garbage state (pure table bloat).
    pub dead_dfa_states: usize,
    /// Virtual nodes removed by product-graph pruning.
    pub pruned_vnodes: usize,
    /// Whether ranks depend on utilization — routes can flap while probes
    /// race metric churn, the transient-loop window of fig 14.
    pub transient_loop_risk: bool,
}

/// A verification report: human diagnostics plus machine verdicts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// All diagnostics, in discovery order.
    pub diagnostics: Vec<Diagnostic>,
    /// The structured verdicts behind them.
    pub verdicts: Verdicts,
}

impl Report {
    /// True if any diagnostic is an error.
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(|d| d.is_error())
    }

    /// Renders all diagnostics rustc-style (with source snippets when the
    /// policy text is given), most severe first, with a closing summary.
    pub fn render(&self, source: Option<&str>) -> String {
        diag::render(&self.diagnostics, source)
    }
}

/// Compiles and verifies policy source in one step. Compile errors become
/// diagnostics (`C02xx`/`C0102`) instead of an `Err`, so lint drivers can
/// render every failure mode uniformly.
pub fn verify_source(src: &str, topo: &Topology) -> (Option<CompiledPolicy>, Report) {
    match Compiler::new(topo).compile_str(src) {
        Ok(cp) => {
            let report = verify(&cp, topo);
            (Some(cp), report)
        }
        Err(e) => {
            let code = match &e {
                CompileError::Syntax(_) => codes::SYNTAX,
                CompileError::Norm(_) => codes::NORM,
                CompileError::Analysis(_) => codes::NON_MONOTONIC,
                CompileError::Resolve(_) => codes::UNRESOLVED_NAME,
                CompileError::NoUsefulPaths => codes::NO_USEFUL_PATHS,
            };
            let d = Diagnostic::error(code, e.to_string()).with_span(e.span());
            (
                None,
                Report {
                    diagnostics: vec![d],
                    verdicts: Verdicts::default(),
                },
            )
        }
    }
}

/// Verifies a compiled policy against its topology.
pub fn verify(cp: &CompiledPolicy, topo: &Topology) -> Report {
    let mut r = Report::default();
    let policy_span = cp.policy.expr.span;
    let sources = traffic_endpoints(topo);

    // Re-home the compiler's analysis warnings into the diagnostic stream.
    for w in &cp.warnings {
        r.diagnostics
            .push(Diagnostic::warning(codes::NON_ISOTONIC, w.to_string()).with_span(w.span()));
    }

    // -- Black holes and single-cable fragility: per destination, one
    // reverse-reachability walk over the PG answers both.
    let reach = Reachability::analyze(cp, topo, &sources);
    r.verdicts.black_holes = reach.black_holes;
    for bh in &r.verdicts.black_holes {
        r.diagnostics.push(
            Diagnostic::error(
                codes::BLACK_HOLE,
                format!(
                    "black hole: traffic from {} to {} has no policy-compliant route",
                    topo.node(bh.src).name,
                    topo.node(bh.dst).name
                ),
            )
            .with_span(policy_span)
            .with_note(
                "no product-graph walk from the destination reaches a \
                 finite-rank virtual node at the source",
            ),
        );
    }

    // -- Branch- and automaton-level dead code. Classification needs the
    // *unpruned* product graph: pruning already deletes exactly the states
    // these checks reason about.
    let full = ProductGraph::build(topo, &cp.automata, &cp.normal, &cp.destinations, false);
    branch_checks(cp, topo, &full, &mut r);
    automata_checks(cp, &mut r);

    let pruned_away = full.len().saturating_sub(cp.pg.len());
    r.verdicts.pruned_vnodes = pruned_away;
    if pruned_away > 0 {
        r.diagnostics.push(
            Diagnostic::info(
                codes::PRUNED_VNODES,
                format!(
                    "pruning removed {pruned_away} of {} virtual nodes that cannot \
                     reach any finite-rank path",
                    full.len()
                ),
            )
            .with_span(policy_span),
        );
    }

    if cp.basis.contains(Attr::Util) {
        r.verdicts.transient_loop_risk = true;
        r.diagnostics.push(
            Diagnostic::info(
                codes::TRANSIENT_LOOP_RISK,
                "ranks depend on utilization: routes may loop transiently \
                 while probes race metric churn",
            )
            .with_span(policy_span)
            .with_note("bounded by the probe period; see the transient-loop experiment"),
        );
    }

    // -- Single-cable fragility: routes that disappear with one cable.
    report_fragility(cp, topo, &reach.cables, &reach.lost_routes, &mut r);

    r
}

/// Dead / shadowed branches and unsatisfiable guards, over the acceptance
/// vectors the unpruned product graph can realize.
fn branch_checks(cp: &CompiledPolicy, topo: &Topology, full: &ProductGraph, r: &mut Report) {
    // Every acceptance vector some destination-ending walk realizes. The
    // vectors are compared element-wise: with no regex each is an empty
    // slice, and `==` on two of those is a `bcmp` call.
    let mut acc_set: Vec<&[bool]> = (0..full.len() as u32)
        .map(|v| full.acc(VNodeId(v)))
        .collect();
    acc_set.sort_unstable_by(|a, b| a.iter().cmp(b.iter()));
    acc_set.dedup_by(|a, b| a.iter().eq(b.iter()));

    // Metric lower bounds per destination: least latency (seconds) and hop
    // count from each switch, over the physical switch graph. A compliant
    // path can only be longer, so evaluating an upper-bound guard here is
    // sound. They are computed for the first guard that can use them.
    let mut bounds: Option<Vec<(NodeId, LowerBounds)>> = None;
    let (mut seen, mut work) = (Vec::new(), Vec::new());

    for (bi, b) in cp.normal.branches.iter().enumerate() {
        if !matches!(b.rank, BranchRank::Finite(_)) {
            // An unreachable `inf` fallback forbids nothing — not a defect.
            continue;
        }
        if !acc_set.iter().any(|acc| b.reqs_match(acc)) {
            let positives_ok = acc_set.iter().any(|acc| {
                b.reqs
                    .iter()
                    .filter(|&&(_, want)| want)
                    .all(|&(i, _)| acc[i])
            });
            if positives_ok {
                r.verdicts.shadowed_branches.push(bi);
                r.diagnostics.push(
                    Diagnostic::warning(
                        codes::SHADOWED_BRANCH,
                        format!("branch {bi} is shadowed: an earlier condition matches every path this branch could rank"),
                    )
                    .with_span(b.span)
                    .with_note("its regexes are matchable, but never without an earlier branch's regex also matching"),
                );
            } else {
                r.verdicts.dead_branches.push(bi);
                r.diagnostics.push(
                    Diagnostic::warning(
                        codes::DEAD_BRANCH,
                        format!("branch {bi} is dead: no path on this topology can satisfy its regex requirements"),
                    )
                    .with_span(b.span),
                );
            }
            continue;
        }

        // The floor's latency and length matter only to a refutable guard
        // that reads them, or to the note of one the all-zero floor already
        // refutes; any other guard holds at every floor.
        let floor_matters = |g: &Guard| {
            let Some(c) = refutable_bound(g) else {
                return false;
            };
            let mut reads = MetricBasis::default();
            g.lhs.attrs(&mut reads);
            reads.contains(Attr::Lat)
                || reads.contains(Attr::Len)
                || !g.op.eval(g.lhs.eval(&MetricVec::zero()), c)
        };
        if !b.guards.iter().any(floor_matters) {
            continue;
        }
        // Tightest metric lower bound over every (destination, vnode) at
        // which this branch's regex requirements hold.
        let mut lb: Option<(f64, f64)> = None;
        let bounds = bounds.get_or_insert_with(|| {
            cp.destinations
                .iter()
                .map(|&d| (d, shortest_to(topo, d)))
                .collect()
        });
        for &(d, ref dist) in bounds.iter() {
            let Some(&seed) = full.sending.get(&d) else {
                continue;
            };
            seen.clear();
            seen.resize(full.len(), false);
            work.push(seed);
            seen[seed.0 as usize] = true;
            while let Some(v) = work.pop() {
                let vn = full.vnode(v);
                if b.reqs_match(full.acc(v)) {
                    let cand = if vn.switch == d {
                        (0.0, 0.0)
                    } else {
                        dist[vn.switch.0 as usize].unwrap_or((0.0, 0.0))
                    };
                    lb = Some(match lb {
                        None => cand,
                        Some((l, h)) => (l.min(cand.0), h.min(cand.1)),
                    });
                }
                for &w in full.succs(v) {
                    if !seen[w.0 as usize] {
                        seen[w.0 as usize] = true;
                        work.push(w);
                    }
                }
            }
        }
        let Some((min_lat, min_len)) = lb else {
            continue;
        };
        let floor = MetricVec::new(0.0, min_lat, min_len);
        for (gi, g) in b.guards.iter().enumerate() {
            let Some(c) = refutable_bound(g) else {
                continue;
            };
            let floor_val = g.lhs.eval(&floor);
            if g.op.eval(floor_val, c) {
                continue;
            }
            r.verdicts.unsat_guards.push((bi, gi));
            r.diagnostics.push(
                Diagnostic::warning(
                    codes::UNSAT_GUARD,
                    format!(
                        "guard `{g}` can never hold: its least possible value here is {floor_val}"
                    ),
                )
                .with_span(g.span)
                .with_note(format!(
                    "the shortest path satisfying this branch's regexes already has \
                     latency ≥ {min_lat}s and length ≥ {min_len}"
                )),
            );
        }
    }
}

/// Unmatchable regexes and redundant automaton dead states.
fn automata_checks(cp: &CompiledPolicy, r: &mut Report) {
    let mut redundant = 0usize;
    for (i, a) in cp.automata.iter().enumerate() {
        let live = a.live_states();
        let reach = a.reachable_states();
        if !live[a.start] {
            r.verdicts.unmatchable_regexes.push(i);
            r.diagnostics.push(
                Diagnostic::warning(
                    codes::UNMATCHABLE_REGEX,
                    format!(
                        "regex `{}` matches no path over this topology's switches",
                        cp.normal.regexes[i]
                    ),
                )
                .with_span(cp.normal.regexes[i].span),
            );
        }
        redundant += (0..a.num_states())
            .filter(|&s| reach[s] && !live[s] && !a.is_dead(s))
            .count();
    }
    r.verdicts.dead_dfa_states = redundant;
    if redundant > 0 {
        r.diagnostics.push(
            Diagnostic::info(
                codes::DEAD_DFA_STATE,
                format!(
                    "{redundant} automaton state(s) can never accept but are not the \
                     canonical dead state; minimization would fold them away"
                ),
            )
            .with_span(cp.policy.expr.span),
        );
    }
}

/// "No vnode" / "no cable" in the dense `u32` arrays of the probe walk.
const NONE: u32 = u32::MAX;

/// The compiled product graph in the shape the probe walk needs: flat
/// forward and reverse adjacency in which every edge carries the index of
/// the cable it crosses. A cable is an unordered switch pair, so one cable
/// is many edges — both directions, every tag pair.
struct CableGraph<'p> {
    /// Switch-to-switch cables `(a, b)` with `a <= b`, ascending.
    cables: Vec<(NodeId, NodeId)>,
    /// The product graph's vnodes: each one's switch, and whether it is
    /// finite.
    vnodes: &'p [VNode],
    /// `out[out_off[v]..out_off[v + 1]]` holds `(w, cable)` for every
    /// probe-direction edge `v → w`.
    out_off: Vec<u32>,
    out: Vec<(u32, u32)>,
    /// The same edges by head: `(u, cable)` for every edge `u → v`.
    in_off: Vec<u32>,
    ins: Vec<(u32, u32)>,
}

impl<'p> CableGraph<'p> {
    fn new(pg: &'p ProductGraph, topo: &Topology) -> CableGraph<'p> {
        // The cables ascending, and the cable of every switch-to-switch link.
        let mut by_pair: Vec<((NodeId, NodeId), u32)> = topo
            .links()
            .iter()
            .enumerate()
            .filter(|(_, l)| topo.is_switch(l.src) && topo.is_switch(l.dst))
            .map(|(i, l)| ((l.src.min(l.dst), l.src.max(l.dst)), i as u32))
            .collect();
        by_pair.sort_unstable();
        let mut cables = Vec::new();
        let mut link_cable = vec![NONE; topo.num_links()];
        for &(pair, l) in &by_pair {
            if cables.last() != Some(&pair) {
                cables.push(pair);
            }
            link_cable[l as usize] = cables.len() as u32 - 1;
        }

        let n = pg.len();
        let vnodes = pg.vnodes();
        let mut out_off = Vec::with_capacity(n + 1);
        let mut out = Vec::new();
        let mut in_off = vec![0u32; n + 1];
        // Per node id, the cable from the switch whose vnodes are being
        // read (a switch's vnodes are consecutive) to it.
        let mut cable_to = vec![NONE; topo.num_nodes()];
        let mut at: Option<NodeId> = None;
        for (v, vn) in (0..).zip(vnodes) {
            if at != Some(vn.switch) {
                if let Some(prev) = at {
                    for &(y, _) in topo.adjacency(prev) {
                        cable_to[y.0 as usize] = NONE;
                    }
                }
                for &(y, l) in topo.adjacency(vn.switch) {
                    cable_to[y.0 as usize] = link_cable[l.0 as usize];
                }
                at = Some(vn.switch);
            }
            out_off.push(out.len() as u32);
            for &w in pg.succs(VNodeId(v)) {
                let cable = cable_to[vnodes[w.0 as usize].switch.0 as usize];
                assert_ne!(cable, NONE, "product-graph edges follow physical links");
                out.push((w.0, cable));
                in_off[w.0 as usize + 1] += 1;
            }
        }
        out_off.push(out.len() as u32);
        for v in 0..n {
            in_off[v + 1] += in_off[v];
        }
        let mut fill = in_off.clone();
        let mut ins = vec![(NONE, NONE); out.len()];
        for v in 0..n {
            for &(w, cable) in &out[out_off[v] as usize..out_off[v + 1] as usize] {
                ins[fill[w as usize] as usize] = (v as u32, cable);
                fill[w as usize] += 1;
            }
        }
        CableGraph {
            cables,
            vnodes,
            out_off,
            out,
            in_off,
            ins,
        }
    }

    fn succs(&self, v: u32) -> &[(u32, u32)] {
        &self.out[self.out_off[v as usize] as usize..self.out_off[v as usize + 1] as usize]
    }

    fn preds(&self, v: u32) -> &[(u32, u32)] {
        &self.ins[self.in_off[v as usize] as usize..self.in_off[v as usize + 1] as usize]
    }
}

/// One destination's reachability tree over a [`CableGraph`], with the
/// scratch to cut cables out of it.
///
/// Besides its parent, every tree vnode keeps a 64-bit summary of the
/// cables on its tree path: bit `cable % 64` is set for each of them. A
/// clear bit *proves* the path avoids that cable; a set bit proves
/// nothing, since another cable may share it, and only defers the question
/// to [`ProbeTree::cut`].
///
/// Breadth first hands a vnode to the first predecessor that finds it, so
/// one vnode of the first level would own nearly everything below it, and
/// every alternative way into it would be its own descendant. While
/// growing, a vnode therefore moves to another predecessor on its parent's
/// level that has fewer children. The tree stays breadth first — every
/// depth is unchanged — but its siblings' subtrees hold each other's
/// alternatives, which is what the certificate of [`Reachability::analyze`]
/// looks for.
struct ProbeTree<'g> {
    g: &'g CableGraph<'g>,
    /// The tree's vnodes in breadth-first order, the sending vnode first.
    nodes: Vec<u32>,
    /// Per vnode: its depth in the tree, [`NONE`] when it is not in it.
    depth: Vec<u32>,
    /// Per tree vnode but the first: its parent, and the cable its tree
    /// edge crosses.
    parent: Vec<u32>,
    parent_cable: Vec<u32>,
    /// Per tree vnode: its number of children.
    children: Vec<u32>,
    /// Per tree vnode: bit `cable % 64` of every cable on its tree path.
    path_cables: Vec<u64>,
    first_child: Vec<u32>,
    next_sibling: Vec<u32>,
    /// Finite vnodes the tree holds per switch (by node id): a switch has
    /// a route while this is positive.
    finite_at: Vec<u32>,
    // Scratch of one cut.
    detached: Vec<bool>,
    cut: Vec<u32>,
    work: Vec<u32>,
}

/// The bit of `cable` in a [`ProbeTree`] path summary.
fn cable_bit(cable: u32) -> u64 {
    1 << (cable % 64)
}

impl<'g> ProbeTree<'g> {
    fn new(g: &'g CableGraph<'g>, num_nodes: usize) -> ProbeTree<'g> {
        let n = g.vnodes.len();
        ProbeTree {
            g,
            nodes: Vec::new(),
            depth: vec![NONE; n],
            parent: vec![NONE; n],
            parent_cable: vec![NONE; n],
            children: vec![0; n],
            path_cables: vec![0; n],
            first_child: vec![NONE; n],
            next_sibling: vec![NONE; n],
            finite_at: vec![0; num_nodes],
            detached: vec![false; n],
            cut: Vec::new(),
            work: Vec::new(),
        }
    }

    /// Replaces the tree by the breadth-first probe walk from `d`'s sending
    /// vnode (an empty tree when the policy lets `d` send no probes), with
    /// parents balanced within each level. The walk never re-enters `d`:
    /// the protocol drops probes that return to their origin (§5.5), so a
    /// "path" through the destination is not realizable in the dataplane
    /// even when the product graph contains it.
    fn grow(&mut self, seed: Option<VNodeId>, d: NodeId) {
        let g = self.g;
        for &v in &self.nodes {
            self.depth[v as usize] = NONE;
            self.children[v as usize] = 0;
            self.first_child[v as usize] = NONE;
            self.finite_at[g.vnodes[v as usize].switch.0 as usize] = 0;
        }
        self.nodes.clear();
        if let Some(seed) = seed {
            self.nodes.push(seed.0);
            self.depth[seed.0 as usize] = 0;
            self.path_cables[seed.0 as usize] = 0;
        }
        let (depth, parent, parent_cable, children) = (
            &mut self.depth[..],
            &mut self.parent[..],
            &mut self.parent_cable[..],
            &mut self.children[..],
        );
        let mut head = 0;
        while head < self.nodes.len() {
            let v = self.nodes[head] as usize;
            head += 1;
            if g.vnodes[v].finite {
                self.finite_at[g.vnodes[v].switch.0 as usize] += 1;
            }
            let below = depth[v] + 1;
            let mut kids = 0;
            for &(w, cable) in g.succs(v as u32) {
                let w = w as usize;
                if depth[w] == NONE {
                    if g.vnodes[w].switch == d {
                        continue;
                    }
                    depth[w] = below;
                    self.nodes.push(w as u32);
                } else {
                    // Found on this level already: take it over from a
                    // sibling of `v` with at least two more children. While
                    // `v`'s edges are scanned its own entry in `children` is
                    // still 0, so a vnode already under `v` stays there.
                    if depth[w] != below || kids + 1 >= children[parent[w] as usize] {
                        continue;
                    }
                    children[parent[w] as usize] -= 1;
                }
                parent[w] = v as u32;
                parent_cable[w] = cable;
                kids += 1;
            }
            children[v] = kids;
        }
        // Parents precede their children in breadth-first order.
        for &w in self.nodes.iter().skip(1) {
            let (w, p) = (w as usize, self.parent[w as usize] as usize);
            self.path_cables[w] = self.path_cables[p] | cable_bit(self.parent_cable[w]);
            self.next_sibling[w] = self.first_child[p];
            self.first_child[p] = w as u32;
        }
    }

    /// Whether switch `s` holds a finite vnode of the tree, i.e. has a
    /// compliant route to the destination.
    fn routes(&self, s: NodeId) -> bool {
        self.finite_at[s.0 as usize] > 0
    }

    /// Whether tree vnode `w` provably stays reachable once the cable of
    /// its own tree edge fails: a tree vnode whose path summary has that
    /// cable's bit clear enters it over other cables, directly or through
    /// one more tree vnode.
    fn certified(&self, w: u32) -> bool {
        let cable = self.parent_cable[w as usize];
        let bit = cable_bit(cable);
        let in_tree = |u: u32| self.depth[u as usize] != NONE;
        let avoids = |u: u32| in_tree(u) && self.path_cables[u as usize] & bit == 0;
        let preds = |v: u32| {
            self.g
                .preds(v)
                .iter()
                .filter(move |&&(_, c)| c != cable)
                .map(|&(u, _)| u)
        };
        preds(w).any(avoids) || preds(w).any(|u| in_tree(u) && preds(u).any(avoids))
    }

    /// Appends to `lost` the switches that route now but not once `cable`
    /// fails; `below` are the tree vnodes whose tree edge crosses it and
    /// that no certificate keeps (every uncertified one must be there).
    /// Only their subtrees are visited, and the tree is left as it was.
    fn cut(&mut self, cable: u32, below: &[(u32, u32)], lost: &mut Vec<NodeId>) {
        let g = self.g;
        // Detach every subtree hanging below one of the cable's edges.
        for &(_, v) in below {
            if !self.detached[v as usize] {
                self.detached[v as usize] = true;
                self.work.push(v);
            }
        }
        while let Some(v) = self.work.pop() {
            self.cut.push(v);
            let mut c = self.first_child[v as usize];
            while c != NONE {
                if !self.detached[c as usize] {
                    self.detached[c as usize] = true;
                    self.work.push(c);
                }
                c = self.next_sibling[c as usize];
            }
        }
        // Re-attach whatever a surviving edge from the intact tree enters,
        // and everything reachable from there inside the cut.
        let (depth, detached) = (&self.depth, &mut self.detached);
        self.work.extend(self.cut.iter().copied().filter(|&v| {
            g.preds(v)
                .iter()
                .any(|&(u, c)| c != cable && depth[u as usize] != NONE && !detached[u as usize])
        }));
        for &v in &self.work {
            detached[v as usize] = false;
        }
        while let Some(v) = self.work.pop() {
            for &(w, c) in g.succs(v) {
                if c != cable && detached[w as usize] {
                    detached[w as usize] = false;
                    self.work.push(w);
                }
            }
        }
        // A switch loses its route when its last finite vnode stays cut off.
        for &v in &self.cut {
            if detached[v as usize] && g.vnodes[v as usize].finite {
                let s = g.vnodes[v as usize].switch;
                self.finite_at[s.0 as usize] -= 1;
                if self.finite_at[s.0 as usize] == 0 {
                    lost.push(s);
                }
            }
        }
        for v in self.cut.drain(..) {
            if detached[v as usize] {
                detached[v as usize] = false;
                if g.vnodes[v as usize].finite {
                    self.finite_at[g.vnodes[v as usize].switch.0 as usize] += 1;
                }
            }
        }
    }
}

/// What the probe walks over the compiled product graph establish.
struct Reachability {
    /// Source→destination pairs with no compliant route, destination-major.
    black_holes: Vec<BlackHole>,
    /// Switch-to-switch cables `(a, b)` with `a <= b`, ascending.
    cables: Vec<(NodeId, NodeId)>,
    /// Per cable, the `(src, dst)` routes that exist but disappear when it
    /// fails, destination-major.
    lost_routes: Vec<Vec<(NodeId, NodeId)>>,
}

impl Reachability {
    /// Per destination, one probe walk records the reachability tree;
    /// sources that hold none of its finite vnodes are black holes.
    ///
    /// The tree also answers what each cable failure takes away, and
    /// nothing is rebuilt for it. A vnode is `(switch, automaton states)`,
    /// which does not depend on the topology, so the product graph of the
    /// topology minus a cable is `cp.pg` minus that cable's edges (pruning
    /// only ever removes vnodes that lie on no path to a finite vnode, and
    /// cutting edges creates no such path). A cable that owns no tree edge
    /// leaves the tree — and with it the destination's routable set —
    /// intact.
    ///
    /// Most cables that do own one lose nothing either, and a predecessor
    /// shows it without a cut. A tree vnode `w` whose tree edge crosses
    /// cable `c` is *certified* when a tree vnode `u` enters it over
    /// another cable and `u`'s tree path avoids `c` (its path summary has
    /// `c`'s bit clear) — or, failing that, when such a `u` enters a tree
    /// predecessor of `w` that enters `w` over another cable. Either way
    /// there is a walk to `w` without `c`, and every vnode below `w` whose
    /// tree path does not cross `c` again stays reachable with it; one that
    /// does cross it again is decided by its own edge. Only the uncertified
    /// edges are collected, sorted by cable and handed to
    /// [`ProbeTree::cut`], the one exact decision: it detaches the subtrees
    /// below them and re-attaches whatever a surviving edge from the rest
    /// of the tree — certified subtrees included — still enters. A set bit,
    /// whether the cable is really on the path or another cable shares its
    /// bit, only sends the edge there. The work per (destination, cable) is
    /// a scan of its tree edges' predecessors, plus the affected subtrees
    /// where no certificate exists; breadth first keeps the tree, and so
    /// the sum of subtree sizes, shallow.
    fn analyze(cp: &CompiledPolicy, topo: &Topology, sources: &[NodeId]) -> Reachability {
        let g = CableGraph::new(&cp.pg, topo);
        let mut is_source = vec![false; topo.num_nodes()];
        for &s in sources {
            is_source[s.0 as usize] = true;
        }
        let mut tree = ProbeTree::new(&g, topo.num_nodes());
        let mut tree_edges: Vec<(u32, u32)> = Vec::new();
        let mut lost: Vec<NodeId> = Vec::new();
        let mut black_holes = Vec::new();
        let mut lost_routes = vec![Vec::new(); g.cables.len()];

        for &d in &cp.destinations {
            tree.grow(cp.pg.sending.get(&d).copied(), d);
            for &s in sources {
                if s != d && !tree.routes(s) {
                    black_holes.push(BlackHole { src: s, dst: d });
                }
            }

            tree_edges.clear();
            tree_edges.extend(
                tree.nodes
                    .iter()
                    .skip(1)
                    .filter(|&&v| !tree.certified(v))
                    .map(|&v| (tree.parent_cable[v as usize], v)),
            );
            tree_edges.sort_unstable();
            for below in tree_edges.chunk_by(|a, b| a.0 == b.0) {
                let cable = below[0].0;
                tree.cut(cable, below, &mut lost);
                // Report order within a (cable, destination): sources ascending.
                lost.retain(|s| is_source[s.0 as usize]);
                lost.sort_unstable();
                lost_routes[cable as usize].extend(lost.drain(..).map(|s| (s, d)));
            }
        }
        Reachability {
            black_holes,
            cables: g.cables,
            lost_routes,
        }
    }
}

/// The `fragile` verdicts and their diagnostics, cables ascending.
fn report_fragility(
    cp: &CompiledPolicy,
    topo: &Topology,
    cables: &[(NodeId, NodeId)],
    lost_routes: &[Vec<(NodeId, NodeId)>],
    r: &mut Report,
) {
    for (&(a, b), pairs) in cables.iter().zip(lost_routes) {
        if pairs.is_empty() {
            continue;
        }
        // Each lost route existed before the cut, so its ends were
        // connected. The cut splits their component exactly when `b` is
        // out of `a`'s reach without the cable, and then it separates the
        // two ends exactly when one of them is on `a`'s side.
        let cable = [topo.link_between(a, b), topo.link_between(b, a)];
        let uncut = |l: LinkId, _| (!cable.contains(&Some(l))).then_some(1);
        let near_a = paths::distances_from(topo, a, uncut);
        let split = near_a[b.0 as usize].is_none();
        let new_pairs: Vec<Fragility> = pairs
            .iter()
            .map(|&(src, dst)| Fragility {
                cable: (a, b),
                src,
                dst,
                partitions: split
                    && near_a[src.0 as usize].is_some() != near_a[dst.0 as usize].is_some(),
            })
            .collect();
        let policy_only: Vec<&Fragility> = new_pairs.iter().filter(|f| !f.partitions).collect();
        let name = |n: NodeId| topo.node(n).name.clone();
        let examples = |fs: &[&Fragility]| -> String {
            fs.iter()
                .take(3)
                .map(|f| format!("{}→{}", name(f.src), name(f.dst)))
                .collect::<Vec<_>>()
                .join(", ")
        };
        if !policy_only.is_empty() {
            r.diagnostics.push(
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
            r.diagnostics.push(
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
        r.verdicts.fragile.extend(new_pairs);
    }
}

/// Per node id, for the nodes connected to some destination over the
/// physical switch graph: (least latency in seconds, least hop count).
type LowerBounds = Vec<Option<(f64, f64)>>;

/// The [`LowerBounds`] to `d`. The two minima may come from different
/// paths — each is separately a valid lower bound. Cables are symmetric,
/// so the delay out of `d` is the delay into it.
fn shortest_to(topo: &Topology, d: NodeId) -> LowerBounds {
    let hops = paths::hop_distances_to(topo, d);
    let lat = paths::dijkstra_delay(topo, d);
    hops.iter()
        .zip(&lat)
        .map(|(h, ns)| h.zip(*ns).map(|(h, ns)| (ns as f64 * 1e-9, h as f64)))
        .collect()
}

/// The constant `c` of a guard a metric lower bound can refute. Only
/// upper bounds on monotone expressions qualify: `mono ≤ c` failing at the
/// floor fails everywhere above it.
fn refutable_bound(g: &Guard) -> Option<f64> {
    let c = const_value(&g.rhs)?;
    (matches!(g.op, CmpOp::Le | CmpOp::Lt) && monotone_nondecreasing(&g.lhs)).then_some(c)
}

/// The value of a metric-free expression, if it is one.
fn const_value(e: &MetricExpr) -> Option<f64> {
    match e {
        MetricExpr::Const(c) => Some(*c),
        MetricExpr::Attr(_) => None,
        MetricExpr::Bin(op, a, b) => {
            let (x, y) = (const_value(a)?, const_value(b)?);
            Some(match op {
                crate::ast::BinOp::Add => x + y,
                crate::ast::BinOp::Sub => x - y,
                crate::ast::BinOp::Mul => x * y,
                crate::ast::BinOp::Min => x.min(y),
                crate::ast::BinOp::Max => x.max(y),
            })
        }
    }
}

/// Whether the expression is non-decreasing in every metric component
/// (conservative: subtraction and multiplication are rejected outright).
fn monotone_nondecreasing(e: &MetricExpr) -> bool {
    match e {
        MetricExpr::Const(_) | MetricExpr::Attr(_) => true,
        MetricExpr::Bin(op, a, b) => match op {
            crate::ast::BinOp::Add | crate::ast::BinOp::Min | crate::ast::BinOp::Max => {
                monotone_nondecreasing(a) && monotone_nondecreasing(b)
            }
            crate::ast::BinOp::Sub | crate::ast::BinOp::Mul => false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::Compiler;

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

    fn check(src: &str, topo: &Topology) -> Report {
        let cp = Compiler::new(topo).compile_str(src).unwrap();
        verify(&cp, topo)
    }

    #[test]
    fn clean_policy_has_no_errors() {
        let topo = fig6_topo();
        let r = check("minimize(path.util)", &topo);
        assert!(!r.has_errors(), "{}", r.render(None));
        assert!(r.verdicts.black_holes.is_empty());
        assert!(r.verdicts.dead_branches.is_empty());
        // util in the basis ⇒ the transient-loop info is present.
        assert!(r.verdicts.transient_loop_risk);
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.code == codes::TRANSIENT_LOOP_RISK));
    }

    #[test]
    fn exact_path_policy_black_holes_off_path_sources() {
        let topo = fig6_topo();
        let r = check("minimize(if A B D then 0 else inf)", &topo);
        let b = topo.find("B").unwrap();
        let c = topo.find("C").unwrap();
        let d = topo.find("D").unwrap();
        assert!(r.has_errors());
        // C has no compliant route to D; B *is* on the path but traffic
        // sourced at B would take B→D, which does not match A B D.
        assert!(r
            .verdicts
            .black_holes
            .contains(&BlackHole { src: c, dst: d }));
        assert!(r
            .verdicts
            .black_holes
            .contains(&BlackHole { src: b, dst: d }));
        let a = topo.find("A").unwrap();
        assert!(!r
            .verdicts
            .black_holes
            .contains(&BlackHole { src: a, dst: d }));
    }

    #[test]
    fn shadowed_branch_detected() {
        let topo = fig6_topo();
        let r = check(
            "minimize(if A .* D then path.util else if A B D then 0 else inf)",
            &topo,
        );
        // A B D ⊆ A .* D: the second branch can never fire.
        assert_eq!(r.verdicts.shadowed_branches.len(), 1);
        assert!(r.verdicts.dead_branches.is_empty());
        let diag = r
            .diagnostics
            .iter()
            .find(|d| d.code == codes::SHADOWED_BRANCH)
            .unwrap();
        assert!(!diag.span.is_dummy());
    }

    #[test]
    fn dead_branch_detected() {
        let topo = fig6_topo();
        // A A needs an A→A self-link; no walk on fig6 realizes it.
        let r = check("minimize(if A A then 0 else path.len)", &topo);
        assert_eq!(r.verdicts.dead_branches.len(), 1);
        assert!(r.verdicts.shadowed_branches.is_empty());
        assert!(r.diagnostics.iter().any(|d| d.code == codes::DEAD_BRANCH));
    }

    #[test]
    fn unsatisfiable_guard_detected() {
        let topo = fig6_topo();
        let r = check("minimize(if path.len < 0 then 0 else path.len)", &topo);
        assert_eq!(r.verdicts.unsat_guards, vec![(0, 0)]);
        let diag = r
            .diagnostics
            .iter()
            .find(|d| d.code == codes::UNSAT_GUARD)
            .unwrap();
        assert!(!diag.span.is_dummy());
        // A satisfiable guard stays quiet.
        let ok = check("minimize(if path.len < 10 then 0 else path.len)", &topo);
        assert!(ok.verdicts.unsat_guards.is_empty());
    }

    /// The full C0008 text on fig6: a util-only guard refuted at the
    /// all-zero floor still prints the real latency and length minima, as
    /// guards on latency and length do, and a length guard the zero floor
    /// satisfies is still refuted at the real one; a util guard no floor
    /// refutes says nothing.
    #[test]
    fn guard_floor_messages() {
        let topo = fig6_topo();
        let unsat = |src: &str| {
            let r = check(src, &topo);
            let found: Vec<_> = r
                .diagnostics
                .into_iter()
                .filter(|d| d.code == codes::UNSAT_GUARD)
                .map(|d| (d.message, d.notes))
                .collect();
            let [one] = <[_; 1]>::try_from(found).unwrap_or_else(|f| panic!("{src}: {f:?}"));
            one
        };
        let zero_note = "the shortest path satisfying this branch's regexes already has \
                         latency ≥ 0s and length ≥ 0";
        assert_eq!(
            unsat("minimize(if path.util < 0 then 0 else path.len)"),
            (
                "guard `path.util < 0` can never hold: its least possible value here is 0".into(),
                vec![zero_note.to_string()]
            )
        );
        assert_eq!(
            unsat("minimize(if path.lat < 0 then 0 else path.len)"),
            (
                "guard `path.lat < 0` can never hold: its least possible value here is 0".into(),
                vec![zero_note.to_string()]
            )
        );
        // Only A B D satisfies the regex: two hops of 1 µs each.
        let abd_note = "the shortest path satisfying this branch's regexes already has \
                        latency ≥ 0.0000020000000000000003s and length ≥ 2";
        assert_eq!(
            unsat("minimize(if A B D then (if path.util < 0 then 0 else 1) else path.len)"),
            (
                "guard `path.util < 0` can never hold: its least possible value here is 0".into(),
                vec![abd_note.to_string()]
            )
        );
        // Holds at the all-zero floor, fails at the real one.
        assert_eq!(
            unsat("minimize(if A B D then (if path.len < 2 then 0 else 1) else path.len)"),
            (
                "guard `path.len < 2` can never hold: its least possible value here is 2".into(),
                vec![abd_note.to_string()]
            )
        );
        let fat8 = contra_topology::generators::fat_tree(8, 0, Default::default());
        let r = check(&crate::policies::congestion_aware(), &fat8);
        assert!(r.diagnostics.iter().all(|d| d.code != codes::UNSAT_GUARD));
    }

    #[test]
    fn exact_path_policy_is_fragile() {
        let topo = fig6_topo();
        let r = check("minimize(if A B D then 0 else inf)", &topo);
        let a = topo.find("A").unwrap();
        let b = topo.find("B").unwrap();
        let d = topo.find("D").unwrap();
        // Cutting A–B (or B–D) kills A→D even though the network survives.
        let on_ab = r
            .verdicts
            .fragile
            .iter()
            .find(|f| f.cable == (a.min(b), a.max(b)) && f.src == a && f.dst == d)
            .expect("A→D must be fragile under A–B");
        assert!(!on_ab.partitions);
        assert!(r.diagnostics.iter().any(|d| d.code == codes::FRAGILE_LINK));
    }

    #[test]
    fn robust_policy_is_not_fragile() {
        let topo = fig6_topo();
        let r = check("minimize(path.len)", &topo);
        assert!(
            r.verdicts.fragile.is_empty(),
            "fig6 is 2-connected; shortest-path routing survives any one cut: {:?}",
            r.verdicts.fragile
        );
    }

    #[test]
    fn partition_cut_reported_as_info() {
        // A–B–C line: cutting B–C physically strands C.
        let mut t = Topology::builder();
        let a = t.switch("A");
        let b = t.switch("B");
        let c = t.switch("C");
        t.biline(a, b, 1e9, 1_000);
        t.biline(b, c, 1e9, 1_000);
        let topo = t.build();
        let r = check("minimize(path.len)", &topo);
        assert!(!r.verdicts.fragile.is_empty());
        assert!(r.verdicts.fragile.iter().all(|f| f.partitions));
        // Physical cuts are info, not warnings — no policy can fix them.
        assert!(r
            .diagnostics
            .iter()
            .filter(|d| d.code == codes::FRAGILE_LINK)
            .all(|d| d.severity == crate::diag::Severity::Info));
    }

    #[test]
    fn hosts_restrict_sources() {
        // Hosts only on A and D: B/C black holes are not reported.
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
        let ha = t.host("hA");
        let hd = t.host("hD");
        t.biline(a, ha, 10e9, 1_000);
        t.biline(d, hd, 10e9, 1_000);
        let topo = t.build();
        let cp = Compiler::new(&topo)
            .compile_str("minimize(if A B D then 0 else inf)")
            .unwrap();
        let r = verify(&cp, &topo);
        // Destinations default to host-bearing switches {A, D}; sources
        // likewise. A→D routes; D→A does not (D B A ∉ A B D) — one hole.
        assert_eq!(
            r.verdicts.black_holes,
            vec![BlackHole {
                src: topo.find("D").unwrap(),
                dst: topo.find("A").unwrap()
            }]
        );
    }

    #[test]
    fn verify_source_reports_compile_errors_as_diagnostics() {
        let topo = fig6_topo();
        let (cp, r) = verify_source("minimize(1 +", &topo);
        assert!(cp.is_none());
        assert!(r.has_errors());
        assert_eq!(r.diagnostics[0].code, codes::SYNTAX);

        let (cp, r) = verify_source("minimize(if Zed then 0 else inf)", &topo);
        assert!(cp.is_none());
        assert_eq!(r.diagnostics[0].code, codes::UNRESOLVED_NAME);
        let src = "minimize(if Zed then 0 else inf)";
        let sp = r.diagnostics[0].span;
        assert_eq!(&src[sp.start..sp.end], "Zed");

        let (cp, r) = verify_source("minimize(inf)", &topo);
        assert!(cp.is_none());
        assert_eq!(r.diagnostics[0].code, codes::NO_USEFUL_PATHS);
    }

    #[test]
    fn render_includes_snippets() {
        let topo = fig6_topo();
        let src = "minimize(if A A then 0 else path.len)";
        let (_, r) = verify_source(src, &topo);
        let out = r.render(Some(src));
        assert!(out.contains(codes::DEAD_BRANCH), "{out}");
        assert!(out.contains("-->"), "{out}");
        assert!(out.contains("policy check:"), "{out}");
    }
}
