//! The compiler driver: policy + topology → per-switch programs.
//!
//! Pipeline (§4): parse → normalize into guarded branches → analyze
//! (monotonicity check, isotonic decomposition into `pid`s) → resolve
//! switch names → reverse each regex, determinize, minimize → build the
//! product graph → emit one [`SwitchProgram`] per switch: its tags and
//! probe-sending state, plus the static tables the runtime protocol
//! interprets, which are slices of flat arrays shared by every switch —
//! `NEXTPGNODE` ([`CompiledPolicy::next_pg_node`], the product-graph edges
//! bucketed by receiving switch) and the multicast fan-out (the product
//! graph's own successor rows, [`ProductGraph::succs`]), plus the
//! destination numbering every switch's FwdT and BestT rows are indexed
//! by ([`CompiledPolicy::destination_index`], built at its first use).
//!
//! The compiler also computes the **probe period floor** (§5.2: period ≥
//! 0.5 × max RTT) and lowers the policy's rank functions into the
//! [`RankProgram`] the dataplane evaluates (retention keys for FwdT
//! updates, full keys for BestT). `retention_rank` and `full_rank` are
//! the reference semantics that program is held to, and what the verifier
//! and the oracles rank with.

use crate::analysis::{analyze, Analysis, AnalysisError, AnalysisWarning};
use crate::ast::Policy;
use crate::lexer::SyntaxError;
use crate::lower::RankProgram;
use crate::metric::{MetricBasis, MetricVec};
use crate::normal::{normalize, NormError, NormalPolicy};
use crate::pg::{bucketed, ProductGraph, VNodeId, VNodeRun};
use crate::rank::Rank;
use crate::resolve::{resolve_regexes, ResolveError};
use contra_automata::{Dfa, Regex};
use contra_telemetry::{PipelineProfile, Profiler};
use contra_topology::{NodeId, Topology};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

/// Anything that can go wrong between policy text and switch programs.
#[derive(Debug)]
pub enum CompileError {
    /// Lexing/parsing failure.
    Syntax(SyntaxError),
    /// Type-level normalization failure.
    Norm(NormError),
    /// Monotonicity violation.
    Analysis(AnalysisError),
    /// Unknown / non-switch node name.
    Resolve(ResolveError),
    /// The policy assigns ∞ to every path on this topology — nothing to
    /// compile.
    NoUsefulPaths,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Syntax(e) => write!(f, "{e}"),
            CompileError::Norm(e) => write!(f, "{e}"),
            CompileError::Analysis(e) => write!(f, "{e}"),
            CompileError::Resolve(e) => write!(f, "{e}"),
            CompileError::NoUsefulPaths => {
                write!(f, "policy forbids every path on this topology")
            }
        }
    }
}

impl CompileError {
    /// The source span this error points at ([`crate::diag::Span::DUMMY`]
    /// when not attributable to one location).
    pub fn span(&self) -> crate::diag::Span {
        match self {
            CompileError::Syntax(e) => e.span,
            CompileError::Norm(e) => e.span(),
            CompileError::Analysis(e) => e.span(),
            CompileError::Resolve(e) => e.span(),
            CompileError::NoUsefulPaths => crate::diag::Span::DUMMY,
        }
    }
}

impl std::error::Error for CompileError {}

impl From<SyntaxError> for CompileError {
    fn from(e: SyntaxError) -> Self {
        CompileError::Syntax(e)
    }
}
impl From<NormError> for CompileError {
    fn from(e: NormError) -> Self {
        CompileError::Norm(e)
    }
}
impl From<AnalysisError> for CompileError {
    fn from(e: AnalysisError) -> Self {
        CompileError::Analysis(e)
    }
}
impl From<ResolveError> for CompileError {
    fn from(e: ResolveError) -> Self {
        CompileError::Resolve(e)
    }
}

/// Slots of every switch's flowlet register array (§5.3) — the one
/// definition behind the emitted program's `FLOWLET_SIZE`, the Fig 10
/// byte count and the simulated switch's table.
pub const FLOWLET_ENTRIES: usize = 1024;
/// Slots of every switch's loop-detection register array (§5.5): the
/// emitted `LOOP_SIZE`, its Fig 10 bytes and the simulated table.
pub const LOOP_ENTRIES: usize = 512;

/// The static program for one switch: everything the runtime protocol needs
/// besides the (runtime-populated) FwdT/BestT/flowlet tables. Its two
/// tables are slices of the compiled policy's arrays: `NEXTPGNODE` is
/// [`CompiledPolicy::next_pg_node`], and the probe fan-out of tag `v` is
/// [`ProductGraph::succs`]`(v)`, each neighbour's switch being its
/// virtual node's.
#[derive(Debug, Clone)]
pub struct SwitchProgram {
    /// The switch this program runs on.
    pub switch: NodeId,
    /// This switch's virtual nodes, in tag order: one run of consecutive
    /// ids, tag `t` being `VNodeId(first + t)`. A copy of
    /// [`ProductGraph::vnodes_at`], so a program owns no heap block.
    pub tags: VNodeRun,
    /// The probe-sending virtual node when this switch originates probes
    /// (it is a destination allowed by the policy).
    pub sending_vnode: Option<VNodeId>,
}

/// The full output of compilation.
#[derive(Debug, Clone)]
pub struct CompiledPolicy {
    /// The source policy (resolved AST).
    pub policy: Policy,
    /// Normalized guarded branches.
    pub normal: NormalPolicy,
    /// Monotonicity/isotonicity analysis and `pid` decomposition.
    pub analysis: Analysis,
    /// Metrics probes must carry.
    pub basis: MetricBasis,
    /// Traffic-direction resolved regexes (used by oracles and BestT
    /// evaluation in tests).
    pub traffic_regexes: Vec<Regex>,
    /// Reversed, determinized and minimized automata — the
    /// ones the product graph runs on.
    pub automata: Vec<Dfa>,
    /// The product graph.
    pub pg: ProductGraph,
    /// Probe-originating destinations.
    pub destinations: Vec<NodeId>,
    /// [`CompiledPolicy::destination_index`], built at its first call.
    dest_index: OnceLock<Box<[u32]>>,
    /// Per-switch programs.
    pub programs: BTreeMap<NodeId, SwitchProgram>,
    /// Every switch's `NEXTPGNODE` rows, one run per topology node:
    /// node `s`'s are `next_pg[next_pg_first[s]..next_pg_first[s + 1]]`.
    next_pg_first: Vec<u32>,
    next_pg: Vec<(VNodeId, VNodeId)>,
    /// The rank functions every switch evaluates, lowered once.
    pub ranks: RankProgram,
    /// Analysis warnings (non-isotonic retention, …).
    pub warnings: Vec<AnalysisWarning>,
    /// Lower bound on the probe period in nanoseconds (0.5 × max RTT, §5.2).
    pub min_probe_period_ns: u64,
}

impl CompiledPolicy {
    /// Number of probe subpolicies (`pid`s).
    pub fn num_pids(&self) -> usize {
        self.analysis.subpolicies.len()
    }

    /// The retention rank `f(pid, mv)` FwdT updates are decided by (Fig 7):
    /// lower is better; probes that do not improve it are not re-multicast.
    /// The reference semantics of [`RankProgram::retention_key`].
    pub fn retention_rank(&self, pid: usize, mv: &MetricVec) -> Rank {
        let sub = &self.analysis.subpolicies[pid];
        sub.retention.iter().map(|e| e.eval(mv)).collect()
    }

    /// The full policy rank `s(·)` BestT / source path selection is decided
    /// by: evaluates the original policy given a virtual node's acceptance
    /// vector and a metric vector. The reference semantics of
    /// [`RankProgram::full_key`].
    pub fn full_rank(&self, vnode: VNodeId, mv: &MetricVec) -> Rank {
        self.normal.rank(self.pg.acc(vnode), mv)
    }

    /// Ground-truth oracle: the rank the policy assigns to a concrete
    /// switch path (source first, destination last) with the given link
    /// metric lookups. Used by tests and the optimality property harness.
    pub fn rank_of_path(
        &self,
        path: &[NodeId],
        mut link_metrics: impl FnMut(NodeId, NodeId) -> (f64, f64),
    ) -> Rank {
        let syms: Vec<u32> = path.iter().map(|n| n.0).collect();
        let acc: Vec<bool> = self
            .traffic_regexes
            .iter()
            .map(|r| r.matches(&syms))
            .collect();
        let mut mv = MetricVec::zero();
        for w in path.windows(2) {
            let (util, lat) = link_metrics(w[0], w[1]);
            mv = mv.extend(util, lat);
        }
        self.normal.rank(&acc, &mv)
    }

    /// Total number of virtual nodes (= tags across all switches).
    pub fn total_tags(&self) -> usize {
        self.pg.len()
    }

    /// Each destination's position in [`CompiledPolicy::destinations`],
    /// indexed by node id up to the highest destination; `u32::MAX` for
    /// every other node. The row number of every switch's FwdT and BestT:
    /// built at the first call, so a compile does not pay for it, and
    /// read by every switch of the policy.
    pub fn destination_index(&self) -> &[u32] {
        self.dest_index.get_or_init(|| {
            let last = self.destinations.iter().map(|d| d.0 as usize + 1).max();
            let mut index = vec![u32::MAX; last.unwrap_or(0)].into_boxed_slice();
            for (i, d) in (0..).zip(&self.destinations) {
                index[d.0 as usize] = i;
            }
            index
        })
    }

    /// `NEXTPGNODE` of `switch`: `(incoming probe tag, this switch's
    /// virtual node)` for every product-graph edge into the switch,
    /// ascending by incoming tag (a tag has one successor per neighbour,
    /// so none repeats). Empty for a node without a program.
    pub fn next_pg_node(&self, switch: NodeId) -> &[(VNodeId, VNodeId)] {
        let s = switch.0 as usize;
        match self.next_pg_first.get(s..s + 2) {
            Some(&[first, end]) => &self.next_pg[first as usize..end as usize],
            _ => &[],
        }
    }
}

/// The switches that source and sink traffic — the probe-originating
/// destinations the compiler picks and the sources the verifier checks:
/// every switch with attached hosts, or every switch when the topology
/// has no hosts (the scalability sweeps use host-less graphs).
pub fn traffic_endpoints(topo: &Topology) -> Vec<NodeId> {
    let hosted = |&s: &NodeId| topo.adjacency(s).iter().any(|&(m, _)| !topo.is_switch(m));
    let with_hosts: Vec<NodeId> = topo.switches().into_iter().filter(hosted).collect();
    if with_hosts.is_empty() {
        topo.switches()
    } else {
        with_hosts
    }
}

/// One program per switch.
fn switch_programs(topo: &Topology, pg: &ProductGraph) -> BTreeMap<NodeId, SwitchProgram> {
    let program = |sw: NodeId| SwitchProgram {
        switch: sw,
        tags: pg.vnodes_at(sw),
        sending_vnode: pg.sending.get(&sw).copied(),
    };
    let switches = topo.switches().into_iter();
    switches.map(|sw| (sw, program(sw))).collect()
}

/// Every switch's `NEXTPGNODE` rows as one run, which
/// [`CompiledPolicy::next_pg_node`] slices: the product-graph edges
/// `(from, to)` bucketed by the switch of `to`. The sweep is in `from`
/// order, so every bucket comes out sorted by its key.
fn next_pg_rows(topo: &Topology, pg: &ProductGraph) -> (Vec<u32>, Vec<(VNodeId, VNodeId)>) {
    let edges = (0..pg.len() as u32).map(VNodeId).flat_map(|v| {
        let into = move |&w: &VNodeId| (pg.vnode(w).switch.0 as usize, (v, w));
        pg.succs(v).iter().map(into)
    });
    bucketed(topo.num_nodes(), edges, (VNodeId(0), VNodeId(0)))
}

/// The Contra compiler, bound to one topology.
pub struct Compiler<'t> {
    topo: &'t Topology,
}

impl<'t> Compiler<'t> {
    /// A compiler for policies over `topo`.
    pub fn new(topo: &'t Topology) -> Compiler<'t> {
        Compiler { topo }
    }

    /// Compiles a parsed policy.
    pub fn compile(&self, policy: &Policy) -> Result<CompiledPolicy, CompileError> {
        self.compile_with(policy, &mut Profiler::new(false))
    }

    /// The pipeline behind [`Compiler::compile`] and
    /// [`Compiler::compile_str_profiled`]: one code path whether or not a
    /// profile is being taken (a disabled profiler's spans are free).
    fn compile_with(
        &self,
        policy: &Policy,
        prof: &mut Profiler,
    ) -> Result<CompiledPolicy, CompileError> {
        let normal = prof.span("normalize", || normalize(policy))?;
        let analysis = prof.span("analyze", || analyze(&normal))?;
        let basis = normal.basis();
        let traffic_regexes =
            prof.span("resolve", || resolve_regexes(&normal.regexes, self.topo))?;

        let automata: Vec<Dfa> = prof.span("determinize", || {
            let alphabet: Vec<u32> = self.topo.switches().iter().map(|s| s.0).collect();
            traffic_regexes
                .iter()
                .map(|r| Dfa::from_regex(&r.reverse(), &alphabet).minimize().0)
                .collect()
        });

        let (destinations, pg) = prof.span("product", || {
            let destinations = traffic_endpoints(self.topo);
            let pg = ProductGraph::build(self.topo, &automata, &normal, &destinations, true);
            (destinations, pg)
        });
        if pg.is_empty() || pg.sending.is_empty() {
            return Err(CompileError::NoUsefulPaths);
        }

        let (programs, (next_pg_first, next_pg), ranks) = prof.span("tablegen", || {
            let ranks = RankProgram::lower(&normal, &analysis, &pg);
            let programs = switch_programs(self.topo, &pg);
            (programs, next_pg_rows(self.topo, &pg), ranks)
        });

        let warnings = analysis.warnings.clone();
        let min_probe_period_ns = self.topo.max_switch_rtt_ns() / 2;
        Ok(CompiledPolicy {
            policy: policy.clone(),
            normal,
            analysis,
            basis,
            traffic_regexes,
            automata,
            pg,
            destinations,
            dest_index: OnceLock::new(),
            programs,
            next_pg_first,
            next_pg,
            ranks,
            warnings,
            min_probe_period_ns,
        })
    }

    /// Convenience: parse then compile.
    pub fn compile_str(&self, src: &str) -> Result<CompiledPolicy, CompileError> {
        let policy = crate::parser::parse_policy(src)?;
        self.compile(&policy)
    }

    /// Parse + compile with the per-stage wall-clock breakdown (Fig 9
    /// instrumentation). Stage names: `parse`, `normalize`, `analyze`,
    /// `resolve`, `determinize` (which covers reversal, subset
    /// construction and minimization), `product`, and `tablegen`, plus
    /// the `other` residual; the breakdown sums to the measured total by
    /// construction.
    pub fn compile_str_profiled(
        &self,
        src: &str,
    ) -> Result<(CompiledPolicy, PipelineProfile), CompileError> {
        let mut prof = Profiler::new(true);
        let policy = prof.span("parse", || crate::parser::parse_policy(src))?;
        let cp = self.compile_with(&policy, &mut prof)?;
        Ok((cp, prof.finish().expect("profiler enabled")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Attr;
    use contra_topology::Topology;

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
    fn compiles_min_util() {
        let topo = fig6_topo();
        let cp = Compiler::new(&topo)
            .compile_str("minimize(path.util)")
            .unwrap();
        assert_eq!(cp.num_pids(), 1);
        assert_eq!(cp.programs.len(), 4);
        assert_eq!(cp.basis.attrs().collect::<Vec<_>>(), [Attr::Util]);
        assert!(cp.warnings.is_empty());
        // Every switch is a destination (no hosts) and sends probes.
        for prog in cp.programs.values() {
            assert!(prog.sending_vnode.is_some());
        }
        // min probe period = half of max RTT (diamond+: max RTT = 2 hops
        // each way = 4 µs; here longest shortest path is 2 hops → 4 µs RTT).
        assert_eq!(cp.min_probe_period_ns, 2_000);
    }

    #[test]
    fn rank_of_path_oracle() {
        let topo = fig6_topo();
        let cp = Compiler::new(&topo)
            .compile_str("minimize(if A B D then 0 else if B .* D then path.util else inf)")
            .unwrap();
        let a = topo.find("A").unwrap();
        let b = topo.find("B").unwrap();
        let c = topo.find("C").unwrap();
        let d = topo.find("D").unwrap();
        let metrics = |_x: NodeId, _y: NodeId| (0.3, 1e-6);
        assert_eq!(cp.rank_of_path(&[a, b, d], metrics), Rank::scalar(0.0));
        assert_eq!(cp.rank_of_path(&[b, c, d], metrics), Rank::scalar(0.3));
        assert!(cp.rank_of_path(&[a, c, d], metrics).is_inf());
    }

    #[test]
    fn destination_defaults_to_hosted_switches() {
        let mut t = Topology::builder();
        let a = t.switch("A");
        let b = t.switch("B");
        let h = t.host("h");
        t.biline(a, b, 1e9, 1_000);
        t.biline(b, h, 1e9, 1_000);
        let topo = t.build();
        let cp = Compiler::new(&topo)
            .compile_str("minimize(path.len)")
            .unwrap();
        assert_eq!(cp.destinations, vec![b]);
        assert!(cp.programs[&b].sending_vnode.is_some());
        assert!(cp.programs[&a].sending_vnode.is_none());
    }

    #[test]
    fn errors_propagate() {
        let topo = fig6_topo();
        let c = Compiler::new(&topo);
        assert!(matches!(
            c.compile_str("minimize(path.util"),
            Err(CompileError::Syntax(_))
        ));
        assert!(matches!(
            c.compile_str("minimize(if Zed then 0 else 1)"),
            Err(CompileError::Resolve(_))
        ));
        assert!(matches!(
            c.compile_str("minimize(path.len - path.util)"),
            Err(CompileError::Analysis(_))
        ));
        assert!(matches!(
            c.compile_str("minimize(inf)"),
            Err(CompileError::NoUsefulPaths)
        ));
    }

    #[test]
    fn compile_profile_sums_to_total() {
        let topo = fig6_topo();
        let (cp, prof) = Compiler::new(&topo)
            .compile_str_profiled(
                "minimize(if A B D then 0 else if B .* D then path.util else inf)",
            )
            .unwrap();
        assert_eq!(cp.programs.len(), 4, "profiled output matches compile()");
        let names: Vec<&str> = prof.stages.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            vec![
                "parse",
                "normalize",
                "analyze",
                "resolve",
                "determinize",
                "product",
                "tablegen",
                "other"
            ]
        );
        // The residual-stage construction makes the breakdown sum to the
        // measured total (within 1%, the fig09 acceptance bound).
        let diff = prof.total.abs_diff(prof.stage_sum());
        assert!(
            diff <= prof.total / 100,
            "stage sum {:?} vs total {:?}",
            prof.stage_sum(),
            prof.total
        );
    }

    /// A tuple wider than the rank's inline storage still ranks and compares.
    #[test]
    fn wide_tuple_policy_ranks_and_compares() {
        let topo = fig6_topo();
        let cp = Compiler::new(&topo)
            .compile_str(
                "minimize((path.len, path.len, path.len, path.len, \
                 path.len, path.len, path.util))",
            )
            .unwrap();
        let v = cp.pg.sending[&topo.find("D").unwrap()];
        let light = MetricVec::new(0.25, 0.0, 2.0);
        let heavy = MetricVec::new(0.75, 0.0, 2.0);
        assert_eq!(
            cp.full_rank(v, &light),
            Rank::tuple(vec![2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 0.25])
        );
        // Decided by the seventh component.
        assert!(cp.full_rank(v, &light) < cp.full_rank(v, &heavy));
        for pid in 0..cp.num_pids() {
            assert!(cp.retention_rank(pid, &light) <= cp.retention_rank(pid, &heavy));
        }
    }

    #[test]
    fn retention_vs_full_rank_for_ca() {
        let topo = fig6_topo();
        let cp = Compiler::new(&topo)
            .compile_str(
                "minimize(if path.util < .8 then (1, 0, path.util) \
                 else (2, path.len, path.util))",
            )
            .unwrap();
        assert_eq!(cp.num_pids(), 2);
        let low = MetricVec::new(0.3, 0.0, 2.0);
        let high = MetricVec::new(0.9, 0.0, 2.0);
        // pid 0 retains by util alone.
        assert!(cp.retention_rank(0, &low) < cp.retention_rank(0, &high));
        // Full rank switches branch at the 0.8 threshold.
        let v = cp.pg.sending[&topo.find("D").unwrap()];
        assert_eq!(cp.full_rank(v, &low), Rank::tuple(vec![1.0, 0.0, 0.3]));
        assert_eq!(cp.full_rank(v, &high), Rank::tuple(vec![2.0, 2.0, 0.9]));
    }
}
