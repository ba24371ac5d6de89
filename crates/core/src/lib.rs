//! # contra-core — the Contra policy language, analyses and compiler
//!
//! This crate implements the primary contribution of *Contra: A
//! Programmable System for Performance-aware Routing* (NSDI 2020):
//!
//! 1. **Policy language** (§2, Fig 2): policies are path-ranking functions
//!    mixing regular-expression path constraints with dynamic performance
//!    metrics — [`parse_policy`], [`ast`].
//! 2. **Normalization** ([`normal`]): flattening into exclusive, exhaustive
//!    guarded branches.
//! 3. **Analysis** ([`analysis`]): monotonicity (rejects rank functions
//!    that improve along extensions — probe-loop risk) and isotonicity
//!    (decomposes non-isotonic policies into per-`pid` subpolicies that
//!    probes propagate separately, §3/App. A).
//! 4. **Product graph** ([`pg`], §4.1): reversed policy automata × topology;
//!    its virtual nodes are the `tag`s probes and packets carry. It is
//!    flat arrays: each switch's virtual nodes one run of ids, their
//!    automaton states and acceptance bits one array each, and their
//!    successors one compressed sparse row.
//! 5. **Compiler** ([`compiler`], §4): emits one [`SwitchProgram`] per
//!    switch — its tags and probe-sending state — and the static tables
//!    that configure the runtime protocol implemented in
//!    `contra-dataplane`, and that `contra-p4gen` renders as P4₁₆, as
//!    slices every reader takes: `NEXTPGNODE` of one run for all switches
//!    ([`CompiledPolicy::next_pg_node`]) and the probe multicast fan-out
//!    of the product graph's successor rows ([`ProductGraph::succs`]).
//! 6. **Lowering** ([`lower`]): the policy's retention and full rank
//!    functions as one [`RankProgram`] that evaluates metric vectors into
//!    integer [`RankKey`]s, ordered as the reference [`Rank`]s — what the
//!    switches compare.
//!
//! The nine catalogue policies of Fig 3 are available in [`policies`].
//!
//! ```
//! use contra_core::{parse_policy, Compiler};
//! use contra_topology::Topology;
//!
//! let mut t = Topology::builder();
//! let (a, b, c) = (t.switch("A"), t.switch("B"), t.switch("C"));
//! t.biline(a, b, 10e9, 1_000);
//! t.biline(b, c, 10e9, 1_000);
//! t.biline(a, c, 10e9, 1_000);
//! let topo = t.build();
//!
//! let policy = parse_policy("minimize(if .* B .* then path.util else inf)").unwrap();
//! let compiled = Compiler::new(&topo).compile(&policy).unwrap();
//! assert_eq!(compiled.num_pids(), 1);
//! assert!(compiled.programs[&b].sending_vnode.is_some());
//! ```

pub mod analysis;
pub mod ast;
pub mod compiler;
pub mod diag;
pub mod lexer;
pub mod lower;
pub mod metric;
pub mod normal;
pub mod parser;
pub mod pg;
pub mod policies;
pub mod rank;
pub mod resolve;
pub mod verify;

pub use analysis::{Analysis, AnalysisError, AnalysisWarning, Subpolicy};
pub use ast::{
    Attr, BinOp, BoolExpr, BoolExprKind, CmpOp, Expr, ExprKind, PathRegex, PathRegexKind, Policy,
};
pub use compiler::{
    traffic_endpoints, CompileError, CompiledPolicy, Compiler, SwitchProgram, FLOWLET_ENTRIES,
    LOOP_ENTRIES,
};
pub use contra_telemetry::{PipelineProfile, Profiler};
pub use diag::{Diagnostic, Severity, Span};
pub use lower::{RankKey, RankProgram};
pub use metric::{MetricBasis, MetricVec};
pub use normal::{normalize, Branch, BranchRank, Guard, MetricExpr, NormalPolicy};
pub use parser::parse_policy;
pub use pg::{ProductGraph, VNode, VNodeId, VNodeRun};
pub use rank::Rank;
pub use verify::{verify, verify_source, BlackHole, Fragility, Report};
