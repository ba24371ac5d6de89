//! Normalization of policies into guarded branches.
//!
//! A policy expression mixes conditionals (over regexes and metric guards)
//! with arithmetic and tuples. Normalization flattens it into a set of
//! **branches**, each of the form
//!
//! ```text
//! (regex requirements) ∧ (metric guards)  ⟹  rank = (m₁, …, mₖ)   or ∞
//! ```
//!
//! where the `mᵢ` are conditional-free metric expressions. The branches are
//! mutually exclusive and exhaustive by construction, so evaluating a policy
//! on a concrete path means finding *the* branch whose requirements hold and
//! evaluating its rank. Branches are also the unit of the paper's
//! non-isotonic decomposition (§3 challenge 3, appendix A): each distinct
//! finite branch ordering becomes one probe subpolicy (`pid`).
//!
//! Branches and guards keep the [`Span`] of the source expression they were
//! derived from, so the verifier can point dead-branch or unsatisfiable-
//! guard findings back at the policy text.

use crate::ast::{Attr, BinOp, BoolExpr, BoolExprKind, CmpOp, Expr, ExprKind, PathRegex, Policy};
use crate::diag::Span;
use crate::metric::{MetricBasis, MetricVec};
use crate::rank::Rank;
use std::fmt;

/// A conditional-free scalar metric expression.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricExpr {
    /// Constant.
    Const(f64),
    /// Base path attribute.
    Attr(Attr),
    /// Arithmetic on two sub-expressions.
    Bin(BinOp, Box<MetricExpr>, Box<MetricExpr>),
}

impl MetricExpr {
    /// Evaluates against a concrete metric vector.
    pub fn eval(&self, mv: &MetricVec) -> f64 {
        match self {
            MetricExpr::Const(c) => *c,
            MetricExpr::Attr(a) => mv.get(*a),
            MetricExpr::Bin(op, a, b) => {
                let (x, y) = (a.eval(mv), b.eval(mv));
                match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Min => x.min(y),
                    BinOp::Max => x.max(y),
                }
            }
        }
    }

    /// Collects the attributes this expression reads.
    pub fn attrs(&self, basis: &mut MetricBasis) {
        match self {
            MetricExpr::Const(_) => {}
            MetricExpr::Attr(a) => basis.insert(*a),
            MetricExpr::Bin(_, a, b) => {
                a.attrs(basis);
                b.attrs(basis);
            }
        }
    }

    /// Whether this expression is a constant (and its value).
    pub fn as_const(&self) -> Option<f64> {
        match self {
            MetricExpr::Const(c) => Some(*c),
            _ => None,
        }
    }
}

impl fmt::Display for MetricExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricExpr::Const(c) => write!(f, "{c}"),
            MetricExpr::Attr(a) => write!(f, "{a}"),
            MetricExpr::Bin(BinOp::Min, a, b) => write!(f, "min({a}, {b})"),
            MetricExpr::Bin(BinOp::Max, a, b) => write!(f, "max({a}, {b})"),
            MetricExpr::Bin(op, a, b) => write!(f, "({a} {op} {b})"),
        }
    }
}

/// A metric guard: a comparison that must hold for the branch to apply.
#[derive(Debug, Clone)]
pub struct Guard {
    /// Comparison operator.
    pub op: CmpOp,
    /// Left operand.
    pub lhs: MetricExpr,
    /// Right operand.
    pub rhs: MetricExpr,
    /// Source span of the comparison this guard came from.
    pub span: Span,
}

impl PartialEq for Guard {
    /// Structural equality; spans are ignored (guard deduplication during
    /// branch merging must not depend on source position).
    fn eq(&self, other: &Self) -> bool {
        self.op == other.op && self.lhs == other.lhs && self.rhs == other.rhs
    }
}

impl Guard {
    /// Evaluates the guard on a metric vector.
    pub fn eval(&self, mv: &MetricVec) -> bool {
        self.op.eval(self.lhs.eval(mv), self.rhs.eval(mv))
    }
}

impl fmt::Display for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.op, self.rhs)
    }
}

/// The rank a branch assigns when it applies.
#[derive(Debug, Clone, PartialEq)]
pub enum BranchRank {
    /// Path forbidden.
    Inf,
    /// Lexicographic vector of metric expressions.
    Finite(Vec<MetricExpr>),
}

impl BranchRank {
    /// Evaluates to a concrete [`Rank`].
    pub fn eval(&self, mv: &MetricVec) -> Rank {
        match self {
            BranchRank::Inf => Rank::Inf,
            BranchRank::Finite(comps) => comps.iter().map(|c| c.eval(mv)).collect(),
        }
    }
}

/// One guarded branch of a normalized policy.
#[derive(Debug, Clone)]
pub struct Branch {
    /// `(regex index, polarity)` — the path must (or must not) match the
    /// indexed regex for this branch to apply.
    pub reqs: Vec<(usize, bool)>,
    /// Metric guards that must also hold.
    pub guards: Vec<Guard>,
    /// The branch's rank.
    pub rank: BranchRank,
    /// Source span of the expression whose value this branch assigns.
    pub span: Span,
}

impl PartialEq for Branch {
    /// Structural equality; spans are ignored.
    fn eq(&self, other: &Self) -> bool {
        self.reqs == other.reqs && self.guards == other.guards && self.rank == other.rank
    }
}

impl Branch {
    /// Whether the branch applies for the given regex-acceptance vector and
    /// metric vector.
    pub fn applies(&self, acc: &[bool], mv: &MetricVec) -> bool {
        self.reqs.iter().all(|&(i, want)| acc[i] == want) && self.guards.iter().all(|g| g.eval(mv))
    }

    /// Whether the branch's *regex requirements alone* hold for the given
    /// acceptance vector (guards ignored — used by the verifier, which
    /// reasons about metric guards separately since metrics are runtime
    /// state).
    pub fn reqs_match(&self, acc: &[bool]) -> bool {
        self.reqs.iter().all(|&(i, want)| acc[i] == want)
    }
}

/// A normalized policy: interned regexes plus exclusive, exhaustive branches.
#[derive(Debug, Clone, PartialEq)]
pub struct NormalPolicy {
    /// Interned path regexes, referenced by index from branch requirements.
    pub regexes: Vec<PathRegex>,
    /// The guarded branches.
    pub branches: Vec<Branch>,
}

impl NormalPolicy {
    /// Evaluates the full policy: find the applicable branch and evaluate
    /// its rank. `acc[i]` says whether the path matches `regexes[i]`.
    pub fn rank(&self, acc: &[bool], mv: &MetricVec) -> Rank {
        debug_assert_eq!(acc.len(), self.regexes.len());
        for b in &self.branches {
            if b.applies(acc, mv) {
                return b.rank.eval(mv);
            }
        }
        // Branches are exhaustive by construction; reaching here means a
        // broken invariant, and dropping traffic is the safe answer.
        debug_assert!(false, "no branch applied — normalization is not exhaustive");
        Rank::Inf
    }

    /// The metric basis: every attribute read by any guard or finite rank.
    pub fn basis(&self) -> MetricBasis {
        let mut basis = MetricBasis::default();
        for b in &self.branches {
            for g in &b.guards {
                g.lhs.attrs(&mut basis);
                g.rhs.attrs(&mut basis);
            }
            if let BranchRank::Finite(comps) = &b.rank {
                for c in comps {
                    c.attrs(&mut basis);
                }
            }
        }
        basis
    }
}

/// Errors from normalization (the language's "type errors").
#[derive(Debug, Clone, PartialEq)]
pub enum NormError {
    /// A binary operator was applied to a tuple-valued expression.
    BinOnTuple {
        /// Rendering of the offending expression.
        expr: String,
        /// Where it sits in the source.
        span: Span,
    },
    /// `inf` appeared inside a comparison.
    InfInComparison {
        /// Where the `inf` sits in the source.
        span: Span,
    },
    /// A conditional appeared inside a comparison operand.
    IfInComparison {
        /// Where the conditional sits in the source.
        span: Span,
    },
    /// Too many branches after expansion (pathological nesting).
    TooManyBranches(usize),
}

impl NormError {
    /// The source span this error points at ([`Span::DUMMY`] when the
    /// error is not attributable to one location).
    pub fn span(&self) -> Span {
        match self {
            NormError::BinOnTuple { span, .. }
            | NormError::InfInComparison { span }
            | NormError::IfInComparison { span } => *span,
            NormError::TooManyBranches(_) => Span::DUMMY,
        }
    }
}

impl fmt::Display for NormError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NormError::BinOnTuple { expr, .. } => {
                write!(
                    f,
                    "binary operator applied to tuple-valued expression: {expr}"
                )
            }
            NormError::InfInComparison { .. } => {
                write!(f, "`inf` cannot appear inside a comparison")
            }
            NormError::IfInComparison { .. } => {
                write!(
                    f,
                    "conditionals are not supported inside comparison operands"
                )
            }
            NormError::TooManyBranches(n) => {
                write!(f, "policy expands to {n} branches; simplify the policy")
            }
        }
    }
}

impl std::error::Error for NormError {}

/// Safety valve against pathological nesting.
const MAX_BRANCHES: usize = 4096;

/// Normalizes a policy into guarded branches.
pub fn normalize(policy: &Policy) -> Result<NormalPolicy, NormError> {
    let mut regexes: Vec<PathRegex> = Vec::new();
    let branches = norm_expr(&policy.expr, &mut regexes)?;
    if branches.len() > MAX_BRANCHES {
        return Err(NormError::TooManyBranches(branches.len()));
    }
    let branches = branches
        .into_iter()
        .map(|(cond, rank, span)| Branch {
            reqs: cond.reqs,
            guards: cond.guards,
            rank,
            span,
        })
        .collect();
    Ok(NormalPolicy { regexes, branches })
}

/// Conjunction of requirements accumulated down one branch.
#[derive(Debug, Clone, Default)]
struct Cond {
    reqs: Vec<(usize, bool)>,
    guards: Vec<Guard>,
}

impl Cond {
    /// Merges two conjunctions; `None` if the regex requirements contradict.
    fn merge(&self, other: &Cond) -> Option<Cond> {
        let mut reqs = self.reqs.clone();
        for &(i, want) in &other.reqs {
            if let Some(&(_, have)) = reqs.iter().find(|&&(j, _)| j == i) {
                if have != want {
                    return None; // r ∧ ¬r — unsatisfiable branch
                }
            } else {
                reqs.push((i, want));
            }
        }
        let mut guards = self.guards.clone();
        for g in &other.guards {
            if !guards.contains(g) {
                guards.push(g.clone());
            }
        }
        Some(Cond { reqs, guards })
    }
}

fn intern(regexes: &mut Vec<PathRegex>, r: &PathRegex) -> usize {
    if let Some(i) = regexes.iter().position(|x| x == r) {
        i
    } else {
        regexes.push(r.clone());
        regexes.len() - 1
    }
}

/// Each output entry is one branch: condition, rank, and the span of the
/// expression that defined the rank (leaf arm of an `if` chain, or the
/// combining expression for tuples and arithmetic).
type NormBranches = Vec<(Cond, BranchRank, Span)>;

fn norm_expr(e: &Expr, regexes: &mut Vec<PathRegex>) -> Result<NormBranches, NormError> {
    match &e.kind {
        ExprKind::Const(c) => Ok(vec![(
            Cond::default(),
            BranchRank::Finite(vec![MetricExpr::Const(*c)]),
            e.span,
        )]),
        ExprKind::Inf => Ok(vec![(Cond::default(), BranchRank::Inf, e.span)]),
        ExprKind::Attr(a) => Ok(vec![(
            Cond::default(),
            BranchRank::Finite(vec![MetricExpr::Attr(*a)]),
            e.span,
        )]),
        ExprKind::Tuple(es) => {
            let mut acc: Vec<(Cond, Vec<MetricExpr>, bool)> =
                vec![(Cond::default(), Vec::new(), false)];
            for comp in es {
                let comp_branches = norm_expr(comp, regexes)?;
                let mut next = Vec::new();
                for (cond, parts, is_inf) in &acc {
                    for (ccond, crank, _cspan) in &comp_branches {
                        let Some(merged) = cond.merge(ccond) else {
                            continue;
                        };
                        match crank {
                            BranchRank::Inf => next.push((merged, parts.clone(), true)),
                            BranchRank::Finite(comps) => {
                                let mut p = parts.clone();
                                // Nested tuples flatten lexicographically.
                                p.extend(comps.iter().cloned());
                                next.push((merged, p, *is_inf));
                            }
                        }
                        if next.len() > MAX_BRANCHES {
                            return Err(NormError::TooManyBranches(next.len()));
                        }
                    }
                }
                acc = next;
                if acc.len() > MAX_BRANCHES {
                    return Err(NormError::TooManyBranches(acc.len()));
                }
            }
            Ok(acc
                .into_iter()
                .map(|(cond, parts, is_inf)| {
                    let rank = if is_inf {
                        BranchRank::Inf
                    } else {
                        BranchRank::Finite(parts)
                    };
                    (cond, rank, e.span)
                })
                .collect())
        }
        ExprKind::Bin(op, a, b) => {
            let la = norm_expr(a, regexes)?;
            let lb = norm_expr(b, regexes)?;
            let mut out = Vec::new();
            for (ca, ra, _) in &la {
                for (cb, rb, _) in &lb {
                    let Some(cond) = ca.merge(cb) else { continue };
                    let rank = combine_bin(*op, ra, rb, e)?;
                    out.push((cond, rank, e.span));
                    if out.len() > MAX_BRANCHES {
                        return Err(NormError::TooManyBranches(out.len()));
                    }
                }
            }
            if out.len() > MAX_BRANCHES {
                return Err(NormError::TooManyBranches(out.len()));
            }
            Ok(out)
        }
        ExprKind::If(cond, then, els) => {
            let outcomes = bool_outcomes(cond, regexes)?;
            let lt = norm_expr(then, regexes)?;
            let le = norm_expr(els, regexes)?;
            let mut out = Vec::new();
            for (bc, val) in &outcomes {
                let arm = if *val { &lt } else { &le };
                for (ac, ar, aspan) in arm {
                    if let Some(merged) = bc.merge(ac) {
                        out.push((merged, ar.clone(), *aspan));
                        if out.len() > MAX_BRANCHES {
                            return Err(NormError::TooManyBranches(out.len()));
                        }
                    }
                }
            }
            if out.len() > MAX_BRANCHES {
                return Err(NormError::TooManyBranches(out.len()));
            }
            Ok(out)
        }
    }
}

fn combine_bin(
    op: BinOp,
    a: &BranchRank,
    b: &BranchRank,
    src: &Expr,
) -> Result<BranchRank, NormError> {
    let scalar = |r: &BranchRank| -> Result<Option<MetricExpr>, NormError> {
        match r {
            BranchRank::Inf => Ok(None),
            BranchRank::Finite(v) if v.len() == 1 => Ok(Some(v[0].clone())),
            BranchRank::Finite(_) => Err(NormError::BinOnTuple {
                expr: src.to_string(),
                span: src.span,
            }),
        }
    };
    let (xa, xb) = (scalar(a)?, scalar(b)?);
    Ok(match (xa, xb) {
        (Some(x), Some(y)) => {
            // Constant-fold the easy case to keep retention tuples small.
            if let (Some(cx), Some(cy)) = (x.as_const(), y.as_const()) {
                let v = match op {
                    BinOp::Add => cx + cy,
                    BinOp::Sub => cx - cy,
                    BinOp::Mul => cx * cy,
                    BinOp::Min => cx.min(cy),
                    BinOp::Max => cx.max(cy),
                };
                BranchRank::Finite(vec![MetricExpr::Const(v)])
            } else {
                BranchRank::Finite(vec![MetricExpr::Bin(op, Box::new(x), Box::new(y))])
            }
        }
        // min(∞, x) = x; every other operator absorbs ∞.
        (None, Some(y)) if op == BinOp::Min => BranchRank::Finite(vec![y]),
        (Some(x), None) if op == BinOp::Min => BranchRank::Finite(vec![x]),
        _ => BranchRank::Inf,
    })
}

/// Enumerates the outcomes of a boolean test as (condition, truth-value)
/// pairs that are disjoint and cover all cases.
fn bool_outcomes(
    b: &BoolExpr,
    regexes: &mut Vec<PathRegex>,
) -> Result<Vec<(Cond, bool)>, NormError> {
    match &b.kind {
        BoolExprKind::Regex(r) => {
            let idx = intern(regexes, r);
            Ok(vec![
                (
                    Cond {
                        reqs: vec![(idx, true)],
                        guards: Vec::new(),
                    },
                    true,
                ),
                (
                    Cond {
                        reqs: vec![(idx, false)],
                        guards: Vec::new(),
                    },
                    false,
                ),
            ])
        }
        BoolExprKind::Cmp(op, e1, e2) => {
            let lhs = guard_operand(e1)?;
            let rhs = guard_operand(e2)?;
            let yes = Guard {
                op: *op,
                lhs: lhs.clone(),
                rhs: rhs.clone(),
                span: b.span,
            };
            // ¬(a op b) with operands swapped and operator flipped.
            let no = Guard {
                op: op.negate_swapped(),
                lhs: rhs,
                rhs: lhs,
                span: b.span,
            };
            Ok(vec![
                (
                    Cond {
                        reqs: Vec::new(),
                        guards: vec![yes],
                    },
                    true,
                ),
                (
                    Cond {
                        reqs: Vec::new(),
                        guards: vec![no],
                    },
                    false,
                ),
            ])
        }
        BoolExprKind::Not(inner) => {
            let mut out = bool_outcomes(inner, regexes)?;
            for (_, v) in out.iter_mut() {
                *v = !*v;
            }
            Ok(out)
        }
        BoolExprKind::And(x, y) => combine_bool(x, y, regexes, |a, b| a && b),
        BoolExprKind::Or(x, y) => combine_bool(x, y, regexes, |a, b| a || b),
    }
}

fn combine_bool(
    x: &BoolExpr,
    y: &BoolExpr,
    regexes: &mut Vec<PathRegex>,
    f: fn(bool, bool) -> bool,
) -> Result<Vec<(Cond, bool)>, NormError> {
    let lx = bool_outcomes(x, regexes)?;
    let ly = bool_outcomes(y, regexes)?;
    let mut out = Vec::new();
    for (cx, vx) in &lx {
        for (cy, vy) in &ly {
            if let Some(cond) = cx.merge(cy) {
                out.push((cond, f(*vx, *vy)));
                // `or`/`and` chains of n distinct regexes produce 2^n
                // outcomes; bail while the product is still small instead
                // of materializing gigabytes before the post-loop checks.
                if out.len() > MAX_BRANCHES {
                    return Err(NormError::TooManyBranches(out.len()));
                }
            }
        }
    }
    Ok(out)
}

/// Converts a comparison operand to a conditional-free metric expression.
fn guard_operand(e: &Expr) -> Result<MetricExpr, NormError> {
    match &e.kind {
        ExprKind::Const(c) => Ok(MetricExpr::Const(*c)),
        ExprKind::Inf => Err(NormError::InfInComparison { span: e.span }),
        ExprKind::Attr(a) => Ok(MetricExpr::Attr(*a)),
        ExprKind::Bin(op, a, b) => Ok(MetricExpr::Bin(
            *op,
            Box::new(guard_operand(a)?),
            Box::new(guard_operand(b)?),
        )),
        ExprKind::If(..) => Err(NormError::IfInComparison { span: e.span }),
        ExprKind::Tuple(_) => Err(NormError::BinOnTuple {
            expr: e.to_string(),
            span: e.span,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_policy;

    fn norm(src: &str) -> NormalPolicy {
        normalize(&parse_policy(src).unwrap()).unwrap()
    }

    #[test]
    fn min_util_single_branch() {
        let n = norm("minimize(path.util)");
        assert!(n.regexes.is_empty());
        assert_eq!(n.branches.len(), 1);
        assert_eq!(
            n.branches[0].rank,
            BranchRank::Finite(vec![MetricExpr::Attr(Attr::Util)])
        );
    }

    #[test]
    fn waypoint_two_branches() {
        let n = norm("minimize(if .* W .* then path.util else inf)");
        assert_eq!(n.regexes.len(), 1);
        assert_eq!(n.branches.len(), 2);
        let finite: Vec<_> = n
            .branches
            .iter()
            .filter(|b| matches!(b.rank, BranchRank::Finite(_)))
            .collect();
        assert_eq!(finite.len(), 1);
        assert_eq!(finite[0].reqs, vec![(0, true)]);
    }

    #[test]
    fn p9_guards() {
        let n = norm(
            "minimize(if path.util < .8 then (1, 0, path.util) \
             else (2, path.len, path.util))",
        );
        assert_eq!(n.branches.len(), 2);
        assert_eq!(n.branches[0].guards.len(), 1);
        assert_eq!(n.branches[1].guards.len(), 1);
        // Evaluation picks the right branch.
        let low = MetricVec::new(0.5, 0.0, 3.0);
        let high = MetricVec::new(0.9, 0.0, 3.0);
        assert_eq!(n.rank(&[], &low), Rank::tuple(vec![1.0, 0.0, 0.5]));
        assert_eq!(n.rank(&[], &high), Rank::tuple(vec![2.0, 3.0, 0.9]));
    }

    #[test]
    fn weighted_links_distributes_over_if() {
        let n = norm("minimize((if .* X Y .* then 10 else 0) + path.len)");
        assert_eq!(n.branches.len(), 2);
        let mv = MetricVec::new(0.0, 0.0, 2.0);
        assert_eq!(n.rank(&[true], &mv), Rank::scalar(12.0));
        assert_eq!(n.rank(&[false], &mv), Rank::scalar(2.0));
    }

    #[test]
    fn nested_if_chain() {
        let n = norm("minimize(if A B D then 0 else if A C D then 1 else inf)");
        assert_eq!(n.regexes.len(), 2);
        // (r0+), (r0- r1+), (r0- r1-) — contradictions pruned.
        assert_eq!(n.branches.len(), 3);
        assert_eq!(
            n.rank(&[true, false], &MetricVec::zero()),
            Rank::scalar(0.0)
        );
        assert_eq!(
            n.rank(&[false, true], &MetricVec::zero()),
            Rank::scalar(1.0)
        );
        assert_eq!(n.rank(&[false, false], &MetricVec::zero()), Rank::Inf);
        // Same regex in both positions is merged by interning.
        let n2 = norm("minimize(if A then 0 else if A then 1 else 2)");
        assert_eq!(n2.regexes.len(), 1);
        // The contradictory (A- then A+) branch is pruned.
        assert_eq!(n2.branches.len(), 2);
    }

    #[test]
    fn tuple_of_ifs_cross_product() {
        let n = norm("minimize((if A then 0 else 1, if B then 0 else 1))");
        assert_eq!(n.branches.len(), 4);
        assert_eq!(
            n.rank(&[true, false], &MetricVec::zero()),
            Rank::tuple(vec![0.0, 1.0])
        );
    }

    #[test]
    fn inf_component_collapses_tuple() {
        let n = norm("minimize((0, if A then inf else 1))");
        assert_eq!(n.rank(&[true], &MetricVec::zero()), Rank::Inf);
        assert_eq!(
            n.rank(&[false], &MetricVec::zero()),
            Rank::tuple(vec![0.0, 1.0])
        );
    }

    #[test]
    fn min_with_inf_keeps_other_side() {
        let n = norm("minimize(min(if A then inf else 1, path.len))");
        let mv = MetricVec::new(0.0, 0.0, 5.0);
        assert_eq!(n.rank(&[true], &mv), Rank::scalar(5.0));
        assert_eq!(n.rank(&[false], &mv), Rank::scalar(1.0));
    }

    #[test]
    fn type_errors() {
        let bad = parse_policy("minimize((path.util, path.len) + 1)").unwrap();
        assert!(matches!(normalize(&bad), Err(NormError::BinOnTuple { .. })));
        let bad = parse_policy("minimize(if inf <= 1 then 0 else 1)").unwrap();
        assert!(matches!(
            normalize(&bad),
            Err(NormError::InfInComparison { .. })
        ));
    }

    #[test]
    fn type_error_spans_point_at_source() {
        let src = "minimize(if inf <= 1 then 0 else 1)";
        let bad = parse_policy(src).unwrap();
        let Err(e) = normalize(&bad) else { panic!() };
        let span = e.span();
        assert_eq!(&src[span.start..span.end], "inf");
    }

    #[test]
    fn branch_spans_point_at_arms() {
        let src = "minimize(if .* W .* then path.util else inf)";
        let n = norm(src);
        for b in &n.branches {
            let text = &src[b.span.start..b.span.end];
            match b.rank {
                BranchRank::Finite(_) => assert_eq!(text, "path.util"),
                BranchRank::Inf => assert_eq!(text, "inf"),
            }
        }
    }

    #[test]
    fn basis_collection() {
        let n = norm("minimize(if path.util < .8 then path.lat else path.len)");
        let b = n.basis();
        assert!(b.contains(Attr::Util) && b.contains(Attr::Lat) && b.contains(Attr::Len));
        let n2 = norm("minimize(path.len)");
        assert_eq!(n2.basis().attrs().collect::<Vec<_>>(), [Attr::Len]);
    }

    #[test]
    fn boolean_connectives_expand() {
        let n = norm("minimize(if A or B then 0 else 1)");
        // Outcomes: A+B+, A+B-, A-B+ → true; A-B- → false; 4 branches.
        assert_eq!(n.branches.len(), 4);
        assert_eq!(
            n.rank(&[false, true], &MetricVec::zero()),
            Rank::scalar(0.0)
        );
        assert_eq!(
            n.rank(&[false, false], &MetricVec::zero()),
            Rank::scalar(1.0)
        );
    }

    #[test]
    fn constant_folding() {
        let n = norm("minimize(2 * 3 + 4)");
        assert_eq!(
            n.branches[0].rank,
            BranchRank::Finite(vec![MetricExpr::Const(10.0)])
        );
    }
}
