//! Abstract syntax of the Contra policy language (Figure 2 of the paper).
//!
//! ```text
//! pol ::= minimize(e)
//! e   ::= n | ∞ | path.attr | e1 ◦ e2 | if b then e1 else e2 | (e1, …, en)
//! b   ::= r | e1 ≤ e2 | not b | b1 or b2 | b1 and b2
//! r   ::= node-id | . | r1 + r2 | r1 r2 | r*
//! ```
//!
//! Path regexes refer to switches *by name*; the compiler resolves names
//! against a concrete topology (policies are "analyzed jointly with the
//! topology", §4.1). The paper's examples also use `<`, which we accept
//! alongside `≤`/`<=`.
//!
//! Every expression node carries the byte [`Span`] of the source text it
//! was parsed from, so normalization errors and verifier diagnostics can
//! point back at the offending policy fragment. Spans are *ignored* by
//! equality: two policies that print the same compare equal regardless of
//! where their nodes sat in the source.

use crate::diag::Span;
use std::fmt;

/// A complete policy: `minimize(expr)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Policy {
    /// The expression whose value is minimized over candidate paths.
    pub expr: Expr,
}

/// Dynamic path attributes a policy can read (Fig 2 `path.attr`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Attr {
    /// Bottleneck utilization: the maximum link utilization along the path.
    Util,
    /// End-to-end latency: the sum of link latencies.
    Lat,
    /// Path length in hops.
    Len,
}

impl Attr {
    /// All attributes, in canonical order.
    pub const ALL: [Attr; 3] = [Attr::Util, Attr::Lat, Attr::Len];

    /// Canonical index used by metric vectors.
    pub fn index(self) -> usize {
        match self {
            Attr::Util => 0,
            Attr::Lat => 1,
            Attr::Len => 2,
        }
    }
}

impl fmt::Display for Attr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Attr::Util => write!(f, "path.util"),
            Attr::Lat => write!(f, "path.lat"),
            Attr::Len => write!(f, "path.len"),
        }
    }
}

/// Binary operators on rank expressions (`e1 ◦ e2`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition — e.g. weighted links: `(if .*XY.* then 10 else 0) + path.len`.
    Add,
    /// Subtraction. Accepted by the grammar; the monotonicity analysis
    /// rejects policies whose rank can *decrease* along a path.
    Sub,
    /// Multiplication (e.g. scaling a metric by a constant weight).
    Mul,
    /// Pointwise minimum.
    Min,
    /// Pointwise maximum.
    Max,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinOp::Add => write!(f, "+"),
            BinOp::Sub => write!(f, "-"),
            BinOp::Mul => write!(f, "*"),
            BinOp::Min => write!(f, "min"),
            BinOp::Max => write!(f, "max"),
        }
    }
}

/// Comparison operators in boolean tests. `≥`/`>` are normalized away by
/// the parser (operands swapped), so only these two remain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `e1 <= e2`
    Le,
    /// `e1 < e2`
    Lt,
}

impl CmpOp {
    /// Evaluates the comparison on two numbers.
    pub fn eval(self, a: f64, b: f64) -> bool {
        match self {
            CmpOp::Le => a <= b,
            CmpOp::Lt => a < b,
        }
    }

    /// The negation: `¬(a ≤ b)` is `b < a`, `¬(a < b)` is `b ≤ a`.
    /// Returns the flipped operator; the caller must also swap operands.
    pub fn negate_swapped(self) -> CmpOp {
        match self {
            CmpOp::Le => CmpOp::Lt,
            CmpOp::Lt => CmpOp::Le,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CmpOp::Le => write!(f, "<="),
            CmpOp::Lt => write!(f, "<"),
        }
    }
}

/// A rank expression with its source span.
#[derive(Debug, Clone)]
pub struct Expr {
    /// The expression itself.
    pub kind: ExprKind,
    /// Source bytes this node was parsed from ([`Span::DUMMY`] for
    /// programmatically-built nodes).
    pub span: Span,
}

/// Rank expression shapes (Fig 2 `e`).
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Constant numeric rank.
    Const(f64),
    /// Infinite rank (`inf` / `∞`): the path is forbidden.
    Inf,
    /// A dynamic path attribute.
    Attr(Attr),
    /// Binary operation on two scalar rank expressions.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Conditional: rank depends on a test over the path.
    If(Box<BoolExpr>, Box<Expr>, Box<Expr>),
    /// Lexicographic tuple: compare by the first component, tie-break by
    /// the second, and so on.
    Tuple(Vec<Expr>),
}

impl PartialEq for Expr {
    /// Structural equality; spans are ignored.
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind
    }
}

impl Expr {
    /// An expression at a known source location.
    pub fn new(kind: ExprKind, span: Span) -> Expr {
        Expr { kind, span }
    }

    /// A programmatically-built expression (dummy span).
    pub fn synthetic(kind: ExprKind) -> Expr {
        Expr::new(kind, Span::DUMMY)
    }

    /// Constant (dummy span).
    pub fn constant(c: f64) -> Expr {
        Expr::synthetic(ExprKind::Const(c))
    }

    /// `inf` (dummy span).
    pub fn inf() -> Expr {
        Expr::synthetic(ExprKind::Inf)
    }

    /// Attribute read (dummy span).
    pub fn attr(a: Attr) -> Expr {
        Expr::synthetic(ExprKind::Attr(a))
    }

    /// Binary operation (dummy span).
    pub fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::synthetic(ExprKind::Bin(op, Box::new(a), Box::new(b)))
    }

    /// Conditional (dummy span).
    pub fn if_(cond: BoolExpr, then: Expr, els: Expr) -> Expr {
        Expr::synthetic(ExprKind::If(Box::new(cond), Box::new(then), Box::new(els)))
    }

    /// Tuple (dummy span).
    pub fn tuple(parts: Vec<Expr>) -> Expr {
        Expr::synthetic(ExprKind::Tuple(parts))
    }
}

/// A boolean test with its source span.
#[derive(Debug, Clone)]
pub struct BoolExpr {
    /// The test itself.
    pub kind: BoolExprKind,
    /// Source bytes this node was parsed from.
    pub span: Span,
}

/// Boolean test shapes (Fig 2 `b`).
#[derive(Debug, Clone, PartialEq)]
pub enum BoolExprKind {
    /// The path matches a regular expression.
    Regex(PathRegex),
    /// Comparison between two scalar rank expressions.
    Cmp(CmpOp, Expr, Expr),
    /// Negation.
    Not(Box<BoolExpr>),
    /// Disjunction.
    Or(Box<BoolExpr>, Box<BoolExpr>),
    /// Conjunction.
    And(Box<BoolExpr>, Box<BoolExpr>),
}

impl PartialEq for BoolExpr {
    /// Structural equality; spans are ignored.
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind
    }
}

impl BoolExpr {
    /// A test at a known source location.
    pub fn new(kind: BoolExprKind, span: Span) -> BoolExpr {
        BoolExpr { kind, span }
    }

    /// A programmatically-built test (dummy span).
    pub fn synthetic(kind: BoolExprKind) -> BoolExpr {
        BoolExpr::new(kind, Span::DUMMY)
    }

    /// Regex test (dummy span).
    pub fn regex(r: PathRegex) -> BoolExpr {
        BoolExpr::synthetic(BoolExprKind::Regex(r))
    }

    /// Comparison (dummy span).
    pub fn cmp(op: CmpOp, a: Expr, b: Expr) -> BoolExpr {
        BoolExpr::synthetic(BoolExprKind::Cmp(op, a, b))
    }

    /// Negation (dummy span).
    #[allow(clippy::should_implement_trait)]
    pub fn not(b: BoolExpr) -> BoolExpr {
        BoolExpr::synthetic(BoolExprKind::Not(Box::new(b)))
    }

    /// Disjunction (dummy span).
    pub fn or(a: BoolExpr, b: BoolExpr) -> BoolExpr {
        BoolExpr::synthetic(BoolExprKind::Or(Box::new(a), Box::new(b)))
    }

    /// Conjunction (dummy span).
    pub fn and(a: BoolExpr, b: BoolExpr) -> BoolExpr {
        BoolExpr::synthetic(BoolExprKind::And(Box::new(a), Box::new(b)))
    }
}

/// A path regex with its source span. Structurally identical to
/// [`contra_automata::Regex`], but symbols are unresolved strings until the
/// compiler binds them to a topology.
#[derive(Debug, Clone)]
pub struct PathRegex {
    /// The regex itself.
    pub kind: PathRegexKind,
    /// Source bytes this node was parsed from.
    pub span: Span,
}

/// Regular expressions over switch *names* (Fig 2 `r`).
#[derive(Debug, Clone, PartialEq)]
pub enum PathRegexKind {
    /// A named switch.
    Node(String),
    /// `.` — any one switch.
    Any,
    /// Concatenation.
    Concat(Box<PathRegex>, Box<PathRegex>),
    /// Union (`+`).
    Alt(Box<PathRegex>, Box<PathRegex>),
    /// Kleene star.
    Star(Box<PathRegex>),
}

impl PartialEq for PathRegex {
    /// Structural equality; spans are ignored — this is what regex
    /// interning in the normalizer compares.
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind
    }
}

impl PathRegex {
    /// A regex at a known source location.
    pub fn new(kind: PathRegexKind, span: Span) -> PathRegex {
        PathRegex { kind, span }
    }

    /// A programmatically-built regex (dummy span).
    pub fn synthetic(kind: PathRegexKind) -> PathRegex {
        PathRegex::new(kind, Span::DUMMY)
    }

    /// Named switch (dummy span).
    pub fn node(name: impl Into<String>) -> PathRegex {
        PathRegex::synthetic(PathRegexKind::Node(name.into()))
    }

    /// Wildcard `.` (dummy span).
    pub fn any() -> PathRegex {
        PathRegex::synthetic(PathRegexKind::Any)
    }

    /// Concatenation (dummy span).
    pub fn concat(a: PathRegex, b: PathRegex) -> PathRegex {
        PathRegex::synthetic(PathRegexKind::Concat(Box::new(a), Box::new(b)))
    }

    /// Union (dummy span).
    pub fn alt(a: PathRegex, b: PathRegex) -> PathRegex {
        PathRegex::synthetic(PathRegexKind::Alt(Box::new(a), Box::new(b)))
    }

    /// Kleene star (dummy span).
    pub fn star(r: PathRegex) -> PathRegex {
        PathRegex::synthetic(PathRegexKind::Star(Box::new(r)))
    }
}

impl fmt::Display for PathRegex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn prec(r: &PathRegex) -> u8 {
            match &r.kind {
                PathRegexKind::Alt(..) => 0,
                PathRegexKind::Concat(..) => 1,
                _ => 2,
            }
        }
        fn go(r: &PathRegex, f: &mut fmt::Formatter<'_>, min: u8) -> fmt::Result {
            let p = prec(r);
            if p < min {
                write!(f, "(")?;
            }
            match &r.kind {
                PathRegexKind::Node(n) => write!(f, "{n}")?,
                PathRegexKind::Any => write!(f, ".")?,
                PathRegexKind::Concat(a, b) => {
                    // The parser right-associates concatenation, so keep a
                    // right-nested chain flat and parenthesize the left.
                    go(a, f, 2)?;
                    write!(f, " ")?;
                    go(b, f, 1)?;
                }
                PathRegexKind::Alt(a, b) => {
                    go(a, f, 0)?;
                    write!(f, " + ")?;
                    go(b, f, 1)?;
                }
                PathRegexKind::Star(r) => {
                    go(r, f, 2)?;
                    write!(f, "*")?;
                }
            }
            if p < min {
                write!(f, ")")?;
            }
            Ok(())
        }
        go(self, f, 0)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn prec(e: &Expr) -> u8 {
            match &e.kind {
                ExprKind::If(..) => 0,
                ExprKind::Bin(BinOp::Add | BinOp::Sub, ..) => 1,
                ExprKind::Bin(BinOp::Mul, ..) => 2,
                _ => 3,
            }
        }
        fn go(e: &Expr, f: &mut fmt::Formatter<'_>, min: u8) -> fmt::Result {
            let p = prec(e);
            if p < min {
                write!(f, "(")?;
            }
            match &e.kind {
                ExprKind::Const(c) => write!(f, "{c}")?,
                ExprKind::Inf => write!(f, "inf")?,
                ExprKind::Attr(a) => write!(f, "{a}")?,
                ExprKind::Bin(BinOp::Min, a, b) => write!(f, "min({a}, {b})")?,
                ExprKind::Bin(BinOp::Max, a, b) => write!(f, "max({a}, {b})")?,
                ExprKind::Bin(op, a, b) => {
                    let lv = prec(e);
                    go(a, f, lv)?;
                    write!(f, " {op} ")?;
                    go(b, f, lv + 1)?;
                }
                ExprKind::If(b, t, e2) => {
                    write!(f, "if {b} then ")?;
                    go(t, f, 1)?;
                    write!(f, " else ")?;
                    go(e2, f, 0)?;
                }
                ExprKind::Tuple(es) => {
                    write!(f, "(")?;
                    for (i, e) in es.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        go(e, f, 0)?;
                    }
                    write!(f, ")")?;
                }
            }
            if p < min {
                write!(f, ")")?;
            }
            Ok(())
        }
        go(self, f, 0)
    }
}

impl fmt::Display for BoolExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            BoolExprKind::Regex(r) => write!(f, "{r}"),
            BoolExprKind::Cmp(op, a, b) => write!(f, "{a} {op} {b}"),
            BoolExprKind::Not(b) => write!(f, "not ({b})"),
            BoolExprKind::Or(a, b) => write!(f, "({a}) or ({b})"),
            BoolExprKind::And(a, b) => write!(f, "({a}) and ({b})"),
        }
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "minimize({})", self.expr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attr_indices_are_canonical() {
        for (i, a) in Attr::ALL.iter().enumerate() {
            assert_eq!(a.index(), i);
        }
    }

    #[test]
    fn cmp_negation() {
        // ¬(a <= b) ⇔ b < a
        assert_eq!(CmpOp::Le.negate_swapped(), CmpOp::Lt);
        assert_eq!(CmpOp::Lt.negate_swapped(), CmpOp::Le);
        assert!(CmpOp::Le.eval(1.0, 1.0));
        assert!(!CmpOp::Lt.eval(1.0, 1.0));
    }

    #[test]
    fn display_policy() {
        let p = Policy {
            expr: Expr::if_(
                BoolExpr::regex(PathRegex::concat(
                    PathRegex::node("A"),
                    PathRegex::star(PathRegex::any()),
                )),
                Expr::attr(Attr::Util),
                Expr::attr(Attr::Lat),
            ),
        };
        assert_eq!(
            p.to_string(),
            "minimize(if A .* then path.util else path.lat)"
        );
    }

    #[test]
    fn regex_prints_in_policy_syntax() {
        let r = PathRegex::alt(
            PathRegex::node("B"),
            PathRegex::concat(PathRegex::node("A"), PathRegex::node("B")),
        );
        assert_eq!(r.to_string(), "B + A B");
    }

    #[test]
    fn equality_ignores_spans() {
        let a = Expr::new(ExprKind::Const(1.0), Span::new(0, 1));
        let b = Expr::new(ExprKind::Const(1.0), Span::new(5, 6));
        assert_eq!(a, b);
        let ra = PathRegex::new(PathRegexKind::Any, Span::new(3, 4));
        assert_eq!(ra, PathRegex::any());
    }
}
