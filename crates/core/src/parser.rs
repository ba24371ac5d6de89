//! Recursive-descent parser for the policy language of Figure 2.
//!
//! The only interesting ambiguity is inside `if … then`: the test can be a
//! *regex* over switch names (`if A .* B then …`) or a *metric comparison*
//! (`if path.util < .8 then …`), and both can open with `(`. The parser
//! resolves this with bounded backtracking: it first attempts a comparison
//! (whose operands can never contain bare switch names) and falls back to a
//! regex. `>=`/`>` are normalized to `<=`/`<` by swapping operands, so the
//! AST only carries the two operators of the paper's grammar.
//!
//! Every AST node is stamped with the byte [`Span`] of the source text it
//! covers, flowing from the lexer's token spans: a production's span runs
//! from its first token to the last token it consumed.

use crate::ast::{
    BinOp, BoolExpr, BoolExprKind, CmpOp, Expr, ExprKind, PathRegex, PathRegexKind, Policy,
};
use crate::diag::Span;
use crate::lexer::{lex, SyntaxError, Tok, Token};

/// Parses a complete policy: `minimize(expr)`.
pub fn parse_policy(src: &str) -> Result<Policy, SyntaxError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    p.expect(&Tok::Minimize)?;
    p.expect(&Tok::LParen)?;
    let expr = p.expr()?;
    p.expect(&Tok::RParen)?;
    p.expect(&Tok::Eof)?;
    Ok(Policy { expr })
}

/// Maximum nesting depth of the recursive-descent productions. Policies
/// are written by humans and rarely nest past a dozen levels; the limit
/// turns adversarially deep inputs (`((((…))))`, `not not not …`) into a
/// spanned syntax error instead of a stack overflow, which `catch_unwind`
/// cannot contain.
const MAX_DEPTH: usize = 200;

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    depth: usize,
}

impl Parser {
    /// Runs a recursive production under the [`MAX_DEPTH`] guard. Every
    /// cycle in the grammar's call graph passes through `expr`,
    /// `not_expr` or `regex`, so wrapping those three bounds all
    /// recursion.
    fn with_depth<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, SyntaxError>,
    ) -> Result<T, SyntaxError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err(format!("policy nesting exceeds {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let r = f(self);
        self.depth -= 1;
        r
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos].kind
    }

    /// Span of the token about to be consumed.
    fn span(&self) -> Span {
        self.toks[self.pos].span
    }

    /// End offset of the most recently consumed token.
    fn prev_end(&self) -> usize {
        self.toks[self.pos.saturating_sub(1)].span.end
    }

    /// Span from `lo` through the last consumed token.
    fn span_from(&self, lo: usize) -> Span {
        Span::new(lo, self.prev_end())
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].kind.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok) -> Result<(), SyntaxError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(format!("expected {t}, found {}", self.peek())))
        }
    }

    fn err(&self, message: String) -> SyntaxError {
        SyntaxError {
            message,
            span: self.span(),
        }
    }

    // ---- rank expressions ------------------------------------------------

    fn expr(&mut self) -> Result<Expr, SyntaxError> {
        self.with_depth(Self::expr_inner)
    }

    fn expr_inner(&mut self) -> Result<Expr, SyntaxError> {
        let lo = self.span().start;
        if self.eat(&Tok::If) {
            let cond = self.bool_expr()?;
            self.expect(&Tok::Then)?;
            let then = self.expr_no_if()?;
            self.expect(&Tok::Else)?;
            let els = self.expr()?;
            return Ok(Expr::new(
                ExprKind::If(Box::new(cond), Box::new(then), Box::new(els)),
                self.span_from(lo),
            ));
        }
        self.add_expr()
    }

    /// The `then` arm binds tighter than a trailing `else`, but may itself
    /// start a nested `if`.
    fn expr_no_if(&mut self) -> Result<Expr, SyntaxError> {
        if self.peek() == &Tok::If {
            return self.expr();
        }
        self.add_expr()
    }

    fn add_expr(&mut self) -> Result<Expr, SyntaxError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = if self.eat(&Tok::Plus) {
                BinOp::Add
            } else if self.eat(&Tok::Minus) {
                BinOp::Sub
            } else {
                return Ok(lhs);
            };
            let rhs = self.mul_expr()?;
            let span = lhs.span.to(rhs.span);
            lhs = Expr::new(ExprKind::Bin(op, Box::new(lhs), Box::new(rhs)), span);
        }
    }

    fn mul_expr(&mut self) -> Result<Expr, SyntaxError> {
        let mut lhs = self.atom_expr()?;
        while self.eat(&Tok::Star) {
            let rhs = self.atom_expr()?;
            let span = lhs.span.to(rhs.span);
            lhs = Expr::new(
                ExprKind::Bin(BinOp::Mul, Box::new(lhs), Box::new(rhs)),
                span,
            );
        }
        Ok(lhs)
    }

    fn atom_expr(&mut self) -> Result<Expr, SyntaxError> {
        let lo = self.span().start;
        match self.peek().clone() {
            Tok::Number(n) => {
                let span = self.span();
                self.bump();
                Ok(Expr::new(ExprKind::Const(n), span))
            }
            Tok::Inf => {
                let span = self.span();
                self.bump();
                Ok(Expr::new(ExprKind::Inf, span))
            }
            Tok::Attr(a) => {
                let span = self.span();
                self.bump();
                Ok(Expr::new(ExprKind::Attr(a), span))
            }
            Tok::Min | Tok::Max => {
                let op = if self.bump() == Tok::Min {
                    BinOp::Min
                } else {
                    BinOp::Max
                };
                self.expect(&Tok::LParen)?;
                let a = self.expr()?;
                self.expect(&Tok::Comma)?;
                let b = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(Expr::new(
                    ExprKind::Bin(op, Box::new(a), Box::new(b)),
                    self.span_from(lo),
                ))
            }
            Tok::If => self.expr(),
            Tok::LParen => {
                self.bump();
                let first = self.expr()?;
                if self.eat(&Tok::RParen) {
                    return Ok(first); // grouping
                }
                let mut parts = vec![first];
                while self.eat(&Tok::Comma) {
                    parts.push(self.expr()?);
                }
                self.expect(&Tok::RParen)?;
                Ok(Expr::new(ExprKind::Tuple(parts), self.span_from(lo)))
            }
            other => Err(self.err(format!("expected a rank expression, found {other}"))),
        }
    }

    // ---- boolean tests ---------------------------------------------------

    fn bool_expr(&mut self) -> Result<BoolExpr, SyntaxError> {
        let mut lhs = self.and_expr()?;
        while self.eat(&Tok::Or) {
            let rhs = self.and_expr()?;
            let span = lhs.span.to(rhs.span);
            lhs = BoolExpr::new(BoolExprKind::Or(Box::new(lhs), Box::new(rhs)), span);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<BoolExpr, SyntaxError> {
        let mut lhs = self.not_expr()?;
        while self.eat(&Tok::And) {
            let rhs = self.not_expr()?;
            let span = lhs.span.to(rhs.span);
            lhs = BoolExpr::new(BoolExprKind::And(Box::new(lhs), Box::new(rhs)), span);
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<BoolExpr, SyntaxError> {
        self.with_depth(Self::not_expr_inner)
    }

    fn not_expr_inner(&mut self) -> Result<BoolExpr, SyntaxError> {
        let lo = self.span().start;
        if self.eat(&Tok::Not) {
            let inner = self.not_expr()?;
            return Ok(BoolExpr::new(
                BoolExprKind::Not(Box::new(inner)),
                self.span_from(lo),
            ));
        }
        self.bool_atom()
    }

    /// Comparison, regex, or parenthesized boolean — disambiguated by
    /// backtracking in that order.
    fn bool_atom(&mut self) -> Result<BoolExpr, SyntaxError> {
        // Attempt 1: metric comparison `e1 (<=|<|>=|>) e2`.
        let save = self.pos;
        if let Ok(lhs) = self.add_expr() {
            let cmp = match self.peek() {
                Tok::Le => Some((CmpOp::Le, false)),
                Tok::Lt => Some((CmpOp::Lt, false)),
                Tok::Ge => Some((CmpOp::Le, true)),
                Tok::Gt => Some((CmpOp::Lt, true)),
                _ => None,
            };
            if let Some((op, swap)) = cmp {
                self.bump();
                let rhs = self.add_expr()?;
                let span = lhs.span.to(rhs.span);
                return Ok(if swap {
                    BoolExpr::new(BoolExprKind::Cmp(op, rhs, lhs), span)
                } else {
                    BoolExpr::new(BoolExprKind::Cmp(op, lhs, rhs), span)
                });
            }
        }
        // Attempt 2: a path regex, retried from the same saved position.
        self.pos = save;
        match self.regex() {
            Ok(r) => {
                let span = r.span;
                Ok(BoolExpr::new(BoolExprKind::Regex(r), span))
            }
            Err(regex_err) => {
                self.pos = save;
                // Attempt 3: parenthesized boolean.
                if self.peek() == &Tok::LParen {
                    let save = self.pos;
                    self.bump();
                    if let Ok(inner) = self.bool_expr() {
                        if self.eat(&Tok::RParen) {
                            return Ok(inner);
                        }
                    }
                    self.pos = save;
                }
                Err(regex_err)
            }
        }
    }

    // ---- path regexes ----------------------------------------------------

    fn regex(&mut self) -> Result<PathRegex, SyntaxError> {
        self.with_depth(Self::regex_inner)
    }

    fn regex_inner(&mut self) -> Result<PathRegex, SyntaxError> {
        let mut lhs = self.regex_cat()?;
        while self.eat(&Tok::Plus) {
            let rhs = self.regex_cat()?;
            let span = lhs.span.to(rhs.span);
            lhs = PathRegex::new(PathRegexKind::Alt(Box::new(lhs), Box::new(rhs)), span);
        }
        Ok(lhs)
    }

    fn regex_cat(&mut self) -> Result<PathRegex, SyntaxError> {
        let mut parts = vec![self.regex_postfix()?];
        while matches!(self.peek(), Tok::Ident(_) | Tok::Dot | Tok::LParen) {
            parts.push(self.regex_postfix()?);
        }
        let mut it = parts.into_iter().rev();
        let mut acc = it.next().unwrap();
        for p in it {
            let span = p.span.to(acc.span);
            acc = PathRegex::new(PathRegexKind::Concat(Box::new(p), Box::new(acc)), span);
        }
        Ok(acc)
    }

    fn regex_postfix(&mut self) -> Result<PathRegex, SyntaxError> {
        let mut r = self.regex_atom()?;
        while self.peek() == &Tok::Star {
            let star = self.span();
            self.bump();
            let span = r.span.to(star);
            r = PathRegex::new(PathRegexKind::Star(Box::new(r)), span);
        }
        Ok(r)
    }

    fn regex_atom(&mut self) -> Result<PathRegex, SyntaxError> {
        let lo = self.span().start;
        match self.peek().clone() {
            Tok::Ident(name) => {
                let span = self.span();
                self.bump();
                Ok(PathRegex::new(PathRegexKind::Node(name), span))
            }
            Tok::Dot => {
                let span = self.span();
                self.bump();
                Ok(PathRegex::new(PathRegexKind::Any, span))
            }
            Tok::LParen => {
                self.bump();
                let inner = self.regex()?;
                self.expect(&Tok::RParen)?;
                // Keep the inner span; widening to the parens is harmless
                // but the tighter span points more precisely.
                let _ = lo;
                Ok(inner)
            }
            other => Err(self.err(format!("expected a path regex, found {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Attr;

    fn p(src: &str) -> Policy {
        parse_policy(src).unwrap_or_else(|e| panic!("parse {src:?}: {e}"))
    }

    #[test]
    fn p1_shortest_path() {
        assert_eq!(p("minimize(path.len)").expr, Expr::attr(Attr::Len));
    }

    #[test]
    fn p3_widest_shortest() {
        assert_eq!(
            p("minimize((path.util, path.len))").expr,
            Expr::tuple(vec![Expr::attr(Attr::Util), Expr::attr(Attr::Len)])
        );
    }

    #[test]
    fn p5_waypointing() {
        let pol = p("minimize(if .*(F1+F2).* then path.util else inf)");
        let ExprKind::If(cond, t, e) = pol.expr.kind else {
            panic!("expected if")
        };
        assert!(matches!(t.kind, ExprKind::Attr(Attr::Util)));
        assert!(matches!(e.kind, ExprKind::Inf));
        let BoolExprKind::Regex(r) = cond.kind else {
            panic!("expected regex cond")
        };
        assert_eq!(r.to_string(), ".* (F1 + F2) .*");
    }

    #[test]
    fn p9_congestion_aware() {
        let pol = p("minimize(if path.util < .8 then (1, 0, path.util) \
             else (2, path.len, path.util))");
        let ExprKind::If(cond, ..) = pol.expr.kind else {
            panic!("expected if")
        };
        assert_eq!(
            *cond,
            BoolExpr::cmp(CmpOp::Lt, Expr::attr(Attr::Util), Expr::constant(0.8))
        );
    }

    #[test]
    fn weighted_links_p7() {
        let pol = p("minimize((if .*X Y.* then 10 else 0) + path.len)");
        assert!(matches!(pol.expr.kind, ExprKind::Bin(BinOp::Add, ..)));
    }

    #[test]
    fn failover_chain() {
        let pol = p("minimize(if A B D then 0 else if A C D then 1 else inf)");
        let ExprKind::If(_, _, els) = pol.expr.kind else {
            panic!()
        };
        assert!(matches!(els.kind, ExprKind::If(..)));
    }

    #[test]
    fn ge_gt_normalized_by_swapping() {
        let a = p("minimize(if path.util >= .5 then 0 else 1)");
        let b = p("minimize(if .5 <= path.util then 0 else 1)");
        assert_eq!(a, b);
        let c = p("minimize(if path.len > 3 then 0 else 1)");
        let ExprKind::If(cond, ..) = c.expr.kind else {
            panic!()
        };
        assert_eq!(
            *cond,
            BoolExpr::cmp(CmpOp::Lt, Expr::constant(3.0), Expr::attr(Attr::Len))
        );
    }

    #[test]
    fn boolean_connectives() {
        let pol = p("minimize(if path.util < .5 and not (A .*) then 0 else 1)");
        let ExprKind::If(cond, ..) = pol.expr.kind else {
            panic!()
        };
        assert!(matches!(cond.kind, BoolExprKind::And(..)));
    }

    #[test]
    fn min_max_functions() {
        let pol = p("minimize(max(path.util, path.lat))");
        assert!(matches!(pol.expr.kind, ExprKind::Bin(BinOp::Max, ..)));
    }

    #[test]
    fn display_parse_round_trip() {
        for src in [
            "minimize(path.util)",
            "minimize((path.util, path.len))",
            "minimize(if .* W .* then 0 else inf)",
            "minimize(if A B D then 0 else if A C D then 1 else inf)",
            "minimize(if path.util < 0.8 then (1, 0, path.util) else (2, path.len, path.util))",
            "minimize((if .* X Y .* then 10 else 0) + path.len)",
            "minimize(if A .* then path.util else path.lat)",
        ] {
            let ast = p(src);
            let printed = ast.to_string();
            let reparsed = p(&printed);
            assert_eq!(ast, reparsed, "round-trip failed for {src:?} → {printed:?}");
        }
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_policy("path.util").is_err()); // missing minimize
        assert!(parse_policy("minimize(path.util").is_err()); // unbalanced
        assert!(parse_policy("minimize(if A then 0)").is_err()); // missing else
        assert!(parse_policy("minimize()").is_err());
        assert!(parse_policy("minimize(1 +)").is_err());
    }

    #[test]
    fn star_is_mul_in_expr_context() {
        let pol = p("minimize(2 * path.len)");
        assert!(matches!(pol.expr.kind, ExprKind::Bin(BinOp::Mul, ..)));
    }

    #[test]
    fn spans_point_into_source() {
        let src = "minimize(if A B then path.util else inf)";
        let pol = p(src);
        // The whole `if` covers from `if` to `inf`.
        assert_eq!(
            &src[pol.expr.span.start..pol.expr.span.end],
            "if A B then path.util else inf"
        );
        let ExprKind::If(cond, t, e) = &pol.expr.kind else {
            panic!()
        };
        assert_eq!(&src[cond.span.start..cond.span.end], "A B");
        assert_eq!(&src[t.span.start..t.span.end], "path.util");
        assert_eq!(&src[e.span.start..e.span.end], "inf");
    }

    #[test]
    fn adversarial_nesting_is_rejected_not_overflowed() {
        // Deep parens in expression position.
        let deep = format!("minimize({}path.len{})", "(".repeat(5000), ")".repeat(5000));
        let err = parse_policy(&deep).unwrap_err();
        assert!(err.message.contains("nesting"), "{}", err.message);
        assert!(err.span.end <= deep.len());
        // Deep `not` chains in boolean position.
        let nots = format!("minimize(if {} A then 0 else 1)", "not ".repeat(5000));
        assert!(parse_policy(&nots).is_err());
        // Deep parens in regex position.
        let rx = format!(
            "minimize(if {}A{} then 0 else 1)",
            "(".repeat(5000),
            ")".repeat(5000)
        );
        assert!(parse_policy(&rx).is_err());
        // Reasonable nesting is untouched.
        let ok = format!("minimize({}path.len{})", "(".repeat(50), ")".repeat(50));
        assert!(parse_policy(&ok).is_ok());
    }

    #[test]
    fn error_spans_locate_the_bad_token() {
        let err = parse_policy("minimize(1 +)").unwrap_err();
        assert_eq!(err.span.start, 12); // the `)`
        let err = parse_policy("minimize(path.util").unwrap_err();
        assert_eq!(err.span.start, 18); // Eof
    }
}
