//! Regular expressions over switch identifiers.
//!
//! The grammar mirrors Figure 2 of the paper:
//!
//! ```text
//! r ::= node-id | . | r1 + r2 | r1 r2 | r*
//! ```
//!
//! plus the two bottom elements `Empty` (matches nothing) and `Epsilon`
//! (matches the empty path), which arise during construction and reversal.
//!
//! Besides construction, this module provides:
//!
//! * smart constructors that normalize away trivial sub-terms so that
//!   structurally different but obviously-equal policies compare equal,
//! * [`Regex::reverse`] — probes flow from destination to sources, so the
//!   compiler matches the *reverse* of each policy regex (§4.1),
//! * Brzozowski-derivative matching ([`Regex::matches`]) which serves as the
//!   semantic oracle for the NFA/DFA pipeline in tests.

use crate::Sym;

/// A regular expression over path symbols (switch IDs).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Regex {
    /// Matches no path at all (the empty language).
    Empty,
    /// Matches the empty path.
    Epsilon,
    /// Matches the one-hop path consisting of exactly this switch.
    Sym(Sym),
    /// `.` — matches any single switch.
    Any,
    /// `r1 r2` — concatenation.
    Concat(Box<Regex>, Box<Regex>),
    /// `r1 + r2` — alternation.
    Alt(Box<Regex>, Box<Regex>),
    /// `r*` — Kleene star.
    Star(Box<Regex>),
}

impl Regex {
    /// A single-symbol expression.
    pub fn sym(s: Sym) -> Regex {
        Regex::Sym(s)
    }

    /// `.` — any single switch.
    pub fn any() -> Regex {
        Regex::Any
    }

    /// `.*` — any path, including the empty one.
    pub fn any_star() -> Regex {
        Regex::Star(Box::new(Regex::Any))
    }

    /// Concatenation with unit/zero normalization.
    pub fn concat(a: Regex, b: Regex) -> Regex {
        match (a, b) {
            (Regex::Empty, _) | (_, Regex::Empty) => Regex::Empty,
            (Regex::Epsilon, r) | (r, Regex::Epsilon) => r,
            (a, b) => Regex::Concat(Box::new(a), Box::new(b)),
        }
    }

    /// Alternation with unit normalization and idempotence.
    pub fn alt(a: Regex, b: Regex) -> Regex {
        match (a, b) {
            (Regex::Empty, r) | (r, Regex::Empty) => r,
            (a, b) if a == b => a,
            (a, b) => Regex::Alt(Box::new(a), Box::new(b)),
        }
    }

    /// Kleene star with `∅* = ε* = ε` and `(r*)* = r*` normalization.
    pub fn star(r: Regex) -> Regex {
        match r {
            Regex::Empty | Regex::Epsilon => Regex::Epsilon,
            s @ Regex::Star(_) => s,
            r => Regex::Star(Box::new(r)),
        }
    }

    /// The concatenation of a fixed sequence of switches, e.g. `A B D`.
    ///
    /// An empty sequence yields [`Regex::Epsilon`].
    pub fn seq(syms: &[Sym]) -> Regex {
        syms.iter()
            .rev()
            .fold(Regex::Epsilon, |acc, &s| Regex::concat(Regex::Sym(s), acc))
    }

    /// `r1 r2 … rn` for arbitrary sub-expressions.
    pub fn cat_all<I: IntoIterator<Item = Regex>>(parts: I) -> Regex {
        let mut parts: Vec<Regex> = parts.into_iter().collect();
        let mut acc = match parts.pop() {
            None => Regex::Epsilon,
            Some(last) => last,
        };
        while let Some(r) = parts.pop() {
            acc = Regex::concat(r, acc);
        }
        acc
    }

    /// Reverses the language: `L(rev(r)) = { reverse(w) | w ∈ L(r) }`.
    ///
    /// Used by the compiler because probes traverse paths in the opposite
    /// direction to data traffic (§4.1 of the paper).
    pub fn reverse(&self) -> Regex {
        match self {
            Regex::Empty => Regex::Empty,
            Regex::Epsilon => Regex::Epsilon,
            Regex::Sym(s) => Regex::Sym(*s),
            Regex::Any => Regex::Any,
            Regex::Concat(a, b) => Regex::concat(b.reverse(), a.reverse()),
            Regex::Alt(a, b) => Regex::alt(a.reverse(), b.reverse()),
            Regex::Star(r) => Regex::star(r.reverse()),
        }
    }

    /// Whether the expression accepts the empty path.
    pub fn nullable(&self) -> bool {
        match self {
            Regex::Empty | Regex::Sym(_) | Regex::Any => false,
            Regex::Epsilon | Regex::Star(_) => true,
            Regex::Concat(a, b) => a.nullable() && b.nullable(),
            Regex::Alt(a, b) => a.nullable() || b.nullable(),
        }
    }

    /// Brzozowski derivative with respect to one symbol.
    ///
    /// `L(d_s(r)) = { w | s·w ∈ L(r) }`. Together with [`Regex::nullable`]
    /// this gives a direct, obviously-correct matcher used as the oracle for
    /// the NFA/DFA implementations.
    pub fn derivative(&self, s: Sym) -> Regex {
        match self {
            Regex::Empty | Regex::Epsilon => Regex::Empty,
            Regex::Sym(t) => {
                if *t == s {
                    Regex::Epsilon
                } else {
                    Regex::Empty
                }
            }
            Regex::Any => Regex::Epsilon,
            Regex::Concat(a, b) => {
                let left = Regex::concat(a.derivative(s), (**b).clone());
                if a.nullable() {
                    Regex::alt(left, b.derivative(s))
                } else {
                    left
                }
            }
            Regex::Alt(a, b) => Regex::alt(a.derivative(s), b.derivative(s)),
            Regex::Star(r) => Regex::concat(r.derivative(s), Regex::star((**r).clone())),
        }
    }

    /// Whether the expression matches the given path, via repeated
    /// derivatives. Exponential-free but allocates; intended for tests and
    /// small compile-time checks, not the data path.
    pub fn matches(&self, word: &[Sym]) -> bool {
        let mut r = self.clone();
        for &s in word {
            r = r.derivative(s);
            if r == Regex::Empty {
                return false;
            }
        }
        r.nullable()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(path: &[Sym]) -> Vec<Sym> {
        path.to_vec()
    }

    #[test]
    fn seq_matches_exact_path_only() {
        let r = Regex::seq(&[1, 2, 3]);
        assert!(r.matches(&w(&[1, 2, 3])));
        assert!(!r.matches(&w(&[1, 2])));
        assert!(!r.matches(&w(&[1, 2, 3, 4])));
        assert!(!r.matches(&w(&[3, 2, 1])));
    }

    #[test]
    fn any_star_matches_everything() {
        let r = Regex::any_star();
        assert!(r.matches(&[]));
        assert!(r.matches(&w(&[9, 9, 9])));
    }

    #[test]
    fn waypoint_pattern() {
        // .* W .*  with W = 7
        let r = Regex::cat_all([Regex::any_star(), Regex::sym(7), Regex::any_star()]);
        assert!(r.matches(&w(&[7])));
        assert!(r.matches(&w(&[1, 7, 3])));
        assert!(!r.matches(&w(&[1, 2, 3])));
        assert!(!r.matches(&[]));
    }

    #[test]
    fn alt_union_of_waypoints() {
        // .* (F1 + F2) .*  with F1=1, F2=2
        let r = Regex::cat_all([
            Regex::any_star(),
            Regex::alt(Regex::sym(1), Regex::sym(2)),
            Regex::any_star(),
        ]);
        assert!(r.matches(&w(&[5, 1, 6])));
        assert!(r.matches(&w(&[2])));
        assert!(!r.matches(&w(&[5, 6])));
    }

    #[test]
    fn reverse_reverses_language() {
        let r = Regex::concat(Regex::seq(&[1, 2]), Regex::star(Regex::sym(3)));
        assert!(r.matches(&w(&[1, 2, 3, 3])));
        let rev = r.reverse();
        assert!(rev.matches(&w(&[3, 3, 2, 1])));
        assert!(!rev.matches(&w(&[1, 2, 3, 3])));
    }

    #[test]
    fn reverse_is_involutive() {
        let r = Regex::cat_all([
            Regex::any_star(),
            Regex::alt(Regex::seq(&[1, 2]), Regex::sym(3)),
            Regex::any(),
        ]);
        assert_eq!(r.reverse().reverse(), r);
    }

    #[test]
    fn smart_constructors_normalize() {
        assert_eq!(Regex::concat(Regex::Empty, Regex::sym(1)), Regex::Empty);
        assert_eq!(Regex::concat(Regex::Epsilon, Regex::sym(1)), Regex::sym(1));
        assert_eq!(Regex::alt(Regex::Empty, Regex::sym(1)), Regex::sym(1));
        assert_eq!(Regex::alt(Regex::sym(1), Regex::sym(1)), Regex::sym(1));
        assert_eq!(Regex::star(Regex::Empty), Regex::Epsilon);
        assert_eq!(
            Regex::star(Regex::star(Regex::sym(1))),
            Regex::star(Regex::sym(1))
        );
    }

    #[test]
    fn nullable_cases() {
        assert!(Regex::Epsilon.nullable());
        assert!(Regex::any_star().nullable());
        assert!(!Regex::sym(1).nullable());
        assert!(Regex::alt(Regex::Epsilon, Regex::sym(1)).nullable());
        assert!(!Regex::concat(Regex::any_star(), Regex::sym(1)).nullable());
    }
}
