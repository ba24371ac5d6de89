//! Thompson construction: [`Regex`] → nondeterministic finite automaton.
//!
//! The NFA is an intermediate step on the way to the total DFA used by the
//! product graph. It supports direct simulation ([`Nfa::accepts`]) so the
//! pipeline can be cross-checked stage by stage in tests.

use crate::{regex::Regex, Sym};

/// An edge label in the NFA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Label {
    /// Spontaneous transition.
    Eps,
    /// Consume exactly this switch ID.
    Sym(Sym),
    /// Consume any one switch ID (`.`).
    Any,
}

/// A Thompson NFA with a single start and a single accept state.
#[derive(Debug, Clone)]
pub struct Nfa {
    /// Initial state.
    pub start: u32,
    /// Unique accepting state.
    pub accept: u32,
    /// `trans[s]` lists `(label, target)` edges out of state `s`.
    trans: Vec<Vec<(Label, u32)>>,
}

impl Nfa {
    /// Builds the Thompson NFA for `r`.
    pub fn from_regex(r: &Regex) -> Nfa {
        let mut nfa = Nfa {
            start: 0,
            accept: 0,
            trans: Vec::new(),
        };
        let (s, a) = nfa.build(r);
        nfa.start = s;
        nfa.accept = a;
        nfa
    }

    fn fresh(&mut self) -> u32 {
        self.trans.push(Vec::new());
        (self.trans.len() - 1) as u32
    }

    fn edge(&mut self, from: u32, label: Label, to: u32) {
        self.trans[from as usize].push((label, to));
    }

    /// Returns `(start, accept)` of the fragment for `r`.
    fn build(&mut self, r: &Regex) -> (u32, u32) {
        match r {
            Regex::Empty => {
                let s = self.fresh();
                let a = self.fresh();
                (s, a) // no edge: accepts nothing
            }
            Regex::Epsilon => {
                let s = self.fresh();
                let a = self.fresh();
                self.edge(s, Label::Eps, a);
                (s, a)
            }
            Regex::Sym(x) => {
                let s = self.fresh();
                let a = self.fresh();
                self.edge(s, Label::Sym(*x), a);
                (s, a)
            }
            Regex::Any => {
                let s = self.fresh();
                let a = self.fresh();
                self.edge(s, Label::Any, a);
                (s, a)
            }
            Regex::Concat(p, q) => {
                let (ps, pa) = self.build(p);
                let (qs, qa) = self.build(q);
                self.edge(pa, Label::Eps, qs);
                (ps, qa)
            }
            Regex::Alt(p, q) => {
                let s = self.fresh();
                let a = self.fresh();
                let (ps, pa) = self.build(p);
                let (qs, qa) = self.build(q);
                self.edge(s, Label::Eps, ps);
                self.edge(s, Label::Eps, qs);
                self.edge(pa, Label::Eps, a);
                self.edge(qa, Label::Eps, a);
                (s, a)
            }
            Regex::Star(p) => {
                let s = self.fresh();
                let a = self.fresh();
                let (ps, pa) = self.build(p);
                self.edge(s, Label::Eps, ps);
                self.edge(s, Label::Eps, a);
                self.edge(pa, Label::Eps, ps);
                self.edge(pa, Label::Eps, a);
                (s, a)
            }
        }
    }

    /// Every symbol some edge names (sorted, deduplicated). Any other
    /// symbol is consumed by the `.` edges alone, so all of them step a
    /// state set to the same successor.
    pub fn named_symbols(&self) -> Vec<Sym> {
        let mut out: Vec<Sym> = self
            .trans
            .iter()
            .flatten()
            .filter_map(|&(label, _)| match label {
                Label::Sym(x) => Some(x),
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Epsilon closure of a set of states (sorted, deduplicated).
    pub fn eps_closure(&self, states: &[u32]) -> Vec<u32> {
        let mut seen = vec![false; self.trans.len()];
        let mut stack: Vec<u32> = Vec::new();
        for &s in states {
            if !seen[s as usize] {
                seen[s as usize] = true;
                stack.push(s);
            }
        }
        let mut out: Vec<u32> = stack.clone();
        while let Some(s) = stack.pop() {
            for &(label, t) in &self.trans[s as usize] {
                if label == Label::Eps && !seen[t as usize] {
                    seen[t as usize] = true;
                    stack.push(t);
                    out.push(t);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// One consuming step from a closed state set on symbol `x`
    /// (result is *not* epsilon-closed).
    pub fn step(&self, states: &[u32], x: Sym) -> Vec<u32> {
        let mut out = Vec::new();
        for &s in states {
            for &(label, t) in &self.trans[s as usize] {
                match label {
                    Label::Sym(y) if y == x => out.push(t),
                    Label::Any => out.push(t),
                    _ => {}
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Direct NFA simulation; used for cross-checking against the regex
    /// derivative oracle and the DFA.
    pub fn accepts(&self, word: &[Sym]) -> bool {
        let mut cur = self.eps_closure(&[self.start]);
        for &x in word {
            let next = self.step(&cur, x);
            cur = self.eps_closure(&next);
            if cur.is_empty() {
                return false;
            }
        }
        cur.binary_search(&self.accept).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_rejects_all() {
        let n = Nfa::from_regex(&Regex::Empty);
        assert!(!n.accepts(&[]));
        assert!(!n.accepts(&[1]));
    }

    #[test]
    fn epsilon_accepts_empty_only() {
        let n = Nfa::from_regex(&Regex::Epsilon);
        assert!(n.accepts(&[]));
        assert!(!n.accepts(&[1]));
    }

    #[test]
    fn concat_and_star() {
        // 1 2* 3
        let r = Regex::cat_all([Regex::sym(1), Regex::star(Regex::sym(2)), Regex::sym(3)]);
        let n = Nfa::from_regex(&r);
        assert!(n.accepts(&[1, 3]));
        assert!(n.accepts(&[1, 2, 2, 2, 3]));
        assert!(!n.accepts(&[1, 2]));
        assert!(!n.accepts(&[2, 3]));
    }

    #[test]
    fn any_consumes_one_symbol() {
        let n = Nfa::from_regex(&Regex::Any);
        assert!(!n.accepts(&[]));
        assert!(n.accepts(&[42]));
        assert!(!n.accepts(&[42, 43]));
    }

    #[test]
    fn named_symbols_are_the_sym_edges() {
        let r = Regex::cat_all([
            Regex::any_star(),
            Regex::alt(Regex::sym(5), Regex::seq(&[2, 5])),
            Regex::any(),
        ]);
        assert_eq!(Nfa::from_regex(&r).named_symbols(), vec![2, 5]);
        assert!(Nfa::from_regex(&Regex::any_star())
            .named_symbols()
            .is_empty());
    }

    #[test]
    fn agrees_with_derivative_oracle_on_fixed_cases() {
        let r = Regex::cat_all([
            Regex::any_star(),
            Regex::alt(Regex::sym(1), Regex::seq(&[2, 3])),
            Regex::any_star(),
        ]);
        let n = Nfa::from_regex(&r);
        for word in [
            vec![],
            vec![1],
            vec![2, 3],
            vec![2],
            vec![5, 2, 3, 9],
            vec![5, 3, 2, 9],
            vec![1, 1, 1],
        ] {
            assert_eq!(n.accepts(&word), r.matches(&word), "word {word:?}");
        }
    }
}
