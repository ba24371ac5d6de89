//! Total deterministic automata over an explicit switch alphabet, plus
//! Hopcroft minimization.
//!
//! The product graph (§4.1) needs, for every policy regex, a *total*
//! transition function `σᵢ : Q × Σ → Q` where Σ is the set of switches in
//! the topology. Subset construction therefore takes the alphabet as input
//! and keeps the empty subset as an explicit **dead state** — the paper's
//! "garbage state −". Minimization shrinks tag space (the paper's
//! "minimizing the number of bits to represent the tags" optimization).
//!
//! # Symbol classes
//!
//! The alphabet is every switch of the topology, but a regex can only tell
//! apart the switches it names. Columns fall into *classes*: one per
//! switch some NFA edge names ([`Nfa::named_symbols`]) and one for every
//! other switch, which only `.` edges consume, so all of them step a state
//! set to the same successor. [`Dfa::from_nfa`] therefore steps the NFA
//! once per DFA state and class and fills the dense row from a per-state
//! memo, reset for every state. States are still numbered in order of
//! discovery — worklist order, then column order — and a state is
//! discovered at the first column of its class, exactly where stepping
//! every symbol would have found it: every later column of the class
//! yields the same subset, already indexed. The automaton is the one the
//! per-symbol construction built, state numbers included.
//!
//! [`Dfa::minimize`] refines with one column of each set of equal columns,
//! because equal columns split every block alike. The coarsest stable
//! partition it reaches is unique, so it is the one all `k` columns would
//! reach; the renumbering walks all `k` columns from the start block as
//! before, so the minimal automaton and the state mapping do not change.

use crate::{nfa::Nfa, regex::Regex, Sym};
use std::collections::{BTreeMap, BTreeSet};

/// A deterministic automaton with a total transition function over a fixed,
/// sorted alphabet of switch IDs.
#[derive(Debug, Clone)]
pub struct Dfa {
    /// Sorted alphabet; `trans` is indexed by position in this vector.
    pub alphabet: Vec<Sym>,
    /// Start state.
    pub start: usize,
    /// `accept[s]` — whether state `s` is accepting.
    pub accept: Vec<bool>,
    /// Dense transition table, `num_states × alphabet.len()`.
    trans: Vec<usize>,
    /// The dead ("garbage") state, if the automaton has one: non-accepting
    /// with all transitions to itself.
    pub dead: Option<usize>,
}

impl Dfa {
    /// Builds a total DFA for `r` over `alphabet` via Thompson + subset
    /// construction. The alphabet must be sorted and duplicate-free and must
    /// contain every symbol mentioned by `r` (the compiler guarantees this by
    /// using the set of topology switches).
    pub fn from_regex(r: &Regex, alphabet: &[Sym]) -> Dfa {
        debug_assert!(
            alphabet.windows(2).all(|w| w[0] < w[1]),
            "alphabet must be sorted+unique"
        );
        let nfa = Nfa::from_regex(r);
        Self::from_nfa(&nfa, alphabet)
    }

    /// Subset construction from an NFA over an explicit alphabet.
    ///
    /// The NFA is stepped once per state and symbol *class*, not per
    /// symbol: see the module doc.
    pub fn from_nfa(nfa: &Nfa, alphabet: &[Sym]) -> Dfa {
        let mut index: BTreeMap<Vec<u32>, usize> = BTreeMap::new();
        let mut subsets: Vec<Vec<u32>> = Vec::new();
        let mut trans: Vec<usize> = Vec::new();
        let k = alphabet.len();

        // Class of each column: the position of its symbol among the named
        // ones, or `named.len()` for every symbol no edge names.
        let named = nfa.named_symbols();
        let class_of: Vec<usize> = alphabet
            .iter()
            .map(|sym| named.binary_search(sym).unwrap_or(named.len()))
            .collect();
        // The successor of the current state per class, once computed.
        let mut memo = vec![usize::MAX; named.len() + 1];

        let start_set = nfa.eps_closure(&[nfa.start]);
        index.insert(start_set.clone(), 0);
        subsets.push(start_set);

        let mut work = vec![0usize];
        while let Some(s) = work.pop() {
            // Ensure room for this state's row.
            if trans.len() < (s + 1) * k {
                trans.resize((s + 1) * k, usize::MAX);
            }
            memo.fill(usize::MAX);
            for (i, &sym) in alphabet.iter().enumerate() {
                let class = class_of[i];
                if memo[class] == usize::MAX {
                    // The class's first column: a new subset is numbered
                    // here, where stepping every symbol meets it first too.
                    let stepped = nfa.step(&subsets[s], sym);
                    let closed = nfa.eps_closure(&stepped);
                    memo[class] = match index.get(&closed) {
                        Some(&t) => t,
                        None => {
                            let t = subsets.len();
                            index.insert(closed.clone(), t);
                            subsets.push(closed);
                            work.push(t);
                            t
                        }
                    };
                }
                trans[s * k + i] = memo[class];
            }
        }
        let n = subsets.len();
        trans.resize(n * k, usize::MAX);

        let accept: Vec<bool> = subsets
            .iter()
            .map(|set| set.binary_search(&nfa.accept).is_ok())
            .collect();
        let mut dfa = Dfa {
            alphabet: alphabet.to_vec(),
            start: 0,
            accept,
            trans,
            dead: None,
        };
        dfa.dead = dfa.find_dead();
        dfa
    }

    fn find_dead(&self) -> Option<usize> {
        (0..self.num_states()).find(|&s| {
            !self.accept[s]
                && (0..self.alphabet.len()).all(|i| self.trans[s * self.alphabet.len() + i] == s)
        })
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.accept.len()
    }

    /// Index of `sym` in the alphabet, if present.
    pub fn sym_index(&self, sym: Sym) -> Option<usize> {
        self.alphabet.binary_search(&sym).ok()
    }

    /// Total transition function. Symbols outside the alphabet go to the dead
    /// state if one exists (and panic otherwise — the compiler always uses
    /// the full switch alphabet, so this is a programming error).
    pub fn step(&self, state: usize, sym: Sym) -> usize {
        match self.sym_index(sym) {
            Some(column) => self.step_at(state, column),
            None => self
                .dead
                .expect("symbol outside alphabet and automaton has no dead state"),
        }
    }

    /// [`step`](Dfa::step) for a symbol whose [`sym_index`](Dfa::sym_index)
    /// the caller already holds — the product graph steps every automaton
    /// on the same switch once per edge into it.
    pub fn step_at(&self, state: usize, column: usize) -> usize {
        debug_assert!(column < self.alphabet.len(), "column outside alphabet");
        self.trans[state * self.alphabet.len() + column]
    }

    /// Runs the automaton over a whole path from the start state.
    pub fn accepts(&self, word: &[Sym]) -> bool {
        let mut s = self.start;
        for &x in word {
            s = self.step(s, x);
        }
        self.accept[s]
    }

    /// True if `state` is the dead/garbage state.
    pub fn is_dead(&self, state: usize) -> bool {
        self.dead == Some(state)
    }

    /// `reachable[s]` — whether state `s` is reachable from the start state
    /// (forward reachability over the total transition function).
    pub fn reachable_states(&self) -> Vec<bool> {
        let n = self.num_states();
        let k = self.alphabet.len();
        let mut seen = vec![false; n];
        if n == 0 {
            return seen;
        }
        let mut work = vec![self.start];
        seen[self.start] = true;
        while let Some(s) = work.pop() {
            for i in 0..k {
                let t = self.trans[s * k + i];
                if !seen[t] {
                    seen[t] = true;
                    work.push(t);
                }
            }
        }
        seen
    }

    /// `live[s]` — whether some accepting state is reachable from `s`
    /// (reverse reachability from the accepting states). A state that is
    /// reachable but not live can only lead to rejection: for policy
    /// automata it is language-equivalent to the garbage state. Minimized
    /// automata have at most one non-live state (the canonical dead state),
    /// so extra non-live states indicate redundancy the verifier reports.
    pub fn live_states(&self) -> Vec<bool> {
        let n = self.num_states();
        let k = self.alphabet.len();
        let mut inv: Vec<Vec<usize>> = vec![Vec::new(); n];
        for s in 0..n {
            for i in 0..k {
                inv[self.trans[s * k + i]].push(s);
            }
        }
        let mut live = vec![false; n];
        let mut work: Vec<usize> = (0..n).filter(|&s| self.accept[s]).collect();
        for &s in &work {
            live[s] = true;
        }
        while let Some(t) = work.pop() {
            for &s in &inv[t] {
                if !live[s] {
                    live[s] = true;
                    work.push(s);
                }
            }
        }
        live
    }

    /// Hopcroft partition-refinement minimization.
    ///
    /// Returns the minimal automaton together with the mapping from old state
    /// indices to new ones. The language is preserved exactly; the dead state
    /// is re-identified on the result.
    pub fn minimize(&self) -> (Dfa, Vec<usize>) {
        let n = self.num_states();
        let k = self.alphabet.len();
        if n == 0 {
            return (self.clone(), Vec::new());
        }

        // Columns stored contiguously, `cols[i * n + s]` = δ(s, i). Two equal
        // columns split every block alike, so the refinement only needs
        // the first column of each set of equal ones.
        let mut cols = vec![0usize; k * n];
        for s in 0..n {
            for i in 0..k {
                cols[i * n + s] = self.trans[s * k + i];
            }
        }
        let column = |i: usize| &cols[i * n..(i + 1) * n];
        let mut distinct: BTreeSet<&[usize]> = BTreeSet::new();
        let reps: Vec<usize> = (0..k).filter(|&i| distinct.insert(column(i))).collect();
        let r = reps.len();

        // Inverse transitions: inv[j][t] = states s with δ(s, reps[j]) = t.
        let mut inv: Vec<Vec<Vec<usize>>> = vec![vec![Vec::new(); n]; r];
        for (j, &i) in reps.iter().enumerate() {
            for (s, &t) in column(i).iter().enumerate() {
                inv[j][t].push(s);
            }
        }

        // Partition states into blocks; start with accept / non-accept.
        let mut block_of: Vec<usize> = self.accept.iter().map(|&a| usize::from(a)).collect();
        let mut blocks: Vec<Vec<usize>> = vec![Vec::new(), Vec::new()];
        for s in 0..n {
            blocks[block_of[s]].push(s);
        }
        if blocks[1].is_empty() {
            blocks.pop();
        } else if blocks[0].is_empty() {
            blocks.remove(0);
            for b in block_of.iter_mut() {
                *b = 0;
            }
        }

        // Hopcroft worklist of (block, representative column) splitters.
        let mut work: Vec<(usize, usize)> = (0..blocks.len())
            .flat_map(|b| (0..r).map(move |j| (b, j)))
            .collect();

        while let Some((b, j)) = work.pop() {
            // X = preimage of block b under column reps[j].
            let mut touched: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for &t in &blocks[b] {
                for &s in &inv[j][t] {
                    touched.entry(block_of[s]).or_default().push(s);
                }
            }
            for (blk, hit) in touched {
                if hit.len() == blocks[blk].len() {
                    continue; // no split
                }
                // Split blk into `hit` and the rest.
                let new_idx = blocks.len();
                let mut in_hit = vec![false; n];
                for &s in &hit {
                    in_hit[s] = true;
                }
                let rest: Vec<usize> = blocks[blk]
                    .iter()
                    .copied()
                    .filter(|&s| !in_hit[s])
                    .collect();
                let (small, large) = if hit.len() <= rest.len() {
                    (hit, rest)
                } else {
                    (rest, hit)
                };
                for &s in &small {
                    block_of[s] = new_idx;
                }
                blocks[blk] = large;
                blocks.push(small);
                for j in 0..r {
                    work.push((new_idx, j));
                }
            }
        }

        // Renumber blocks so that the start state's block is first (stable,
        // deterministic output independent of worklist order).
        let mut order: Vec<usize> = Vec::with_capacity(blocks.len());
        let mut seen = vec![false; blocks.len()];
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(block_of[self.start]);
        seen[block_of[self.start]] = true;
        while let Some(b) = queue.pop_front() {
            order.push(b);
            let rep = blocks[b][0];
            for i in 0..k {
                let nb = block_of[self.trans[rep * k + i]];
                if !seen[nb] {
                    seen[nb] = true;
                    queue.push_back(nb);
                }
            }
        }
        // Unreachable blocks (possible if original had unreachable states)
        // are dropped entirely.
        let mut new_index = vec![usize::MAX; blocks.len()];
        for (new, &old) in order.iter().enumerate() {
            new_index[old] = new;
        }

        let m = order.len();
        let mut trans = vec![0usize; m * k];
        let mut accept = vec![false; m];
        for (new, &old_block) in order.iter().enumerate() {
            let rep = blocks[old_block][0];
            accept[new] = self.accept[rep];
            for i in 0..k {
                trans[new * k + i] = new_index[block_of[self.trans[rep * k + i]]];
            }
        }
        let mapping: Vec<usize> = (0..n).map(|s| new_index[block_of[s]]).collect();
        let mut dfa = Dfa {
            alphabet: self.alphabet.clone(),
            start: new_index[block_of[self.start]],
            accept,
            trans,
            dead: None,
        };
        dfa.dead = dfa.find_dead();
        (dfa, mapping)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> Vec<Sym> {
        vec![1, 2, 3]
    }

    #[test]
    fn dfa_agrees_with_oracle() {
        let r = Regex::cat_all([
            Regex::any_star(),
            Regex::alt(Regex::sym(1), Regex::seq(&[2, 3])),
            Regex::any_star(),
        ]);
        let d = Dfa::from_regex(&r, &abc());
        for word in [
            vec![],
            vec![1],
            vec![2, 3],
            vec![3, 2],
            vec![2, 2, 3],
            vec![3, 3, 3],
            vec![1, 2, 3, 1],
        ] {
            assert_eq!(d.accepts(&word), r.matches(&word), "word {word:?}");
        }
    }

    #[test]
    fn dead_state_identified() {
        // Exactly the path "1 2": any deviation lands in the garbage state.
        let d = Dfa::from_regex(&Regex::seq(&[1, 2]), &abc());
        let dead = d.dead.expect("must have a dead state");
        assert!(!d.accept[dead]);
        assert_eq!(d.step(dead, 1), dead);
        // Deviating transition falls into dead.
        let s1 = d.step(d.start, 3);
        assert_eq!(s1, dead);
    }

    #[test]
    fn minimize_preserves_language() {
        // (1+2)* 3 — minimal form has 3 states (loop, accept, dead).
        let r = Regex::concat(
            Regex::star(Regex::alt(Regex::sym(1), Regex::sym(2))),
            Regex::sym(3),
        );
        let d = Dfa::from_regex(&r, &abc());
        let (m, mapping) = d.minimize();
        assert!(m.num_states() <= d.num_states());
        assert_eq!(mapping.len(), d.num_states());
        for word in [
            vec![],
            vec![3],
            vec![1, 2, 1, 3],
            vec![3, 3],
            vec![1, 3, 1],
            vec![2, 2],
        ] {
            assert_eq!(m.accepts(&word), d.accepts(&word), "word {word:?}");
        }
        assert_eq!(m.num_states(), 3);
    }

    #[test]
    fn minimize_maps_states_consistently() {
        let r = Regex::cat_all([Regex::any_star(), Regex::sym(2), Regex::any_star()]);
        let d = Dfa::from_regex(&r, &abc());
        let (m, mapping) = d.minimize();
        // Running both automata in lock-step stays within the mapping.
        let word = [1, 3, 2, 1, 1];
        let (mut s, mut t) = (d.start, m.start);
        for &x in &word {
            s = d.step(s, x);
            t = m.step(t, x);
            assert_eq!(mapping[s], t);
        }
    }

    #[test]
    fn universal_automaton_minimizes_to_one_state() {
        let d = Dfa::from_regex(&Regex::any_star(), &abc());
        let (m, _) = d.minimize();
        assert_eq!(m.num_states(), 1);
        assert!(m.accept[m.start]);
        assert!(m.dead.is_none());
    }

    #[test]
    fn empty_language_minimizes_to_dead_only() {
        let d = Dfa::from_regex(&Regex::Empty, &abc());
        let (m, _) = d.minimize();
        assert_eq!(m.num_states(), 1);
        assert!(!m.accept[m.start]);
        assert_eq!(m.dead, Some(m.start));
    }

    #[test]
    fn step_outside_alphabet_goes_dead() {
        let d = Dfa::from_regex(&Regex::seq(&[1]), &abc());
        let dead = d.dead.unwrap();
        assert_eq!(d.step(d.start, 99), dead);
        // Inside it, `step` is `sym_index` + `step_at`.
        for (column, &sym) in d.alphabet.iter().enumerate() {
            assert_eq!(d.sym_index(sym), Some(column));
            for s in 0..d.num_states() {
                assert_eq!(d.step(s, sym), d.step_at(s, column));
            }
        }
    }

    #[test]
    fn minimized_dfa_is_fully_reachable_and_live_except_garbage() {
        let (d, _) = Dfa::from_regex(&Regex::seq(&[1, 2, 3]), &abc()).minimize();
        let reach = d.reachable_states();
        let live = d.live_states();
        assert!(
            reach.iter().all(|&r| r),
            "minimize drops unreachable states"
        );
        for (s, &l) in live.iter().enumerate() {
            // In a minimal total DFA the one non-live state is the garbage
            // state (when the language is not universal).
            assert_eq!(l, !d.is_dead(s), "state {s}");
        }
    }

    #[test]
    fn liveness_finds_redundant_trap_states() {
        // Hand-built DFA with a trap state (2) that is reachable and not
        // the canonical dead state (3): it funnels into 3 instead of
        // self-looping, so `find_dead`-style detection misses it but
        // reverse reachability does not.
        let d = Dfa {
            alphabet: abc(),
            start: 0,
            accept: vec![false, true, false, false],
            trans: vec![
                1, 2, 3, // state 0: 1→accept, 2→trap, 3→dead
                3, 3, 3, // state 1 (accepting)
                3, 3, 3, // state 2 (trap)
                3, 3, 3, // state 3 (dead)
            ],
            dead: Some(3),
        };
        let live = d.live_states();
        let reach = d.reachable_states();
        assert_eq!(live, vec![true, true, false, false]);
        assert!(reach.iter().all(|&r| r));
        let redundant = (0..d.num_states())
            .filter(|&s| reach[s] && !live[s] && !d.is_dead(s))
            .count();
        assert_eq!(redundant, 1);
        // Minimization collapses the trap into the garbage state.
        let (m, _) = d.minimize();
        let mlive = m.live_states();
        let extra = (0..m.num_states())
            .filter(|&s| !mlive[s] && !m.is_dead(s))
            .count();
        assert_eq!(extra, 0);
    }

    #[test]
    fn accepting_states_are_live_and_empty_language_has_none() {
        let d = Dfa::from_regex(&Regex::seq(&[1]), &abc());
        let live = d.live_states();
        for (s, &l) in live.iter().enumerate() {
            if d.accept[s] {
                assert!(l);
            }
        }
        // ∅* of nothing: a regex matching nothing over this alphabet.
        let (none, _) = Dfa::from_regex(&Regex::seq(&[9]), &abc()).minimize();
        assert!(none.live_states().iter().all(|&l| !l));
    }
}
