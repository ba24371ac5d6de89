//! Property-based tests for the automata pipeline: random regexes and random
//! words must agree across the Brzozowski-derivative oracle, the Thompson
//! NFA, the subset-construction DFA and the Hopcroft-minimized DFA.
//!
//! The regexes here are symbolic ([`Regex`] over the alphabet `0..4`), one
//! layer below the policy language's path regexes that the fuzz campaign
//! generates.

use contra_automata::{Dfa, Nfa, Regex};
use proptest::collection;
use proptest::prelude::*;

const ALPHABET: [u32; 4] = [0, 1, 2, 3];

/// Random regex over the fixed 4-symbol alphabet, depth-bounded.
fn arb_regex() -> BoxedStrategy<Regex> {
    let leaf = prop_oneof![
        Just(Regex::Epsilon),
        Just(Regex::Any),
        (0u32..4).prop_map(Regex::Sym),
    ];
    leaf.prop_recursive(4, 48, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Regex::concat(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Regex::alt(a, b)),
            inner.prop_map(Regex::star),
        ]
    })
}

/// Random word over the alphabet, shorter than 8 symbols.
fn arb_word() -> impl Strategy<Value = Vec<u32>> {
    collection::vec(0u32..4, 0..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn nfa_matches_derivative_oracle(r in arb_regex(), w in arb_word()) {
        let nfa = Nfa::from_regex(&r);
        prop_assert_eq!(nfa.accepts(&w), r.matches(&w));
    }

    #[test]
    fn dfa_matches_derivative_oracle(r in arb_regex(), w in arb_word()) {
        let dfa = Dfa::from_regex(&r, &ALPHABET);
        prop_assert_eq!(dfa.accepts(&w), r.matches(&w));
    }

    #[test]
    fn minimized_dfa_preserves_language(r in arb_regex(), w in arb_word()) {
        let dfa = Dfa::from_regex(&r, &ALPHABET);
        let (min, mapping) = dfa.minimize();
        prop_assert_eq!(min.accepts(&w), dfa.accepts(&w));
        prop_assert!(min.num_states() <= dfa.num_states());
        // The state mapping commutes with stepping.
        let (mut s, mut t) = (dfa.start, min.start);
        for &x in &w {
            s = dfa.step(s, x);
            t = min.step(t, x);
            prop_assert_eq!(mapping[s], t);
        }
    }

    #[test]
    fn reversed_regex_matches_reversed_word(r in arb_regex(), w in arb_word()) {
        let rev: Vec<u32> = w.iter().rev().copied().collect();
        prop_assert_eq!(r.reverse().matches(&rev), r.matches(&w));
    }

    #[test]
    fn reversal_round_trip_preserves_language(r in arb_regex(), w in arb_word()) {
        prop_assert_eq!(r.reverse().reverse().matches(&w), r.matches(&w));
    }

    #[test]
    fn dead_state_is_absorbing(r in arb_regex(), w in arb_word()) {
        let dfa = Dfa::from_regex(&r, &ALPHABET);
        if let Some(dead) = dfa.dead {
            for &x in &w {
                prop_assert_eq!(dfa.step(dead, x), dead);
            }
            prop_assert!(!dfa.accept[dead]);
        }
    }
}
