//! The reference model for `Dfa::from_nfa` and `Dfa::minimize`.
//!
//! `from_nfa` steps the NFA once per DFA state and symbol class and
//! `minimize` refines with one column of each set of equal columns. The
//! models below are the versions they replaced, verbatim but for working
//! on a plain table instead of the private fields: the per-symbol subset
//! construction and Hopcroft over all `k` columns. Equality of the
//! alphabet, start, accepting and dead states, every `step_at`, the
//! minimal automaton and the minimization mapping — on seeded regexes of
//! every form over alphabets of 1 to 64 symbols and on the shapes the
//! classes treat specially — is the evidence that the class-wise kernels
//! are the same functions, state numbers included. A class memo not reset
//! per state (`mutants/dfa_memo_not_reset.patch`) fails both tests.

use contra_automata::{Dfa, Nfa, Regex, Sym};
use contra_fuzz::case_seed;
use std::collections::BTreeMap;

/// A total DFA as plain data: what the models build, and what a `Dfa`
/// reads back as through its public accessors.
#[derive(Debug, Clone, PartialEq)]
struct Table {
    alphabet: Vec<Sym>,
    start: usize,
    accept: Vec<bool>,
    /// `num_states × alphabet.len()`, row-major.
    trans: Vec<usize>,
    dead: Option<usize>,
}

impl Table {
    fn of(d: &Dfa) -> Table {
        let k = d.alphabet.len();
        Table {
            alphabet: d.alphabet.clone(),
            start: d.start,
            accept: d.accept.clone(),
            trans: (0..d.num_states() * k)
                .map(|at| d.step_at(at / k, at % k))
                .collect(),
            dead: d.dead,
        }
    }

    fn num_states(&self) -> usize {
        self.accept.len()
    }

    fn find_dead(&self) -> Option<usize> {
        (0..self.num_states()).find(|&s| {
            !self.accept[s]
                && (0..self.alphabet.len()).all(|i| self.trans[s * self.alphabet.len() + i] == s)
        })
    }
}

/// The per-symbol subset construction, verbatim.
fn reference_from_nfa(nfa: &Nfa, alphabet: &[Sym]) -> Table {
    let mut index: BTreeMap<Vec<u32>, usize> = BTreeMap::new();
    let mut subsets: Vec<Vec<u32>> = Vec::new();
    let mut trans: Vec<usize> = Vec::new();
    let k = alphabet.len();

    let start_set = nfa.eps_closure(&[nfa.start]);
    index.insert(start_set.clone(), 0);
    subsets.push(start_set);

    let mut work = vec![0usize];
    while let Some(s) = work.pop() {
        // Ensure room for this state's row.
        if trans.len() < (s + 1) * k {
            trans.resize((s + 1) * k, usize::MAX);
        }
        for (i, &sym) in alphabet.iter().enumerate() {
            let stepped = nfa.step(&subsets[s], sym);
            let closed = nfa.eps_closure(&stepped);
            let t = match index.get(&closed) {
                Some(&t) => t,
                None => {
                    let t = subsets.len();
                    index.insert(closed.clone(), t);
                    subsets.push(closed);
                    work.push(t);
                    t
                }
            };
            trans[s * k + i] = t;
        }
    }
    let n = subsets.len();
    trans.resize(n * k, usize::MAX);

    let accept: Vec<bool> = subsets
        .iter()
        .map(|set| set.binary_search(&nfa.accept).is_ok())
        .collect();
    let mut dfa = Table {
        alphabet: alphabet.to_vec(),
        start: 0,
        accept,
        trans,
        dead: None,
    };
    dfa.dead = dfa.find_dead();
    dfa
}

/// Hopcroft partition refinement over all `k` columns, verbatim.
fn reference_minimize(d: &Table) -> (Table, Vec<usize>) {
    let n = d.num_states();
    let k = d.alphabet.len();
    if n == 0 {
        return (d.clone(), Vec::new());
    }

    // Pre-compute inverse transitions: inv[i][t] = states s with δ(s,i)=t.
    let mut inv: Vec<Vec<Vec<usize>>> = vec![vec![Vec::new(); n]; k];
    for s in 0..n {
        for i in 0..k {
            inv[i][d.trans[s * k + i]].push(s);
        }
    }

    // Partition states into blocks; start with accept / non-accept.
    let mut block_of: Vec<usize> = d.accept.iter().map(|&a| usize::from(a)).collect();
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

    // Hopcroft worklist of (block, symbol) splitters.
    let mut work: Vec<(usize, usize)> = (0..blocks.len())
        .flat_map(|b| (0..k).map(move |i| (b, i)))
        .collect();

    while let Some((b, i)) = work.pop() {
        // X = preimage of block b under symbol i.
        let mut touched: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &t in &blocks[b] {
            for &s in &inv[i][t] {
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
            for sym in 0..k {
                work.push((new_idx, sym));
            }
        }
    }

    // Renumber blocks so that the start state's block is first (stable,
    // deterministic output independent of worklist order).
    let mut order: Vec<usize> = Vec::with_capacity(blocks.len());
    let mut seen = vec![false; blocks.len()];
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(block_of[d.start]);
    seen[block_of[d.start]] = true;
    while let Some(b) = queue.pop_front() {
        order.push(b);
        let rep = blocks[b][0];
        for i in 0..k {
            let nb = block_of[d.trans[rep * k + i]];
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
        accept[new] = d.accept[rep];
        for i in 0..k {
            trans[new * k + i] = new_index[block_of[d.trans[rep * k + i]]];
        }
    }
    let mapping: Vec<usize> = (0..n).map(|s| new_index[block_of[s]]).collect();
    let mut dfa = Table {
        alphabet: d.alphabet.clone(),
        start: new_index[block_of[d.start]],
        accept,
        trans,
        dead: None,
    };
    dfa.dead = dfa.find_dead();
    (dfa, mapping)
}

/// The first field in which `got` differs from `want`, if any.
fn first_difference(got: &Table, want: &Table) -> Option<String> {
    if got.alphabet != want.alphabet {
        return Some(format!(
            "alphabet {:?} vs {:?}",
            got.alphabet, want.alphabet
        ));
    }
    if got.start != want.start {
        return Some(format!("start {} vs {}", got.start, want.start));
    }
    if got.accept != want.accept {
        return Some(format!("accept {:?} vs {:?}", got.accept, want.accept));
    }
    if got.dead != want.dead {
        return Some(format!("dead {:?} vs {:?}", got.dead, want.dead));
    }
    let k = want.alphabet.len().max(1);
    (0..want.trans.len())
        .find(|&at| got.trans[at] != want.trans[at])
        .map(|at| {
            format!(
                "step_at({}, {}) = {} vs {}",
                at / k,
                at % k,
                got.trans[at],
                want.trans[at]
            )
        })
}

/// Builds and minimizes `r` over `alphabet` both ways; panics on the first
/// difference.
fn assert_same(label: &str, r: &Regex, alphabet: &[Sym]) {
    let nfa = Nfa::from_regex(r);
    let dfa = Dfa::from_nfa(&nfa, alphabet);
    let want = reference_from_nfa(&nfa, alphabet);
    let got = Table::of(&dfa);
    if let Some(diff) = first_difference(&got, &want) {
        panic!("{label}: from_nfa of {r:?} over {alphabet:?}: {diff}");
    }
    let (min, mapping) = dfa.minimize();
    let (want_min, want_mapping) = reference_minimize(&want);
    if let Some(diff) = first_difference(&Table::of(&min), &want_min) {
        panic!("{label}: minimize of {r:?} over {alphabet:?}: {diff}");
    }
    assert_eq!(
        mapping, want_mapping,
        "{label}: minimize mapping of {r:?} over {alphabet:?}"
    );
}

/// A regex of depth at most `depth` drawing all seven forms, leaves mostly
/// symbols and `.`; symbols are drawn from `0..syms`.
fn gen_regex(draw: &mut impl FnMut() -> u64, depth: u32, syms: u32) -> Regex {
    let pick = if depth == 0 { draw() % 10 } else { draw() % 16 };
    match pick {
        0 => Regex::Empty,
        1 => Regex::Epsilon,
        2..=6 => Regex::Sym((draw() % u64::from(syms)) as Sym),
        7..=9 => Regex::Any,
        10..=12 => Regex::Concat(
            Box::new(gen_regex(draw, depth - 1, syms)),
            Box::new(gen_regex(draw, depth - 1, syms)),
        ),
        13 | 14 => Regex::Alt(
            Box::new(gen_regex(draw, depth - 1, syms)),
            Box::new(gen_regex(draw, depth - 1, syms)),
        ),
        _ => Regex::Star(Box::new(gen_regex(draw, depth - 1, syms))),
    }
}

/// `size` distinct symbols, ascending, drawn from `0..2 * size` so that a
/// generated regex names symbols outside the alphabet too.
fn gen_alphabet(draw: &mut impl FnMut() -> u64, size: usize) -> Vec<Sym> {
    let mut alphabet: Vec<Sym> = (0..2 * size as Sym).collect();
    while alphabet.len() > size {
        alphabet.remove((draw() % alphabet.len() as u64) as usize);
    }
    alphabet
}

/// Seeded regexes of depth ≤ 6 over seeded alphabets of 1 to 64 symbols.
fn seeded_cases() -> Vec<(Regex, Vec<Sym>)> {
    let mut draws = (0..).map(|i| case_seed(25, i));
    let mut draw = move || draws.next().unwrap();
    (0..2_000)
        .map(|case| {
            let size = 1 + case % 64;
            let alphabet = gen_alphabet(&mut draw, size);
            let depth = 1 + (draw() % 6) as u32;
            let r = gen_regex(&mut draw, depth, 2 * size as u32 + 2);
            (r, alphabet)
        })
        .collect()
}

#[test]
fn seeded_regexes_determinize_and_minimize_as_the_reference_says() {
    let cases = seeded_cases();
    let mut named_in_alphabet = 0;
    let mut multi_state = 0;
    for (i, (r, alphabet)) in cases.iter().enumerate() {
        assert_same(&format!("case {i}"), r, alphabet);
        let named = Nfa::from_regex(r).named_symbols();
        named_in_alphabet += usize::from(named.iter().any(|s| alphabet.contains(s)));
        multi_state += usize::from(Dfa::from_regex(r, alphabet).num_states() > 2);
    }
    // The campaign must reach the classes it is about: 676 and 1,136 of
    // the 2,000 cases.
    assert!(named_in_alphabet * 4 > cases.len(), "{named_in_alphabet}");
    assert!(multi_state * 2 > cases.len(), "{multi_state}");
}

#[test]
fn forced_shapes_determinize_and_minimize_as_the_reference_says() {
    let alphabets: [Vec<Sym>; 4] = [
        vec![7],
        vec![1, 2],
        vec![0, 3, 5, 8, 13],
        (0..64).map(|s| 3 * s + 1).collect(),
    ];
    for alphabet in &alphabets {
        let (a, b) = (alphabet[0], *alphabet.last().unwrap());
        let every = alphabet
            .iter()
            .fold(Regex::Empty, |acc, &s| Regex::alt(acc, Regex::sym(s)));
        let shapes = [
            // No symbol named: one class.
            ("any-star", Regex::any_star()),
            // Every symbol named: one class per column, none left over.
            (
                "every",
                Regex::cat_all([Regex::star(every.clone()), Regex::sym(a)]),
            ),
            ("every-seq", Regex::seq(alphabet)),
            // Two named symbols with identical roles.
            (
                "twins",
                Regex::concat(Regex::alt(Regex::sym(a), Regex::sym(b)), Regex::any_star()),
            ),
            // A named symbol outside the alphabet.
            (
                "outside",
                Regex::cat_all([Regex::any_star(), Regex::sym(1_000), Regex::any_star()]),
            ),
            (
                "outside-alt",
                Regex::cat_all([
                    Regex::any_star(),
                    Regex::alt(Regex::sym(1_000), Regex::sym(b)),
                    Regex::any(),
                ]),
            ),
            ("empty", Regex::Empty),
            ("epsilon", Regex::Epsilon),
        ];
        for (label, r) in &shapes {
            assert_same(
                &format!("{label} over {} symbols", alphabet.len()),
                r,
                alphabet,
            );
        }
    }
}
