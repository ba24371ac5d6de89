//! Differential property tests for the static verifier.
//!
//! The verifier decides "source S black-holes to destination D" by
//! reverse reachability over the product graph — reversed automata, probe
//! direction. The oracle (shared with the fuzz harness in `contra-fuzz`)
//! re-decides the same question from first principles: run the
//! *unreversed* traffic regexes forward over a BFS of `(switch,
//! DFA-state-vector)` pairs starting at S and ask whether any walk
//! arrives at D with an acceptance vector some finite branch matches.
//! The two constructions share no code past normalization, so agreement
//! over random policies × random connected topologies exercises the
//! regex-reversal, determinization and product construction end to end.
//!
//! The oracle lives in `contra_fuzz::oracle`, and the policies' regexes
//! come from the campaign's generator (`contra_fuzz::gen::gen_regex`) —
//! the same grammar the standing `contra_fuzz` campaign draws from.

use contra_core::{
    normalize, parse_policy, verify, Attr, BoolExpr, BranchRank, CompileError, Compiler, Expr,
    Policy,
};
use contra_fuzz::gen::gen_regex;
use contra_fuzz::oracle::{forward_dfas, oracle_routable};
use contra_topology::{generators, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

/// Guard-free routing policies with one or two regex conditions — the
/// shapes whose black-hole structure is decided purely by path-set
/// emptiness, which is exactly what a forward path search can re-derive.
/// The regexes name `r0..r3` — [`generators::random_connected`] names its
/// switches `r{i}`, so with `n ≥ 4` every name resolves except the
/// generator's `ghost`, which fails the compile.
fn arb_policy() -> impl Strategy<Value = Policy> {
    let names: Vec<String> = (0..4).map(|i| format!("r{i}")).collect();
    (0..u64::MAX, 0usize..3).prop_map(move |(seed, shape)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let r1 = BoolExpr::regex(gen_regex(&mut rng, &names, 3));
        let r2 = BoolExpr::regex(gen_regex(&mut rng, &names, 3));
        let expr = match shape {
            0 => Expr::if_(r1, Expr::attr(Attr::Len), Expr::inf()),
            1 => Expr::if_(
                r1,
                Expr::constant(0.0),
                Expr::if_(r2, Expr::attr(Attr::Len), Expr::inf()),
            ),
            // No `inf` branch at all: every pair must be routable.
            _ => Expr::if_(
                BoolExpr::not(r1),
                Expr::attr(Attr::Lat),
                Expr::attr(Attr::Len),
            ),
        };
        Policy { expr }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Verifier black-hole verdicts agree with brute-force forward path
    /// enumeration on every ordered switch pair of a random topology.
    #[test]
    fn black_hole_verdicts_match_forward_search(
        policy in arb_policy(),
        n in 4usize..7,
        extra in 0usize..4,
        seed in 0u64..1_000,
    ) {
        let topo =
            generators::random_connected(n, extra, generators::LinkSpec::default(), seed);
        let text = policy.to_string();
        match Compiler::new(&topo).compile_str(&text) {
            Ok(cp) => {
                let report = verify(&cp, &topo);
                let holes: HashSet<(NodeId, NodeId)> = report
                    .verdicts
                    .black_holes
                    .iter()
                    .map(|b| (b.src, b.dst))
                    .collect();
                let fdfas = forward_dfas(&cp.normal, &topo).expect("names resolved");
                for &d in &cp.destinations {
                    for &s in &topo.switches() {
                        if s == d {
                            continue;
                        }
                        let routable = oracle_routable(&topo, &cp.normal, &fdfas, s, d);
                        prop_assert_eq!(
                            !routable,
                            holes.contains(&(s, d)),
                            "verifier and oracle disagree on {:?}→{:?} for `{}` (seed {})",
                            s, d, text, seed
                        );
                    }
                }
            }
            // The compiler found no useful path for *any* pair — the
            // oracle must find none either.
            Err(CompileError::NoUsefulPaths) => {
                let Ok(normal) = normalize(&policy) else { return Ok(()) };
                let Some(fdfas) = forward_dfas(&normal, &topo) else { return Ok(()) };
                for &d in &topo.switches() {
                    for &s in &topo.switches() {
                        if s == d {
                            continue;
                        }
                        prop_assert!(
                            !oracle_routable(&topo, &normal, &fdfas, s, d),
                            "compiler said NoUsefulPaths but oracle routes {:?}→{:?} for `{}`",
                            s, d, text
                        );
                    }
                }
            }
            // Resolve/analysis failures carry no path semantics to check.
            Err(_) => {}
        }
    }

    /// Parser → normalizer differential on generated ASTs: printing and
    /// reparsing a policy never changes whether it normalizes, nor the
    /// branch structure (requirement vectors, guard counts, finiteness),
    /// and every reparsed branch/guard span stays inside the source text.
    #[test]
    fn normalization_survives_reparse_with_sane_spans(
        policy in arb_policy(),
        // Also run the richer expression space from the grammar corners:
        // tuples, sums, comparisons.
        cmp_const in 0u32..30,
    ) {
        let policy = Policy {
            expr: Expr::if_(
                BoolExpr::cmp(
                    contra_core::CmpOp::Lt,
                    Expr::attr(Attr::Len),
                    Expr::constant(cmp_const as f64),
                ),
                policy.expr,
                Expr::tuple(vec![Expr::attr(Attr::Util), Expr::attr(Attr::Len)]),
            ),
        };
        let printed = policy.to_string();
        let reparsed = parse_policy(&printed)
            .unwrap_or_else(|e| panic!("reparse of {printed:?}: {e}"));
        let direct = normalize(&policy);
        let roundtrip = normalize(&reparsed);
        prop_assert_eq!(
            direct.is_ok(),
            roundtrip.is_ok(),
            "normalization outcome changed across reparse of `{}`",
            printed
        );
        let (Ok(a), Ok(b)) = (direct, roundtrip) else { return Ok(()) };
        prop_assert_eq!(a.regexes.len(), b.regexes.len());
        prop_assert_eq!(a.branches.len(), b.branches.len());
        for (ba, bb) in a.branches.iter().zip(&b.branches) {
            prop_assert_eq!(&ba.reqs, &bb.reqs);
            prop_assert_eq!(ba.guards.len(), bb.guards.len());
            prop_assert_eq!(
                matches!(ba.rank, BranchRank::Finite(_)),
                matches!(bb.rank, BranchRank::Finite(_))
            );
        }
        // Reparsed spans point into the printed source.
        for br in &b.branches {
            prop_assert!(
                br.span.start <= br.span.end && br.span.end <= printed.len(),
                "branch span {:?} outside source (len {}) for `{}`",
                br.span, printed.len(), printed
            );
            for g in &br.guards {
                prop_assert!(
                    g.span.start <= g.span.end && g.span.end <= printed.len(),
                    "guard span {:?} outside source (len {}) for `{}`",
                    g.span, printed.len(), printed
                );
            }
        }
    }
}
