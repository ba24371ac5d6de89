//! Property tests for the policy language: pretty-printer ↔ parser
//! round-trips, normalization totality and evaluation consistency on random
//! policies.
//!
//! Expressions come from the fuzz campaign's generator
//! (`contra_fuzz::gen::gen_expr`), seeded per case, so the property suite
//! and the standing `contra_fuzz` campaign draw from one grammar.

use contra_core::{normalize, parse_policy, Expr, MetricVec, Policy};
use contra_fuzz::gen::gen_expr;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A depth-3 rank expression over switch names `N0..N3` (plus the
/// generator's unknown name `ghost`).
fn seeded_expr() -> impl Strategy<Value = Expr> {
    let names: Vec<String> = (0..4).map(|i| format!("N{i}")).collect();
    (0..u64::MAX).prop_map(move |seed| gen_expr(&mut StdRng::seed_from_u64(seed), &names, 3))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// print → parse → print is a fixpoint (round-trip modulo the
    /// associativity the parser fixes for `+` and concatenation — the
    /// generator builds arbitrary trees, the parser canonical ones).
    #[test]
    fn pretty_print_parse_round_trip(expr in seeded_expr()) {
        let policy = Policy { expr };
        let printed = policy.to_string();
        let reparsed = parse_policy(&printed)
            .unwrap_or_else(|e| panic!("reparse of {printed:?}: {e}"));
        let reprinted = reparsed.to_string();
        prop_assert_eq!(&printed, &reprinted);
        // And the canonical form is a true fixpoint.
        let again = parse_policy(&reprinted).unwrap();
        prop_assert_eq!(reparsed, again);
    }

    /// Normalization either fails with a typed error or yields branches
    /// that are exhaustive and exclusive for every acceptance/metric
    /// combination we can throw at them.
    #[test]
    fn normalization_is_total_and_exhaustive(
        expr in seeded_expr(),
        util in 0u32..20,
        lat in 0u32..20,
        len in 0u32..10,
        acc_bits in 0u32..256,
    ) {
        let policy = Policy { expr };
        let Ok(normal) = normalize(&policy) else { return Ok(()) };
        let acc: Vec<bool> = (0..normal.regexes.len())
            .map(|i| acc_bits >> i & 1 == 1)
            .collect();
        let mv = MetricVec::new(util as f64 / 10.0, lat as f64 / 10.0, len as f64);
        // Exactly one branch applies.
        let applicable = normal
            .branches
            .iter()
            .filter(|b| b.applies(&acc, &mv))
            .count();
        prop_assert_eq!(applicable, 1, "policy {} acc {:?}", policy, acc);
        // And evaluation is therefore well-defined (no panic).
        let _ = normal.rank(&acc, &mv);
    }

    /// Rank evaluation is monotone under path extension for policies the
    /// analyzer accepts wholesale (spot check of the monotonicity
    /// analysis): extending the path never *improves* the retention rank
    /// of any subpolicy.
    #[test]
    fn retention_ranks_never_improve_under_extension(
        expr in seeded_expr(),
        util in 0u32..=10,
        lat in 0u32..=10,
        len in 0u32..5,
        link_util in 0u32..=10,
        link_lat in 0u32..=10,
    ) {
        let policy = Policy { expr };
        let Ok(normal) = normalize(&policy) else { return Ok(()) };
        let Ok(analysis) = contra_core::analysis::analyze(&normal) else { return Ok(()) };
        let mv = MetricVec::new(util as f64 / 10.0, lat as f64 / 10.0, len as f64);
        let ext = mv.extend(link_util as f64 / 10.0, link_lat as f64 / 10.0);
        for sub in &analysis.subpolicies {
            let before = contra_core::Rank::tuple(
                sub.retention.iter().map(|e| e.eval(&mv)).collect(),
            );
            let after = contra_core::Rank::tuple(
                sub.retention.iter().map(|e| e.eval(&ext)).collect(),
            );
            prop_assert!(
                after >= before,
                "retention improved under extension: {} → {} for {}",
                before, after, policy
            );
        }
    }
}
