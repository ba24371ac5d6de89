//! The figure table, driven in-process: a figure is a function of
//! `(Scale, &mut Out)`, so a test can run one into a buffer and compare
//! it with the checked-in golden — `golden/figures_fast.csv`, the stdout
//! of `contra fig all` at `CONTRA_BENCH_FAST=1` scale with `fig09`'s
//! wall-clock column blanked. CI compares the whole file against a real
//! `fig all` run; this suite drives the figures that take well under a
//! second in release, and checks every figure's claims on the golden.

use contra_bench::figures::{self, FIGURES};
use contra_bench::{Out, Scale};

const GOLDEN: &str = include_str!("golden/figures_fast.csv");

/// The golden's rows for one figure (its sub-figures included).
fn golden_rows(figure: &str) -> String {
    let of_figure = |row: &&str| row.starts_with(figure);
    GOLDEN
        .lines()
        .filter(of_figure)
        .fold(String::new(), |all, row| all + row + "\n")
}

/// `contra fig fig10 fig13 fig14` at smoke scale: every checked claim
/// holds on the rows the run emits, and the rows are the golden's.
#[test]
fn fast_figures_match_the_golden() {
    let names = ["fig10", "fig13", "fig14"].map(String::from);
    let (mut rows, mut notes) = (Vec::new(), Vec::new());
    let mut out = Out {
        rows: &mut rows,
        notes: &mut notes,
    };
    let claims = figures::run(&names, Scale::Fast, &mut out);
    let text = |bytes| String::from_utf8(bytes).expect("figures emit UTF-8");
    let (rows, notes) = (text(rows), text(notes));
    assert!(claims.is_ok(), "a checked claim missed:\n{notes}");
    let golden = golden_rows("fig10") + &golden_rows("fig13") + &golden_rows("fig14");
    assert!(
        rows == golden,
        "figure rows moved; got:\n{rows}\nexpected:\n{golden}"
    );
}

#[test]
fn golden_covers_the_whole_table() {
    for f in &FIGURES {
        assert!(
            !golden_rows(f.name).is_empty(),
            "golden/figures_fast.csv has no rows for {}",
            f.name
        );
    }
    let tabled = |row: &str| FIGURES.iter().any(|f| row.starts_with(f.name));
    assert!(
        GOLDEN.lines().all(tabled),
        "golden row from no known figure"
    );
}

/// Every figure states a claim; every checked claim holds on the golden's
/// rows — fig11's included, which no test here simulates — and misses on
/// no rows at all, so a check whose rows vanish cannot pass.
#[test]
fn every_checked_claim_holds_on_the_golden() {
    for f in &FIGURES {
        assert!(!f.claims.is_empty(), "{} states no claim", f.name);
        for claim in f.claims {
            let Some(check) = claim.check else { continue };
            let verdict = check(&golden_rows(f.name));
            assert!(verdict.is_ok(), "{}: {}: {verdict:?}", f.name, claim.paper);
            let vacuous = check("").is_ok();
            assert!(!vacuous, "{}: {} holds on no rows", f.name, claim.paper);
        }
    }
}
