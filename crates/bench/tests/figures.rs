//! The figure table, driven in-process: a figure is a function of
//! `(Scale, &mut Out)`, so a test can run one into a buffer and compare
//! it with the checked-in golden — `golden/figures_fast.csv`, the stdout
//! of `contra fig all` at `CONTRA_BENCH_FAST=1` scale with `fig09`'s
//! wall-clock column blanked. CI compares the whole file against a real
//! `fig all` run; this suite drives the figures that take well under a
//! second in release.

use contra_bench::figures::{self, FIGURES};
use contra_bench::{Out, Scale};

const GOLDEN: &str = include_str!("golden/figures_fast.csv");

/// Runs `contra fig <names>` at smoke scale into `(rows, notes)`.
fn run(names: &[&str]) -> (String, String) {
    let names: Vec<String> = names.iter().map(|n| n.to_string()).collect();
    let (mut rows, mut notes) = (Vec::new(), Vec::new());
    let mut out = Out {
        rows: &mut rows,
        notes: &mut notes,
    };
    figures::run(&names, Scale::Fast, &mut out).expect("known figures run");
    let text = |bytes| String::from_utf8(bytes).expect("figures emit UTF-8");
    (text(rows), text(notes))
}

/// The golden's rows for one figure (its sub-figures included).
fn golden_rows(figure: &str) -> String {
    let of_figure = |row: &&str| row.starts_with(figure);
    GOLDEN
        .lines()
        .filter(of_figure)
        .fold(String::new(), |all, row| all + row + "\n")
}

#[test]
fn fast_figures_match_the_golden() {
    let (rows, notes) = run(&["fig10", "fig13", "fig14"]);
    let golden = golden_rows("fig10") + &golden_rows("fig13") + &golden_rows("fig14");
    assert!(
        rows == golden,
        "figure rows moved; got:\n{rows}\nexpected:\n{golden}"
    );
    // Each figure closes its summary with the paper's claim.
    assert_eq!(notes.matches("\npaper: ").count(), 3, "{notes}");
}

/// §5.3's sizing trade-off at smoke scale: with 16 direct-mapped flowlet
/// slots, live flowlets displace each other and re-route mid-burst, so
/// the median FCT is above that of the 1024-slot table.
#[test]
fn fig10c_small_flowlet_table_costs_fct() {
    let (rows, _) = run(&["fig10"]);
    let p50 = |slots: &str| -> f64 {
        let prefix = format!("fig10c-fct,Contra-p50,{slots},");
        let row = rows.lines().find_map(|r| r.strip_prefix(&prefix));
        row.expect("fig10c-fct has the size").parse().unwrap()
    };
    assert!(p50("16") > p50("1024"), "{rows}");
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

/// Fig 14's protocol claim, per adaptive system: after the `leaf0`–`spine0`
/// cut, routing stops losing packets within ~1 ms and goodput returns to
/// its pre-failure level. For Hula this is the regression test of the
/// per-destination flowlet rule: flowlets on *other* leaves were pinned to
/// the live `spine0`, which had lost its only link to `leaf0`, and
/// constant-rate UDP never left the idle gap that would have expired them.
#[test]
fn every_adaptive_system_reconverges_in_fig14() {
    use contra_bench::{Contra, Hula, RoutingSystem};
    use contra_sim::Time;
    let systems: [&dyn RoutingSystem; 2] = [&Contra::dc(), &Hula];
    for system in systems {
        let r = figures::failure_cell(Time::ms(60), Time::ms(50), 1).run(system);
        let conv = r
            .figures
            .convergence_ms
            .expect("the cut is a failure epoch");
        assert!(
            conv < 2.0,
            "{}: still dropping {conv} ms after the cut",
            r.system
        );
        let goodput = r.stats.udp_goodput_gbps();
        let mean_over = |from: Time, to: Time| {
            let window: Vec<f64> = goodput
                .iter()
                .filter(|(t, _)| *t >= from && *t < to)
                .map(|&(_, gbps)| gbps)
                .collect();
            window.iter().sum::<f64>() / window.len() as f64
        };
        let (before, after) = (
            mean_over(Time::ms(40), Time::ms(50)),
            mean_over(Time::ms(59), Time::ms(60)),
        );
        assert!(
            after >= 0.95 * before,
            "{}: {after:.3} Gbps in the last millisecond, {before:.3} before the cut",
            r.system
        );
    }
}
