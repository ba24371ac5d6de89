//! `compare A.json B.json`: B against baseline A, one row per
//! `(metric, workload)`, judged by the bounds in the metric table.

use crate::metrics;
use crate::report::{Results, Row};
use std::fmt::Write as _;

/// How B's headline stands against A's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Improved,
    Regressed,
    /// The reps' interquartile range is wider than the bound: the run
    /// cannot tell a change of that size from the host's noise.
    Unresolved,
    /// A per-layer metric: reported, not judged.
    NoBound,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::NoBound => "-",
        }
    }
}

pub fn judge(a: &Row, b: &Row) -> Verdict {
    let Some(m) = metrics::find(&a.name) else {
        return Verdict::NoBound;
    };
    let Some(bound) = m.bound else {
        return Verdict::NoBound;
    };
    if a.summary.iqr_pct().max(b.summary.iqr_pct()) > 100.0 * bound
        && m.stat != metrics::Stat::Exact
    {
        return Verdict::Unresolved;
    }
    // Orient so that larger is worse.
    let (base, new) = if m.higher_is_better {
        (-a.value, -b.value)
    } else {
        (a.value, b.value)
    };
    let slack = bound * base.abs();
    if new > base + slack {
        Verdict::Regressed
    } else if new < base - slack {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// The comparison table, and whether B is acceptable: no end-to-end
/// regression and no larger share of failed operations.
pub fn compare(a: &Results, b: &Results) -> (String, bool) {
    let mut out = format!(
        "baseline A: git={} seed={} rounds={}   B: git={} seed={} rounds={}\n",
        a.header.git_rev,
        a.header.seed,
        a.header.rounds,
        b.header.git_rev,
        b.header.seed,
        b.header.rounds
    );
    let _ = writeln!(
        out,
        "{:<14} {:<30} {:>14} {:>14} {:<6} {:>22}  verdict",
        "workload", "metric", "A", "B", "unit", "B/A"
    );
    let mut ok = true;
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            let _ = writeln!(out, "{:<14} missing from B", wa.name);
            ok = false;
            continue;
        };
        for ra in &wa.rows {
            let Some(rb) = wb.rows.iter().find(|r| r.name == ra.name) else {
                continue;
            };
            let verdict = judge(ra, rb);
            ok &= verdict != Verdict::Regressed;
            let ratio = if ra.value == 0.0 {
                "n/a".to_string()
            } else {
                format!("{:.4} of {:.6}", rb.value / ra.value, ra.value)
            };
            let _ = writeln!(
                out,
                "{:<14} {:<30} {:>14.6} {:>14.6} {:<6} {:>22}  {}",
                wa.name,
                ra.name,
                ra.value,
                rb.value,
                ra.unit,
                ratio,
                verdict.label()
            );
        }
        let share = |failed: u64, attempted: u64| failed as f64 / attempted.max(1) as f64;
        let (fa, fb) = (
            share(wa.ops_failed, wa.ops_attempted),
            share(wb.ops_failed, wb.ops_attempted),
        );
        let _ = writeln!(
            out,
            "{:<14} failed operations: A {}/{}  B {}/{}{}",
            wa.name,
            wa.ops_failed,
            wa.ops_attempted,
            wb.ops_failed,
            wb.ops_attempted,
            if fb > fa { "  MORE FAILURES" } else { "" }
        );
        ok &= fb <= fa;
    }
    (out, ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{row, Header, WorkloadResult};

    fn results(run_s: &[f64], allocs: f64, failed: u64) -> Results {
        let find = |n| metrics::find(n).unwrap();
        Results {
            header: Header::default(),
            workloads: vec![WorkloadResult {
                name: "dc_tcp".into(),
                ops_attempted: 10,
                ops_failed: failed,
                failures: vec![],
                rows: vec![
                    row(find("run_s"), run_s).unwrap(),
                    row(find("allocs_per_run"), &[allocs]).unwrap(),
                    row(find("sim.ns_per_event"), &[run_s[0] * 250.0]).unwrap(),
                ],
            }],
        }
    }

    fn verdicts(a: &Results, b: &Results) -> Vec<Verdict> {
        let (wa, wb) = (&a.workloads[0], &b.workloads[0]);
        wa.rows
            .iter()
            .zip(&wb.rows)
            .map(|(x, y)| judge(x, y))
            .collect()
    }

    const STEADY: [f64; 5] = [0.400, 0.401, 0.402, 0.403, 0.404];

    #[test]
    fn a_against_itself_is_unchanged() {
        let a = results(&STEADY, 500_000.0, 0);
        assert_eq!(
            verdicts(&a, &a),
            [Verdict::Unchanged, Verdict::Unchanged, Verdict::NoBound]
        );
        let (table, ok) = compare(&a, &a);
        assert!(ok, "{table}");
        assert!(table.contains("1.0000 of 0.400000"), "{table}");
    }

    #[test]
    fn regressions_and_improvements_are_judged_against_the_bound() {
        let bound = |name| metrics::find(name).unwrap().bound.unwrap();
        let (time, allocs) = (bound("run_s"), 500_000.0 * bound("allocs_per_run"));
        let a = results(&STEADY, 500_000.0, 0);
        let slower = results(&STEADY.map(|s| s * (1.02 + time)), 500_000.0, 0);
        let faster = results(&STEADY.map(|s| s * (0.98 - time)), 490_000.0 - allocs, 0);
        let within = results(&STEADY.map(|s| s * (0.98 + time)), 490_000.0 + allocs, 0);
        assert_eq!(verdicts(&a, &slower)[0], Verdict::Regressed);
        assert_eq!(
            verdicts(&a, &faster)[..2],
            [Verdict::Improved, Verdict::Improved]
        );
        assert_eq!(
            verdicts(&a, &within)[..2],
            [Verdict::Unchanged, Verdict::Unchanged]
        );
        let (table, ok) = compare(&a, &slower);
        assert!(!ok && table.contains("REGRESSED"), "{table}");
        assert!(compare(&a, &faster).1);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let a = results(&STEADY, 500_000.0, 0);
        let noisy = results(&[0.40, 0.45, 0.50, 0.55, 0.60], 500_000.0, 0);
        assert_eq!(verdicts(&a, &noisy)[0], Verdict::Unresolved);
        assert!(compare(&a, &noisy).1, "unresolved is not a regression");
    }

    #[test]
    fn more_failed_operations_fail_the_comparison() {
        let a = results(&STEADY, 500_000.0, 0);
        let b = results(&STEADY, 500_000.0, 1);
        let (table, ok) = compare(&a, &b);
        assert!(!ok && table.contains("MORE FAILURES"), "{table}");
        assert!(compare(&b, &a).1, "fewer failures is fine");
    }
}
