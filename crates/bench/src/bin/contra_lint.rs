//! `contra_lint` — static policy verification over the builtin corpus.
//!
//! Runs the compile-time verifier (black holes, single-cable fragility,
//! dead/shadowed branches, unsatisfiable guards) for every Figure 3
//! catalogue policy (P1–P9) on four topologies: the §6.3 leaf-spine
//! fabric, a 4-ary fat-tree, the §6.4 Abilene backbone and the Figure 6
//! diamond. Prints a rustc-style report per finding, emits one CSV row
//! per (topology, policy) cell — `lint,<topology>/<policy>,<errors>,
//! <warnings>` — and writes the full report to `CONTRA_LINT.txt` for the
//! CI artifact. Exits non-zero if any cell produced an ERROR diagnostic,
//! which gates CI: the builtin corpus must stay black-hole free.
//!
//! One-off mode: `contra_lint --topology <spec> --policy '<minimize(...)>'`
//! lints a single policy instead of the corpus.
//!
//! Machine-readable mode: `--json` replaces the CSV rows on stdout with a
//! JSON array of diagnostic records — one object per diagnostic with
//! `topology`, `policy`, `code`, `severity`, `span` (`{"start", "end"}`
//! byte offsets, or `null` when the diagnostic has no source location)
//! and `message`. The human-readable report still goes to stderr and
//! `CONTRA_LINT.txt` either way.
//!
//! Exit-code contract (stable, relied on by CI):
//! - `0` — every cell linted clean or produced only warnings/info;
//! - `1` — at least one ERROR-severity diagnostic;
//! - `2` — usage error (unknown flag, `--topology` without `--policy`,
//!   or an unparsable topology spec). Nothing was linted.

use contra_bench::{csv_row, json_escape, lint_corpus, parse_topology_spec};
use contra_core::{policies, verify_source, Severity};
use contra_topology::Topology;
use std::fmt::Write as _;

/// One diagnostic as a JSON object, or `None` to emit CSV instead.
type JsonOut<'a> = Option<&'a mut Vec<String>>;

fn lint_cell(
    report_out: &mut String,
    json_out: JsonOut<'_>,
    topo_label: &str,
    topo: &Topology,
    policy_label: &str,
    src: &str,
) -> (usize, usize) {
    let (_, report) = verify_source(src, topo);
    let errors = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Warning)
        .count();
    let _ = writeln!(report_out, "## {topo_label} × {policy_label}\n   {src}");
    if report.diagnostics.is_empty() {
        let _ = writeln!(report_out, "clean\n");
    } else {
        let _ = writeln!(report_out, "{}", report.render(Some(src)));
    }
    if let Some(records) = json_out {
        for d in &report.diagnostics {
            let span = if d.span == contra_core::Span::DUMMY {
                "null".to_string()
            } else {
                format!("{{\"start\":{},\"end\":{}}}", d.span.start, d.span.end)
            };
            records.push(format!(
                "{{\"topology\":\"{}\",\"policy\":\"{}\",\"code\":\"{}\",\
                 \"severity\":\"{}\",\"span\":{},\"message\":\"{}\"}}",
                json_escape(topo_label),
                json_escape(policy_label),
                json_escape(d.code),
                d.severity,
                span,
                json_escape(&d.message),
            ));
        }
    } else {
        csv_row(
            "lint",
            &format!("{topo_label}/{policy_label}"),
            errors,
            warnings,
        );
    }
    (errors, warnings)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut topology = None;
    let mut policy = None;
    let mut json = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--topology" => {
                topology = args.get(i + 1).cloned();
                i += 2;
            }
            "--policy" => {
                policy = args.get(i + 1).cloned();
                i += 2;
            }
            "--json" => {
                json = true;
                i += 1;
            }
            _ => {
                eprintln!(
                    "usage: contra_lint [--json] [--topology <spec> --policy '<minimize(...)>']\n\
                     (no arguments: lint the builtin P1–P9 corpus)\n\
                     --json: emit a JSON array of diagnostics on stdout instead of CSV rows\n\
                     exit codes: 0 = clean or warnings only, 1 = errors found, 2 = usage error"
                );
                std::process::exit(2);
            }
        }
    }

    let mut report = String::new();
    let mut records: Vec<String> = Vec::new();
    let mut total_errors = 0usize;
    let mut total_warnings = 0usize;
    let mut cells = 0usize;

    match (topology, policy) {
        (Some(tspec), Some(src)) => {
            let topo = match parse_topology_spec(&tspec) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(2);
                }
            };
            let json_out = json.then_some(&mut records);
            let (e, w) = lint_cell(&mut report, json_out, &tspec, &topo, "custom", &src);
            total_errors += e;
            total_warnings += w;
            cells += 1;
        }
        (None, None) => {
            for (topo_label, topo, [f1, f2, x, y]) in lint_corpus() {
                for (policy_label, src) in policies::catalogue(f1, f2, x, y) {
                    let json_out = json.then_some(&mut records);
                    let (e, w) =
                        lint_cell(&mut report, json_out, topo_label, &topo, policy_label, &src);
                    total_errors += e;
                    total_warnings += w;
                    cells += 1;
                }
            }
        }
        _ => {
            eprintln!("--topology and --policy must be given together");
            std::process::exit(2);
        }
    }

    let _ = writeln!(
        report,
        "lint: {cells} cells, {total_errors} errors, {total_warnings} warnings"
    );
    if json {
        if records.is_empty() {
            println!("[]");
        } else {
            println!("[\n  {}\n]", records.join(",\n  "));
        }
    }
    eprint!("{report}");
    if let Err(e) = std::fs::write("CONTRA_LINT.txt", &report) {
        eprintln!("could not write CONTRA_LINT.txt: {e}");
    }
    if total_errors > 0 {
        std::process::exit(1);
    }
}
