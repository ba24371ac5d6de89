//! The operator commands behind `contra compile | lint | report | chaos`.
//!
//! Each takes its arguments (already split off the command name) and the
//! shared [`Out`], and returns `Err(Exit)` instead of exiting, so the
//! exit-code contract lives in one place ([`Exit`]) and `main` stays a
//! dispatcher.

use crate::figures::failure_cell;
use crate::{lint_corpus, Exit, Out, Scale};
use contra_core::{policies, verify, verify_source, Compiler, Diagnostic, Severity, Span};
use contra_experiments::{
    parse_topology_spec, CompileCache, Contra, FaultPlan, Hula, RoutingSystem, RunResult, Scenario,
};
use contra_p4gen::{emit_switch_program, max_switch_state_kb, switch_state, validate};
use contra_sim::{SimStats, Time};
use contra_telemetry::{json_escape, validate_json};
use contra_topology::Topology;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Display;
use std::fmt::Write as _;
use std::io::Write as _;

/// The one `--flag value` parser: a flag in `valued` takes the next
/// argument, a flag in `switches` takes none, anything else — or a valued
/// flag with nothing after it — is a usage error.
fn parse_flags(
    args: &[String],
    valued: &[&str],
    switches: &[&str],
) -> Result<HashMap<String, String>, Exit> {
    let mut flags = HashMap::new();
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let value = if valued.contains(&flag.as_str()) {
            args.next()
                .ok_or_else(|| Exit::Usage(format!("{flag} needs a value")))?
                .clone()
        } else if switches.contains(&flag.as_str()) {
            String::new()
        } else {
            return Err(Exit::Usage(format!("unknown argument {flag:?}")));
        };
        flags.insert(flag.clone(), value);
    }
    Ok(flags)
}

fn parse_topology(spec: &str) -> Result<Topology, Exit> {
    parse_topology_spec(spec).map_err(|e| Exit::Usage(e.to_string()))
}

fn io_failed(out: &mut Out, what: &str, path: &str, e: std::io::Error) -> Exit {
    out.note(format_args!("cannot {what} {path}: {e}"));
    Exit::Failed
}

/// `contra compile` — the command-line compiler: policy + topology in,
/// per-switch P4₁₆ programs out.
///
/// ```text
/// contra compile --topology fat-tree:4 --policy 'minimize(path.util)' --out /tmp/p4
/// contra compile --topology abilene --policy 'minimize(if .* Denver .* then path.util else inf)'
/// contra compile --topology zoo:Aarnet.graphml --policy 'minimize(path.len)'
/// ```
///
/// Topology specs share the [`contra_experiments`] syntax, so anything
/// compilable here is also runnable as a `Scenario`. Without `--out`,
/// prints a compilation report (tags, pids, state model, diagnostics)
/// instead of writing files. The full static policy verifier (black holes,
/// single-cable fragility, dead code) always runs and its findings are
/// printed; `--verify` additionally makes the exit status non-zero if it
/// reports errors. With `--out`, a program that fails validation is
/// reported by switch and not written, an output directory or file that
/// cannot be written is reported by path, and two switches whose names
/// map to one file name (`/` is written as `_`) are reported by name
/// before anything is written; each exits 1.
pub fn compile(args: &[String], out: &mut Out) -> Result<(), Exit> {
    let mut flags = parse_flags(args, &["--topology", "--policy", "--out"], &["--verify"])?;
    let (Some(tspec), Some(policy)) = (flags.remove("--topology"), flags.remove("--policy")) else {
        return Err(Exit::Usage(
            "compile needs --topology and --policy".to_string(),
        ));
    };
    let topo = parse_topology(&tspec)?;
    out.note(format_args!(
        "topology: {} switches, {} directed links",
        topo.num_switches(),
        topo.num_links()
    ));

    let started = std::time::Instant::now();
    let cp = CompileCache::new()
        .get_or_compile(&topo, &policy)
        .map_err(|e| {
            out.note(format_args!("compile error: {e}"));
            Exit::Failed
        })?;
    // Milliseconds: every built-in cell compiles in well under one, and
    // a line in seconds read `0.000s` for all of them.
    out.note(format_args!(
        "compiled in {:.3} ms",
        started.elapsed().as_secs_f64() * 1e3
    ));
    out.note(format_args!(
        "probe subpolicies (pids): {}; product-graph vnodes: {}; max tags/switch: {}",
        cp.num_pids(),
        cp.total_tags(),
        cp.pg.max_tags_per_switch()
    ));
    out.note(format_args!(
        "metric basis: {:?}; probe period floor: {} ns",
        cp.basis.attrs().collect::<Vec<_>>(),
        cp.min_probe_period_ns
    ));
    let report = verify(&cp, &topo);
    if !report.diagnostics.is_empty() {
        write!(out.notes, "{}", report.render(Some(&policy))).expect("emit note");
    }
    out.note(format_args!(
        "max switch state: {:.1} kB",
        max_switch_state_kb(&cp)
    ));

    if let Some(dir) = flags.remove("--out") {
        // One file per switch, named after it with `/` as `_`: two
        // switches whose names differ only there would share a file.
        let files: Vec<_> = cp
            .programs
            .keys()
            .map(|&sw| {
                let name = &topo.node(sw).name;
                (sw, name, format!("{dir}/{}.p4", name.replace('/', "_")))
            })
            .collect();
        let mut written_by = BTreeMap::new();
        let mut shared = false;
        for (_, name, path) in &files {
            if let Some(other) = written_by.insert(path, name) {
                out.note(format_args!(
                    "switches {other:?} and {name:?} would both be written to {path}"
                ));
                shared = true;
            }
        }
        if shared {
            return Err(Exit::Failed);
        }
        std::fs::create_dir_all(&dir).map_err(|e| io_failed(out, "create", &dir, e))?;
        let (mut total, mut invalid) = (0usize, 0usize);
        for (sw, name, path) in &files {
            let p4 = emit_switch_program(&cp, *sw);
            let errs = validate(&p4);
            for e in &errs {
                writeln!(out.notes, "{name}: {e}").expect("emit note");
            }
            if !errs.is_empty() {
                invalid += 1;
                continue;
            }
            std::fs::write(path, &p4).map_err(|e| io_failed(out, "write", path, e))?;
            total += p4.len();
        }
        if invalid > 0 {
            out.note(format_args!(
                "{invalid} emitted programs failed validation and were not written"
            ));
            return Err(Exit::Failed);
        }
        out.note(format_args!(
            "wrote {} programs ({total} bytes of P4) to {dir}",
            cp.programs.len()
        ));
    } else {
        // Report mode: summarize the largest switch program.
        let (&sw, program) = cp
            .programs
            .iter()
            .max_by_key(|(_, p)| p.tags.len())
            .expect("programs exist");
        let st = switch_state(&cp, sw);
        out.note(format_args!(
            "largest program: {} — {} tags, FwdT {} B, BestT {} B, flowlets {} B, total {:.1} kB",
            topo.node(sw).name,
            program.tags.len(),
            st.fwdt_bytes,
            st.best_bytes,
            st.flowlet_bytes,
            st.total_kb()
        ));
    }

    if flags.contains_key("--verify") && report.has_errors() {
        return Err(Exit::Failed);
    }
    Ok(())
}

/// `contra lint` — static policy verification over the builtin corpus.
///
/// Runs the compile-time verifier (black holes, single-cable fragility,
/// dead/shadowed branches, unsatisfiable guards) for every Figure 3
/// catalogue policy (P1–P9) on four topologies: the §6.3 leaf-spine
/// fabric, a 4-ary fat-tree, the §6.4 Abilene backbone and the Figure 6
/// diamond. Prints a rustc-style report per finding, emits one CSV row
/// per (topology, policy) cell — `lint,<topology>/<policy>,<errors>,
/// <warnings>` — and writes the full report to `CONTRA_LINT.txt` for the
/// CI artifact. Fails ([`Exit::Failed`]) if any cell produced an ERROR
/// diagnostic, which gates CI: the builtin corpus must stay black-hole
/// free.
///
/// One-off mode: `contra lint --topology <spec> --policy '<minimize(...)>'`
/// lints a single policy instead of the corpus.
///
/// Machine-readable mode: `--json` replaces the CSV rows on stdout with a
/// JSON array of diagnostic records — one object per diagnostic with
/// `topology`, `policy`, `code`, `severity`, `span` (`{"start", "end"}`
/// byte offsets, or `null` when the diagnostic has no source location),
/// `message` and `notes` (an array of strings, the lines the report prints
/// beneath the snippet — empty when there are none). The human-readable
/// report still goes to stderr and
/// `CONTRA_LINT.txt` either way.
pub fn lint(args: &[String], out: &mut Out) -> Result<(), Exit> {
    let mut flags = parse_flags(args, &["--topology", "--policy"], &["--json"])?;
    // `--json`: one object per diagnostic, emitted instead of CSV rows.
    let mut records = flags.remove("--json").map(|_| Vec::new());
    // What to lint: `(topology label, topology, [(policy label, source)])`.
    type Corpus = Vec<(String, Topology, Vec<(&'static str, String)>)>;
    let corpus: Corpus = match (flags.remove("--topology"), flags.remove("--policy")) {
        (Some(tspec), Some(src)) => {
            let topo = parse_topology(&tspec)?;
            vec![(tspec, topo, vec![("custom", src)])]
        }
        (None, None) => lint_corpus()
            .into_iter()
            .map(|(label, topo, [f1, f2, x, y])| {
                (label.to_string(), topo, policies::catalogue(f1, f2, x, y))
            })
            .collect(),
        _ => {
            let why = "--topology and --policy must be given together";
            return Err(Exit::Usage(why.to_string()));
        }
    };

    // The rustc-style report (stderr and `CONTRA_LINT.txt`).
    let mut report = String::new();
    let (mut cells, mut total_errors, mut total_warnings) = (0, 0, 0);
    for (topo_label, topo, policies) in &corpus {
        for (policy_label, src) in policies {
            cells += 1;
            let (_, found) = verify_source(src, topo);
            let count = |severity| {
                let of_severity = |d: &&Diagnostic| d.severity == severity;
                found.diagnostics.iter().filter(of_severity).count()
            };
            let (errors, warnings) = (count(Severity::Error), count(Severity::Warning));
            total_errors += errors;
            total_warnings += warnings;
            let _ = writeln!(report, "## {topo_label} × {policy_label}\n   {src}");
            if found.diagnostics.is_empty() {
                let _ = writeln!(report, "clean\n");
            } else {
                let _ = writeln!(report, "{}", found.render(Some(src)));
            }
            let Some(records) = &mut records else {
                out.row(format_args!(
                    "lint,{topo_label}/{policy_label},{errors},{warnings}"
                ));
                continue;
            };
            for d in &found.diagnostics {
                let span = if d.span == Span::DUMMY {
                    "null".to_string()
                } else {
                    format!("{{\"start\":{},\"end\":{}}}", d.span.start, d.span.end)
                };
                let notes: Vec<String> = d
                    .notes
                    .iter()
                    .map(|n| format!("\"{}\"", json_escape(n)))
                    .collect();
                records.push(format!(
                    "{{\"topology\":\"{}\",\"policy\":\"{}\",\"code\":\"{}\",\
                     \"severity\":\"{}\",\"span\":{},\"message\":\"{}\",\"notes\":[{}]}}",
                    json_escape(topo_label),
                    json_escape(policy_label),
                    json_escape(d.code),
                    d.severity,
                    span,
                    json_escape(&d.message),
                    notes.join(","),
                ));
            }
        }
    }

    let _ = writeln!(
        report,
        "lint: {cells} cells, {total_errors} errors, {total_warnings} warnings"
    );
    match records {
        Some(records) if records.is_empty() => out.row("[]"),
        Some(records) => out.row(format_args!("[\n  {}\n]", records.join(",\n  "))),
        None => {}
    }
    write!(out.notes, "{report}").expect("emit note");
    if let Err(e) = std::fs::write("CONTRA_LINT.txt", &report) {
        out.note(format_args!("could not write CONTRA_LINT.txt: {e}"));
    }
    if total_errors > 0 {
        return Err(Exit::Failed);
    }
    Ok(())
}

/// `contra chaos` — a seeded random fault plan (100+ events) hammered at
/// the §6.3 fabric with the runtime invariant auditor forced on.
///
/// The expanded plan is written to `CHAOS_PLAN.txt` **before** the first
/// simulation starts, so if the auditor (or anything else) panics, the
/// exact event list that killed the run survives as an artifact and the
/// failure replays with `CONTRA_CHAOS_SEED=<seed>` (which `main` reads
/// and passes as `seed`; unset, a fixed default).
///
/// Every system runs twice; the runs must agree byte for byte — chaos
/// lives in the plan, never in the execution. A plan file that cannot be
/// written, or a seed whose plan realizes fewer than 100 events, is
/// reported and exits 1 before anything runs (the plan is written
/// first either way).
pub fn chaos(args: &[String], seed: Option<u64>, out: &mut Out) -> Result<(), Exit> {
    parse_flags(args, &[], &[])?;
    let seed = seed.unwrap_or(20_260_808);
    let plan = FaultPlan::new()
        .random(seed, 4_000.0, Time::ms(1))
        .window(Time::ms(1), Time::ms(16));
    let base = Scenario::leaf_spine(4, 2, 2)
        .udp(4e9)
        .duration(Time::ms(16))
        .warmup(Time::ZERO)
        .drain(Time::ms(2))
        .fault_plan(plan)
        .audit(true);

    let cmds = base.resolved_faults();
    let mut text = format!("# chaos plan seed={seed} ({} events)\n", cmds.len());
    for c in &cmds {
        let _ = writeln!(text, "{c}");
    }
    let path = "CHAOS_PLAN.txt";
    std::fs::File::create(path)
        .and_then(|mut f| {
            f.write_all(text.as_bytes())?;
            f.sync_all()
        })
        .map_err(|e| io_failed(out, "write", path, e))?;
    if cmds.len() < 100 {
        let n = cmds.len();
        out.note(format_args!(
            "plan must realize at least 100 events, got {n}"
        ));
        return Err(Exit::Failed);
    }
    out.note(format_args!(
        "chaos_smoke: seed={seed}, {} fault events, auditor on",
        cmds.len()
    ));

    let fingerprint = |s: &SimStats| {
        format!(
            "delivered={} drops={:?} wire={} events={} epochs={}",
            s.delivered_packets,
            s.drops,
            s.total_wire_bytes(),
            s.events_processed,
            s.fault_epochs.len(),
        )
    };
    let contra = Contra::dc();
    let systems: [&dyn RoutingSystem; 2] = [&contra, &Hula];
    for system in systems {
        let a = base.run(system);
        let b = base.run(system);
        let (fa, fb) = (fingerprint(&a.stats), fingerprint(&b.stats));
        assert_eq!(fa, fb, "{}: chaos replay must be byte-identical", a.system);
        out.row(format_args!(
            "chaos_smoke,{},{} events,{fa}",
            a.system,
            cmds.len()
        ));
    }
    out.note("chaos_smoke: all systems audited clean and replay-stable");
    Ok(())
}

/// `contra report`: one observable run, rendered for humans and for
/// Perfetto.
///
/// Runs the Fig 14 seed-1 failure cell (leaf-spine(4,2,8), constant
/// 4.25 Gbps UDP, uplink cut at 50 ms) with the telemetry recorder on —
/// **twice**, asserting every export is byte-identical across the two
/// runs, so the determinism contract is enforced on the exact artifact
/// CI uploads — and writes:
///
/// - `TELEM_TRACE.json` — Chrome trace-event JSON; load it in
///   [Perfetto](https://ui.perfetto.dev) to scrub through the failure.
/// - `TELEM_METRICS.csv` — every time series / counter / histogram.
/// - `RUN_REPORT.txt` — the human-readable digest: scenario, figures of
///   merit, fault epochs, drops, event census, engine counters, and the
///   policy compiler's per-stage profile (asserted to sum to its total
///   within 1%).
///
/// [`Scale::Fast`] shrinks the cell (cut at 5 ms, 12 ms stream) so CI
/// smoke runs stay cheap; the artifact schema is identical. A file that
/// cannot be written is reported by path and exits 1.
pub fn report(args: &[String], scale: Scale, out: &mut Out) -> Result<(), Exit> {
    parse_flags(args, &[], &[])?;
    let (duration, cut) = scale.pick((Time::ms(12), Time::ms(5)), (Time::ms(60), Time::ms(50)));
    let system = Contra::dc();
    let scenario = failure_cell(duration, cut, 1)
        // Sized so the full-mode cell's event history fits without
        // eviction — the uploaded trace is the complete run.
        .telemetry(true)
        .telemetry_ring(1 << 19);
    out.note(format_args!(
        "contra_report: {} / Contra, telemetry on, run twice for determinism",
        scenario.label()
    ));
    let a = scenario.run(&system);
    let telem_a = a.telemetry.as_ref().expect("telemetry requested");
    let b = scenario.run(&system);
    let telem_b = b.telemetry.as_ref().expect("telemetry requested");

    // Determinism gate: the artifacts below must replay byte-identically.
    let trace = telem_a.chrome_trace();
    assert_eq!(trace, telem_b.chrome_trace(), "trace must replay");
    let csv = telem_a.metrics_csv();
    assert_eq!(csv, telem_b.metrics_csv(), "metrics must replay");
    out.note("determinism: both runs produced byte-identical exports");

    validate_json(&trace).expect("chrome trace must be valid JSON");
    assert_eq!(
        telem_a.events_evicted, 0,
        "ring sized for this cell — the uploaded trace must be complete"
    );

    // The compile-pipeline profile for the policy this cell ran.
    let (_, profile) = Compiler::new(scenario.topology())
        .compile_str_profiled(&system.policy)
        .expect("the shipped policy compiles");
    let drift = profile.total.abs_diff(profile.stage_sum());
    assert!(
        drift <= profile.total / 100,
        "stage sum must be within 1% of total ({drift:?} off {:?})",
        profile.total
    );

    let rpt = run_report(&a) + &profile.render();

    for (path, contents) in [
        ("TELEM_TRACE.json", &trace),
        ("TELEM_METRICS.csv", &csv),
        ("RUN_REPORT.txt", &rpt),
    ] {
        std::fs::write(path, contents).map_err(|e| io_failed(out, "write", path, e))?;
        out.note(format_args!("wrote {path} ({} bytes)", contents.len()));
    }
    write!(out.notes, "{rpt}").expect("emit note");
    Ok(())
}

/// `RUN_REPORT.txt` down to the heading of its compile-profile section:
/// everything that is a pure function of the run.
fn run_report(a: &RunResult) -> String {
    let (stats, figures) = (&a.stats, &a.figures);
    let telem = a.telemetry.as_ref().expect("telemetry requested");
    let mut rpt = format!(
        "contra run report\n=================\n\
         scenario : {} / {}  (workload {}, seed {})\n\
         window   : {:.1} ms stream, warmup {:.1} ms\n",
        a.scenario.scenario,
        a.system,
        a.scenario.workload,
        a.scenario.seed,
        a.scenario.duration.as_millis_f64(),
        a.scenario.warmup.as_millis_f64()
    );
    // A blank line, the section title, its underline; then `name value`
    // lines with the value right-aligned to end in column 34.
    let section =
        |title: &str, more: &str| format!("\n{title}{more}\n{}\n", "-".repeat(title.len()));
    let line = |name: &str, value: &dyn Display, more: &str| {
        let width = 31usize.saturating_sub(name.len());
        format!("  {name} {value:>width$}{more}\n")
    };

    rpt += &section("figures of merit", "");
    rpt += &line("delivered packets", &figures.delivered_packets, "");
    let overhead = format!("  (probe overhead {})", figures.overhead_bytes);
    rpt += &line("wire bytes", &figures.total_wire_bytes, &overhead);
    if let Some(c) = figures.convergence_ms {
        rpt += &line("convergence", &format!("{c:.3}"), " ms");
    }
    rpt += &line("lost in convergence", &figures.lost_in_convergence, "");
    let goodput = stats.udp_goodput_gbps();
    if let Some((dip_t, dip_gbps)) = goodput.iter().min_by(|x, y| x.1.total_cmp(&y.1)) {
        let at = format!(" Gbps at {:.2} ms", dip_t.as_millis_f64());
        rpt += &line("goodput dip", &format!("{dip_gbps:.2}"), &at);
    }

    rpt += &section("fault epochs", "");
    for e in &stats.fault_epochs {
        let _ = writeln!(
            rpt,
            "  {:>8.3} ms  {:<24} convergence {:>8.3} ms, {} drops",
            e.at.as_millis_f64(),
            e.label,
            e.convergence().as_millis_f64(),
            e.disruption_drops
        );
    }

    rpt += &section("drops by reason", "");
    if stats.drops.is_empty() {
        rpt += "  (none)\n";
    }
    for (reason, n) in &stats.drops {
        let _ = writeln!(rpt, "  {reason:<12?} {n:>12}");
    }

    rpt += &section("engine counters", "");
    rpt += &line("events_processed", &stats.events_processed, "");
    rpt += &line("sched_peak_pending", &stats.sched_peak_pending, "");
    rpt += &line("sched_cascades", &stats.sched_cascades, "");
    rpt += &line("sched_overflow", &stats.sched_overflow, "");
    let sw = &stats.switches;
    let (flowlet, looped) = (sw.flowlets_displaced, sw.loops_displaced);
    let split = format!("  (flowlet {flowlet} + loop {looped})");
    rpt += &line("register displacements", &(flowlet + looped), &split);

    rpt += &section("trace census", &format!(" ({} events)", telem.events.len()));
    for (name, n) in telem.event_counts() {
        let _ = writeln!(rpt, "  {name:<12} {n:>12}");
    }
    let _ = writeln!(
        rpt,
        "  metric points held: {} across series (evicted events: {})",
        telem.metrics.total_points(),
        telem.events_evicted
    );

    rpt + &section("compile profile", &format!(" ({} policy)", a.system))
}
