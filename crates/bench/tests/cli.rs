//! The `contra` binary's exit-code contract, which CI relies on:
//! 0 — done (`lint`: clean or warnings only); 1 — the command ran and
//! found errors; 2 — usage error, nothing ran, usage (with the figure
//! names) on stderr.

use std::process::{Command, Output};

fn contra(args: &[&str]) -> Output {
    // A command that gets as far as writing an artifact (`CONTRA_LINT.txt`,
    // `CHAOS_PLAN.txt`) writes it under `target/`, not into the crate.
    contra_in(env!("CARGO_TARGET_TMPDIR").as_ref(), args)
}

fn contra_in(dir: &std::path::Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_contra"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("contra runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn usage_errors_exit_2_with_usage() {
    let mu = "minimize(path.util)";
    let cases: [&[&str]; 11] = [
        &[],
        &["frobnicate"],
        &["fig"],
        &["fig", "nosuch"],
        &["lint", "--frobnicate"],
        &["lint", "--topology", "fat-tree:4"],
        &["lint", "--topology"],
        &["compile", "--policy", mu],
        &["compile", "--topology", "fat-tree:3", "--policy", mu],
        &["lint", "--topology", "leaf-spine:0,0,0", "--policy", mu],
        &["report", "now"],
    ];
    for args in cases {
        let out = contra(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} printed rows");
        assert!(err.contains("usage: contra"), "{args:?}: {err}");
        assert!(
            err.contains("fig09") && err.contains("loops"),
            "{args:?}: {err}"
        );
    }
}

/// A spec past what the emitted header can address is a usage error that
/// names its node count, decided before anything is built (this one used
/// to abort allocating).
#[test]
fn oversized_topology_spec_exits_2_naming_the_count() {
    let out = contra(&[
        "lint",
        "--topology",
        "random:99999999999",
        "--policy",
        "minimize(path.util)",
    ]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(
        err.contains(
            "topology spec \"random:99999999999\" has 99999999999 nodes, more than the 65536"
        ),
        "{err}"
    );
    assert!(err.contains("usage: contra"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

/// A fabric whose switches would have more ports than the emitted
/// program's `bit<9>` port field can number is a usage error decided from
/// the spec, before the fabric is built: this one is 65,000 nodes, within
/// the node bound, but would ask for 5 × 10⁸ cables.
#[test]
fn topology_spec_past_the_port_field_exits_2_naming_the_count() {
    let out = contra(&[
        "lint",
        "--topology",
        "leaf-spine:20000,25000,1",
        "--policy",
        "minimize(path.util)",
    ]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(
        err.contains(
            "topology spec \"leaf-spine:20000,25000,1\" has a switch of 25001 ports, more than \
             the 511 the emitted program's bit<9> port_t can number"
        ),
        "{err}"
    );
    assert!(err.contains("usage: contra"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn uncompilable_policy_exits_1() {
    let out = contra(&[
        "compile",
        "--topology",
        "fat-tree:4",
        "--policy",
        "minimize(path.nope)",
    ]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("compile error"), "{err}");
    assert!(
        !err.contains("usage:"),
        "a compile error is not a usage error: {err}"
    );
}

/// The one timing the operator sees says something: milliseconds, and
/// more than zero of them even for the smallest built-in cell.
#[test]
fn compile_reports_a_positive_time_in_ms() {
    let out = contra(&[
        "compile",
        "--topology",
        "fat-tree:4",
        "--policy",
        "minimize(path.util)",
    ]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(0), "{err}");
    let line = err.lines().find(|l| l.starts_with("compiled in "));
    let ms = line.and_then(|l| l.strip_prefix("compiled in ")?.strip_suffix(" ms"));
    let ms: f64 = ms
        .unwrap_or_else(|| panic!("no `compiled in … ms` line: {err}"))
        .parse()
        .unwrap_or_else(|e| panic!("{line:?}: {e}"));
    assert!(ms > 0.0, "{line:?}");
}

/// An artifact that cannot be written is an error the command reports by
/// path, not a panic: here `CHAOS_PLAN.txt` is a directory.
#[test]
fn unwritable_chaos_plan_exits_1_naming_it() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("chaos_unwritable");
    std::fs::create_dir_all(dir.join("CHAOS_PLAN.txt")).unwrap();
    let out = contra_in(&dir, &["chaos"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("cannot write CHAOS_PLAN.txt"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    assert!(out.stdout.is_empty(), "a system ran: {err}");
}

/// A seed whose chaos plan realizes fewer than 100 events is an error
/// the command reports, not a panic; the plan it drew is still written.
#[test]
fn thin_chaos_plan_exits_1_with_the_count() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("chaos_thin");
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_contra"))
        .arg("chaos")
        .env("CONTRA_CHAOS_SEED", "9")
        .current_dir(&dir)
        .output()
        .expect("contra runs");
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(
        err.contains("plan must realize at least 100 events, got 98"),
        "{err}"
    );
    assert!(!err.contains("panicked"), "{err}");
    assert!(out.stdout.is_empty(), "a system ran: {err}");
    let plan = std::fs::read_to_string(dir.join("CHAOS_PLAN.txt")).unwrap();
    assert!(
        plan.starts_with("# chaos plan seed=9 (98 events)\n"),
        "{plan}"
    );
}

/// `lint --json` is one valid JSON array with a record per diagnostic, and
/// every record carries the diagnostic's notes: C0008 its metric floor.
#[test]
fn lint_json_records_carry_notes() {
    let out = contra(&[
        "lint",
        "--json",
        "--topology",
        "fat-tree:4",
        "--policy",
        "minimize(if path.util < 0 then 0 else path.len)",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let json = String::from_utf8(out.stdout).unwrap();
    contra_telemetry::validate_json(&json).unwrap_or_else(|e| panic!("{e}: {json}"));
    let records: Vec<&str> = json.lines().filter(|l| l.contains("\"code\"")).collect();
    assert!(records.iter().all(|r| r.contains(",\"notes\":[")), "{json}");
    let unsat = records
        .iter()
        .find(|r| r.contains("\"code\":\"C0008\""))
        .unwrap_or_else(|| panic!("no C0008 record: {json}"));
    assert!(
        unsat.contains(
            "\"notes\":[\"the shortest path satisfying this branch's regexes already has \
             latency ≥ 0s and length ≥ 0\"]"
        ),
        "{unsat}"
    );
}

#[test]
fn list_and_help_exit_0() {
    let out = contra(&["fig", "list"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert_eq!(String::from_utf8_lossy(&out.stdout).lines().count(), 9);
    let out = contra(&["--help"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: contra"));
    assert!(out.stderr.is_empty());
}

/// `zoo:FILE` through the front door: a GraphML file compiles, repeated
/// labels (one of them already suffixed) come out as distinct switches,
/// and a malformed file is a spec error carrying the parser's text.
#[test]
fn zoo_files_compile_or_exit_2_with_the_parse_error() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("zoo_cli");
    std::fs::create_dir_all(&dir).unwrap();
    let compile = |name: &str, graphml: &str, out: Option<&str>| {
        let file = dir.join(name);
        std::fs::write(&file, graphml).unwrap();
        let spec = format!("zoo:{}", file.display());
        let mut args = vec![
            "compile",
            "--topology",
            &spec,
            "--policy",
            "minimize(path.len)",
        ];
        args.extend(out.into_iter().flat_map(|dir| ["--out", dir]));
        contra(&args)
    };

    let ring = r#"<graphml><graph edgedefault="undirected">
        <node id="0"><data key="label">Vienna</data></node>
        <node id="1"><data key="label">Graz</data></node>
        <node id="2"/>
        <edge source="0" target="1"/><edge source="1" target="2"/><edge source="2" target="0"/>
    </graph></graphml>"#;
    let out = compile("ring.graphml", ring, None);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(0), "{err}");
    assert!(err.contains("3 switches, 6 directed links"), "{err}");

    let labels = r#"<graph>
        <node id="0"><data key="label">A</data></node>
        <node id="1"><data key="label">A</data></node>
        <node id="2"><data key="label">A#1</data></node>
        <edge source="0" target="1"/><edge source="1" target="2"/>
    </graph>"#;
    let p4 = dir.join("p4");
    let out = compile("labels.graphml", labels, p4.to_str());
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    for name in ["A", "A#1", "A#1#1"] {
        assert!(
            p4.join(format!("{name}.p4")).is_file(),
            "no program for {name}"
        );
    }

    // A program's file is its switch's name with `/` as `_`, so `a/b` and
    // `a_b` would share one: the command names both and writes nothing.
    let slashed = r#"<graph>
        <node id="0"><data key="label">a/b</data></node>
        <node id="1"><data key="label">a_b</data></node>
        <edge source="0" target="1"/>
    </graph>"#;
    let shared = dir.join("shared");
    let _ = std::fs::remove_dir_all(&shared);
    let out = compile("slashed.graphml", slashed, shared.to_str());
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(
        err.contains(r#"switches "a/b" and "a_b" would both be written to"#),
        "{err}"
    );
    assert!(!err.contains("wrote"), "{err}");
    assert!(!shared.exists(), "{err}");

    let repeated = r#"<node id="0"/><node id="0"/><edge source="0" target="0"/>"#;
    let out = compile("repeated.graphml", repeated, None);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(
        err.contains("GraphML parse error: duplicate node id 0"),
        "{err}"
    );
}
