//! The `contra` binary's exit-code contract, which CI relies on:
//! 0 — done (`lint`: clean or warnings only); 1 — the command ran and
//! found errors; 2 — usage error, nothing ran, usage (with the figure
//! names) on stderr.

use std::process::{Command, Output};

fn contra(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_contra"))
        .args(args)
        // A command that gets as far as writing an artifact (`CONTRA_LINT.txt`,
        // `CHAOS_PLAN.txt`) writes it under `target/`, not into the crate.
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
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
