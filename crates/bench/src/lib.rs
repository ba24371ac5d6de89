//! # contra-bench — experiment harnesses for every figure in the paper
//!
//! One binary per table/figure of §6 (see `src/bin/`), each printing the
//! same series the paper plots, as CSV on stdout plus a short
//! paper-vs-measured summary on stderr. Performance is tracked by the
//! `contra_benchmark/` package at the repository root, not here.
//!
//! The binaries are thin: experiment setup is a
//! [`contra_experiments::Scenario`], the systems under test are
//! [`contra_experiments::RoutingSystem`] values, and batched sweeps go
//! through [`contra_experiments::Scenario::matrix`], which compiles each
//! distinct policy once per topology. This crate adds only the CSV/CLI
//! conveniences the binaries share.

pub use contra_experiments::*;

use contra_topology::{generators, Topology};

/// `true` when the `CONTRA_BENCH_FAST` env var asks for smoke-test scale.
pub fn fast_mode() -> bool {
    std::env::var_os("CONTRA_BENCH_FAST").is_some()
}

/// Standard sweep of offered loads (the paper's x-axis).
pub fn load_sweep() -> Vec<f64> {
    if fast_mode() {
        vec![0.2, 0.6]
    } else {
        vec![0.2, 0.4, 0.6, 0.8, 0.9]
    }
}

/// Emits one CSV row on stdout.
pub fn csv_row(figure: &str, series: &str, x: impl std::fmt::Display, y: impl std::fmt::Display) {
    println!("{figure},{series},{x},{y}");
}

/// Escapes a string for embedding in a JSON string literal (RFC 8259):
/// quotes, backslashes and control characters. Used by `contra_lint
/// --json`, which emits machine-readable diagnostics without pulling a
/// serialization dependency into the workspace.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = std::fmt::Write::write_fmt(&mut out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// The three §6.2 compiler-scalability policies (MU, WP, CA), with the
/// waypoints resolved to this topology's first two switches — shared by
/// the Fig 9/10 binaries and `contra_benchmark`.
pub fn compiler_policy_suite(topo: &contra_topology::Topology) -> Vec<(&'static str, String)> {
    let s = topo.switches();
    let f1 = topo.node(s[0]).name.clone();
    let f2 = topo.node(s[1]).name.clone();
    vec![
        ("MU", contra_core::policies::min_util()),
        ("WP", contra_core::policies::waypoint(&f1, &f2)),
        ("CA", contra_core::policies::congestion_aware()),
    ]
}

/// The Figure 6 running example (A–B, A–C, B–C, B–D, C–D) with hosts on
/// A, B and D; C stays transit-only so it can head a P6 link preference.
fn fig6_topo() -> Topology {
    let mut t = Topology::builder();
    let a = t.switch("A");
    let b = t.switch("B");
    let c = t.switch("C");
    let d = t.switch("D");
    for (sw, name) in [(a, "hA"), (b, "hB"), (d, "hD")] {
        let h = t.host(name);
        t.biline(sw, h, 10e9, 1_000);
    }
    t.biline(a, b, 10e9, 1_000);
    t.biline(a, c, 10e9, 1_000);
    t.biline(b, c, 10e9, 1_000);
    t.biline(b, d, 10e9, 1_000);
    t.biline(c, d, 10e9, 1_000);
    t.build()
}

/// Abilene with one host per city except Denver, which stays transit-only
/// so the P6/P7 preferred cable `Denver KansasCity` has a head no traffic
/// terminates at. (A `.*X Y.*` preference black-holes traffic *to* X:
/// a compliant path would have to revisit its own destination, which the
/// protocol forbids — the verifier rightly rejects such a corpus.)
fn abilene_transit_denver() -> Topology {
    let base = generators::abilene(40e9);
    let spec = generators::LinkSpec::default();
    let mut tb = Topology::builder();
    let mut map = Vec::with_capacity(base.num_nodes());
    for sw in base.switches() {
        map.push(tb.switch(&base.node(sw).name));
    }
    for l in base.links() {
        tb.line(
            map[l.src.0 as usize],
            map[l.dst.0 as usize],
            l.bandwidth_bps,
            l.delay_ns,
        );
    }
    for sw in base.switches() {
        let name = &base.node(sw).name;
        if name != "Denver" {
            let h = tb.host(&format!("{name}_h0"));
            tb.biline(map[sw.0 as usize], h, spec.bandwidth_bps, spec.delay_ns);
        }
    }
    tb.build()
}

/// The `contra_lint` corpus: each topology with waypoint/link names that
/// exist in it (the policies are `contra_core::policies::catalogue`).
/// `(label, topology, f1, f2, x, y)` — f1/f2 are the P5 waypoints, X–Y
/// must be a physical cable for P6/P7 to be satisfiable, and X must be a
/// transit-only switch (no hosts): `.*X Y.*` forbids traffic destined to
/// X, since the only compliant "paths" would pass through the destination.
pub fn lint_corpus() -> Vec<(&'static str, Topology, [&'static str; 4])> {
    let spec = generators::LinkSpec::default();
    vec![
        (
            "leaf-spine",
            generators::leaf_spine(4, 2, 2, spec, spec),
            ["spine0", "spine1", "spine0", "leaf0"],
        ),
        (
            "fat-tree",
            generators::fat_tree(4, 1, spec),
            ["core0", "core1", "agg0_0", "edge0_0"],
        ),
        (
            "abilene",
            abilene_transit_denver(),
            ["Denver", "KansasCity", "Denver", "KansasCity"],
        ),
        ("fig6-diamond", fig6_topo(), ["B", "C", "C", "B"]),
    ]
}

#[cfg(test)]
mod tests {
    use super::json_escape;

    #[test]
    fn json_escape_handles_quotes_controls_and_unicode() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("say \"hi\""), "say \\\"hi\\\"");
        assert_eq!(json_escape("a\\b"), "a\\\\b");
        assert_eq!(json_escape("line1\nline2\ttab"), "line1\\nline2\\ttab");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        // Non-ASCII passes through unescaped — JSON strings are UTF-8.
        assert_eq!(json_escape("café ∞"), "café ∞");
    }
}
