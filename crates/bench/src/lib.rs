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
