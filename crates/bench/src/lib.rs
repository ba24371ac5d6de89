//! # contra-bench — the `contra` binary: the paper's evaluation and the operator commands
//!
//! One binary, `contra` (`src/bin/contra.rs`). Its `main` reads the
//! process environment and the arguments — nothing below it does — and
//! dispatches: `contra fig <name>… | all | list` runs entries of the
//! [`figures::FIGURES`] table (Figs 9–16 and the §6.5 loop table of §6,
//! each printing the series the paper plots), and `compile`, `lint`,
//! `report` and `chaos` are the functions of [`cli`]. Everything is
//! printed through one [`Out`]: CSV rows on stdout, a short
//! paper-vs-measured summary on stderr — or, in a test, two buffers.
//! Performance is tracked by the `contra_benchmark/` package at the
//! repository root, not here.
//!
//! Figures are thin: experiment setup is a
//! [`contra_experiments::Scenario`], the systems under test are
//! [`contra_experiments::RoutingSystem`] values, and grids go through
//! [`contra_experiments::SweepSpec`], which compiles each distinct policy
//! once per topology.

pub mod cli;
pub mod figures;

pub use contra_experiments::*;

use contra_topology::{generators, Topology};
use std::fmt::Display;
use std::io::Write;

/// How large the sweeps are: `CONTRA_BENCH_FAST` (read by `main`) asks
/// for smoke-test scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Two loads, two seeds, two sizes per ladder: seconds, for CI.
    Fast,
    /// The paper's axes.
    Full,
}

impl Scale {
    /// `fast` at smoke scale, `full` otherwise.
    pub fn pick<T>(self, fast: T, full: T) -> T {
        match self {
            Scale::Fast => fast,
            Scale::Full => full,
        }
    }
}

/// The one emit path. The binary points it at stdout and stderr; a test
/// points it at two buffers and reads a figure back.
pub struct Out<'a> {
    /// Machine-readable output: the figures' CSV rows, `lint --json`.
    pub rows: &'a mut dyn Write,
    /// Human-readable output: summaries, each figure's claims with their
    /// verdicts, reports.
    pub notes: &'a mut dyn Write,
}

impl Out<'_> {
    /// Emits one CSV row (the caller's comma-separated columns) on `rows`.
    pub fn row(&mut self, row: impl Display) {
        writeln!(self.rows, "{row}").expect("emit row");
    }

    /// Emits one line on `notes`.
    pub fn note(&mut self, line: impl Display) {
        writeln!(self.notes, "{line}").expect("emit note");
    }
}

/// Why a command did not exit 0. The exit codes are a contract CI relies
/// on: 0 — done (for `lint`: clean, or warnings only); 1 — the command
/// ran and found errors; 2 — it could not make sense of its input, and
/// nothing ran.
#[derive(Debug)]
pub enum Exit {
    /// Exit 1. What failed (ERROR diagnostics, a compile error, an
    /// invalid program, an unwritable file, a checked claim of a figure
    /// that missed — after every row was written) is already on
    /// [`Out::notes`].
    Failed,
    /// Exit 2: unknown command, figure or flag, a flag without its
    /// value or its partner, an unparsable topology spec. `main` prints
    /// this message and then [`usage`].
    Usage(String),
}

/// The usage text, shared by `--help` and every [`Exit::Usage`].
pub fn usage() -> String {
    let names: Vec<&str> = figures::FIGURES.iter().map(|f| f.name).collect();
    format!(
        "usage: contra <command>\n\
         \x20 fig <name>... | all | list   figures of the paper: CSV on stdout, summary on stderr\n\
         \x20                              names: {}\n\
         \x20 compile --topology <spec> --policy '<minimize(...)>' [--out DIR] [--verify]\n\
         \x20 lint [--json] [--topology <spec> --policy '<minimize(...)>']\n\
         \x20                              no --topology/--policy: the builtin P1-P9 corpus;\n\
         \x20                              --json: a JSON array of diagnostics instead of CSV rows\n\
         \x20 report                       the Fig 14 cell with telemetry on: TELEM_*, RUN_REPORT.txt\n\
         \x20 chaos                        a seeded random fault plan, audited: CHAOS_PLAN.txt\n\
         <spec>: fat-tree:K | leaf-spine:L,S,H | abilene | random:N | zoo:FILE\n\
         exit codes: 0 = ok (lint: clean or warnings only), 1 = errors found (fig: a checked\n\
         \x20           claim missed, after every row), 2 = usage error\n\
         environment: CONTRA_BENCH_FAST=1 (smoke scale), CONTRA_CHAOS_SEED=<u64>",
        names.join(" ")
    )
}

/// The three §6.2 compiler-scalability policies (MU, WP, CA), with the
/// waypoints resolved to this topology's first two switches — shared by
/// Figs 9/10 and `contra_benchmark`.
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
            let h = tb.host(format!("{name}_h0"));
            tb.biline(map[sw.0 as usize], h, spec.bandwidth_bps, spec.delay_ns);
        }
    }
    tb.build()
}

/// The `contra lint` corpus: each topology with waypoint/link names that
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
