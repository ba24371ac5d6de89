//! # Contra — performance-aware routing, reproduced in Rust
//!
//! This facade crate re-exports the whole Contra reproduction (NSDI 2020,
//! "Contra: A Programmable System for Performance-aware Routing") so that
//! applications can depend on a single crate:
//!
//! * [`core`] — the policy language, analyses and compiler (the paper's
//!   primary contribution),
//! * [`automata`] — regular expressions over switch IDs and their automata,
//! * [`topology`] — network topologies, generators and path algorithms,
//! * [`sim`] — the packet-level discrete-event network simulator and the
//!   pluggable [`sim::RoutingSystem`] abstraction,
//! * [`dataplane`] — the synthesized Contra dataplane programs at runtime
//!   ([`dataplane::Contra`] is Contra-as-a-`RoutingSystem`),
//! * [`baselines`] — ECMP, shortest-path, Hula and SPAIN comparators, each
//!   a `RoutingSystem` value,
//! * [`experiments`] — the experiment API: [`experiments::Scenario`]
//!   builders, [`experiments::RunResult`] figures of merit and parallel
//!   [`experiments::SweepSpec`] sweeps with shared policy compilation,
//! * [`workloads`] — flow-size distributions and arrival processes,
//! * [`p4gen`] — the P4₁₆ backend.
//!
//! ## Quickstart: run an experiment
//!
//! A scenario describes the topology, workload and measurement; a
//! [`sim::RoutingSystem`] describes who routes. Sweeping systems × loads
//! is one [`experiments::SweepSpec`]:
//!
//! ```
//! use contra::experiments::{Contra, Ecmp, Hula, RoutingSystem, Scenario, SweepSpec, Workload};
//! use contra::sim::Time;
//!
//! let scenario = Scenario::leaf_spine(2, 2, 2)   // leaves, spines, hosts/leaf
//!     .workload(Workload::Cache)
//!     .duration(Time::ms(8))
//!     .warmup(Time::ms(1))
//!     .drain(Time::ms(10));
//! let systems: [&dyn RoutingSystem; 3] = [&Contra::dc(), &Ecmp, &Hula];
//! for r in SweepSpec::new(scenario).systems(&systems).loads(&[0.3]).run() {
//!     println!("{} @ {:.0}%: {:?} ms (completion {:.2})",
//!              r.system, r.scenario.load * 100.0,
//!              r.figures.mean_fct_ms, r.figures.completion_rate);
//! }
//! ```
//!
//! ## Quickstart: compile a policy
//!
//! ```
//! use contra::core::{parse_policy, Compiler};
//! use contra::topology::Topology;
//!
//! // A 4-node diamond: A -> {B, C} -> D.
//! let mut t = Topology::builder();
//! let (a, b, c, d) = (t.switch("A"), t.switch("B"), t.switch("C"), t.switch("D"));
//! t.biline(a, b, 10e9, 1_000);
//! t.biline(a, c, 10e9, 1_000);
//! t.biline(b, d, 10e9, 1_000);
//! t.biline(c, d, 10e9, 1_000);
//! let topo = t.build();
//!
//! // Least-utilized routing (the paper's policy P2).
//! let policy = parse_policy("minimize(path.util)").unwrap();
//! let compiled = Compiler::new(&topo).compile(&policy).unwrap();
//! assert_eq!(compiled.programs.len(), 4);
//! ```
pub use contra_automata as automata;
pub use contra_baselines as baselines;
pub use contra_core as core;
pub use contra_dataplane as dataplane;
pub use contra_experiments as experiments;
pub use contra_p4gen as p4gen;
pub use contra_sim as sim;
pub use contra_topology as topology;
pub use contra_workloads as workloads;
