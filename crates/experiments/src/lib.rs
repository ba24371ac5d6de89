//! # contra-experiments — the experiment API
//!
//! One vocabulary for every evaluation in the paper (and any you can
//! imagine): a [`Scenario`] describes *where and what* (topology,
//! workload, load, failures, measurement), a [`RoutingSystem`] describes
//! *who* (Contra with some policy, Hula, ECMP, SP, SPAIN, or your own
//! scheme), and [`Scenario::run`] produces a [`RunResult`] bundling raw
//! [`SimStats`](contra_sim::SimStats) with the system label, the scenario
//! parameters and derived figures of merit.
//!
//! ```
//! use contra_experiments::{Contra, Ecmp, Hula, RoutingSystem, Scenario, Workload};
//! use contra_sim::Time;
//!
//! let scenario = Scenario::leaf_spine(2, 2, 2)
//!     .workload(Workload::Cache)
//!     .duration(Time::ms(8))
//!     .warmup(Time::ms(1))
//!     .drain(Time::ms(10))
//!     .seed(7);
//! let systems: [&dyn RoutingSystem; 3] = [&Contra::dc(), &Ecmp, &Hula];
//! for r in scenario.matrix(&systems, &[0.3]) {
//!     println!("{} @ {:.0}%: {:?} ms", r.system, r.scenario.load * 100.0,
//!              r.figures.mean_fct_ms);
//! }
//! ```
//!
//! Sweeps share a [`CompileCache`], so a matrix over
//! `{Contra, ECMP, Hula} × loads` compiles each distinct policy text
//! exactly once.
//!
//! Grids run in parallel through the [`sweep`] engine: a [`SweepSpec`]
//! names the axes (systems × loads × seeds × knobs), the worker pool is
//! one thread per core unless [`SweepSpec::jobs`] says otherwise, and
//! results come back in exact sweep order, byte-identical to the serial
//! path. [`Scenario::matrix`] is a thin wrapper over it.

pub mod fault;
pub mod result;
pub mod scenario;
pub mod spec;
pub mod sweep;

pub use fault::{ChaosSpec, FaultCmd, FaultPlan, FaultTarget};
pub use result::{aggregate_seeds, Band, Figures, RunResult, ScenarioInfo, SeedSummary};
pub use scenario::{Pairs, Scenario, ScenarioError, Traffic, Workload};
pub use spec::{parse_topology_spec, SpecError, MAX_SPEC_NODES, MAX_SPEC_PORTS};
pub use sweep::{run_cells, CellCoords, Jobs, SweepCell, SweepSpec};

// The whole experiment vocabulary in one import.
pub use contra_baselines::{Ecmp, Hula, Sp, Spain};
pub use contra_dataplane::Contra;
pub use contra_sim::{CompileCache, InstallCtx, InstallError, RoutingSystem};
