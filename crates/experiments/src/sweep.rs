//! The parallel sweep engine: deterministic worker-pool execution of
//! scenario matrices.
//!
//! Every figure in §5–§6 of the paper is a sweep — a (system × load ×
//! seed × knob) grid where each cell is an independent, fully
//! deterministic simulation. A [`SweepSpec`] names the axes; the engine
//! expands them into [`SweepCell`]s, executes the cells on a
//! `std::thread` worker pool sized by [`Jobs`], and reassembles the
//! [`RunResult`]s **in exact sweep order** — byte-identical to running
//! the same cells sequentially, because cells share nothing mutable but
//! the [`CompileCache`] (whose per-key once-guard keeps compilation
//! exactly-once even under races).
//!
//! ```no_run
//! use contra_experiments::{Contra, Ecmp, RoutingSystem, Scenario, SweepSpec};
//!
//! let contra = Contra::dc();
//! let systems: [&dyn RoutingSystem; 2] = [&contra, &Ecmp];
//! let results = SweepSpec::new(Scenario::leaf_spine(4, 2, 8))
//!     .systems(&systems)
//!     .loads(&[0.2, 0.5, 0.8])
//!     .seeds(&[1, 2, 3])
//!     .run();
//! assert_eq!(results.len(), 2 * 3 * 3);
//! ```
//!
//! A sweep runs one worker per core ([`Jobs::Auto`]) unless
//! [`SweepSpec::jobs`] says otherwise.

use crate::result::RunResult;
use crate::scenario::Scenario;
use contra_sim::{CompileCache, RoutingSystem};
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How many workers a sweep runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Jobs {
    /// One worker per available core
    /// (`std::thread::available_parallelism`) — what a [`SweepSpec`]
    /// uses unless told otherwise.
    Auto,
    /// Exactly this many workers (`N(0)` is one).
    N(usize),
}

impl Jobs {
    /// The worker count this resolves to on the current machine.
    pub fn workers(self) -> usize {
        match self {
            Jobs::N(n) => n.max(1),
            Jobs::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

/// Where a cell sits in its sweep — attached to every worker panic so a
/// failing cell names its coordinates instead of dying as a bare thread
/// panic deep inside `Scenario::run`.
#[derive(Debug, Clone, PartialEq)]
pub struct CellCoords {
    /// Position in sweep order (also the result index).
    pub index: usize,
    /// Scenario label (topology axis).
    pub scenario: String,
    /// System display name.
    pub system: String,
    /// Offered load fraction.
    pub load: f64,
    /// RNG seed.
    pub seed: u64,
    /// Label of the applied knob-axis entry, if the sweep has one.
    pub knob: Option<String>,
}

impl fmt::Display for CellCoords {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cell #{} (system={}, scenario={}, load={}, seed={}",
            self.index, self.system, self.scenario, self.load, self.seed
        )?;
        if let Some(k) = &self.knob {
            write!(f, ", knob={k}")?;
        }
        write!(f, ")")
    }
}

/// One fully-resolved cell: a scenario (load/seed/knob applied) plus the
/// system to run it under. Cheap to build — scenarios share their
/// topology via `Arc`.
pub struct SweepCell<'a> {
    /// The resolved scenario.
    pub scenario: Scenario,
    /// The system under test.
    pub system: &'a dyn RoutingSystem,
    /// Sweep coordinates (panic labeling, result bookkeeping).
    pub coords: CellCoords,
}

impl<'a> SweepCell<'a> {
    /// Builds a cell at `index`, deriving the coordinate labels from the
    /// scenario itself.
    pub fn new(
        index: usize,
        scenario: Scenario,
        system: &'a dyn RoutingSystem,
        knob: Option<String>,
    ) -> SweepCell<'a> {
        let coords = CellCoords {
            index,
            scenario: scenario.label().to_string(),
            system: system.name(),
            load: scenario.load_fraction(),
            seed: scenario.seed_value(),
            knob,
        };
        SweepCell {
            scenario,
            system,
            coords,
        }
    }

    fn run(&self, cache: &CompileCache) -> RunResult {
        let mut r = self.scenario.run_cached(self.system, cache);
        // Stamp the knob coordinate so downstream aggregation
        // (`aggregate_seeds`) can tell knob variants apart.
        r.scenario.knob = self.coords.knob.clone();
        r
    }
}

/// A knob-axis entry: a labeled scenario transformation (e.g. "set the
/// flowlet timeout", "shrink the drain window").
struct Knob {
    label: String,
    apply: Box<dyn Fn(Scenario) -> Scenario + Send + Sync>,
}

/// A scenario matrix: a base scenario × systems × optional load / seed /
/// knob axes, plus a [`Jobs`] knob. Axis iteration order (outermost
/// first): knobs, seeds, loads, systems — so a plain `systems × loads`
/// sweep keeps the figures' historical CSV ordering (loads outermost,
/// systems innermost). Grids over several topologies build their own
/// cells and call [`run_cells`].
pub struct SweepSpec<'a> {
    base: Scenario,
    systems: Vec<&'a dyn RoutingSystem>,
    loads: Option<Vec<f64>>,
    seeds: Option<Vec<u64>>,
    knobs: Option<Vec<Knob>>,
    jobs: Jobs,
}

impl<'a> SweepSpec<'a> {
    /// A sweep over one base scenario. Its configured load/seed hold for
    /// every cell unless [`SweepSpec::loads`] / [`SweepSpec::seeds`] add
    /// those axes.
    pub fn new(base: Scenario) -> SweepSpec<'a> {
        SweepSpec {
            base,
            systems: Vec::new(),
            loads: None,
            seeds: None,
            knobs: None,
            jobs: Jobs::Auto,
        }
    }

    /// The systems axis.
    pub fn systems(mut self, systems: &[&'a dyn RoutingSystem]) -> SweepSpec<'a> {
        self.systems = systems.to_vec();
        self
    }

    /// Adds a load axis (omitted → each scenario's own load).
    pub fn loads(mut self, loads: &[f64]) -> SweepSpec<'a> {
        self.loads = Some(loads.to_vec());
        self
    }

    /// Adds a seed axis (omitted → each scenario's own seed).
    pub fn seeds(mut self, seeds: &[u64]) -> SweepSpec<'a> {
        self.seeds = Some(seeds.to_vec());
        self
    }

    /// Adds one entry to the knob axis: a labeled scenario
    /// transformation. Calling this repeatedly grows the axis; each cell
    /// applies exactly one entry.
    pub fn vary(
        mut self,
        label: impl Into<String>,
        apply: impl Fn(Scenario) -> Scenario + Send + Sync + 'static,
    ) -> SweepSpec<'a> {
        self.knobs.get_or_insert_with(Vec::new).push(Knob {
            label: label.into(),
            apply: Box::new(apply),
        });
        self
    }

    /// Adds a failure-set axis: one knob entry per labeled
    /// [`FaultPlan`](crate::FaultPlan), each cell running its scenario
    /// under exactly one plan (sugar over [`SweepSpec::vary`], so the
    /// plan label lands in [`ScenarioInfo::knob`](crate::ScenarioInfo)
    /// and seed aggregation keeps one band per failure set).
    pub fn fault_sets(mut self, sets: &[(&str, crate::FaultPlan)]) -> SweepSpec<'a> {
        for (label, plan) in sets {
            let plan = plan.clone();
            self = self.vary(*label, move |s| s.fault_plan(plan.clone()));
        }
        self
    }

    /// Sets the worker-pool size ([`Jobs::Auto`] unless set).
    pub fn jobs(mut self, jobs: Jobs) -> SweepSpec<'a> {
        self.jobs = jobs;
        self
    }

    /// Number of cells this spec expands to.
    pub fn num_cells(&self) -> usize {
        self.systems.len()
            * self.loads.as_ref().map_or(1, Vec::len)
            * self.seeds.as_ref().map_or(1, Vec::len)
            * self.knobs.as_ref().map_or(1, Vec::len)
    }

    /// Expands the axes into cells, in sweep order.
    pub fn cells(&self) -> Vec<SweepCell<'a>> {
        assert!(
            !self.systems.is_empty(),
            "a sweep needs at least one system"
        );
        let mut cells = Vec::with_capacity(self.num_cells());
        let knobbed: Vec<(Option<String>, Scenario)> = match &self.knobs {
            None => vec![(None, self.base.clone())],
            Some(knobs) => knobs
                .iter()
                .map(|k| (Some(k.label.clone()), (k.apply)(self.base.clone())))
                .collect(),
        };
        for (knob, scenario) in knobbed {
            let seeds: Vec<u64> = match &self.seeds {
                None => vec![scenario.seed_value()],
                Some(s) => s.clone(),
            };
            let loads: Vec<f64> = match &self.loads {
                None => vec![scenario.load_fraction()],
                Some(l) => l.clone(),
            };
            for &seed in &seeds {
                for &load in &loads {
                    for system in &self.systems {
                        let cell = scenario.clone().seed(seed).load(load);
                        cells.push(SweepCell::new(cells.len(), cell, *system, knob.clone()));
                    }
                }
            }
        }
        cells
    }

    /// Runs the sweep with a private compile cache.
    pub fn run(&self) -> Vec<RunResult> {
        self.run_cached(&CompileCache::new())
    }

    /// Runs the sweep against a caller-visible compile cache (tests
    /// assert on [`CompileCache::compiles`]).
    pub fn run_cached(&self, cache: &CompileCache) -> Vec<RunResult> {
        run_cells(self.cells(), self.jobs, cache)
    }
}

/// Executes pre-expanded cells on a worker pool and returns the results
/// in cell order. This is the layer under [`SweepSpec::run`]; callers
/// with heterogeneous grids (e.g. per-topology system lists, where a
/// plain cartesian product would install Hula on a WAN) build their own
/// `Vec<SweepCell>` and feed one combined pool.
///
/// Determinism: each cell is an independent simulation of a private
/// `Simulator`; workers share only the [`CompileCache`] (internally
/// synchronized, compile-exactly-once) and write into disjoint result
/// slots, so the output is byte-identical whatever the worker count or
/// scheduling. A panicking cell is re-raised on the calling thread
/// prefixed with its [`CellCoords`].
pub fn run_cells(cells: Vec<SweepCell<'_>>, jobs: Jobs, cache: &CompileCache) -> Vec<RunResult> {
    let n = cells.len();
    let workers = jobs.workers().min(n.max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<RunResult>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // First panicking cell (by discovery, not index): its coordinates and
    // payload, re-raised once the pool drains.
    let failure: Mutex<Option<(CellCoords, Box<dyn std::any::Any + Send>)>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let cell = &cells[i];
                match catch_unwind(AssertUnwindSafe(|| cell.run(cache))) {
                    Ok(r) => *slots[i].lock().expect("result slot lock") = Some(r),
                    Err(payload) => {
                        let mut f = failure.lock().expect("failure slot lock");
                        if f.is_none() {
                            *f = Some((cell.coords.clone(), payload));
                        }
                        // Drain the queue so the other workers stop at
                        // their next claim instead of simulating the rest
                        // of a doomed sweep.
                        next.store(n, Ordering::Relaxed);
                        break;
                    }
                }
            });
        }
    });

    if let Some((coords, payload)) = failure.into_inner().expect("failure slot lock") {
        // `as_ref`, not `&payload`: coercing `&Box<dyn Any>` would
        // downcast the Box itself and always miss.
        let text = panic_text(payload.as_ref());
        if text.is_empty() {
            // Non-string payload: preserve it for downcasting callers
            // rather than replacing it with a label.
            resume_unwind(payload);
        }
        panic!("sweep {coords} panicked: {text}");
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, m)| {
            m.into_inner()
                .expect("result slot lock")
                .unwrap_or_else(|| panic!("sweep cell #{i} produced no result"))
        })
        .collect()
}

/// Human-readable text of a panic payload (`&str` / `String` payloads;
/// anything else renders empty).
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_workers_resolve() {
        assert_eq!(Jobs::N(0).workers(), 1);
        assert_eq!(Jobs::N(5).workers(), 5);
        assert!(Jobs::Auto.workers() >= 1);
    }
}
