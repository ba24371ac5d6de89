//! The sweep engine's contract: a parallel sweep is *observationally
//! identical* to a one-worker one — same `RunResult` fingerprints, same
//! order, same number of compiler invocations — for every worker-pool
//! setting, on a datacenter and a WAN grid.
//!
//! The reference is built through [`run_cells`] with `Jobs::N(1)`; the
//! sweeps under test run at `Jobs::N(4)` (four workers whatever the
//! machine's core count) and `Jobs::Auto`.

use contra_experiments::{
    run_cells, CompileCache, Contra, Ecmp, Hula, Jobs, RoutingSystem, RunResult, Scenario, Sp,
    SweepSpec, Workload,
};
use contra_sim::{percentile, Time};

/// Bit-exact behavioral fingerprint of one cell (floats as bit patterns,
/// every counter the stats track). The FCT fields cover every completed
/// flow, the mean summed in flow order: raw engine output, not
/// [`contra_experiments::Figures`].
fn fingerprint(r: &RunResult) -> String {
    let s = &r.stats;
    let bits = |o: Option<f64>| match o {
        Some(v) => format!("{:016x}", v.to_bits()),
        None => "none".to_string(),
    };
    let mut fcts: Vec<f64> = s
        .flows
        .iter()
        .filter_map(|f| f.fct().map(|t| t.as_millis_f64()))
        .collect();
    let mean = (!fcts.is_empty()).then(|| fcts.iter().sum::<f64>() / fcts.len() as f64);
    fcts.sort_by(f64::total_cmp);
    let mut out = format!(
        "sys={} scen={} load={} seed={} mean={} p50={} p99={} done={:016x} events={}",
        r.system,
        r.scenario.scenario,
        r.scenario.load,
        r.scenario.seed,
        bits(mean),
        bits(percentile(&fcts, 50.0)),
        bits(percentile(&fcts, 99.0)),
        s.completion_rate().to_bits(),
        s.events_processed,
    );
    for (k, v) in &s.drops {
        out.push_str(&format!(" drop[{k:?}]={v}"));
    }
    for (k, v) in s.wire_bytes.iter() {
        out.push_str(&format!(" wire[{k:?}]={v}"));
    }
    out.push_str(&format!(
        " delivered={} looped={} collisions={}",
        s.delivered_packets,
        s.looped_packets,
        s.switches.flowlets_displaced + s.switches.loops_displaced
    ));
    out
}

/// Runs `spec` on one worker and at each parallel setting; every
/// parallel run must reproduce the one-worker fingerprints in order and
/// perform the same number of policy compilations.
fn assert_parallel_matches_serial<'a>(build: impl Fn() -> SweepSpec<'a>, expect_compiles: usize) {
    let serial_cache = CompileCache::new();
    // One worker claims the cells in sweep order.
    let serial: Vec<String> = run_cells(build().cells(), Jobs::N(1), &serial_cache)
        .iter()
        .map(fingerprint)
        .collect();
    assert!(!serial.is_empty());
    assert_eq!(
        serial_cache.compiles(),
        expect_compiles,
        "one-worker sweep compile count"
    );

    for jobs in [Jobs::N(4), Jobs::Auto] {
        let cache = CompileCache::new();
        let parallel: Vec<String> = build()
            .jobs(jobs)
            .run_cached(&cache)
            .iter()
            .map(fingerprint)
            .collect();
        assert_eq!(
            parallel, serial,
            "sweep under {jobs:?} diverged from one worker"
        );
        assert_eq!(
            cache.compiles(),
            expect_compiles,
            "sweep under {jobs:?} must compile each policy exactly once \
             even when cells race for it"
        );
    }
}

/// Leaf-spine grid: 3 systems × 2 loads × 2 seeds = 12 cells, one Contra
/// policy → exactly one compile at every worker-pool setting.
#[test]
fn leaf_spine_grid_is_deterministic_at_every_jobs_setting() {
    let contra = Contra::dc();
    let systems: [&dyn RoutingSystem; 3] = [&contra, &Ecmp, &Hula];
    assert_parallel_matches_serial(
        || {
            SweepSpec::new(
                Scenario::leaf_spine(2, 2, 2)
                    .workload(Workload::Cache)
                    .duration(Time::ms(6))
                    .warmup(Time::ms(1))
                    .drain(Time::ms(8)),
            )
            .systems(&systems)
            .loads(&[0.3, 0.6])
            .seeds(&[1, 7])
        },
        1,
    );
}

/// Abilene grid: 2 systems × 2 seeds (short WAN cells), one MU policy.
#[test]
fn abilene_grid_is_deterministic_at_every_jobs_setting() {
    let contra = Contra::mu();
    let systems: [&dyn RoutingSystem; 2] = [&contra, &Sp];
    assert_parallel_matches_serial(
        || {
            SweepSpec::new(
                Scenario::abilene()
                    .load(0.2)
                    .duration(Time::ms(130))
                    .drain(Time::ms(60)),
            )
            .systems(&systems)
            .seeds(&[1, 5])
        },
        1,
    );
}

/// Many cells racing for one policy on a 4-worker pool still compile it
/// exactly once (the per-key once-guard), and a shared cache across two
/// back-to-back parallel sweeps never recompiles.
#[test]
fn racing_cells_compile_exactly_once() {
    let contra = Contra::dc();
    let systems: [&dyn RoutingSystem; 1] = [&contra];
    let base = Scenario::leaf_spine(2, 2, 2)
        .workload(Workload::Cache)
        .duration(Time::ms(4))
        .warmup(Time::ms(1))
        .drain(Time::ms(6));
    let cache = CompileCache::new();
    // 8 cells, all needing the same (topology, policy) compilation, all
    // starting at once on 4 workers.
    let results = SweepSpec::new(base.clone())
        .systems(&systems)
        .seeds(&[1, 2, 3, 4, 5, 6, 7, 8])
        .jobs(Jobs::N(4))
        .run_cached(&cache);
    assert_eq!(results.len(), 8);
    assert_eq!(cache.compiles(), 1, "8 racing cells, one compile");
    SweepSpec::new(base)
        .systems(&systems)
        .seeds(&[9, 10])
        .jobs(Jobs::N(4))
        .run_cached(&cache);
    assert_eq!(cache.compiles(), 1, "the cache persists across sweeps");
}

/// The knob axis expands in declared order and lands in the result
/// metadata where the figures expect it.
#[test]
fn axis_expansion_preserves_sweep_order() {
    let systems: [&dyn RoutingSystem; 2] = [&Ecmp, &Sp];
    let spec = SweepSpec::new(
        Scenario::leaf_spine(2, 2, 2)
            .workload(Workload::Cache)
            .duration(Time::ms(4))
            .warmup(Time::ms(1))
            .drain(Time::ms(6)),
    )
    .systems(&systems)
    .loads(&[0.2, 0.4])
    .vary("short-drain", |s| s.drain(Time::ms(5)))
    .vary("long-drain", |s| s.drain(Time::ms(7)));
    assert_eq!(spec.num_cells(), 8);
    let cells = spec.cells();
    // Knobs outermost, then loads, then systems.
    let coords: Vec<(Option<String>, f64, String)> = cells
        .iter()
        .map(|c| {
            (
                c.coords.knob.clone(),
                c.coords.load,
                c.coords.system.clone(),
            )
        })
        .collect();
    assert_eq!(coords[0], (Some("short-drain".into()), 0.2, "ECMP".into()));
    assert_eq!(coords[1], (Some("short-drain".into()), 0.2, "SP".into()));
    assert_eq!(coords[2], (Some("short-drain".into()), 0.4, "ECMP".into()));
    assert_eq!(coords[4].0, Some("long-drain".into()));
    // And a parallel run returns results in exactly that order.
    let results = spec.jobs(Jobs::N(4)).run();
    let got: Vec<(f64, String)> = results
        .iter()
        .map(|r| (r.scenario.load, r.system.clone()))
        .collect();
    assert_eq!(got[0], (0.2, "ECMP".into()));
    assert_eq!(got[1], (0.2, "SP".into()));
    assert_eq!(got[7], (0.4, "SP".into()));
}

/// On the default worker pool a systems × loads sweep still produces
/// the loads-outermost ordering of a one-worker sweep over the same axes.
#[test]
fn default_pool_sweep_matches_one_worker() {
    let contra = Contra::mu();
    let systems: [&dyn RoutingSystem; 2] = [&contra, &Ecmp];
    let scenario = Scenario::leaf_spine(2, 2, 2)
        .workload(Workload::Cache)
        .duration(Time::ms(5))
        .warmup(Time::ms(1))
        .drain(Time::ms(8));
    let spec = SweepSpec::new(scenario)
        .systems(&systems)
        .loads(&[0.2, 0.5]);
    let serial: Vec<String> = run_cells(spec.cells(), Jobs::N(1), &CompileCache::new())
        .iter()
        .map(fingerprint)
        .collect();
    let parallel: Vec<String> = spec
        .jobs(Jobs::Auto)
        .run()
        .iter()
        .map(fingerprint)
        .collect();
    assert_eq!(parallel, serial);
}

/// A failing cell names its sweep coordinates (system, load, seed)
/// instead of dying as a bare worker-thread panic — on one worker and
/// on two.
#[test]
fn worker_panics_carry_cell_coordinates() {
    for jobs in [Jobs::N(1), Jobs::N(2)] {
        let systems: [&dyn RoutingSystem; 1] = [&Ecmp];
        // `fail_link` with an unknown node name panics inside the worker
        // when the cell starts running.
        let spec = SweepSpec::new(
            Scenario::leaf_spine(2, 2, 2)
                .workload(Workload::Cache)
                .duration(Time::ms(4))
                .fail_link("no-such-switch", "spine0", Time::ms(1)),
        )
        .systems(&systems)
        .loads(&[0.35])
        .seeds(&[11])
        .jobs(jobs);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| spec.run()))
            .expect_err("the sweep must propagate the cell panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        for needle in [
            "system=ECMP",
            "load=0.35",
            "seed=11",
            "scenario=leaf-spine(2,2,2)",
            "no-such-switch",
        ] {
            assert!(
                msg.contains(needle),
                "panic message must name the failing cell; missing {needle:?} in: {msg}"
            );
        }
    }
}
