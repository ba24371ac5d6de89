//! The experiment API's own contract: builder round-trips, compile-cache
//! sharing across sweeps, determinism, and the smoke-scale
//! scenarios the old `DcExperiment`/`WanExperiment` tests covered.

use contra_experiments::{
    CompileCache, Contra, Ecmp, Hula, InstallError, Pairs, RoutingSystem, Scenario, ScenarioError,
    Sp, Spain, SweepSpec, Traffic, Workload,
};
use contra_sim::{FlowSpec, Time};

/// The configuration ledger: every independently settable value of the
/// config structs, destructured without `..`, so a new field is a
/// compile error. `DataplaneConfig`'s fields are private to its crate,
/// so its half is `configuration_ledger` in `crates/dataplane/src/lib.rs`.
/// A field is justified by a non-test caller that needs a second value
/// (README, *Configuration*, names each one); with one value in use it
/// is a constant, like the §6.3 timings below.
#[test]
fn configuration_ledger() {
    use contra_sim::{
        SimConfig, TelemetryConfig, EXPIRY_PERIODS, FAILURE_PERIODS, FLOWLET_TIMEOUT, PROBE_PERIOD,
    };

    // Defined once; Contra's and Hula's switches both read these names.
    assert_eq!(PROBE_PERIOD, Time::us(256));
    assert_eq!(FLOWLET_TIMEOUT, Time::us(200));
    assert_eq!((FAILURE_PERIODS, EXPIRY_PERIODS), (3, 8));

    let SimConfig {
        util_tau,
        stop_at,
        queue_sample_every,
        min_rto,
        udp_bucket,
        trace_paths,
        audit,
        telemetry,
    } = SimConfig::default();
    assert_eq!(util_tau, Time(2 * PROBE_PERIOD.0));
    assert_eq!(stop_at, Time::ms(100));
    assert_eq!(queue_sample_every, None);
    assert_eq!((min_rto, udp_bucket), (Time::ms(1), Time::ms(1)));
    assert!(!trace_paths && telemetry.is_none());
    assert_eq!(audit, cfg!(debug_assertions));

    let TelemetryConfig { ring_capacity } = TelemetryConfig::default();
    assert_eq!(ring_capacity, 1 << 16);
}

/// Hula cannot run outside a two-tier leaf-spine fabric: the scenario
/// surfaces that as a typed error instead of a mid-install panic.
#[test]
fn hula_is_unsupported_on_wan_topologies() {
    let err = Scenario::abilene().try_run(&Hula).unwrap_err();
    match err {
        ScenarioError::Install(InstallError::Unsupported { system, reason }) => {
            assert_eq!(system, "Hula");
            assert!(reason.contains("leaf-spine"), "{reason}");
        }
        other => panic!("expected Unsupported, got: {other}"),
    }
}

/// SPAIN's VLAN id is one byte: zero VLANs or more than 255 is a typed
/// error before any switch is installed, not a panic mid-install.
#[test]
fn spain_vlan_count_out_of_range_is_unsupported() {
    for vlans in [0, 256] {
        match Scenario::abilene().try_run(&Spain::new(vlans)).unwrap_err() {
            ScenarioError::Install(InstallError::Unsupported { system, reason }) => {
                assert_eq!(system, "SPAIN");
                assert_eq!(reason, format!("needs 1 to 255 VLANs, got {vlans}"));
            }
            other => panic!("expected Unsupported, got: {other}"),
        }
    }
}

/// A fault plan that does not fit the topology is a typed error naming
/// the scenario and the offender, not a panic: a node that does not
/// exist (in a failure, and in a recovery scheduled past the end of the
/// run), and two nodes that exist with no cable between them.
#[test]
fn misfit_fault_plans_are_typed_errors() {
    let at = Time::ms(1);
    let base = small_dc();
    let label = base.label().to_string();
    for plan in [
        base.clone().fail_link("leaf0", "spine9", at),
        base.clone().recover_link("spine9", "leaf0", Time::ms(500)),
    ] {
        match plan.try_run(&Ecmp).unwrap_err() {
            ScenarioError::UnknownNode { scenario, name } => {
                assert_eq!((scenario, name.as_str()), (label.clone(), "spine9"));
            }
            other => panic!("expected UnknownNode, got: {other}"),
        }
    }
    let err = base
        .fail_link("leaf0", "leaf1", at)
        .try_run(&Ecmp)
        .unwrap_err();
    assert_eq!(
        err.to_string(),
        format!("scenario {label}: no cable n0–n1 (1.000ms down cable leaf0~leaf1)")
    );
    let ScenarioError::Fault { cmd, .. } = err else {
        panic!("expected Fault, got: {err}");
    };
    let cable = (cmd.a.as_str(), cmd.b.as_str());
    assert_eq!((cmd.at, cable, cmd.up), (at, ("leaf0", "leaf1"), false));
}

/// Runs a scenario whose traffic cannot be generated: `try_run` returns
/// a typed error naming the scenario before anything is installed, and
/// `run` panics with the same text. Returns the reason.
fn traffic_error(s: Scenario) -> String {
    let err = s.try_run(&Ecmp).unwrap_err();
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.run(&Ecmp)));
    let panic = run.expect_err("run must panic where try_run fails");
    assert_eq!(panic.downcast_ref::<String>(), Some(&err.to_string()));
    match err {
        ScenarioError::Traffic { scenario, reason } => {
            assert_eq!(scenario, s.label());
            reason
        }
        other => panic!("expected Traffic, got: {other}"),
    }
}

#[test]
fn poisson_duration_within_warmup_is_a_typed_error() {
    assert_eq!(
        traffic_error(Scenario::abilene().duration(Time::ms(1))),
        "duration 1.000ms is not past warm-up 120.000ms"
    );
}

#[test]
fn load_out_of_range_is_a_typed_error() {
    for load in [0.0, -0.5, 1.6, f64::NAN] {
        let reason = traffic_error(small_dc().load(load));
        assert_eq!(reason, format!("load {load} out of range (0, 1.5]"));
    }
}

/// A UDP rate the sender cannot keep — not positive, not finite, or so
/// high that the gap between packets rounds to 0 ns — is a typed error,
/// for the generated senders (two here, each given half of `.udp`'s
/// total) and for an extra flow alike.
#[test]
fn udp_rate_out_of_range_is_a_typed_error() {
    let udp = |total_bps| traffic_error(Scenario::leaf_spine(2, 2, 2).udp(total_bps));
    let not_a_rate = |per_flow| format!("UDP rate {per_flow} bps is not a positive finite rate");
    assert_eq!(udp(0.0), not_a_rate("0"));
    assert_eq!(udp(-1e9), not_a_rate("-500000000"));
    assert_eq!(udp(f64::NAN), not_a_rate("NaN"));
    assert_eq!(udp(f64::INFINITY), not_a_rate("inf"));
    assert_eq!(
        udp(1e15),
        "UDP rate 500000000000000 bps leaves less than 1 ns between packets"
    );

    let s = Scenario::leaf_spine(2, 2, 2).traffic(Traffic::None);
    let hosts = s.topology().hosts();
    let extra = |rate_bps| {
        traffic_error(s.clone().flow(FlowSpec::Udp {
            src: hosts[0],
            dst: hosts[3],
            rate_bps,
            start: Time::ms(1),
            stop: Time::ms(2),
        }))
    };
    assert_eq!(extra(0.0), not_a_rate("0"));
    // A gap of u64::MAX ns: armed after the first packet, it would
    // overflow the clock.
    let reason = extra(1e-300);
    assert!(
        reason.ends_with("bps leaves a packet gap past the end of the clock"),
        "{reason}"
    );
}

#[test]
fn zero_reference_capacity_is_a_typed_error() {
    // No hosts, so no leaf→spine uplink to measure the load against.
    let reason = traffic_error(Scenario::leaf_spine(2, 2, 0));
    assert!(
        reason.starts_with("load reference capacity is 0 — "),
        "{reason}"
    );
    assert_eq!(
        traffic_error(small_dc().capacity_bps(f64::INFINITY)),
        "load reference capacity inf bps is not a positive finite rate"
    );
}

#[test]
fn more_random_pairs_than_host_pairs_is_a_typed_error() {
    // Abilene has 11 hosts: 110 ordered pairs.
    let s = Scenario::abilene().pairs(Pairs::Random(111));
    assert_eq!(
        traffic_error(s),
        "111 random pairs requested but only 11 hosts"
    );
}

#[test]
fn udp_without_a_cross_switch_receiver_is_a_typed_error() {
    let s = Scenario::leaf_spine(1, 1, 2).udp(1e9);
    assert_eq!(
        traffic_error(s),
        "UDP traffic needs a receiver on another switch than h0_0"
    );
}

#[test]
fn poisson_without_pairs_is_a_typed_error() {
    for pairs in [Pairs::Random(0), Pairs::Fixed(Vec::new())] {
        assert_eq!(
            traffic_error(Scenario::abilene().pairs(pairs)),
            "Poisson traffic needs at least one sender/receiver pair"
        );
    }
}

/// Poisson arrivals redraw until sender and receiver sit on different
/// switches, so with one hosted switch they used to spin forever.
#[test]
fn poisson_without_a_cross_switch_pair_is_a_typed_error() {
    assert_eq!(
        traffic_error(Scenario::leaf_spine(1, 1, 2)),
        "Poisson traffic needs a sender and a receiver on different switches"
    );
}

/// A leaf-spine scenario small enough for debug-build test runs.
fn small_dc() -> Scenario {
    Scenario::leaf_spine(2, 2, 2)
        .load(0.3)
        .workload(Workload::Cache)
        .duration(Time::ms(8))
        .warmup(Time::ms(1))
        .drain(Time::ms(15))
}

/// Builder parameters come back out in the result metadata.
#[test]
fn scenario_round_trips_into_run_result() {
    let r = small_dc().seed(9).run(&Ecmp);
    assert_eq!(r.system, "ECMP");
    assert_eq!(r.scenario.scenario, "leaf-spine(2,2,2)");
    assert_eq!(r.scenario.load, 0.3);
    assert_eq!(r.scenario.workload, "cache");
    assert_eq!(r.scenario.seed, 9);
    assert_eq!(r.scenario.warmup, Time::ms(1));
    assert_eq!(r.scenario.duration, Time::ms(8));
    // Figures are consistent with the raw stats they derive from.
    assert_eq!(r.figures.completion_rate, r.stats.completion_rate());
    assert_eq!(r.figures.total_wire_bytes, r.stats.total_wire_bytes());
    assert!(r.figures.mean_fct_ms.is_some());
    assert!(r.figures.p99_fct_ms.unwrap() >= r.figures.mean_fct_ms.unwrap());
    assert!(r.traces.is_none(), "tracing was not requested");
}

/// The acceptance sweep: {Contra-MU, ECMP, Hula} × 3 loads compiles the
/// policy exactly once.
#[test]
fn sweep_compiles_each_policy_once() {
    let cache = CompileCache::new();
    let contra = Contra::mu();
    let systems: [&dyn RoutingSystem; 3] = [&contra, &Ecmp, &Hula];
    let results = SweepSpec::new(small_dc())
        .systems(&systems)
        .loads(&[0.2, 0.4, 0.6])
        .run_cached(&cache);
    assert_eq!(results.len(), 9);
    assert_eq!(
        cache.compiles(),
        1,
        "one policy text on one topology must compile exactly once across the sweep"
    );
    // Loads outermost, systems innermost — the CSV ordering.
    let labels: Vec<(f64, String)> = results
        .iter()
        .map(|r| (r.scenario.load, r.system.clone()))
        .collect();
    assert_eq!(labels[0], (0.2, "Contra".to_string()));
    assert_eq!(labels[1], (0.2, "ECMP".to_string()));
    assert_eq!(labels[2], (0.2, "Hula".to_string()));
    assert_eq!(labels[3].0, 0.4);
    // Every cell actually ran.
    for r in &results {
        assert!(
            r.figures.completion_rate > 0.9,
            "{} @ {:.0}%: completion {}",
            r.system,
            r.scenario.load * 100.0,
            r.figures.completion_rate
        );
    }
}

/// Distinct policies in one sweep each compile once.
#[test]
fn distinct_policies_compile_separately_but_once() {
    let cache = CompileCache::new();
    let mu = Contra::mu().labeled("Contra-MU");
    let dc = Contra::dc().labeled("Contra-DC");
    let systems: [&dyn RoutingSystem; 2] = [&mu, &dc];
    SweepSpec::new(small_dc())
        .systems(&systems)
        .loads(&[0.2, 0.5])
        .run_cached(&cache);
    assert_eq!(cache.compiles(), 2, "two distinct policy texts");
    assert_eq!(cache.len(), 2);
}

/// Two identical runs produce identical statistics (the simulator is
/// deterministic and the scenario adds no hidden randomness).
#[test]
fn scenario_runs_are_deterministic() {
    let fingerprint = |sys: &dyn RoutingSystem| {
        let r = small_dc().seed(3).run(sys);
        (
            r.stats.flows.iter().map(|f| f.finish).collect::<Vec<_>>(),
            r.figures.total_wire_bytes,
            r.figures.delivered_packets,
            r.figures.mean_fct_ms.map(f64::to_bits),
        )
    };
    assert_eq!(fingerprint(&Contra::mu()), fingerprint(&Contra::mu()));
    assert_eq!(fingerprint(&Ecmp), fingerprint(&Ecmp));
}

/// Random WAN pair selection is a pure function of the seed.
#[test]
fn random_pairs_are_deterministic() {
    let s = Scenario::abilene();
    assert_eq!(s.pick_pairs(4), s.pick_pairs(4));
    assert_eq!(s.pick_pairs(4).len(), 4);
    let other_seed = Scenario::abilene().seed(2);
    assert_ne!(s.pick_pairs(4), other_seed.pick_pairs(4));
    for (a, b) in s.pick_pairs(4) {
        assert_ne!(a, b, "a host never pairs with itself");
    }
}

/// Register-array telemetry (§5.3 sizing): an undersized flowlet table
/// must report the live pins it displaces — surfaced through `SimStats`
/// into `Figures::register_collisions` — more of them than the default
/// sizing on the same scenario, and the displaced flowlets' re-routing
/// must show in the flow completion times.
#[test]
fn undersized_flowlet_table_reports_collisions() {
    let scenario = Scenario::leaf_spine(4, 2, 8)
        .load(0.6)
        .duration(Time::ms(8))
        .warmup(Time::ms(2))
        .drain(Time::ms(10));
    let starved = Contra::dc().with_flowlet_slots(16);
    let r = scenario.run(&starved);
    assert_eq!(
        r.figures.register_collisions,
        r.stats.switches.flowlets_displaced + r.stats.switches.loops_displaced
    );
    // Scheduler occupancy telemetry rides along on every run.
    assert!(r.stats.sched_peak_pending > 0);

    let roomy = scenario.run(&Contra::dc());
    assert!(
        r.stats.switches.flowlets_displaced > roomy.stats.switches.flowlets_displaced,
        "16 slots per switch must displace more live pins than the default ({} vs {})",
        r.stats.switches.flowlets_displaced,
        roomy.stats.switches.flowlets_displaced
    );
    let fct = |r: &contra_experiments::RunResult| -> Vec<Option<Time>> {
        r.stats.flows.iter().map(|f| f.fct()).collect()
    };
    assert_ne!(
        fct(&r),
        fct(&roomy),
        "displaced flowlets must re-route and move some flow's completion time"
    );
}

/// The old `DcExperiment` smoke test, through the new API: every
/// datacenter system completes nearly all flows at light load.
#[test]
fn dc_scenario_smoke() {
    let scenario = small_dc();
    let contra = Contra::mu();
    let systems: [&dyn RoutingSystem; 3] = [&contra, &Ecmp, &Hula];
    for system in systems {
        let r = scenario.run(system);
        assert!(
            r.figures.completion_rate > 0.9,
            "{}: completion {}",
            r.system,
            r.figures.completion_rate
        );
        assert!(r.figures.mean_fct_ms.is_some());
    }
}

/// The old `WanExperiment` smoke test: every WAN system moves traffic on
/// Abilene.
#[test]
fn wan_scenario_smoke() {
    let scenario = Scenario::abilene()
        .load(0.2)
        .workload(Workload::Cache)
        .duration(Time::ms(160))
        .warmup(Time::ms(120))
        .drain(Time::ms(250));
    let contra = Contra::mu();
    let spain = Spain::new(4);
    let systems: [&dyn RoutingSystem; 3] = [&Sp, &spain, &contra];
    for system in systems {
        let r = scenario.run(system);
        assert!(
            r.figures.completion_rate > 0.8,
            "{}: completion {}",
            r.system,
            r.figures.completion_rate
        );
    }
}

/// Failure scheduling by node name, plus UDP traffic: goodput drops at
/// the failure and the scenario still accounts for every byte.
#[test]
fn udp_scenario_with_failure_runs() {
    let r = Scenario::leaf_spine(2, 2, 2)
        .udp(2e9)
        .duration(Time::ms(12))
        .warmup(Time::ZERO)
        .drain(Time::ZERO)
        .udp_bucket(Time::us(500))
        .fail_link("leaf0", "spine0", Time::ms(6))
        .run(&Contra::dc());
    assert_eq!(r.scenario.workload, "udp");
    let good = r.stats.udp_goodput_gbps();
    assert!(!good.is_empty(), "UDP timeline must be recorded");
    assert!(r.figures.delivered_packets > 0);
}

/// Name labels survive a full sweep: the whitespace-variant policies that
/// the old `SystemKind::label()` silently relabeled stay `"Contra"`.
#[test]
fn series_labels_are_stable_in_results() {
    let variants = [
        "minimize(path.util)",
        "minimize( path.util )",
        "minimize(  path.util  )",
    ];
    let cache = CompileCache::new();
    for v in variants {
        let r = small_dc().run_cached(&Contra::new(v), &cache);
        assert_eq!(r.system, "Contra", "policy {v:?} relabeled its series");
    }
    // Each formatting variant is a distinct cache key (text-keyed), but
    // none of them changed the label.
    assert_eq!(cache.compiles(), 3);
}

/// The seed-aggregation helper: a seeds×loads×systems sweep collapses
/// into one summary per (load, system) point, bands bracket their means,
/// and single-sample bands degenerate to the sample.
#[test]
fn aggregate_seeds_bands_bracket_means() {
    use contra_experiments::{aggregate_seeds, Band};
    let systems: [&dyn RoutingSystem; 2] = [&Ecmp, &Contra::dc()];
    let results = SweepSpec::new(small_dc())
        .systems(&systems)
        .loads(&[0.2, 0.5])
        .seeds(&[1, 2, 3])
        .run();
    assert_eq!(results.len(), 2 * 2 * 3);
    let summaries = aggregate_seeds(&results);
    assert_eq!(summaries.len(), 2 * 2, "one summary per (load, system)");
    // Sweep order is loads-outer, systems-inner; aggregation keeps it.
    assert_eq!(summaries[0].system, "ECMP");
    assert_eq!(summaries[0].load, 0.2);
    assert_eq!(summaries[1].system, "Contra");
    assert_eq!(summaries[3].load, 0.5);
    for s in &summaries {
        assert_eq!(s.seeds, vec![1, 2, 3]);
        let b = s.mean_fct_ms.expect("flows completed");
        assert_eq!(b.n, 3);
        assert!(b.min <= b.mean && b.mean <= b.max, "{b:?}");
        assert!(
            s.completion_rate.min <= s.completion_rate.mean
                && s.completion_rate.mean <= s.completion_rate.max
        );
    }
    // Seeds genuinely vary the traffic, so at least one band is wide.
    assert!(
        summaries
            .iter()
            .any(|s| { s.mean_fct_ms.is_some_and(|b| b.max > b.min) }),
        "three seeds should not produce identical FCTs everywhere"
    );
    // Band::over basics.
    assert_eq!(Band::over([]), None);
    let one = Band::over([2.5]).unwrap();
    assert_eq!((one.mean, one.min, one.max, one.n), (2.5, 2.5, 2.5, 1));
}

/// Knob-axis entries (`SweepSpec::vary`) are part of the aggregation
/// key: cells that differ only by knob must never fold into one band.
#[test]
fn aggregate_seeds_keeps_knob_variants_apart() {
    use contra_experiments::{aggregate_seeds, SweepSpec};
    let systems: [&dyn RoutingSystem; 1] = [&Ecmp];
    let results = SweepSpec::new(small_dc())
        .systems(&systems)
        .seeds(&[1, 2])
        .vary("short", |s| s.duration(Time::ms(6)))
        .vary("long", |s| s.duration(Time::ms(10)))
        .run();
    assert_eq!(results.len(), 2 * 2);
    assert_eq!(results[0].scenario.knob.as_deref(), Some("short"));
    let summaries = aggregate_seeds(&results);
    assert_eq!(summaries.len(), 2, "one band per knob entry");
    assert_eq!(summaries[0].knob.as_deref(), Some("short"));
    assert_eq!(summaries[1].knob.as_deref(), Some("long"));
    for s in &summaries {
        assert_eq!(s.seeds, vec![1, 2]);
    }
    // The knob genuinely changes the measurement (longer drain → more
    // completions), so folding them together would have mixed bands.
    assert!(
        summaries[0].completion_rate.mean <= summaries[1].completion_rate.mean,
        "shorter run cannot complete more flows"
    );
}
