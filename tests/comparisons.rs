//! Integration: the paper's headline comparisons, at smoke-test scale —
//! the *shapes* of Figs 11, 12 and 15 must hold in miniature, expressed
//! through the `Scenario`/`RoutingSystem` experiment API.

use contra::dataplane::Contra;
use contra::experiments::{Ecmp, Pairs, Scenario, Sp, Workload};
use contra::sim::Time;

/// The §6.3 fabric at short duration: arrivals 2–18 ms, drained by 45 ms.
fn dc_scenario(load: f64, fail: bool) -> Scenario {
    let s = Scenario::leaf_spine(4, 2, 8)
        .load(load)
        .workload(Workload::WebSearch)
        .duration(Time::ms(18))
        .warmup(Time::ms(2))
        .drain(Time::ms(27))
        .seed(11);
    if fail {
        // Plain ECMP: on the experiment's timescale its control plane has
        // not reconverged around the failure (the paper's setting — it
        // observes "heavy traffic loss" from ECMP on the asymmetric
        // fabric).
        s.fail_link("leaf0", "spine0", Time::us(100))
    } else {
        s
    }
}

/// Fig 11 in miniature: at moderate-high load Contra's FCT beats ECMP's on
/// the symmetric fabric.
#[test]
fn contra_beats_ecmp_on_symmetric_fabric() {
    let scenario = dc_scenario(0.7, false);
    let ecmp = scenario.run(&Ecmp);
    let contra = scenario.run(&Contra::dc());
    let (fe, fc) = (
        ecmp.figures.mean_fct_ms.unwrap(),
        contra.figures.mean_fct_ms.unwrap(),
    );
    assert!(
        fc < fe,
        "Contra ({fc:.3} ms) must beat ECMP ({fe:.3} ms) at 70% load"
    );
    assert!(contra.figures.completion_rate > 0.99);
}

/// Fig 12 in miniature: with a failed uplink, ECMP suffers heavy traffic
/// loss (flows hashed through the dead link blackhole) while Contra routes
/// around it and completes essentially everything.
#[test]
fn asymmetric_fabric_hurts_ecmp_more_than_contra() {
    let scenario = dc_scenario(0.7, true);
    let ecmp = scenario.run(&Ecmp);
    let contra = scenario.run(&Contra::dc());
    assert!(
        ecmp.figures.completion_rate < 0.97,
        "unrepaired ECMP must lose flows through the dead uplink, got {:.3}",
        ecmp.figures.completion_rate
    );
    assert!(
        contra.figures.completion_rate > 0.98
            && contra.figures.completion_rate > ecmp.figures.completion_rate + 0.02,
        "Contra must route around the failure, got {:.3} vs ECMP {:.3}",
        contra.figures.completion_rate,
        ecmp.figures.completion_rate
    );
    // Note: comparing mean FCT *among completed flows* here would be
    // survivorship-biased — ECMP's blackholed flows never finish, so its
    // survivors look artificially fast. The loss itself is the result.
}

/// Fig 15 in miniature: on Abilene under load, Contra's utilization-aware
/// multipath beats static shortest paths.
#[test]
fn contra_beats_sp_on_abilene() {
    let base = Scenario::abilene().load(0.8).seed(3).min_rto(Time::ms(10));
    let hosts = base.topology().hosts();
    let scenario = base.clone().pairs(Pairs::Fixed(vec![
        (hosts[0], hosts[10]),
        (hosts[2], hosts[8]),
        (hosts[1], hosts[5]),
        (hosts[4], hosts[9]),
    ]));
    let sp = scenario.run(&Sp);
    let contra = scenario.run(&Contra::mu());
    let (fs, fc) = (
        sp.figures.mean_fct_ms.unwrap(),
        contra.figures.mean_fct_ms.unwrap(),
    );
    assert!(
        fc < fs,
        "Contra ({fc:.3} ms) must beat SP ({fs:.3} ms) on Abilene at 80% load"
    );
}

// Scenario-metadata round-tripping is covered by the experiments crate's
// own suite (crates/experiments/tests/api.rs).
