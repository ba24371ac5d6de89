//! Golden-stats snapshots guarding the hot-path rewrite.
//!
//! The engine's contract (see `contra_sim::engine`) is byte-identical
//! statistics for identical inputs. These tests pin one leaf-spine, one
//! fat-tree and one Abilene scenario per routing system to recorded
//! fingerprints; any refactor that changes a single drop counter, FCT
//! bit pattern or wire-byte total fails loudly.
//!
//! History: captured before the flat-adjacency/slab/register-array
//! overhaul (PR 2), carried unchanged through the timing-wheel scheduler
//! (PR 3 — every field survived byte-identical, confirming the wheel
//! preserves the engine's total order exactly), with only the
//! `p50=`/`p99=` fields re-recorded for PR 3's documented percentile fix
//! (`round((p/100)·(n-1))` → ceil-based nearest rank; mean, completion,
//! drops, wire bytes and delivery counts did not move). PR 5 changed the
//! same-instant tie-break from push order to the `(class, key)` order —
//! arrivals by directed link, completions last — which shifted four
//! DC-scale cells (WAN cells and every drop/delivery count on leaf-spine
//! survived unchanged; only sub-percent FCT means and wire-byte totals
//! moved). PR 13 collapsed the engine's configuration matrix to one
//! engine; every field survived byte-identical.
//!
//! Every cell also runs a second time with the telemetry recorder and the
//! path table watching (the auditor already does in debug builds), and
//! must reproduce the same fingerprint: observers never change a run.
//!
//! Regenerate (only when an *intentional* behavior change lands) with:
//! `CONTRA_GOLDEN_PRINT=1 cargo test -p contra-experiments --test golden -- --nocapture`

use contra_baselines::{Ecmp, Hula, Sp, Spain};
use contra_dataplane::Contra;
use contra_experiments::{Pairs, RunResult, Scenario};
use contra_sim::{percentile, RoutingSystem, Time};

/// Renders every behavioral output the issue calls out — FCT percentiles,
/// drops by reason, wire bytes by kind — plus the loop/delivery counters,
/// with floats as exact bit patterns so "close" never passes for "equal".
/// The FCT fields cover every completed flow, the mean summed in flow
/// order: raw engine output, not [`contra_experiments::Figures`].
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
        "mean={} p50={} p99={} done={:016x}",
        bits(mean),
        bits(percentile(&fcts, 50.0)),
        bits(percentile(&fcts, 99.0)),
        s.completion_rate().to_bits(),
    );
    for (k, v) in &s.drops {
        out.push_str(&format!(" drop[{k:?}]={v}"));
    }
    for (k, v) in s.wire_bytes.iter() {
        out.push_str(&format!(" wire[{k:?}]={v}"));
    }
    out.push_str(&format!(
        " delivered={} looped={} breaks={}",
        s.delivered_packets, s.looped_packets, s.switches.loop_breaks
    ));
    out
}

fn check(scenario: &Scenario, system: &dyn RoutingSystem, golden: &str) {
    let got = fingerprint(&scenario.run(system));
    if std::env::var_os("CONTRA_GOLDEN_PRINT").is_some() {
        println!(
            "GOLDEN {} / {}:\n  \"{}\"",
            scenario.label(),
            system.name(),
            got
        );
        return;
    }
    assert_eq!(
        got,
        golden,
        "behavioral output changed for {} under {}",
        scenario.label(),
        system.name()
    );
    let observed = scenario.clone().telemetry(true).trace_paths(true);
    assert_eq!(
        fingerprint(&observed.run(system)),
        golden,
        "the recorder or the path table changed {} under {}",
        scenario.label(),
        system.name()
    );
}

/// Short §6.3 leaf-spine scenario (all three datacenter systems).
fn leaf_spine() -> Scenario {
    Scenario::leaf_spine(4, 2, 8)
        .load(0.6)
        .duration(Time::ms(8))
        .warmup(Time::ms(2))
        .drain(Time::ms(10))
}

/// Short fat-tree(4) scenario.
fn fat_tree() -> Scenario {
    Scenario::fat_tree(4, 2)
        .load(0.5)
        .duration(Time::ms(6))
        .warmup(Time::ms(2))
        .drain(Time::ms(8))
}

/// Short Abilene WAN scenario (probe warm-up needs the 120 ms default).
fn abilene() -> Scenario {
    Scenario::abilene()
        .load(0.3)
        .duration(Time::ms(180))
        .drain(Time::ms(120))
}

#[test]
fn golden_leaf_spine_contra() {
    check(&leaf_spine(), &Contra::dc(), "mean=3ff38905894b1fa5 p50=3fb804fb1183b603 p99=4022f94b380cb6c8 done=3ff0000000000000 drop[QueueFull]=2265 wire[Data]=155876116 wire[Ack]=4161280 wire[Probe]=148480 delivered=26008 looped=0 breaks=0");
}

#[test]
fn golden_leaf_spine_ecmp() {
    check(&leaf_spine(), &Ecmp, "mean=3ff0ffaed219ffae p50=3fb59e6256366d7a p99=40226bac4f7ec354 done=3fef45d1745d1746 drop[QueueFull]=2796 wire[Data]=159023684 wire[Ack]=4243120 delivered=26521 looped=0 breaks=0");
}

#[test]
fn golden_leaf_spine_hula() {
    check(&leaf_spine(), &Hula, "mean=3ff486785234bacb p50=3fb8027d88c1db01 p99=4024795e7c8d1959 done=3ff0000000000000 drop[QueueFull]=2266 wire[Data]=155872928 wire[Ack]=4161280 wire[Probe]=63616 delivered=26008 looped=0 breaks=0");
}

#[test]
fn golden_fat_tree_contra() {
    check(&fat_tree(), &Contra::dc(), "mean=3ff2c5643c98b606 p50=3fdc6be37de939eb p99=401b5dfaca361998 done=3ff0000000000000 drop[QueueFull]=657 wire[Data]=97114900 wire[Ack]=2593840 wire[Probe]=954112 delivered=11163 looped=0 breaks=0");
}

#[test]
fn golden_fat_tree_ecmp() {
    check(&fat_tree(), &Ecmp, "mean=3ff261f60de6f1d2 p50=3fdd09d8c6d612c7 p99=401af977c88e79ab done=3ff0000000000000 drop[QueueFull]=539 wire[Data]=95791900 wire[Ack]=2558560 delivered=11016 looped=0 breaks=0");
}

#[test]
fn golden_fat_tree_sp() {
    check(&fat_tree(), &Sp, "mean=3ff667b481e3d21c p50=3fdf00f776c4827b p99=401ccaf9a8cdea03 done=3ff0000000000000 drop[QueueFull]=562 wire[Data]=96869134 wire[Ack]=2587120 delivered=11135 looped=0 breaks=0");
}

#[test]
fn golden_abilene_contra() {
    check(&abilene(), &Contra::mu(), "mean=404dd71bff090d18 p50=404674302b40f66a p99=406592a6b50b0f28 done=3fe8000000000000 drop[QueueFull]=308 wire[Data]=326672790 wire[Ack]=8185040 wire[Probe]=197680 delivered=51867 looped=0 breaks=0");
}

#[test]
fn golden_abilene_ecmp() {
    check(&abilene(), &Ecmp, "mean=40484136b7898d59 p50=403c025d18090b41 p99=405f9eed7c6fbd27 done=3fed79435e50d794 drop[QueueFull]=1037 wire[Data]=343162196 wire[Ack]=9018040 delivered=67864 looped=0 breaks=0");
}

#[test]
fn golden_abilene_sp() {
    check(&abilene(), &Sp, "mean=40484136b7898d59 p50=403c025d18090b41 p99=405f9eed7c6fbd27 done=3fed79435e50d794 drop[QueueFull]=1037 wire[Data]=343162196 wire[Ack]=9018040 delivered=67864 looped=0 breaks=0");
}

/// SPAIN on twelve Abilene pairs. Each of the four pairs of [`abilene`]
/// has the same path on every VLAN, so SPAIN runs there as SP does, bit
/// for bit, and its ingress VLAN stamp would go unseen; some of these
/// twelve pairs spread.
#[test]
fn golden_abilene_spain() {
    let scenario = abilene().pairs(Pairs::Random(12));
    check(&scenario, &Spain::new(4), "mean=4045ffc0d30b1c05 p50=403c03a3a8e71477 p99=40646771758e2196 done=3fe9435e50d79436 drop[QueueFull]=244 wire[Data]=284717485 wire[Ack]=6904120 delivered=46738 looped=0 breaks=0");
}
