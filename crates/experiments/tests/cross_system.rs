//! Cross-system oracles: Contra against the hand-built systems it
//! generalizes, each running in the protocol harness under the same
//! frozen metrics (§4's stable-metrics setting). Every pair's path is the
//! one a data packet takes through the switches.

use contra_baselines::{EcmpSwitch, HulaSwitch};
use contra_core::Compiler;
use contra_dataplane::{DataplaneConfig, ProtocolHarness};
use contra_sim::SwitchLogic;
use contra_topology::generators::{self, LinkSpec};
use contra_topology::{paths, NodeId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn contra(topo: &Topology, policy: &str) -> ProtocolHarness {
    let cp = Arc::new(Compiler::new(topo).compile_str(policy).unwrap());
    let cfg = DataplaneConfig::for_policy(&cp);
    ProtocolHarness::new(topo, cp, cfg)
}

/// The largest pinned utilization along `path`, in the traffic direction.
fn bottleneck<S: SwitchLogic>(h: &ProtocolHarness<S>, path: &[NodeId]) -> f64 {
    path.windows(2)
        .map(|w| h.util(w[0], w[1]))
        .fold(0.0, f64::max)
}

/// Hula finds what Contra's `minimize((path.len, path.util))` finds: the
/// paper's "Contra ≈ Hula" (§6.3, Fig 11) as an exact statement. On
/// leaf-spine fabrics of 2–5 leaves and 2–4 spines, with utilizations in
/// 0.05 steps pinned on every cable, each leaf pair's Hula path and Contra
/// path run leaf–spine–leaf with the same bottleneck utilization.
///
/// Kills `mutants/hula_prefers_higher_util.patch` and
/// `mutants/contra_retention_inverted.patch`.
#[test]
fn hula_matches_contra_shortest_widest() {
    let mut pairs = 0;
    for (leaves, spines, seed) in
        (2..6).flat_map(|l| (2..5).flat_map(move |s| (0..5).map(move |k| (l, s, k))))
    {
        let spec = LinkSpec::default();
        let topo = generators::leaf_spine(leaves, spines, 1, spec, spec);
        let switches = topo.switches();
        let hula_switches = switches.iter().map(|&s| (s, HulaSwitch::new(&topo, s)));
        let mut hula = ProtocolHarness::from_switches(&topo, hula_switches);
        let mut contra = contra(&topo, "minimize((path.len, path.util))");
        let mut rng = StdRng::seed_from_u64(seed);
        for l in topo.links().iter().filter(|l| l.src < l.dst) {
            let util = rng.gen_range(0..=20) as f64 / 20.0;
            hula.set_util_bidir(l.src, l.dst, util);
            contra.set_util_bidir(l.src, l.dst, util);
        }
        hula.run_rounds(3);
        contra.run_rounds(3);
        let leaf_ids: Vec<NodeId> = (switches.into_iter())
            .filter(|&s| !topo.hosts_of(s).is_empty())
            .collect();
        for &s in &leaf_ids {
            for &d in leaf_ids.iter().filter(|&&d| d != s) {
                let cell = format!("leaf_spine({leaves}, {spines}) seed {seed}, {s}→{d}");
                let by_hula = hula
                    .traffic_path(s, d)
                    .unwrap_or_else(|| panic!("{cell}: Hula"));
                let by_contra = contra
                    .traffic_path(s, d)
                    .unwrap_or_else(|| panic!("{cell}: Contra"));
                assert_eq!((by_hula.len(), by_contra.len()), (3, 3), "{cell}");
                assert_eq!(
                    bottleneck(&hula, &by_hula),
                    bottleneck(&contra, &by_contra),
                    "{cell}: Hula {by_hula:?}, Contra {by_contra:?}"
                );
                pairs += 1;
            }
        }
    }
    assert_eq!(pairs, 600);
}

/// Contra's `minimize(path.len)` routes on a path ECMP could take: on
/// random 7-switch graphs, each pair's Contra path is as long as ECMP's,
/// and it leaves the source by one of the ECMP next hops.
///
/// Kills `mutants/contra_retention_inverted.patch`.
#[test]
fn contra_shortest_path_is_an_ecmp_path() {
    let mut pairs = 0;
    for seed in 0..20 {
        let topo = generators::random_connected(7, 5, LinkSpec::default(), seed);
        let switches = topo.switches();
        let ecmp_switches = EcmpSwitch::for_switches(&topo, &switches);
        let mut ecmp =
            ProtocolHarness::from_switches(&topo, switches.iter().copied().zip(ecmp_switches));
        let mut contra = contra(&topo, "minimize(path.len)");
        contra.run_rounds(3);
        for &d in &switches {
            let next = paths::ecmp_next_hops(&topo, d);
            for &s in switches.iter().filter(|&&s| s != d) {
                let cell = format!("random_connected(7, 5) seed {seed}, {s}→{d}");
                let by_ecmp = ecmp
                    .traffic_path(s, d)
                    .unwrap_or_else(|| panic!("{cell}: ECMP"));
                let by_contra = contra
                    .traffic_path(s, d)
                    .unwrap_or_else(|| panic!("{cell}: Contra"));
                assert_eq!(
                    by_contra.len(),
                    by_ecmp.len(),
                    "{cell}: Contra {by_contra:?}, ECMP {by_ecmp:?}"
                );
                assert!(
                    next[s.0 as usize].contains(&by_contra[1]),
                    "{cell}: Contra {by_contra:?}"
                );
                pairs += 1;
            }
        }
    }
    assert_eq!(pairs, 840);
}
