//! Deterministic fault plans: *which cables break, when* — as a value.
//!
//! A failure is a cable whose probes go silent (§5.4). A [`FaultPlan`]
//! names the failures and recoveries of cables symbolically (by the
//! names of their two endpoints, not by ids) so the same plan applies to
//! any topology that has those nodes. Chaos plans ([`FaultPlan::random`])
//! are **expanded before the run** into an explicit [`FaultCmd`] list:
//! replays are byte-identical, a failing plan can be printed and replayed
//! verbatim, and a sweep cell carries the whole plan in its scenario
//! value.

use contra_sim::Time;
use contra_topology::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// One scheduled transition of the cable (both directions) between two
/// named nodes. `up == false` is a failure, `up == true` a recovery;
/// both are idempotent at the engine level, so overlapping chaos events
/// compose without bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultCmd {
    /// When the transition fires.
    pub at: Time,
    /// One end of the cable.
    pub a: String,
    /// The other end.
    pub b: String,
    /// Direction: `false` down, `true` up.
    pub up: bool,
}

impl fmt::Display for FaultCmd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dir = if self.up { "up" } else { "down" };
        write!(f, "{} {dir} cable {}~{}", self.at, self.a, self.b)
    }
}

/// A seeded random-failure process: cable failures arrive as a Poisson
/// process at `rate_per_sec`, each repaired after an exponential time
/// with mean `mttr`. Expansion ([`FaultPlan::expand`]) is a pure
/// function of `(seed, topology, window)` — the chaos is in the plan,
/// never in the run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSpec {
    /// RNG seed for this process (independent of the scenario seed).
    pub seed: u64,
    /// Mean cable failures per second.
    pub rate_per_sec: f64,
    /// Mean time to repair.
    pub mttr: Time,
    /// Failures arrive inside `[start, until)`; `None` bounds default to
    /// time zero and the scenario's stop instant.
    pub start: Option<Time>,
    /// See `start`.
    pub until: Option<Time>,
}

/// A reusable schedule of failures and recoveries, explicit and/or
/// random. Cheap to clone (sweeps clone one per cell).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    cmds: Vec<FaultCmd>,
    chaos: Vec<ChaosSpec>,
}

impl FaultPlan {
    /// The empty plan (nothing fails).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Fails the cable between the named nodes at `at`.
    pub fn fail_link(self, a: impl Into<String>, b: impl Into<String>, at: Time) -> FaultPlan {
        self.cable(a, b, at, false)
    }

    /// Recovers the cable between the named nodes at `at`.
    pub fn recover_link(self, a: impl Into<String>, b: impl Into<String>, at: Time) -> FaultPlan {
        self.cable(a, b, at, true)
    }

    fn cable(
        mut self,
        a: impl Into<String>,
        b: impl Into<String>,
        at: Time,
        up: bool,
    ) -> FaultPlan {
        let (a, b) = (a.into(), b.into());
        self.cmds.push(FaultCmd { at, a, b, up });
        self
    }

    /// Adds a seeded random failure/repair process over the whole run
    /// (narrow it with [`FaultPlan::window`]).
    pub fn random(mut self, seed: u64, rate_per_sec: f64, mttr: Time) -> FaultPlan {
        assert!(
            rate_per_sec > 0.0 && rate_per_sec.is_finite(),
            "chaos rate must be positive"
        );
        self.chaos.push(ChaosSpec {
            seed,
            rate_per_sec,
            mttr,
            start: None,
            until: None,
        });
        self
    }

    /// Restricts the most recently added chaos process to
    /// `[start, until)`.
    pub fn window(mut self, start: Time, until: Time) -> FaultPlan {
        assert!(start < until, "empty chaos window");
        let spec = self
            .chaos
            .last_mut()
            .expect("window() follows a random() chaos process");
        spec.start = Some(start);
        spec.until = Some(until);
        self
    }

    /// Appends everything `other` schedules, keeping insertion order
    /// (which [`FaultPlan::expand`]'s stable sort makes part of a plan's
    /// identity).
    pub(crate) fn merge(&mut self, other: FaultPlan) {
        self.cmds.extend(other.cmds);
        self.chaos.extend(other.chaos);
    }

    /// Expands the plan against a topology into one explicit, sorted
    /// command list: the plan's own commands plus every chaos process
    /// realized (failures drawn over the switch–switch cables of
    /// `topo`). Pure — same inputs, same list, byte for byte; run the
    /// output twice and the simulations are identical.
    pub fn expand(&self, topo: &Topology, default_until: Time) -> Vec<FaultCmd> {
        let mut out = self.cmds.clone();
        if !self.chaos.is_empty() {
            let cables = switch_cables(topo);
            assert!(
                !cables.is_empty(),
                "chaos plan on a topology with no switch-switch cables"
            );
            for spec in &self.chaos {
                expand_chaos(spec, &cables, default_until, &mut out);
            }
        }
        // Stable: commands at the same instant keep insertion order, so
        // expansion order is part of the plan's identity.
        out.sort_by_key(|c| c.at);
        out
    }
}

/// The switch–switch cables of a topology as name pairs, one entry per
/// cable, in deterministic (node-index, adjacency) order.
fn switch_cables(topo: &Topology) -> Vec<(String, String)> {
    let mut cables = Vec::new();
    for sw in topo.switches() {
        for &(nbr, _) in topo.adjacency(sw) {
            if topo.is_switch(nbr) && sw.0 < nbr.0 {
                cables.push((topo.node(sw).name.clone(), topo.node(nbr).name.clone()));
            }
        }
    }
    cables
}

/// Realizes one chaos process: Poisson failure arrivals, exponential
/// repairs, uniform cable choice — all from one seeded `StdRng` stream
/// (the vendored splitmix64 generator).
fn expand_chaos(
    spec: &ChaosSpec,
    cables: &[(String, String)],
    default_until: Time,
    out: &mut Vec<FaultCmd>,
) {
    let start = spec.start.unwrap_or(Time::ZERO);
    let until = spec.until.unwrap_or(default_until);
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let exp = |rng: &mut StdRng, mean_secs: f64| -> f64 {
        // Inverse-CDF sampling; gen::<f64>() ∈ [0,1) keeps ln finite.
        -(1.0 - rng.gen::<f64>()).ln() * mean_secs
    };
    let mut t = start.as_secs_f64();
    loop {
        t += exp(&mut rng, 1.0 / spec.rate_per_sec);
        let at = Time::secs_f64(t);
        if at >= until {
            break;
        }
        let (a, b) = &cables[rng.gen_range(0..cables.len())];
        // The repair may land past `until` (or past the run): the engine
        // never processes events past its stop, so such a cable stays
        // down to the end.
        let repair = at + Time::secs_f64(exp(&mut rng, spec.mttr.as_secs_f64()));
        for (at, up) in [(at, false), (repair, true)] {
            let (a, b) = (a.clone(), b.clone());
            out.push(FaultCmd { at, a, b, up });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contra_topology::generators;

    fn fabric() -> Topology {
        generators::leaf_spine(
            4,
            2,
            2,
            generators::LinkSpec::default(),
            generators::LinkSpec::default(),
        )
    }

    #[test]
    fn explicit_commands_sort_stably() {
        let plan = FaultPlan::new()
            .fail_link("leaf0", "spine0", Time::ms(2))
            .recover_link("leaf0", "spine0", Time::ms(5))
            .fail_link("leaf1", "spine1", Time::ms(2));
        let cmds = plan.expand(&fabric(), Time::ms(10));
        let text: Vec<String> = cmds.iter().map(|c| c.to_string()).collect();
        // Equal instants keep insertion order: leaf0's failure precedes
        // leaf1's, pushed later.
        assert_eq!(
            text,
            [
                "2.000ms down cable leaf0~spine0",
                "2.000ms down cable leaf1~spine1",
                "5.000ms up cable leaf0~spine0",
            ]
        );
    }

    #[test]
    fn chaos_expansion_is_deterministic() {
        let plan = FaultPlan::new().random(42, 2_000.0, Time::us(500));
        let topo = fabric();
        let a = plan.expand(&topo, Time::ms(50));
        let b = plan.expand(&topo, Time::ms(50));
        assert_eq!(a, b, "same seed, same topology, same list");
        assert!(!a.is_empty(), "2k/s over 50 ms must draw failures");
        // Every failure has its paired repair.
        let downs = a.iter().filter(|c| !c.up).count();
        let ups = a.iter().filter(|c| c.up).count();
        assert_eq!(downs, ups);
        // Failures stay inside the window; only repairs may overhang.
        let until = Time::ms(50);
        assert!(a.iter().filter(|c| !c.up).all(|c| c.at < until));
    }

    #[test]
    fn chaos_seeds_differ() {
        let topo = fabric();
        let a = FaultPlan::new()
            .random(1, 2_000.0, Time::us(500))
            .expand(&topo, Time::ms(50));
        let b = FaultPlan::new()
            .random(2, 2_000.0, Time::us(500))
            .expand(&topo, Time::ms(50));
        assert_ne!(a, b, "different seeds must draw different plans");
    }

    #[test]
    fn window_bounds_chaos() {
        let plan = FaultPlan::new()
            .random(7, 5_000.0, Time::us(200))
            .window(Time::ms(10), Time::ms(20));
        let cmds = plan.expand(&fabric(), Time::ms(100));
        assert!(!cmds.is_empty());
        for c in cmds.iter().filter(|c| !c.up) {
            assert!(c.at >= Time::ms(10) && c.at < Time::ms(20), "{c}");
        }
    }
}
