//! Deterministic fault plans: *what breaks, when* — as a value.
//!
//! A [`FaultPlan`] names failures and recoveries symbolically (node
//! names, not ids) so the same plan applies to any topology that has
//! those nodes. Chaos plans ([`FaultPlan::random`]) are **expanded
//! before the run** into an explicit [`FaultCmd`] list: replays are
//! byte-identical, a failing plan can be printed and replayed verbatim,
//! and a sweep cell carries the whole plan in its scenario value.

use contra_sim::Time;
use contra_topology::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// What a fault command applies to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultTarget {
    /// The cable (both directions) between two named nodes.
    Cable(String, String),
    /// A named node: all incident links, atomically.
    Node(String),
}

/// One scheduled fault transition. `up == false` is a failure,
/// `up == true` a recovery; both are idempotent at the engine level, so
/// overlapping chaos events compose without bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultCmd {
    /// When the transition fires.
    pub at: Time,
    /// What it applies to.
    pub target: FaultTarget,
    /// Direction: `false` down, `true` up.
    pub up: bool,
}

impl fmt::Display for FaultCmd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dir = if self.up { "up" } else { "down" };
        match &self.target {
            FaultTarget::Cable(a, b) => write!(f, "{} {dir} cable {a}~{b}", self.at),
            FaultTarget::Node(n) => write!(f, "{} {dir} node {n}", self.at),
        }
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
    pub fn fail_link(mut self, a: impl Into<String>, b: impl Into<String>, at: Time) -> FaultPlan {
        self.cmds.push(FaultCmd {
            at,
            target: FaultTarget::Cable(a.into(), b.into()),
            up: false,
        });
        self
    }

    /// Recovers the cable between the named nodes at `at`.
    pub fn recover_link(
        mut self,
        a: impl Into<String>,
        b: impl Into<String>,
        at: Time,
    ) -> FaultPlan {
        self.cmds.push(FaultCmd {
            at,
            target: FaultTarget::Cable(a.into(), b.into()),
            up: true,
        });
        self
    }

    /// A down-then-up flap of the named cable.
    pub fn flap_link(
        self,
        a: impl Into<String> + Clone,
        b: impl Into<String> + Clone,
        down: Time,
        up: Time,
    ) -> FaultPlan {
        assert!(down < up, "flap must fail before it recovers");
        self.fail_link(a.clone(), b.clone(), down)
            .recover_link(a, b, up)
    }

    /// Fails the named node (all incident links) at `at`.
    pub fn fail_node(mut self, node: impl Into<String>, at: Time) -> FaultPlan {
        self.cmds.push(FaultCmd {
            at,
            target: FaultTarget::Node(node.into()),
            up: false,
        });
        self
    }

    /// Recovers the named node at `at`.
    pub fn recover_node(mut self, node: impl Into<String>, at: Time) -> FaultPlan {
        self.cmds.push(FaultCmd {
            at,
            target: FaultTarget::Node(node.into()),
            up: true,
        });
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

    /// Whether the plan schedules nothing at all.
    pub fn is_empty(&self) -> bool {
        self.cmds.is_empty() && self.chaos.is_empty()
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
/// repairs, uniform cable choice — all from one seeded xorshift stream.
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
        out.push(FaultCmd {
            at,
            target: FaultTarget::Cable(a.clone(), b.clone()),
            up: false,
        });
        // The repair may land past `until` (or past the run): the engine
        // never processes events past its stop, and the final-state
        // computation correctly sees such a cable as down at the end.
        let repair = at + Time::secs_f64(exp(&mut rng, spec.mttr.as_secs_f64()));
        out.push(FaultCmd {
            at: repair,
            target: FaultTarget::Cable(a.clone(), b.clone()),
            up: true,
        });
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
            .flap_link("leaf0", "spine0", Time::ms(2), Time::ms(5))
            .fail_node("spine1", Time::ms(2));
        let cmds = plan.expand(&fabric(), Time::ms(10));
        assert_eq!(cmds.len(), 3);
        // Equal instants keep insertion order: the flap's down precedes
        // the node failure pushed later.
        assert_eq!(
            cmds[0].target,
            FaultTarget::Cable("leaf0".into(), "spine0".into())
        );
        assert_eq!(cmds[1].target, FaultTarget::Node("spine1".into()));
        assert!(cmds[2].up);
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
