//! Contra as a first-class [`RoutingSystem`]: a policy text plus an
//! explicit display label, installable on any simulator.

use crate::switch::{ContraSwitch, DataplaneConfig};
use contra_core::FLOWLET_ENTRIES;
use contra_sim::{InstallCtx, InstallError, RoutingSystem, Simulator};

/// The synthesized Contra dataplane, parameterized by a policy.
///
/// The display label is an explicit property set at construction —
/// *never* derived by string-matching the policy source, so whitespace or
/// formatting changes in the policy cannot silently relabel a CSV series
/// (the regression the old `SystemKind::label()` had).
#[derive(Debug, Clone)]
pub struct Contra {
    /// Policy source text, compiled per topology through the sweep's
    /// [`contra_sim::CompileCache`].
    pub policy: String,
    label: String,
    /// The flowlet table size of every switch.
    flowlet_slots: usize,
}

impl Contra {
    /// Contra with an arbitrary policy, labeled `"Contra"`.
    ///
    /// Use [`Contra::labeled`] to distinguish several policies within one
    /// figure.
    pub fn new(policy: impl Into<String>) -> Contra {
        Contra {
            policy: policy.into(),
            label: "Contra".to_string(),
            flowlet_slots: FLOWLET_ENTRIES,
        }
    }

    /// Contra with the MU (minimum-utilization) policy — used on general
    /// topologies (§6.4), where detours are the point.
    pub fn mu() -> Contra {
        Contra::new("minimize(path.util)")
    }

    /// Contra as configured for the datacenter comparison (§6.3): the
    /// paper notes its probes carry "the path length as well as the
    /// utilization" there, i.e. least-utilized *shortest* paths —
    /// `minimize((path.len, path.util))`. Pure `path.util` would take
    /// 4-hop leaf-spine-leaf-spine detours under load, which neither Hula
    /// nor the paper's Contra does.
    pub fn dc() -> Contra {
        Contra::new("minimize((path.len, path.util))")
    }

    /// Overrides the display label (e.g. `"Contra-WP"` when comparing
    /// several policies in one series set).
    pub fn labeled(mut self, label: impl Into<String>) -> Contra {
        self.label = label.into();
        self
    }

    /// Sizes every switch's flowlet table (Fig 10c sweeps it); the rest of
    /// the configuration is [`DataplaneConfig::for_policy`]'s.
    pub fn with_flowlet_slots(mut self, slots: usize) -> Contra {
        self.flowlet_slots = slots;
        self
    }
}

impl RoutingSystem for Contra {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn install(&self, sim: &mut Simulator, ctx: &InstallCtx<'_>) -> Result<(), InstallError> {
        let cp = ctx
            .cache
            .get_or_compile(ctx.topology, &self.policy)
            .map_err(|error| InstallError::Compile {
                policy: self.policy.clone(),
                error,
            })?;
        let cfg = DataplaneConfig {
            flowlet_slots: self.flowlet_slots,
            ..DataplaneConfig::for_policy(&cp)
        };
        for sw in ctx.topology.switches() {
            let program = ContraSwitch::new(cp.clone(), ctx.topology, sw, cfg.clone());
            sim.install(sw, Box::new(program));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contra_sim::{CompileCache, RoutingSystem};

    /// Regression for the old `SystemKind::label()` bug: labels must not
    /// depend on the policy text's exact formatting.
    #[test]
    fn label_is_stable_across_policy_formatting() {
        let variants = [
            "minimize(path.util)",
            "minimize( path.util )",
            "minimize((path.len, path.util))",
            "minimize(( path.len , path.util ))",
            "minimize(if .* B .* then path.util else inf)",
        ];
        for v in variants {
            assert_eq!(Contra::new(v).name(), "Contra", "policy {v:?} relabeled");
        }
        assert_eq!(Contra::mu().name(), "Contra");
        assert_eq!(Contra::dc().name(), "Contra");
        assert_eq!(Contra::mu().labeled("Contra-MU").name(), "Contra-MU");
    }

    #[test]
    fn install_error_carries_the_policy() {
        let mut t = contra_topology::Topology::builder();
        let a = t.switch("A");
        let b = t.switch("B");
        t.biline(a, b, 10e9, 1_000);
        let topo = t.build();
        let cache = CompileCache::new();
        let mut sim = contra_sim::Simulator::new(topo.clone(), contra_sim::SimConfig::default());
        let err = Contra::new("minimize(inf)")
            .install(&mut sim, &contra_sim::InstallCtx::new(&topo, &[], &cache))
            .unwrap_err();
        assert!(err.to_string().contains("minimize(inf)"), "{err}");
    }
}
