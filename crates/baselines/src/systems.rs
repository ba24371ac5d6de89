//! The baselines as first-class [`RoutingSystem`]s.
//!
//! Each unit of §6's comparison surface is a value: `&Ecmp`, `&Sp`,
//! `&Hula`, `&Spain::new(4)`. The experiment layer sweeps
//! slices of `&dyn RoutingSystem`, so adding a baseline to a figure is
//! adding an element to an array.

use crate::ecmp::{EcmpSwitch, SpSwitch};
use crate::hula::HulaSwitch;
use crate::spain::{SpainPaths, SpainSwitch};
use contra_sim::{InstallCtx, InstallError, RoutingSystem, Simulator};
use std::rc::Rc;

/// Per-flow hashing over equal-cost shortest paths — the datacenter
/// default the paper compares against (Figs 11–13, 16).
///
/// Deliberately ignores [`InstallCtx::failed`]: the paper's asymmetric
/// experiment observes "heavy traffic loss" from ECMP because its control
/// plane has not reconverged on the experiment's timescale. A reconverged
/// what-if variant exists as [`EcmpSwitch::new_reconverged`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Ecmp;

impl RoutingSystem for Ecmp {
    fn name(&self) -> String {
        "ECMP".into()
    }

    fn install(&self, sim: &mut Simulator, ctx: &InstallCtx<'_>) -> Result<(), InstallError> {
        let switches = ctx.topology.switches();
        let logics = EcmpSwitch::for_switches(ctx.topology, &switches);
        for (&sw, logic) in switches.iter().zip(logics) {
            sim.install(sw, Box::new(logic));
        }
        Ok(())
    }
}

/// One static shortest path per destination — the weakest WAN baseline
/// (Fig 15).
#[derive(Debug, Clone, Copy, Default)]
pub struct Sp;

impl RoutingSystem for Sp {
    fn name(&self) -> String {
        "SP".into()
    }

    fn install(&self, sim: &mut Simulator, ctx: &InstallCtx<'_>) -> Result<(), InstallError> {
        let switches = ctx.topology.switches();
        let logics = SpSwitch::for_switches(ctx.topology, &switches);
        for (&sw, logic) in switches.iter().zip(logics) {
            sim.install(sw, Box::new(logic));
        }
        Ok(())
    }
}

/// Hula (SOSR'16): the hand-crafted utilization-aware load balancer for
/// leaf-spine fabrics (Figs 11, 12, 14, 16).
#[derive(Debug, Clone, Copy, Default)]
pub struct Hula;

impl RoutingSystem for Hula {
    fn name(&self) -> String {
        "Hula".into()
    }

    fn install(&self, sim: &mut Simulator, ctx: &InstallCtx<'_>) -> Result<(), InstallError> {
        // Hula only speaks two-tier leaf-spine: every switch adjacency
        // must pair a leaf with a spine. Reject anything else up front
        // instead of letting HulaSwitch::new panic mid-install.
        let role = |s| crate::hula::role_of(ctx.topology, s);
        for sw in ctx.topology.switches() {
            let own = role(sw);
            for n in ctx.topology.switch_neighbors(sw) {
                if own == role(n) {
                    return Err(InstallError::Unsupported {
                        system: self.name(),
                        reason: format!(
                            "requires a two-tier leaf-spine fabric, but {} and {} \
                             are adjacent same-tier switches",
                            ctx.topology.node(sw).name,
                            ctx.topology.node(n).name
                        ),
                    });
                }
            }
        }
        for sw in ctx.topology.switches() {
            sim.install(sw, Box::new(HulaSwitch::new(ctx.topology, sw)));
        }
        Ok(())
    }
}

/// SPAIN (NSDI'10): static low-overlap multipath over `vlans` VLAN trees
/// (Fig 15).
#[derive(Debug, Clone, Copy)]
pub struct Spain {
    /// Number of VLAN path sets to precompute.
    pub vlans: usize,
}

impl Spain {
    /// SPAIN with this many VLANs.
    pub fn new(vlans: usize) -> Spain {
        Spain { vlans }
    }
}

impl RoutingSystem for Spain {
    fn name(&self) -> String {
        "SPAIN".into()
    }

    fn install(&self, sim: &mut Simulator, ctx: &InstallCtx<'_>) -> Result<(), InstallError> {
        // The VLAN id rides in one byte of the packet tag.
        if !(1..=u8::MAX as usize).contains(&self.vlans) {
            return Err(InstallError::Unsupported {
                system: self.name(),
                reason: format!("needs 1 to 255 VLANs, got {}", self.vlans),
            });
        }
        let paths = Rc::new(SpainPaths::precompute(ctx.topology, self.vlans));
        for sw in ctx.topology.switches() {
            sim.install(sw, Box::new(SpainSwitch::new(paths.clone())));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable_labels() {
        assert_eq!(Ecmp.name(), "ECMP");
        assert_eq!(Sp.name(), "SP");
        assert_eq!(Hula.name(), "Hula");
        assert_eq!(Spain::new(7).name(), "SPAIN");
    }
}
