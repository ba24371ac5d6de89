//! # contra-baselines — the systems Contra is evaluated against
//!
//! All four baselines of §6, each as a `contra_sim::SwitchLogic`:
//!
//! * [`EcmpSwitch`] — per-flow hashing over equal-cost shortest paths; the
//!   standard datacenter default (Figs 11–13, 16).
//! * [`SpSwitch`] — one static shortest path; the weakest WAN baseline
//!   (Fig 15).
//! * [`HulaSwitch`] — Hula (SOSR'16), the hand-crafted utilization-aware
//!   load balancer for leaf-spine fabrics that Contra matches while being
//!   topology- and policy-generic (Figs 11, 12, 14, 16).
//! * [`SpainSwitch`] — SPAIN (NSDI'10), static low-overlap multipath for
//!   arbitrary graphs (Fig 15).
//!
//! Each baseline is a [`contra_sim::RoutingSystem`] value — [`Ecmp`],
//! [`Sp`], [`Hula`], [`Spain`] — installable on a simulator through the
//! experiment layer (`contra-experiments`) or directly via
//! [`contra_sim::RoutingSystem::install`].

pub mod ecmp;
pub mod hula;
pub mod spain;
pub mod systems;

pub use ecmp::{EcmpSwitch, SpSwitch};
pub use hula::HulaSwitch;
pub use spain::{SpainPaths, SpainSwitch};
pub use systems::{Ecmp, Hula, Sp, Spain};
