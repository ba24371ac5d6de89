//! The [`Scenario`] builder: experiment setup as a value.
//!
//! A scenario owns a topology plus everything the old per-figure binaries
//! re-plumbed by hand — workload, load, sender/receiver selection,
//! failures, measurement switches and timing. Running one against a
//! [`RoutingSystem`] is a method call; sweeping the cartesian product of
//! systems × loads is [`SweepSpec`](crate::SweepSpec).

use crate::fault::{FaultCmd, FaultPlan};
use crate::result::{Figures, RunResult, ScenarioInfo};
use contra_sim::{
    CompileCache, FaultError, FlowSpec, InstallCtx, InstallError, RoutingSystem, SimConfig,
    Simulator, Time, HDR_BYTES, MSS,
};
use contra_topology::{generators, NodeId, Topology};
use contra_workloads::{cache, poisson_flows, web_search, EmpiricalCdf, PairPolicy, WorkloadSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Why a scenario did not run. Every variant but `Install` names the
/// scenario by its label and displays as the panic it replaces.
#[derive(Debug)]
pub enum ScenarioError {
    /// The routing system could not be installed.
    Install(InstallError),
    /// The scenario cannot generate its traffic (a load, a timing, a pair
    /// selection or a topology the traffic model does not accept).
    Traffic {
        /// The scenario's label.
        scenario: String,
        /// What does not fit.
        reason: String,
    },
    /// The fault plan names a node the topology does not have.
    UnknownNode {
        /// The scenario's label.
        scenario: String,
        /// The name as given.
        name: String,
    },
    /// The engine rejected a fault command: its nodes exist, the cable
    /// between them does not.
    Fault {
        /// The scenario's label.
        scenario: String,
        /// The rejected command.
        cmd: FaultCmd,
        /// The engine's reason.
        error: FaultError,
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Install(e) => e.fmt(f),
            ScenarioError::Traffic { scenario, reason } => {
                write!(f, "scenario {scenario}: {reason}")
            }
            ScenarioError::UnknownNode { scenario, name } => {
                write!(f, "scenario {scenario}: no node named {name:?}")
            }
            ScenarioError::Fault {
                scenario,
                cmd,
                error,
            } => write!(f, "scenario {scenario}: {error} ({cmd})"),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Install(e) => Some(e),
            ScenarioError::Fault { error, .. } => Some(error),
            ScenarioError::Traffic { .. } | ScenarioError::UnknownNode { .. } => None,
        }
    }
}

impl From<InstallError> for ScenarioError {
    fn from(e: InstallError) -> ScenarioError {
        ScenarioError::Install(e)
    }
}

/// Which flow-size distribution Poisson traffic draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// DCTCP web search.
    WebSearch,
    /// Facebook cache.
    Cache,
}

impl Workload {
    /// The CDF itself.
    pub fn cdf(&self) -> EmpiricalCdf {
        match self {
            Workload::WebSearch => web_search(),
            Workload::Cache => cache(),
        }
    }

    /// CSV label.
    pub fn label(&self) -> &'static str {
        match self {
            Workload::WebSearch => "websearch",
            Workload::Cache => "cache",
        }
    }
}

/// How sender/receiver pairs are chosen for Poisson traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pairs {
    /// Even-indexed hosts send, odd-indexed hosts receive (the §6.3
    /// datacenter setting).
    HalfSendersHalfReceivers,
    /// This many distinct random pairs, drawn deterministically from the
    /// scenario seed (the §6.4 WAN setting; paper: 4).
    Random(usize),
    /// Exactly these pairs.
    Fixed(Vec<(NodeId, NodeId)>),
}

/// What traffic the scenario offers.
#[derive(Debug, Clone, PartialEq)]
pub enum Traffic {
    /// Poisson flow arrivals sized from a [`Workload`] CDF, offered at
    /// [`Scenario::load`] × capacity between [`Scenario::warmup`] and
    /// [`Scenario::duration`].
    Poisson {
        /// Flow-size distribution.
        workload: Workload,
        /// Sender/receiver selection.
        pairs: Pairs,
    },
    /// Constant-rate UDP summing to `total_bps` across host pairs (the
    /// Fig 14 failure-recovery setting): even hosts send to odd hosts on
    /// other leaves, from time zero until [`Scenario::duration`].
    ConstantUdp {
        /// Aggregate offered rate in bits/second.
        total_bps: f64,
    },
    /// No generated traffic — only flows added via [`Scenario::flow`].
    None,
}

/// A complete experiment description (minus the routing system).
#[derive(Debug, Clone)]
pub struct Scenario {
    label: String,
    /// `Arc` so cloning a scenario per sweep cell shares the node/link
    /// tables instead of deep-copying the topology once per cell.
    topology: Arc<Topology>,
    traffic: Traffic,
    load: f64,
    /// `None` derives the §6.3 uplink capacity from the topology.
    capacity_bps: Option<f64>,
    duration: Time,
    warmup: Time,
    drain: Time,
    seed: u64,
    faults: FaultPlan,
    /// The engine configuration the setters write through to; `stop_at`
    /// is filled in at run time from `duration + drain`.
    sim: SimConfig,
    extra_flows: Vec<FlowSpec>,
}

impl Scenario {
    /// A scenario on an arbitrary topology, with §6.3 datacenter timing
    /// defaults (30 ms of arrivals after 2 ms of warm-up, 40 ms drain,
    /// web-search Poisson traffic at 50% of uplink capacity, seed 1).
    pub fn custom(label: impl Into<String>, topology: impl Into<Arc<Topology>>) -> Scenario {
        Scenario {
            label: label.into(),
            topology: topology.into(),
            traffic: Traffic::Poisson {
                workload: Workload::WebSearch,
                pairs: Pairs::HalfSendersHalfReceivers,
            },
            load: 0.5,
            capacity_bps: None,
            duration: Time::ms(30),
            warmup: Time::ms(2),
            drain: Time::ms(40),
            seed: 1,
            faults: FaultPlan::new(),
            sim: SimConfig::default(),
            extra_flows: Vec::new(),
        }
    }

    /// The §6.3 leaf-spine fabric (paper testbed: 4 leaves, 2 spines,
    /// 8 hosts per leaf → 40 Gbps bisection at 4:1 oversubscription).
    pub fn leaf_spine(leaves: usize, spines: usize, hosts_per_leaf: usize) -> Scenario {
        let topo = generators::leaf_spine(
            leaves,
            spines,
            hosts_per_leaf,
            generators::LinkSpec::default(),
            generators::LinkSpec::default(),
        );
        Scenario::custom(
            format!("leaf-spine({leaves},{spines},{hosts_per_leaf})"),
            topo,
        )
    }

    /// A `k`-ary fat-tree with `hosts_per_edge` hosts per edge switch.
    pub fn fat_tree(k: usize, hosts_per_edge: usize) -> Scenario {
        let topo = generators::fat_tree(k, hosts_per_edge, generators::LinkSpec::default());
        Scenario::custom(format!("fat-tree({k})"), topo)
    }

    /// The §6.4 Abilene backbone: 11 PoPs at 40 Gbps with one host each,
    /// four random sender/receiver pairs, WAN-scale timing (400 ms of
    /// arrivals after 120 ms warm-up, 300 ms drain), the utilization
    /// estimator and TCP RTO floors sized for millisecond RTTs.
    pub fn abilene() -> Scenario {
        let topo = generators::with_hosts(
            &generators::abilene(40e9),
            1,
            generators::LinkSpec {
                bandwidth_bps: 40e9,
                delay_ns: 1_000,
            },
        );
        let mut s = Scenario::custom("abilene", topo);
        s.traffic = Traffic::Poisson {
            workload: Workload::WebSearch,
            pairs: Pairs::Random(4),
        };
        s.capacity_bps = Some(40e9);
        s.duration = Time::ms(400);
        s.warmup = Time::ms(120);
        s.drain = Time::ms(300);
        // WAN RTTs are ms-scale: size the estimator window accordingly,
        // and keep the RTO above the ~40 ms utilization-detour RTTs or
        // every first ACK loses to a spurious timeout.
        s.sim.util_tau = Time::ms(20);
        s.sim.min_rto = Time::ms(50);
        s
    }

    // ---- builder setters ------------------------------------------------

    /// Offered load as a fraction of capacity.
    pub fn load(mut self, load: f64) -> Scenario {
        self.load = load;
        self
    }

    /// Flow-size distribution for Poisson traffic (keeps the current pair
    /// selection).
    pub fn workload(mut self, workload: Workload) -> Scenario {
        let pairs = match &self.traffic {
            Traffic::Poisson { pairs, .. } => pairs.clone(),
            _ => Pairs::HalfSendersHalfReceivers,
        };
        self.traffic = Traffic::Poisson { workload, pairs };
        self
    }

    /// Replaces the traffic model wholesale.
    pub fn traffic(mut self, traffic: Traffic) -> Scenario {
        self.traffic = traffic;
        self
    }

    /// Constant-rate UDP totalling `total_bps` (Fig 14), replacing
    /// Poisson traffic.
    pub fn udp(mut self, total_bps: f64) -> Scenario {
        self.traffic = Traffic::ConstantUdp { total_bps };
        self
    }

    /// Sender/receiver pair selection for Poisson traffic.
    pub fn pairs(mut self, pairs: Pairs) -> Scenario {
        if let Traffic::Poisson { pairs: p, .. } = &mut self.traffic {
            *p = pairs;
        }
        self
    }

    /// What the offered load is measured against, in bits/second
    /// (default: the topology's aggregate §6.3 uplink capacity).
    pub fn capacity_bps(mut self, bps: f64) -> Scenario {
        self.capacity_bps = Some(bps);
        self
    }

    /// Arrivals stop at this instant.
    pub fn duration(mut self, t: Time) -> Scenario {
        self.duration = t;
        self
    }

    /// No generated flows before this instant (probe warm-up); derived
    /// FCT figures also exclude flows that started earlier.
    pub fn warmup(mut self, t: Time) -> Scenario {
        self.warmup = t;
        self
    }

    /// Extra time after [`Scenario::duration`] for flows to finish.
    pub fn drain(mut self, t: Time) -> Scenario {
        self.drain = t;
        self
    }

    /// RNG seed (flow arrivals, sizes and random pair selection).
    pub fn seed(mut self, seed: u64) -> Scenario {
        self.seed = seed;
        self
    }

    /// Fails the cable between the named nodes (both directions) at `at`.
    /// May be called repeatedly for multiple failures.
    pub fn fail_link(self, a: impl Into<String>, b: impl Into<String>, at: Time) -> Scenario {
        self.fault_plan(FaultPlan::new().fail_link(a, b, at))
    }

    /// Brings the cable between the named nodes back up at `at`
    /// (pair with [`Scenario::fail_link`] for a flap).
    pub fn recover_link(self, a: impl Into<String>, b: impl Into<String>, at: Time) -> Scenario {
        self.fault_plan(FaultPlan::new().recover_link(a, b, at))
    }

    /// Merges a whole [`FaultPlan`] into the scenario — its explicit
    /// cable commands and its chaos processes
    /// (expanded deterministically at run time, before the simulation
    /// starts).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Scenario {
        self.faults.merge(plan);
        self
    }

    /// Forces the runtime invariant auditor on or off for this scenario
    /// (default: the engine's own default — on in debug builds).
    pub fn audit(mut self, on: bool) -> Scenario {
        self.sim.audit = on;
        self
    }

    /// Samples fabric queue occupancy this often (Fig 13).
    pub fn queue_sampling(mut self, every: Time) -> Scenario {
        self.sim.queue_sample_every = Some(every);
        self
    }

    /// Forces the telemetry recorder on or off for this scenario
    /// (default: off). When on, the run's trace events and metrics land
    /// in [`RunResult::telemetry`].
    pub fn telemetry(mut self, on: bool) -> Scenario {
        if on {
            self.sim.telemetry.get_or_insert_with(Default::default);
        } else {
            self.sim.telemetry = None;
        }
        self
    }

    /// Telemetry trace-ring capacity in events (implies
    /// [`Scenario::telemetry`] on; default: 2^16). When a run outgrows
    /// the ring the oldest events are evicted — the report's
    /// `events_evicted` says how many — so size this up when a test
    /// needs the complete event history.
    pub fn telemetry_ring(mut self, capacity: usize) -> Scenario {
        self.sim.telemetry = Some(contra_sim::TelemetryConfig {
            ring_capacity: capacity,
        });
        self
    }

    /// Records per-packet switch paths (exact loop accounting, §6.5, and
    /// policy-compliance checks); the traces land in
    /// [`RunResult::traces`].
    pub fn trace_paths(mut self, on: bool) -> Scenario {
        self.sim.trace_paths = on;
        self
    }

    /// Overrides the TCP minimum RTO.
    pub fn min_rto(mut self, rto: Time) -> Scenario {
        self.sim.min_rto = rto;
        self
    }

    /// Bucket width for UDP goodput timelines (Fig 14).
    pub fn udp_bucket(mut self, bucket: Time) -> Scenario {
        self.sim.udp_bucket = bucket;
        self
    }

    /// Adds an explicit flow on top of (or instead of, with
    /// [`Traffic::None`]) the generated traffic.
    pub fn flow(mut self, flow: FlowSpec) -> Scenario {
        self.extra_flows.push(flow);
        self
    }

    // ---- accessors ------------------------------------------------------

    /// The scenario's topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The scenario's display label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The warm-up instant (FCT figures exclude earlier flows).
    pub fn warmup_time(&self) -> Time {
        self.warmup
    }

    /// The configured offered load fraction.
    pub fn load_fraction(&self) -> f64 {
        self.load
    }

    /// The configured RNG seed.
    pub fn seed_value(&self) -> u64 {
        self.seed
    }

    /// The fully-resolved fault schedule this scenario will run: explicit
    /// commands plus every chaos process expanded against the topology,
    /// sorted by instant. Pure — calling it twice (or in another
    /// process) yields the same list byte for byte, which is what makes
    /// chaos runs replayable.
    pub fn resolved_faults(&self) -> Vec<FaultCmd> {
        self.faults
            .expand(&self.topology, self.duration + self.drain)
    }

    /// The deterministic random sender/receiver pairs this scenario's
    /// seed selects (resolves [`Pairs::Random`]; mainly for tests and
    /// custom traffic construction).
    pub fn pick_pairs(&self, count: usize) -> Vec<(NodeId, NodeId)> {
        self.random_pairs(count)
            .unwrap_or_else(|reason| panic!("scenario {}: {reason}", self.label))
    }

    fn random_pairs(&self, count: usize) -> Result<Vec<(NodeId, NodeId)>, String> {
        let hosts = self.topology.hosts();
        // Rejection sampling below terminates only when enough distinct
        // ordered pairs exist.
        if count > hosts.len() * hosts.len().saturating_sub(1) {
            return Err(format!(
                "{count} random pairs requested but only {} hosts",
                hosts.len()
            ));
        }
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_mul(31) + 7);
        let mut pairs = Vec::new();
        while pairs.len() < count {
            let s = hosts[rng.gen_range(0..hosts.len())];
            let r = hosts[rng.gen_range(0..hosts.len())];
            if s != r && !pairs.contains(&(s, r)) {
                pairs.push((s, r));
            }
        }
        Ok(pairs)
    }

    // ---- execution ------------------------------------------------------

    /// Runs the scenario under `system`, panicking on installation
    /// failure or a fault plan that does not fit the topology (policy
    /// texts and plans in experiment code are trusted input).
    pub fn run(&self, system: &dyn RoutingSystem) -> RunResult {
        self.run_cached(system, &CompileCache::new())
    }

    /// Runs the scenario, surfacing traffic, installation and fault-plan
    /// errors; it does not panic on any scenario value.
    pub fn try_run(&self, system: &dyn RoutingSystem) -> Result<RunResult, ScenarioError> {
        self.try_run_cached(system, &CompileCache::new())
    }

    /// Runs with a caller-provided compile cache (sweeps share one so
    /// each distinct policy compiles once). Panics where
    /// [`Scenario::try_run_cached`] returns an error.
    pub fn run_cached(&self, system: &dyn RoutingSystem, cache: &CompileCache) -> RunResult {
        self.try_run_cached(system, cache)
            .unwrap_or_else(|e| match e {
                ScenarioError::Install(e) => panic!("installing {}: {e}", system.name()),
                plan => panic!("{plan}"),
            })
    }

    /// Fallible form of [`Scenario::run_cached`].
    pub fn try_run_cached(
        &self,
        system: &dyn RoutingSystem,
        cache: &CompileCache,
    ) -> Result<RunResult, ScenarioError> {
        let flows = self
            .generated_flows()
            .and_then(|flows| {
                let udp = flows.iter().chain(&self.extra_flows);
                match udp.filter_map(udp_rate_error).next() {
                    Some(reason) => Err(reason),
                    None => Ok(flows),
                }
            })
            .map_err(|reason| ScenarioError::Traffic {
                scenario: self.label.clone(),
                reason,
            })?;
        // Chaos processes expand here, before the simulator exists: the
        // run consumes only the explicit list, so a replay (same
        // scenario value) is byte-identical and a failing plan can be
        // dumped and re-run verbatim.
        let faults = self.resolved_faults();

        let cfg = SimConfig {
            stop_at: self.duration + self.drain,
            ..self.sim.clone()
        };

        // The simulator shares the scenario's topology (`Arc`): building a
        // cell costs no node/link-table copy.
        let mut sim = Simulator::new(Arc::clone(&self.topology), cfg);
        // Faults are events that fire later: at install time no cable is
        // down.
        system.install(&mut sim, &InstallCtx::new(&self.topology, &[], cache))?;

        for c in &faults {
            let (a, b) = (self.find(&c.a)?, self.find(&c.b)?);
            let res = if c.up {
                sim.try_recover_link_at(a, b, c.at)
            } else {
                sim.try_fail_link_at(a, b, c.at)
            };
            res.map_err(|error| ScenarioError::Fault {
                scenario: self.label.clone(),
                cmd: c.clone(),
                error,
            })?;
        }
        for f in flows {
            sim.add_flow(f);
        }
        for f in &self.extra_flows {
            sim.add_flow(f.clone());
        }

        let info = ScenarioInfo {
            scenario: self.label.clone(),
            load: self.load,
            workload: match &self.traffic {
                Traffic::Poisson { workload, .. } => workload.label().to_string(),
                Traffic::ConstantUdp { .. } => "udp".to_string(),
                Traffic::None => "none".to_string(),
            },
            seed: self.seed,
            warmup: self.warmup,
            duration: self.duration,
            // A bare run has no knob axis; the sweep engine stamps the
            // cell's knob label after the run (see `run_cells`).
            knob: None,
        };
        let started = std::time::Instant::now();
        let out = sim.run();
        let wall_secs = started.elapsed().as_secs_f64();
        let figures = Figures::derive(&out.stats, self.warmup);
        Ok(RunResult {
            system: system.name(),
            scenario: info,
            figures,
            stats: out.stats,
            traces: out.traces,
            telemetry: out.telemetry,
            wall_secs,
        })
    }

    fn find(&self, name: &str) -> Result<NodeId, ScenarioError> {
        self.topology.find(name).ok_or_else(|| self.unknown(name))
    }

    /// Out of line and cold: built inline in `find`, these two `String`s
    /// moved the release build's inlining (fat LTO, one codegen unit)
    /// enough to slow topology generation 12 % on the ledger's
    /// `policy_ladder`, which never comes here.
    #[cold]
    #[inline(never)]
    fn unknown(&self, name: &str) -> ScenarioError {
        ScenarioError::UnknownNode {
            scenario: self.label.clone(),
            name: name.to_string(),
        }
    }

    /// The generated traffic, or why this scenario cannot generate it.
    fn generated_flows(&self) -> Result<Vec<FlowSpec>, String> {
        let (workload, pairs) = match &self.traffic {
            Traffic::Poisson { workload, pairs } => (workload, pairs),
            Traffic::ConstantUdp { total_bps } => return self.udp_flows(*total_bps),
            Traffic::None => return Ok(Vec::new()),
        };
        if !(self.load > 0.0 && self.load <= 1.5) {
            return Err(format!("load {} out of range (0, 1.5]", self.load));
        }
        if self.duration <= self.warmup {
            return Err(format!(
                "duration {} is not past warm-up {}",
                self.duration, self.warmup
            ));
        }
        // The §6.3 aggregate uplink capacity, or the explicit override.
        let capacity_bps = self
            .capacity_bps
            .unwrap_or_else(|| contra_workloads::uplink_capacity_bps(&self.topology));
        if !(capacity_bps > 0.0 && capacity_bps.is_finite()) {
            return Err(match self.capacity_bps {
                Some(bps) => {
                    format!("load reference capacity {bps} bps is not a positive finite rate")
                }
                None => "load reference capacity is 0 — the topology has no leaf→spine \
                         uplinks to derive it from; set .capacity_bps(...) explicitly"
                    .into(),
            });
        }
        let pair_policy = match pairs {
            Pairs::HalfSendersHalfReceivers => {
                // Even hosts send, odd hosts receive, and arrivals redraw
                // until the two sit on different switches: some pair does
                // once the hosts span two switches. (No `hosts()` vector:
                // this runs in every cell.)
                let topo = &self.topology;
                let mut host_switches = (0..topo.num_nodes() as u32)
                    .map(NodeId)
                    .filter(|&n| !topo.is_switch(n))
                    .map(|h| topo.host_switch(h));
                let first = host_switches.next();
                if !host_switches.any(|sw| Some(sw) != first) {
                    return Err("Poisson traffic needs a sender and a receiver on \
                                different switches"
                        .into());
                }
                PairPolicy::HalfSendersHalfReceivers
            }
            Pairs::Random(n) => PairPolicy::FixedPairs(self.random_pairs(*n)?),
            Pairs::Fixed(list) => PairPolicy::FixedPairs(list.clone()),
        };
        if matches!(&pair_policy, PairPolicy::FixedPairs(p) if p.is_empty()) {
            return Err("Poisson traffic needs at least one sender/receiver pair".into());
        }
        Ok(poisson_flows(
            &self.topology,
            &workload.cdf(),
            &pair_policy,
            &WorkloadSpec {
                load: self.load,
                capacity_bps,
                start: self.warmup,
                until: self.duration,
                seed: self.seed,
            },
        ))
    }

    /// Constant-rate UDP sources summing to `total_bps` (Fig 14): each
    /// even-indexed host sends to an odd-indexed host on another leaf.
    fn udp_flows(&self, total_bps: f64) -> Result<Vec<FlowSpec>, String> {
        let topo = &self.topology;
        let hosts = topo.hosts();
        let senders: Vec<NodeId> = hosts.iter().copied().step_by(2).collect();
        let receivers: Vec<NodeId> = hosts.iter().copied().skip(1).step_by(2).collect();
        let mut pairs = Vec::new();
        for (i, &s) in senders.iter().enumerate() {
            // Bound the rotated scan to one full lap so a topology with no
            // cross-switch receiver fails instead of spinning forever.
            let r = receivers
                .iter()
                .copied()
                .cycle()
                .skip(i + 1)
                .take(receivers.len())
                .find(|&r| topo.host_switch(r) != topo.host_switch(s))
                .ok_or_else(|| {
                    format!(
                        "UDP traffic needs a receiver on another switch than {}",
                        topo.node(s).name
                    )
                })?;
            pairs.push((s, r));
        }
        let per_flow = total_bps / pairs.len() as f64;
        Ok(pairs
            .into_iter()
            .map(|(src, dst)| FlowSpec::Udp {
                src,
                dst,
                rate_bps: per_flow,
                start: Time::ZERO,
                stop: self.duration,
            })
            .collect())
    }
}

/// Why `flow` cannot run, if it is a UDP sender that cannot: its rate
/// must be positive and finite, and the gap it leaves between packets
/// must round to at least 1 ns (at 0 ns the sender re-arms at the same
/// instant forever) and, added to `stop`, still be a time.
fn udp_rate_error(flow: &FlowSpec) -> Option<String> {
    let &FlowSpec::Udp { rate_bps, stop, .. } = flow else {
        return None;
    };
    // Rounded as the sender rounds it (`Time::secs_f64`).
    let gap_ns = (f64::from(MSS + HDR_BYTES) * 8.0 / rate_bps * 1e9).round();
    let why = if !(rate_bps > 0.0 && rate_bps.is_finite()) {
        "is not a positive finite rate"
    } else if gap_ns < 1.0 {
        "leaves less than 1 ns between packets"
    } else if gap_ns >= u64::MAX as f64 || stop.0.checked_add(gap_ns as u64).is_none() {
        "leaves a packet gap past the end of the clock"
    } else {
        return None;
    };
    Some(format!("UDP rate {rate_bps} bps {why}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The observer setters write straight into the scenario's
    /// `SimConfig`, so the last call wins.
    #[test]
    fn setters_write_through_to_sim_config() {
        let s = Scenario::leaf_spine(2, 2, 2);
        let off = s.clone().telemetry_ring(8).telemetry(false);
        assert!(off.sim.telemetry.is_none());
        let on = s.clone().telemetry(false).telemetry_ring(8);
        assert_eq!(on.sim.telemetry.map(|t| t.ring_capacity), Some(8));
        let kept = s.clone().telemetry_ring(8).telemetry(true);
        assert_eq!(kept.sim.telemetry.map(|t| t.ring_capacity), Some(8));
        assert!(!s.clone().audit(false).sim.audit);
        assert!(s.audit(true).sim.audit);
    }
}
