//! [`RunResult`]: one simulation's outcome, self-describing.
//!
//! Bundles the raw [`SimStats`] with the system label, the scenario
//! parameters that produced it and the derived figures of merit every
//! figure binary used to recompute by hand.

use contra_sim::{FlowId, SimStats, Time, TrafficKind};
use contra_topology::NodeId;

/// The scenario parameters a result was produced under.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioInfo {
    /// Scenario label (e.g. `"leaf-spine(4,2,8)"`).
    pub scenario: String,
    /// Offered load fraction.
    pub load: f64,
    /// Workload label (`"websearch"`, `"cache"`, `"udp"`, `"none"`).
    pub workload: String,
    /// RNG seed.
    pub seed: u64,
    /// Warm-up instant (FCT figures exclude earlier flows).
    pub warmup: Time,
    /// Arrival stop instant.
    pub duration: Time,
    /// Label of the sweep knob-axis entry this cell ran under
    /// (`SweepSpec::vary`); `None` outside knob sweeps. Part of the
    /// [`aggregate_seeds`] grouping key, so knob variants never fold
    /// into one seed band.
    pub knob: Option<String>,
}

/// Derived figures of merit (§6's y-axes).
#[derive(Debug, Clone, PartialEq)]
pub struct Figures {
    /// Mean FCT in ms over completed flows that started after warm-up.
    pub mean_fct_ms: Option<f64>,
    /// Median FCT in ms over the same flows.
    pub p50_fct_ms: Option<f64>,
    /// 99th-percentile FCT in ms over the same flows.
    pub p99_fct_ms: Option<f64>,
    /// Fraction of flows that completed.
    pub completion_rate: f64,
    /// Every byte placed on the wire, summed over hops (§6.5).
    pub total_wire_bytes: u64,
    /// Probe bytes on the wire — the routing-protocol overhead of Fig 16.
    pub overhead_bytes: u64,
    /// Payload packets that ever traversed a forwarding loop (§6.5).
    pub looped_packets: u64,
    /// Loop-breaking flowlet flushes reported by switch logic (§5.5).
    pub loop_breaks: u64,
    /// Payload packets delivered to their destination host.
    pub delivered_packets: u64,
    /// Modeled register-array collisions: live entries displaced in the
    /// flowlet and loop tables, summed over all switches — the
    /// state-vs-quality trade-off of the paper's §5.3 sizing discussion.
    /// Split counts live in [`SimStats::switches`].
    pub register_collisions: u64,
    /// Worst observed time-to-reconvergence across the run's *failure*
    /// epochs, in ms: from the fault instant to the last `NoRoute`/
    /// `LinkDown` drop attributed to it (0 when routing absorbed every
    /// failure losslessly). `None` when the run had no failure epochs.
    pub convergence_ms: Option<f64>,
    /// Packets lost while routing converged — `NoRoute` + `LinkDown`
    /// drops attributed to any fault epoch (failures and recoveries).
    pub lost_in_convergence: u64,
}

impl Figures {
    /// Computes the figures from raw stats, excluding flows that started
    /// before `warmup` from the FCT aggregates.
    pub fn derive(stats: &SimStats, warmup: Time) -> Figures {
        let mut fcts: Vec<f64> = stats
            .flows
            .iter()
            .filter(|f| f.start >= warmup)
            .filter_map(|f| f.fct().map(|t| t.as_millis_f64()))
            .collect();
        fcts.sort_by(|a, b| a.partial_cmp(b).expect("FCTs are finite"));
        let mean_fct_ms = if fcts.is_empty() {
            None
        } else {
            Some(fcts.iter().sum::<f64>() / fcts.len() as f64)
        };
        let convergence_ms = stats
            .fault_epochs
            .iter()
            .filter(|e| e.is_down)
            .map(|e| e.convergence().as_millis_f64())
            .fold(None, |acc: Option<f64>, c| {
                Some(acc.map_or(c, |a| a.max(c)))
            });
        Figures {
            mean_fct_ms,
            p50_fct_ms: contra_sim::percentile(&fcts, 50.0),
            p99_fct_ms: contra_sim::percentile(&fcts, 99.0),
            completion_rate: stats.completion_rate(),
            total_wire_bytes: stats.total_wire_bytes(),
            overhead_bytes: stats.wire_bytes.get(TrafficKind::Probe),
            looped_packets: stats.looped_packets,
            loop_breaks: stats.switches.loop_breaks,
            delivered_packets: stats.delivered_packets,
            register_collisions: stats.switches.flowlets_displaced + stats.switches.loops_displaced,
            convergence_ms,
            lost_in_convergence: stats.fault_epochs.iter().map(|e| e.disruption_drops).sum(),
        }
    }
}

/// One scenario run under one routing system.
#[derive(Debug)]
pub struct RunResult {
    /// The system's display name ([`contra_sim::RoutingSystem::name`]).
    pub system: String,
    /// The parameters that produced this result.
    pub scenario: ScenarioInfo,
    /// Derived figures of merit.
    pub figures: Figures,
    /// The raw statistics, for anything [`Figures`] doesn't cover.
    pub stats: SimStats,
    /// Per-packet switch paths, when the scenario enabled
    /// [`crate::Scenario::trace_paths`].
    pub traces: Option<Vec<(FlowId, Vec<NodeId>)>>,
    /// The telemetry recorder's report (trace events + metrics), when
    /// the scenario enabled [`crate::Scenario::telemetry`].
    pub telemetry: Option<contra_telemetry::TelemetryReport>,
    /// Wall-clock seconds the event loop took (excludes compilation and
    /// installation — this is the engine's own throughput window).
    pub wall_secs: f64,
}

impl RunResult {
    /// The share of packets that ever looped, as a percentage of
    /// delivered packets (the §6.5 table's quantity).
    pub fn looped_pct(&self) -> f64 {
        100.0 * self.figures.looped_packets as f64 / self.figures.delivered_packets.max(1) as f64
    }
}

/// Mean plus min/max error band of one quantity across seeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Band {
    /// Arithmetic mean over the samples.
    pub mean: f64,
    /// Smallest sample (lower edge of the error band).
    pub min: f64,
    /// Largest sample (upper edge of the error band).
    pub max: f64,
    /// Number of samples aggregated.
    pub n: usize,
}

impl Band {
    /// Aggregates finite samples; `None` when the iterator is empty.
    pub fn over(values: impl IntoIterator<Item = f64>) -> Option<Band> {
        let mut it = values.into_iter();
        let first = it.next()?;
        let (mut sum, mut min, mut max, mut n) = (first, first, first, 1usize);
        for v in it {
            sum += v;
            min = min.min(v);
            max = max.max(v);
            n += 1;
        }
        Some(Band {
            mean: sum / n as f64,
            min,
            max,
            n,
        })
    }
}

/// One sweep point aggregated across its seed axis: the same (scenario,
/// system, workload, knob, load) cell averaged over every seed that ran
/// it.
#[derive(Debug, Clone)]
pub struct SeedSummary {
    /// Scenario label.
    pub scenario: String,
    /// System display name.
    pub system: String,
    /// Workload label.
    pub workload: String,
    /// Knob-axis label (`SweepSpec::vary`), if the sweep had one.
    pub knob: Option<String>,
    /// Offered load fraction.
    pub load: f64,
    /// The seeds aggregated, in sweep order.
    pub seeds: Vec<u64>,
    /// Mean-FCT band (ms); `None` when no seed completed a flow.
    pub mean_fct_ms: Option<Band>,
    /// Completion-rate band.
    pub completion_rate: Band,
    /// Worst time-to-reconvergence band (ms); `None` when no seed had a
    /// failure epoch.
    pub convergence_ms: Option<Band>,
    /// Band of packets lost during convergence.
    pub lost_in_convergence: Band,
}

/// Collapses a sweep's seed axis: results that share (scenario, system,
/// workload, knob, load) fold into one [`SeedSummary`] with mean +
/// min/max bands, groups emitted in first-appearance order — so a
/// `SweepSpec::seeds(…)` grid aggregates into exactly the series a
/// single-seed sweep would produce, one row per (load, system) point,
/// and a `vary()` knob axis keeps one band per knob entry.
pub fn aggregate_seeds(results: &[RunResult]) -> Vec<SeedSummary> {
    type Key = (String, String, String, Option<String>, u64);
    let mut order: Vec<Key> = Vec::new();
    let mut groups: std::collections::HashMap<Key, Vec<&RunResult>> =
        std::collections::HashMap::new();
    for r in results {
        let key = (
            r.scenario.scenario.clone(),
            r.system.clone(),
            r.scenario.workload.clone(),
            r.scenario.knob.clone(),
            r.scenario.load.to_bits(),
        );
        let bucket = groups.entry(key.clone()).or_default();
        if bucket.is_empty() {
            order.push(key);
        }
        bucket.push(r);
    }
    order
        .into_iter()
        .map(|key| {
            let rs = &groups[&key];
            let band_of =
                |f: &dyn Fn(&RunResult) -> Option<f64>| Band::over(rs.iter().filter_map(|r| f(r)));
            SeedSummary {
                scenario: key.0,
                system: key.1,
                workload: key.2,
                knob: key.3,
                load: f64::from_bits(key.4),
                seeds: rs.iter().map(|r| r.scenario.seed).collect(),
                mean_fct_ms: band_of(&|r| r.figures.mean_fct_ms),
                completion_rate: Band::over(rs.iter().map(|r| r.figures.completion_rate))
                    .expect("group is non-empty"),
                convergence_ms: band_of(&|r| r.figures.convergence_ms),
                lost_in_convergence: Band::over(
                    rs.iter().map(|r| r.figures.lost_in_convergence as f64),
                )
                .expect("group is non-empty"),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use contra_sim::FlowRecord;

    /// The FCT aggregates read completed flows that started at or after
    /// warm-up; completion counts every finite flow.
    #[test]
    fn fct_figures_skip_flows_before_warmup() {
        let mut s = SimStats::new(Time::ms(1));
        for (id, start, finish) in [(0, 0, Some(2)), (1, 1, Some(5)), (2, 1, None)] {
            s.flows.push(FlowRecord {
                id: FlowId(id),
                size_bytes: 1000,
                start: Time::ms(start),
                finish: finish.map(Time::ms),
                retransmits: 0,
                unbounded: false,
            });
        }
        let all = Figures::derive(&s, Time::ZERO);
        assert_eq!(all.mean_fct_ms, Some(3.0));
        assert_eq!((all.p50_fct_ms, all.p99_fct_ms), (Some(2.0), Some(4.0)));
        assert!((all.completion_rate - 2.0 / 3.0).abs() < 1e-9);
        let late = Figures::derive(&s, Time::ms(1));
        assert_eq!(late.mean_fct_ms, Some(4.0));
        assert_eq!((late.p50_fct_ms, late.p99_fct_ms), (Some(4.0), Some(4.0)));
    }
}
