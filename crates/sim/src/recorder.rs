//! The telemetry recorder: structured trace events and time series.
//!
//! Same contract as the invariant auditor (`crate::fault::Auditor`,
//! PR 7): **pure observation**. The recorder is an [`Observer`] of the
//! engine's seam ([`crate::observe`]): it sees only the [`Obs`] stream,
//! never touches `SimStats`, never schedules an event, and never
//! changes engine behavior, so golden fingerprints are byte-identical
//! with telemetry on or off — and `events_processed` stays
//! telemetry-invariant because metric sampling piggybacks on the event
//! loop (a lazy cadence check after each dispatched event, answered by
//! an [`Obs::Sample`]) instead of scheduling events of its own.
//!
//! What it captures, into a bounded [`EventRing`] plus a
//! [`MetricsRegistry`] (both from `contra-telemetry`):
//!
//! * packet lifecycle: drops (with reason and link), deliveries,
//!   flow starts;
//! * link/serializer state: idle→busy transitions (`tx_start`), link
//!   down/up as begin/end spans;
//! * fault epochs and transport actions (cwnd evolution as counter
//!   events, deduplicated on change);
//! * cadence-sampled series: per-link utilization and queue depth,
//!   cumulative drops by reason, per-switch probe/table-update churn,
//!   and `events_processed`.
//!
//! Disabled cost: the engine's observers hold no recorder at all.

use crate::link::{DropReason, LinkState};
use crate::observe::{Obs, Observer};
use crate::switch::SwitchLogic;
use crate::time::Time;
use contra_telemetry::{
    ArgVal, EventRing, MetricsRegistry, Phase, SeriesId, TelemetryReport, TraceEvent,
};
use contra_topology::Topology;
use std::collections::{BTreeMap, BTreeSet};

/// Track id of engine-global events (faults, engine counters).
pub const ENGINE_TRACK: u64 = 0;
/// Directed link `l` records on track `LINK_TRACK_BASE + l`.
pub const LINK_TRACK_BASE: u64 = 1;
/// Switch `n` records on track `NODE_TRACK_BASE + n`.
pub const NODE_TRACK_BASE: u64 = 1_000_000;
/// Flow `f` records on track `FLOW_TRACK_BASE + f`.
pub const FLOW_TRACK_BASE: u64 = 2_000_000;

/// Metric sampling cadence (and the spacing of counter trace events).
/// The check is lazy — a sample is taken at the first event at or after
/// each cadence boundary, timestamped at that event's instant — so
/// sparse event streams yield sparse samples rather than fabricated
/// ones.
pub const SAMPLE_EVERY: Time = Time::us(100);

/// Telemetry knobs ([`crate::SimConfig::telemetry`]).
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Trace-event ring capacity (oldest evicted first; the report
    /// carries the eviction count).
    pub ring_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            ring_capacity: 1 << 16,
        }
    }
}

/// Per-run recorder state, drained into a [`TelemetryReport`] by
/// [`crate::engine::Simulator::run`].
#[derive(Debug)]
pub struct Recorder {
    /// The next cadence boundary: a sample is due at the first event at
    /// or past this instant.
    pub(crate) next_sample: Time,
    ring: EventRing,
    metrics: MetricsRegistry,
    /// Track metadata for links/switches (flows appended at finish).
    track_names: Vec<(u64, String)>,
    /// `"src→dst"` per directed link — metric keys.
    link_names: Vec<String>,
    /// Switch display names — metric keys (`None` for hosts).
    switch_names: Vec<Option<String>>,
    /// Links with an open `down` span (must close before export).
    open_down: Vec<bool>,
    /// Per-link cached series handles (`util`, `queue depth`).
    link_series: Vec<Option<(SeriesId, SeriesId)>>,
    /// Last pushed per-link values, to skip unchanged counter events.
    last_link_sample: Vec<(f64, u32)>,
    /// Per-switch cached series handles (`probes_sent`, `table_updates`).
    churn_series: Vec<Option<(SeriesId, SeriesId)>>,
    /// Last sampled per-switch churn, to record only deltas.
    last_churn: Vec<(u64, u64)>,
    /// Last recorded cwnd per flow (NaN = never recorded).
    last_cwnd: Vec<f64>,
    /// Cached cwnd series handle per flow.
    cwnd_series: Vec<Option<SeriesId>>,
    /// Flows that appeared on any event, for track naming.
    flows_seen: BTreeSet<u32>,
    /// Cumulative drops by reason (the `drops` series).
    drops: BTreeMap<DropReason, u64>,
    /// Fault epochs seen so far — the next epoch's index.
    fault_epochs: u64,
}

fn reason_name(r: DropReason) -> &'static str {
    match r {
        DropReason::QueueFull => "QueueFull",
        DropReason::LinkDown => "LinkDown",
        DropReason::TtlExpired => "TtlExpired",
        DropReason::NoRoute => "NoRoute",
    }
}

fn link_track(l: u32) -> u64 {
    LINK_TRACK_BASE + l as u64
}

fn flow_track(f: u32) -> u64 {
    FLOW_TRACK_BASE + f as u64
}

impl Observer for Recorder {
    #[inline(always)]
    fn on(&mut self, now: Time, obs: &Obs<'_>) {
        use Phase::Instant;
        match *obs {
            // Only the idle→busy transition: a fresh busy period.
            Obs::OnWire {
                busy_start: true,
                link,
                ..
            } => self.tx_start(now, link),
            // `link` is `None` for drops with no link context.
            Obs::Drop { reason, link, .. } => {
                *self.drops.entry(reason).or_insert(0) += 1;
                let track = link.map_or(ENGINE_TRACK, link_track);
                let args = [("reason", ArgVal::S(reason_name(reason)))];
                self.event(now, Instant, "drop", "link", track, &args);
            }
            Obs::Deliver { flow, seq, .. } => self.deliver(now, flow.0, seq),
            Obs::FlowStart { flow } => {
                self.flows_seen.insert(flow);
                self.event(now, Instant, "flow_start", "flow", flow_track(flow), &[]);
            }
            Obs::Cwnd { flow, cwnd } => self.cwnd(now, flow, cwnd),
            Obs::FaultEpoch { down, .. } => {
                let dir = ArgVal::S(if down { "down" } else { "up" });
                let args = [("epoch", ArgVal::U(self.fault_epochs)), ("dir", dir)];
                self.event(now, Instant, "fault", "fault", ENGINE_TRACK, &args);
                self.fault_epochs += 1;
            }
            Obs::LinkDown { link } => self.down_span(now, link, true),
            Obs::LinkUp { link } => self.down_span(now, link, false),
            Obs::Sample {
                links,
                fabric,
                logics,
                events,
            } => self.sample(now, links, fabric, logics, events),
            // Close every open span so the exported trace always has
            // matched begin/end pairs.
            Obs::End { .. } => {
                for l in 0..self.open_down.len() as u32 {
                    self.down_span(now, l, false);
                }
            }
            _ => {}
        }
    }
}

impl Recorder {
    /// A recorder for one run over `topo`.
    pub fn new(cfg: &TelemetryConfig, topo: &Topology) -> Recorder {
        let nlinks = topo.links().len();
        let mut track_names = Vec::with_capacity(nlinks + topo.num_nodes() + 1);
        track_names.push((ENGINE_TRACK, "engine".to_string()));
        let mut link_names = Vec::with_capacity(nlinks);
        for (i, l) in topo.links().iter().enumerate() {
            let name = format!("{}→{}", topo.node(l.src).name, topo.node(l.dst).name);
            track_names.push((link_track(i as u32), format!("link {name}")));
            link_names.push(name);
        }
        let mut switch_names = vec![None; topo.num_nodes()];
        for s in topo.switches() {
            let name = topo.node(s).name.clone();
            track_names.push((NODE_TRACK_BASE + s.0 as u64, format!("switch {name}")));
            switch_names[s.0 as usize] = Some(name);
        }
        Recorder {
            next_sample: SAMPLE_EVERY,
            ring: EventRing::new(cfg.ring_capacity),
            metrics: MetricsRegistry::new(),
            track_names,
            link_names,
            switch_names,
            open_down: vec![false; nlinks],
            link_series: vec![None; nlinks],
            last_link_sample: vec![(f64::NAN, u32::MAX); nlinks],
            churn_series: vec![None; topo.num_nodes()],
            last_churn: vec![(0, 0); topo.num_nodes()],
            last_cwnd: Vec::new(),
            cwnd_series: Vec::new(),
            flows_seen: BTreeSet::new(),
            drops: BTreeMap::new(),
            fault_epochs: 0,
        }
    }

    /// The two per-packet events build their one shape in place, out of
    /// line: going through [`Recorder::event`] measurably slows a probe-
    /// heavy run.
    fn tx_start(&mut self, now: Time, link: u32) {
        let track = link_track(link);
        let event = TraceEvent::new(now.0, Phase::Instant, "tx_start", "link", track);
        self.ring.push(event);
    }

    fn deliver(&mut self, now: Time, flow: u32, seq: u32) {
        self.flows_seen.insert(flow);
        let event = TraceEvent::new(now.0, Phase::Instant, "deliver", "flow", flow_track(flow));
        self.ring.push(event.arg("seq", ArgVal::U(seq as u64)));
    }

    /// Appends one trace event of any shape to the ring.
    #[inline(never)]
    fn event(
        &mut self,
        now: Time,
        phase: Phase,
        name: &'static str,
        cat: &'static str,
        track: u64,
        args: &[(&'static str, ArgVal)],
    ) {
        let event = TraceEvent::new(now.0, phase, name, cat, track);
        let with_args = (args.iter()).fold(event, |e, &(key, val)| e.arg(key, val));
        self.ring.push(with_args);
    }

    /// The congestion window of `flow` after a transport action;
    /// recorded (as a counter trace event plus a series point) only
    /// when it changed.
    fn cwnd(&mut self, now: Time, flow: u32, cwnd: f64) {
        let idx = flow as usize;
        if idx >= self.last_cwnd.len() {
            self.last_cwnd.resize(idx + 1, f64::NAN);
            self.cwnd_series.resize(idx + 1, None);
        }
        if self.last_cwnd[idx] == cwnd {
            return;
        }
        self.last_cwnd[idx] = cwnd;
        self.flows_seen.insert(flow);
        let args = [("cwnd", ArgVal::F(cwnd))];
        self.event(now, Phase::Counter, "cwnd", "flow", flow_track(flow), &args);
        let id = match self.cwnd_series[idx] {
            Some(id) => id,
            None => {
                let id = self.metrics.series("cwnd", &format!("flow{flow}"));
                self.cwnd_series[idx] = Some(id);
                id
            }
        };
        self.metrics.push_id(id, now.0, cwnd);
    }

    /// Opens (`down`) or closes the `down` span of a directed link;
    /// idempotent, so spans always pair up.
    fn down_span(&mut self, now: Time, link: u32, down: bool) {
        if self.open_down[link as usize] != down {
            self.open_down[link as usize] = down;
            let phase = if down { Phase::Begin } else { Phase::End };
            self.event(now, phase, "down", "link", link_track(link), &[]);
        }
    }

    // ---- cadence sampling ----------------------------------------------

    /// Takes one metric sample: fabric-link utilization and queue
    /// depth, cumulative drops by reason, per-switch control-plane
    /// churn, and engine counters; then advances the cadence to the
    /// next boundary strictly after `now` (one catch-up sample per gap,
    /// not a backlog).
    fn sample(
        &mut self,
        now: Time,
        links: &[LinkState],
        fabric: &[u32],
        logics: &[Option<Box<dyn SwitchLogic>>],
        events: u64,
    ) {
        for &i in fabric {
            let link = &links[i as usize];
            self.sample_link(now, i, link.utilization(now), link.queued_bytes());
        }
        for (&reason, &count) in &self.drops {
            self.metrics
                .push("drops", reason_name(reason), now.0, count as f64);
        }
        for (n, logic) in logics.iter().enumerate() {
            if let Some(logic) = logic {
                let c = logic.counters();
                self.sample_churn(now, n as u32, c.probes_sent, c.table_updates);
            }
        }
        self.metrics
            .push("events_processed", "engine", now.0, events as f64);
        self.metrics.inc("telem_samples", "engine", 1);
        self.next_sample = Time((now.0 / SAMPLE_EVERY.0 + 1) * SAMPLE_EVERY.0);
    }

    /// One fabric link's utilization and queue depth at a sample
    /// boundary.
    fn sample_link(&mut self, now: Time, link: u32, util: f64, qdepth: u32) {
        let idx = link as usize;
        let (util_id, depth_id) = match self.link_series[idx] {
            Some(ids) => ids,
            None => {
                let key = self.link_names[idx].clone();
                let ids = (
                    self.metrics.series("link_util", &key),
                    self.metrics.series("queue_depth_bytes", &key),
                );
                self.link_series[idx] = Some(ids);
                ids
            }
        };
        self.metrics.push_id(util_id, now.0, util);
        self.metrics.push_id(depth_id, now.0, qdepth as f64);
        self.metrics
            .observe("queue_depth_bytes", "fabric", qdepth as u64);
        let (last_u, last_q) = self.last_link_sample[idx];
        if last_u != util || last_q != qdepth {
            self.last_link_sample[idx] = (util, qdepth);
            let args = [
                ("util", ArgVal::F(util)),
                ("queued_bytes", ArgVal::U(qdepth as u64)),
            ];
            self.event(now, Phase::Counter, "link", "link", link_track(link), &args);
        }
    }

    /// One switch's cumulative control-plane churn at a sample
    /// boundary; records only when it moved.
    fn sample_churn(&mut self, now: Time, node: u32, probes: u64, updates: u64) {
        let idx = node as usize;
        if self.last_churn[idx] == (probes, updates) {
            return;
        }
        self.last_churn[idx] = (probes, updates);
        let (probes_id, updates_id) = match self.churn_series[idx] {
            Some(ids) => ids,
            None => {
                let key = self.switch_names[idx]
                    .clone()
                    .unwrap_or_else(|| format!("node{node}"));
                let ids = (
                    self.metrics.series("probes_sent", &key),
                    self.metrics.series("table_updates", &key),
                );
                self.churn_series[idx] = Some(ids);
                ids
            }
        };
        self.metrics.push_id(probes_id, now.0, probes as f64);
        self.metrics.push_id(updates_id, now.0, updates as f64);
        let track = NODE_TRACK_BASE + node as u64;
        let args = [
            ("probes_sent", ArgVal::U(probes)),
            ("table_updates", ArgVal::U(updates)),
        ];
        self.event(now, Phase::Counter, "churn", "control", track, &args);
    }

    // ---- end of run -----------------------------------------------------

    /// Drains the recorder into its report (flow tracks named here —
    /// they are only known once the run has happened).
    pub fn into_report(mut self) -> TelemetryReport {
        for f in &self.flows_seen {
            self.track_names.push((flow_track(*f), format!("flow {f}")));
        }
        TelemetryReport {
            events_evicted: self.ring.evicted(),
            events: self.ring.into_events(),
            track_names: self.track_names,
            metrics: self.metrics,
            process_name: "contra-sim".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TrafficKind;
    use contra_topology::Topology;

    fn recorder(ring_capacity: usize) -> Recorder {
        let mut t = Topology::builder();
        let a = t.switch("a");
        let b = t.switch("b");
        t.biline(a, b, 1e9, 1_000);
        let cfg = TelemetryConfig { ring_capacity };
        Recorder::new(&cfg, &t.build())
    }

    /// `(name, phase)` of every recorded trace event, in record order.
    fn events_of(rec: Recorder) -> Vec<(&'static str, Phase)> {
        let report = rec.into_report();
        report.events.iter().map(|e| (e.name, e.phase)).collect()
    }

    #[test]
    fn spans_close_at_end_of_run() {
        let mut rec = recorder(16);
        rec.on(Time::us(10), &Obs::LinkDown { link: 0 });
        rec.on(Time::us(11), &Obs::LinkDown { link: 0 }); // idempotent: no second Begin
        let end = Obs::End {
            events: 0,
            sched: Default::default(),
            switches: Default::default(),
        };
        rec.on(Time::us(20), &end);
        assert_eq!(
            events_of(rec),
            vec![("down", Phase::Begin), ("down", Phase::End)]
        );
    }

    /// Within the instant of a fault the trace reads: the fault epoch
    /// (numbered from zero), the drops of the flushed packets on the
    /// failing link's track, then that link's `down` span opening.
    #[test]
    fn fault_then_flush_drops_then_down_span() {
        let mut rec = recorder(16);
        let now = Time::us(10);
        for (label, down) in [("up a~b", false), ("down a~b", true)] {
            rec.on(now, &Obs::FaultEpoch { label, down });
        }
        for pkt in [4, 5] {
            let obs = Obs::Drop {
                reason: DropReason::LinkDown,
                is_probe: false,
                link: Some(1),
                pkt,
                on_link_leg: true,
            };
            rec.on(now, &obs);
        }
        rec.on(now, &Obs::LinkDown { link: 1 });
        let report = rec.into_report();
        let seen: Vec<_> = (report.events.iter())
            .map(|e| (e.name, e.track, e.args().first().map(|a| a.1)))
            .collect();
        let dropped = Some(ArgVal::S("LinkDown"));
        assert_eq!(
            seen,
            vec![
                ("fault", ENGINE_TRACK, Some(ArgVal::U(0))),
                ("fault", ENGINE_TRACK, Some(ArgVal::U(1))),
                ("drop", LINK_TRACK_BASE + 1, dropped),
                ("drop", LINK_TRACK_BASE + 1, dropped),
                ("down", LINK_TRACK_BASE + 1, None),
            ]
        );
    }

    #[test]
    fn tx_start_only_on_idle_to_busy() {
        let mut rec = recorder(16);
        for busy_start in [true, false, false, true] {
            let obs = Obs::OnWire {
                kind: TrafficKind::Data,
                bytes: 1500,
                link: 0,
                busy_start,
            };
            rec.on(Time::us(1), &obs);
        }
        assert_eq!(events_of(rec), vec![("tx_start", Phase::Instant); 2]);
    }

    #[test]
    fn cwnd_dedups_on_unchanged_value() {
        let mut rec = recorder(16);
        for (us, cwnd) in [(1, 10.0), (2, 10.0), (3, 11.0)] {
            rec.on(Time::us(us), &Obs::Cwnd { flow: 0, cwnd });
        }
        let report = rec.into_report();
        assert_eq!(report.events.len(), 2);
        assert_eq!(report.metrics.points("cwnd", "flow0").unwrap().len(), 2);
        // The flow track got a name.
        assert!(report
            .track_names
            .iter()
            .any(|(t, n)| *t == FLOW_TRACK_BASE && n == "flow 0"));
    }

    #[test]
    fn cadence_advances_past_gaps() {
        let mut rec = recorder(16);
        assert_eq!(rec.next_sample, Time::us(100));
        // An event lands long after several boundaries: one catch-up
        // sample, then the next boundary strictly after it.
        for (at, next) in [(1_250, 1_300), (1_300, 1_400)] {
            let obs = Obs::Sample {
                links: &[],
                fabric: &[],
                logics: &[],
                events: 3,
            };
            rec.on(Time::us(at), &obs);
            assert_eq!(rec.next_sample, Time::us(next));
        }
        let report = rec.into_report();
        assert_eq!(report.metrics.counter("telem_samples", "engine"), 2);
    }
}
