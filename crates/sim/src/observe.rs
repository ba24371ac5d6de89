//! The observation seam: the one place the engine reports what happened.
//!
//! The engine measures nothing itself. At each seam point it emits one
//! typed, `Copy` [`Obs`] through `Observers::emit`, and the four
//! consumers — [`SimStats`] (always on), the `Auditor`
//! (`SimConfig::audit`), the [`Recorder`] (`SimConfig::telemetry`) and
//! the [`TraceTable`] (`SimConfig::trace_paths`) — each pick out, in
//! their one [`Observer::on`], the kinds they care about. A consumer
//! that is off is a `None` box. Every consumer is pure observation, so
//! statistics are byte-identical with any combination switched on.
//!
//! Adding an observation kind is one [`Obs`] variant, its `emit` site
//! in the engine, and an arm in the `on` of each consumer that wants it.

use crate::config::SimConfig;
use crate::engine::RunOutput;
use crate::fault::{audit_traces, Auditor};
use crate::link::{DropReason, LinkState};
use crate::packet::{FlowId, PacketPool};
use crate::recorder::Recorder;
use crate::sched::SchedCounters;
use crate::stats::{SimStats, TrafficKind};
use crate::switch::{SwitchCounters, SwitchLogic};
use crate::time::Time;
use crate::trace::TraceTable;
use contra_topology::{NodeId, Topology};

/// One thing the engine saw happen, at the instant passed beside it.
/// Packets are named by id, links by directed link index.
#[derive(Clone, Copy)]
pub enum Obs<'a> {
    /// A packet was offered to a link (one per hop attempt).
    Offered,
    /// A link accepted a packet into its queue; `busy_start` when that
    /// took the serializer from idle to busy.
    OnWire {
        kind: TrafficKind,
        bytes: u32,
        link: u32,
        busy_start: bool,
    },
    /// An arrival was realized: the packet left the wire.
    Taken,
    /// A routed payload packet or ACK arrived at switch `node`.
    Visit { pkt: u64, node: NodeId },
    /// A packet died. `on_link_leg`: between being offered to a link and
    /// being taken at the far end (TTL death, missing link, enqueue
    /// rejection, failure flush) — as opposed to inside a switch.
    Drop {
        reason: DropReason,
        is_probe: bool,
        link: Option<u32>,
        pkt: u64,
        on_link_leg: bool,
    },
    /// A payload packet reached its destination host; `udp_payload` is
    /// the datagram's payload bytes (`None` for TCP data).
    Deliver {
        flow: FlowId,
        seq: u32,
        pkt: u64,
        udp_payload: Option<u32>,
    },
    /// An ACK reached its sender and was consumed.
    AckConsumed { pkt: u64 },
    /// A TCP flow became active.
    FlowStart { flow: u32 },
    /// `flow`'s congestion window after a transport action.
    Cwnd { flow: u32, cwnd: f64 },
    /// A directed link actually went down (after its flush drops).
    LinkDown { link: u32 },
    /// A directed link actually came back up.
    LinkUp { link: u32 },
    /// A fault event is about to change link state: an epoch opens.
    FaultEpoch { label: &'a str, down: bool },
    /// A packet on the wire arrives past `stop_at`: the arrival is never
    /// scheduled, so it keeps its pool slot at end of run by design.
    StopCut,
    /// The periodic fabric queue sample of one link.
    QueueDepth { link: u32, bytes: u32 },
    /// State is consistent, every link settled — after a fault epoch, and
    /// at end of run.
    Checkpoint {
        end_of_run: bool,
        links: &'a [LinkState],
        pool: &'a PacketPool,
    },
    /// The telemetry cadence came due (`Observers::wants_sample`).
    Sample {
        links: &'a [LinkState],
        fabric: &'a [u32],
        logics: &'a [Option<Box<dyn SwitchLogic>>],
        events: u64,
    },
    /// The event loop drained: the run's totals, handed over once.
    End {
        events: u64,
        sched: SchedCounters,
        /// Every switch's [`SwitchLogic::counters`], summed.
        switches: SwitchCounters,
    },
}

/// A consumer of the engine's observations.
pub trait Observer {
    /// Takes one observation made at `now`; ignores kinds it has no use
    /// for.
    fn on(&mut self, now: Time, obs: &Obs<'_>);
}

/// An observer that may be switched off.
impl<T: Observer> Observer for Option<Box<T>> {
    #[inline(always)]
    fn on(&mut self, now: Time, obs: &Obs<'_>) {
        if let Some(observer) = self {
            observer.on(now, obs);
        }
    }
}

/// Everything that watches one run. Owned by the engine, which only
/// [emits](Observers::emit) into it, asks [`Observers::wants_sample`],
/// and drains it with [`Observers::into_output`] — plus lending `stats`
/// to the transport, which writes flow records (results, not
/// observations) straight into it.
pub(crate) struct Observers {
    pub(crate) stats: SimStats,
    traces: Option<Box<TraceTable>>,
    audit: Option<Box<Auditor>>,
    telem: Option<Box<Recorder>>,
}

impl Observers {
    /// The observers `cfg` asks for.
    pub(crate) fn new(cfg: &SimConfig, topo: &Topology) -> Observers {
        Observers {
            stats: SimStats::new(cfg.udp_bucket),
            traces: cfg.trace_paths.then(Box::default),
            audit: cfg.audit.then(Box::default),
            telem: cfg
                .telemetry
                .as_ref()
                .map(|t| Box::new(Recorder::new(t, topo))),
        }
    }

    /// Hands one observation to every observer. Force-inlined, as is
    /// every `on`: at an emit site the variant is a literal, so each
    /// observer's `match` folds to its one arm behind one null check —
    /// or, where it has no arm, to nothing, null check included.
    #[inline(always)]
    pub(crate) fn emit(&mut self, now: Time, obs: Obs<'_>) {
        self.stats.on(now, &obs);
        self.traces.on(now, &obs);
        self.audit.on(now, &obs);
        self.telem.on(now, &obs);
        // The one read across observers: a traced packet that is no
        // longer in flight is a leak only the auditor can call out.
        if let (Obs::Checkpoint { pool, .. }, Some(_), Some(traces)) =
            (obs, &self.audit, &self.traces)
        {
            audit_traces(now, pool, traces);
        }
    }

    /// Whether the recorder's lazy cadence is due — the engine then
    /// emits an [`Obs::Sample`] at the event it has just dispatched.
    #[inline]
    pub(crate) fn wants_sample(&self, now: Time) -> bool {
        self.telem
            .as_deref()
            .is_some_and(|rec| now >= rec.next_sample)
    }

    /// Drains the observers into the run's output. Loops are detected
    /// by the path table and reported in the statistics.
    pub(crate) fn into_output(mut self) -> RunOutput {
        let traces = self.traces.map(|t| {
            self.stats.looped_packets = t.looped_packets();
            t.into_delivered()
        });
        RunOutput {
            stats: self.stats,
            traces,
            telemetry: self.telem.map(|rec| rec.into_report()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::TelemetryConfig;

    /// A scripted run, no engine: packet 1 crosses two links through
    /// switch `s` (node 0) and is delivered; packet 2 queues behind it,
    /// is flushed by a fault, and its retransmission finds no route.
    fn scripted(all_on: bool) -> RunOutput {
        let mut t = Topology::builder();
        let (s, h) = (t.switch("s"), t.host("h"));
        t.biline(s, h, 1e9, 1_000);
        let cfg = SimConfig {
            audit: all_on,
            trace_paths: all_on,
            telemetry: all_on.then(TelemetryConfig::default),
            ..SimConfig::default()
        };
        let mut obs = Observers::new(&cfg, &t.build());
        let (links, pool) = (&[][..], &PacketPool::default());
        let on_wire = |link, busy_start| Obs::OnWire {
            kind: TrafficKind::Udp,
            bytes: 1_000,
            link,
            busy_start,
        };
        let drop = |reason, link: Option<u32>| Obs::Drop {
            reason,
            is_probe: false,
            link,
            pkt: 2,
            on_link_leg: link.is_some(),
        };
        let deliver = Obs::Deliver {
            flow: FlowId(0),
            seq: 0,
            pkt: 1,
            udp_payload: Some(960),
        };
        let fault = Obs::FaultEpoch {
            label: "down s~h",
            down: true,
        };
        let checkpoint = |end_of_run| Obs::Checkpoint {
            end_of_run,
            links,
            pool,
        };
        let end = Obs::End {
            events: 9,
            sched: SchedCounters::default(),
            switches: SwitchCounters::default(),
        };
        let script = [
            (1, Obs::FlowStart { flow: 0 }),
            (1, Obs::Offered),
            (1, on_wire(0, true)),
            (2, Obs::Offered),
            (2, on_wire(0, false)),
            (3, Obs::Taken),
            (3, Obs::Visit { pkt: 1, node: s }),
            (3, Obs::Offered),
            (3, on_wire(1, true)),
            (4, Obs::Taken),
            (4, deliver),
            (5, fault),
            (5, drop(DropReason::LinkDown, Some(0))),
            (5, Obs::LinkDown { link: 0 }),
            (5, checkpoint(false)),
            (6, Obs::Offered),
            (6, on_wire(1, false)),
            (7, Obs::Taken),
            (7, Obs::Visit { pkt: 2, node: s }),
            (7, drop(DropReason::NoRoute, None)),
            (8, checkpoint(true)),
            (8, end),
        ];
        for (us, o) in script {
            assert!(!obs.wants_sample(Time::us(us)), "the cadence is 100 us");
            obs.emit(Time::us(us), o);
        }
        obs.into_output()
    }

    /// Observers are pure observation: the statistics are the same with
    /// all of them watching as with none.
    #[test]
    fn stats_do_not_depend_on_who_else_watches() {
        let (off, on) = (scripted(false), scripted(true));
        assert_eq!(format!("{:?}", off.stats), format!("{:?}", on.stats));
        let stats = &on.stats;
        assert_eq!((stats.delivered_packets, stats.events_processed), (1, 9));
        assert_eq!(stats.total_wire_bytes(), 4_000);
        assert_eq!(stats.drops.values().sum::<u64>(), 2);
        assert_eq!(stats.fault_epochs[0].disruption_drops, 2);
        assert_eq!(stats.udp_delivered.values().sum::<u64>(), 960);
        assert!(off.traces.is_none() && off.telemetry.is_none());
        // Only the delivered packet left a path; the dead one none.
        assert_eq!(on.traces, Some(vec![(FlowId(0), vec![NodeId(0)])]));
        let counts = on.telemetry.expect("recorder on").event_counts();
        let names: Vec<_> = counts.iter().map(|(&name, &n)| (name, n)).collect();
        let expected = [
            ("deliver", 1),
            ("down", 2), // opened by the fault, closed at end of run
            ("drop", 2),
            ("fault", 1),
            ("flow_start", 1),
            ("tx_start", 2),
        ];
        assert_eq!(names, expected);
    }

    /// A revisit is a loop, reported in the statistics once per packet —
    /// and only a traced run can see it.
    #[test]
    fn loops_reach_the_stats_from_the_path_table() {
        for (trace_paths, looped) in [(true, 1), (false, 0)] {
            let cfg = SimConfig {
                trace_paths,
                ..SimConfig::default()
            };
            let mut obs = Observers::new(&cfg, &Topology::builder().build());
            for node in [0, 1, 0, 1].map(NodeId) {
                obs.emit(Time::ZERO, Obs::Visit { pkt: 5, node });
            }
            assert_eq!(obs.into_output().stats.looped_packets, looped);
        }
    }
}
