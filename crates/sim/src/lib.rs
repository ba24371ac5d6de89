//! # contra-sim — packet-level discrete-event network simulator
//!
//! The ns-3 stand-in for the Contra reproduction. It models:
//!
//! * **Links** with store-and-forward serialization, propagation delay and
//!   drop-tail queues (1000 MSS, §6.3), plus the Hula-style decaying
//!   utilization estimator that feeds `path.util`.
//! * **Hosts** running a lightweight NewReno-flavored TCP (slow start,
//!   AIMD, triple-dup-ACK fast retransmit, go-back-N timeout with back-off)
//!   and constant-rate UDP sources for the failure-recovery experiment.
//! * **Switches** as pluggable [`SwitchLogic`] implementations — the
//!   software analogue of one switch's P4 program. The Contra dataplane
//!   (`contra-dataplane`) and all baselines (`contra-baselines`) implement
//!   this trait.
//! * **Routing systems** as [`RoutingSystem`] values — whole schemes
//!   (Contra-with-a-policy, Hula, ECMP, …) that install themselves on a
//!   simulator through an [`InstallCtx`], sharing policy compilation via
//!   [`CompileCache`]. This is the seam the experiment layer
//!   (`contra-experiments`) sweeps over.
//! * **Failures**: cable down/up events, with queued packets lost.
//! * **Measurement**: flow completion times, per-kind wire bytes (traffic
//!   overhead), drops by cause, queue-occupancy sampling, UDP goodput
//!   timelines, exact per-packet loop accounting (opt-in tracing).
//!
//! Determinism: the event queue — a hierarchical timing wheel — is
//! totally ordered by (time, class-encoded key); there is no hidden
//! randomness, so the same inputs give identical results on every run.
//! `tests/sched_diff.rs` checks the wheel's order against a binary-heap
//! reference model.
//!
//! There is one engine: the wheel, a per-packet serializer on every
//! link, boxed [`SwitchLogic`] dispatch and one transport `Send` per
//! segment. Its only run-time toggles are the three observers
//! (`SimConfig::{audit, telemetry, trace_paths}`), none of which changes
//! a statistic.
//!
//! The crate is layered (PR 5): [`sched`] (event order), [`link`]
//! (serializers and queues), [`transport`] (host endpoints), [`switch`]
//! (dataplane programs), with [`engine`] as the dispatcher that composes
//! them and [`config`] naming the knobs. Everything that watches a run
//! hangs off one seam, [`observe`]: the engine emits a typed
//! [`observe::Obs`] where something happens, and [`stats`]
//! (measurement), [`trace`] (path side table), [`fault`] (invariant
//! auditor) and [`recorder`] (telemetry) each consume the stream.

pub mod config;
pub mod engine;
pub mod fault;
pub mod fx;
pub mod link;
pub mod observe;
pub mod packet;
pub mod recorder;
pub mod sched;
pub mod stats;
pub mod switch;
pub mod system;
pub mod time;
pub mod trace;
pub mod transport;

pub use config::{SimConfig, QUEUE_CAPACITY_BYTES};
pub use engine::{RunOutput, Simulator};
pub use fault::FaultError;
pub use fx::{fx_mix64, FxBuildHasher, FxHashMap, FxHasher64};
pub use link::{DropReason, LinkState, UtilEstimator};
pub use packet::{
    flow_hash, silent, FlowId, Packet, PacketKind, PktRef, Probe, ProbeClock, WireSize,
    EXPIRY_PERIODS, FAILURE_PERIODS, FLOWLET_TIMEOUT, HDR_BYTES, INITIAL_TTL, MSS,
    PROBE_BASE_BYTES, PROBE_PERIOD,
};
pub use recorder::{Recorder, TelemetryConfig};
pub use sched::{SchedCounters, SchedEntry, TimingWheel};
pub use stats::{
    percentile, FaultEpoch, FlowRecord, GoodputDip, QueueSample, SimStats, TrafficKind, WireBytes,
    QUEUE_SAMPLE_CAP,
};
pub use switch::{SwitchCounters, SwitchCtx, SwitchLogic, Verdict};
pub use system::{CompileCache, InstallCtx, InstallError, RoutingSystem};
pub use time::{tx_time, Time};
pub use trace::TraceTable;
pub use transport::{FlowSpec, Transport};

#[cfg(test)]
mod tests {
    use super::*;
    use contra_topology::{NodeId, Topology};

    /// Minimal static routing for tests: precomputed next hop per
    /// destination switch, plus host delivery.
    struct StaticLogic {
        next_hop: std::collections::BTreeMap<NodeId, NodeId>,
    }

    impl SwitchLogic for StaticLogic {
        fn on_packet(&mut self, ctx: &mut SwitchCtx<'_>, pkt: &mut Packet, _: NodeId) -> Verdict {
            if pkt.dst_switch == ctx.switch {
                Verdict::Forward(pkt.dst_host)
            } else if let Some(&nh) = self.next_hop.get(&pkt.dst_switch) {
                Verdict::Forward(nh)
            } else {
                Verdict::NoRoute
            }
        }
    }

    /// h0 – s0 – s1 – h1 line, 10 Gbps everywhere.
    fn line() -> Topology {
        let mut t = Topology::builder();
        let s0 = t.switch("s0");
        let s1 = t.switch("s1");
        let h0 = t.host("h0");
        let h1 = t.host("h1");
        t.biline(s0, s1, 10e9, 1_000);
        t.biline(h0, s0, 10e9, 500);
        t.biline(h1, s1, 10e9, 500);
        t.build()
    }

    fn install_static(sim: &mut Simulator) {
        let topo = sim.topology().clone();
        for sw in topo.switches() {
            let mut next_hop = std::collections::BTreeMap::new();
            for other in topo.switches() {
                if other != sw {
                    if let Some(p) = contra_topology::paths::shortest_path(&topo, sw, other) {
                        next_hop.insert(other, p[1]);
                    }
                }
            }
            sim.install(sw, Box::new(StaticLogic { next_hop }));
        }
    }

    #[test]
    fn single_flow_completes() {
        let topo = line();
        let h0 = topo.find("h0").unwrap();
        let h1 = topo.find("h1").unwrap();
        let mut sim = Simulator::new(
            topo,
            SimConfig {
                stop_at: Time::ms(50),
                ..SimConfig::default()
            },
        );
        install_static(&mut sim);
        sim.add_flow(FlowSpec::Tcp {
            src: h0,
            dst: h1,
            bytes: 1_000_000,
            start: Time::ZERO,
        });
        let stats = sim.run().stats;
        assert_eq!(stats.completion_rate(), 1.0);
        let fct = stats.flows[0].fct().unwrap();
        // 1 MB at 10 Gbps is ≥ 800 µs of pure serialization.
        assert!(fct >= Time::us(800), "{fct}");
        assert!(fct <= Time::ms(20), "{fct}");
        assert_eq!(stats.flows[0].retransmits, 0);
        assert!(stats.sched_peak_pending > 0, "occupancy telemetry recorded");
    }

    /// The stop condition is inclusive and lives in exactly one place
    /// (`Simulator::push`): an event scheduled at exactly `stop_at` still
    /// runs; one a nanosecond later is never enqueued. The boundary was
    /// previously untested and enforced in two separate loop checks.
    #[test]
    fn event_exactly_at_stop_at_is_processed() {
        let topo = line();
        let run_with_sample_at = |every: Time| {
            let mut sim = Simulator::new(
                topo.clone(),
                SimConfig {
                    stop_at: Time::ms(5),
                    queue_sample_every: Some(every),
                    ..SimConfig::default()
                },
            );
            install_static(&mut sim);
            sim.run().stats
        };
        // First (and only) queue sample lands exactly on stop_at.
        let stats = run_with_sample_at(Time::ms(5));
        assert_eq!(stats.events_processed, 1, "boundary event must run");
        assert_eq!(stats.queue_samples.len(), 2, "both fabric links sampled");
        // One nanosecond past the stop: nothing ever runs.
        let stats = run_with_sample_at(Time(Time::ms(5).0 + 1));
        assert_eq!(stats.events_processed, 0);
        assert!(stats.queue_samples.is_empty());
    }

    #[test]
    fn deterministic_repeat() {
        let run = || {
            let topo = line();
            let h0 = topo.find("h0").unwrap();
            let h1 = topo.find("h1").unwrap();
            let mut sim = Simulator::new(
                topo,
                SimConfig {
                    stop_at: Time::ms(30),
                    ..SimConfig::default()
                },
            );
            install_static(&mut sim);
            for i in 0..5 {
                sim.add_flow(FlowSpec::Tcp {
                    src: h0,
                    dst: h1,
                    bytes: 200_000 + i * 10_000,
                    start: Time::us(i * 50),
                });
            }
            let s = sim.run().stats;
            (
                s.flows.iter().map(|f| f.finish).collect::<Vec<_>>(),
                s.total_wire_bytes(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn congestion_two_flows_share_bottleneck() {
        let topo = line();
        let h0 = topo.find("h0").unwrap();
        let h1 = topo.find("h1").unwrap();
        let mut sim = Simulator::new(
            topo,
            SimConfig {
                stop_at: Time::ms(100),
                ..SimConfig::default()
            },
        );
        install_static(&mut sim);
        // Two 2 MB flows share one 10 Gbps path: each alone takes ~1.7 ms;
        // together the slower one must take noticeably longer.
        sim.add_flow(FlowSpec::Tcp {
            src: h0,
            dst: h1,
            bytes: 2_000_000,
            start: Time::ZERO,
        });
        sim.add_flow(FlowSpec::Tcp {
            src: h0,
            dst: h1,
            bytes: 2_000_000,
            start: Time::ZERO,
        });
        let stats = sim.run().stats;
        assert_eq!(stats.completion_rate(), 1.0);
        let slowest = stats.flows.iter().map(|f| f.fct().unwrap()).max().unwrap();
        assert!(
            slowest >= Time::us(3_000),
            "sharing must slow flows: {slowest}"
        );
    }

    #[test]
    fn link_failure_drops_then_rto_recovers_via_same_path() {
        let topo = line();
        let h0 = topo.find("h0").unwrap();
        let h1 = topo.find("h1").unwrap();
        let s0 = topo.find("s0").unwrap();
        let s1 = topo.find("s1").unwrap();
        let mut sim = Simulator::new(
            topo,
            SimConfig {
                stop_at: Time::ms(200),
                ..SimConfig::default()
            },
        );
        install_static(&mut sim);
        sim.add_flow(FlowSpec::Tcp {
            src: h0,
            dst: h1,
            bytes: 5_000_000,
            start: Time::ZERO,
        });
        sim.try_fail_link_at(s0, s1, Time::us(300)).unwrap();
        sim.try_recover_link_at(s0, s1, Time::ms(2)).unwrap();
        let stats = sim.run().stats;
        assert_eq!(
            stats.completion_rate(),
            1.0,
            "flow must finish after recovery"
        );
        assert!(
            stats.flows[0].retransmits > 0,
            "failure must cost retransmissions"
        );
        assert!(*stats.drops.get(&DropReason::LinkDown).unwrap_or(&0) > 0);
    }

    #[test]
    fn udp_goodput_matches_offered_rate() {
        let topo = line();
        let h0 = topo.find("h0").unwrap();
        let h1 = topo.find("h1").unwrap();
        let mut sim = Simulator::new(
            topo,
            SimConfig {
                stop_at: Time::ms(20),
                ..SimConfig::default()
            },
        );
        install_static(&mut sim);
        sim.add_flow(FlowSpec::Udp {
            src: h0,
            dst: h1,
            rate_bps: 2e9,
            start: Time::ZERO,
            stop: Time::ms(20),
        });
        let stats = sim.run().stats;
        let good = stats.udp_goodput_gbps();
        assert!(!good.is_empty());
        // Steady-state buckets should carry ≈ 2 Gbps of payload (slightly
        // less after headers).
        let mid = good[good.len() / 2].1;
        assert!(mid > 1.5 && mid < 2.1, "{mid}");
    }

    #[test]
    fn tracing_records_paths_and_no_loops_on_line() {
        let topo = line();
        let h0 = topo.find("h0").unwrap();
        let h1 = topo.find("h1").unwrap();
        let s0 = topo.find("s0").unwrap();
        let s1 = topo.find("s1").unwrap();
        let mut sim = Simulator::new(
            topo,
            SimConfig {
                stop_at: Time::ms(20),
                trace_paths: true,
                ..SimConfig::default()
            },
        );
        install_static(&mut sim);
        sim.add_flow(FlowSpec::Tcp {
            src: h0,
            dst: h1,
            bytes: 100_000,
            start: Time::ZERO,
        });
        let out = sim.run();
        let (stats, traces) = (out.stats, out.traces.expect("paths traced"));
        assert_eq!(stats.looped_packets, 0);
        assert!(!traces.is_empty());
        for (_flow, t) in &traces {
            assert_eq!(t, &vec![s0, s1]);
        }
    }

    #[test]
    fn wire_bytes_split_by_kind() {
        let topo = line();
        let h0 = topo.find("h0").unwrap();
        let h1 = topo.find("h1").unwrap();
        let mut sim = Simulator::new(
            topo,
            SimConfig {
                stop_at: Time::ms(30),
                ..SimConfig::default()
            },
        );
        install_static(&mut sim);
        sim.add_flow(FlowSpec::Tcp {
            src: h0,
            dst: h1,
            bytes: 150_000,
            start: Time::ZERO,
        });
        let stats = sim.run().stats;
        let data = stats.wire_bytes.get(TrafficKind::Data);
        let ack = stats.wire_bytes.get(TrafficKind::Ack);
        // 150 kB of payload crosses 3 links from host to host.
        assert!(data > 3 * 150_000, "{data}");
        assert!(ack > 0 && ack < data, "{ack} vs {data}");
    }

    #[test]
    fn queue_sampling_produces_fabric_samples() {
        let topo = line();
        let h0 = topo.find("h0").unwrap();
        let h1 = topo.find("h1").unwrap();
        let mut sim = Simulator::new(
            topo,
            SimConfig {
                stop_at: Time::ms(10),
                queue_sample_every: Some(Time::us(100)),
                ..SimConfig::default()
            },
        );
        install_static(&mut sim);
        sim.add_flow(FlowSpec::Tcp {
            src: h0,
            dst: h1,
            bytes: 1_000_000,
            start: Time::ZERO,
        });
        let stats = sim.run().stats;
        assert!(!stats.queue_samples.is_empty());
        // Only the 2 fabric links (s0→s1, s1→s0) are sampled.
        let links: std::collections::BTreeSet<u32> =
            stats.queue_samples.iter().map(|s| s.link).collect();
        assert_eq!(links.len(), 2);
    }

    /// cwnd telemetry is one sample per transport action (per ACK),
    /// never per emitted packet, so the series length stays bounded by
    /// the ACK count.
    #[test]
    fn cwnd_sampling_is_per_ack() {
        let topo = line();
        let h0 = topo.find("h0").unwrap();
        let h1 = topo.find("h1").unwrap();
        let mut sim = Simulator::new(
            topo,
            SimConfig {
                stop_at: Time::ms(20),
                telemetry: Some(TelemetryConfig::default()),
                ..SimConfig::default()
            },
        );
        install_static(&mut sim);
        sim.add_flow(FlowSpec::Tcp {
            src: h0,
            dst: h1,
            bytes: 500_000,
            start: Time::ZERO,
        });
        let out = sim.run();
        let report = out.telemetry.as_ref().expect("telemetry requested");
        let points = report.metrics.points("cwnd", "flow0").unwrap_or(&[]);
        assert!(points.len() >= 2, "slow start must record cwnd growth");
        // One cumulative ACK per delivered data packet, plus the start
        // and timeout samples: per-packet sampling would blow past this.
        assert!(
            points.len() as u64 <= out.stats.delivered_packets + 2,
            "{} cwnd samples for {} delivered packets",
            points.len(),
            out.stats.delivered_packets
        );
    }

    /// Telemetry is pure observation: stats are byte-identical with the
    /// recorder on or off, and the exported trace is non-trivial.
    #[test]
    fn telemetry_recorder_is_observationally_neutral() {
        let run = |telemetry: Option<TelemetryConfig>| {
            let topo = line();
            let h0 = topo.find("h0").unwrap();
            let h1 = topo.find("h1").unwrap();
            let mut sim = Simulator::new(
                topo,
                SimConfig {
                    stop_at: Time::ms(10),
                    telemetry,
                    ..SimConfig::default()
                },
            );
            install_static(&mut sim);
            sim.add_flow(FlowSpec::Tcp {
                src: h0,
                dst: h1,
                bytes: 500_000,
                start: Time::ZERO,
            });
            sim.run()
        };
        let off = run(None);
        let on = run(Some(TelemetryConfig::default()));
        assert_eq!(
            format!("{:?}", off.stats),
            format!("{:?}", on.stats),
            "recorder must not perturb the run"
        );
        assert!(off.telemetry.is_none());
        let report = on.telemetry.expect("telemetry requested");
        assert!(!report.events.is_empty());
        assert!(report.metrics.total_points() > 0);
    }
}
