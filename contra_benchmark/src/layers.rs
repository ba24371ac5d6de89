//! The traced pass's layer measurements: the workload's own cell run
//! again with one observer on or a trivial switch program, each layer's
//! public entry points timed directly, and micro-drives of the scheduler,
//! the link model and the probe protocol. All of it from outside, through
//! public functions.

use crate::alloc;
use crate::span::{Timed, Tracer};
use crate::workloads::{div_of, fingerprint, ladder_rungs, Rep, SimWorkload};
use contra_bench::compiler_policy_suite;
use contra_core::Compiler;
use contra_dataplane::{DataplaneConfig, ProtocolHarness};
use contra_experiments::{CompileCache, Ecmp, Figures, RunResult, Scenario, Sp};
use contra_sim::{
    FlowId, InstallCtx, LinkState, Packet, PacketKind, RoutingSystem, SimConfig, Simulator, Time,
    TimingWheel, INITIAL_TTL,
};
use contra_topology::{generators, NodeId};
use std::sync::Arc;

/// The per-layer metric a `PipelineProfile` stage feeds.
pub fn stage_metric(stage: &str) -> &'static str {
    match stage {
        "parse" => "core.parse_ms",
        "normalize" => "core.normalize_ms",
        "analyze" => "core.analyze_ms",
        "resolve" => "core.resolve_ms",
        "determinize" => "automata.determinize_ms",
        "product" => "core.product_ms",
        "tablegen" => "core.tablegen_ms",
        _ => "core.other_ms",
    }
}

/// One of the engine's observers, switched on for a cell of its own.
pub struct Observer {
    pub detail: &'static str,
    pub on: fn(Scenario) -> Scenario,
    /// The overhead metric, and the sample list it is derived from:
    /// event-loop seconds of the workload's cell with the observer on,
    /// set against the plain rep of the same traced pass.
    pub metric: &'static str,
    pub samples: &'static str,
}

pub const OBSERVERS: [Observer; 3] = [
    Observer {
        detail: "audit",
        on: |s| s.audit(true),
        metric: "sim.audit.overhead_pct",
        samples: "observed.loop_s.audit",
    },
    Observer {
        detail: "telemetry",
        on: |s| s.telemetry(true),
        metric: "sim.recorder.overhead_pct",
        samples: "observed.loop_s.telemetry",
    },
    Observer {
        detail: "trace_paths",
        on: |s| s.trace_paths(true),
        metric: "sim.trace.overhead_pct",
        samples: "observed.loop_s.trace_paths",
    },
];

/// Sample list behind `experiments.setup_other_ms`: the set-up time of
/// the traced rep, which the directly timed set-up layers are taken from.
pub const TRACED_SETUP_MS: &str = "traced.setup_ms";
/// The set-up layers a simulator rep pays, each timed on its own.
pub const SETUP_LAYERS_MS: [&str; 4] = [
    "topology.build_ms",
    "dataplane.install_ms",
    "workloads.flowgen_ms",
    "experiments.derive_ms",
];

/// A span run under the counting allocator, so that its `allocs` says
/// what the layer allocated.
fn counted<T>(
    tr: &mut Tracer,
    name: &'static str,
    detail: &str,
    f: impl FnOnce(&mut Tracer) -> T,
) -> Timed<T> {
    alloc::start();
    let timed = tr.span(name, detail, f);
    alloc::stop();
    timed
}

/// Runs the workload's cell under `system`, spanned.
fn observed_cell(
    detail: &str,
    scenario: &Scenario,
    system: &dyn RoutingSystem,
    cache: &CompileCache,
    tr: &mut Tracer,
) -> RunResult {
    let cell = tr.span("experiments.cell", detail, |_| {
        scenario.run_cached(system, cache)
    });
    let loop_time = std::time::Duration::from_secs_f64(cell.value.wall_secs);
    tr.children(cell.id, &[("sim.event_loop", loop_time)], true);
    cell.value
}

/// The simulator workloads' layer cells: the same scenario under `Sp`
/// (the engine floor), then with the auditor, the telemetry recorder and
/// path tracing on in turn — each must reproduce the unobserved
/// fingerprint — plus each set-up layer timed on its own.
pub fn sim_cells(
    w: &SimWorkload,
    seed: u64,
    quick: bool,
    plain: &RunResult,
    rep: &mut Rep,
    tr: &mut Tracer,
) {
    let div = div_of(quick);
    let scenario = (w.scenario)(seed, div);
    let system = (w.system)();
    let topo = scenario.topology();
    let cache = CompileCache::new();
    let plain_print = fingerprint(plain);

    let floor = observed_cell("Sp", &scenario, &Sp, &cache, tr);
    rep.layer(
        "baselines.floor_ns_per_event",
        floor.wall_secs * 1e9 / floor.stats.events_processed.max(1) as f64,
    );

    for observer in OBSERVERS {
        let (detail, on, samples) = (observer.detail, observer.on, observer.samples);
        let r = observed_cell(detail, &on(scenario.clone()), &system, &cache, tr);
        rep.layer(samples, r.wall_secs);
        rep.check(fingerprint(&r) == plain_print, || {
            format!(
                "{}: the {detail} cell changed the run: {}",
                w.name,
                fingerprint(&r)
            )
        });
        if detail == "trace_paths" {
            rep.check(r.traces.is_some(), || format!("{}: no path traces", w.name));
        }
        let Some(report) = r.telemetry.as_ref().filter(|_| detail == "telemetry") else {
            continue;
        };
        let export = tr.span("telemetry.export", "", |_| {
            report.chrome_trace().len() + report.metrics_csv().len()
        });
        rep.layer("telemetry.export_ms", export.secs * 1e3);
        rep.layer("telemetry.events", report.events.len() as f64);
        rep.layer("telemetry.evicted", report.events_evicted as f64);
        // Per-switch cumulative churn series: the last point of each is
        // the switch's total at the final sample.
        let total = |series: &str| -> f64 {
            report
                .metrics
                .points_iter()
                .filter(|(name, _, _)| *name == series)
                .filter_map(|(_, _, points)| points.last().map(|p| p.1))
                .sum()
        };
        let (probes, updates) = (total("probes_sent"), total("table_updates"));
        rep.layer("dataplane.probes_sent", probes);
        rep.layer("dataplane.table_updates", updates);
        rep.layer("dataplane.update_ratio", updates / probes.max(1.0));
    }

    let scan = tr.span("topology.rtt_scan", "", |_| topo.max_switch_rtt_ns());
    rep.layer("topology.rtt_scan_ms", scan.secs * 1e3);

    profiled_compile(topo, &system.policy, w.name, rep, tr);

    // Warm cache, fresh simulator: what `install` costs beyond compiling.
    let mut sim = Simulator::new(Arc::new(topo.clone()), SimConfig::default());
    let install = tr.span("dataplane.install", "", |_| {
        system
            .install(&mut sim, &InstallCtx::new(topo, &[], &cache))
            .expect("installs")
    });
    drop(sim);
    rep.layer("dataplane.install_ms", install.secs * 1e3);

    if let Some(flows) = w.flows {
        let generated = tr.span("workloads.flowgen", "", |_| flows(&scenario, seed, div));
        rep.layer("workloads.flowgen_ms", generated.secs * 1e3);
        rep.check(generated.value.len() == plain.stats.flows.len(), || {
            format!(
                "{}: generated {} flows, the cell ran {}",
                w.name,
                generated.value.len(),
                plain.stats.flows.len()
            )
        });
    }

    let derived = tr.span("experiments.derive", "", |_| {
        Figures::derive(&plain.stats, scenario.warmup_time())
    });
    rep.check(derived.value == plain.figures, || {
        format!("{}: derive differs", w.name)
    });
    rep.layer("experiments.derive_ms", derived.secs * 1e3);
    rep.layer(TRACED_SETUP_MS, rep.setup_s * 1e3);
}

/// Compiles `policy` with the profiler on and records the stage, size
/// and allocation metrics.
fn profiled_compile(
    topo: &contra_topology::Topology,
    policy: &str,
    detail: &str,
    rep: &mut Rep,
    tr: &mut Tracer,
) {
    let c = counted(tr, "core.compile", detail, |_| {
        Compiler::new(topo)
            .compile_str_profiled(policy)
            .expect("compiles")
    });
    let (cp, profile) = &c.value;
    tr.children(c.id, &profile.stages, false);
    for (stage, d) in &profile.stages {
        rep.layer(stage_metric(stage), d.as_secs_f64() * 1e3);
    }
    rep.layer("core.compile_allocs", c.allocs as f64);
    rep.layer("core.pg_vnodes", cp.pg.len() as f64);
    let tags: usize = cp.programs.values().map(|p| p.tags.len()).sum();
    rep.layer("core.tags_total", tags as f64);
    let dfa: usize = cp.automata.iter().map(|a| a.num_states()).sum();
    rep.layer("automata.dfa_states", dfa as f64);
}

/// What the ladder's own rep cannot see: the all-pairs RTT scan that the
/// compiler's profile files under `other`, timed directly per rung.
pub fn ladder_extras(seed: u64, quick: bool, rep: &mut Rep, tr: &mut Tracer) {
    let mut scan_ms = 0.0;
    for rung in ladder_rungs(seed, quick) {
        let scan = tr.span("topology.rtt_scan", &rung.label, |_| {
            rung.topo.max_switch_rtt_ns()
        });
        scan_ms += scan.secs * 1e3;
    }
    rep.layer("topology.rtt_scan_ms", scan_ms);
}

/// Workload-independent micro-drives of single layers.
pub fn drives(quick: bool, rep: &mut Rep, tr: &mut Tracer) {
    let ops = if quick { 50_000 } else { 1_000_000 };
    // Pending-event counts and horizons of the two regimes the engine
    // runs in: ~8k events within a few hundred µs in the datacenter,
    // 64k+ within tens of ms on the WAN.
    for (metric, pending, horizon) in [
        ("sim.sched.hold_ns.8k", 8 << 10, Time::us(200)),
        ("sim.sched.hold_ns.64k", 64 << 10, Time::ms(20)),
    ] {
        let hold = tr.span("sim.sched.hold", metric, |_| {
            sched_hold(pending, horizon, ops)
        });
        std::hint::black_box(hold.value);
        rep.layer(metric, hold.secs * 1e9 / ops as f64);
    }

    let link = tr.span("sim.link.drive", "", |_| link_drive(ops));
    rep.layer("sim.link.pkt_ns", link.secs * 1e9 / link.value as f64);

    // The probe protocol without the engine: every switch of the
    // `fabric_probe` fabric originates and relays probes to quiescence.
    let (k, rounds) = if quick { (4, 2) } else { (8, 6) };
    let topo = generators::fat_tree(k, 1, generators::LinkSpec::default());
    for (policy, text) in compiler_policy_suite(&topo) {
        let cp = Arc::new(Compiler::new(&topo).compile_str(&text).expect("compiles"));
        let cfg = DataplaneConfig::for_policy(&cp);
        let mut harness = ProtocolHarness::new(&topo, cp, cfg);
        let run = counted(tr, "dataplane.harness", policy, |_| {
            harness.run_rounds(rounds)
        });
        let probes = harness.probes_delivered.max(1) as f64;
        let metric = match policy {
            "MU" => "dataplane.probe_ns.mu",
            "WP" => "dataplane.probe_ns.wp",
            _ => "dataplane.probe_ns.ca",
        };
        rep.layer(metric, run.secs * 1e9 / probes);
        if policy == "MU" {
            rep.layer("dataplane.probe_allocs", run.allocs as f64 / probes);
            rep.layer("dataplane.probes_per_round", probes / rounds as f64);
        }
    }

    let cache = CompileCache::new();
    let mut sim = Simulator::new(Arc::new(topo.clone()), SimConfig::default());
    let install = counted(tr, "baselines.ecmp_install", "", |_| {
        Ecmp.install(&mut sim, &InstallCtx::new(&topo, &[], &cache))
            .expect("installs")
    });
    drop(sim);
    rep.layer("baselines.ecmp_install_ms", install.secs * 1e3);
}

/// The classic hold model: a queue kept at `pending` events; each step
/// pops the earliest and pushes one a random distance ahead of it.
fn sched_hold(pending: usize, horizon: Time, ops: usize) -> u64 {
    let mut lcg = 0x2545_f491_4f6c_dd1du64;
    let mut ahead = move || {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        1 + (lcg >> 33) % horizon.0
    };
    let mut queue = TimingWheel::<u32>::new();
    for i in 0..pending {
        queue.push(Time(ahead()), i as u32);
    }
    let mut last = 0;
    for _ in 0..ops {
        let e = queue.pop().expect("the queue never drains");
        last = e.at.0;
        queue.push(Time(last + ahead()), e.ev);
    }
    last
}

/// One directed 10 Gbps link fed bursts of 32 full-size packets: every
/// packet goes through enqueue, serialization start and completion.
fn link_drive(packets: usize) -> usize {
    let mut link = LinkState::new(10e9, Time::us(1), 1_500_000, Time::us(100));
    let mut now = Time::ZERO;
    let mut sent = 0usize;
    while sent < packets {
        for i in 0..32u32 {
            let pkt = Packet {
                id: (sent as u64) + i as u64,
                kind: PacketKind::Data,
                src_host: NodeId(0),
                dst_host: NodeId(1),
                dst_switch: NodeId(1),
                flow: FlowId(0),
                seq: i,
                size_bytes: 1500,
                sent_at: now,
                tag: 0,
                pid: 0,
                ttl: INITIAL_TTL,
                flow_hash: 7,
            };
            std::hint::black_box(link.enqueue(pkt, now));
        }
        loop {
            let (pkt, tx) = link.start_tx(now).expect("a queued packet");
            std::hint::black_box(pkt);
            now += tx;
            sent += 1;
            if !link.tx_done() {
                break;
            }
        }
    }
    sent
}
