//! The four workloads. Each rep is fixed, seeded work driven through
//! public functions only: three simulator cells that stress the engine
//! differently, and one operator pass with no simulator at all.
//!
//! Nothing here names an engine oracle knob (scheduler kind, link
//! pipeline, dispatch mode, burst sends) or reads a `CONTRA_*` variable:
//! a rep measures the default engine.

use crate::alloc::{self, HeapUse};
use crate::layers;
use crate::span::Tracer;
use contra_bench::compiler_policy_suite;
use contra_core::Compiler;
use contra_experiments::{CompileCache, Contra, Pairs, RunResult, Scenario};
use contra_sim::{DropReason, FlowSpec, Time, TrafficKind};
use contra_topology::{generators, Topology};
use contra_workloads::{poisson_flows, uplink_capacity_bps, web_search, PairPolicy, WorkloadSpec};

/// What one rep produced.
#[derive(Debug, Default)]
pub struct Rep {
    pub wall_s: f64,
    /// Everything before (and after) the run proper: topology build,
    /// cold compile, install, flow generation, figure derivation.
    pub setup_s: f64,
    /// The event loop (simulator workloads) or the operator pass
    /// (`policy_ladder`), scaled by [`Rep::scale`].
    pub run_s: f64,
    /// The same, unscaled.
    pub loop_s: f64,
    pub compile_s: f64,
    /// Nominal size ÷ this rep's size. Seeds draw heavy-tailed traffic,
    /// so reps of different seeds differ in size by ±25%; size-dependent
    /// metrics are reported at the workload's nominal size so that seeds
    /// compare. The size is modelled wire bytes — a property of the
    /// simulated network, not of the engine, so an engine that does the
    /// same work in fewer events shows as faster.
    pub scale: f64,
    pub switch_state_kb: f64,
    /// Set when the allocator counted this rep.
    pub heap: Option<HeapUse>,
    /// Everything a speed-only change must leave identical.
    pub fingerprint: String,
    /// Checks that did not hold; a rep with any is a failed operation.
    pub failures: Vec<String>,
    /// Per-layer samples, by metric name.
    pub layers: Vec<(&'static str, f64)>,
}

impl Rep {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }
}

/// A scenario's flow list, generated directly through `contra_workloads`.
type FlowGen = fn(&Scenario, seed: u64, div: u64) -> Vec<FlowSpec>;

/// One simulator cell.
pub struct SimWorkload {
    pub name: &'static str,
    pub system: fn() -> Contra,
    /// Builds the scenario, topology included. `div` shortens every
    /// simulated instant (`--quick`).
    pub scenario: fn(seed: u64, div: u64) -> Scenario,
    /// For the flow-generation layer metric; `None` where the traffic
    /// has no public generator (constant-rate UDP).
    pub flows: Option<FlowGen>,
    /// Modelled wire bytes of a rep of nominal size (a round number near
    /// the seed-1 rep).
    pub nominal_wire_bytes: f64,
    /// Whether the cell injects a failure whose recovery is checked.
    pub fails_a_link: bool,
}

/// A benchmark workload.
pub enum Workload {
    Sim(SimWorkload),
    Ladder,
}

fn ms(full: u64, div: u64) -> Time {
    Time(Time::ms(full).0 / div)
}

fn dc_tcp(seed: u64, div: u64) -> Scenario {
    Scenario::leaf_spine(4, 2, 8)
        .load(0.6)
        .duration(ms(60, div))
        .warmup(ms(2, div))
        .drain(ms(40, div))
        .seed(seed)
}

fn dc_tcp_flows(sc: &Scenario, seed: u64, div: u64) -> Vec<FlowSpec> {
    poisson_flows(
        sc.topology(),
        &web_search(),
        &PairPolicy::HalfSendersHalfReceivers,
        &WorkloadSpec {
            load: 0.6,
            capacity_bps: uplink_capacity_bps(sc.topology()),
            start: ms(2, div),
            until: ms(60, div),
            seed,
        },
    )
}

/// The seed draws the flows; the four sender/receiver pairs stay the
/// seed-1 draw. Seeds then differ in traffic, not in which backbone
/// paths carry it — redrawing the pairs alone moved allocations per
/// byte by ±10% and peak heap by ±17% between seeds. At seed 1 this is
/// exactly `Scenario::abilene().load(0.3)`.
fn wan_tcp(seed: u64, div: u64) -> Scenario {
    let base = Scenario::abilene();
    let pairs = base.pick_pairs(4);
    base.pairs(Pairs::Fixed(pairs))
        .load(0.3)
        .duration(ms(400, div))
        .warmup(ms(120, div))
        .drain(ms(300, div))
        .seed(seed)
}

fn wan_tcp_flows(sc: &Scenario, seed: u64, div: u64) -> Vec<FlowSpec> {
    poisson_flows(
        sc.topology(),
        &web_search(),
        &PairPolicy::FixedPairs(sc.clone().seed(1).pick_pairs(4)),
        &WorkloadSpec {
            load: 0.3,
            capacity_bps: 40e9,
            start: ms(120, div),
            until: ms(400, div),
            seed,
        },
    )
}

/// Constant-rate UDP is seed-invariant, so the seed picks which pod's
/// `edge_0`–`agg_0` cable flaps and, from seed 9 on, shifts the instant
/// across the probe schedule in 37 µs steps (as `fig14` does). Seed 1 is
/// the issue's cell: `edge0_0`–`agg0_0` down at 5 ms, up at 10 ms.
fn fabric_probe(seed: u64, div: u64) -> Scenario {
    let s = seed.wrapping_sub(1);
    let (edge, agg) = (format!("edge{}_0", s % 8), format!("agg{}_0", s % 8));
    let shift = Time::us(37 * ((s / 8) % 8));
    Scenario::fat_tree(8, 1)
        .udp(16e9)
        .duration(ms(15, div))
        .warmup(Time::ZERO)
        .drain(Time::ZERO)
        .udp_bucket(Time::us(250))
        .fail_link(edge.clone(), agg.clone(), ms(5, div) + shift)
        .recover_link(edge, agg, ms(10, div) + shift)
        .seed(seed)
}

/// Every workload, in the order a round runs them.
pub fn all() -> Vec<Workload> {
    vec![
        // A Fig 11 cell. Scheduler, links and TCP transport do nearly
        // all the work; probes are 0.06% of wire bytes and compile takes
        // 45 µs, so probe handling and the compiler are bypassed.
        Workload::Sim(SimWorkload {
            name: "dc_tcp",
            system: Contra::dc,
            scenario: dc_tcp,
            flows: Some(dc_tcp_flows),
            nominal_wire_bytes: 1.4e9,
            fails_a_link: false,
        }),
        // The Fig 15 Abilene cell. The layers of `dc_tcp` used
        // differently: millisecond links hold 70k pending events against
        // 8k, so a scheduler or link change that helps one working set
        // and costs the other shows.
        Workload::Sim(SimWorkload {
            name: "wan_tcp",
            system: Contra::mu,
            scenario: wan_tcp,
            flows: Some(wan_tcp_flows),
            nominal_wire_bytes: 2.0e9,
            fails_a_link: false,
        }),
        // Fig 14 at 80 switches. 90% of events are probe handling: the
        // dataplane's write path (probe → rank → table update →
        // multicast) does the work where `dc_tcp` uses only its read
        // path; constant-rate UDP keeps TCP transport out; the flap makes
        // recovery measurable.
        Workload::Sim(SimWorkload {
            name: "fabric_probe",
            system: Contra::dc,
            scenario: fabric_probe,
            flows: None,
            nominal_wire_bytes: 1.8e8,
            fails_a_link: true,
        }),
        // Figs 9 and 10, the operator path. Compiler, automata, P4
        // back end and topology do all the work; simulator and dataplane
        // none.
        Workload::Ladder,
    ]
}

impl Workload {
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Sim(w) => w.name,
            Workload::Ladder => "policy_ladder",
        }
    }

    /// The rep itself, with the simulator run it came from.
    fn run_once(&self, seed: u64, quick: bool, tr: &mut Tracer) -> (Rep, Option<RunResult>) {
        match self {
            Workload::Sim(w) => {
                let (rep, result) = w.cell(seed, quick, tr);
                (rep, Some(result))
            }
            Workload::Ladder => (ladder_pass(seed, quick, tr), None),
        }
    }

    /// One rep. `count_heap` runs it under the counting allocator.
    pub fn rep(&self, seed: u64, quick: bool, count_heap: bool, tr: &mut Tracer) -> Rep {
        if count_heap {
            alloc::start();
        }
        let (mut rep, _) = self.run_once(seed, quick, tr);
        if count_heap {
            rep.heap = Some(alloc::stop());
        }
        rep
    }

    /// One traced pass: a rep under the counting allocator with spans,
    /// then the layer cells and drives that give the per-layer metrics.
    pub fn traced_pass(&self, seed: u64, quick: bool, tr: &mut Tracer) -> Rep {
        alloc::start();
        let (mut rep, result) = self.run_once(seed, quick, tr);
        let heap = alloc::stop();
        rep.heap = Some(heap);
        rep.layer("peak_heap_mb", heap.peak_bytes as f64 / 1e6);
        match (self, &result) {
            (Workload::Sim(w), Some(plain)) => {
                layers::sim_cells(w, seed, quick, plain, &mut rep, tr)
            }
            _ => layers::ladder_extras(seed, quick, &mut rep, tr),
        }
        layers::drives(quick, &mut rep, tr);
        rep
    }
}

/// Everything about a run that a speed-only change must leave
/// identical, with or without observers attached.
pub fn fingerprint(r: &RunResult) -> String {
    let wire: Vec<String> = r
        .stats
        .wire_bytes
        .iter()
        .map(|(kind, bytes)| format!("{kind:?}:{bytes}"))
        .collect();
    let fct_ns: u64 = r
        .stats
        .flows
        .iter()
        .filter_map(|f| f.fct())
        .map(|t| t.0)
        .sum();
    format!(
        "events={} delivered={} wire=[{}] drops={:?} fct_ns={fct_ns}",
        r.stats.events_processed,
        r.stats.delivered_packets,
        wire.join(","),
        r.stats.drops,
    )
}

/// By how much `--quick` shortens every simulated instant.
pub fn div_of(quick: bool) -> u64 {
    if quick {
        10
    } else {
        1
    }
}

impl SimWorkload {
    /// One cell as a figure binary pays for it: fresh topology, cold
    /// compile cache, install, flow generation, run, figure derivation.
    pub fn cell(&self, seed: u64, quick: bool, tr: &mut Tracer) -> (Rep, RunResult) {
        let div = div_of(quick);
        let mut rep = Rep::default();
        let system = (self.system)();
        let whole = tr.span(self.name, "rep", |tr| {
            let built = tr.span("topology.build", "", |_| (self.scenario)(seed, div));
            let scenario = built.value;
            let cache = CompileCache::new();
            // The cell below would compile inside `install`; doing it
            // first, into the cache the cell then hits, is the same work
            // with a seam to time it at.
            let compiled = tr.span("core.compile", &system.policy, |_| {
                cache
                    .get_or_compile(scenario.topology(), &system.policy)
                    .expect("the workload's policy compiles")
            });
            let cell = tr.span("experiments.cell", "", |_| {
                scenario.run_cached(&system, &cache)
            });
            let loop_time = std::time::Duration::from_secs_f64(cell.value.wall_secs);
            tr.children(cell.id, &[("sim.event_loop", loop_time)], true);
            (built.secs, compiled, cell.value)
        });
        tr.residual(whole.id);
        let (build_s, compiled, result) = whole.value;

        rep.wall_s = whole.secs;
        rep.setup_s = whole.secs - result.wall_secs;
        rep.compile_s = compiled.secs;
        rep.switch_state_kb = contra_p4gen::max_switch_state_kb(&compiled.value);
        let wire = result.figures.total_wire_bytes as f64;
        rep.scale = self.nominal_wire_bytes / div as f64 / wire.max(1.0);
        rep.loop_s = result.wall_secs;
        rep.run_s = result.wall_secs * rep.scale;
        rep.fingerprint = fingerprint(&result);
        rep.check(quick || (1.0 / 3.0..=3.0).contains(&rep.scale), || {
            format!(
                "{}: {wire} wire bytes is not within 3x of the nominal {}",
                self.name, self.nominal_wire_bytes
            )
        });

        let f = &result.figures;
        let stats = &result.stats;
        let events = stats.events_processed as f64;
        let drops = |r: DropReason| stats.drops.get(&r).copied().unwrap_or(0) as f64;
        rep.layer("compile_s", rep.compile_s);
        rep.layer("topology.build_ms", build_s * 1e3);
        rep.layer("sim.events", events);
        rep.layer("sim.events_per_s", events / result.wall_secs);
        rep.layer("sim.ns_per_event", result.wall_secs * 1e9 / events);
        rep.layer("sim.drops.queue_full", drops(DropReason::QueueFull));
        rep.layer("sim.drops.link_down", drops(DropReason::LinkDown));
        rep.layer("sim.drops.no_route", drops(DropReason::NoRoute));
        let retransmits: u64 = stats.flows.iter().map(|fl| fl.retransmits).sum();
        rep.layer("sim.retransmits", retransmits as f64);
        rep.layer(
            "sim.wire.data_bytes",
            stats.wire_bytes[&TrafficKind::Data] as f64,
        );
        rep.layer("sim.wire.probe_bytes", f.overhead_bytes as f64);
        rep.layer("workloads.flows", stats.flows.len() as f64);
        rep.layer(
            "dataplane.register_collisions",
            f.register_collisions as f64,
        );
        rep.layer("p4gen.state_kb_max", rep.switch_state_kb);
        rep.layer(
            "probe_overhead_pct",
            100.0 * f.overhead_bytes as f64 / wire.max(1.0),
        );
        rep.layer("fct_mean_ms", f.mean_fct_ms.unwrap_or(0.0));
        rep.layer("fct_p99_ms", f.p99_fct_ms.unwrap_or(0.0));
        rep.layer("flows_unfinished_pct", 100.0 * (1.0 - f.completion_rate));
        rep.layer("recovery_ms", f.convergence_ms.unwrap_or(0.0));
        rep.layer("lost_pkts", f.lost_in_convergence as f64);
        if self.fails_a_link {
            rep.check(f.convergence_ms.is_some_and(|ms| ms < 3.0), || {
                format!(
                    "{}: recovery_ms is {:?}, expected under 3 ms",
                    self.name, f.convergence_ms
                )
            });
        }
        (rep, result)
    }
}

/// One rung of the compile ladder.
pub struct Rung {
    pub label: String,
    pub topo: Topology,
    pub fat_tree: bool,
}

/// Fat-trees are fixed; the seed draws the random networks.
pub fn ladder_rungs(seed: u64, quick: bool) -> Vec<Rung> {
    let (ks, ns): (&[usize], &[usize]) = if quick {
        (&[4, 10], &[100])
    } else {
        (&[4, 8, 10, 14, 20], &[100, 300, 500])
    };
    let spec = generators::LinkSpec::default;
    let fat = ks.iter().map(|&k| Rung {
        label: format!("fat-tree({k})"),
        topo: generators::fat_tree(k, 0, spec()),
        fat_tree: true,
    });
    let random = ns.iter().map(|&n| Rung {
        label: format!("random({n})"),
        topo: generators::random_connected(n, 2 * n, spec(), seed.wrapping_add(41)),
        fat_tree: false,
    });
    fat.chain(random).collect()
}

/// Largest rung whose programs are emitted and validated.
const EMIT_UP_TO_SWITCHES: usize = 245;
/// Largest fat-tree rung that is verified (all three policies).
const VERIFY_FAT_TREE_UP_TO: usize = 80;
/// The random rung that is verified (MU only, and not under `--quick`:
/// it is two thirds of a pass).
const VERIFY_RANDOM_SWITCHES: usize = 100;

/// The number of tags the compiler must produce, derived by hand from
/// the policies rather than taken from the compiler: MU and CA rank every
/// path, so each switch needs one tag; WP's two-waypoint regex has a
/// "waypoint seen" bit, which every switch but the two waypoints
/// themselves can be reached in both states of.
fn expected_tags(policy: &str, switches: usize) -> usize {
    match policy {
        "WP" => 2 * switches - 2,
        _ => switches,
    }
}

/// One operator pass over the ladder: compile and size every (rung,
/// policy) pair, emit and validate P4 on the smaller rungs, verify the
/// smallest.
fn ladder_pass(seed: u64, quick: bool, tr: &mut Tracer) -> Rep {
    let mut rep = Rep {
        scale: 1.0,
        ..Rep::default()
    };
    let mut sums = std::collections::BTreeMap::<&'static str, f64>::new();
    let mut add = |name: &'static str, v: f64| *sums.entry(name).or_insert(0.0) += v;
    let mut print = String::new();

    let whole = tr.span("policy_ladder", "rep", |tr| {
        let rungs = tr.span("topology.build", "ladder", |_| ladder_rungs(seed, quick));
        let pass = tr.span("experiments.pass", "", |tr| {
            for (r, rung) in rungs.value.iter().enumerate() {
                let switches = rung.topo.num_switches();
                for (policy, text) in compiler_policy_suite(&rung.topo) {
                    let detail = format!("{}/{policy}", rung.label);
                    let compile = |tr: &mut Tracer| {
                        let c = tr.span("core.compile", &detail, |_| {
                            Compiler::new(&rung.topo)
                                .compile_str_profiled(&text)
                                .expect("suite policies compile")
                        });
                        tr.children(c.id, &c.value.1.stages, false);
                        c
                    };
                    let c = compile(tr);
                    let (cp, profile) = c.value;
                    rep.compile_s += profile.total.as_secs_f64();
                    add("core.compile_allocs", c.allocs as f64);
                    for (stage, d) in &profile.stages {
                        add(layers::stage_metric(stage), d.as_secs_f64() * 1e3);
                    }
                    add("core.pg_vnodes", cp.pg.len() as f64);
                    let tags: usize = cp.programs.values().map(|p| p.tags.len()).sum();
                    add("core.tags_total", tags as f64);
                    let dfa: usize = cp.automata.iter().map(|a| a.num_states()).sum();
                    add("automata.dfa_states", dfa as f64);
                    rep.check(cp.total_tags() == expected_tags(policy, switches), || {
                        format!(
                            "{detail}: {} tags, closed form says {}",
                            cp.total_tags(),
                            expected_tags(policy, switches)
                        )
                    });
                    let kb = contra_p4gen::max_switch_state_kb(&cp);
                    rep.switch_state_kb = rep.switch_state_kb.max(kb);

                    let mut p4_bytes = 0usize;
                    if switches <= EMIT_UP_TO_SWITCHES {
                        let emitted = tr.span("p4gen.emit", &detail, |_| {
                            contra_p4gen::emit_all(&cp, &rung.topo)
                        });
                        add("p4gen.emit_ms", emitted.secs * 1e3);
                        let errors = tr.span("p4gen.validate", &detail, |_| {
                            emitted
                                .value
                                .values()
                                .flat_map(|src| contra_p4gen::validate(src))
                                .count()
                        });
                        add("p4gen.validate_ms", errors.secs * 1e3);
                        rep.check(errors.value == 0, || {
                            format!("{detail}: {} P4 validation errors", errors.value)
                        });
                        p4_bytes = emitted.value.values().map(String::len).sum();
                        add("p4gen.p4_bytes", p4_bytes as f64);
                        // Determinism, once per pass: a second compile
                        // of the first pair agrees on tags and P4 bytes.
                        if r == 0 && policy == "WP" {
                            let again = compile(tr).value.0;
                            let same = again.total_tags() == cp.total_tags()
                                && contra_p4gen::emit_all(&again, &rung.topo) == emitted.value;
                            rep.check(same, || format!("{detail}: two compiles disagree"));
                        }
                    }

                    let verified = if rung.fat_tree {
                        switches <= VERIFY_FAT_TREE_UP_TO
                    } else {
                        !quick && switches == VERIFY_RANDOM_SWITCHES && policy == "MU"
                    };
                    let mut diags = 0usize;
                    if verified {
                        let v = tr.span("core.verify", &detail, |_| {
                            contra_core::verify(&cp, &rung.topo).diagnostics.len()
                        });
                        add("core.verify_ms", v.secs * 1e3);
                        add("verify_s", v.secs);
                        diags = v.value;
                        add("core.verify_diags", diags as f64);
                    }
                    print.push_str(&format!(
                        "{detail}:{}:{p4_bytes}:{kb}:{diags};",
                        cp.total_tags()
                    ));
                }
            }
        });
        (rungs.secs, pass.secs)
    });
    tr.residual(whole.id);

    let (build_s, pass_s) = whole.value;
    rep.wall_s = whole.secs;
    rep.run_s = pass_s;
    rep.loop_s = pass_s;
    rep.setup_s = whole.secs - pass_s;
    rep.fingerprint = print;
    rep.layers.extend(sums);
    rep.layer("compile_s", rep.compile_s);
    rep.layer("topology.build_ms", build_s * 1e3);
    rep.layer("p4gen.state_kb_max", rep.switch_state_kb);
    rep
}
