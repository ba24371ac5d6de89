//! The figure table: §6 of the paper is one experiment shape — a
//! (system × load × seed × fault-set) grid on a named topology —
//! rendered nine ways. Each entry of [`FIGURES`] is a function of
//! `(Scale, &mut Out)` and nothing else, and carries the paper's claims
//! about its rows: [`run`] prints each as a `paper:` note and judges the
//! checked ones on the rows the figure emitted. The axes the figures
//! share (seed band, load sweep, size ladders, the FCT-vs-load emitter,
//! the band formatter, the row lookups the checks use) are defined once,
//! below the table.

use crate::{compiler_policy_suite, Exit, Out, Scale};
use contra_core::{verify, Compiler};
use contra_experiments::{
    aggregate_seeds, run_cells, Band, CompileCache, Contra, Ecmp, FaultPlan, Hula, Jobs,
    RoutingSystem, Scenario, Sp, Spain, SweepCell, SweepSpec, Workload,
};
use contra_p4gen::max_switch_state_kb;
use contra_sim::{Time, MSS};
use contra_topology::{generators, Topology};

/// One figure (or table) of the paper's evaluation.
pub struct Figure {
    /// What `contra fig <name>` calls it; also the prefix of the first
    /// CSV column of every row it emits.
    pub name: &'static str,
    /// One line for `contra fig list`.
    pub about: &'static str,
    /// Runs it: CSV rows and summaries into `out`.
    pub run: fn(Scale, &mut Out),
    /// What the paper claims about it.
    pub claims: &'static [Claim],
}

/// One claim of the paper about a figure, stated once: [`run`] prints it
/// as a `paper:` note, with a verdict when it is checked.
pub struct Claim {
    /// The claim, as the note prints it.
    pub paper: &'static str,
    /// `None` keeps the claim as text: a wall-clock claim, or one this
    /// reproduction misses.
    pub check: Option<Check>,
}

/// Judges a claim on the CSV rows its figure emitted; `Err` says what was
/// measured against what was claimed.
pub type Check = fn(&str) -> Result<(), String>;

/// Every figure, in the order `contra fig all` runs them.
pub const FIGURES: [Figure; 9] = [
    Figure {
        name: "fig09",
        about: "compile time vs topology size, per pipeline stage (MU/WP/CA)",
        run: fig09,
        claims: &[Claim {
            paper: "compiles in seconds up to 500 nodes, ~linear in size; WP ≥ CA ≥ MU",
            check: None,
        }],
    },
    Figure {
        name: "fig10",
        about: "switch state vs topology size; collisions and FCT vs flowlet-table size",
        run: fig10,
        claims: &[
            Claim {
                paper: "WP and CA need more state than MU (tags and pids respectively)",
                check: Some(fig10_tags_cost_state),
            },
            Claim {
                paper: "no switch needs more than ~70-100 kB of state",
                check: Some(fig10_state_bounded),
            },
            Claim {
                paper: "§5.3: too small a flowlet table costs FCT: p50 at 16 slots above 1024",
                check: Some(fig10c_small_table_costs_fct),
            },
        ],
    },
    Figure {
        name: "fig11",
        about: "FCT vs load, symmetric leaf-spine (ECMP, Contra, Hula)",
        run: fig11,
        claims: &[
            Claim {
                paper: "Contra's FCT is below ECMP's at high load",
                check: Some(fig11_contra_below_ecmp),
            },
            Claim {
                paper: "Contra ≈ Hula, ~30% / ~47% lower FCT than ECMP at 90% load",
                check: None,
            },
        ],
    },
    Figure {
        name: "fig12",
        about: "FCT vs load, leaf-spine with failed uplinks (ECMP, Contra, Hula)",
        run: fig12,
        claims: &[Claim {
            paper: "ECMP inflates 3.2-8.7x beyond 50% load; Contra and Hula only ~1.7-1.8x",
            check: None,
        }],
    },
    Figure {
        name: "fig13",
        about: "CDF of fabric queue lengths at 60% load (Contra, ECMP)",
        run: fig13,
        claims: &[Claim {
            paper: "Contra's queues never exceed 1000 MSS; ECMP's exceed it >97% of the time",
            check: None,
        }],
    },
    Figure {
        name: "fig14",
        about: "UDP goodput across a link failure (Contra, Hula, SP)",
        run: fig14,
        claims: &[
            Claim {
                paper: "the failure is detected ~0.8 ms after the cut: Contra's and Hula's loss \
                        ends within 2 ms of it",
                check: Some(fig14_loss_ends),
            },
            Claim {
                paper: "throughput recovers within 1 ms: Contra's and Hula's mean goodput over \
                        53-54 ms is above 95% of their mean before the 50 ms cut",
                check: Some(fig14_goodput_recovers),
            },
        ],
    },
    Figure {
        name: "fig15",
        about: "FCT vs load on Abilene, intact and cut (SP, SPAIN, Contra)",
        run: fig15,
        claims: &[Claim {
            paper: "Contra < SPAIN < SP (Contra ~31% / ~14% below SPAIN)",
            check: None,
        }],
    },
    Figure {
        name: "fig16",
        about: "total wire traffic normalized to ECMP (probe and tag overhead)",
        run: fig16,
        claims: &[Claim {
            paper: "Contra carries ≈ 1.008x ECMP's traffic, ~0.4% above Hula",
            check: None,
        }],
    },
    Figure {
        name: "loops",
        about: "share of traffic that crossed a transient loop, beside the static verdict",
        run: loops,
        claims: &[Claim {
            paper: "0.026% (fat-tree) and 0.007% (Abilene) of traffic loops; §5.5 breaks them",
            check: None,
        }],
    },
];

/// `contra fig <name>… | all | list`. Each selected figure's rows reach
/// `out.rows` byte for byte, then one `paper:` note per claim, a checked
/// one with its verdict. `Err(Exit::Failed)` once every figure has run if
/// a checked claim missed.
pub fn run(names: &[String], scale: Scale, out: &mut Out) -> Result<(), Exit> {
    let mut selected = Vec::new();
    for name in names {
        match name.as_str() {
            "list" => {
                for f in &FIGURES {
                    out.row(format_args!("{:<6} {}", f.name, f.about));
                }
                return Ok(());
            }
            "all" => selected.extend(&FIGURES),
            one => match FIGURES.iter().find(|f| f.name == one) {
                Some(f) => selected.push(f),
                None => return Err(Exit::Usage(format!("no figure named {one:?}"))),
            },
        }
    }
    if selected.is_empty() {
        return Err(Exit::Usage("fig: which figure?".to_string()));
    }
    let mut missed = false;
    for f in selected {
        let mut rows = Vec::new();
        let mut buffered = Out {
            rows: &mut rows,
            notes: out.notes,
        };
        (f.run)(scale, &mut buffered);
        out.rows.write_all(&rows).expect("emit rows");
        let rows = String::from_utf8(rows).expect("figures emit UTF-8");
        for claim in f.claims {
            let verdict = claim.check.map(|check| check(&rows));
            missed |= matches!(verdict, Some(Err(_)));
            let verdict = match verdict {
                None => String::new(),
                Some(Ok(())) => " — holds".to_string(),
                Some(Err(why)) => format!(" — MISSES: {why}"),
            };
            out.note(format_args!("paper: {}{verdict}", claim.paper));
        }
    }
    match missed {
        false => Ok(()),
        true => Err(Exit::Failed),
    }
}

// ---- the shared axes -----------------------------------------------------

/// Offered loads (the paper's x-axis).
fn load_sweep(scale: Scale) -> &'static [f64] {
    scale.pick(&[0.2, 0.6], &[0.2, 0.4, 0.6, 0.8, 0.9])
}

/// Seeds averaged per point: every banded series carries its own seed
/// spread as min/max columns (the parallel sweep engine makes the 5×
/// cell count cheap).
fn seed_band(scale: Scale) -> &'static [u64] {
    scale.pick(&[1, 2], &[1, 2, 3, 4, 5])
}

/// The two §6.2 size ladders Figs 9 and 10 climb, as `(sub-figure,
/// family, topologies)`: switch-only fat-trees and random networks.
fn size_ladders(scale: Scale) -> [(&'static str, &'static str, Vec<Topology>); 2] {
    let spec = generators::LinkSpec::default();
    let arities: &[usize] = scale.pick(&[4, 10], &[4, 10, 14, 18, 20]);
    let sizes: &[usize] = scale.pick(&[100, 200], &[100, 200, 300, 400, 500]);
    let fat_trees = arities.iter().map(|&k| generators::fat_tree(k, 0, spec));
    let random = sizes
        .iter()
        .map(|&n| generators::random_connected(n, 2 * n, spec, 42));
    [
        ("a", "fat-trees", fat_trees.collect()),
        ("b", "random networks", random.collect()),
    ]
}

/// The `mean,min,max` columns of a seed band (3 decimals); `nan` when no
/// seed produced the quantity.
fn band_cols(band: &Option<Band>) -> [String; 3] {
    match band {
        Some(b) => [b.mean, b.min, b.max].map(|v| format!("{v:.3}")),
        None => [(); 3].map(|()| "nan".to_string()),
    }
}

/// The rows whose leading columns are `key`, split into columns.
fn rows_of<'r>(rows: &'r str, key: &[&str]) -> Vec<Vec<&'r str>> {
    let split = rows.lines().map(|row| row.split(',').collect::<Vec<_>>());
    split.filter(|cols| cols.starts_with(key)).collect()
}

/// Column `col` of the first row whose leading columns are `key`.
fn value(rows: &str, key: &[&str], col: usize) -> Option<f64> {
    rows_of(rows, key).first()?.get(col)?.parse().ok()
}

/// Checks `low < high`; a miss says `what` and both sides, "no row" for
/// one the figure did not emit.
fn below(what: &str, low: Option<f64>, high: Option<f64>) -> Result<(), String> {
    match (low, high) {
        (Some(low), Some(high)) if low < high => Ok(()),
        (low, high) => {
            let show = |v: Option<f64>| v.map_or("no row".to_string(), |v| format!("{v:.3}"));
            Err(format!("{what}: {} not below {}", show(low), show(high)))
        }
    }
}

/// Figs 11, 12 and 15 are one experiment — mean FCT vs offered load per
/// system, web-search (`<fig>a`) and cache (`<fig>b`) workloads, each
/// point a seed band — on different fabrics, system lists and failure
/// sets. The failure set is a sweep axis ([`SweepSpec::fault_sets`]);
/// a figure that has one gets a `fault_set` column.
///
/// Output: CSV `fig,system,[fault_set,]load_pct,fct_ms_mean,fct_ms_min,
/// fct_ms_max`.
fn fct_vs_load(
    fig: &str,
    base: Scenario,
    systems: &[&dyn RoutingSystem],
    fault_sets: &[(&str, FaultPlan)],
    scale: Scale,
    out: &mut Out,
) {
    for (sub, workload) in [("a", Workload::WebSearch), ("b", Workload::Cache)] {
        let fig = format!("{fig}{sub}");
        // Cells fan out over all cores; results and CSV order are
        // identical to the serial sweep.
        let results = SweepSpec::new(base.clone().workload(workload))
            .systems(systems)
            .loads(load_sweep(scale))
            .seeds(seed_band(scale))
            .fault_sets(fault_sets)
            .run();
        for p in aggregate_seeds(&results) {
            let (system, load) = (&p.system, format!("{:.0}", p.load * 100.0));
            let [mean, min, max] = band_cols(&p.mean_fct_ms);
            let (column, tag) = match &p.knob {
                Some(set) => (format!("{set},"), format!(" [{set}]")),
                None => Default::default(),
            };
            out.row(format_args!(
                "{fig},{system},{column}{load},{mean},{min},{max}"
            ));
            out.note(format_args!(
                "{fig} {system}{tag} load={load}%: fct={mean} ms [{min}, {max}] over {} seeds \
                 completion={:.3}",
                p.seeds.len(),
                p.completion_rate.mean,
            ));
        }
    }
}

/// The Fig 14 cell, which `contra report` also runs: constant 4.25 Gbps
/// UDP over the §6.3 fabric for `duration`, the `leaf0`–`spine0` uplink
/// cut at `cut`.
pub fn failure_cell(duration: Time, cut: Time, seed: u64) -> Scenario {
    Scenario::leaf_spine(4, 2, 8)
        .udp(4.25e9)
        .duration(duration)
        .warmup(Time::ZERO)
        .drain(Time::ZERO)
        .udp_bucket(Time::us(250))
        .fail_link("leaf0", "spine0", cut)
        .seed(seed)
}

// ---- the figures ---------------------------------------------------------

/// Figure 9: compiler scalability — compilation time vs topology size for
/// the MU, WP and CA policies on (a) fat-trees and (b) random networks.
///
/// Output: CSV `fig,series,size,seconds` — one row per (policy, size)
/// total, plus one `fig09a-stages`/`fig09b-stages` row per pipeline stage
/// (`series` becomes `POLICY/stage`), from the compiler's built-in
/// profiler — so the scalability curve decomposes into parse/normalize/
/// analyze/resolve/determinize/product/tablegen instead of one opaque
/// number. Totals and stages alike are printed to the microsecond: a
/// full-scale compile of up to 500 switches takes about a millisecond.
fn fig09(scale: Scale, out: &mut Out) {
    for (sub, family, topos) in size_ladders(scale) {
        let fig = format!("fig09{sub}");
        let sizes: Vec<usize> = topos.iter().map(Topology::num_switches).collect();
        out.note(format_args!("{fig}: {family} (sizes {sizes:?})"));
        for topo in &topos {
            let size = topo.num_switches();
            for (name, policy) in compiler_policy_suite(topo) {
                let (cp, prof) = Compiler::new(topo)
                    .compile_str_profiled(&policy)
                    .expect("compiles");
                std::hint::black_box(cp.total_tags());
                let total = prof.total.as_secs_f64();
                out.row(format_args!("{fig},{name},{size},{total:.6}"));
                for (stage, d) in &prof.stages {
                    let secs = d.as_secs_f64();
                    out.row(format_args!("{fig}-stages,{name}/{stage},{size},{secs:.6}"));
                }
            }
        }
    }
}

/// Figure 10: switch state (kB) of the generated programs vs topology
/// size, for MU/WP/CA on fat-trees and random networks — plus the two
/// sides of the §5.3 sizing discussion: register-array collisions and
/// FCT as the flowlet table shrinks.
///
/// The flowlet table is direct-mapped, one slot per hash index as the
/// emitted program declares it, and fig10c counts live entries displaced:
/// writes over another key's pin or loop row that had not yet expired.
/// Two concurrently live keys on one slot displace each other on every
/// alternation, so the count is not monotone in `flowlet_slots` — it
/// depends on which live flowlets pair up on a slot. A displaced flowlet
/// is routed afresh mid-burst.
///
/// Output: CSV `fig,series,size,kB` (fig10a/b),
/// `fig,series,flowlet_slots,collisions` (fig10c) and
/// `fig,series,flowlet_slots,fct_ms` (fig10c-fct, p50 + p99 series).
fn fig10(scale: Scale, out: &mut Out) {
    for (sub, _, topos) in size_ladders(scale) {
        for topo in &topos {
            for (name, policy) in compiler_policy_suite(topo) {
                let cp = Compiler::new(topo).compile_str(&policy).expect("compiles");
                let (size, kb) = (topo.num_switches(), max_switch_state_kb(&cp));
                out.row(format_args!("fig10{sub},{name},{size},{kb:.1}"));
            }
        }
    }
    // fig10c: live register entries displaced vs flowlet-table size on
    // the §6.3 leaf-spine under load.
    let slot_sweep: &[usize] = scale.pick(&[16, 1024], &[16, 64, 256, 1024, 4096, 8192]);
    let scenario = Scenario::leaf_spine(4, 2, 8)
        .load(0.6)
        .duration(Time::ms(8))
        .warmup(Time::ms(2))
        .drain(Time::ms(10));
    // One system per table size (the knob is the dataplane's
    // `flowlet_slots`, not the scenario's); all cells share one policy
    // compile and run concurrently through the sweep engine.
    let sized: Vec<Contra> = slot_sweep
        .iter()
        .map(|&slots| Contra::dc().with_flowlet_slots(slots))
        .collect();
    let systems: Vec<&dyn RoutingSystem> = sized.iter().map(|c| c as &dyn RoutingSystem).collect();
    let results = SweepSpec::new(scenario).systems(&systems).run();
    for (slots, r) in slot_sweep.iter().zip(&results) {
        let collisions = r.figures.register_collisions;
        out.row(format_args!("fig10c,Contra,{slots},{collisions}"));
        let p50 = r.figures.p50_fct_ms.unwrap_or(f64::NAN);
        let p99 = r.figures.p99_fct_ms.unwrap_or(f64::NAN);
        out.row(format_args!("fig10c-fct,Contra-p50,{slots},{p50:.3}"));
        out.row(format_args!("fig10c-fct,Contra-p99,{slots},{p99:.3}"));
        out.note(format_args!(
            "fig10c flowlet_slots={slots}: {collisions} live register entries displaced \
             ({} flowlet / {} loop), p50={p50:.3} ms p99={p99:.3} ms",
            r.stats.switches.flowlets_displaced, r.stats.switches.loops_displaced
        ));
    }
}

/// fig10a/b's rows: `fig,series,size,kB`.
fn fig10_ladder(rows: &str) -> Vec<Vec<&str>> {
    [rows_of(rows, &["fig10a"]), rows_of(rows, &["fig10b"])].concat()
}

fn fig10_tags_cost_state(rows: &str) -> Result<(), String> {
    let ladder = fig10_ladder(rows);
    ladder.first().ok_or("no fig10a/b rows")?;
    for mu in ladder.iter().filter(|cols| cols[1] == "MU") {
        for series in ["WP", "CA"] {
            let what = format!("{} at {} switches, MU's kB vs {series}'s", mu[0], mu[2]);
            let kb = value(rows, &[mu[0], series, mu[2]], 3);
            below(&what, mu[3].parse().ok(), kb)?;
        }
    }
    Ok(())
}

fn fig10_state_bounded(rows: &str) -> Result<(), String> {
    let kb = fig10_ladder(rows).into_iter();
    let kb = kb.filter_map(|cols| cols[3].parse().ok());
    below("largest kB", Band::over(kb).map(|kb| kb.max), Some(100.0))
}

fn fig10c_small_table_costs_fct(rows: &str) -> Result<(), String> {
    let p50 = |slots| value(rows, &["fig10c-fct", "Contra-p50", slots], 3);
    below("p50 ms, 1024 slots vs 16", p50("1024"), p50("16"))
}

/// Figure 11: average FCT vs load on the symmetric leaf-spine fabric —
/// ECMP vs Contra (MU) vs Hula, web-search and cache workloads.
fn fig11(scale: Scale, out: &mut Out) {
    let contra = Contra::dc();
    fct_vs_load(
        "fig11",
        Scenario::leaf_spine(4, 2, 8),
        &[&Ecmp, &contra, &Hula],
        &[],
        scale,
        out,
    );
}

fn fig11_contra_below_ecmp(rows: &str) -> Result<(), String> {
    for fig in ["fig11a", "fig11b"] {
        let loads = rows_of(rows, &[fig]).into_iter().map(|cols| cols[2]);
        let top = loads.max_by_key(|load| load.parse::<u32>().ok());
        let top = top.unwrap_or("?");
        let fct = |system| value(rows, &[fig, system, top], 3);
        let what = format!("{fig} at {top}% load, Contra's mean FCT (ms) vs ECMP's");
        below(&what, fct("Contra"), fct("ECMP"))?;
    }
    Ok(())
}

/// Figure 12: average FCT vs load on the *asymmetric* fabric (leaf-spine
/// uplinks failed) — ECMP vs Contra vs Hula, under the paper's single
/// dead uplink plus a harsher two-uplink variant.
fn fig12(scale: Scale, out: &mut Out) {
    let contra = Contra::dc();
    // Uplinks die before traffic starts; adaptive systems detect them
    // during warm-up, ECMP keeps hashing into them (§6.3 asymmetric
    // setting — its control plane is slow on this timescale).
    let one = FaultPlan::new().fail_link("leaf0", "spine0", Time::us(100));
    let two = one.clone().fail_link("leaf1", "spine0", Time::us(100));
    fct_vs_load(
        "fig12",
        Scenario::leaf_spine(4, 2, 8),
        &[&Ecmp, &contra, &Hula],
        &[("1-uplink", one), ("2-uplink", two)],
        scale,
        out,
    );
}

/// Figure 13: CDF of fabric queue lengths under Contra vs ECMP at 60%
/// load (web search, asymmetric fabric).
///
/// Output: CSV `fig,system,queue_mss,cum_frac`.
fn fig13(_: Scale, out: &mut Out) {
    let scenario = Scenario::leaf_spine(4, 2, 8)
        .load(0.6)
        .workload(Workload::WebSearch)
        .fail_link("leaf0", "spine0", Time::us(100))
        .queue_sampling(Time::us(100));
    let contra = Contra::dc();
    // Both cells run concurrently through the sweep engine; the CSV
    // series order is the systems order regardless.
    let results = SweepSpec::new(scenario).systems(&[&contra, &Ecmp]).run();
    for r in results {
        let cdf = r.stats.queue_cdf_mss(MSS);
        // Thin the CDF to ≤ 64 representative points.
        let step = (cdf.len() / 64).max(1);
        for (i, (len, frac)) in cdf.iter().enumerate() {
            if i % step == 0 || i + 1 == cdf.len() {
                out.row(format_args!("fig13,{},{len},{frac:.4}", r.system));
            }
        }
        let max = cdf.last().map(|&(l, _)| l).unwrap_or(0);
        out.note(format_args!(
            "fig13 {}: max queue {max} MSS over {} samples",
            r.system,
            r.stats.queue_samples.len()
        ));
    }
}

/// Figure 14: aggregate UDP throughput across a link failure — Contra vs
/// Hula vs static shortest paths, constant 4.25 Gbps offered. The uplink
/// dies at t = 50 ms; Contra and Hula read the same `FAILURE_PERIODS ×
/// PROBE_PERIOD` detection window (the paper's 3×RTT ≈ 768 µs is 3 ×
/// 256 µs). SP never reroutes, so its "convergence" spans to the end of
/// the stream.
///
/// Each system runs over a seed band à la Fig 11. Constant-rate UDP is
/// seed-invariant, so the band jitters the *failure instant* per seed
/// (tens of µs around 50 ms) — the spread measures sensitivity to where
/// in the serialization schedule the cut lands, which is the quantity a
/// single run hides. Seed 1 keeps the exact 50 ms failure and emits the
/// goodput timeline.
///
/// Output: CSV `fig14,system,time_ms,gbps` (timeline, seed 1) and
/// `fig14conv,system,conv_ms_mean,conv_ms_min,conv_ms_max,lost_mean,
/// lost_min,lost_max,dip_gbps,dip_ms` (convergence telemetry bands).
fn fig14(scale: Scale, out: &mut Out) {
    // Seed 1 fails at exactly 50 ms (the paper's instant); later seeds
    // shift the cut by 37 µs steps across the serialization schedule.
    let fail_at = |seed: u64| Time::ms(50) + Time::us(37 * (seed - 1));
    let contra = Contra::dc();
    let systems: [&dyn RoutingSystem; 3] = [&contra, &Hula, &Sp];
    // The failure instant depends on the seed, so the grid is built by
    // hand (a SweepSpec seed axis would vary only the RNG seed) and fed
    // to the same worker pool the spec-level sweeps use.
    let mut cells = Vec::new();
    for &seed in seed_band(scale) {
        for system in systems {
            let cell = failure_cell(Time::ms(60), fail_at(seed), seed);
            cells.push(SweepCell::new(cells.len(), cell, system, None));
        }
    }
    let results = run_cells(cells, Jobs::Auto, &CompileCache::new());

    // Seed 1: the goodput timeline around the failure, as the paper
    // plots it.
    for r in results.iter().filter(|r| r.scenario.seed == 1) {
        for (t, gbps) in r.stats.udp_goodput_gbps() {
            if t >= Time::ms(48) && t <= Time::ms(54) {
                let (system, ms) = (&r.system, t.as_millis_f64());
                out.row(format_args!("fig14,{system},{ms:.2},{gbps:.3}"));
            }
        }
    }

    // Convergence telemetry, banded over the seed axis.
    for p in aggregate_seeds(&results) {
        let system = &p.system;
        let [conv, conv_min, conv_max] = band_cols(&p.convergence_ms);
        let [lost, lost_min, lost_max] = band_cols(&Some(p.lost_in_convergence));
        // Dip depth/duration from the per-seed runs (each has its own
        // failure instant).
        let dips: Vec<_> = results
            .iter()
            .filter(|r| &r.system == system)
            .filter_map(|r| r.stats.goodput_dip(fail_at(r.scenario.seed)))
            .collect();
        let [dip_gbps, ..] = band_cols(&Band::over(dips.iter().map(|d| d.depth_gbps)));
        let dip_ms = dips.iter().map(|d| d.duration.as_millis_f64());
        let [dip_ms, ..] = band_cols(&Band::over(dip_ms));
        out.row(format_args!(
            "fig14conv,{system},{conv},{conv_min},{conv_max},{lost},{lost_min},{lost_max},\
             {dip_gbps},{dip_ms}"
        ));
        out.note(format_args!(
            "fig14 {system}: convergence {conv} ms [{conv_min}, {conv_max}], lost {lost} pkts, \
             dip {dip_gbps} Gbps for {dip_ms} ms over {} seeds",
            p.seeds.len(),
        ));
    }
}

fn fig14_loss_ends(rows: &str) -> Result<(), String> {
    for system in ["Contra", "Hula"] {
        let conv_max = value(rows, &["fig14conv", system], 4);
        below(&format!("{system}'s conv_ms_max"), conv_max, Some(2.0))?;
    }
    Ok(())
}

fn fig14_goodput_recovers(rows: &str) -> Result<(), String> {
    for system in ["Contra", "Hula"] {
        let timeline = rows_of(rows, &["fig14", system]);
        let mean = |window: fn(f64) -> bool| {
            let at = timeline.iter().filter(|c| c[2].parse().is_ok_and(window));
            Band::over(at.filter_map(|c| c[3].parse().ok())).map(|gbps| gbps.mean)
        };
        let floor = mean(|ms| ms < 50.0).map(|before| 0.95 * before);
        let what = format!("{system}, 95% of Gbps before the cut vs 53-54 ms");
        below(&what, floor, mean(|ms| (53.0..=54.0).contains(&ms)))?;
    }
    Ok(())
}

/// Figure 15: average FCT vs load on Abilene — static shortest paths (SP)
/// vs SPAIN vs Contra (MU) — on the intact backbone and on the same WAN
/// with the Denver–KansasCity trunk cut during warm-up.
fn fig15(scale: Scale, out: &mut Out) {
    let (contra, spain) = (Contra::dc(), Spain::new(4));
    let cut = FaultPlan::new().fail_link("Denver", "KansasCity", Time::us(100));
    fct_vs_load(
        "fig15",
        Scenario::abilene(),
        &[&Sp, &spain, &contra],
        &[("intact", FaultPlan::new()), ("DenverKC-cut", cut)],
        scale,
        out,
    );
}

/// Figure 16: total traffic (probes + tags included) normalized to ECMP,
/// at 10% and 60% load on the symmetric fabric.
///
/// Output: CSV `fig,system,workload_load,ratio`.
fn fig16(_: Scale, out: &mut Out) {
    let contra = Contra::dc();
    for workload in [Workload::WebSearch, Workload::Cache] {
        let results = SweepSpec::new(Scenario::leaf_spine(4, 2, 8).workload(workload))
            .systems(&[&Ecmp, &Hula, &contra])
            .loads(&[0.1, 0.6])
            .run();
        // Loads outermost, systems innermost: each chunk is one load, ECMP
        // (the denominator) first.
        for at_load in results.chunks(3) {
            let base = at_load[0].figures.total_wire_bytes as f64;
            for r in at_load {
                let ratio = r.figures.total_wire_bytes as f64 / base;
                let label = format!("{} {:.0}%", workload.label(), r.scenario.load * 100.0);
                out.row(format_args!("fig16,{},{label},{ratio:.4}", r.system));
                out.note(format_args!(
                    "fig16 {} {label}: ratio {ratio:.4} (probe bytes {})",
                    r.system, r.figures.overhead_bytes
                ));
            }
        }
    }
}

/// §6.5 loop measurement: the share of traffic that ever traversed a
/// transient loop, with the MU policy at 60% load, on the leaf-spine
/// fabric and on Abilene — alongside the *static* verifier's verdict for
/// the same policy, so the table shows prediction next to measurement.
///
/// Output: CSV `loops,topology,looped_pct,loop_breaks` plus
/// `loops_static,topology,loop_risk,fragile_routes`.
fn loops(_: Scale, out: &mut Out) {
    let cells = [
        ("leaf-spine", Scenario::leaf_spine(4, 2, 8), Contra::dc()),
        ("abilene", Scenario::abilene(), Contra::mu()),
    ];
    for (label, scenario, system) in cells {
        let scenario = scenario
            .load(0.6)
            .workload(Workload::WebSearch)
            .trace_paths(true);
        // Static verdict for the policy the run uses: does the verifier
        // predict transient-loop exposure, and how many routes would one
        // cable failure destroy?
        let topo = scenario.topology();
        let cp = Compiler::new(topo)
            .compile_str(&system.policy)
            .expect("corpus policy compiles");
        let v = verify(&cp, topo).verdicts;
        let (loop_risk, fragile, holes) =
            (v.transient_loop_risk, v.fragile.len(), v.black_holes.len());
        let r = scenario.run(&system);
        let (pct, breaks) = (r.looped_pct(), r.figures.loop_breaks);
        out.row(format_args!("loops,{label},{pct:.4},{breaks}"));
        let verdict = if loop_risk {
            "util-dependent"
        } else {
            "static"
        };
        out.row(format_args!("loops_static,{label},{verdict},{fragile}"));
        out.note(format_args!(
            "loops {label}: {pct:.4}% of {} delivered packets; {breaks} flowlet flushes",
            r.figures.delivered_packets,
        ));
        out.note(format_args!(
            "  static verdict: transient-loop risk={loop_risk} (measured loops require it), \
             {fragile} fragile route(s) under single failure, {holes} black hole(s)"
        ));
        // The verifier must agree with the measurement in the sound
        // direction: observed loops without predicted risk would falsify
        // the analysis.
        assert!(
            loop_risk || r.figures.looped_packets == 0,
            "measured transient loops but the verifier said the policy is static"
        );
        assert_eq!(holes, 0, "corpus policies must not black-hole");
    }
}
