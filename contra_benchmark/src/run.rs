//! The measurement loop: rounds of one rep per workload, then the traced
//! passes, reduced to [`Results`].

use crate::alloc;
use crate::layers;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::report::{self, Header, Results, WorkloadResult};
use crate::span::Tracer;
use crate::stats::Summary;
use crate::workloads::{self, Rep, Workload};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Rounds of a default run, the discarded warm-up round included.
pub const DEFAULT_ROUNDS: usize = 48;
/// Traced passes of a default `--trace` run.
const DEFAULT_TRACED_PASSES: usize = 3;

#[derive(Debug, Clone, Default)]
pub struct Options {
    pub seed: u64,
    /// Workload names; empty means all four.
    pub workloads: Vec<String>,
    /// Stop after this many rounds (first one is the warm-up).
    pub rounds: Option<usize>,
    /// Stop once this many seconds per workload have been measured.
    pub seconds: Option<f64>,
    pub trace: bool,
    /// Two rounds of shrunken workloads: a smoke test, not a measurement.
    pub quick: bool,
}

pub struct Outcome {
    pub results: Results,
    /// The Chrome trace of the traced passes.
    pub trace_json: Option<String>,
}

/// One workload's samples and operation counts.
#[derive(Default)]
struct Ledger {
    samples: BTreeMap<&'static str, Vec<f64>>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Rep 0's fingerprint; every later rep must reproduce it.
    reference: Option<String>,
}

/// Sample lists that feed derived metrics instead of a row of their own:
/// the plain rep of each traced pass (the interleaved reference), the
/// traced rep, and the observed cells (named in `layers`).
const REF_WALL_S: &str = "ref.wall_s";
const REF_LOOP_S: &str = "ref.loop_s";
const TRACED_WALL_S: &str = "traced.wall_s";

impl Ledger {
    fn push(&mut self, name: &'static str, value: f64) {
        debug_assert!(value.is_finite(), "{name} is {value}");
        if value.is_finite() {
            self.samples.entry(name).or_default().push(value);
        }
    }

    /// Runs one operation. A panic or a failed check counts it as failed.
    fn operation(&mut self, f: impl FnOnce() -> Rep) -> Option<Rep> {
        self.attempted += 1;
        let mut rep = match catch_unwind(AssertUnwindSafe(f)) {
            Ok(rep) => rep,
            Err(panic) => {
                alloc::stop();
                let what = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("a panic without a message");
                self.failed += 1;
                self.failures.push(format!("panicked: {what}"));
                return None;
            }
        };
        match &self.reference {
            None => self.reference = Some(rep.fingerprint.clone()),
            Some(reference) if *reference != rep.fingerprint => rep.failures.push(format!(
                "fingerprint differs from rep 0: {} vs {reference}",
                rep.fingerprint
            )),
            Some(_) => {}
        }
        if !rep.failures.is_empty() {
            self.failed += 1;
            self.failures.append(&mut rep.failures);
        }
        Some(rep)
    }

    fn record_exact(&mut self, rep: &Rep) {
        self.push("switch_state_kb", rep.switch_state_kb);
        if let Some(heap) = rep.heap {
            self.push("allocs_per_run", heap.ops as f64 * rep.scale);
        }
    }

    fn record_timed(&mut self, rep: &Rep) {
        self.push("setup_s", rep.setup_s);
        self.push("run_s", rep.run_s);
    }

    fn fastest(&self, name: &str) -> Option<f64> {
        self.samples.get(name)?.iter().copied().reduce(f64::min)
    }

    /// `on` against `off`, fastest against fastest, as a percentage.
    fn overhead(&mut self, metric: &'static str, on: &str, off: &str) {
        if let (Some(on), Some(off)) = (self.fastest(on), self.fastest(off)) {
            self.push(metric, 100.0 * (on / off - 1.0));
        }
    }

    fn finish(mut self, name: &str, trace: bool, runq_wait_pct: f64) -> WorkloadResult {
        if trace {
            self.overhead("bench.trace_overhead_pct", TRACED_WALL_S, REF_WALL_S);
            for observer in layers::OBSERVERS {
                self.overhead(observer.metric, observer.samples, REF_LOOP_S);
            }
            // The explicit residual of set-up: what the fastest traced
            // rep paid beyond its layers' fastest direct timings.
            if let Some(setup_ms) = self.fastest(layers::TRACED_SETUP_MS) {
                let compile_ms = self.fastest("compile_s").unwrap_or(0.0) * 1e3;
                let layers_ms: f64 = layers::SETUP_LAYERS_MS
                    .iter()
                    .filter_map(|l| self.fastest(l))
                    .sum();
                self.push(
                    "experiments.setup_other_ms",
                    setup_ms - compile_ms - layers_ms,
                );
            }
            let run_s = self.samples.get("run_s").and_then(|s| Summary::of(s));
            self.push("bench.rep_iqr_pct", run_s.map_or(0.0, |s| s.iqr_pct()));
            self.push("bench.runq_wait_pct", runq_wait_pct);
        }
        let tables = END_TO_END.iter().chain(PER_LAYER.iter().filter(|_| trace));
        let mut rows = Vec::new();
        for metric in tables {
            let samples = self.samples.get(metric.name).map_or(&[][..], Vec::as_slice);
            match report::row(metric, samples) {
                Ok(row) => rows.push(row),
                Err(why) => {
                    self.failed += 1;
                    self.failures.push(why);
                }
            }
        }
        WorkloadResult {
            name: name.to_string(),
            ops_attempted: self.attempted,
            ops_failed: self.failed,
            failures: self.failures,
            rows,
        }
    }
}

/// Nanoseconds this process has spent runnable but waiting for a CPU.
fn runq_wait_ns() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/schedstat").ok()?;
    text.split_whitespace().nth(1)?.parse().ok()
}

fn header(opts: &Options, rounds: usize) -> Header {
    let git_rev = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    let loadavg = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    Header {
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        loadavg: loadavg
            .split_whitespace()
            .take(3)
            .collect::<Vec<_>>()
            .join(" "),
        git_rev: git_rev.unwrap_or_else(|| "unknown".to_string()),
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        seed: opts.seed,
        rounds,
        quick: opts.quick,
        trace: opts.trace,
    }
}

/// Runs the benchmark. `Err` names an unknown workload.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let all = workloads::all();
    for name in &opts.workloads {
        if !all.iter().any(|w| w.name() == name) {
            return Err(format!("unknown workload {name:?}"));
        }
    }
    let selected: Vec<Workload> = all
        .into_iter()
        .filter(|w| opts.workloads.is_empty() || opts.workloads.iter().any(|n| n == w.name()))
        .collect();
    let mut ledgers: Vec<Ledger> = selected.iter().map(|_| Ledger::default()).collect();

    // With `--seconds`, a traced run goes to its traced passes after the
    // two mandatory rounds: every pass brings a plain rep of its own.
    let budget = opts.seconds.map(|s| s * selected.len() as f64);
    let timed_budget = budget.map(|b| if opts.trace { 0.0 } else { b });
    let max_rounds = if opts.quick {
        2
    } else {
        opts.rounds.unwrap_or(if budget.is_some() {
            usize::MAX
        } else {
            DEFAULT_ROUNDS
        })
    };
    let started = Instant::now();
    let waited0 = runq_wait_ns();
    let out_of_time = |b: Option<f64>| b.is_some_and(|b| started.elapsed().as_secs_f64() >= b);

    // Each round runs one rep of every workload, so a co-tenant burst
    // spoils a few reps of each instead of all reps of one. Round 0
    // warms up, counts allocations and sets the reference fingerprint.
    let mut off = Tracer::new(false);
    let mut rounds = 0;
    while rounds < max_rounds.max(2) && !(rounds >= 2 && out_of_time(timed_budget)) {
        for (w, ledger) in selected.iter().zip(&mut ledgers) {
            let warm_up = rounds == 0;
            let rep = ledger.operation(|| w.rep(opts.seed, opts.quick, warm_up, &mut off));
            if let Some(rep) = rep {
                ledger.record_exact(&rep);
                if !warm_up {
                    ledger.record_timed(&rep);
                }
            }
        }
        rounds += 1;
    }

    let mut on = Tracer::new(opts.trace);
    if opts.trace {
        let max_passes = match (opts.quick, budget) {
            (true, _) => 1,
            (false, Some(_)) => usize::MAX,
            (false, None) => DEFAULT_TRACED_PASSES,
        };
        let mut pass = 0;
        while pass < max_passes && !(pass >= 1 && out_of_time(budget)) {
            for (w, ledger) in selected.iter().zip(&mut ledgers) {
                // The reference the pass's overheads are taken against,
                // run back to back with what it is compared to.
                let plain = ledger.operation(|| w.rep(opts.seed, opts.quick, false, &mut off));
                if let Some(plain) = plain {
                    ledger.record_exact(&plain);
                    ledger.record_timed(&plain);
                    ledger.push(REF_WALL_S, plain.wall_s);
                    ledger.push(REF_LOOP_S, plain.loop_s);
                }
                on.label(w.name(), pass as u32);
                let rep = ledger.operation(|| w.traced_pass(opts.seed, opts.quick, &mut on));
                let Some(rep) = rep else {
                    on.abandon_open();
                    continue;
                };
                ledger.record_exact(&rep);
                ledger.push(TRACED_WALL_S, rep.wall_s);
                for &(name, value) in &rep.layers {
                    ledger.push(name, value);
                }
            }
            pass += 1;
        }
    }

    let wall_ns = started.elapsed().as_secs_f64() * 1e9;
    let runq_wait_pct = match (waited0, runq_wait_ns()) {
        (Some(w0), Some(w1)) => 100.0 * (w1 - w0) / wall_ns,
        _ => 0.0,
    };
    let workloads = selected
        .iter()
        .zip(ledgers)
        .map(|(w, ledger)| ledger.finish(w.name(), opts.trace, runq_wait_pct))
        .collect();
    Ok(Outcome {
        results: Results {
            header: header(opts, rounds),
            workloads,
        },
        trace_json: opts.trace.then(|| on.chrome_json()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn rep(fingerprint: &str) -> Rep {
        Rep {
            fingerprint: fingerprint.to_string(),
            ..Rep::default()
        }
    }

    #[test]
    fn an_operation_fails_on_a_failed_check_a_changed_fingerprint_or_a_panic() {
        let mut ledger = Ledger::default();
        assert!(ledger.operation(|| rep("a")).is_some());
        assert!(ledger.operation(|| rep("a")).is_some());
        assert_eq!((ledger.attempted, ledger.failed), (2, 0));

        ledger.operation(|| {
            let mut r = rep("a");
            r.check(1 + 1 == 3, || "arithmetic".to_string());
            r
        });
        assert_eq!((ledger.attempted, ledger.failed), (3, 1));

        ledger.operation(|| rep("b"));
        assert_eq!((ledger.attempted, ledger.failed), (4, 2));
        assert!(ledger.failures[1].contains("fingerprint differs from rep 0"));

        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let panicked = ledger.operation(|| panic!("boom {}", 7));
        std::panic::set_hook(hook);
        assert!(panicked.is_none());
        assert_eq!((ledger.attempted, ledger.failed), (5, 3));
        assert_eq!(ledger.failures[2], "panicked: boom 7");

        let result = ledger.finish("w", false, 0.0);
        assert_eq!((result.ops_attempted, result.ops_failed), (5, 3));
    }

    #[test]
    fn an_exact_metric_that_drifts_is_a_failure() {
        let mut ledger = Ledger::default();
        ledger.push("allocs_per_run", 10.0);
        ledger.push("allocs_per_run", 11.0);
        let result = ledger.finish("w", false, 0.0);
        assert_eq!(result.ops_failed, 1);
        assert!(result.failures[0].contains("allocs_per_run must repeat exactly"));
        assert!(result.rows.iter().all(|r| r.name != "allocs_per_run"));
    }

    #[test]
    fn unknown_workloads_are_refused() {
        let opts = Options {
            workloads: vec!["dc_udp".to_string()],
            ..Options::default()
        };
        assert!(run(&opts).err().unwrap().contains("dc_udp"));
    }

    /// The whole harness end to end, at smoke-test scale: every workload,
    /// every check, every metric of both tables, the trace.
    #[test]
    fn quick_traced_run_reports_every_metric_and_closes_every_rep() {
        let started = Instant::now();
        let outcome = run(&Options {
            seed: 1,
            trace: true,
            quick: true,
            ..Options::default()
        })
        .unwrap();
        let took = started.elapsed().as_secs_f64();
        let results = &outcome.results;
        assert!(results.ok(), "{}", results.render());
        assert!(
            cfg!(debug_assertions) || took < 10.0,
            "--quick took {took:.1} s"
        );
        assert_eq!((results.header.rounds, results.header.seed), (2, 1));

        let names: Vec<&str> = results.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(
            names,
            ["dc_tcp", "wan_tcp", "fabric_probe", "policy_ladder"]
        );
        let table: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        for w in &results.workloads {
            let rows: Vec<&str> = w.rows.iter().map(|r| r.name.as_str()).collect();
            assert_eq!(rows, table, "{}", w.name);
            // Warm-up rep, one timed rep, one traced pass of two reps.
            assert_eq!((w.ops_attempted, w.ops_failed), (4, 0), "{}", w.name);
            for r in w.rows.iter().filter(|r| r.end_to_end) {
                assert!(
                    r.value > 0.0 && r.summary.n > 0,
                    "{} {} is {}",
                    w.name,
                    r.name,
                    r.value
                );
            }
        }
        // Every per-layer metric is measured by at least one workload.
        for m in PER_LAYER {
            let measured = results
                .workloads
                .iter()
                .flat_map(|w| &w.rows)
                .any(|r| r.name == m.name && r.summary.n > 0);
            assert!(measured, "{} is never measured", m.name);
        }

        // The trace: valid JSON; every rep's children (residual included)
        // sum to the rep.
        let trace = outcome
            .trace_json
            .as_deref()
            .expect("a traced run has a trace");
        contra_telemetry::validate_json(trace).expect("valid JSON");
        let doc = Json::parse(trace).unwrap();
        let events = doc.get("traceEvents").unwrap().items();
        let arg = |e: &Json, key: &str| e.get("args").and_then(|a| a.get(key)).cloned();
        let reps: Vec<&Json> = events
            .iter()
            .filter(|e| arg(e, "detail") == Some(Json::Str("rep".into())))
            .filter(|e| arg(e, "parent") == Some(Json::Null))
            .collect();
        assert_eq!(reps.len(), 4, "one traced rep per workload");
        for rep in reps {
            let id = arg(rep, "id");
            let children: Vec<&Json> = events.iter().filter(|e| arg(e, "parent") == id).collect();
            let covered: f64 = children.iter().filter_map(|e| e.get("dur")?.num()).sum();
            let dur = rep.get("dur").and_then(Json::num).unwrap();
            assert!(
                (covered - dur).abs() < 0.01,
                "children {covered} us of rep {dur} us"
            );
            assert!(children
                .iter()
                .any(|e| e.get("name").and_then(Json::str) == Some("residual")));
        }
        for name in [
            "sim.event_loop",
            "core.compile",
            "product",
            "p4gen.emit",
            "core.verify",
        ] {
            assert!(
                trace.contains(&format!("\"name\":\"{name}\"")),
                "no {name} span"
            );
        }
    }
}
