//! Results: what a run measured, as rows on the terminal, as the
//! `results.json` ledger file, and as the one-line object the acceptance
//! driver reads.

use crate::json::Json;
use crate::metrics::{Metric, Stat};
use crate::stats::Summary;
use std::fmt::Write as _;

/// What produced the numbers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Header {
    pub nproc: usize,
    pub loadavg: String,
    pub git_rev: String,
    pub profile: &'static str,
    pub seed: u64,
    pub rounds: usize,
    pub quick: bool,
    pub trace: bool,
}

/// One `(metric, workload)` result.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub name: String,
    pub unit: String,
    pub end_to_end: bool,
    /// The headline: see [`row`].
    pub value: f64,
    /// Order statistics of the samples behind it (`n` = 0: not measured
    /// on this workload).
    pub summary: Summary,
}

#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub failures: Vec<String>,
    pub rows: Vec<Row>,
}

#[derive(Debug, Clone, Default, PartialEq)]
pub struct Results {
    pub header: Header,
    pub workloads: Vec<WorkloadResult>,
}

const NOT_MEASURED: Summary = Summary {
    n: 0,
    min: 0.0,
    q1: 0.0,
    median: 0.0,
    q3: 0.0,
    max: 0.0,
};

/// Reduces a metric's samples to its row. `Err` when an exact metric did
/// not repeat.
pub fn row(metric: &Metric, samples: &[f64]) -> Result<Row, String> {
    let summary = Summary::of(samples).unwrap_or(NOT_MEASURED);
    let value = match metric.stat {
        Stat::Median => summary.median,
        Stat::Min if metric.higher_is_better => summary.max,
        Stat::Min | Stat::Exact => summary.min,
    };
    let row = Row {
        name: metric.name.to_string(),
        unit: metric.unit.to_string(),
        end_to_end: metric.bound.is_some(),
        value,
        summary,
    };
    if metric.stat == Stat::Exact && summary.min != summary.max {
        return Err(format!(
            "{} must repeat exactly for a fixed seed but ranged {}..{}",
            metric.name, summary.min, summary.max
        ));
    }
    Ok(row)
}

impl Results {
    pub fn ok(&self) -> bool {
        self.workloads.iter().all(|w| w.ops_failed == 0)
    }

    /// The header and one line per `(metric, workload)`.
    pub fn render(&self) -> String {
        let h = &self.header;
        let mut out = format!(
            "contra_benchmark seed={} rounds={} quick={} trace={} profile={} git={} nproc={} \
             loadavg=[{}]\n",
            h.seed, h.rounds, h.quick, h.trace, h.profile, h.git_rev, h.nproc, h.loadavg
        );
        let _ = writeln!(
            out,
            "{:<14} {:<30} {:>14} {:<6} {:>13} {:>13} {:>13} {:>13} {:>4}",
            "workload", "metric", "value", "unit", "min", "q1", "median", "q3", "n"
        );
        for w in &self.workloads {
            for r in &w.rows {
                let s = &r.summary;
                let _ = writeln!(
                    out,
                    "{:<14} {:<30} {:>14.6} {:<6} {:>13.6} {:>13.6} {:>13.6} {:>13.6} {:>4}",
                    w.name, r.name, r.value, r.unit, s.min, s.q1, s.median, s.q3, s.n
                );
            }
            let _ = writeln!(
                out,
                "{:<14} ops_attempted={} ops_failed={}",
                w.name, w.ops_attempted, w.ops_failed
            );
            for f in &w.failures {
                let _ = writeln!(out, "{:<14} FAILED: {f}", w.name);
            }
        }
        out
    }

    /// The `results.json` document.
    pub fn to_json(&self) -> String {
        let h = &self.header;
        let esc = contra_telemetry::json_escape;
        let mut out = format!(
            "{{\"header\":{{\"nproc\":{},\"loadavg\":\"{}\",\"git_rev\":\"{}\",\"profile\":\"{}\",\
             \"seed\":{},\"rounds\":{},\"quick\":{},\"trace\":{}}},\n\"workloads\":[",
            h.nproc,
            esc(&h.loadavg),
            esc(&h.git_rev),
            h.profile,
            h.seed,
            h.rounds,
            h.quick,
            h.trace
        );
        for (i, w) in self.workloads.iter().enumerate() {
            let failures: Vec<String> = w
                .failures
                .iter()
                .map(|f| format!("\"{}\"", esc(f)))
                .collect();
            let _ = write!(
                out,
                "{}\n{{\"name\":\"{}\",\"ops_attempted\":{},\"ops_failed\":{},\"failures\":[{}],\
                 \"metrics\":[",
                if i > 0 { "," } else { "" },
                w.name,
                w.ops_attempted,
                w.ops_failed,
                failures.join(",")
            );
            for (j, r) in w.rows.iter().enumerate() {
                let s = &r.summary;
                let _ = write!(
                    out,
                    "{}\n {{\"name\":\"{}\",\"unit\":\"{}\",\"end_to_end\":{},\"value\":{},\
                     \"min\":{},\"q1\":{},\"median\":{},\"q3\":{},\"max\":{},\"n\":{}}}",
                    if j > 0 { "," } else { "" },
                    r.name,
                    r.unit,
                    r.end_to_end,
                    r.value,
                    s.min,
                    s.q1,
                    s.median,
                    s.q3,
                    s.max,
                    s.n
                );
            }
            out.push_str("]}");
        }
        out.push_str("\n]}\n");
        out
    }

    /// Reads a `results.json` back (for `compare`).
    pub fn from_json(text: &str) -> Result<Results, String> {
        let doc = Json::parse(text)?;
        let num = |v: &Json, key: &str| {
            v.get(key)
                .and_then(Json::num)
                .ok_or_else(|| format!("missing number {key:?}"))
        };
        let text_of = |v: &Json, key: &str| {
            v.get(key)
                .and_then(Json::str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string {key:?}"))
        };
        let h = doc.get("header").ok_or("missing header")?;
        let header = Header {
            nproc: num(h, "nproc")? as usize,
            loadavg: text_of(h, "loadavg")?,
            git_rev: text_of(h, "git_rev")?,
            profile: if text_of(h, "profile")? == "release" {
                "release"
            } else {
                "debug"
            },
            seed: num(h, "seed")? as u64,
            rounds: num(h, "rounds")? as usize,
            quick: h.get("quick") == Some(&Json::Bool(true)),
            trace: h.get("trace") == Some(&Json::Bool(true)),
        };
        let mut workloads = Vec::new();
        for w in doc.get("workloads").ok_or("missing workloads")?.items() {
            let mut rows = Vec::new();
            for m in w.get("metrics").ok_or("missing metrics")?.items() {
                rows.push(Row {
                    name: text_of(m, "name")?,
                    unit: text_of(m, "unit")?,
                    end_to_end: m.get("end_to_end") == Some(&Json::Bool(true)),
                    value: num(m, "value")?,
                    summary: Summary {
                        n: num(m, "n")? as usize,
                        min: num(m, "min")?,
                        q1: num(m, "q1")?,
                        median: num(m, "median")?,
                        q3: num(m, "q3")?,
                        max: num(m, "max")?,
                    },
                });
            }
            let failures = w.get("failures").map_or(&[][..], Json::items);
            workloads.push(WorkloadResult {
                name: text_of(w, "name")?,
                ops_attempted: num(w, "ops_attempted")? as u64,
                ops_failed: num(w, "ops_failed")? as u64,
                failures: failures
                    .iter()
                    .filter_map(Json::str)
                    .map(str::to_string)
                    .collect(),
                rows,
            });
        }
        Ok(Results { header, workloads })
    }

    /// The single-workload object the acceptance driver reads as the
    /// last line of standard output: the end-to-end metrics of an
    /// untraced run, the per-layer metrics of a traced one.
    pub fn driver_line(&self) -> String {
        let w = &self.workloads[0];
        let metrics: Vec<String> = w
            .rows
            .iter()
            .filter(|r| r.end_to_end != self.header.trace)
            .map(|r| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    r.name, r.value, r.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            w.ops_failed == 0,
            w.ops_attempted,
            w.ops_failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    pub fn sample_results() -> Results {
        let run_s = row(metrics::find("run_s").unwrap(), &[0.41, 0.40, 0.43, 0.52]).unwrap();
        let events = row(metrics::find("sim.events").unwrap(), &[3969394.0; 3]).unwrap();
        let absent = row(metrics::find("core.verify_ms").unwrap(), &[]).unwrap();
        Results {
            header: Header {
                nproc: 2,
                loadavg: "0.50 0.40 0.30".into(),
                git_rev: "ecb4a42".into(),
                profile: "release",
                seed: 1,
                rounds: 5,
                quick: false,
                trace: true,
            },
            workloads: vec![WorkloadResult {
                name: "dc_tcp".into(),
                ops_attempted: 8,
                ops_failed: 1,
                failures: vec!["a \"quoted\" failure\nwith a newline".into()],
                rows: vec![run_s, events, absent],
            }],
        }
    }

    #[test]
    fn headline_follows_the_metric_rule() {
        let r = &sample_results().workloads[0].rows;
        assert_eq!(
            (r[0].value, r[0].summary.n),
            (0.40, 4),
            "timed metrics report the minimum"
        );
        assert_eq!(r[1].value, 3969394.0);
        assert_eq!(
            (r[2].value, r[2].summary.n),
            (0.0, 0),
            "not measured reads 0"
        );
        let setup = row(metrics::find("setup_s").unwrap(), &[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(setup.value, 2.0, "set-up reports the median");
        let rate = row(metrics::find("sim.events_per_s").unwrap(), &[9e6, 1e7]).unwrap();
        assert_eq!(
            rate.value, 1e7,
            "higher-is-better metrics report the best, too"
        );
        let drift = row(metrics::find("allocs_per_run").unwrap(), &[100.0, 101.0]);
        assert!(drift.unwrap_err().contains("must repeat exactly"));
    }

    #[test]
    fn results_json_is_valid_and_round_trips() {
        let results = sample_results();
        let json = results.to_json();
        contra_telemetry::validate_json(&json).expect("valid JSON");
        assert_eq!(Results::from_json(&json).unwrap(), results);
    }

    #[test]
    fn driver_line_selects_by_trace_flag() {
        let mut results = sample_results();
        let traced = results.driver_line();
        contra_telemetry::validate_json(&traced).expect("valid JSON");
        assert!(traced.starts_with("{\"correct\": false, \"attempted\": 8, \"failed\": 1,"));
        assert!(traced.contains("\"sim.events\": {\"value\": 3969394, \"unit\": \"count\"}"));
        assert!(!traced.contains("run_s"));
        results.header.trace = false;
        let untraced = results.driver_line();
        assert!(untraced.contains("\"run_s\": {\"value\": 0.4, \"unit\": \"s\"}"));
        assert!(!untraced.contains("sim.events"));
        assert!(!untraced.contains('\n'));
    }

    #[test]
    fn render_prints_every_row_and_failure() {
        let text = sample_results().render();
        assert!(text.contains("git=ecb4a42") && text.contains("nproc=2"));
        assert!(text.contains("dc_tcp         run_s"));
        assert!(text.contains("ops_attempted=8 ops_failed=1"));
        assert!(text.contains("FAILED: a \"quoted\" failure"));
    }
}
