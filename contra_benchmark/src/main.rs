//! `contra_benchmark`: the layered, noise-robust performance ledger.
//!
//! One process, one thread, fixed seeded work per rep. See `README.md`
//! beside this package for the method, the metric tables and the first
//! recorded ledger.

mod alloc;
mod compare;
mod json;
mod layers;
mod metrics;
mod report;
mod run;
mod span;
mod stats;
mod workloads;

use report::Results;
use run::Options;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "\
usage: contra_benchmark [--seed N] [--workload NAME]... [--rounds N] [--seconds S]
                        [--trace [0|1]] [--quick] [--out DIR]
       contra_benchmark compare A.json B.json

Runs every workload (or the named ones) in interleaved rounds, checks their
outputs and prints one line per (metric, workload). Stops after --rounds
rounds (default 48, the first a warm-up) or once --seconds per workload have
been measured, whichever comes first. --trace adds the traced passes and the
per-layer metrics. Writes results.json (and trace.json) under --out (default
target/benchmark). With exactly one --workload, the last line of standard
output is the acceptance driver's JSON object.

compare judges B against baseline A by the bounds of the metric table.

exit: 0 all operations correct (compare: no regression), 1 otherwise, 2 usage
or a CONTRA_* override in the environment.";

struct Cli {
    opts: Options,
    out: PathBuf,
}

fn number<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{flag}: {raw:?} is not a valid number"))
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        opts: Options {
            seed: 1,
            ..Options::default()
        },
        out: PathBuf::from("target/benchmark"),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--seed" => cli.opts.seed = number(arg, value("a number")?)?,
            "--workload" => cli.opts.workloads.push(value("a name")?.clone()),
            "--rounds" => cli.opts.rounds = Some(number(arg, value("a number")?)?),
            "--seconds" => {
                let s: f64 = number(arg, value("a number")?)?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds: {s} is not a positive duration"));
                }
                cli.opts.seconds = Some(s);
            }
            "--trace" => {
                cli.opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some(flag @ ("0" | "1")) => {
                        it.next();
                        flag == "1"
                    }
                    _ => true,
                }
            }
            "--quick" => cli.opts.quick = true,
            "--out" => cli.out = PathBuf::from(value("a directory")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn write_outputs(dir: &Path, results: &Results, trace_json: Option<&str>) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("results.json"), results.to_json())?;
    if let Some(trace) = trace_json {
        std::fs::write(dir.join("trace.json"), trace)?;
    }
    Ok(())
}

fn compare_files(a: &str, b: &str) -> Result<(String, bool), String> {
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Results::from_json(&text).map_err(|e| format!("{path}: {e}"))
    };
    Ok(compare::compare(&load(a)?, &load(b)?))
}

/// The first `CONTRA_*` variable among `names`. A number must describe
/// the default engine, and every such variable re-routes some part of it
/// (or of the figure binaries), so the benchmark refuses to run under any.
fn contra_override(mut names: impl Iterator<Item = std::ffi::OsString>) -> Option<String> {
    names
        .find(|name| name.to_string_lossy().starts_with("CONTRA_"))
        .map(|name| name.to_string_lossy().into_owned())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if let Some(name) = contra_override(std::env::vars_os().map(|(name, _)| name)) {
        eprintln!(
            "contra_benchmark: unset {name} first — an override must not shape a recorded number"
        );
        return ExitCode::from(2);
    }
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match compare_files(a, b) {
            Ok((table, ok)) => {
                print!("{table}");
                if ok {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::from(1)
                }
            }
            Err(e) => {
                eprintln!("contra_benchmark compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("contra_benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run::run(&cli.opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("contra_benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = write_outputs(&cli.out, &outcome.results, outcome.trace_json.as_deref()) {
        eprintln!("contra_benchmark: writing {}: {e}", cli.out.display());
        return ExitCode::from(1);
    }
    print!("{}", outcome.results.render());
    if cli.opts.workloads.len() == 1 {
        println!("{}", outcome.results.driver_line());
    }
    if outcome.results.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let cli = parse(&args("--workload wan_tcp --seed 7 --seconds 20 --trace 1")).unwrap();
        let o = &cli.opts;
        assert_eq!(
            (o.seed, o.seconds, o.trace, o.quick),
            (7, Some(20.0), true, false)
        );
        assert_eq!(
            (o.workloads.as_slice(), o.rounds),
            (&["wan_tcp".to_string()][..], None)
        );
        assert_eq!(cli.out, PathBuf::from("target/benchmark"));
        assert!(!parse(&args("--trace 0 --seed 2")).unwrap().opts.trace);
    }

    #[test]
    fn parses_the_ledger_command_line() {
        let cli = parse(&args("--seed 1")).unwrap();
        assert!(cli.opts.workloads.is_empty() && !cli.opts.trace && cli.opts.seconds.is_none());
        let cli = parse(&args("--trace --quick --rounds 30 --out x/y")).unwrap();
        assert_eq!(
            (cli.opts.trace, cli.opts.quick, cli.opts.rounds),
            (true, true, Some(30))
        );
        assert_eq!((cli.opts.seed, cli.out), (1, PathBuf::from("x/y")));
    }

    #[test]
    fn rejects_malformed_command_lines() {
        for bad in [
            "--seed",
            "--seed x",
            "--seconds 0",
            "--seconds -3",
            "--rounds 1.5",
            "--fast",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn names_the_first_contra_override() {
        let env = |names: &[&str]| {
            names
                .iter()
                .map(std::ffi::OsString::from)
                .collect::<Vec<_>>()
        };
        assert_eq!(
            contra_override(env(&["PATH", "HOME", "CONTRACT"]).into_iter()),
            None
        );
        assert_eq!(
            contra_override(env(&["PATH", "CONTRA_TELEM", "CONTRA_JOBS"]).into_iter()),
            Some("CONTRA_TELEM".to_string())
        );
    }
}
