//! `contra` — the one front door: `fig`, `compile`, `lint`, `report`,
//! `chaos` (see [`contra_bench::usage`]).
//!
//! This is the only place the crate reads the process environment or its
//! arguments; everything below is a function of the values handed down.

use contra_bench::{cli, figures, usage, Exit, Out, Scale};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = match std::env::var_os("CONTRA_BENCH_FAST") {
        Some(_) => Scale::Fast,
        None => Scale::Full,
    };
    let chaos_seed = std::env::var("CONTRA_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok());
    // Unlocked handles: a sweep worker that panics must be able to print
    // while this thread waits for it.
    let (mut stdout, mut stderr) = (std::io::stdout(), std::io::stderr());
    let mut out = Out {
        rows: &mut stdout,
        notes: &mut stderr,
    };

    let result = match args.split_first() {
        None => Err(Exit::Usage("which command?".to_string())),
        Some((command, rest)) => match command.as_str() {
            "fig" => figures::run(rest, scale, &mut out),
            "compile" => cli::compile(rest, &mut out),
            "lint" => cli::lint(rest, &mut out),
            "report" => cli::report(rest, scale, &mut out),
            "chaos" => cli::chaos(rest, chaos_seed, &mut out),
            "help" | "--help" | "-h" => {
                out.row(usage());
                Ok(())
            }
            unknown => Err(Exit::Usage(format!("unknown command {unknown:?}"))),
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(Exit::Failed) => ExitCode::from(1),
        Err(Exit::Usage(why)) => {
            out.note(format_args!("{why}\n{}", usage()));
            ExitCode::from(2)
        }
    }
}
