//! The fuzzing campaign driver: deterministic case scheduling, per-oracle
//! tallies, shrinking of divergences, and the byte-stable `FUZZ_REPORT.txt`
//! rendering. The binary in `src/bin/contra_fuzz.rs` is a thin CLI over
//! [`run_fuzz`] and [`replay_dir`].

use crate::corpus::{format_case, parse_case};
use crate::gen::gen_case;
use crate::oracle::{check, OracleKind};
use crate::shrink::shrink;
use contra_sim::FxHasher64;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hash::Hasher;
use std::path::{Path, PathBuf};

/// Campaign parameters. The report is a pure function of this struct.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Run seed; every case seed derives from it.
    pub seed: u64,
    /// Number of cases to generate.
    pub cases: usize,
    /// How many cases may run the deep (harness + simulator) tier.
    pub deep_budget: usize,
    /// Oracle re-checks the shrinker may spend per divergence.
    pub shrink_budget: usize,
    /// Where to write minimized reproducers (`None`: report-only).
    pub regressions_out: Option<PathBuf>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0,
            cases: 500,
            deep_budget: 8,
            shrink_budget: 300,
            regressions_out: None,
        }
    }
}

/// splitmix64 — the same mixer the vendored `StdRng` steps with.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-case seed: decorrelates neighboring indices so `--cases 500` and
/// `--cases 501` share their first 500 cases exactly.
pub fn case_seed(run_seed: u64, index: usize) -> u64 {
    splitmix64(run_seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// A campaign's result: the rendered report and the divergence count.
#[derive(Debug, Clone)]
pub struct FuzzOutcome {
    /// Byte-stable `FUZZ_REPORT.txt` content.
    pub report: String,
    /// Number of (case, oracle) divergences found.
    pub divergences: usize,
}

/// Runs a campaign. Same config → byte-identical report: case seeds are
/// pure functions of the run seed, oracles are deterministic, and the
/// deep budget is spent in case order.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzOutcome {
    let mut ran: BTreeMap<OracleKind, usize> = BTreeMap::new();
    let mut failed: BTreeMap<OracleKind, usize> = BTreeMap::new();
    let mut divergences: Vec<(u64, OracleKind, String, String)> = Vec::new();
    let mut deep_left = cfg.deep_budget;
    let mut deep_digest = FxHasher64::default();

    for i in 0..cfg.cases {
        let seed = case_seed(cfg.seed, i);
        let case = gen_case(seed);
        let deep = deep_left > 0;
        let outcome = check(&case, deep);
        if outcome.ran.contains(&OracleKind::DeepConvergence) {
            deep_left -= 1;
        }
        if let Some(d) = outcome.deep_digest {
            deep_digest.write_u64(d);
        }
        for k in &outcome.ran {
            *ran.entry(*k).or_default() += 1;
        }
        // One divergence per (case, oracle): shrink against the first
        // finding's oracle, report its detail.
        let mut seen_kinds: Vec<OracleKind> = Vec::new();
        for f in &outcome.findings {
            if seen_kinds.contains(&f.oracle) {
                continue;
            }
            seen_kinds.push(f.oracle);
            *failed.entry(f.oracle).or_default() += 1;
            let min = shrink(&case, f.oracle, cfg.shrink_budget);
            let file = format_case(&min, f.oracle, &f.detail);
            divergences.push((seed, f.oracle, f.detail.clone(), file));
        }
    }

    if let Some(dir) = &cfg.regressions_out {
        let _ = std::fs::create_dir_all(dir);
        for (seed, kind, _, file) in &divergences {
            let path = dir.join(format!("new-{}-{seed:016x}.case", kind.name()));
            let _ = std::fs::write(path, file);
        }
    }

    let mut r = String::new();
    let _ = writeln!(r, "contra-fuzz report");
    let _ = writeln!(r, "seed: {}", cfg.seed);
    let _ = writeln!(r, "cases: {}", cfg.cases);
    let _ = writeln!(r, "deep budget: {}", cfg.deep_budget);
    let _ = writeln!(r);
    let _ = writeln!(r, "{:<18} {:>7} {:>9}", "oracle", "ran", "findings");
    for k in OracleKind::ALL {
        let _ = writeln!(
            r,
            "{:<18} {:>7} {:>9}",
            k.name(),
            ran.get(&k).copied().unwrap_or(0),
            failed.get(&k).copied().unwrap_or(0)
        );
    }
    let _ = writeln!(r, "deep digest: {:016x}", deep_digest.finish());
    let _ = writeln!(r);
    let _ = writeln!(r, "divergences: {}", divergences.len());
    for (n, (seed, kind, detail, file)) in divergences.iter().enumerate() {
        let _ = writeln!(r);
        let _ = writeln!(
            r,
            "== divergence {}: {} (case seed {seed:#018x}) ==",
            n + 1,
            kind.name()
        );
        let _ = writeln!(r, "{detail}");
        let _ = writeln!(r, "minimized reproducer:");
        r.push_str(file);
    }

    FuzzOutcome {
        report: r,
        divergences: divergences.len(),
    }
}

/// Replays every `*.case` file in `dir` (sorted by file name) through the
/// full oracle stack, deep tier included. A healthy front end produces
/// zero findings on every checked-in regression. Returns the rendered
/// replay report and the number of failing files.
pub fn replay_dir(dir: &Path) -> (String, usize) {
    let mut files: Vec<PathBuf> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "case"))
            .collect(),
        Err(e) => return (format!("cannot read {}: {e}\n", dir.display()), 1),
    };
    files.sort();

    let mut r = String::new();
    let mut failures = 0usize;
    let _ = writeln!(r, "contra-fuzz replay of {}", dir.display());
    for path in &files {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                failures += 1;
                let _ = writeln!(r, "FAIL {name}: unreadable: {e}");
                continue;
            }
        };
        let (case, recorded) = match parse_case(&text) {
            Ok(x) => x,
            Err(e) => {
                failures += 1;
                let _ = writeln!(r, "FAIL {name}: malformed: {e}");
                continue;
            }
        };
        let outcome = check(&case, true);
        if outcome.findings.is_empty() {
            let _ = writeln!(r, "ok   {name} (was: {})", recorded.name());
        } else {
            failures += 1;
            let _ = writeln!(
                r,
                "FAIL {name}: {} finding(s), first: [{}] {}",
                outcome.findings.len(),
                outcome.findings[0].oracle.name(),
                outcome.findings[0].detail
            );
        }
    }
    let _ = writeln!(r, "{} file(s), {} failure(s)", files.len(), failures);
    (r, failures)
}
