//! # contra-fuzz — deterministic differential fuzzing for the compiler
//! front end
//!
//! The Contra reproduction rests on the claim that compiled policies are
//! faithful to their source semantics. This crate earns that claim
//! mechanically: it generates random topologies and policies from a
//! single `u64` seed, runs them through a stack of independent oracles
//! (see [`oracle`]), shrinks any disagreement to a minimized reproducer
//! (see [`mod@shrink`]), and renders a byte-stable triage report (see
//! [`driver`]). The same harness is the acceptance gate the planned
//! incremental recompiler will be fuzzed against.
//!
//! Determinism contract: no wall clock, no global RNG, no map iteration
//! with unstable order anywhere in the report path — `contra_fuzz --seed
//! S --cases N` twice produces byte-identical `FUZZ_REPORT.txt`.
//!
//! The property suites in `contra-core` seed [`gen`]'s policy generators
//! per case, so the fuzzer and the property tests draw from one grammar.

pub mod corpus;
pub mod driver;
pub mod gen;
pub mod oracle;
pub mod shrink;

pub use corpus::{format_case, parse_case};
pub use driver::{case_seed, replay_dir, run_fuzz, FuzzConfig, FuzzOutcome};
pub use gen::{gen_case, Case, TopoSpec};
pub use oracle::{check, CaseOutcome, Finding, OracleKind};
pub use shrink::{fails_with, shrink};
