//! The oracle stack: each oracle re-decides something the front end
//! already decided, by an independent construction, and reports any
//! disagreement as a [`Finding`].
//!
//! Tiers, cheapest first:
//!
//! 1. **Totality** — lexer/parser/resolve/normalize/verify must never
//!    panic; every rejection is a spanned `C02xx`/`C01xx` diagnostic.
//! 2. **RoundTrip** — parse → pretty-print → reparse is a fixpoint.
//! 3. **NormalStable** — printing and reparsing never changes whether a
//!    policy normalizes, nor the branch structure it normalizes to.
//! 4. **SpanBounds** — every emitted span lies inside the source text on
//!    character boundaries.
//! 5. **BlackHoleDiff** — the verifier's reverse product-graph verdicts
//!    vs a brute-force forward search over `(switch, DFA-state-vector)`
//!    pairs; the constructions share nothing past normalization.
//! 6. **DeepConvergence** (budgeted) — clean verdicts cross-checked
//!    against converged `ProtocolHarness` tables and zero `NoRoute`
//!    drops in the packet simulator.

use crate::gen::Case;
use contra_automata::Dfa;
use contra_core::diag::{codes, Span};
use contra_core::{
    normalize, parse_policy, resolve::resolve_regexes, traffic_endpoints, verify_source,
    BranchRank, CompiledPolicy, NormalPolicy, Policy, Severity,
};
use contra_dataplane::{Contra, DataplaneConfig, ProtocolHarness};
use contra_experiments::{Scenario, Traffic};
use contra_sim::{DropReason, FlowSpec, FxHasher64, Time};
use contra_topology::{NodeId, Topology};
use std::collections::{HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Skip the forward differential when `switches × Π |DFA states|`
/// exceeds this (the BFS state space is their product).
const MAX_FORWARD_STATES: usize = 200_000;

/// Skip the harness tier when the product graph exceeds this many vnodes.
const MAX_DEEP_VNODES: usize = 5_000;

/// The individual oracles, in evaluation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OracleKind {
    /// Front end never panics; rejections carry coded diagnostics.
    Totality,
    /// Pretty-print → parse fixpoint.
    RoundTrip,
    /// Normalization agrees across reparse.
    NormalStable,
    /// Diagnostic and branch spans stay inside the source.
    SpanBounds,
    /// Verifier black holes vs brute-force forward search.
    BlackHoleDiff,
    /// Verdicts vs converged tables and the packet simulator.
    DeepConvergence,
}

impl OracleKind {
    /// Every oracle, in evaluation order.
    pub const ALL: [OracleKind; 6] = [
        OracleKind::Totality,
        OracleKind::RoundTrip,
        OracleKind::NormalStable,
        OracleKind::SpanBounds,
        OracleKind::BlackHoleDiff,
        OracleKind::DeepConvergence,
    ];

    /// Stable machine name (used in reports and regression files).
    pub fn name(self) -> &'static str {
        match self {
            OracleKind::Totality => "totality",
            OracleKind::RoundTrip => "round-trip",
            OracleKind::NormalStable => "normal-stable",
            OracleKind::SpanBounds => "span-bounds",
            OracleKind::BlackHoleDiff => "black-hole-diff",
            OracleKind::DeepConvergence => "deep-convergence",
        }
    }

    /// Inverse of [`OracleKind::name`].
    pub fn from_name(s: &str) -> Option<OracleKind> {
        OracleKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// One oracle disagreement on one case.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Which oracle fired.
    pub oracle: OracleKind,
    /// Deterministic human-readable detail.
    pub detail: String,
}

/// Everything the oracle stack learned about one case.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CaseOutcome {
    /// Disagreements (empty for a healthy front end).
    pub findings: Vec<Finding>,
    /// Oracles that actually executed (budget/size caps skip some).
    pub ran: Vec<OracleKind>,
    /// Digest of what the deep tier saw: every converged `traffic_path`
    /// and the simulator's `NoRoute` count. `None` when it did not run
    /// to the end.
    pub deep_digest: Option<u64>,
}

/// `None` if the span is well-formed for `src` (or deliberately dummy),
/// otherwise a description of how it is out of bounds.
pub fn span_problem(sp: Span, src: &str) -> Option<String> {
    if sp == Span::DUMMY {
        return None;
    }
    if sp.start > sp.end {
        return Some(format!("span {}..{} is inverted", sp.start, sp.end));
    }
    if sp.end > src.len() {
        return Some(format!(
            "span {}..{} exceeds source length {}",
            sp.start,
            sp.end,
            src.len()
        ));
    }
    if !src.is_char_boundary(sp.start) || !src.is_char_boundary(sp.end) {
        return Some(format!(
            "span {}..{} not on char boundaries",
            sp.start, sp.end
        ));
    }
    None
}

/// The product-graph alphabet: switch ids.
pub fn alphabet(topo: &Topology) -> Vec<u32> {
    topo.switches().iter().map(|s| s.0).collect()
}

/// Forward (traffic-direction) DFAs for a normalized policy's regexes.
pub fn forward_dfas(normal: &NormalPolicy, topo: &Topology) -> Option<Vec<Dfa>> {
    let regexes = resolve_regexes(&normal.regexes, topo).ok()?;
    let alpha = alphabet(topo);
    Some(regexes.iter().map(|r| Dfa::from_regex(r, &alpha)).collect())
}

/// Brute-force forward search: does any walk `src … dst` end at `dst`
/// with an acceptance vector that satisfies some finite-rank branch?
/// Walks may revisit intermediate switches but stop on reaching `dst`,
/// mirroring the protocol: probes that return to their origin are
/// dropped, so a route through the destination is never installable.
pub fn oracle_routable(
    topo: &Topology,
    normal: &NormalPolicy,
    fdfas: &[Dfa],
    src: NodeId,
    dst: NodeId,
) -> bool {
    let finite = |states: &[usize]| {
        let acc: Vec<bool> = fdfas
            .iter()
            .zip(states)
            .map(|(a, &s)| a.accept[s])
            .collect();
        normal
            .branches
            .iter()
            .any(|b| matches!(b.rank, BranchRank::Finite(_)) && b.reqs_match(&acc))
    };
    let start: Vec<usize> = fdfas.iter().map(|a| a.step(a.start, src.0)).collect();
    let mut seen: HashSet<(NodeId, Vec<usize>)> = HashSet::new();
    let mut work = VecDeque::new();
    seen.insert((src, start.clone()));
    work.push_back((src, start));
    while let Some((x, states)) = work.pop_front() {
        if x == dst {
            if finite(&states) {
                return true;
            }
            continue; // the walk ends at the destination
        }
        for y in topo.switch_neighbors(x) {
            let next: Vec<usize> = fdfas
                .iter()
                .zip(&states)
                .map(|(a, &s)| a.step(s, y.0))
                .collect();
            if seen.insert((y, next.clone())) {
                work.push_back((y, next));
            }
        }
    }
    false
}

fn panic_msg(e: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Parse → print → reparse fixpoint plus normalize-stability; assumes
/// `ast` parsed from somewhere (source text or generator).
fn check_round_trip(ast: &Policy) -> Vec<Finding> {
    let mut out = Vec::new();
    let printed = ast.to_string();
    let reparsed = match parse_policy(&printed) {
        Ok(p) => p,
        Err(e) => {
            out.push(Finding {
                oracle: OracleKind::RoundTrip,
                detail: format!("printed form fails to reparse: {e} (printed: `{printed}`)"),
            });
            return out;
        }
    };
    let reprinted = reparsed.to_string();
    if reprinted != printed {
        out.push(Finding {
            oracle: OracleKind::RoundTrip,
            detail: format!("print is not a fixpoint: `{printed}` vs `{reprinted}`"),
        });
    }
    match parse_policy(&reprinted) {
        Ok(again) if again == reparsed => {}
        Ok(_) => out.push(Finding {
            oracle: OracleKind::RoundTrip,
            detail: format!("canonical AST not a fixpoint for `{printed}`"),
        }),
        Err(e) => out.push(Finding {
            oracle: OracleKind::RoundTrip,
            detail: format!("canonical form fails to reparse: {e}"),
        }),
    }

    // Normalization must not notice the round trip.
    let direct = normalize(ast);
    let roundtrip = normalize(&reparsed);
    match (&direct, &roundtrip) {
        (Ok(a), Ok(b)) => {
            let same = a.regexes.len() == b.regexes.len()
                && a.branches.len() == b.branches.len()
                && a.branches.iter().zip(&b.branches).all(|(x, y)| {
                    x.reqs == y.reqs
                        && x.guards.len() == y.guards.len()
                        && matches!(x.rank, BranchRank::Finite(_))
                            == matches!(y.rank, BranchRank::Finite(_))
                });
            if !same {
                out.push(Finding {
                    oracle: OracleKind::NormalStable,
                    detail: format!("branch structure changed across reparse of `{printed}`"),
                });
            }
            // Reparsed spans point into the printed source.
            for br in &b.branches {
                if let Some(p) = span_problem(br.span, &printed) {
                    out.push(Finding {
                        oracle: OracleKind::SpanBounds,
                        detail: format!("branch span: {p} in `{printed}`"),
                    });
                }
                for g in &br.guards {
                    if let Some(p) = span_problem(g.span, &printed) {
                        out.push(Finding {
                            oracle: OracleKind::SpanBounds,
                            detail: format!("guard span: {p} in `{printed}`"),
                        });
                    }
                }
            }
        }
        (Ok(_), Err(e)) => out.push(Finding {
            oracle: OracleKind::NormalStable,
            detail: format!("normalizes directly but not after reparse ({e}) for `{printed}`"),
        }),
        (Err(e), Ok(_)) => out.push(Finding {
            oracle: OracleKind::NormalStable,
            detail: format!("normalizes after reparse but not directly ({e}) for `{printed}`"),
        }),
        (Err(_), Err(_)) => {}
    }
    out
}

fn check_black_holes(
    cp: &CompiledPolicy,
    topo: &Topology,
    holes: &HashSet<(NodeId, NodeId)>,
    src_text: &str,
) -> Vec<Finding> {
    let mut out = Vec::new();
    let Some(fdfas) = forward_dfas(&cp.normal, topo) else {
        return out; // names resolved during compile; unreachable in practice
    };
    for &d in &cp.destinations {
        for &s in &traffic_endpoints(topo) {
            if s == d {
                continue;
            }
            let routable = oracle_routable(topo, &cp.normal, &fdfas, s, d);
            if routable == holes.contains(&(s, d)) {
                out.push(Finding {
                    oracle: OracleKind::BlackHoleDiff,
                    detail: format!(
                        "verifier and forward search disagree on {}→{} \
                         (oracle routable: {routable}) for `{src_text}`",
                        topo.node(s).name,
                        topo.node(d).name
                    ),
                });
            }
        }
    }
    out
}

/// The deep tier's findings and its digest (see
/// [`CaseOutcome::deep_digest`]).
fn check_deep(
    cp: Arc<CompiledPolicy>,
    topo: &Topology,
    holes: &HashSet<(NodeId, NodeId)>,
    clean: bool,
    case: &Case,
) -> (Vec<Finding>, u64) {
    let mut out = Vec::new();
    let mut digest = FxHasher64::default();

    // The verifier is deliberately optimistic about metric guards (a
    // guarded branch *might* apply at runtime), while converged tables
    // evaluate guards against real metrics. On guarded policies only one
    // direction is sound: a verifier black hole can never route. On
    // guard-free policies the verdicts must match exactly.
    let guard_free = cp.normal.branches.iter().all(|b| b.guards.is_empty());

    // Tables: after convergence, traffic_path exists iff no black hole.
    let cfg = DataplaneConfig::for_policy(&cp);
    let mut h = ProtocolHarness::new(topo, cp.clone(), cfg);
    h.run_rounds(cp.pg.len() + 2);
    for &d in &cp.destinations {
        for &s in &traffic_endpoints(topo) {
            if s == d {
                continue;
            }
            let path = h.traffic_path(s, d);
            path.hash(&mut digest);
            let routed = path.is_some();
            let hole = holes.contains(&(s, d));
            if (routed && hole) || (!routed && !hole && guard_free) {
                out.push(Finding {
                    oracle: OracleKind::DeepConvergence,
                    detail: format!(
                        "verifier and converged tables disagree on {}→{} \
                         (tables route: {routed}) for `{}`",
                        topo.node(s).name,
                        topo.node(d).name,
                        case.policy
                    ),
                });
            }
        }
    }

    // Packets: a clean verdict must mean zero NoRoute drops end to end.
    let mut sim_noroute = None;
    if clean && guard_free {
        let hosts = topo.hosts();
        let pairs: Vec<(NodeId, NodeId)> = hosts
            .iter()
            .flat_map(|&a| hosts.iter().map(move |&b| (a, b)))
            .filter(|&(a, b)| {
                a != b
                    && topo.host_switch(a) != topo.host_switch(b)
                    && cp.destinations.contains(&topo.host_switch(b))
            })
            .take(3)
            .collect();
        if !pairs.is_empty() {
            let mut s = Scenario::custom(format!("fuzz-{}", case.seed), topo.clone())
                .traffic(Traffic::None)
                .warmup(Time::ms(2))
                .duration(Time::ms(8))
                .drain(Time::ms(2));
            for &(src, dst) in &pairs {
                s = s.flow(FlowSpec::Udp {
                    src,
                    dst,
                    rate_bps: 2e6,
                    start: Time::ms(2),
                    stop: Time::ms(8),
                });
            }
            let r = s.run(&Contra::new(case.policy.clone()));
            let noroute = r.stats.drops.get(&DropReason::NoRoute).copied();
            let noroute = noroute.unwrap_or(0);
            sim_noroute = Some(noroute);
            if noroute > 0 {
                out.push(Finding {
                    oracle: OracleKind::DeepConvergence,
                    detail: format!(
                        "clean verdict but the simulator dropped {noroute} packet(s) \
                         NoRoute for `{}`",
                        case.policy
                    ),
                });
            }
        }
    }
    sim_noroute.hash(&mut digest);
    (out, digest.finish())
}

/// Runs the oracle stack on one case. `deep` enables the budgeted
/// harness + simulator tier.
pub fn check(case: &Case, deep: bool) -> CaseOutcome {
    let mut o = CaseOutcome::default();
    let src = case.policy.as_str();

    let topo = match case.topo.build() {
        Ok(t) => t,
        Err(e) => {
            o.ran.push(OracleKind::Totality);
            o.findings.push(Finding {
                oracle: OracleKind::Totality,
                detail: format!("topology spec rejected: {e}"),
            });
            return o;
        }
    };

    // Tier 1: the whole compile+verify front end under a panic trap.
    o.ran.push(OracleKind::Totality);
    let compiled = match catch_unwind(AssertUnwindSafe(|| verify_source(src, &topo))) {
        Ok((cp, report)) => {
            // Every rejection must be a *coded* diagnostic with a sane span.
            o.ran.push(OracleKind::SpanBounds);
            for d in &report.diagnostics {
                if d.code.is_empty() {
                    o.findings.push(Finding {
                        oracle: OracleKind::Totality,
                        detail: format!("uncoded diagnostic: {}", d.message),
                    });
                }
                if let Some(p) = span_problem(d.span, src) {
                    o.findings.push(Finding {
                        oracle: OracleKind::SpanBounds,
                        detail: format!("diagnostic {}: {p}", d.code),
                    });
                }
            }
            Some((cp, report))
        }
        Err(e) => {
            o.findings.push(Finding {
                oracle: OracleKind::Totality,
                detail: format!("front end panicked: {}", panic_msg(e)),
            });
            None
        }
    };

    // Tiers 2–4: round-trip + normalize stability on the parsed AST.
    if let Ok(Ok(ast)) = catch_unwind(AssertUnwindSafe(|| parse_policy(src))) {
        o.ran.push(OracleKind::RoundTrip);
        o.ran.push(OracleKind::NormalStable);
        match catch_unwind(AssertUnwindSafe(|| check_round_trip(&ast))) {
            Ok(fs) => o.findings.extend(fs),
            Err(e) => o.findings.push(Finding {
                oracle: OracleKind::Totality,
                detail: format!("round-trip checks panicked: {}", panic_msg(e)),
            }),
        }
    }

    // Tier 5: verifier vs brute-force forward search.
    let Some((cp, report)) = compiled else {
        return o;
    };
    let holes: HashSet<(NodeId, NodeId)> = report
        .verdicts
        .black_holes
        .iter()
        .map(|b| (b.src, b.dst))
        .collect();
    match &cp {
        Some(cp) => {
            let states: usize = forward_dfas(&cp.normal, &topo)
                .map(|ds| ds.iter().map(|d| d.num_states()).product::<usize>())
                .unwrap_or(usize::MAX);
            let space = topo.switches().len().saturating_mul(states);
            if space <= MAX_FORWARD_STATES {
                o.ran.push(OracleKind::BlackHoleDiff);
                match catch_unwind(AssertUnwindSafe(|| {
                    check_black_holes(cp, &topo, &holes, src)
                })) {
                    Ok(fs) => o.findings.extend(fs),
                    Err(e) => o.findings.push(Finding {
                        oracle: OracleKind::Totality,
                        detail: format!("forward search panicked: {}", panic_msg(e)),
                    }),
                }
            }
        }
        None => {
            // `NoUsefulPaths` still has checkable semantics: the oracle
            // must find nothing routable either.
            let no_paths = report
                .diagnostics
                .iter()
                .any(|d| d.code == codes::NO_USEFUL_PATHS);
            if no_paths {
                if let Ok(Ok(normal)) = parse_policy(src).map(|p| normalize(&p)) {
                    if let Some(fdfas) = forward_dfas(&normal, &topo) {
                        let states: usize = fdfas.iter().map(|d| d.num_states()).product();
                        if topo.switches().len().saturating_mul(states) <= MAX_FORWARD_STATES {
                            o.ran.push(OracleKind::BlackHoleDiff);
                            // The compiler only builds the product graph
                            // toward its destination set, its
                            // `traffic_endpoints`.
                            for &d in &traffic_endpoints(&topo) {
                                for &s in &topo.switches() {
                                    if s != d && oracle_routable(&topo, &normal, &fdfas, s, d) {
                                        o.findings.push(Finding {
                                            oracle: OracleKind::BlackHoleDiff,
                                            detail: format!(
                                                "compiler said NoUsefulPaths but the \
                                                 oracle routes {}→{} for `{src}`",
                                                topo.node(s).name,
                                                topo.node(d).name
                                            ),
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    // Tier 6 (budgeted): converged tables + packet simulator.
    if deep {
        if let Some(cp) = cp {
            let clean = !report
                .diagnostics
                .iter()
                .any(|d| d.severity == Severity::Error);
            if cp.pg.len() <= MAX_DEEP_VNODES {
                o.ran.push(OracleKind::DeepConvergence);
                let cp = Arc::new(cp);
                match catch_unwind(AssertUnwindSafe(|| {
                    check_deep(cp.clone(), &topo, &holes, clean, case)
                })) {
                    Ok((fs, digest)) => {
                        o.findings.extend(fs);
                        o.deep_digest = Some(digest);
                    }
                    Err(e) => o.findings.push(Finding {
                        oracle: OracleKind::Totality,
                        detail: format!("deep tier panicked: {}", panic_msg(e)),
                    }),
                }
            }
        }
    }

    o
}
