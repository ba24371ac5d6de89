//! Structured compiler diagnostics: source spans, severities, codes and a
//! rustc-style renderer.
//!
//! Every front-end stage (lexer, parser, normalizer, analysis, resolution)
//! and the static verifier ([`mod@crate::verify`]) report through [`Diagnostic`]
//! so callers get one uniform stream: a [`Severity`], a stable code such as
//! `C0001`, a human message, the byte [`Span`] in the policy source that
//! provoked it, and free-form notes. [`render`] pretty-prints a batch
//! against the original source with caret underlines.

use std::fmt;

/// A half-open byte range `[start, end)` into the policy source text.
///
/// Spans survive normalization: every [`crate::normal::Branch`] and
/// [`crate::normal::Guard`] remembers the expression it was derived from,
/// so verifier findings about compiled artifacts can still point at source.
/// Synthetic nodes (built programmatically rather than parsed) carry
/// [`Span::DUMMY`], which renders without a source snippet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
}

impl Span {
    /// The span of programmatically-built nodes; renders without a snippet.
    pub const DUMMY: Span = Span {
        start: usize::MAX,
        end: usize::MAX,
    };

    /// A span covering `[start, end)`.
    pub fn new(start: usize, end: usize) -> Span {
        Span { start, end }
    }

    /// A zero-width span at `at` (used for end-of-input errors).
    pub fn point(at: usize) -> Span {
        Span { start: at, end: at }
    }

    /// The union of two spans (smallest span covering both). Dummy spans
    /// are absorbing on neither side: union with a dummy yields the other.
    pub fn to(self, other: Span) -> Span {
        if self.is_dummy() {
            return other;
        }
        if other.is_dummy() {
            return self;
        }
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Whether this is the synthetic [`Span::DUMMY`].
    pub fn is_dummy(self) -> bool {
        self == Span::DUMMY
    }
}

/// How seriously a diagnostic should be taken.
///
/// * `Error` — the policy is broken (won't compile, or provably drops
///   traffic on this topology). `contra_lint` exits non-zero and CI fails.
/// * `Warning` — the policy compiles and routes, but something is likely
///   unintended (shadowed branch, fragile destination, non-isotonic
///   retention).
/// * `Info` — observations useful when debugging (pruned vnodes, transient
///   loop exposure).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational note; never gates anything.
    Info,
    /// Suspicious but functional; `contra_lint --deny-warnings` gates.
    Warning,
    /// Broken; always gates.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "info",
        })
    }
}

/// Stable diagnostic codes. Codes are grouped by origin: `C00xx` for
/// verifier findings, `C01xx` for policy-analysis findings re-homed from
/// [`crate::analysis`], `C02xx` for front-end (compile) failures.
pub mod codes {
    /// A source switch has no policy-compliant path to a destination.
    pub const BLACK_HOLE: &str = "C0001";
    /// A single cable failure introduces a new black hole.
    pub const FRAGILE_LINK: &str = "C0002";
    /// A DFA state is dead at the language level (cannot reach accept).
    pub const DEAD_DFA_STATE: &str = "C0003";
    /// A policy regex matches no walk on this topology.
    pub const UNMATCHABLE_REGEX: &str = "C0004";
    /// Product-graph vnodes were pruned as useless (unreachable or
    /// unable to reach a finite-rank vnode).
    pub const PRUNED_VNODES: &str = "C0005";
    /// A branch matches no walk on this topology (its requirement vector
    /// is unrealizable).
    pub const DEAD_BRANCH: &str = "C0006";
    /// A branch is shadowed: every walk matching its own tests already
    /// satisfied an earlier branch.
    pub const SHADOWED_BRANCH: &str = "C0007";
    /// A metric guard is unsatisfiable on this topology even at the
    /// best-case metric lower bound.
    pub const UNSAT_GUARD: &str = "C0008";
    /// The rank depends on live utilization, so transient loops are
    /// possible during re-convergence (§5.5 mitigations apply).
    pub const TRANSIENT_LOOP_RISK: &str = "C0009";
    /// Retention function is not isotonic for some probe class.
    pub const NON_ISOTONIC: &str = "C0101";
    /// Rank function is not monotonic.
    pub const NON_MONOTONIC: &str = "C0102";
    /// Lexical or syntax error.
    pub const SYNTAX: &str = "C0201";
    /// Normalization/type error (e.g. arithmetic on tuples).
    pub const NORM: &str = "C0202";
    /// A regex names an unknown node or a host.
    pub const UNRESOLVED_NAME: &str = "C0203";
    /// Compilation produced an empty product graph: no useful paths at
    /// all for the requested destinations.
    pub const NO_USEFUL_PATHS: &str = "C0204";
}

/// One verifier or compiler finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// How bad it is.
    pub severity: Severity,
    /// Stable code from [`codes`].
    pub code: &'static str,
    /// One-line human description.
    pub message: String,
    /// Where in the policy source; [`Span::DUMMY`] when not attributable.
    pub span: Span,
    /// Additional context lines rendered beneath the snippet.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// An `error`-severity diagnostic.
    pub fn error(code: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic::new(Severity::Error, code, message)
    }

    /// A `warning`-severity diagnostic.
    pub fn warning(code: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic::new(Severity::Warning, code, message)
    }

    /// An `info`-severity diagnostic.
    pub fn info(code: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic::new(Severity::Info, code, message)
    }

    fn new(severity: Severity, code: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity,
            code,
            message: message.into(),
            span: Span::DUMMY,
            notes: Vec::new(),
        }
    }

    /// Attaches a source span (builder style).
    pub fn with_span(mut self, span: Span) -> Diagnostic {
        self.span = span;
        self
    }

    /// Appends a note line (builder style).
    pub fn with_note(mut self, note: impl Into<String>) -> Diagnostic {
        self.notes.push(note.into());
        self
    }

    /// Whether this diagnostic is an error.
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }

    /// Renders this diagnostic against `source` (rustc style). `source`
    /// may be `None` when the policy text is unavailable; the snippet is
    /// then omitted.
    pub fn render(&self, source: Option<&str>) -> String {
        let mut out = format!("{}[{}]: {}\n", self.severity, self.code, self.message);
        if let Some(src) = source {
            if !self.span.is_dummy() && self.span.start <= src.len() {
                render_snippet(&mut out, src, self.span);
            }
        }
        for note in &self.notes {
            out.push_str("  = note: ");
            out.push_str(note);
            out.push('\n');
        }
        out
    }
}

/// 1-based (line, column) of byte offset `at` in `src`.
fn line_col(src: &str, at: usize) -> (usize, usize) {
    let at = at.min(src.len());
    let before = &src[..at];
    let line = before.bytes().filter(|&b| b == b'\n').count() + 1;
    let col = before.rfind('\n').map_or(at, |nl| at - nl - 1) + 1;
    (line, col)
}

fn render_snippet(out: &mut String, src: &str, span: Span) {
    let (line_no, col) = line_col(src, span.start);
    let line_start = src[..span.start.min(src.len())]
        .rfind('\n')
        .map_or(0, |nl| nl + 1);
    let line_end = src[line_start..]
        .find('\n')
        .map_or(src.len(), |nl| line_start + nl);
    let line = &src[line_start..line_end];
    // Clamp the underline to this line; multi-line spans underline to EOL.
    let ulen = span.end.min(line_end).saturating_sub(span.start).max(1);
    let gutter = line_no.to_string().len();
    out.push_str(&format!(
        "{:gutter$}--> policy:{line_no}:{col}\n",
        "",
        gutter = gutter + 1
    ));
    out.push_str(&format!("{:gutter$} |\n", "", gutter = gutter));
    out.push_str(&format!("{line_no} | {line}\n"));
    out.push_str(&format!(
        "{:gutter$} | {:col$}{}\n",
        "",
        "",
        "^".repeat(ulen),
        gutter = gutter,
        col = col - 1
    ));
}

/// Renders a batch of diagnostics against an optional source text, most
/// severe first (stable within a severity), with a trailing summary line
/// when anything gated.
pub fn render(diags: &[Diagnostic], source: Option<&str>) -> String {
    let mut sorted: Vec<&Diagnostic> = diags.iter().collect();
    sorted.sort_by_key(|d| std::cmp::Reverse(d.severity));
    let mut out = String::new();
    for d in &sorted {
        out.push_str(&d.render(source));
    }
    let errors = diags.iter().filter(|d| d.is_error()).count();
    let warnings = diags
        .iter()
        .filter(|d| d.severity == Severity::Warning)
        .count();
    if errors > 0 || warnings > 0 {
        let mut parts = Vec::new();
        if errors > 0 {
            parts.push(format!(
                "{errors} error{}",
                if errors == 1 { "" } else { "s" }
            ));
        }
        if warnings > 0 {
            parts.push(format!(
                "{warnings} warning{}",
                if warnings == 1 { "" } else { "s" }
            ));
        }
        out.push_str(&format!("policy check: {}\n", parts.join(", ")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_union_and_dummy() {
        let a = Span::new(2, 5);
        let b = Span::new(4, 9);
        assert_eq!(a.to(b), Span::new(2, 9));
        assert_eq!(a.to(Span::DUMMY), a);
        assert_eq!(Span::DUMMY.to(b), b);
        assert_eq!(Span::point(3), Span::new(3, 3));
    }

    #[test]
    fn line_col_math() {
        let src = "abc\ndef";
        assert_eq!(line_col(src, 0), (1, 1));
        assert_eq!(line_col(src, 2), (1, 3));
        assert_eq!(line_col(src, 4), (2, 1));
        assert_eq!(line_col(src, 6), (2, 3));
    }

    #[test]
    fn render_with_snippet() {
        let src = "minimize(path.len)";
        let d = Diagnostic::warning(codes::SHADOWED_BRANCH, "branch is shadowed")
            .with_span(Span::new(9, 17))
            .with_note("earlier branch matches every such path");
        let r = d.render(Some(src));
        assert!(r.contains("warning[C0007]: branch is shadowed"), "{r}");
        assert!(r.contains("--> policy:1:10"), "{r}");
        assert!(r.contains("^^^^^^^^"), "{r}");
        assert!(r.contains("= note: earlier branch"), "{r}");
    }

    #[test]
    fn render_batch_sorts_and_summarizes() {
        let diags = vec![
            Diagnostic::info(codes::PRUNED_VNODES, "2 vnodes pruned"),
            Diagnostic::error(codes::BLACK_HOLE, "black hole"),
            Diagnostic::warning(codes::FRAGILE_LINK, "fragile"),
        ];
        let r = render(&diags, None);
        let epos = r.find("error[").unwrap();
        let wpos = r.find("warning[").unwrap();
        let ipos = r.find("info[").unwrap();
        assert!(epos < wpos && wpos < ipos, "{r}");
        assert!(r.contains("1 error, 1 warning"), "{r}");
    }

    #[test]
    fn dummy_span_renders_without_snippet() {
        let d = Diagnostic::error(codes::BLACK_HOLE, "no path");
        let r = d.render(Some("src"));
        assert!(!r.contains("-->"), "{r}");
    }

    #[test]
    fn severity_order() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }
}
