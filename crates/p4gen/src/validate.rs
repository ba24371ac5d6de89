//! Structural validation of emitted P4 programs.
//!
//! Not a full P4 front end — a fast consistency checker that catches the
//! emitter bugs that matter: unbalanced blocks, tables applied but never
//! declared, actions referenced but never defined, duplicate const-entry
//! keys, missing parser start state, missing `main` instantiation.

use std::collections::BTreeSet;
use std::fmt;

/// A validation finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationError(pub String);

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P4 validation: {}", self.0)
    }
}

impl std::error::Error for ValidationError {}

/// Validates one emitted program; returns every finding (empty = OK).
pub fn validate(src: &str) -> Vec<ValidationError> {
    let mut errors = Vec::new();
    let code = strip_comments(src);

    // Balance: all six delimiters are ASCII, so one pass over the bytes.
    let mut counts = [0usize; 6];
    for b in code.bytes() {
        let i = match b {
            b'{' => 0,
            b'}' => 1,
            b'(' => 2,
            b')' => 3,
            b'[' => 4,
            b']' => 5,
            _ => continue,
        };
        counts[i] += 1;
    }
    for (pair, name) in counts.chunks(2).zip(["braces", "parens", "brackets"]) {
        let (o, c) = (pair[0], pair[1]);
        if o != c {
            errors.push(ValidationError(format!(
                "unbalanced {name}: {o} open vs {c} close"
            )));
        }
    }

    // Declarations.
    let tables = decls(&code, "table ");
    let actions = decls(&code, "action ");

    // Applications reference declared tables.
    let applies = find_applies(&code);
    for &applied in &applies {
        if !tables.contains(applied) {
            errors.push(ValidationError(format!(
                "`{applied}.apply()` but table `{applied}` not declared"
            )));
        }
    }
    // Every declared table is applied somewhere. Names are identifier
    // characters only, so the text `{t}.apply()` occurs exactly when `t`
    // ends the identifier in front of some `.apply()`.
    for &t in &tables {
        if !applies.iter().any(|a| a.ends_with(t)) {
            errors.push(ValidationError(format!(
                "table `{t}` declared but never applied"
            )));
        }
    }

    // Actions listed in `actions = { a; b; }` must be declared.
    let mut rest = code.as_str();
    while let Some(i) = rest.find("actions = {") {
        rest = &rest[i + "actions = {".len()..];
        let Some(end) = rest.find('}') else { break };
        for name in rest[..end].split(';') {
            let name = name.trim();
            if !name.is_empty() && !actions.contains(name) {
                errors.push(ValidationError(format!(
                    "action `{name}` listed but not declared"
                )));
            }
        }
        rest = &rest[end..];
    }

    // Const entries: unique keys per table block.
    let mut rest = code.as_str();
    while let Some(i) = rest.find("const entries = {") {
        rest = &rest[i + "const entries = {".len()..];
        let Some(end) = rest.find('}') else { break };
        let mut keys = BTreeSet::new();
        for line in rest[..end].lines() {
            let line = line.trim();
            if let Some((key, _)) = line.split_once(':') {
                let key = key.trim();
                if !key.is_empty() && !keys.insert(key) {
                    errors.push(ValidationError(format!(
                        "duplicate const entry key `{key}`"
                    )));
                }
            }
        }
        rest = &rest[end..];
    }

    // Parser start state and main.
    if !code.contains("state start") {
        errors.push(ValidationError("parser has no `state start`".into()));
    }
    if code.matches(") main;").count() != 1 {
        errors.push(ValidationError(
            "program must instantiate exactly one `main`".into(),
        ));
    }
    errors
}

fn strip_comments(src: &str) -> String {
    let mut out = String::with_capacity(src.len());
    for (i, l) in src.lines().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(l.find("//").map_or(l, |at| &l[..at]));
    }
    out
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn decls<'a>(code: &'a str, kw: &str) -> BTreeSet<&'a str> {
    let mut out = BTreeSet::new();
    let mut rest = code;
    while let Some(i) = rest.find(kw) {
        // Keyword must start a word.
        let at_word_start = i == 0 || !is_ident(rest.as_bytes()[i - 1]);
        rest = &rest[i + kw.len()..];
        if !at_word_start {
            continue;
        }
        let len = rest.bytes().take_while(|&b| is_ident(b)).count();
        if len > 0 {
            out.insert(&rest[..len]);
        }
    }
    out
}

/// The identifiers in front of every `.apply()`.
fn find_applies(code: &str) -> BTreeSet<&str> {
    let mut out = BTreeSet::new();
    let mut rest = code;
    while let Some(i) = rest.find(".apply()") {
        let head = &rest[..i];
        let len = head.bytes().rev().take_while(|&b| is_ident(b)).count();
        if len > 0 {
            out.insert(&head[i - len..]);
        }
        rest = &rest[i + ".apply()".len()..];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"
header h_t { bit<8> x; }
parser P() { state start { transition accept; } }
control C() {
    action a() { }
    table t {
        actions = { a; }
        const entries = {
            1: a();
            2: a();
        }
    }
    apply { t.apply(); }
}
V1Switch(P(), C()) main;
"#;

    #[test]
    fn minimal_program_passes() {
        assert_eq!(validate(MINIMAL), vec![]);
    }

    #[test]
    fn detects_unbalanced_braces() {
        let bad = MINIMAL.replacen('}', "", 1);
        assert!(validate(&bad).iter().any(|e| e.0.contains("unbalanced")));
    }

    #[test]
    fn detects_undeclared_table() {
        let bad = MINIMAL.replace("table t", "table other");
        assert!(validate(&bad)
            .iter()
            .any(|e| e.0.contains("table `t` not declared")));
    }

    /// "Applied" has always meant that the text `t.apply()` occurs, which
    /// an application of a table whose name merely ends in `t` satisfies.
    #[test]
    fn applied_means_the_text_occurs() {
        let bad = MINIMAL.replace("t.apply()", "fwdt.apply()");
        assert_eq!(
            validate(&bad),
            vec![ValidationError(
                "`fwdt.apply()` but table `fwdt` not declared".into()
            )]
        );
        let unapplied = MINIMAL.replace("t.apply();", "");
        assert_eq!(
            validate(&unapplied),
            vec![ValidationError(
                "table `t` declared but never applied".into()
            )]
        );
    }

    #[test]
    fn detects_undeclared_action() {
        let bad = MINIMAL.replace("action a()", "action b()");
        assert!(validate(&bad)
            .iter()
            .any(|e| e.0.contains("action `a` listed but not declared")));
    }

    #[test]
    fn detects_duplicate_entries() {
        let bad = MINIMAL.replace("2: a();", "1: a();");
        assert!(validate(&bad).iter().any(|e| e.0.contains("duplicate")));
    }

    #[test]
    fn detects_missing_main() {
        let bad = MINIMAL.replace(") main;", ");");
        assert!(validate(&bad).iter().any(|e| e.0.contains("main")));
    }

    #[test]
    fn comments_are_ignored() {
        let with_comment = format!("// table ghost {{ }}\n{MINIMAL}");
        assert_eq!(validate(&with_comment), vec![]);
    }
}
