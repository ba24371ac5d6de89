//! Structural validation of emitted P4 programs.
//!
//! Not a full P4 front end — a fast consistency checker that catches the
//! emitter bugs that matter: unbalanced blocks, tables applied but never
//! declared, actions referenced but never defined, duplicate const-entry
//! keys, missing parser start state, missing `main` instantiation.

use std::borrow::Cow;
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
///
/// The text is read once (`Scan::of`); what it declares is resolved
/// against what it uses afterwards, from the few names the scan kept.
pub fn validate(src: &str) -> Vec<ValidationError> {
    let mut errors = Vec::new();
    let scan = Scan::of(src);

    for (pair, name) in scan
        .delimiters
        .chunks(2)
        .zip(["braces", "parens", "brackets"])
    {
        let (o, c) = (pair[0], pair[1]);
        if o != c {
            errors.push(ValidationError(format!(
                "unbalanced {name}: {o} open vs {c} close"
            )));
        }
    }

    // Applications reference declared tables.
    let (tables, actions, applies) = (
        by_name(scan.tables),
        by_name(scan.actions),
        by_name(scan.applies),
    );
    for &applied in &applies {
        if tables.binary_search(&applied).is_err() {
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
    for list in scan.action_lists {
        for name in code_of(list).split(';') {
            let name = name.trim();
            if !name.is_empty() && actions.binary_search(&name).is_err() {
                errors.push(ValidationError(format!(
                    "action `{name}` listed but not declared"
                )));
            }
        }
    }

    // Const entries: unique keys per table block.
    for block in scan.entry_blocks {
        let mut keys = BTreeSet::new();
        for line in code_of(block).lines() {
            if let Some((key, _)) = line.split_once(':') {
                let key = key.trim();
                if !key.is_empty() && !keys.insert(key) {
                    errors.push(ValidationError(format!(
                        "duplicate const entry key `{key}`"
                    )));
                }
            }
        }
    }

    // Parser start state and main.
    if !scan.has_start_state {
        errors.push(ValidationError("parser has no `state start`".into()));
    }
    if scan.mains != 1 {
        errors.push(ValidationError(
            "program must instantiate exactly one `main`".into(),
        ));
    }
    errors
}

/// What one forward pass over a program collects. Comments (`//` to the end
/// of the line) are skipped where they stand; every `&str` is a slice of
/// the source.
#[derive(Default)]
struct Scan<'a> {
    /// `{ } ( ) [ ]` outside comments.
    delimiters: [usize; 6],
    /// The identifier after every `table ` / `action ` that starts a word.
    tables: Vec<&'a str>,
    actions: Vec<&'a str>,
    /// The identifier in front of every `.apply()`.
    applies: Vec<&'a str>,
    /// The text between each `actions = {` / `const entries = {` and the
    /// next `}`, comments included; a block with no `}` ends the search.
    action_lists: Vec<&'a str>,
    entry_blocks: Vec<&'a str>,
    has_start_state: bool,
    /// Occurrences of `) main;`.
    mains: usize,
}

impl<'a> Scan<'a> {
    fn of(src: &'a str) -> Scan<'a> {
        let mut scan = Scan::default();
        let b = src.as_bytes();
        // Where the block being read started, for each of the two kinds.
        let (mut action_list, mut entry_block) = (None, None);
        let ident_after = |at: usize| {
            let len = b[at..].iter().take_while(|&&c| is_ident(c)).count();
            (len > 0).then(|| &src[at..at + len])
        };
        let mut i = 0;
        while i < b.len() {
            if !STARTS_SOMETHING[b[i] as usize] {
                i += 1;
                continue;
            }
            let rest = &b[i..];
            match b[i] {
                b'/' if rest.starts_with(b"//") => {
                    i += rest.iter().position(|&c| c == b'\n').unwrap_or(rest.len());
                    continue;
                }
                b'{' => scan.delimiters[0] += 1,
                b'}' => {
                    scan.delimiters[1] += 1;
                    if let Some(from) = action_list.take() {
                        scan.action_lists.push(&src[from..i]);
                    }
                    if let Some(from) = entry_block.take() {
                        scan.entry_blocks.push(&src[from..i]);
                    }
                }
                b'(' => scan.delimiters[2] += 1,
                b')' => {
                    scan.delimiters[3] += 1;
                    scan.mains += usize::from(rest.starts_with(b") main;"));
                }
                b'[' => scan.delimiters[4] += 1,
                b']' => scan.delimiters[5] += 1,
                b'.' if rest.starts_with(b".apply()") => {
                    let len = b[..i].iter().rev().take_while(|&&c| is_ident(c)).count();
                    if len > 0 {
                        scan.applies.push(&src[i - len..i]);
                    }
                }
                b't' if rest.starts_with(b"table ") && starts_word(b, i) => {
                    scan.tables.extend(ident_after(i + "table ".len()));
                }
                b'a' if rest.starts_with(b"action") => {
                    if rest.starts_with(b"action ") && starts_word(b, i) {
                        scan.actions.extend(ident_after(i + "action ".len()));
                    } else if rest.starts_with(b"actions = {") && action_list.is_none() {
                        action_list = Some(i + "actions = {".len());
                    }
                }
                b'c' if rest.starts_with(b"const entries = {") && entry_block.is_none() => {
                    entry_block = Some(i + "const entries = {".len());
                }
                b's' if rest.starts_with(b"state start") => scan.has_start_state = true,
                _ => {}
            }
            i += 1;
        }
        scan
    }
}

/// The bytes a delimiter, a comment or one of the searched texts starts
/// with; the scan steps over every other byte without looking further.
const STARTS_SOMETHING: [bool; 256] = {
    let mut table = [false; 256];
    let starts = b"{}()[]/.tacs";
    let mut i = 0;
    while i < starts.len() {
        table[starts[i] as usize] = true;
        i += 1;
    }
    table
};

/// The set of `names`, ascending.
fn by_name(mut names: Vec<&str>) -> Vec<&str> {
    names.sort_unstable();
    names.dedup();
    names
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Whether the keyword at `at` starts a word.
fn starts_word(b: &[u8], at: usize) -> bool {
    at == 0 || !is_ident(b[at - 1])
}

/// A block's text as the checks read it: without comments, `\r\n` as `\n`.
/// Emitted blocks hold neither, so this borrows.
fn code_of(block: &str) -> Cow<'_, str> {
    if !block.contains("//") && !block.contains('\r') {
        return Cow::Borrowed(block);
    }
    let mut out = String::with_capacity(block.len());
    for (i, l) in block.lines().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(l.find("//").map_or(l, |at| &l[..at]));
    }
    Cow::Owned(out)
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
