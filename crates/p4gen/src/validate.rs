//! Structural validation of emitted P4 programs.
//!
//! Not a full P4 front end — a fast consistency checker that catches the
//! emitter bugs that matter: unbalanced blocks, tables applied but never
//! declared, actions referenced but never defined, duplicate const-entry
//! keys, missing parser start state, missing `main` instantiation.
//!
//! # The scan
//!
//! [`validate`] reads the program once, and not every byte of it. It
//! stops at *anchors*, and it takes the emitter's *static blocks* by
//! comparison instead of reading them.
//!
//! **Anchors.** Each text a rule searches for contains an anchor, and the
//! scan visits only those:
//!
//! * the six delimiters `{ } ( ) [ ]`;
//! * `/`, which may start a comment (`//` to the end of the line);
//! * `.`, which starts `.apply()`;
//! * `=`, the middle of `actions = {` and `const entries = {`;
//! * a space after `e` or `n`, which ends `table`, `state` (of
//!   `state start`) and `action`;
//! * a line break, after which a static block may start.
//!
//! At an anchor the scan checks the searched text around it — before it
//! for the keywords that end there, after it for the rest. The anchors are
//! found 32 bytes at a time: one pass writes a 0/1 flag per byte into an
//! array (a loop the compiler vectorizes), each eight flags become a byte
//! of a bit mask by one multiply, and the set bits are visited lowest
//! first. A comment found at an anchor ends at the next line break, which
//! is searched for eight bytes at a time; the scan clears the bits up to
//! there, or moves the next chunk there.
//!
//! **Static blocks.** Most of an emitted program is text the emitter pushes
//! whole, the same in every program: the seven blocks and the per-metric
//! lines (`emit::STATIC_TEXT`). Each is scanned once, on first use, and
//! kept as what the scan collected from it.
//! At a line break outside any comment — the anchor, or the line break
//! that ends a comment — while no `actions = {` or `const entries = {`
//! block is open, the scan compares the bytes that follow with each static
//! block: eight bytes as one word, then the whole text. On a match it adds
//! what the block holds, moves past it and compares again at once, so
//! adjacent blocks chain. Everywhere else it reads the text as it reads
//! any other. Of the 12,292,057 bytes of the 1,710 programs the
//! `policy_ladder` workload emits, 9,807,420 (80 %) are taken this way,
//! and the scan visits 119,689 anchors in the rest (965,018 when it read
//! the blocks too). Validation then costs what the lines that vary cost:
//! the const entries, the size constants and, most of those bytes, the
//! control-plane comments.
//!
//! The findings and their order are those of a byte-by-byte scan, for
//! every input. Anchors are visited in source order. A searched text holds
//! no `/` and no line break, so it lies wholly inside a comment or wholly
//! outside one, and the scan skips exactly the ones a byte-by-byte scan
//! skips. Only the order of the blocks (`actions = {…}`,
//! `const entries = {…}`) reaches the findings, and a block opens at its
//! `=` and closes at the next `}` just as it did at its first letter: no
//! `}` can fall between the two. A static block is taken only where it
//! qualifies — it ends with a line break, and its own scan leaves no block
//! open — and only at a line start outside any comment or block. So no
//! comment or block is open at either end of it; a check that looks across
//! either end meets a line break in the program and the end of the text in
//! the block scanned alone, and neither completes a searched text; and the
//! block's names and lists are added where they stand in source order.
//!
//! # Memory
//!
//! A scan keeps each kind of name (tables, actions, applications, action
//! lists, entry blocks) in a `Names`: up to eight in place, a `Vec`
//! only past that. An emitted program holds at most four of a kind and no
//! comment inside a list or block (`code_of` borrows), so validating one
//! allocates only for its findings, and a valid one not at all. The
//! static blocks' summaries, built once per process, hold no heap block
//! either, so the first validation allocates what every later one does.

use crate::emit::STATIC_TEXT;
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::OnceLock;

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
/// against what it uses afterwards, from the names the scan kept.
pub fn validate(src: &str) -> Vec<ValidationError> {
    let mut errors = Vec::new();
    let mut scan = Scan::of(src);

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
        scan.tables.as_set(),
        scan.actions.as_set(),
        scan.applies.as_set(),
    );
    for &applied in applies {
        if tables.binary_search(&applied).is_err() {
            errors.push(ValidationError(format!(
                "`{applied}.apply()` but table `{applied}` not declared"
            )));
        }
    }
    // Every declared table is applied somewhere. Names are identifier
    // characters only, so the text `{t}.apply()` occurs exactly when `t`
    // ends the identifier in front of some `.apply()`.
    for &t in tables {
        if !applies.iter().any(|a| a.ends_with(t)) {
            errors.push(ValidationError(format!(
                "table `{t}` declared but never applied"
            )));
        }
    }

    // Actions listed in `actions = { a; b; }` must be declared.
    for &list in scan.action_lists.as_slice() {
        for name in code_of(list).split(';') {
            let name = name.trim();
            if !name.is_empty() && actions.binary_search(&name).is_err() {
                errors.push(ValidationError(format!(
                    "action `{name}` listed but not declared"
                )));
            }
        }
    }

    // Const entries: unique keys per table block. A block's keys are
    // packed into words and sorted in one buffer; the walk in insertion
    // order that names the duplicates runs only for a block that holds one,
    // or whose keys do not all pack.
    let mut sorted = [0; 64];
    for &block in scan.entry_blocks.as_slice() {
        let code = code_of(block);
        if let Some(keys) = packed_keys(&code, &mut sorted) {
            keys.sort_unstable();
            if keys.windows(2).all(|w| w[0] != w[1]) {
                continue;
            }
        }
        let mut keys = BTreeSet::new();
        for key in entry_keys(&code) {
            if !keys.insert(key) {
                errors.push(ValidationError(format!(
                    "duplicate const entry key `{key}`"
                )));
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

/// The key of every line of a const-entry block that has one: the
/// non-empty text before its first `:`, trimmed.
fn entry_keys(code: &str) -> impl Iterator<Item = &str> {
    code.lines()
        .filter_map(|line| Some(line.split_once(':')?.0.trim()))
        .filter(|key| !key.is_empty())
}

/// The keys of a const-entry block packed into the front of `buf`, if
/// there is room for them and each packs.
fn packed_keys<'b>(code: &str, buf: &'b mut [u64]) -> Option<&'b mut [u64]> {
    let mut n = 0;
    for key in entry_keys(code) {
        *buf.get_mut(n)? = packed_key(key)?;
        n += 1;
    }
    Some(&mut buf[..n])
}

/// A key of at most eight bytes as one word, zero-padded. Equal keys pack
/// alike, so a block whose words are distinct holds no duplicate; two
/// keys that differ only in trailing zero bytes cost the walk, no more.
fn packed_key(key: &str) -> Option<u64> {
    let mut word = [0; 8];
    word.get_mut(..key.len())?.copy_from_slice(key.as_bytes());
    Some(u64::from_le_bytes(word))
}

/// What one forward pass over a program's anchors collects. Comments (`//`
/// to the end of the line) are skipped where they stand; every `&str` is a
/// slice of the source or of a static block.
#[derive(Default)]
struct Scan<'a> {
    /// `{ } ( ) [ ]` outside comments.
    delimiters: [usize; 6],
    /// The identifier after every `table ` / `action ` that starts a word.
    tables: Names<'a>,
    actions: Names<'a>,
    /// The identifier in front of every `.apply()`.
    applies: Names<'a>,
    /// The text between each `actions = {` / `const entries = {` and the
    /// next `}`, comments included; a block with no `}` ends the search.
    action_lists: Names<'a>,
    entry_blocks: Names<'a>,
    has_start_state: bool,
    /// Occurrences of `) main;`.
    mains: usize,
    /// Bytes taken as static blocks.
    #[cfg(test)]
    skipped: usize,
}

/// Names of one kind, in the order they were pushed: the first
/// [`INLINE`] in place, all of them in a `Vec` once there are more.
#[derive(Default)]
struct Names<'a> {
    inline: [&'a str; INLINE],
    /// How many of `inline` hold names; all of them once `spilled` is
    /// in use.
    len: usize,
    /// Every name, once more than [`INLINE`] were pushed.
    spilled: Vec<&'a str>,
}

/// Names a [`Names`] holds without a heap block.
const INLINE: usize = 8;

impl<'a> Names<'a> {
    fn push(&mut self, name: &'a str) {
        if self.spilled.is_empty() {
            if let Some(slot) = self.inline.get_mut(self.len) {
                *slot = name;
                self.len += 1;
                return;
            }
            self.spilled.extend_from_slice(&self.inline);
        }
        self.spilled.push(name);
    }

    fn as_slice(&self) -> &[&'a str] {
        if self.spilled.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spilled
        }
    }

    /// Sorts the names in place and returns each once, ascending.
    fn as_set(&mut self) -> &[&'a str] {
        let names = if self.spilled.is_empty() {
            &mut self.inline[..self.len]
        } else {
            &mut self.spilled[..]
        };
        names.sort_unstable();
        let mut kept = 0;
        for at in 0..names.len() {
            if kept == 0 || names[kept - 1] != names[at] {
                names[kept] = names[at];
                kept += 1;
            }
        }
        &names[..kept]
    }
}

impl<'a> Extend<&'a str> for Names<'a> {
    fn extend<I: IntoIterator<Item = &'a str>>(&mut self, names: I) {
        names.into_iter().for_each(|name| self.push(name));
    }
}

/// A static text that qualifies, with what the scan collects from it.
struct Block {
    text: &'static [u8],
    /// Its first eight bytes (see [`head_at`]).
    head: u64,
    scan: Scan<'static>,
}

impl Block {
    /// `text` as a block, if it qualifies: at least eight bytes, a line
    /// break at the end, and a scan that leaves no block open.
    fn of(text: &'static str) -> Option<Block> {
        let (scan, open) = Scan::read(text, &[]);
        let text = text.as_bytes();
        let head = head_at(text, 0)?;
        (text.ends_with(b"\n") && !open).then_some(Block { text, head, scan })
    }
}

/// The emitter's static texts as blocks, scanned on first use.
fn blocks() -> &'static [Option<Block>] {
    static BLOCKS: OnceLock<[Option<Block>; STATIC_TEXT.len()]> = OnceLock::new();
    BLOCKS.get_or_init(|| STATIC_TEXT.map(Block::of))
}

impl<'a> Scan<'a> {
    fn of(src: &'a str) -> Self {
        Scan::read(src, blocks()).0
    }

    /// Scans `src`, taking `blocks` where they stand at a line start; also
    /// returns whether an `actions = {` or `const entries = {` block is
    /// open at the end.
    fn read(src: &'a str, blocks: &[Option<Block>]) -> (Self, bool) {
        let mut scan = Self::default();
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
                // Where the scan goes on when it jumps over text: to a
                // comment's line break, past static blocks.
                let mut resume = None;
                match b[i] {
                    b'/' if rest.starts_with(b"//") => resume = Some(i + line_len(rest)),
                    b'\n' if action_list.is_none() && entry_block.is_none() => {
                        let mut at = i + 1;
                        while let Some(block) = block_at(blocks, b, at) {
                            scan.add(&block.scan);
                            #[cfg(test)]
                            {
                                scan.skipped += block.text.len();
                            }
                            at += block.text.len();
                        }
                        resume = Some(at);
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
                if let Some(at) = resume {
                    if at >= base + CHUNK {
                        next = at;
                        break;
                    }
                    mask &= u32::MAX << (at - base);
                }
            }
            base = next;
        }
        (scan, action_list.is_some() || entry_block.is_some())
    }

    /// Adds what a static block holds, as if the scan had read it here.
    fn add(&mut self, block: &Scan<'a>) {
        for (d, n) in self.delimiters.iter_mut().zip(block.delimiters) {
            *d += n;
        }
        for (names, kept) in [
            (&mut self.tables, &block.tables),
            (&mut self.actions, &block.actions),
            (&mut self.applies, &block.applies),
            (&mut self.action_lists, &block.action_lists),
            (&mut self.entry_blocks, &block.entry_blocks),
        ] {
            names.extend(kept.as_slice().iter().copied());
        }
        self.has_start_state |= block.has_start_state;
        self.mains += block.mains;
    }
}

/// The static block that `b` holds at `at`, if any.
fn block_at<'b>(blocks: &'b [Option<Block>], b: &[u8], at: usize) -> Option<&'b Block> {
    let head = head_at(b, at)?;
    blocks
        .iter()
        .flatten()
        .find(|block| block.head == head && b[at..].starts_with(block.text))
}

/// The eight bytes of `b` at `at` as one word, if there are eight.
fn head_at(b: &[u8], at: usize) -> Option<u64> {
    let eight = b.get(at..at + 8)?;
    Some(u64::from_le_bytes(eight.try_into().expect("8 bytes")))
}

/// The offset of the first line break in `rest`, or its length. Eight
/// bytes at a time: a byte of `word ^ "\n\n\n\n\n\n\n\n"` is zero where the
/// word holds a line break, and the lowest byte the zero-byte test flags is
/// the first zero one (a borrow only runs upwards).
fn line_len(rest: &[u8]) -> usize {
    const LF: u64 = u64::from_le_bytes([b'\n'; 8]);
    const LOW: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGH: u64 = u64::from_le_bytes([0x80; 8]);
    let mut words = rest.chunks_exact(8);
    let mut at = 0;
    for word in &mut words {
        let x = u64::from_le_bytes(word.try_into().expect("8 bytes")) ^ LF;
        let zero = x.wrapping_sub(LOW) & !x & HIGH;
        if zero != 0 {
            return at + zero.trailing_zeros() as usize / 8;
        }
        at += 8;
    }
    let tail = words.remainder();
    at + tail.iter().position(|&c| c == b'\n').unwrap_or(tail.len())
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
/// the six delimiters, `/`, `.`, `=` or a line break, or a space after `e`
/// or `n` (the last byte of `table`, `state` and `action`). The flags are
/// computed into a byte array, which the compiler vectorizes, and each
/// eight of them gathered into a byte by one multiply.
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
            | (x == b'=')
            | (x == b'\n');
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

/// The bytes of `src` the scan takes as static blocks.
#[cfg(test)]
pub(crate) fn skipped_bytes(src: &str) -> usize {
    Scan::of(src).skipped
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

    /// Past the inline capacity the names spill to the heap, none lost: of
    /// ten tables and ten declared actions, exactly the unapplied table
    /// and the undeclared action are reported.
    #[test]
    fn names_past_the_inline_capacity_are_kept() {
        let n = INLINE + 2;
        let mut src =
            String::from("parser P() { state start { transition accept; } }\ncontrol C() {\n");
        for i in 0..n {
            src += &format!("    action a{i}() {{ }}\n");
        }
        for i in 0..n {
            let ghost = if i == n - 1 { " ghost;" } else { "" };
            src += &format!("    table t{i} {{ actions = {{ a{i};{ghost} }} }}\n");
        }
        src += "    apply {";
        for i in 0..n - 1 {
            src += &format!(" t{i}.apply();");
        }
        src += " }\n}\nV1Switch(P(), C()) main;\n";
        assert_eq!(
            validate(&src),
            vec![
                ValidationError(format!("table `t{}` declared but never applied", n - 1)),
                ValidationError("action `ghost` listed but not declared".into()),
            ]
        );
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

    /// Every entry of the emitter's list is a block the scan may take: at
    /// least eight bytes, a line break at its end, no block left open.
    #[test]
    fn every_static_text_qualifies() {
        for (text, block) in STATIC_TEXT.iter().zip(blocks()) {
            let (_, open) = Scan::read(text, &[]);
            assert!(text.len() >= 8, "{text:?}");
            assert!(text.ends_with('\n'), "{text:?}");
            assert!(!open, "{text:?} leaves a block open");
            assert!(block.is_some(), "{text:?}");
        }
    }

    #[test]
    fn line_len_finds_the_first_line_break() {
        for len in 0..=24 {
            let mut line = vec![b'/'; len];
            assert_eq!(line_len(&line), len);
            for at in 0..len {
                line[at] = b'\n';
                assert_eq!(line_len(&line), at, "{len} bytes, break at {at}");
                line[at] = b'\n' + 0x80;
            }
        }
    }
}
