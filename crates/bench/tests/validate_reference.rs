//! The reference model for `contra_p4gen::validate`.
//!
//! `validate` reads a program once and resolves what it declares against
//! what it uses afterwards. The model below is the validator it replaced,
//! verbatim: copy the program without its comments, then scan the copy once
//! per rule. The two share no code, so equality of the whole
//! `Vec<ValidationError>` — text and order — on every program the lint
//! corpus emits, on the hand-written mutations of the unit tests and on a
//! few thousand seeded single-edit mutants of emitted programs is the
//! evidence that the single pass is the same function, on broken programs
//! as well as on good ones.

use contra_bench::{compiler_policy_suite, lint_corpus};
use contra_core::Compiler;
use contra_fuzz::case_seed;
use contra_p4gen::{emit_all, validate, ValidationError};
use contra_topology::generators::{fat_tree, LinkSpec};
use std::collections::BTreeSet;

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

/// The multi-pass validator, verbatim.
fn reference(src: &str) -> Vec<ValidationError> {
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

/// Every program of the lint corpus under MU, WP and CA.
fn corpus_programs() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (label, topo, _) in lint_corpus() {
        for (policy, text) in compiler_policy_suite(&topo) {
            let cp = Compiler::new(&topo)
                .compile_str(&text)
                .expect("suite policies compile");
            for (switch, p4) in emit_all(&cp, &topo) {
                out.push((format!("{label}/{policy}/{switch}"), p4));
            }
        }
    }
    out
}

fn assert_same(label: &str, program: &str) {
    assert_eq!(validate(program), reference(program), "{label}:\n{program}");
}

#[test]
fn corpus_programs_validate_as_the_reference_says() {
    let programs = corpus_programs();
    assert!(programs.len() > 100, "{} programs", programs.len());
    for (label, p4) in &programs {
        assert_same(label, p4);
        assert_eq!(validate(p4), vec![], "{label}");
    }
}

#[test]
fn hand_written_mutations_validate_as_the_reference_says() {
    let mutations = [
        MINIMAL.to_string(),
        MINIMAL.replacen('}', "", 1),
        MINIMAL.replace("bit<8> x;", "bit<8> x[2]]; // ]"),
        MINIMAL.replace("table t", "table other"),
        MINIMAL.replace("t.apply()", "fwdt.apply()"),
        MINIMAL.replace("t.apply();", ""),
        MINIMAL.replace("action a()", "action b()"),
        MINIMAL.replace("2: a();", "1: a();"),
        MINIMAL.replace(") main;", ");"),
        format!("// table ghost {{ }}\n{MINIMAL}"),
        // Shapes no emitter produces but the rules have an answer for.
        MINIMAL.replace("actions = { a; }", "actions = { a; // b;\r\n c; }"),
        MINIMAL.replace("1: a();", "1: a(); // 2: a();\r\n 2: a();"),
        MINIMAL.replace("actions = { a; }", "actions = { actions = { a; }"),
        MINIMAL.replace("actions = { a; }", "actions = { a; "),
        MINIMAL.replace("table t {", "xtable t { table_action q"),
        MINIMAL.replace("state start", "state / start"),
        format!("{MINIMAL}V1Switch(P(), C()) main;"),
        format!("table table action action .apply() x.apply().apply()\n{MINIMAL}"),
        // Keys that do not pack into a word, and more than the buffer holds.
        MINIMAL.replace("1: a();", "123456789: a();\n 123456789 : a();"),
        MINIMAL.replace("1: a();", "12345678: a(); 12345678: a();\n 12345678 : a();"),
        MINIMAL.replace("1: a();", "1\0: a();\n 1: a();\n 1\0\0: a();\n 1\0: a();"),
        MINIMAL.replace("1: a();", "1\0: a();\n 1: a();\n 1\0\0: a();"),
        MINIMAL.replace(
            "1: a();",
            &(0..70).map(|k| format!("{k}: a();\n")).collect::<String>(),
        ),
        MINIMAL.replace(
            "1: a();",
            &(0..63).map(|k| format!("{k}: a();\n")).collect::<String>(),
        ),
        MINIMAL.replace(
            "2: a();",
            &(3..100).map(|k| format!("{k}: a();\n")).collect::<String>(),
        ),
        String::new(),
        "//".to_string(),
        "table".to_string(),
        "action \u{e9}t\u{e9} { }".to_string(),
    ];
    for (i, m) in mutations.iter().enumerate() {
        assert_same(&format!("mutation {i}"), m);
    }
}

/// A prefix of `n` bytes that ends in a comment's line break: `//`, filler
/// that is full of anchors, and `\n` as byte `n - 1`. Below three bytes
/// there is no room for a comment: empty, a line break, a lone `/`.
fn comment_prefix(n: usize) -> String {
    const FILLER: &str = "table t; action a = { x.apply() } (state start) ";
    match n {
        0 => String::new(),
        1 => "\n".into(),
        2 => "/\n".into(),
        _ => {
            let filler: String = FILLER.chars().cycle().take(n - 3).collect();
            format!("//{filler}\n")
        }
    }
}

/// The anchor scan works 32 bytes at a time. Every marker the seeded
/// campaign edits is placed at each offset 0..=64 in front of `MINIMAL`,
/// behind spaces and behind a comment that ends just before it — so a
/// comment ends at every alignment, and from 34 bytes on runs across a
/// chunk boundary.
#[test]
fn markers_at_every_alignment_validate_as_the_reference_says() {
    for target in TARGETS {
        for n in 0..=64 {
            for prefix in [" ".repeat(n), comment_prefix(n)] {
                assert_eq!(prefix.len(), n);
                let program = format!("{prefix}{target}{MINIMAL}");
                assert_same(&format!("{target:?} at offset {n}"), &program);
            }
        }
    }
}

/// A space after `e` or `n` is the one anchor that needs the byte before
/// it, which at a chunk's first byte is the previous chunk's last.
#[test]
fn pair_anchors_across_a_chunk_boundary_are_found() {
    let cases = [
        // `table`'s `e` is byte 31, its space byte 32.
        (
            format!("{}table ghost {{ }}\n{MINIMAL}", " ".repeat(27)),
            vec![ValidationError(
                "table `ghost` declared but never applied".into(),
            )],
        ),
        // `action`'s `n` is byte 63, its space byte 64.
        (
            format!(
                "{}action b() {{ }}\n{}",
                " ".repeat(58),
                MINIMAL.replace("action a()", "action c()")
            ),
            vec![ValidationError("action `a` listed but not declared".into())],
        ),
        // `state`'s `e` is byte 31; the program's own `state start` is
        // gone.
        (
            format!(
                "{}state start\n{}",
                " ".repeat(27),
                MINIMAL.replace("state start", "state begin")
            ),
            vec![],
        ),
    ];
    for (program, want) in &cases {
        assert_eq!(&validate(program), want, "{program}");
        assert_same("pair across a boundary", program);
    }
}

/// Static blocks of an emitted program, each found by its first and last
/// text as the emitter writes it whole: the prelude, the headers, one
/// metric field, the parser, the registers up to `NEXTPGNODE`'s entries,
/// `probe_multicast` up to its entries, the ingress up to the metric
/// writes and the rest up to the control-plane comments.
fn static_blocks(p4: &str) -> Vec<&str> {
    [
        ("#include <core.p4>\n", "0x88B6;\n"),
        ("header ethernet_t {\n", "// sender's virtual node\n"),
        ("    bit<32> m_util;", "metric\n"),
        ("}\nstruct headers_t {\n", "dataplane-written.\n"),
        ("register<bit<32>>(FWDT_SIZE) fwdt_version;\n", "drop();\n"),
        ("    }\n\n    action set_probe_mcast", "drop();\n"),
        ("    }\n\n    action forward", "FWDT_SIZE);\n"),
        (
            "            fwdt_version.write",
            "(multicast groups) ----\n",
        ),
    ]
    .iter()
    .map(|&(first, last)| {
        let from = p4.find(first).unwrap_or_else(|| panic!("no {first:?}"));
        let len = p4[from..].find(last).expect("the block ends") + last.len();
        assert!(p4[..from].ends_with('\n'), "{first:?} starts a line");
        &p4[from..from + len]
    })
    .collect()
}

/// `validate` takes a static block by comparison only at a line start
/// outside any block; everywhere else, and for text that differs from the
/// block in one byte or ends early, it reads the text as it reads any
/// other. Each block is placed at those boundaries.
#[test]
fn static_blocks_at_their_boundaries_validate_as_the_reference_says() {
    let topo = fat_tree(4, 0, LinkSpec::default());
    let cp = Compiler::new(&topo)
        .compile_str("minimize(path.util)")
        .expect("MU compiles");
    let programs = emit_all(&cp, &topo);
    let p4 = programs.values().next().expect("a program");
    let blocks = static_blocks(p4);
    let mut cases = Vec::new();
    for &block in &blocks {
        cases.extend([
            // At offset 0, and behind a byte that is not a line break.
            format!("{block}{MINIMAL}"),
            format!(" {block}{MINIMAL}"),
            format!("{MINIMAL}x{block}"),
            // Behind an unclosed block, whose text it then is.
            format!("const entries = {{\n{block}{MINIMAL}"),
            format!("{MINIMAL}const entries = {{\n1: a();\n{block}"),
            format!("actions = {{\n{block}{MINIMAL}"),
            format!("{MINIMAL}    actions = {{ a;\n{block}"),
            // Right after a comment line.
            format!("// c\n{block}{MINIMAL}"),
            format!("{MINIMAL}// table ghost {{ x.apply() ) main;\n{block}"),
        ]);
        // One byte changed mid-way: a delimiter, a line break, a letter.
        let mid = (block.len() / 2..)
            .find(|&at| block.as_bytes()[at].is_ascii())
            .expect("an ASCII byte");
        for byte in ["{", "}", "\n", "x"] {
            let changed = format!("{}{byte}{}", &block[..mid], &block[mid + 1..]);
            cases.push(format!("{MINIMAL}{changed}{MINIMAL}"));
        }
        // Cut short at the end of the input.
        for keep in [1, 7, 8, 9, block.len() / 2, block.len() - 1] {
            let keep = (keep..).find(|&at| block.is_char_boundary(at)).unwrap();
            cases.push(format!("{MINIMAL}{}", &block[..keep]));
        }
        // Two adjacent blocks, after a line break and at offset 0.
        for &next in &blocks {
            cases.push(format!("{MINIMAL}{block}{next}"));
            cases.push(format!("{block}{next}"));
        }
    }
    for (i, case) in cases.iter().enumerate() {
        assert_same(&format!("boundary case {i}"), case);
    }
}

/// The first line of `p4` not indented four spaces per enclosing brace
/// (one level less when it starts with `}`), or a program that does not
/// end at depth 0. A line that continues an unclosed `(` — the key list of
/// a `hash(` call — is exempt; comments are not code.
fn misindented(p4: &str) -> Option<String> {
    let (mut braces, mut parens) = (0i64, 0i64);
    for (n, line) in p4.lines().enumerate() {
        let code = line.find("//").map_or(line, |at| &line[..at]);
        let text = line.trim_start_matches(' ');
        if !text.is_empty() && parens == 0 {
            let level = braces - i64::from(text.starts_with('}'));
            let indent = (line.len() - text.len()) as i64;
            if indent != 4 * level {
                return Some(format!("line {}: {line:?} at depth {braces}", n + 1));
            }
        }
        for c in code.bytes() {
            match c {
                b'{' => braces += 1,
                b'}' => braces -= 1,
                b'(' => parens += 1,
                b')' => parens -= 1,
                _ => {}
            }
        }
    }
    (braces != 0 || parens != 0).then(|| format!("ends at depth {braces}, {parens} open parens"))
}

/// What `CodeWriter` once asserted at run time, checked on the output:
/// every program of the lint corpus is laid out by its brace depth.
#[test]
fn emitted_programs_are_indented_by_brace_depth() {
    let programs = corpus_programs();
    for (label, p4) in &programs {
        assert_eq!(misindented(p4), None, "{label}:\n{p4}");
    }
    // The check itself catches a shifted line and a lost brace.
    let (_, p4) = &programs[0];
    let shifted = p4.replacen(
        "\n        pkt.extract(hdr.data);",
        "\n      pkt.extract(hdr.data);",
        1,
    );
    assert!(misindented(&shifted).is_some());
    let unclosed = p4.replacen("    }\n}\n", "    }\n", 1);
    assert!(misindented(&unclosed).is_some());
}

/// What a single edit deletes or doubles: the six delimiters, the
/// keywords and markers each rule looks for, and whole lines (a const
/// entry, an action list, anything else).
const TARGETS: [&str; 15] = [
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    "table ",
    "action ",
    ".apply()",
    "//",
    "actions = {",
    "const entries = {",
    "state start",
    ") main;",
    "\n",
];

/// One seeded edit of `p4`: pick a target, pick one of its occurrences,
/// delete it or write it twice. A `\n` target stands for the line after it.
fn mutant(p4: &str, draws: &mut impl Iterator<Item = u64>) -> Option<String> {
    let mut draw = || draws.next().unwrap() as usize;
    let target = TARGETS[draw() % TARGETS.len()];
    let sites: Vec<usize> = p4.match_indices(target).map(|(at, _)| at).collect();
    let at = *sites.get(draw() % sites.len().max(1))?;
    let end = match target {
        "\n" => at + 1 + p4[at + 1..].find('\n')?,
        _ => at + target.len(),
    };
    let (head, cut, tail) = (&p4[..at], &p4[at..end], &p4[end..]);
    Some(if draw().is_multiple_of(2) {
        format!("{head}{tail}")
    } else {
        format!("{head}{cut}{cut}{tail}")
    })
}

#[test]
fn seeded_mutants_validate_as_the_reference_says() {
    let programs = corpus_programs();
    let mut draws = (0..).map(|i| case_seed(15, i));
    let (mut mutants, mut rejected) = (0, 0);
    let mut findings = BTreeSet::new();
    for round in 0..40 {
        for (label, p4) in &programs {
            let Some(m) = mutant(p4, &mut draws) else {
                continue;
            };
            assert_same(&format!("{label}, round {round}"), &m);
            let errors = validate(&m);
            mutants += 1;
            rejected += usize::from(!errors.is_empty());
            // The kind of finding: its text without names and numbers.
            findings.extend(errors.iter().map(|e| {
                let outside_quotes: String = e.0.split('`').step_by(2).collect();
                outside_quotes.replace(|c: char| c.is_ascii_digit(), "")
            }));
        }
    }
    assert!(mutants >= 2_000, "only {mutants} mutants");
    // The campaign must reach every rule, or agreement says little.
    assert!(rejected * 4 > mutants, "{rejected} of {mutants} rejected");
    // All nine kinds but unbalanced brackets: emitted programs have
    // brackets in comments only.
    assert_eq!(findings.len(), 8, "kinds of finding reached: {findings:?}");
}
