//! A tiny indentation-aware code writer for the P4 emitter.

use std::fmt::{self, Write};

/// Accumulates generated source with automatic indentation.
#[derive(Debug)]
pub struct CodeWriter {
    buf: String,
    indent: usize,
}

impl CodeWriter {
    /// A writer whose buffer holds `bytes` before it has to grow.
    pub fn with_capacity(bytes: usize) -> CodeWriter {
        CodeWriter {
            buf: String::with_capacity(bytes),
            indent: 0,
        }
    }

    /// Writes one line at the current indent.
    pub fn line(&mut self, s: &str) {
        if s.is_empty() {
            self.buf.push('\n');
            return;
        }
        self.pad();
        self.buf.push_str(s);
        self.buf.push('\n');
    }

    /// Writes one formatted, non-empty line at the current indent,
    /// straight into the buffer: `w.linef(format_args!("x = {x};"))`.
    pub fn linef(&mut self, line: fmt::Arguments<'_>) {
        self.pad();
        self.buf
            .write_fmt(line)
            .expect("a Display impl returned an error");
        self.buf.push('\n');
    }

    fn pad(&mut self) {
        for _ in 0..self.indent {
            self.buf.push_str("    ");
        }
    }

    /// Writes a line and increases the indent (e.g. `foo {`).
    pub fn open(&mut self, s: &str) {
        self.line(s);
        self.indent += 1;
    }

    /// Decreases the indent and writes a line (e.g. `}`).
    pub fn close(&mut self, s: &str) {
        assert!(self.indent > 0, "unbalanced close");
        self.indent -= 1;
        self.line(s);
    }

    /// Blank line.
    pub fn blank(&mut self) {
        self.buf.push('\n');
    }

    /// Finishes, asserting balance.
    pub fn finish(self) -> String {
        assert_eq!(self.indent, 0, "unbalanced blocks at end of emission");
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indentation_tracks_blocks() {
        let mut w = CodeWriter::with_capacity(64);
        w.open("control X {");
        w.line("y = 1;");
        w.open("if (y == 1) {");
        w.line("z();");
        w.close("}");
        w.close("}");
        let s = w.finish();
        assert_eq!(
            s,
            "control X {\n    y = 1;\n    if (y == 1) {\n        z();\n    }\n}\n"
        );
    }

    #[test]
    fn formatted_lines_are_indented_like_plain_ones() {
        let mut w = CodeWriter::with_capacity(0);
        w.open("table t {");
        w.linef(format_args!("{}: act({});", 3, 7));
        w.line("");
        w.close("}");
        assert_eq!(w.finish(), "table t {\n    3: act(7);\n\n}\n");
    }

    #[test]
    #[should_panic(expected = "unbalanced")]
    fn unbalanced_panics() {
        let mut w = CodeWriter::with_capacity(64);
        w.open("{");
        let _ = w.finish();
    }
}
