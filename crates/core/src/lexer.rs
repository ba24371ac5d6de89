//! Tokenizer for the concrete policy syntax.
//!
//! One lexical subtlety inherited from the paper's examples: `.` is both the
//! regex wildcard (`A .* B`) and part of numeric literals (`path.util < .8`).
//! The lexer resolves this locally — a dot immediately followed by a digit
//! starts a number; `path.` followed by `util`/`lat`/`len` is an attribute;
//! any other dot is the wildcard token.

use crate::ast::Attr;
use crate::diag::Span;
use std::fmt;

/// A lexical token with its source span (for error messages and AST spans).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// Kind and payload.
    pub kind: Tok,
    /// Byte range in the source string.
    pub span: Span,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Switch name or other identifier.
    Ident(String),
    /// Numeric literal.
    Number(f64),
    /// `path.util` / `path.lat` / `path.len`.
    Attr(Attr),
    /// `minimize`
    Minimize,
    /// `if`
    If,
    /// `then`
    Then,
    /// `else`
    Else,
    /// `not`
    Not,
    /// `or`
    Or,
    /// `and`
    And,
    /// `inf` or `∞`
    Inf,
    /// `min`
    Min,
    /// `max`
    Max,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.` (regex wildcard)
    Dot,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `<=` or `≤`
    Le,
    /// `<`
    Lt,
    /// `>=` or `≥`
    Ge,
    /// `>`
    Gt,
    /// End of input (always present as the last token).
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier `{s}`"),
            Tok::Number(n) => write!(f, "number `{n}`"),
            Tok::Attr(a) => write!(f, "`{a}`"),
            Tok::Minimize => write!(f, "`minimize`"),
            Tok::If => write!(f, "`if`"),
            Tok::Then => write!(f, "`then`"),
            Tok::Else => write!(f, "`else`"),
            Tok::Not => write!(f, "`not`"),
            Tok::Or => write!(f, "`or`"),
            Tok::And => write!(f, "`and`"),
            Tok::Inf => write!(f, "`inf`"),
            Tok::Min => write!(f, "`min`"),
            Tok::Max => write!(f, "`max`"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::Dot => write!(f, "`.`"),
            Tok::Star => write!(f, "`*`"),
            Tok::Plus => write!(f, "`+`"),
            Tok::Minus => write!(f, "`-`"),
            Tok::Le => write!(f, "`<=`"),
            Tok::Lt => write!(f, "`<`"),
            Tok::Ge => write!(f, "`>=`"),
            Tok::Gt => write!(f, "`>`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

/// Lexing / parsing error with a message and source span.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntaxError {
    /// Human-readable description.
    pub message: String,
    /// Byte range into the policy source.
    pub span: Span,
}

impl fmt::Display for SyntaxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "syntax error at byte {}: {}",
            self.span.start, self.message
        )
    }
}

impl std::error::Error for SyntaxError {}

/// Tokenizes a policy source string.
pub fn lex(src: &str) -> Result<Vec<Token>, SyntaxError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let at = i;
        let mut push1 = |kind: Tok, len: usize| {
            out.push(Token {
                kind,
                span: Span::new(at, at + len),
            });
        };
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                i += 1;
            }
            '(' => {
                push1(Tok::LParen, 1);
                i += 1;
            }
            ')' => {
                push1(Tok::RParen, 1);
                i += 1;
            }
            ',' => {
                push1(Tok::Comma, 1);
                i += 1;
            }
            '*' => {
                push1(Tok::Star, 1);
                i += 1;
            }
            '+' => {
                push1(Tok::Plus, 1);
                i += 1;
            }
            '-' => {
                push1(Tok::Minus, 1);
                i += 1;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    push1(Tok::Le, 2);
                    i += 2;
                } else {
                    push1(Tok::Lt, 1);
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    push1(Tok::Ge, 2);
                    i += 2;
                } else {
                    push1(Tok::Gt, 1);
                    i += 1;
                }
            }
            '.' => {
                // `.8` is a number; plain `.` is the wildcard.
                if bytes.get(i + 1).is_some_and(|b| b.is_ascii_digit()) {
                    let (n, len) = lex_number(&src[i..], at)?;
                    push1(Tok::Number(n), len);
                    i += len;
                } else {
                    push1(Tok::Dot, 1);
                    i += 1;
                }
            }
            '0'..='9' => {
                let (n, len) = lex_number(&src[i..], at)?;
                push1(Tok::Number(n), len);
                i += len;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let word = &src[start..i];
                let kind = match word {
                    "minimize" => Tok::Minimize,
                    "if" => Tok::If,
                    "then" => Tok::Then,
                    "else" => Tok::Else,
                    "not" => Tok::Not,
                    "or" => Tok::Or,
                    "and" => Tok::And,
                    "inf" => Tok::Inf,
                    "min" => Tok::Min,
                    "max" => Tok::Max,
                    "path" => {
                        // Expect `.util` / `.lat` / `.len`.
                        if bytes.get(i) == Some(&b'.') {
                            let astart = i + 1;
                            let mut j = astart;
                            while j < bytes.len() && (bytes[j] as char).is_ascii_alphanumeric() {
                                j += 1;
                            }
                            let attr = match &src[astart..j] {
                                "util" => Attr::Util,
                                "lat" => Attr::Lat,
                                "len" => Attr::Len,
                                other => {
                                    return Err(SyntaxError {
                                        message: format!(
                                            "unknown path attribute `path.{other}` \
                                             (expected util, lat or len)"
                                        ),
                                        span: Span::new(at, j),
                                    })
                                }
                            };
                            i = j;
                            Tok::Attr(attr)
                        } else {
                            return Err(SyntaxError {
                                message: "`path` must be followed by `.util`, `.lat` or `.len`"
                                    .into(),
                                span: Span::new(at, i),
                            });
                        }
                    }
                    _ => Tok::Ident(word.to_string()),
                };
                out.push(Token {
                    kind,
                    span: Span::new(at, i),
                });
            }
            _ => {
                // Check for multi-byte unicode (∞, ≤, ≥) starting here.
                let rest = &src[i..];
                if rest.starts_with('∞') {
                    push1(Tok::Inf, '∞'.len_utf8());
                    i += '∞'.len_utf8();
                } else if rest.starts_with('≤') {
                    push1(Tok::Le, '≤'.len_utf8());
                    i += '≤'.len_utf8();
                } else if rest.starts_with('≥') {
                    push1(Tok::Ge, '≥'.len_utf8());
                    i += '≥'.len_utf8();
                } else {
                    let ch = rest.chars().next().unwrap();
                    return Err(SyntaxError {
                        message: format!("unexpected character {ch:?}"),
                        span: Span::new(at, at + ch.len_utf8()),
                    });
                }
            }
        }
    }
    out.push(Token {
        kind: Tok::Eof,
        span: Span::point(src.len()),
    });
    Ok(out)
}

fn lex_number(rest: &str, at: usize) -> Result<(f64, usize), SyntaxError> {
    let bytes = rest.as_bytes();
    let mut len = 0;
    let mut seen_dot = false;
    while len < bytes.len() {
        match bytes[len] {
            b'0'..=b'9' => len += 1,
            b'.' if !seen_dot && bytes.get(len + 1).is_some_and(|b| b.is_ascii_digit()) => {
                seen_dot = true;
                len += 1;
            }
            _ => break,
        }
    }
    let n = rest[..len].parse::<f64>().map_err(|e| SyntaxError {
        message: format!("bad number: {e}"),
        span: Span::new(at, at + len),
    })?;
    // A long enough digit run parses to +inf, which `Display` prints as
    // `inf` — a *different token* that reparses to `ExprKind::Inf` and
    // flips a routable finite rank into a forbidden one. Keep literals
    // finite; `inf` is spelled `inf`.
    if !n.is_finite() {
        return Err(SyntaxError {
            message: "number literal overflows the representable range".to_string(),
            span: Span::new(at, at + len),
        });
    }
    Ok((n, len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn overflowing_number_literal_is_a_spanned_error() {
        let digits = "9".repeat(400);
        let src = format!("minimize({digits})");
        let err = lex(&src).unwrap_err();
        assert!(err.message.contains("overflow"), "{}", err.message);
        assert_eq!(err.span.start, "minimize(".len());
        assert_eq!(err.span.end, "minimize(".len() + digits.len());
        // The largest finite literal still lexes.
        assert!(lex(&format!("minimize({})", f64::MAX)).is_ok());
    }

    #[test]
    fn lexes_min_util_policy() {
        assert_eq!(
            kinds("minimize(path.util)"),
            vec![
                Tok::Minimize,
                Tok::LParen,
                Tok::Attr(Attr::Util),
                Tok::RParen,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn dot_digit_is_number_dot_alone_is_wildcard() {
        assert_eq!(
            kinds(".* .8"),
            vec![Tok::Dot, Tok::Star, Tok::Number(0.8), Tok::Eof]
        );
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            kinds("path.util <= .8"),
            vec![Tok::Attr(Attr::Util), Tok::Le, Tok::Number(0.8), Tok::Eof]
        );
        assert_eq!(kinds("<")[0], Tok::Lt);
        assert_eq!(kinds(">=")[0], Tok::Ge);
        assert_eq!(kinds(">")[0], Tok::Gt);
    }

    #[test]
    fn unicode_forms() {
        assert_eq!(kinds("∞"), vec![Tok::Inf, Tok::Eof]);
        assert_eq!(kinds("≤"), vec![Tok::Le, Tok::Eof]);
    }

    #[test]
    fn identifiers_and_keywords() {
        assert_eq!(
            kinds("if A1 then inf else 0"),
            vec![
                Tok::If,
                Tok::Ident("A1".into()),
                Tok::Then,
                Tok::Inf,
                Tok::Else,
                Tok::Number(0.0),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn bad_attr_rejected() {
        assert!(lex("path.bogus").is_err());
        assert!(lex("path util").is_err());
    }

    #[test]
    fn numbers_with_decimals() {
        assert_eq!(kinds("10.5")[0], Tok::Number(10.5));
        assert_eq!(kinds("0.8")[0], Tok::Number(0.8));
    }

    #[test]
    fn spans_recorded() {
        let toks = lex("  minimize(x)").unwrap();
        assert_eq!(toks[0].span, Span::new(2, 10));
        // Eof sits at the end of the input.
        assert_eq!(toks.last().unwrap().span, Span::point(13));
    }

    #[test]
    fn multibyte_token_spans_cover_the_glyph() {
        let toks = lex("≤").unwrap();
        assert_eq!(toks[0].span, Span::new(0, '≤'.len_utf8()));
    }
}
