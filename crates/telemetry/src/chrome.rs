//! Chrome trace-event JSON rendering.
//!
//! The Chrome format (one `{"traceEvents": [...]}` object, timestamps
//! in microseconds) is what Perfetto and `chrome://tracing` load
//! directly. Rendering is byte-deterministic: integer-only timestamp
//! math, fixed float formatting, and events emitted strictly in the
//! order given.

use crate::event::{Phase, TraceEvent};

/// Escapes a string for a JSON string literal (RFC 8259): quotes,
/// backslashes and control characters.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = std::fmt::Write::write_fmt(&mut out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders nanoseconds as the Chrome `ts` field (microseconds with
/// three deterministic decimals — integer math, no float rounding).
pub fn ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn push_args(out: &mut String, e: &TraceEvent) {
    out.push_str("\"args\":{");
    for (i, (k, v)) in e.args().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(&json_escape(k));
        out.push_str("\":");
        v.push_json(out);
    }
    out.push('}');
}

/// Renders a full Chrome trace-event JSON document: process/track name
/// metadata first, then every event. `track_names` maps track ids to
/// display names (unnamed tracks render as their number).
pub fn chrome_trace_json(
    events: &[TraceEvent],
    track_names: &[(u64, String)],
    process_name: &str,
) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(events.len() * 96 + 1024);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let _ = write!(
        out,
        "{{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{{\"name\":\"{}\"}}}}",
        json_escape(process_name)
    );
    for (tid, name) in track_names {
        let _ = write!(
            out,
            ",\n{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(name)
        );
    }
    for e in events {
        let _ = write!(
            out,
            ",\n{{\"ph\":\"{}\",\"pid\":0,\"tid\":{},\"ts\":{},\"name\":\"{}\",\"cat\":\"{}\",",
            e.phase.ph(),
            e.track,
            ts_us(e.ts_ns),
            json_escape(e.name),
            json_escape(e.cat),
        );
        if e.phase == Phase::Instant {
            // Instant scope: thread-scoped, the narrowest marker.
            out.push_str("\"s\":\"t\",");
        }
        push_args(&mut out, e);
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ArgVal, Phase};
    use crate::json::validate_json;

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent::new(1_500, Phase::Begin, "down", "link", 3),
            TraceEvent::new(2_000, Phase::Instant, "drop", "link", 3)
                .arg("reason", ArgVal::S("QueueFull"))
                .arg("bytes", ArgVal::U(1500)),
            TraceEvent::new(2_500, Phase::End, "down", "link", 3),
            TraceEvent::new(3_000, Phase::Counter, "cwnd", "flow", 9).arg("cwnd", ArgVal::F(10.5)),
        ]
    }

    #[test]
    fn ts_us_is_integer_math() {
        assert_eq!(ts_us(0), "0.000");
        assert_eq!(ts_us(1_500), "1.500");
        assert_eq!(ts_us(1_000_007), "1000.007");
    }

    #[test]
    fn json_escape_handles_quotes_controls_and_unicode() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("say \"hi\""), "say \\\"hi\\\"");
        assert_eq!(json_escape("a\\b"), "a\\\\b");
        assert_eq!(json_escape("line1\nline2\ttab"), "line1\\nline2\\ttab");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        // Non-ASCII passes through unescaped — JSON strings are UTF-8.
        assert_eq!(json_escape("café ∞"), "café ∞");
    }

    #[test]
    fn chrome_json_is_valid_and_named() {
        let doc = chrome_trace_json(&sample(), &[(3, "link a→b".into())], "contra-sim");
        validate_json(&doc).expect("valid JSON");
        assert!(doc.contains("\"thread_name\""));
        assert!(doc.contains("link a→b"));
        assert!(doc.contains("\"ts\":1.500"));
        assert!(doc.contains("\"s\":\"t\""));
    }
}
