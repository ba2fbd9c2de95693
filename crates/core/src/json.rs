//! The one JSON string escaper every hand-rolled JSON writer in the
//! workspace shares (telemetry snapshots and traces, preflight
//! JSON/SARIF, bench result files), so they all escape the same way.

use std::fmt::Write as _;

/// Append `s` as a JSON string literal: quotes, backslashes and control
/// characters escaped, everything else copied through in runs.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            0..=0x1f => None,
            _ => continue,
        };
        // Only ASCII bytes stop a run, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        match short {
            Some(esc) => out.push_str(esc),
            None => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// `s` as a JSON string literal, for `format!`-style writers.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_str(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        let mut out = String::from("x=");
        push_json_str(&mut out, "a\"b\\c\nd\u{1}é\t");
        assert_eq!(out, "x=\"a\\\"b\\\\c\\nd\\u0001é\\u0009\"");
        assert_eq!(json_str("\r"), "\"\\u000d\"");
    }
}
