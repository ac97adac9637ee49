//! JSON string literals for the hand-rolled, byte-stable JSON outputs
//! (lint diagnostics, scenario and fleet reports). The build vendors no
//! serde, so those writers all quote strings through [`json_str`].

use std::fmt::Write as _;

/// `s` as a quoted JSON string: quote, backslash and control
/// characters escaped (`\n`, `\r`, `\t` by name, the rest as `\u00XX`);
/// everything else verbatim.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(json_str("plain"), "\"plain\"");
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_str("l1\nl2\r\t"), "\"l1\\nl2\\r\\t\"");
        assert_eq!(json_str("\u{1}é"), "\"\\u0001é\"");
    }
}
