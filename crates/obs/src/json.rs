//! Minimal JSON serialization for NDJSON event lines (no external
//! dependencies; the workspace builds offline).

use crate::Value;
use std::fmt::Write as _;

/// Escapes `s` for inclusion inside a JSON string literal (without the
/// quotes): `"`, `\`, `\n`, `\r` and `\t` get their short escapes, every
/// other control character a `\u00XX` one. The workspace's one JSON
/// string escaper.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Appends `s` to `out`, escaped as by [`escape_json`].
fn escape_into(out: &mut String, s: &str) {
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
}

/// Appends `s` to `out` as a JSON string literal (with quotes).
pub(crate) fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Appends a field value as a JSON value.
pub(crate) fn push_value(out: &mut String, v: &Value) {
    match v {
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::I64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::F64(x) => {
            if x.is_finite() {
                // Debug, not Display: `1.0` must print as "1.0" so a
                // parser round-trips it as a float, not an integer.
                let _ = write!(out, "{x:?}");
            } else {
                out.push_str("null");
            }
        }
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Value::Str(s) => push_escaped(out, s),
    }
}

/// Formats one NDJSON event line (without the trailing newline):
/// `{"t_us":N,"ev":"name","engine":"scope",...fields}`.
pub(crate) fn event_line(
    at_us: u64,
    scope: Option<&str>,
    name: &str,
    fields: &[(&'static str, Value)],
) -> String {
    let mut line = String::with_capacity(64 + fields.len() * 24);
    let _ = write!(line, "{{\"t_us\":{at_us},\"ev\":");
    push_escaped(&mut line, name);
    if let Some(scope) = scope {
        line.push_str(",\"engine\":");
        push_escaped(&mut line, scope);
    }
    for (k, v) in fields {
        line.push(',');
        push_escaped(&mut line, k);
        line.push(':');
        push_value(&mut line, v);
    }
    line.push('}');
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_every_control_character() {
        assert_eq!(
            escape_json("a\"b\\c\nd\re\tf\u{1}g\u{1f}h\u{7f}é"),
            "a\\\"b\\\\c\\nd\\re\\tf\\u0001g\\u001fh\u{7f}é"
        );
        for c in (0u8..0x20).map(char::from) {
            let escaped = escape_json(&c.to_string());
            assert!(escaped.starts_with('\\'), "{c:?} -> {escaped}");
        }
        let mut s = String::new();
        push_escaped(&mut s, "\"\t");
        assert_eq!(s, "\"\\\"\\t\"");
    }

    #[test]
    fn floats_round_trip_as_floats() {
        let mut s = String::new();
        push_value(&mut s, &Value::F64(1.0));
        assert_eq!(s, "1.0");
        s.clear();
        push_value(&mut s, &Value::F64(f64::INFINITY));
        assert_eq!(s, "null");
        s.clear();
        push_value(&mut s, &Value::F64(f64::NEG_INFINITY));
        assert_eq!(s, "null");
        s.clear();
        push_value(&mut s, &Value::F64(0.1));
        assert_eq!(s.parse::<f64>().unwrap(), 0.1);
    }

    #[test]
    fn formats_event_line() {
        let line = event_line(
            12,
            Some("bmc"),
            "round",
            &[
                ("round", Value::U64(3)),
                ("ok", Value::Bool(true)),
                ("note", Value::Str("x".into())),
                ("bad", Value::F64(f64::NAN)),
            ],
        );
        assert_eq!(
            line,
            "{\"t_us\":12,\"ev\":\"round\",\"engine\":\"bmc\",\"round\":3,\"ok\":true,\"note\":\"x\",\"bad\":null}"
        );
    }
}
