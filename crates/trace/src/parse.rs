//! NDJSON event-stream parsing: a hand-rolled JSON parser (the
//! workspace builds offline, so no serde) with a strict mode that
//! reports line/column diagnostics and a tolerant mode that skips and
//! counts malformed lines.

use std::fmt;

/// A parsed JSON value. The trace schema is flat — one object per
/// line, scalar fields — but the parser accepts arbitrary JSON so a
/// foreign line fails with a type diagnostic, not a syntax error.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null` (also what the writer emits for non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer without fraction or exponent.
    U64(u64),
    /// A negative integer without fraction or exponent.
    I64(i64),
    /// Any other number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array (not part of the trace schema, parsed for robustness).
    Arr(Vec<Json>),
    /// A nested object (not part of the trace schema).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            Json::I64(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            Json::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `bool`, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Looks up a member of an object by key; `None` for non-objects
    /// and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Parses one complete JSON value (with nothing but whitespace around
/// it) into a [`Json`] tree. `ParseError::line` is always 1: this is
/// the single-value entry point the `sec serve` wire protocol and cache
/// files use, not the NDJSON one — for event streams use
/// [`Trace::parse_strict`].
pub fn parse_json(input: &str) -> Result<Json, ParseError> {
    let mut cur = Cursor {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let located = |(col, msg)| ParseError { line: 1, col, msg };
    let value = cur.parse_value().map_err(located)?;
    cur.skip_ws();
    if cur.pos < cur.bytes.len() {
        return Err(ParseError {
            line: 1,
            col: cur.pos + 1,
            msg: "trailing characters after JSON value".into(),
        });
    }
    Ok(value)
}

/// A strict-mode parse failure, located for the user.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number within the input.
    pub line: usize,
    /// 1-based byte column within the line.
    pub col: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, column {}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// One trace event: the envelope fields every line carries, plus the
/// event-specific payload fields in emission order.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Microseconds since the emitting process's epoch.
    pub t_us: u64,
    /// Event name (`round`, `check.end`, `stats.snapshot`, ...).
    pub ev: String,
    /// Attribution scope — the `engine` field stamped by the
    /// portfolio's per-engine handles; `None` for orchestrator/solo
    /// events.
    pub engine: Option<String>,
    /// Payload fields (everything but `t_us`/`ev`/`engine`).
    pub fields: Vec<(String, Json)>,
}

impl Event {
    /// Looks up a payload field by name.
    pub fn field(&self, key: &str) -> Option<&Json> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// A payload field as `u64`.
    pub fn u64(&self, key: &str) -> Option<u64> {
        self.field(key).and_then(Json::as_u64)
    }

    /// A payload field as `f64`.
    pub fn f64(&self, key: &str) -> Option<f64> {
        self.field(key).and_then(Json::as_f64)
    }

    /// A payload field as a string slice.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.field(key).and_then(Json::as_str)
    }
}

/// A parsed trace: the event sequence in input order.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Parsed events.
    pub events: Vec<Event>,
    /// Non-blank input lines seen.
    pub lines: usize,
    /// Malformed lines skipped (tolerant mode only; strict mode fails
    /// instead).
    pub skipped: usize,
}

impl Trace {
    /// Parses every non-blank line, failing on the first malformed one
    /// with a line/column diagnostic.
    pub fn parse_strict(input: &str) -> Result<Trace, ParseError> {
        let mut trace = Trace::default();
        for (idx, line) in input.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            trace.lines += 1;
            match parse_event_line(line) {
                Ok(ev) => trace.events.push(ev),
                Err((col, msg)) => {
                    return Err(ParseError {
                        line: idx + 1,
                        col,
                        msg,
                    })
                }
            }
        }
        Ok(trace)
    }

    /// Parses every non-blank line, skipping malformed ones and
    /// counting them in [`Trace::skipped`].
    pub fn parse_tolerant(input: &str) -> Trace {
        let mut trace = Trace::default();
        for line in input.lines() {
            if line.trim().is_empty() {
                continue;
            }
            trace.lines += 1;
            match parse_event_line(line) {
                Ok(ev) => trace.events.push(ev),
                Err(_) => trace.skipped += 1,
            }
        }
        trace
    }
}

/// Parses one line into an [`Event`], validating the envelope.
/// Errors are `(1-based byte column, message)`.
fn parse_event_line(line: &str) -> Result<Event, (usize, String)> {
    let mut cur = Cursor {
        bytes: line.as_bytes(),
        pos: 0,
    };
    cur.skip_ws();
    let start = cur.pos;
    let value = cur.parse_value()?;
    cur.skip_ws();
    if cur.pos < cur.bytes.len() {
        return Err((cur.pos + 1, "trailing characters after JSON value".into()));
    }
    let Json::Obj(members) = value else {
        return Err((start + 1, "event line is not a JSON object".into()));
    };
    let mut t_us = None;
    let mut ev = None;
    let mut engine = None;
    let mut fields = Vec::with_capacity(members.len().saturating_sub(2));
    for (key, val) in members {
        match key.as_str() {
            "t_us" => match val.as_u64() {
                Some(v) => t_us = Some(v),
                None => return Err((1, "\"t_us\" is not a non-negative integer".into())),
            },
            "ev" => match val {
                Json::Str(s) => ev = Some(s),
                _ => return Err((1, "\"ev\" is not a string".into())),
            },
            "engine" => match val {
                Json::Str(s) => engine = Some(s),
                _ => return Err((1, "\"engine\" is not a string".into())),
            },
            _ => fields.push((key, val)),
        }
    }
    let Some(t_us) = t_us else {
        return Err((1, "missing \"t_us\" field".into()));
    };
    let Some(ev) = ev else {
        return Err((1, "missing \"ev\" field".into()));
    };
    Ok(Event {
        t_us,
        ev,
        engine,
        fields,
    })
}

/// Byte cursor over one line. Errors are `(1-based column, message)`.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, (usize, String)> {
        Err((self.pos + 1, msg.into()))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), (usize, String)> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", b as char))
        }
    }

    fn parse_value(&mut self) -> Result<Json, (usize, String)> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", Json::Bool(true)),
            Some(b'f') => self.parse_literal("false", Json::Bool(false)),
            Some(b'n') => self.parse_literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(c) => self.err(format!("unexpected character '{}'", c as char)),
            None => self.err("unexpected end of line"),
        }
    }

    fn parse_object(&mut self) -> Result<Json, (usize, String)> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return self.err("expected a quoted object key");
            }
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return self.err("expected ',' or '}' in object"),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, (usize, String)> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return self.err("expected ',' or ']' in array"),
            }
        }
    }

    fn parse_literal(&mut self, text: &str, value: Json) -> Result<Json, (usize, String)> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            self.err(format!("expected '{text}'"))
        }
    }

    fn parse_string(&mut self) -> Result<String, (usize, String)> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.parse_hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.parse_hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return self.err("invalid low surrogate");
                                    }
                                    let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(c)
                                } else {
                                    return self.err("unpaired high surrogate");
                                }
                            } else if (0xDC00..0xE000).contains(&cp) {
                                return self.err("unpaired low surrogate");
                            } else {
                                char::from_u32(cp)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return self.err("invalid \\u escape"),
                            }
                            // parse_hex4 leaves pos after the digits;
                            // skip the outer bump below.
                            continue;
                        }
                        _ => return self.err("invalid escape sequence"),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return self.err("unescaped control character"),
                Some(_) => {
                    // Copy the run up to the next quote, backslash or
                    // control byte in one piece, so a long string costs
                    // linear time. The run starts and ends next to ASCII
                    // bytes, so it is whole UTF-8 (the input is a &str).
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c >= 0x20 && c != b'"' && c != b'\\') {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos]);
                    out.push_str(run.expect("input is valid UTF-8"));
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, (usize, String)> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return self.err("truncated \\u escape");
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .ok()
            .and_then(|s| u32::from_str_radix(s, 16).ok());
        match hex {
            Some(v) => {
                self.pos = end;
                Ok(v)
            }
            None => self.err("invalid \\u escape digits"),
        }
    }

    fn parse_number(&mut self) -> Result<Json, (usize, String)> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII");
        if integral {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::I64(v));
            }
        }
        match text.parse::<f64>() {
            Ok(v) => Ok(Json::F64(v)),
            Err(_) => Err((start + 1, format!("invalid number '{text}'"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_an_event_line() {
        let t = Trace::parse_strict(
            "{\"t_us\":12,\"ev\":\"round\",\"engine\":\"sat-corr\",\"round\":3,\"ok\":true,\
             \"pct\":98.5,\"bad\":null,\"note\":\"a\\nb\"}",
        )
        .unwrap();
        assert_eq!(t.events.len(), 1);
        let e = &t.events[0];
        assert_eq!(e.t_us, 12);
        assert_eq!(e.ev, "round");
        assert_eq!(e.engine.as_deref(), Some("sat-corr"));
        assert_eq!(e.u64("round"), Some(3));
        assert_eq!(e.field("ok"), Some(&Json::Bool(true)));
        assert_eq!(e.f64("pct"), Some(98.5));
        assert_eq!(e.field("bad"), Some(&Json::Null));
        assert_eq!(e.str("note"), Some("a\nb"));
        assert_eq!(e.field("missing"), None);
    }

    #[test]
    fn strict_reports_line_and_column() {
        let err = Trace::parse_strict("{\"t_us\":1,\"ev\":\"a\"}\n{\"t_us\":2,\"ev\":\"b\",}\n")
            .unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.col > 1, "column points into the line: {err}");

        let err = Trace::parse_strict("{\"ev\":\"a\"}").unwrap_err();
        assert!(err.msg.contains("t_us"), "{err}");
        let err = Trace::parse_strict("{\"t_us\":1}").unwrap_err();
        assert!(err.msg.contains("ev"), "{err}");
        let err = Trace::parse_strict("[1,2]").unwrap_err();
        assert!(err.msg.contains("not a JSON object"), "{err}");
    }

    #[test]
    fn tolerant_skips_and_counts() {
        let t = Trace::parse_tolerant(
            "{\"t_us\":1,\"ev\":\"a\"}\nnot json\n\n{\"t_us\":2,\"ev\":\"b\"}\n{broken\n",
        );
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.lines, 4);
        assert_eq!(t.skipped, 2);
    }

    #[test]
    fn numbers_keep_their_kind() {
        let t = Trace::parse_strict(
            "{\"t_us\":1,\"ev\":\"x\",\"u\":42,\"i\":-7,\"f\":1.0,\"e\":2e3,\"big\":18446744073709551615}",
        )
        .unwrap();
        let e = &t.events[0];
        assert_eq!(e.field("u"), Some(&Json::U64(42)));
        assert_eq!(e.field("i"), Some(&Json::I64(-7)));
        assert_eq!(e.field("f"), Some(&Json::F64(1.0)));
        assert_eq!(e.field("e"), Some(&Json::F64(2000.0)));
        assert_eq!(e.field("big"), Some(&Json::U64(u64::MAX)));
        assert_eq!(e.u64("i"), None);
        assert_eq!(e.f64("i"), Some(-7.0));
    }

    #[test]
    fn parse_json_single_value() {
        let v = parse_json(" {\"a\":[1,true],\"b\":{\"c\":\"x\"}} ").unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![Json::U64(1), Json::Bool(true)]))
        );
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Json::as_str),
            Some("x")
        );
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Bool(false).as_bool(), Some(false));
        assert_eq!(Json::Null.as_bool(), None);
        assert!(parse_json("{\"a\":1} trailing").is_err());
        assert!(parse_json("{oops").is_err());
    }

    #[test]
    fn nested_values_and_escapes_parse() {
        let t = Trace::parse_strict(
            "{\"t_us\":1,\"ev\":\"x\",\"arr\":[1,\"two\",{\"k\":null}],\"uni\":\"\\u0041\\u00e9\"}",
        )
        .unwrap();
        let e = &t.events[0];
        assert!(matches!(e.field("arr"), Some(Json::Arr(v)) if v.len() == 3));
        assert_eq!(e.str("uni"), Some("Aé"));
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A request line of several MiB (an inline circuit) must parse in
        // one pass, without re-validating the rest of the input at each
        // character.
        let text = "é\\n".repeat(1 << 20) + "x\\\"";
        let line = format!("{{\"s\":\"{text}\"}}");
        let start = std::time::Instant::now();
        let v = parse_json(&line).unwrap();
        assert!(start.elapsed().as_secs() < 5, "{:?}", start.elapsed());
        let s = v.get("s").and_then(Json::as_str).unwrap();
        assert_eq!(s.len(), 3 * (1 << 20) + 2);
        assert!(s.starts_with("é\né\n") && s.ends_with("x\""));
    }
}
