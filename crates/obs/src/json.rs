//! Minimal, dependency-free JSON: string escaping for the writers and a
//! small recursive-descent parser for `sdem stats` / `sdem stats --check`.
//!
//! The parser accepts standard JSON (objects, arrays, strings with
//! escapes, numbers, booleans, null) and preserves object key order. It
//! exists so the CLI can validate and summarise the files this crate
//! writes without pulling in an external dependency; it is not a
//! general-purpose validator (e.g. it does not enforce UTF-16 surrogate
//! pairing in `\u` escapes).

use std::fmt;

/// Escapes `s` into `out` as JSON string *contents* (no quotes).
pub fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Returns `s` as a quoted, escaped JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(s, &mut out);
    out.push('"');
    out
}

/// A parsed JSON value. Object keys keep their source order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, as `f64`.
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source key order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object (`None` for other kinds or a missing key).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for ParseError {}

/// Deepest nesting of arrays and objects [`parse`] accepts: it recurses
/// once per container, and a line of 100,000 `[` must be an error, not a
/// stack overflow. No document the workspace reads nests deeper than 4.
pub const MAX_DEPTH: usize = 64;

/// Parses one complete JSON document (trailing whitespace allowed).
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers open at `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, reason: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            reason: reason.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn nested(
        &mut self,
        container: impl FnOnce(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err(format!("bad number '{text}'")))
    }
}

/// What a validated metrics file contains (for `stats --check` output).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsCheck {
    /// Number of counters present.
    pub counters: usize,
    /// Number of histograms present.
    pub histograms: usize,
    /// Number of gauges present.
    pub gauges: usize,
}

/// Validates a metrics document written by
/// [`crate::registry::MetricsSnapshot::to_json`].
pub fn validate_metrics(doc: &Value) -> Result<MetricsCheck, String> {
    if doc.get("sdem_metrics").and_then(Value::as_u64) != Some(1) {
        return Err("missing or unsupported \"sdem_metrics\" version".into());
    }
    let counters = doc
        .get("counters")
        .and_then(Value::as_obj)
        .ok_or("missing \"counters\" object")?;
    for (name, value) in counters {
        value
            .as_u64()
            .ok_or_else(|| format!("counter \"{name}\" is not a non-negative integer"))?;
    }
    let histograms = doc
        .get("histograms")
        .and_then(Value::as_obj)
        .ok_or("missing \"histograms\" object")?;
    for (label, h) in histograms {
        let field = |key: &str| {
            h.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("histogram \"{label}\": bad \"{key}\""))
        };
        let count = field("count")?;
        field("sum")?;
        let min = field("min")?;
        let max = field("max")?;
        let p50 = field("p50")?;
        let p90 = field("p90")?;
        let p99 = field("p99")?;
        if count == 0 {
            return Err(format!(
                "histogram \"{label}\": empty histograms are not exported"
            ));
        }
        if min > max || p50 > p90 || p90 > p99 || p99 > max {
            return Err(format!("histogram \"{label}\": non-monotonic summary"));
        }
        let buckets = h
            .get("buckets")
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("histogram \"{label}\": missing \"buckets\""))?;
        let mut total = 0u64;
        for pair in buckets {
            let pair = pair.as_arr().filter(|p| p.len() == 2).ok_or_else(|| {
                format!("histogram \"{label}\": bucket entries must be [index, count]")
            })?;
            pair[0]
                .as_u64()
                .filter(|&i| i < crate::hist::BUCKETS as u64)
                .ok_or_else(|| format!("histogram \"{label}\": bad bucket index"))?;
            total += pair[1]
                .as_u64()
                .ok_or_else(|| format!("histogram \"{label}\": bad bucket count"))?;
        }
        if total != count {
            return Err(format!(
                "histogram \"{label}\": bucket counts sum to {total}, \"count\" says {count}"
            ));
        }
    }
    let gauges = doc
        .get("gauges")
        .and_then(Value::as_obj)
        .ok_or("missing \"gauges\" object")?;
    for (label, g) in gauges {
        let value = g
            .get("value")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("gauge \"{label}\": missing \"value\""))?;
        let bits = g
            .get("bits")
            .and_then(Value::as_str)
            .and_then(|s| s.strip_prefix("0x"))
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| format!("gauge \"{label}\": missing or bad \"bits\""))?;
        // `value` survives a JSON round trip only to ~17 significant
        // digits; `bits` is the exact payload. They must agree to the
        // printed precision.
        let exact = f64::from_bits(bits);
        if exact.is_finite() && (exact - value).abs() > exact.abs() * 1e-12 + 1e-300 {
            return Err(format!(
                "gauge \"{label}\": \"value\" {value} disagrees with \"bits\" {exact}"
            ));
        }
    }
    Ok(MetricsCheck {
        counters: counters.len(),
        histograms: histograms.len(),
        gauges: gauges.len(),
    })
}

/// What a validated trace file contains (for `stats --check` output).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCheck {
    /// Number of events (spans + instants).
    pub events: usize,
    /// Number of span events (with `dur_ns`).
    pub spans: usize,
}

/// Validates a JSONL trace written by [`crate::trace::drain_jsonl`].
pub fn validate_trace(text: &str) -> Result<TraceCheck, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty trace file")?;
    let header = parse(header).map_err(|e| format!("header: {e}"))?;
    if header.get("sdem_trace").and_then(Value::as_u64) != Some(1) {
        return Err("missing or unsupported \"sdem_trace\" version".into());
    }
    let declared = header
        .get("events")
        .and_then(Value::as_u64)
        .ok_or("header: missing \"events\" count")?;
    let mut events = 0usize;
    let mut spans = 0usize;
    let mut last_ts = 0u64;
    for (i, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let event = parse(line).map_err(|e| format!("line {}: {e}", i + 2))?;
        event
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: missing \"name\"", i + 2))?;
        event
            .get("tid")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("line {}: missing \"tid\"", i + 2))?;
        let ts = event
            .get("ts_ns")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("line {}: missing \"ts_ns\"", i + 2))?;
        if ts < last_ts {
            return Err(format!("line {}: timestamps are not sorted", i + 2));
        }
        last_ts = ts;
        if let Some(dur) = event.get("dur_ns") {
            dur.as_u64()
                .ok_or_else(|| format!("line {}: bad \"dur_ns\"", i + 2))?;
            spans += 1;
        }
        events += 1;
    }
    if events as u64 != declared {
        return Err(format!(
            "header declares {declared} events, file has {events}"
        ));
    }
    Ok(TraceCheck { events, spans })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = parse(r#"{"a":[1,2.5,-3e2],"b":{"c":"x\n\"y\"","d":true,"e":null}}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            doc.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(
            doc.get("b").unwrap().get("c").unwrap().as_str(),
            Some("x\n\"y\"")
        );
        assert_eq!(doc.get("b").unwrap().get("d"), Some(&Value::Bool(true)));
        assert_eq!(doc.get("b").unwrap().get("e"), Some(&Value::Null));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{}extra").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.reason.contains("nesting"), "{err}");
        // Far past the limit: an error, not a stack overflow.
        assert!(parse(&"[{\"a\":".repeat(100_000)).is_err());
        // Siblings do not accumulate depth.
        assert!(parse(&format!("[{}]", vec![nested(MAX_DEPTH - 1); 3].join(","))).is_ok());
    }

    #[test]
    fn quoting_round_trips() {
        let original = "a\"b\\c\nd\te\u{1}";
        let quoted = quote(original);
        assert_eq!(parse(&quoted).unwrap().as_str(), Some(original));
    }

    #[test]
    fn validates_trace_files() {
        let good = "{\"sdem_trace\":1,\"events\":2}\n\
                    {\"name\":\"a\",\"tid\":0,\"ts_ns\":5,\"dur_ns\":2}\n\
                    {\"name\":\"b\",\"tid\":1,\"ts_ns\":9}\n";
        assert_eq!(
            validate_trace(good),
            Ok(TraceCheck {
                events: 2,
                spans: 1
            })
        );
        assert!(validate_trace("{\"sdem_trace\":2,\"events\":0}\n").is_err());
        let miscounted = "{\"sdem_trace\":1,\"events\":3}\n\
                          {\"name\":\"a\",\"tid\":0,\"ts_ns\":5}\n";
        assert!(validate_trace(miscounted).is_err());
        let unsorted = "{\"sdem_trace\":1,\"events\":2}\n\
                        {\"name\":\"a\",\"tid\":0,\"ts_ns\":9}\n\
                        {\"name\":\"b\",\"tid\":0,\"ts_ns\":5}\n";
        assert!(validate_trace(unsorted).is_err());
    }
}
