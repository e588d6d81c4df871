//! Minimal, dependency-free JSON: string escaping for the writers and one
//! reader for everything the workspace reads back (journals, `sdem stats`,
//! wire requests).
//!
//! The reader is a linear pull layer, [`Reader`], that emits [`Event`]s
//! over borrowed slices; [`parse`] is the tree builder on top of it, and
//! a caller that knows its schema (the serve request decoder) reads the
//! events directly and builds no tree. It accepts standard JSON (objects,
//! arrays, strings with escapes, numbers, booleans, null) and preserves
//! object key order. It is not a general-purpose validator (e.g. it does
//! not enforce UTF-16 surrogate pairing in `\u` escapes).

use std::borrow::Cow;
use std::convert::Infallible;
use std::fmt;
use std::io;

/// The escape of each byte below 0x20: `\t`, `\n` and `\r` have short
/// forms, every other control byte is `\u00XX`.
#[rustfmt::skip]
const CONTROL_ESCAPES: [&str; 32] = [
    "\\u0000", "\\u0001", "\\u0002", "\\u0003", "\\u0004", "\\u0005", "\\u0006", "\\u0007",
    "\\u0008", "\\t",     "\\n",     "\\u000b", "\\u000c", "\\r",     "\\u000e", "\\u000f",
    "\\u0010", "\\u0011", "\\u0012", "\\u0013", "\\u0014", "\\u0015", "\\u0016", "\\u0017",
    "\\u0018", "\\u0019", "\\u001a", "\\u001b", "\\u001c", "\\u001d", "\\u001e", "\\u001f",
];

/// Escapes `s` as JSON string contents, handing `put` its pieces in
/// order: each run of bytes copied as is, and the escape of each byte
/// that needs one (`"`, `\` and the bytes below 0x20). Those bytes are
/// ASCII, so every run is whole UTF-8.
fn escape_runs<E>(s: &str, mut put: impl FnMut(&str) -> Result<(), E>) -> Result<(), E> {
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            0..=0x1f => CONTROL_ESCAPES[usize::from(b)],
            _ => continue,
        };
        if run < i {
            put(&s[run..i])?;
        }
        put(escape)?;
        run = i + 1;
    }
    if run < s.len() {
        put(&s[run..])?;
    }
    Ok(())
}

/// Escapes `s` into `out` as JSON string *contents* (no quotes).
pub fn escape_into(s: &str, out: &mut String) {
    let Ok(()) = escape_runs(s, |piece| {
        out.push_str(piece);
        Ok::<(), Infallible>(())
    });
}

/// Writes `s` to `out` as JSON string *contents* (no quotes): the bytes
/// [`escape_into`] appends, with no intermediate `String`.
///
/// # Errors
///
/// The first error `out` returns.
pub fn write_escaped(s: &str, out: &mut (impl io::Write + ?Sized)) -> io::Result<()> {
    escape_runs(s, |piece| out.write_all(piece.as_bytes()))
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

/// Deepest nesting of arrays and objects the [`Reader`] accepts:
/// [`Reader::value`] recurses once per container, and a line of 100,000
/// `[` must be an error, not a stack overflow. No document the workspace
/// reads nests deeper than 4. (The reader keeps one bit per open
/// container in a `u64`.)
pub const MAX_DEPTH: usize = 64;
const _: () = assert!(MAX_DEPTH <= u64::BITS as usize);

/// Parses one complete JSON document (trailing whitespace allowed): the
/// tree builder over [`Reader`].
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut reader = Reader::new(text);
    let first = reader.next_event()?;
    let value = reader.value(first)?;
    reader.finish()?;
    Ok(value)
}

/// One token of a document, in source order, as [`Reader::next_event`]
/// emits it. Strings borrow from the input unless they hold an escape.
#[derive(Debug, PartialEq)]
pub enum Event<'a> {
    /// `{`; keys and their values follow until [`Event::EndObject`].
    BeginObject,
    /// `}`
    EndObject,
    /// `[`; values follow until [`Event::EndArray`].
    BeginArray,
    /// `]`
    EndArray,
    /// An object key (escapes resolved); the events of its value follow.
    Key(Cow<'a, str>),
    /// A string value (escapes resolved).
    Str(Cow<'a, str>),
    /// A number, converted by `str::parse::<f64>`.
    Num(f64),
    /// `true` / `false`
    Bool(bool),
    /// `null`
    Null,
}

/// What [`Reader::next_event`] reads next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// A value: the root, an object member's, or an array element after `,`.
    Value,
    /// Just after `[`: `]` or the first element.
    ArrayOpen,
    /// Just after `{`: `}` or the first key.
    ObjectOpen,
    /// After a value inside a container: `,` or the closing bracket.
    Next,
    /// The root value is complete.
    Done,
}

/// The one JSON reader: a linear pull parser that emits [`Event`]s over
/// borrowed slices.
///
/// The input is read front to back once: a string is copied run by run
/// between its escapes (and not at all without one), and a number token
/// is converted with `str::parse::<f64>`. Open containers are kept in a
/// bit mask, not on the call stack; nesting deeper than [`MAX_DEPTH`] is
/// an error, so [`Reader::value`] recurses at most that deep. The first
/// error in source order ends the document, with the offset and reason
/// [`parse`] reports.
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Containers open at `pos`.
    depth: usize,
    /// Bit `d` is set when the container at depth `d + 1` is an object.
    objects: u64,
    state: State,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Self {
            text,
            pos: 0,
            depth: 0,
            objects: 0,
            state: State::Value,
        }
    }

    /// The next event. After the root value's last event, call
    /// [`Reader::finish`]; `next_event` then only reports an error.
    #[inline]
    pub fn next_event(&mut self) -> Result<Event<'a>, ParseError> {
        self.skip_ws();
        match self.state {
            State::Value => self.value_event(),
            State::ArrayOpen if self.peek() == Some(b']') => self.close(),
            State::ArrayOpen => self.value_event(),
            State::ObjectOpen if self.peek() == Some(b'}') => self.close(),
            State::ObjectOpen => self.key(),
            State::Next => {
                let object = self.objects >> (self.depth - 1) & 1 == 1;
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                        self.skip_ws();
                        if object {
                            self.key()
                        } else {
                            self.value_event()
                        }
                    }
                    Some(b'}') if object => self.close(),
                    Some(b']') if !object => self.close(),
                    _ if object => Err(self.err("expected ',' or '}'")),
                    _ => Err(self.err("expected ',' or ']'")),
                }
            }
            State::Done if self.pos < self.text.len() => {
                Err(self.err("trailing characters after document"))
            }
            State::Done => Err(self.err("unexpected end of input")),
        }
    }

    /// Builds the [`Value`] that `first` (the event just read) begins,
    /// reading the rest of it.
    ///
    /// # Panics
    ///
    /// If `first` is a key or a closing bracket, which begin no value.
    pub fn value(&mut self, first: Event<'a>) -> Result<Value, ParseError> {
        Ok(match first {
            Event::Null => Value::Null,
            Event::Bool(b) => Value::Bool(b),
            Event::Num(n) => Value::Num(n),
            Event::Str(s) => Value::Str(s.into_owned()),
            Event::BeginArray => {
                let mut items = Vec::new();
                loop {
                    match self.next_event()? {
                        Event::EndArray => break Value::Arr(items),
                        event => items.push(self.value(event)?),
                    }
                }
            }
            Event::BeginObject => {
                let mut members = Vec::new();
                while let Event::Key(key) = self.next_event()? {
                    let event = self.next_event()?;
                    members.push((key.into_owned(), self.value(event)?));
                }
                Value::Obj(members)
            }
            Event::Key(_) | Event::EndArray | Event::EndObject => {
                panic!("Reader::value called with {first:?}, which begins no value")
            }
        })
    }

    /// Reads past the rest of the value that `first` (the event just
    /// read) begins, checking its syntax and depth but building nothing.
    pub fn skip(&mut self, first: Event<'a>) -> Result<(), ParseError> {
        if matches!(first, Event::BeginArray | Event::BeginObject) {
            let outer = self.depth - 1;
            while self.depth > outer {
                self.next_event()?;
            }
        }
        Ok(())
    }

    /// The input not yet read.
    pub fn rest(&self) -> &'a str {
        &self.text[self.pos..]
    }

    /// Reads past whatever the caller left unread of the root value, then
    /// checks that only whitespace follows it.
    pub fn finish(mut self) -> Result<(), ParseError> {
        while self.state != State::Done {
            self.next_event()?;
        }
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.err("trailing characters after document"));
        }
        Ok(())
    }

    fn err(&self, reason: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            reason: reason.into(),
        }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        let rest = &self.text.as_bytes()[self.pos..];
        self.pos += rest
            .iter()
            .position(|b| !matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
            .unwrap_or(rest.len());
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", byte as char)))
        }
    }

    /// The state after a complete value at the current depth.
    #[inline]
    fn value_done(&mut self) {
        self.state = if self.depth == 0 {
            State::Done
        } else {
            State::Next
        };
    }

    #[inline]
    fn value_event(&mut self) -> Result<Event<'a>, ParseError> {
        let event = match self.peek() {
            Some(b'{') => return self.open(true),
            Some(b'[') => return self.open(false),
            Some(b'"') => Event::Str(self.string()?),
            Some(b't') => self.literal("true", Event::Bool(true))?,
            Some(b'f') => self.literal("false", Event::Bool(false))?,
            Some(b'n') => self.literal("null", Event::Null)?,
            Some(b'-' | b'0'..=b'9') => Event::Num(self.number()?),
            Some(c) => return Err(self.err(format!("unexpected character '{}'", c as char))),
            None => return Err(self.err("unexpected end of input")),
        };
        self.value_done();
        Ok(event)
    }

    fn open(&mut self, object: bool) -> Result<Event<'a>, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.objects = self.objects & !(1 << self.depth) | (object as u64) << self.depth;
        self.depth += 1;
        self.pos += 1;
        if object {
            self.state = State::ObjectOpen;
            Ok(Event::BeginObject)
        } else {
            self.state = State::ArrayOpen;
            Ok(Event::BeginArray)
        }
    }

    /// Consumes the closing bracket of the innermost container.
    #[inline]
    fn close(&mut self) -> Result<Event<'a>, ParseError> {
        self.depth -= 1;
        self.pos += 1;
        self.value_done();
        Ok(if self.objects >> self.depth & 1 == 1 {
            Event::EndObject
        } else {
            Event::EndArray
        })
    }

    fn key(&mut self) -> Result<Event<'a>, ParseError> {
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.state = State::Value;
        Ok(Event::Key(key))
    }

    fn literal(&mut self, word: &str, event: Event<'a>) -> Result<Event<'a>, ParseError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(event)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    /// A string token, borrowed when it holds no escape. Each run between
    /// escapes is found by one byte scan and copied once: `"` and `\` never
    /// occur inside a multi-byte UTF-8 sequence, so every run ends on a
    /// character boundary.
    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect(b'"')?;
        let bytes = self.text.as_bytes();
        let mut owned: Option<String> = None;
        loop {
            let run = self.pos;
            let Some(len) = bytes[run..].iter().position(|&b| b == b'"' || b == b'\\') else {
                self.pos = bytes.len();
                return Err(self.err("unterminated string"));
            };
            self.pos += len;
            let plain = &self.text[run..self.pos];
            if bytes[self.pos] == b'"' {
                self.pos += 1;
                return Ok(match owned {
                    None => Cow::Borrowed(plain),
                    Some(mut out) => {
                        out.push_str(plain);
                        Cow::Owned(out)
                    }
                });
            }
            let out = owned.get_or_insert_with(String::new);
            out.push_str(plain);
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
                    let hex = bytes
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
    }

    /// A number token: its first byte (`-` or a digit), then every byte
    /// of the set `0-9 . e E + -`, converted by `str::parse::<f64>`.
    #[inline]
    fn number(&mut self) -> Result<f64, ParseError> {
        let start = self.pos;
        let rest = &self.text.as_bytes()[start + 1..];
        self.pos += 1 + rest
            .iter()
            .position(|b| !matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
            .unwrap_or(rest.len());
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
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
    fn reader_borrows_plain_strings_and_skips_values() {
        let text = r#"{"plain":"abc","esc\u0061ped":"x\ny","skip":[{"a":[1,{}]}],"n":-2.5e1}"#;
        let mut r = Reader::new(text);
        assert_eq!(r.next_event(), Ok(Event::BeginObject));
        assert!(matches!(
            r.next_event(),
            Ok(Event::Key(Cow::Borrowed("plain")))
        ));
        assert!(matches!(
            r.next_event(),
            Ok(Event::Str(Cow::Borrowed("abc")))
        ));
        assert_eq!(r.next_event(), Ok(Event::Key("escaped".into())));
        assert_eq!(r.next_event(), Ok(Event::Str("x\ny".into())));
        assert_eq!(r.next_event(), Ok(Event::Key("skip".into())));
        let first = r.next_event().unwrap();
        r.skip(first).unwrap();
        assert_eq!(r.next_event(), Ok(Event::Key("n".into())));
        assert_eq!(r.next_event(), Ok(Event::Num(-25.0)));
        assert_eq!(r.next_event(), Ok(Event::EndObject));
        assert_eq!(
            r.next_event().unwrap_err().reason,
            "unexpected end of input"
        );
        assert_eq!(r.finish(), Ok(()));
        // `finish` reads past what the caller left, so a truncated
        // document is still an error.
        let mut r = Reader::new("[1,");
        assert_eq!(r.next_event(), Ok(Event::BeginArray));
        assert_eq!(r.finish().unwrap_err().reason, "unexpected end of input");
    }

    #[test]
    fn long_strings_read_in_linear_time() {
        // 4 MB string values, plain and with an escape in every KB: a
        // scan that revisits the rest of the input per character (as the
        // parser before the pull reader did) would take minutes here.
        let plain = "x".repeat(4 << 20);
        let block = format!("\\u00e9{}", "y".repeat(1018));
        let escaped = block.repeat(4 << 10);
        let decoded = format!("\u{e9}{}", "y".repeat(1018)).repeat(4 << 10);
        for (raw, want) in [(&plain, &plain), (&escaped, &decoded)] {
            let line = format!("{{\"line\":\"{raw}\"}}");
            let start = std::time::Instant::now();
            let doc = parse(&line).unwrap();
            let took = start.elapsed();
            assert_eq!(doc.get("line").and_then(Value::as_str), Some(want.as_str()));
            assert!(
                took.as_secs_f64() < 1.0,
                "{} MB line took {took:?}",
                line.len() >> 20
            );
        }
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
