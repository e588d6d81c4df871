//! Seeded byte-mutation fuzzing of the one JSON reader and the journal
//! loader: corruptions of valid checkpoint, replay and wire request lines
//! must come back as an error, a skipped line or a value — never as a
//! panic or a stack overflow — and the pull reader's tree builder must
//! agree, value for value and error for error, with the recursive-descent
//! parser it replaced (kept below as the reference). The escaper is held
//! to the per-`char` loop it replaced the same way.

use sdem_obs::journal::{Format, Journal};
use sdem_obs::json::{self, ParseError, Value, MAX_DEPTH};
use sdem_prng::{Rng, SeedableRng, SplitMix64};

/// The recursive-descent parser `json::parse` was before the pull reader,
/// verbatim apart from its packaging: the reference for every verdict.
mod reference {
    use super::{ParseError, Value, MAX_DEPTH};

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
}

/// Longest mutated line checked against the reference, whose string scan
/// is quadratic.
const REFERENCE_LIMIT: usize = 64 * 1024;

/// Asserts `json::parse` and the reference agree on `text`, value for
/// value (NaN-free: JSON numbers never parse to NaN) or error for error.
fn assert_agrees(text: &str) -> Result<Value, ParseError> {
    let got = json::parse(text);
    assert_eq!(got, reference::parse(text), "line {text:?}");
    got
}

/// Valid lines of every format the reader sees.
const CORPUS: [&str; 6] = [
    r#"{"sdem_checkpoint":1,"grid_seed":"0x000000000f17b000","points":64,"replications":2}"#,
    r#"{"trial":4,"ok":"3f9c7fe429d163b7 3f79ea855d5a5c02 0000000000000000 6 8 3"}"#,
    r#"{"trial":0,"fault":{"trial":0,"point":0,"replicate":0,"grid_seed":"0x000000000f17b000","seed":"0xb2334ba3e79c1b91","kind":"solver-panic","detail":"injected \"fault\"\n","config":"--kind synthetic --tasks 10"}}"#,
    r#"{"sdem_replay":1,"trace":"seed=0x7e57,sets=2,tasks=3,poisson=0.3,shapes=8","chaos":"","events":40}"#,
    r#"{"seq":0,"line":"{\"v\":1,\"id\":0,\"ok\":true,\"energy_bits\":\"0x3fdb15a337ff739c\",\"degraded\":false}"}"#,
    r#"{"v":1,"id":7,"scheme":"auto","cores":3,"tasks":[[0,0,80,8e6],[1,0,80,1.2e7]]}"#,
];

/// Bytes a mutation inserts, including one that is never valid UTF-8.
const ALPHABET: &[u8] = b"{}[]\",:\\/0123456789.eE+-ntfu \n\t\xff";

/// Hand-picked edge cases for the reference comparison: escapes (a `\u`
/// with a sign, a lone surrogate, a short one), number tokens the scan
/// takes whole, the depth bound and every separator error.
const EDGES: &[&str] = &[
    "",
    "  \t\r\n ",
    r#""\u00e9\u+0e9\ud800\u0041\/\b\f\n\r\t\"\\""#,
    r#""\u12""#,
    r#""\u12"}"#,
    r#""\u-123""#,
    r#""\x""#,
    "\"ab\\",
    "\"unterminated",
    "\"caf\u{e9} \u{1F600} \u{0}\"",
    "[-0, 1e999, -1e999, 01, 1., .5, 1e, -, --1, 1-2, 1e+5, 18446744073709551616]",
    "[1 2]",
    "[1,]",
    "[,1]",
    "[}",
    "{]",
    "{\"a\" 1}",
    "{\"a\":}",
    "{\"a\":1,}",
    "{\"a\":1 \"b\":2}",
    "{1:2}",
    "{}extra",
    "[] []",
    "tru",
    "nul",
    "falsey",
    "\u{e9}",
    "{\"a\":[{\"b\":[]},{}],\"a\":null, \"c\" : \"d\" }",
];

fn below(rng: &mut SplitMix64, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// One to four random edits of `bytes`.
fn mutate(rng: &mut SplitMix64, bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for _ in 0..=below(rng, 4) {
        let at = below(rng, out.len() + 1);
        match below(rng, 6) {
            0 if at < out.len() => out[at] ^= 1 << below(rng, 8),
            1 => out.insert(at, ALPHABET[below(rng, ALPHABET.len())]),
            2 if at < out.len() => {
                out.remove(at);
            }
            3 => out.truncate(at),
            4 => {
                // Duplicate a run, e.g. an opening bracket many times over.
                let len = below(rng, 16).min(out.len() - at);
                let run: Vec<u8> = out[at..at + len].repeat(1 + below(rng, 200));
                out.splice(at..at, run);
            }
            _ => {
                let open = if below(rng, 2) == 0 { b"[" } else { b"{" };
                out.splice(at..at, open.repeat(below(rng, 5_000)));
            }
        }
    }
    out
}

#[test]
fn mutated_lines_never_panic_the_reader() {
    let mut rng = SplitMix64::seed_from_u64(0x5EED_F022);
    let mut parsed = 0usize;
    for case in 0..20_000 {
        let line = CORPUS[case % CORPUS.len()];
        let bytes = mutate(&mut rng, line.as_bytes());
        let text = String::from_utf8_lossy(&bytes);
        let result = if text.len() < REFERENCE_LIMIT {
            assert_agrees(&text)
        } else {
            json::parse(&text)
        };
        if let Ok(doc) = result {
            parsed += 1;
            let _ = doc.get("line").and_then(Value::as_str);
        }
    }
    // The mutations are mild enough that some survive as valid JSON.
    assert!(parsed > 0, "no mutated line parsed");
}

#[test]
fn edge_cases_match_the_reference_parser() {
    for text in EDGES {
        assert_agrees(text).ok();
    }
    let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
    for depth in [MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1] {
        assert_agrees(&nested(depth)).ok();
        assert_agrees(&"{\"k\":".repeat(depth)).ok();
    }
    // Every prefix of every corpus line: each way a line can end early.
    for line in CORPUS {
        for end in (0..=line.len()).filter(|&i| line.is_char_boundary(i)) {
            assert_agrees(&line[..end]).ok();
        }
    }
}

#[test]
fn mutated_journals_never_panic_the_loader() {
    const FORMAT: Format = Format {
        key: "sdem_checkpoint",
        version: 1,
    };
    let path = std::env::temp_dir().join(format!("sdem-obs-fuzz-{}", std::process::id()));
    let file: String = CORPUS.iter().map(|line| format!("{line}\n")).collect();
    let mut rng = SplitMix64::seed_from_u64(0x10AD_F022);
    let mut loaded = 0usize;
    for _ in 0..2_000 {
        std::fs::write(&path, mutate(&mut rng, file.as_bytes())).expect("write journal");
        let resumed = Journal::resume(&path, FORMAT, |doc| {
            let _ = doc.get("trial").and_then(Value::as_u64);
        });
        if let Ok((_, header)) = resumed {
            assert_eq!(header.get(FORMAT.key).and_then(Value::as_u64), Some(1));
            loaded += 1;
        }
    }
    std::fs::remove_file(&path).ok();
    assert!(loaded > 0, "no mutated journal kept its header");
}

/// `json::escape_into` before it copied runs whole: one `char` at a
/// time, verbatim. The reference for the escaper's differential test.
fn escape_per_char(s: &str, out: &mut String) {
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

#[test]
fn escaper_matches_the_per_char_reference() {
    let wide = [
        '\u{80}',
        'é',
        '\u{7ff}',
        '\u{800}',
        '∑',
        '\u{ffff}',
        '\u{10000}',
        '🦀',
    ];
    let mut rng = SplitMix64::seed_from_u64(0xE5CA_9E00);
    let mut pieces = 0usize;
    for case in 0..20_000 {
        let len = below(&mut rng, if case % 100 == 0 { 4096 } else { 48 });
        let text: String = (0..len)
            .map(|_| match below(&mut rng, 3) {
                0 => char::from(below(&mut rng, 0x80) as u8),
                1 => char::from(below(&mut rng, 0x20) as u8),
                _ => wide[below(&mut rng, wide.len())],
            })
            .collect();
        let mut want = String::from("kept:");
        escape_per_char(&text, &mut want);
        let mut got = String::from("kept:");
        json::escape_into(&text, &mut got);
        assert_eq!(got, want, "{text:?}");
        let mut written = b"kept:".to_vec();
        json::write_escaped(&text, &mut written).unwrap();
        assert_eq!(written, want.as_bytes(), "{text:?}");
        assert_eq!(json::quote(&text), format!("\"{}\"", &want[5..]));
        pieces += want.len() - text.len();
    }
    assert!(pieces > 0, "nothing was escaped");
}
