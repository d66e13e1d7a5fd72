//! The strict JSON wire parser: a small recursive-descent reader for the
//! full JSON grammar (no trailing commas, no comments; `\uXXXX` escapes and
//! surrogate pairs) that builds the vendored serde's value tree directly, so
//! requests deserialize from the tree it returns and exporter output (notably
//! [`crate::trace::chrome_trace_json`]) reads back in tests and tooling.
//! Objects are ordered `Vec`s of pairs; lookups are linear.
//!
//! Parsing is linear in the input's length: a string copies each run of
//! plain bytes between escapes with one `push_str`, so a body the size of
//! the serving tier's 1 MiB cap parses in milliseconds.
//!
//! Integer literals (no fraction, no exponent) within `u64`/`i64` parse
//! exactly to [`Value::U64`]/[`Value::I64`]. Every other number is read as
//! `f64` and still takes an integer flavor when integral within ±2^53, so
//! `2e7` and `20000000.0` fill an integer field.

use std::fmt;

pub use serde::json::Json as Value;

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete JSON document. Trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser { text: input, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.text.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError { offset: self.pos, message: msg.into() }
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'n') => self.keyword("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn keyword(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control byte
            // in one piece. Those bytes are ASCII, so the run ends on a
            // character boundary of the `&str` input and needs no
            // re-validation.
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            // Surrogate pair: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let ch = if (0xD800..0xDC00).contains(&hi) {
                                if self.bytes()[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(c).ok_or_else(|| self.err("invalid code point"))?
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid code point"))?
                            };
                            out.push(ch);
                            continue; // hex4 advanced pos past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                // The run above stops only at these three bytes or the end.
                Some(_) => return Err(self.err("unescaped control character")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        if end > self.text.len() {
            return Err(self.err("truncated \\u escape"));
        }
        // Exactly four ASCII hex digits: `u32::from_str_radix` alone would
        // also take a leading `+`. Checked bytewise, so the slice below is
        // on character boundaries.
        if !self.text.as_bytes()[self.pos..end].iter().all(u8::is_ascii_hexdigit) {
            return Err(self.err("invalid \\u escape"));
        }
        let v = u32::from_str_radix(&self.text[self.pos..end], 16).expect("four hex digits");
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: 0 alone, or nonzero digit followed by digits.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        let literal_integer = !matches!(self.peek(), Some(b'.' | b'e' | b'E'));
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit expected after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit expected in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        if literal_integer {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                // `-0` is zero, like the `f64` path reads it.
                return Ok(if n == 0 { Value::U64(0) } else { Value::I64(n) });
            }
        }
        let x = text.parse::<f64>().map_err(|_| self.err("number out of range"))?;
        Ok(if x.fract() == 0.0 && x.abs() <= 2f64.powi(53) {
            if x >= 0.0 {
                Value::U64(x as u64)
            } else {
                Value::I64(x as i64)
            }
        } else {
            Value::F64(x)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("-12.5e2").unwrap(), Value::I64(-1250));
        assert_eq!(parse("0.25").unwrap(), Value::F64(0.25));
        assert_eq!(parse("\"hi\"").unwrap(), Value::Str("hi".into()));
        // Integer literals parse exactly.
        assert_eq!(parse("9007199254740993").unwrap(), Value::U64(9_007_199_254_740_993));
        assert_eq!(parse("18446744073709551615").unwrap(), Value::U64(u64::MAX));
        assert_eq!(parse("-9223372036854775808").unwrap(), Value::I64(i64::MIN));
        assert_eq!(parse("-0").unwrap(), Value::U64(0));
        // Past both integer types, or spelled with a fraction or exponent:
        // the f64 rule.
        assert_eq!(parse("18446744073709551616").unwrap(), Value::F64(1.8446744073709552e19));
        assert_eq!(parse("2e7").unwrap(), Value::U64(20_000_000));
        assert_eq!(parse("-20000000.0").unwrap(), Value::I64(-20_000_000));
        assert_eq!(parse("1e300").unwrap(), Value::F64(1e300));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,2,{"b":null}],"c":{"d":true}}"#).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[1].as_f64(), Some(2.0));
        assert_eq!(a[2].get("b"), Some(&Value::Null));
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_bool(), Some(true));
        assert_eq!(v.as_object().unwrap().len(), 2);
    }

    #[test]
    fn handles_escapes_and_unicode() {
        let v = parse(r#""a\"b\\c\n\u0041\uD83D\uDE00""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nA\u{1F600}"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "01", "1.", "1e", "tru",
            "\"\\x\"", "\"\\uD800\"", "\"unterminated", "[1] extra", "nan",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed input: {bad:?}");
        }
    }

    #[test]
    fn round_trips_empty_containers() {
        assert_eq!(parse("[]").unwrap(), Value::Array(vec![]));
        assert_eq!(parse("{}").unwrap(), Value::Object(vec![]));
        assert_eq!(parse("[ ]").unwrap().as_array().unwrap().len(), 0);
    }

    #[test]
    fn error_reports_offset() {
        let err = parse("[1, x]").unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.to_string().contains("byte 4"));
    }

    #[test]
    fn string_errors_keep_their_offsets_and_messages() {
        for (input, offset, message) in [
            ("\"ab\ncd\"", 3, "unescaped control character"),
            ("\"é\u{1}\"", 3, "unescaped control character"),
            ("{\"k\u{1f}\":1}", 3, "unescaped control character"),
            ("\"a\\x\"", 3, "invalid escape"),
            ("\"ü\\", 4, "invalid escape"),
            ("\"\\uD800\"", 7, "lone high surrogate"),
            ("\"\\uD83D\\u0041\"", 13, "invalid low surrogate"),
            ("\"\\uDC00\"", 7, "lone low surrogate"),
            ("\"\\u12", 3, "truncated \\u escape"),
            ("\"\\uZZZZ\"", 3, "invalid \\u escape"),
            ("\"\\u+041\"", 3, "invalid \\u escape"),
            ("\"\\u000é\"", 3, "invalid \\u escape"),
            ("\"abc", 4, "unterminated string"),
            ("\"日本", 7, "unterminated string"),
            ("[\"a\\n\"", 6, "expected ',' or ']' in array"),
        ] {
            let err = parse(input).unwrap_err();
            assert_eq!((err.offset, err.message.as_str()), (offset, message), "input {input:?}");
        }
    }

    #[test]
    fn a_body_sized_string_parses_exactly() {
        // The serving tier's request-body cap (`MAX_BODY_BYTES`, 1 MiB): one
        // string filling a whole body, mixing plain runs, multi-byte text
        // and escapes, parses to exactly the text it spells.
        const BODY_BYTES: usize = 1 << 20;
        let mut body = String::with_capacity(BODY_BYTES);
        let mut expected = String::new();
        body.push('"');
        let pieces: [(&str, &str); 4] = [
            ("plain ascii ", "plain ascii "),
            ("größe 日本 😀", "größe 日本 😀"),
            ("\\n\\\"", "\n\""),
            ("\\u00e9", "é"),
        ];
        let mut i = 0;
        while body.len() + 32 < BODY_BYTES {
            let (raw, text) = pieces[i % pieces.len()];
            body.push_str(raw);
            expected.push_str(text);
            i += 1;
        }
        while body.len() + 1 < BODY_BYTES {
            body.push('x');
            expected.push('x');
        }
        body.push('"');
        assert_eq!(body.len(), BODY_BYTES);
        assert_eq!(parse(&body).unwrap(), Value::Str(expected));
    }

    /// A character from a pool weighted towards what JSON strings must
    /// escape or carry as multi-byte UTF-8.
    fn pick_char(class: u8, raw: u32) -> char {
        let from = |lo: u32, hi: u32| char::from_u32(lo + raw % (hi - lo)).expect("a scalar range");
        match class % 8 {
            0 => from(0x20, 0x7f),
            1 => ['"', '\\', '/'][raw as usize % 3],
            2 => from(0x00, 0x20),
            3 => from(0x80, 0x800),
            4 => from(0x800, 0xd800),
            5 => from(0xe000, 0x1_0000),
            6 => from(0x1_0000, 0x11_0000),
            _ => char::from_u32(raw % 0x11_0000).unwrap_or('\u{fffd}'),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn arbitrary_strings_round_trip_through_the_writer(
            chars in collection::vec((any::<u8>(), any::<u32>()), 0..96),
        ) {
            let s: String = chars.iter().map(|&(class, raw)| pick_char(class, raw)).collect();
            let text = serde_json::to_string(&s).unwrap();
            prop_assert_eq!(parse(&text).unwrap(), Value::Str(s.clone()));
            // As an object key and inside an array, too.
            let v = parse(&format!("{{{text}:[{text}]}}")).unwrap();
            prop_assert_eq!(v, Value::Object(vec![(s.clone(), Value::Array(vec![Value::Str(s)]))]));
        }
    }
}
